//! EDB databases with provenance-tagged facts (paper §2.4).
//!
//! Every EDB fact gets a dense [`FactId`] that doubles as the provenance
//! variable `x_α` tagging it: circuits use it as an input id, and the
//! [`semiring::Sorp`] oracle uses it as a polynomial variable. The facts
//! live in the flat store a `GroundedProgram` keeps its IDB facts in, one
//! copy of each tuple. A retract leaves a tombstone and a re-insert gets
//! a fresh id ([`Database::retract`]). Each predicate holds one arity,
//! fixed by its first insert ([`Database::insert`]).

use grammar::Terminal;
use graphgen::LabeledDigraph;

use crate::ast::Program;
use crate::symbols::{ConstId, Interner, PredId};
use crate::tuples::FactStore;

/// Provenance variable / fact id of an EDB fact.
pub type FactId = u32;

/// An EDB database: relations over an interned active domain, with
/// tombstoned retracts (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// The active domain.
    pub consts: Interner,
    pub(crate) facts: FactStore,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Intern a domain constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        self.consts.intern(name)
    }

    /// Insert a fact, returning its id (stable across duplicate inserts).
    /// Panics when `pred` holds facts of another [`arity`](Self::arity):
    /// writers check first.
    pub fn insert(&mut self, pred: PredId, tuple: &[ConstId]) -> FactId {
        self.facts.insert(pred, tuple)
    }

    /// Remove a fact, keeping its [`FactId`] slot as a tombstone so every
    /// other fact id stays valid. Returns the removed id, or `None` when
    /// the fact is absent.
    ///
    /// Fact ids are never reused: a later [`insert`](Database::insert) of
    /// the same tuple allocates a *fresh* id. That is what lets the
    /// incremental-maintenance layer retire exactly the grounded rules
    /// referencing the old id and treat a re-insert as genuinely new
    /// support (with a fresh provenance variable).
    pub fn retract(&mut self, pred: PredId, tuple: &[ConstId]) -> Option<FactId> {
        self.facts.retract(pred, tuple)
    }

    /// Whether the fact id is live (not retracted). Tombstoned ids still
    /// resolve through [`fact`](Database::fact) so provenance variables
    /// stay printable, but they no longer join.
    pub fn is_live(&self, id: FactId) -> bool {
        self.facts.is_live(id)
    }

    /// Whether the fact is present.
    pub fn contains(&self, pred: PredId, tuple: &[ConstId]) -> bool {
        self.fact_id(pred, tuple).is_some()
    }

    /// The id of a fact, if present.
    pub fn fact_id(&self, pred: PredId, tuple: &[ConstId]) -> Option<FactId> {
        self.facts.id(pred, tuple)
    }

    /// The fact with the given id, tombstoned or not.
    pub fn fact(&self, id: FactId) -> (PredId, &[ConstId]) {
        self.facts.fact(id)
    }

    /// Number of facts (the input size `m` of the paper), tombstones
    /// included.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Size of the active domain (the paper's `n`).
    pub fn domain_size(&self) -> usize {
        self.consts.len()
    }

    /// Live fact ids of a predicate, ascending.
    pub fn facts_of(&self, pred: PredId) -> &[FactId] {
        self.facts.facts_of(pred)
    }

    /// All fact ids, tombstones included.
    pub fn all_facts(&self) -> impl Iterator<Item = FactId> {
        0..self.num_facts() as FactId
    }

    /// The arity of `pred`'s facts, once it has a relation: after its
    /// first insert, or [`from_graph`](Self::from_graph) for a label.
    pub fn arity(&self, pred: PredId) -> Option<usize> {
        self.facts.arity(pred)
    }

    /// Heap bytes of the facts, counted like
    /// `GroundedProgram::fact_heap_bytes` (the domain is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.facts.heap_bytes()
    }

    /// Import a labeled graph: each label becomes a binary EDB predicate
    /// (interned into `program.preds` by name, with a relation even when
    /// it labels no edge), each node a constant `v{i}`, each edge a fact.
    /// Returns the per-edge fact ids, aligned with the graph's edge list.
    pub fn from_graph(program: &mut Program, graph: &LabeledDigraph) -> (Database, Vec<FactId>) {
        let mut db = Database::new();
        let node_consts: Vec<ConstId> = (0..graph.num_nodes())
            .map(|i| db.constant(&format!("v{i}")))
            .collect();
        let label_preds: Vec<PredId> = (0..graph.alphabet.len())
            .map(|t| program.preds.intern(graph.alphabet.name(t as Terminal)))
            .collect();
        for &pred in &label_preds {
            db.facts.declare(pred, 2);
        }
        let mut edge_facts = Vec::with_capacity(graph.num_edges());
        for &(u, v, t) in graph.edges() {
            let tuple = [node_consts[u as usize], node_consts[v as usize]];
            edge_facts.push(db.insert(label_preds[t as usize], &tuple));
        }
        (db, edge_facts)
    }

    /// The constant id for graph node `i` as created by [`Self::from_graph`].
    pub fn node_const(&self, i: usize) -> Option<ConstId> {
        self.consts.get(&format!("v{i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use graphgen::generators;

    #[test]
    fn insert_is_idempotent() {
        let mut db = Database::new();
        let a = db.constant("a");
        let b = db.constant("b");
        let f1 = db.insert(0, &[a, b]);
        let f2 = db.insert(0, &[a, b]);
        assert_eq!(f1, f2);
        assert_eq!(db.num_facts(), 1);
        assert!(db.contains(0, &[a, b]));
        assert!(!db.contains(0, &[b, a]));
    }

    #[test]
    fn retract_tombstones_and_reinsert_gets_fresh_id() {
        let mut db = Database::new();
        let a = db.constant("a");
        let b = db.constant("b");
        let f0 = db.insert(0, &[a, b]);
        let f1 = db.insert(0, &[b, a]);
        assert_eq!(db.retract(0, &[a, b]), Some(f0));
        assert_eq!(db.retract(0, &[a, b]), None, "second retract is a no-op");
        assert!(!db.contains(0, &[a, b]));
        assert!(!db.is_live(f0));
        assert!(db.is_live(f1));
        // Ids of surviving facts are untouched; the slot stays readable.
        assert_eq!(db.fact(f0).1, &[a, b][..]);
        assert_eq!(db.facts_of(0), &[f1][..]);
        // Re-insert: fresh id, never a reuse of the tombstone.
        let f2 = db.insert(0, &[a, b]);
        assert_ne!(f2, f0);
        assert!(db.is_live(f2));
        assert_eq!(db.facts_of(0), &[f1, f2][..]);
    }

    /// One xorshift64 step.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    #[test]
    fn random_writes_match_a_naive_model() {
        // Predicate `p` holds (p + 1)-tuples over three constants, so
        // duplicate inserts, retracts of absent facts and re-inserts of
        // retracted ones are all frequent. The model keeps every id ever
        // handed out, in id order, with its liveness.
        let tuples: Vec<(PredId, Vec<ConstId>)> = (0..3u32)
            .flat_map(|p| {
                let n = 3usize.pow(p + 1);
                (0..n).map(move |i| {
                    let digits = (0..=p).map(|k| (i / 3usize.pow(k)) as ConstId % 3);
                    (p, digits.collect())
                })
            })
            .collect();
        let mut revivals = 0;
        for seed in 0..4u64 {
            let mut db = Database::new();
            for name in ["a", "b", "c"] {
                db.constant(name);
            }
            let mut model: Vec<(PredId, Vec<ConstId>, bool)> = Vec::new();
            let live_id = |model: &[(PredId, Vec<ConstId>, bool)], pred, tuple: &[ConstId]| {
                let id = model
                    .iter()
                    .position(|(p, t, l)| *l && *p == pred && t == tuple);
                id.map(|i| i as FactId)
            };
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for step in 0..300 {
                let r = next(&mut rng);
                let (pred, tuple) = &tuples[(r % tuples.len() as u64) as usize];
                let (pred, live) = (*pred, live_id(&model, *pred, tuple));
                if (r >> 32) & 1 == 0 {
                    let id = db.insert(pred, tuple);
                    if let Some(live) = live {
                        assert_eq!(id, live, "a duplicate insert keeps its id");
                    } else {
                        assert_eq!(id as usize, model.len(), "a fresh id, never a reuse");
                        revivals += model.iter().any(|(p, t, _)| *p == pred && t == tuple) as u32;
                        model.push((pred, tuple.clone(), true));
                    }
                } else {
                    assert_eq!(db.retract(pred, tuple), live, "seed {seed} step {step}");
                    if let Some(id) = live {
                        model[id as usize].2 = false;
                    }
                }

                assert_eq!(db.num_facts(), model.len());
                assert!(db.all_facts().eq(0..model.len() as FactId));
                for (id, (p, t, l)) in model.iter().enumerate() {
                    let id = id as FactId;
                    assert_eq!(db.fact(id), (*p, t.as_slice()), "tombstones stay readable");
                    assert_eq!(db.is_live(id), *l);
                }
                for p in 0..3 {
                    let live = model
                        .iter()
                        .enumerate()
                        .filter(|(_, (q, _, l))| *l && *q == p);
                    let ids: Vec<FactId> = live.map(|(id, _)| id as FactId).collect();
                    assert_eq!(db.facts_of(p), ids, "live and ascending");
                    for (_, t) in &tuples {
                        // Every predicate is probed with every arity.
                        assert_eq!(db.fact_id(p, t), live_id(&model, p, t));
                        assert_eq!(db.contains(p, t), live_id(&model, p, t).is_some());
                    }
                }
            }
        }
        assert!(revivals > 20, "the sequence re-inserts retracted facts");
    }

    #[test]
    fn heap_bytes_count_one_copy_of_each_tuple() {
        let mut db = Database::new();
        let c: Vec<ConstId> = (0..100).map(|i| db.constant(&i.to_string())).collect();
        for pair in c.windows(2) {
            db.insert(0, pair);
        }
        // 99 pairs: 8 B of column, 4 B of row id and 8 B of locator each,
        // plus a table of at least two 4 B slots per row.
        let before = db.heap_bytes();
        assert!((99 * 28..99 * 40 + 1024).contains(&before), "{before}");
        // The first retract materializes the 98 live ids.
        db.retract(0, &c[..2]);
        let list = std::mem::size_of::<Option<Vec<FactId>>>();
        assert_eq!(db.heap_bytes(), before + 98 * 4 + list);
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn insert_at_another_arity_panics() {
        let mut db = Database::new();
        let a = db.constant("a");
        db.insert(0, &[a, a]);
        db.insert(0, &[a]);
    }

    #[test]
    fn from_graph_aligns_edge_ids() {
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap();
        let g = generators::path(3, "E");
        let (db, edge_facts) = Database::from_graph(&mut p, &g);
        assert_eq!(db.num_facts(), 3);
        assert_eq!(edge_facts, vec![0, 1, 2]);
        let e = p.preds.get("E").unwrap();
        assert_eq!(db.facts_of(e).len(), 3);
        let (pred, tuple) = db.fact(edge_facts[1]);
        assert_eq!(pred, e);
        assert_eq!(tuple[0], db.node_const(1).unwrap());
        assert_eq!(tuple[1], db.node_const(2).unwrap());
    }

    #[test]
    fn multi_label_graphs_create_multiple_predicates() {
        let mut p = parse_program("S(X,Y) :- L(X,Z), R(Z,Y).").unwrap();
        let g = generators::word_path(&["L", "R"]);
        let (db, _) = Database::from_graph(&mut p, &g);
        let l = p.preds.get("L").unwrap();
        let r = p.preds.get("R").unwrap();
        assert_eq!(db.facts_of(l).len(), 1);
        assert_eq!(db.facts_of(r).len(), 1);
    }
}
