//! EDB databases with provenance-tagged facts (paper §2.4).
//!
//! Every EDB fact gets a dense [`FactId`] that doubles as the provenance
//! variable `x_α` tagging it: circuits use it as an input id, and the
//! [`semiring::Sorp`] oracle uses it as a polynomial variable.

use std::collections::HashMap;

use grammar::Terminal;
use graphgen::LabeledDigraph;

use crate::ast::Program;
use crate::symbols::{ConstId, Interner, PredId};

/// Provenance variable / fact id of an EDB fact.
pub type FactId = u32;

/// An EDB database: relations over an interned active domain.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// The active domain.
    pub consts: Interner,
    facts: Vec<(PredId, Vec<ConstId>)>,
    /// Live facts per predicate, keyed by tuple: probed with a borrowed
    /// `&[ConstId]`, so a lookup allocates nothing.
    index: HashMap<PredId, HashMap<Vec<ConstId>, FactId>>,
    by_pred: HashMap<PredId, Vec<FactId>>,
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
    pub fn insert(&mut self, pred: PredId, tuple: Vec<ConstId>) -> FactId {
        let index = self.index.entry(pred).or_default();
        if let Some(&id) = index.get(tuple.as_slice()) {
            return id;
        }
        let id = self.facts.len() as FactId;
        self.facts.push((pred, tuple.clone()));
        index.insert(tuple, id);
        self.by_pred.entry(pred).or_default().push(id);
        id
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
        let id = self.index.get_mut(&pred)?.remove(tuple)?;
        if let Some(bucket) = self.by_pred.get_mut(&pred) {
            // Buckets are ascending (insertion order = increasing id).
            if let Ok(i) = bucket.binary_search(&id) {
                bucket.remove(i);
            }
        }
        Some(id)
    }

    /// Whether the fact id is live (not retracted). Tombstoned ids still
    /// resolve through [`fact`](Database::fact) so provenance variables
    /// stay printable, but they no longer join.
    pub fn is_live(&self, id: FactId) -> bool {
        let (p, t) = &self.facts[id as usize];
        self.fact_id(*p, t) == Some(id)
    }

    /// Whether the fact is present.
    pub fn contains(&self, pred: PredId, tuple: &[ConstId]) -> bool {
        self.fact_id(pred, tuple).is_some()
    }

    /// The id of a fact, if present.
    pub fn fact_id(&self, pred: PredId, tuple: &[ConstId]) -> Option<FactId> {
        self.index.get(&pred)?.get(tuple).copied()
    }

    /// The fact with the given id.
    pub fn fact(&self, id: FactId) -> (PredId, &[ConstId]) {
        let (p, t) = &self.facts[id as usize];
        (*p, t)
    }

    /// Number of facts (the input size `m` of the paper).
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Size of the active domain (the paper's `n`).
    pub fn domain_size(&self) -> usize {
        self.consts.len()
    }

    /// Fact ids of a predicate.
    pub fn facts_of(&self, pred: PredId) -> &[FactId] {
        self.by_pred.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All fact ids.
    pub fn all_facts(&self) -> impl Iterator<Item = FactId> {
        0..self.facts.len() as FactId
    }

    /// Import a labeled graph: each label becomes a binary EDB predicate
    /// (interned into `program.preds` by name), each node a constant
    /// `v{i}`, each edge a fact. Returns the per-edge fact ids, aligned
    /// with the graph's edge list.
    pub fn from_graph(program: &mut Program, graph: &LabeledDigraph) -> (Database, Vec<FactId>) {
        let mut db = Database::new();
        let node_consts: Vec<ConstId> = (0..graph.num_nodes())
            .map(|i| db.constant(&format!("v{i}")))
            .collect();
        let label_preds: Vec<PredId> = (0..graph.alphabet.len())
            .map(|t| program.preds.intern(graph.alphabet.name(t as Terminal)))
            .collect();
        let mut edge_facts = Vec::with_capacity(graph.num_edges());
        for &(u, v, t) in graph.edges() {
            let id = db.insert(
                label_preds[t as usize],
                vec![node_consts[u as usize], node_consts[v as usize]],
            );
            edge_facts.push(id);
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
        let f1 = db.insert(0, vec![a, b]);
        let f2 = db.insert(0, vec![a, b]);
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
        let f0 = db.insert(0, vec![a, b]);
        let f1 = db.insert(0, vec![b, a]);
        assert_eq!(db.retract(0, &[a, b]), Some(f0));
        assert_eq!(db.retract(0, &[a, b]), None, "second retract is a no-op");
        assert!(!db.contains(0, &[a, b]));
        assert!(!db.is_live(f0));
        assert!(db.is_live(f1));
        // Ids of surviving facts are untouched; the slot stays readable.
        assert_eq!(db.fact(f0).1, &[a, b][..]);
        assert_eq!(db.facts_of(0), &[f1][..]);
        // Re-insert: fresh id, never a reuse of the tombstone.
        let f2 = db.insert(0, vec![a, b]);
        assert_ne!(f2, f0);
        assert!(db.is_live(f2));
        assert_eq!(db.facts_of(0), &[f1, f2][..]);
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
