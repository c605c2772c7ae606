//! Seeded instances, goals and operation mixes, plus the oracles that check
//! the engine's answers. Everything here is a pure function of the seed.

use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

use graphgen::LabeledDigraph;

use crate::rng::Rng;

/// Transitive closure (Example 2.1).
pub const TC_PROGRAM: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).\n";

/// Dyck-1 reachability (Example 6.4): a non-linear chain program whose
/// recursive rules have all-IDB bodies.
pub const DYCK_PROGRAM: &str = "S(X,Y) :- L(X,Z), R(Z,Y).\n\
                                S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
                                S(X,Y) :- S(X,Z), S(Z,Y).\n";

/// The stream tags of [`Rng::stream`]: one independent stream per purpose.
pub mod tag {
    pub const GRAPH: u64 = 1;
    pub const GOALS: u64 = 2;
    pub const RELABEL: u64 = 3;
    /// Write pairs of the per-layer probes.
    pub const PROBE_WRITES: u64 = 4;
    /// Client `c` of the wire workload draws its operations from `MIX + c`.
    pub const MIX: u64 = 100;
}

pub type Edge = (usize, usize);

/// A labelled directed graph instance: `m` distinct edges, no self-loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    pub n: usize,
    pub edges: Vec<(usize, usize, &'static str)>,
    edge_set: HashSet<Edge>,
}

pub fn node(i: usize) -> String {
    format!("v{i}")
}

impl Instance {
    fn from_edges(n: usize, edges: Vec<(usize, usize, &'static str)>) -> Instance {
        let edge_set = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        Instance { n, edges, edge_set }
    }

    /// The G(n, m) random digraph with labels drawn uniformly from `labels`.
    pub fn gnm(n: usize, m: usize, labels: &[&'static str], seed: u64) -> Instance {
        assert!(
            n >= 2 && m <= n * (n - 1),
            "gnm({n}, {m}) is not a simple digraph"
        );
        let mut rng = Rng::stream(seed, tag::GRAPH);
        let mut edges = Vec::with_capacity(m);
        let mut seen = HashSet::with_capacity(m);
        while edges.len() < m {
            let (u, v) = (rng.below(n), rng.below(n));
            if u != v && seen.insert((u, v)) {
                edges.push((u, v, labels[rng.below(labels.len())]));
            }
        }
        Instance::from_edges(n, edges)
    }

    /// An isomorphic copy: nodes renamed by a seeded permutation and the
    /// edges (hence the facts) in a seeded order. Returns the copy and the
    /// permutation (`perm[old] = new`).
    pub fn relabelled(&self, seed: u64) -> (Instance, Vec<usize>) {
        let mut rng = Rng::stream(seed, tag::RELABEL);
        let mut perm: Vec<usize> = (0..self.n).collect();
        rng.shuffle(&mut perm);
        let mut edges: Vec<_> = self
            .edges
            .iter()
            .map(|&(u, v, l)| (perm[u], perm[v], l))
            .collect();
        rng.shuffle(&mut edges);
        (Instance::from_edges(self.n, edges), perm)
    }

    /// A seeded edge `(u, v)` absent from the instance.
    pub fn non_edge(&self, rng: &mut Rng) -> Edge {
        loop {
            let (u, v) = (rng.below(self.n), rng.below(self.n));
            if u != v && !self.has_edge(u, v) {
                return (u, v);
            }
        }
    }

    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_set.contains(&(u, v))
    }

    /// The EDB as `(predicate, constants)` tuples — what the engine receives.
    pub fn facts(&self) -> Vec<(&'static str, [String; 2])> {
        self.edges
            .iter()
            .map(|&(u, v, l)| (l, [node(u), node(v)]))
            .collect()
    }

    /// The EDB as `LOAD FACTS` payload lines.
    pub fn fact_lines(&self) -> Vec<String> {
        self.edges
            .iter()
            .map(|&(u, v, l)| format!("{l} {} {}", node(u), node(v)))
            .collect()
    }

    /// The graph plus `extra` edges (labelled like the first edge).
    pub fn graph_with(&self, extra: &[Edge]) -> LabeledDigraph {
        let mut g = LabeledDigraph::new(self.n);
        for &(u, v, l) in &self.edges {
            g.add_edge(u as u32, v as u32, l);
        }
        for &(u, v) in extra {
            g.add_edge(u as u32, v as u32, self.edges[0].2);
        }
        g
    }

    /// Cheapest `s → t` path where the listed edges cost their weight and
    /// every other edge costs 0 (the tropical `perfact` semantics: unlisted
    /// facts take the semiring's one). `None` = unreachable.
    pub fn weighted_distance(
        &self,
        s: usize,
        t: usize,
        extra: &[Edge],
        weights: &[(usize, usize, u64)],
    ) -> Option<u64> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(u, v, _) in &self.edges {
            adj[u].push(v);
        }
        for &(u, v) in extra {
            adj[u].push(v);
        }
        let cost = |u: usize, v: usize| {
            weights
                .iter()
                .find(|w| (w.0, w.1) == (u, v))
                .map_or(0, |w| w.2)
        };
        // A path of one edge or more: T(s, s) needs a cycle.
        let mut best: Vec<Option<u64>> = vec![None; self.n];
        let mut heap = BinaryHeap::new();
        for &v in &adj[s] {
            heap.push(std::cmp::Reverse((cost(s, v), v)));
        }
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if best[u].is_some() {
                continue;
            }
            best[u] = Some(d);
            for &v in &adj[u] {
                if best[v].is_none() {
                    heap.push(std::cmp::Reverse((d + cost(u, v), v)));
                }
            }
        }
        best[t]
    }

    /// Every derivable `S(x, y)` of the Dyck-1 program, by a naive fixpoint
    /// over boolean matrices (independent of the engine).
    pub fn dyck_pairs(&self) -> Vec<Vec<bool>> {
        let n = self.n;
        let mut s = vec![vec![false; n]; n];
        let lab = |l: &str| -> Vec<Edge> {
            self.edges
                .iter()
                .filter(|e| e.2 == l)
                .map(|e| (e.0, e.1))
                .collect()
        };
        let (ls, rs) = (lab("L"), lab("R"));
        loop {
            let mut next = s.clone();
            for &(x, w) in &ls {
                for &(z, y) in &rs {
                    if z == w || s[w][z] {
                        next[x][y] = true;
                    }
                }
            }
            for (x, row) in s.iter().enumerate() {
                for (z, _) in row.iter().enumerate().filter(|(_, &xz)| xz) {
                    for (y, _) in s[z].iter().enumerate().filter(|(_, &zy)| zy) {
                        next[x][y] = true;
                    }
                }
            }
            if next == s {
                return s;
            }
            s = next;
        }
    }
}

/// `count` seeded TC goals `(s, t)` of the oracle's instance, with `t`
/// reachable from `s` and `t ≠ s`.
pub fn tc_goals(oracle: &mut Oracle, count: usize, seed: u64) -> Vec<Edge> {
    let mut rng = Rng::stream(seed, tag::GOALS);
    let n = oracle.inst.n;
    let mut goals = Vec::with_capacity(count);
    while goals.len() < count {
        let s = rng.below(n);
        let reach: Vec<usize> = (0..n)
            .filter(|&t| t != s && oracle.hops(s, t, &[]).is_some())
            .collect();
        if !reach.is_empty() {
            goals.push((s, reach[rng.below(reach.len())]));
        }
    }
    goals
}

/// `count` distinct seeded derivable Dyck goals `S(s, t)`.
pub fn dyck_goals(inst: &Instance, count: usize, seed: u64) -> Vec<Edge> {
    let pairs = inst.dyck_pairs();
    let all: Vec<Edge> = (0..inst.n)
        .flat_map(|x| (0..inst.n).map(move |y| (x, y)))
        .filter(|&(x, y)| pairs[x][y])
        .collect();
    assert!(
        all.len() >= count,
        "only {} derivable Dyck goals",
        all.len()
    );
    let mut rng = Rng::stream(seed, tag::GOALS);
    let mut chosen = BTreeSet::new();
    let mut goals = Vec::with_capacity(count);
    while goals.len() < count {
        let g = all[rng.below(all.len())];
        if chosen.insert(g) {
            goals.push(g);
        }
    }
    goals
}

/// One read of the wire workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Read {
    /// Cached materialized read: tropical `unit:1` or, when `boolean`, bool.
    Cached { s: usize, t: usize, boolean: bool },
    /// Tropical `unit:1` through the demand-driven `PIPELINE magic`.
    Magic { s: usize, t: usize },
    /// Tropical `perfact` with a few weighted edges: one uncached fixpoint.
    PerFact {
        s: usize,
        t: usize,
        weights: Vec<(usize, usize, u64)>,
    },
}

/// One closed-loop operation of a wire client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    Read(Read),
    Batch(Vec<Read>),
    /// `INSERT` of a non-edge followed by `RETRACT` of the same edge.
    WritePair(Edge),
}

pub const BATCH_SIZE: usize = 16;
const PERFACT_WEIGHTS: usize = 6;
/// Operations per deck: 12 cached reads, 3 magic reads, 1 `perfact` read,
/// 2 batches and 2 write pairs (60/15/5/10/10 %).
pub const DECK_SIZE: usize = 20;

/// The next deck of client `client` (0 or 1): a fixed mix in seeded order,
/// so every full deck has exactly the same proportions. Write pairs of the
/// two clients use disjoint edges (`(u + v) % 2 == client`), so a retract
/// never removes the other client's insert.
pub fn wire_deck(inst: &Instance, client: usize, rng: &mut Rng) -> Vec<WireOp> {
    let mut deck = Vec::with_capacity(DECK_SIZE);
    for _ in 0..12 {
        deck.push(WireOp::Read(cached_read(inst, rng)));
    }
    for _ in 0..3 {
        let (s, t) = (rng.below(inst.n), rng.below(inst.n));
        deck.push(WireOp::Read(Read::Magic { s, t }));
    }
    let (s, t) = (rng.below(inst.n), rng.below(inst.n));
    let weights = (0..PERFACT_WEIGHTS)
        .map(|_| {
            let (u, v, _) = inst.edges[rng.below(inst.edges.len())];
            (u, v, 1 + rng.below(9) as u64)
        })
        .collect();
    deck.push(WireOp::Read(Read::PerFact { s, t, weights }));
    for _ in 0..2 {
        deck.push(WireOp::Batch(
            (0..BATCH_SIZE).map(|_| cached_read(inst, rng)).collect(),
        ));
    }
    for _ in 0..2 {
        let e = loop {
            let (u, v) = inst.non_edge(rng);
            if (u + v) % 2 == client {
                break (u, v);
            }
        };
        deck.push(WireOp::WritePair(e));
    }
    rng.shuffle(&mut deck);
    deck
}

fn cached_read(inst: &Instance, rng: &mut Rng) -> Read {
    Read::Cached {
        s: rng.below(inst.n),
        t: rng.below(inst.n),
        boolean: rng.below(2) == 0,
    }
}

impl Read {
    /// The request line (`QUERY` verb included) and any `WEIGHT` lines.
    pub fn wire(&self) -> (String, Vec<String>) {
        match self {
            Read::Cached { s, t, boolean } => {
                let tail = if *boolean {
                    "SEMIRING bool"
                } else {
                    "SEMIRING tropical VALUATION unit:1"
                };
                (format!("QUERY T {} {} {tail}", node(*s), node(*t)), vec![])
            }
            Read::Magic { s, t } => (
                format!(
                    "QUERY T {} {} SEMIRING tropical VALUATION unit:1 PIPELINE magic",
                    node(*s),
                    node(*t)
                ),
                vec![],
            ),
            Read::PerFact { s, t, weights } => (
                format!(
                    "QUERY T {} {} SEMIRING tropical VALUATION perfact",
                    node(*s),
                    node(*t)
                ),
                weights
                    .iter()
                    .map(|&(u, v, w)| format!("WEIGHT E {} {} {w}", node(u), node(v)))
                    .collect(),
            ),
        }
    }

    /// The rendered reply value on the graph plus `extra` edges.
    pub fn expected(&self, oracle: &mut Oracle, extra: &[Edge]) -> String {
        let render = |d: Option<u64>| d.map_or_else(|| "inf".to_owned(), |d| d.to_string());
        match self {
            Read::Cached {
                s,
                t,
                boolean: true,
            } => oracle.hops(*s, *t, extra).is_some().to_string(),
            Read::Cached { s, t, .. } | Read::Magic { s, t } => render(oracle.hops(*s, *t, extra)),
            Read::PerFact { s, t, weights } => {
                render(oracle.inst.weighted_distance(*s, *t, extra, weights))
            }
        }
    }

    /// Whether `got` is a correct answer on the start graph plus some
    /// subset of the `in_flight` write-pair edges (a read may observe any
    /// snapshot taken while those writes were applied).
    pub fn accepts(&self, oracle: &mut Oracle, in_flight: &[Edge], got: &str) -> bool {
        (0..1usize << in_flight.len()).any(|mask| {
            let extra: Vec<Edge> = in_flight
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, e)| *e)
                .collect();
            self.expected(oracle, &extra) == got
        })
    }
}

/// Hop-count answers over the instance plus a set of extra edges, with one
/// all-pairs BFS table per distinct edge set.
pub struct Oracle<'a> {
    pub inst: &'a Instance,
    tables: HashMap<Vec<Edge>, Vec<Vec<Option<u64>>>>,
}

impl<'a> Oracle<'a> {
    pub fn new(inst: &'a Instance) -> Self {
        Oracle {
            inst,
            tables: HashMap::new(),
        }
    }

    /// Length of the shortest path of one edge or more from `s` to `t`, so
    /// `T(s, s)` is the shortest cycle through `s`; `None` = underivable.
    pub fn hops(&mut self, s: usize, t: usize, extra: &[Edge]) -> Option<u64> {
        let mut key = extra.to_vec();
        key.sort_unstable();
        let inst = self.inst;
        let table = self.tables.entry(key).or_insert_with(|| {
            let g = inst.graph_with(extra);
            (0..inst.n).map(|v| g.bfs_distances(v as u32)).collect()
        });
        if s != t {
            return table[s][t];
        }
        inst.edges
            .iter()
            .map(|e| (e.0, e.1))
            .chain(extra.iter().copied())
            .filter(|&(u, _)| u == s)
            .filter_map(|(_, v)| table[v][s].map(|d| d + 1))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Instance {
        Instance::from_edges(n, (0..n - 1).map(|i| (i, i + 1, "E")).collect())
    }

    #[test]
    fn the_same_seed_gives_the_same_facts_goals_and_mix() {
        let shape = Instance::gnm(60, 240, &["E"], 1);
        assert_eq!(shape, Instance::gnm(60, 240, &["E"], 1));
        let (a, _) = shape.relabelled(7);
        let (b, _) = shape.relabelled(7);
        assert_eq!(a.facts(), b.facts());
        assert_eq!(
            tc_goals(&mut Oracle::new(&a), 8, 7),
            tc_goals(&mut Oracle::new(&b), 8, 7)
        );
        let deck = |inst: &Instance| {
            let mut rng = Rng::stream(7, tag::MIX);
            (wire_deck(inst, 0, &mut rng), wire_deck(inst, 0, &mut rng))
        };
        assert_eq!(deck(&a), deck(&b));
        // Another seed renames and reorders, but keeps the shape.
        let (c, _) = shape.relabelled(8);
        assert_ne!(a.facts(), c.facts());
        let degrees = |inst: &Instance| {
            let mut d: Vec<usize> = (0..inst.n)
                .map(|u| inst.edges.iter().filter(|e| e.0 == u).count())
                .collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&a), degrees(&c));
    }

    #[test]
    fn relabelling_maps_edges_through_the_permutation() {
        let shape = Instance::gnm(20, 60, &["L", "R"], 3);
        let (inst, perm) = shape.relabelled(5);
        for &(u, v, l) in &shape.edges {
            assert!(inst.edges.contains(&(perm[u], perm[v], l)));
        }
        assert_eq!(inst.edges.len(), shape.edges.len());
    }

    #[test]
    fn decks_have_the_exact_mix_and_disjoint_write_edges() {
        let inst = Instance::gnm(40, 120, &["E"], 2);
        let mut rng = Rng::stream(1, tag::MIX);
        for client in 0..2 {
            let deck = wire_deck(&inst, client, &mut rng);
            assert_eq!(deck.len(), DECK_SIZE);
            let count = |f: fn(&WireOp) -> bool| deck.iter().filter(|op| f(op)).count();
            assert_eq!(
                count(|op| matches!(op, WireOp::Read(Read::Cached { .. }))),
                12
            );
            assert_eq!(
                count(|op| matches!(op, WireOp::Read(Read::Magic { .. }))),
                3
            );
            assert_eq!(
                count(|op| matches!(op, WireOp::Read(Read::PerFact { .. }))),
                1
            );
            assert_eq!(
                count(|op| matches!(op, WireOp::Batch(b) if b.len() == BATCH_SIZE)),
                2
            );
            for op in &deck {
                if let WireOp::WritePair((u, v)) = op {
                    assert!(u != v && !inst.has_edge(*u, *v));
                    assert_eq!((u + v) % 2, client);
                }
            }
        }
    }

    #[test]
    fn oracles_on_small_graphs() {
        let p = path(4); // v0 → v1 → v2 → v3
        let mut oracle = Oracle::new(&p);
        assert_eq!(oracle.hops(0, 3, &[]), Some(3));
        assert_eq!(oracle.hops(3, 0, &[]), None);
        assert_eq!(oracle.hops(0, 0, &[]), None);
        assert_eq!(oracle.hops(0, 0, &[(3, 0)]), Some(4));
        assert_eq!(oracle.hops(0, 3, &[(0, 2)]), Some(2));
        assert_eq!(p.weighted_distance(0, 3, &[], &[(1, 2, 5)]), Some(5));
        assert_eq!(p.weighted_distance(0, 3, &[(0, 2)], &[(1, 2, 5)]), Some(0));
        let read = Read::Cached {
            s: 0,
            t: 3,
            boolean: false,
        };
        assert!(read.accepts(&mut oracle, &[], "3"));
        assert!(!read.accepts(&mut oracle, &[], "2"));
        assert!(read.accepts(&mut oracle, &[(0, 2)], "2"));
        assert!(read.accepts(&mut oracle, &[(0, 2)], "3"));
        let unreachable = Read::Cached {
            s: 3,
            t: 0,
            boolean: true,
        };
        assert!(unreachable.accepts(&mut oracle, &[], "false"));

        // L(0,1) R(1,2) L(2,3) R(3,4): S(0,2), S(2,4) and S(0,4).
        let dyck =
            Instance::from_edges(5, vec![(0, 1, "L"), (1, 2, "R"), (2, 3, "L"), (3, 4, "R")]);
        let s = dyck.dyck_pairs();
        let derivable: Vec<Edge> = (0..5)
            .flat_map(|x| (0..5).map(move |y| (x, y)))
            .filter(|&(x, y)| s[x][y])
            .collect();
        assert_eq!(derivable, vec![(0, 2), (0, 4), (2, 4)]);
    }
}
