//! Integration tests for the incremental maintenance subsystem (ISSUE 8).
//!
//! The correctness bar: after **any** interleaving of inserts and
//! retracts, a maintained [`Engine`]'s query answers are bit-identical to
//! a from-scratch rebuild on every supported semiring — Bool, Tropical,
//! TropK₃, Counting, and the universal absorptive Sorp.
//!
//! Fact ids are *not* stable across the two engines (retract-then-
//! reinsert allocates a fresh id in the maintained engine), so per-fact
//! valuations here key on the fact's **tuple**, not its id: both engines
//! see the same weight (and the same canonical Sorp variable) for the
//! same edge, which is exactly what makes polynomial-level bit-equality
//! meaningful.
//!
//! CI re-runs this suite under `DATALOG_PARALLELISM=4` (engines below use
//! the session default, which that variable overrides), so the bar also
//! covers the sharded evaluation path; one deterministic test pins
//! `parallelism(4)` explicitly for runs without the variable.

use std::collections::{BTreeSet, HashMap};

use datalog_circuits::provcirc::Engine;
use datalog_circuits::semiring::prelude::*;
use proptest::prelude::*;

const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";

/// Node universe: constants `v0..v5`. Small enough that a dozen toggles
/// revisit edges (exercising retract-then-reinsert), big enough for
/// multi-hop derivations.
const N: usize = 6;

type Edge = (usize, usize);

fn node(i: usize) -> String {
    format!("v{i}")
}

/// An engine built from scratch over exactly the live edge set — the
/// oracle every maintained engine must match bit-for-bit.
fn fresh_engine(live: &BTreeSet<Edge>) -> Engine {
    let mut b = Engine::builder().program_text(TC);
    for &(u, v) in live {
        b = b.fact("E", &[&node(u), &node(v)]);
    }
    b.build().unwrap()
}

/// Canonical weight of an edge — a function of the *tuple* so both
/// engines agree regardless of fact-id history.
fn weight(u: usize, v: usize) -> u64 {
    ((3 * u + 5 * v) % 7 + 1) as u64
}

/// Canonical Sorp variable of an edge.
fn canon_var(u: usize, v: usize) -> VarId {
    (u * N + v) as VarId
}

/// Map an engine's EDB fact ids to their edge tuples. Retracted zombies
/// keep their slot in the database; mapping them too is harmless — no
/// surviving rule cites them, so their assignment never reaches a value.
fn edge_of_fact(engine: &Engine) -> HashMap<u32, Edge> {
    let db = engine.database();
    let mut map = HashMap::new();
    for f in db.all_facts() {
        let (_, consts) = db.fact(f);
        let idx = |c: u32| db.consts.name(c)[1..].parse::<usize>().unwrap();
        map.insert(f, (idx(consts[0]), idx(consts[1])));
    }
    map
}

/// Assert bit-identical answers for every pair `(u, v)` over the listed
/// semirings. `dag` gates Counting: over a cyclic graph the counting
/// fixpoint diverges (infinitely many paths), so it is only compared on
/// acyclic edge sets, where it converges exactly.
fn assert_bit_identical(
    maintained: &Engine,
    fresh: &Engine,
    dag: bool,
) -> Result<(), TestCaseError> {
    let em = edge_of_fact(maintained);
    let ef = edge_of_fact(fresh);
    let trop_m = from_fn(|x: u32| Tropical::new(weight(em[&x].0, em[&x].1)));
    let trop_f = from_fn(|x: u32| Tropical::new(weight(ef[&x].0, ef[&x].1)));
    let tropk_m = from_fn(|x: u32| TropK::<3>::single(weight(em[&x].0, em[&x].1)));
    let tropk_f = from_fn(|x: u32| TropK::<3>::single(weight(ef[&x].0, ef[&x].1)));
    let sorp_m = from_fn(|x: u32| Sorp::var(canon_var(em[&x].0, em[&x].1)));
    let sorp_f = from_fn(|x: u32| Sorp::var(canon_var(ef[&x].0, ef[&x].1)));

    for u in 0..N {
        for v in 0..N {
            let (su, sv) = (node(u), node(v));
            let qm = maintained.query("T", &[&su, &sv]).unwrap();
            let qf = fresh.query("T", &[&su, &sv]).unwrap();

            let bm: Bool = qm.eval(&AllOnes).unwrap();
            let bf: Bool = qf.eval(&AllOnes).unwrap();
            prop_assert_eq!(bm, bf, "Bool diverged on T({}, {})", su, sv);

            let tm: Tropical = qm.eval(&trop_m).unwrap();
            let tf: Tropical = qf.eval(&trop_f).unwrap();
            prop_assert_eq!(tm, tf, "Tropical diverged on T({}, {})", su, sv);

            let km: TropK<3> = qm.eval(&tropk_m).unwrap();
            let kf: TropK<3> = qf.eval(&tropk_f).unwrap();
            prop_assert_eq!(km, kf, "TropK<3> diverged on T({}, {})", su, sv);

            if dag {
                let cm: Counting = qm.eval(&AllOnes).unwrap();
                let cf: Counting = qf.eval(&AllOnes).unwrap();
                prop_assert_eq!(cm, cf, "Counting diverged on T({}, {})", su, sv);
            }

            let sm: Sorp = qm.eval(&sorp_m).unwrap();
            let sf: Sorp = qf.eval(&sorp_f).unwrap();
            prop_assert_eq!(sm, sf, "Sorp diverged on T({}, {})", su, sv);
        }
    }
    Ok(())
}

/// Toggle each edge in `ops` against the maintained engine: retract if
/// live, insert if absent. Edge `(0, 1)` is pinned live so the engines
/// never go fully empty. Returns the surviving live set.
fn apply_toggles(
    engine: &mut Engine,
    live: &mut BTreeSet<Edge>,
    ops: &[Edge],
) -> Result<(), TestCaseError> {
    for &(u, v) in ops {
        if (u, v) == (0, 1) || u == v {
            continue;
        }
        let (su, sv) = (node(u), node(v));
        if live.remove(&(u, v)) {
            let out = engine.retract_fact("E", &[&su, &sv]).unwrap();
            prop_assert_eq!(out.facts.len(), 1);
        } else {
            live.insert((u, v));
            let out = engine.insert_fact("E", &[&su, &sv]).unwrap();
            prop_assert_eq!(out.facts.len(), 1);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DAG edge sets (edges forced low→high): all five semirings,
    /// Counting included, after an arbitrary toggle interleaving.
    #[test]
    fn interleaving_matches_rebuild_on_dags(
        base in proptest::collection::vec((0usize..N, 0usize..N), 3..10),
        ops in proptest::collection::vec((0usize..N, 0usize..N), 1..14),
    ) {
        let orient = |(a, b): Edge| if a < b { (a, b) } else { (b, a) };
        let mut live: BTreeSet<Edge> = base.iter().copied()
            .filter(|&(a, b)| a != b).map(orient).collect();
        live.insert((0, 1));
        let mut maintained = fresh_engine(&live);
        let ops: Vec<Edge> = ops.iter().copied()
            .filter(|&(a, b)| a != b).map(orient).collect();
        apply_toggles(&mut maintained, &mut live, &ops)?;
        let fresh = fresh_engine(&live);
        assert_bit_identical(&maintained, &fresh, true)?;
        // The whole interleaving was maintained: one grounding, no
        // regrounds, every write counted as incremental.
        let report = maintained.metrics_report();
        prop_assert_eq!(report.cache.groundings, 1, "writes must not reground");
    }

    /// Unrestricted (cyclic) edge sets: Bool/Tropical/TropK₃/Sorp. The
    /// counting fixpoint diverges on cycles, so it sits this one out.
    #[test]
    fn interleaving_matches_rebuild_on_cyclic_graphs(
        base in proptest::collection::vec((0usize..N, 0usize..N), 3..10),
        ops in proptest::collection::vec((0usize..N, 0usize..N), 1..14),
    ) {
        let mut live: BTreeSet<Edge> = base.iter().copied()
            .filter(|&(a, b)| a != b).collect();
        live.insert((0, 1));
        let mut maintained = fresh_engine(&live);
        let ops: Vec<Edge> = ops.iter().copied().filter(|&(a, b)| a != b).collect();
        apply_toggles(&mut maintained, &mut live, &ops)?;
        let fresh = fresh_engine(&live);
        assert_bit_identical(&maintained, &fresh, false)?;
    }
}

/// Program shapes for the value-repair property: `(program, EDB labels,
/// unary predicate seeded on every node)`: TC, then the non-TC shapes —
/// non-linear recursion, same-generation, Dyck-1, and mutual recursion
/// through a rule constant (`v0` may enter the domain only with a write,
/// which revives the rule).
const SHAPES: [(&str, &[&str], Option<&str>); 5] = [
    (TC, &["E"], None),
    ("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).", &["E"], None),
    (
        "SG(X,X) :- N(X).\nSG(X,Y) :- Par(X,XP), SG(XP,YP), Par(Y,YP).",
        &["Par"],
        Some("N"),
    ),
    (
        "D(X,Y) :- L(X,Z), R(Z,Y).\n\
         D(X,Y) :- L(X,W), D(W,Z), R(Z,Y).\n\
         D(X,Y) :- D(X,Z), D(Z,Y).",
        &["L", "R"],
        None,
    ),
    (
        "A(Y) :- E(v0, Y).\nA(Y) :- B(Z), E(Z,Y).\nB(Y) :- A(Z), E(Z,Y).",
        &["E"],
        None,
    ),
];

/// A labelled edge `(label index, u, v)` of a shape's EDB.
type LEdge = (usize, usize, usize);

fn shape_engine(shape: usize, live: &BTreeSet<LEdge>) -> Engine {
    let (text, labels, unary) = SHAPES[shape];
    let mut b = Engine::builder().program_text(text);
    for &(l, u, v) in live {
        b = b.fact(labels[l], &[&node(u), &node(v)]);
    }
    if let Some(pred) = unary {
        for i in 0..N {
            b = b.fact(pred, &[&node(i)]);
        }
    }
    b.build().unwrap()
}

/// Toggle each edge of `ops` through a fresh engine over `base`,
/// repairing a `MaintainedFixpoint` of `S` under `assign` after every
/// write with the write's own delta, and require it to equal a fresh
/// fixpoint over the maintained grounding each time. Returns the
/// maintained engine and its final live edge set.
fn repairs_match_fresh_fixpoints<S, V>(
    shape: usize,
    base: &BTreeSet<LEdge>,
    ops: &[LEdge],
    assign: &V,
) -> Result<(Engine, BTreeSet<LEdge>), TestCaseError>
where
    S: Semiring + std::fmt::Debug,
    V: Valuation<S>,
{
    use datalog_circuits::incremental::MaintainedFixpoint;
    use datalog_circuits::telemetry::NOOP;
    let labels = SHAPES[shape].1;
    let mut live = base.clone();
    let mut engine = shape_engine(shape, &live);
    let out = engine.fixpoint::<S, _>(assign).unwrap();
    prop_assert!(out.converged);
    let mut fix = MaintainedFixpoint::start(&out);
    for &(l, u, v) in ops {
        let (su, sv) = (node(u), node(v));
        let budget = engine.budget().unwrap();
        if live.remove(&(l, u, v)) {
            let d = engine.retract_fact(labels[l], &[&su, &sv]).unwrap();
            prop_assert!(d.maintained && d.incremental);
            let gp = engine.grounding().unwrap();
            prop_assert!(fix.apply_retract(gp, assign, &d.roots, budget, &NOOP));
        } else {
            live.insert((l, u, v));
            let d = engine.insert_fact(labels[l], &[&su, &sv]).unwrap();
            prop_assert!(d.maintained && d.incremental);
            let gp = engine.grounding().unwrap();
            let budget = engine.budget().unwrap();
            fix.apply_insert(gp, assign, d.base_rules, budget, &NOOP);
        }
        prop_assert!(fix.converged());
        let fresh = engine.fixpoint::<S, _>(assign).unwrap();
        prop_assert!(fresh.converged);
        prop_assert_eq!(
            fix.values(),
            &fresh.values[..],
            "after toggling {:?}",
            (l, u, v)
        );
    }
    prop_assert_eq!(
        engine.cache_stats().groundings,
        1,
        "writes must not reground"
    );
    Ok((engine, live))
}

/// Zombies aside, a maintained grounding derives what a rebuild over the
/// same live edges derives: compare the Bool fixpoints by fact tuple.
fn derives_like_rebuild(
    shape: usize,
    maintained: &Engine,
    live: &BTreeSet<LEdge>,
) -> Result<(), TestCaseError> {
    let rebuilt = shape_engine(shape, live);
    let got = maintained.fixpoint::<Bool, _>(&AllOnes).unwrap().values;
    let want = rebuilt.fixpoint::<Bool, _>(&AllOnes).unwrap().values;
    let (gm, gr) = (
        maintained.grounding().unwrap(),
        rebuilt.grounding().unwrap(),
    );
    let (dm, dr) = (maintained.database(), rebuilt.database());
    for (i, (pred, tuple)) in gm.idb_facts().enumerate() {
        let mapped: Option<Vec<u32>> = tuple
            .iter()
            .map(|&c| dr.consts.get(dm.consts.name(c)))
            .collect();
        let j = mapped.and_then(|t| gr.fact(pred, &t));
        let want_i = j.map_or(Bool(false), |j| want[j]);
        prop_assert_eq!(got[i], want_i, "fact {:?}", (pred, tuple));
    }
    let count = |vs: &[Bool]| vs.iter().filter(|b| **b == Bool(true)).count();
    prop_assert_eq!(count(&got), count(&want));
    Ok(())
}

/// Weighted valuations keyed by fact id: the repaired and the fresh
/// fixpoint share one engine, so ids agree.
fn repairs_match_on_every_semiring(
    shape: usize,
    base: &BTreeSet<LEdge>,
    ops: &[LEdge],
    dag: bool,
) -> Result<(), TestCaseError> {
    let w = |x: u32| (x as u64 * 7) % 5 + 1;
    let (engine, live) = repairs_match_fresh_fixpoints::<Bool, _>(shape, base, ops, &AllOnes)?;
    derives_like_rebuild(shape, &engine, &live)?;
    repairs_match_fresh_fixpoints::<Tropical, _>(
        shape,
        base,
        ops,
        &from_fn(|x: u32| Tropical::new(w(x))),
    )?;
    repairs_match_fresh_fixpoints::<TropK<3>, _>(
        shape,
        base,
        ops,
        &from_fn(|x: u32| TropK::<3>::single(w(x))),
    )?;
    repairs_match_fresh_fixpoints::<Sorp, _>(
        shape,
        base,
        ops,
        &from_fn(|x: u32| Sorp::var(x as VarId)),
    )?;
    if dag {
        repairs_match_fresh_fixpoints::<Counting, _>(shape, base, ops, &AllOnes)?;
    }
    Ok(())
}

/// Random `(label, u, v)` edges over `N` nodes, self-loops dropped,
/// oriented low → high when `dag`.
fn ledges(raw: &[(usize, usize, usize)], shape: usize, dag: bool) -> Vec<LEdge> {
    let labels = SHAPES[shape].1.len();
    raw.iter()
        .filter(|&&(_, u, v)| u != v)
        .map(|&(l, u, v)| {
            let (u, v) = if dag && u > v { (v, u) } else { (u, v) };
            (l % labels, u, v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `MaintainedFixpoint` repairs — worklist insert and retract on the
    /// ⊕-idempotent semirings, naive on Counting — equal a fresh fixpoint
    /// after every write of a random toggle sequence, on every shape. DAG
    /// inputs, so Counting converges and joins in.
    #[test]
    fn repairs_match_fresh_fixpoints_on_dags(
        shape in 0usize..SHAPES.len(),
        base in proptest::collection::vec((0usize..2, 0usize..N, 0usize..N), 3..10),
        ops in proptest::collection::vec((0usize..2, 0usize..N, 0usize..N), 1..10),
    ) {
        let base: BTreeSet<LEdge> = ledges(&base, shape, true).into_iter().collect();
        repairs_match_on_every_semiring(shape, &base, &ledges(&ops, shape, true), true)?;
    }

    /// The same on unrestricted (cyclic) inputs, Counting excluded.
    #[test]
    fn repairs_match_fresh_fixpoints_on_cyclic_graphs(
        shape in 0usize..SHAPES.len(),
        base in proptest::collection::vec((0usize..2, 0usize..N, 0usize..N), 3..10),
        ops in proptest::collection::vec((0usize..2, 0usize..N, 0usize..N), 1..10),
    ) {
        let base: BTreeSet<LEdge> = ledges(&base, shape, false).into_iter().collect();
        repairs_match_on_every_semiring(shape, &base, &ledges(&ops, shape, false), false)?;
    }
}

/// Batched writes land in the same place as the equivalent singles, and
/// both match a rebuild.
#[test]
fn batched_writes_match_single_fact_writes() {
    let base: BTreeSet<Edge> = [(0, 1), (1, 2), (2, 3)].into_iter().collect();
    let mut singles = fresh_engine(&base);
    let mut batched = fresh_engine(&base);

    for (u, v) in [(3, 4), (4, 5), (0, 2)] {
        singles.insert_fact("E", &[&node(u), &node(v)]).unwrap();
    }
    singles.retract_fact("E", &[&node(1), &node(2)]).unwrap();

    batched
        .insert_facts(&[
            ("E", &["v3", "v4"] as &[&str]),
            ("E", &["v4", "v5"]),
            ("E", &["v0", "v2"]),
        ])
        .unwrap();
    batched
        .retract_facts(&[("E", &["v1", "v2"] as &[&str])])
        .unwrap();

    let live: BTreeSet<Edge> = [(0, 1), (2, 3), (3, 4), (4, 5), (0, 2)]
        .into_iter()
        .collect();
    let fresh = fresh_engine(&live);
    assert_bit_identical(&singles, &fresh, true).unwrap();
    assert_bit_identical(&batched, &fresh, true).unwrap();
    // Batching coalesces epochs: one per batch, not one per fact.
    assert_eq!(singles.epoch(), 4);
    assert_eq!(batched.epoch(), 2);
}

/// The explicit `parallelism(4)` belt for runs without
/// `DATALOG_PARALLELISM=4`: a maintained sharded engine matches a
/// sequential rebuild bit-for-bit.
#[test]
fn maintained_sharded_engine_matches_sequential_rebuild() {
    let base: BTreeSet<Edge> = [(0, 1), (1, 2), (2, 3), (3, 4)].into_iter().collect();
    let mut b = Engine::builder().program_text(TC).parallelism(4);
    for &(u, v) in &base {
        b = b.fact("E", &[&node(u), &node(v)]);
    }
    let mut maintained = b.build().unwrap();
    let mut live = base;
    let ops = [(4, 5), (1, 2), (1, 2), (0, 3), (2, 3)];
    apply_toggles(&mut maintained, &mut live, &ops).unwrap();

    let mut f = Engine::builder().program_text(TC).parallelism(1);
    for &(u, v) in &live {
        f = f.fact("E", &[&node(u), &node(v)]);
    }
    let fresh = f.build().unwrap();
    assert_bit_identical(&maintained, &fresh, true).unwrap();
}

/// The umbrella re-export of the value-maintenance layer is usable as
/// `datalog_circuits::incremental` (and as `provcirc::incremental`).
#[test]
fn incremental_crate_is_re_exported() {
    use datalog_circuits::incremental::MaintainedFixpoint;
    let _ = std::any::type_name::<MaintainedFixpoint<Tropical>>();
    let _ =
        std::any::type_name::<datalog_circuits::provcirc::incremental::MaintainedFixpoint<Bool>>();
}
