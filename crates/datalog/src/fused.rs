//! Fused ground+eval: stream grounded rules into the semi-naive
//! ⊕-worklist as delta grounding discovers them, instead of materializing
//! a rule store first.
//!
//! Grounding (`crate::ground`) is one pass: its semi-naive discovery
//! rounds enumerate every grounding exactly once — each at the round
//! after its newest body fact appeared — and record it into a CSR rule
//! store. The fused pipeline drives the very same rounds through the
//! shared `Grounder`, but ⊕-accumulates each grounding into its head value
//! on the spot and drops it. No grounded rule is ever stored (unless
//! retention is requested, in which case each lands once in a compact CSR
//! store — [`fused_eval_retaining`]), which is what makes it the one-shot
//! mode for pure fixpoint queries.
//!
//! # Soundness
//!
//! Requires `⊕` idempotent ([`Semiring::ADD_IDEMPOTENT`]) — the same
//! precondition as semi-naive evaluation, and for the same reason: values
//! are accumulated in place (Gauss–Seidel), so a grounding may contribute
//! a product built from not-yet-final body values, and later rounds must
//! be able to repair it by re-accumulating without over-counting. Over an
//! idempotent (absorptive in all shipped cases) semiring the fixpoint of
//! the immediate-consequence operator is unique and ⊕-accumulation of any
//! sequence of rule products that includes every grounding's final
//! product converges to exactly it; duplicate or stale contributions are
//! absorbed. The driver guarantees the "every final product" part with
//! two passes per round:
//!
//! * a **discovery pass** replaying the grounding's task order exactly
//!   (round 0: full join per rule; round r: `(rule, delta position)` over
//!   the last round's frontier) — every grounding is enumerated exactly once,
//!   at the round after its newest body fact appeared, and newly derived
//!   head facts are appended in first-discovery order, which makes the
//!   fused fact list **bit-identical** to the materialized grounding's
//!   (`tests/engine_agreement.rs` asserts this);
//! * a **re-fire pass** over the facts whose *value* changed in the
//!   previous round without being newly discovered: every grounding
//!   citing such a fact is re-enumerated (possibly more than once — see
//!   [`Matcher::enumerate_changed`]) and its fresh product re-accumulated.
//!
//! A fact's value can only change finitely often (each strict change
//! moves it up the ⊕-order toward the unique fixpoint), so both passes
//! eventually quiesce and the result equals the materialized pipeline's
//! bit-for-bit: every product is multiplied in the `eval` kernel's order
//! (EDB weights, then IDB values, each in body-atom order).
//!
//! Non-idempotent semirings (e.g. `Counting`) take the documented
//! fallback: materialize the grounding and run the naive fixpoint —
//! exactly what the materialized pipeline's own semi-naive → naive
//! fallback does, divergence behavior included.
//!
//! [`Matcher::enumerate_changed`]: mod@crate::ground
//! [`Semiring::ADD_IDEMPOTENT`]: semiring::Semiring::ADD_IDEMPOTENT

use std::ops::ControlFlow;

use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{Counter, Recorder, RoundStats, Stage};

use crate::ast::Program;
use crate::csr::{CompactRules, PENDING_HEAD};
use crate::database::{Database, FactId};
use crate::eval::{default_budget, naive_eval, EvalStrategy};
use crate::fxhash::FxHashMap;
use crate::ground::{
    ground, BodyMatch, Exec, Fragment, GroundedProgram, Grounder, GroundingIndex, RuleCap,
};
use crate::symbols::{ConstId, PredId};

/// Result of a fused ground+eval run.
#[derive(Clone, Debug)]
pub struct FusedOutcome<S> {
    /// The derivable facts, in an order **bit-identical** to the
    /// materialized grounding's `idb_facts` — but with `rules` /
    /// `rules_by_head` left empty: no grounded rule was materialized.
    /// (On the non-idempotent fallback the rules *are* present, exactly
    /// as the materialized pipeline would have built them.)
    pub gp: GroundedProgram,
    /// Value per derivable fact, aligned with `gp.idb_facts`.
    pub values: Vec<S>,
    /// Fused rounds executed (discovery + re-fire pairs). Not comparable
    /// to either materialized strategy's `iterations`.
    pub iterations: usize,
    /// Total rule firings: streamed groundings plus re-fires.
    pub rule_firings: usize,
    /// Groundings streamed through the worklist by discovery passes —
    /// the count a materialized run would have stored as `rules.len()`.
    pub streamed_rules: u64,
    /// Re-firings performed by the changed-value passes.
    pub refires: u64,
    /// Whether the fixpoint quiesced within the round budget.
    pub converged: bool,
    /// Peak number of groundings held in memory at once: `0` on the
    /// sequential path (each grounding is accumulated and dropped on the
    /// spot), the largest single round's grounding count on the parallel
    /// path (discovery tasks buffer their round before the ordered
    /// drain), and the full materialized rule count on the
    /// non-⊕-idempotent fallback.
    pub peak_buffered: u64,
    /// [`EvalStrategy::SemiNaive`] for the fused path proper,
    /// [`EvalStrategy::Naive`] when the non-idempotent fallback ran.
    pub strategy: EvalStrategy,
    /// The streamed rules in compact CSR form when retention was
    /// requested ([`fused_eval_retaining`]); `None` otherwise.
    pub retained: Option<CompactRules>,
}

/// Newly derived facts buffered during a round (the grounder borrows the
/// fact list immutably, so appends wait for the round boundary).
/// First-discovery order — the order the materialized grounding interns
/// them in. The index is per-predicate so membership probes take the
/// borrowed head-tuple slice the grounder streams, allocating only on
/// insertion.
struct PendingFacts<S> {
    facts: Vec<(PredId, Vec<ConstId>, S)>,
    index: FxHashMap<PredId, FxHashMap<Vec<ConstId>, usize>>,
}

/// The ⊕-accumulation state of one fused round.
struct Accumulator<'a, S, V: ?Sized> {
    gp: &'a GroundedProgram,
    values: &'a mut [S],
    pending: PendingFacts<S>,
    /// Per pre-round fact: whether its value strictly changed this round.
    changed: Vec<bool>,
    assign: &'a V,
}

impl<S, V> Accumulator<'_, S, V>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    /// ⊗ of one grounding's body: EDB weights, then IDB values, each in
    /// body-atom order — the sequence of the `eval` kernel, so every path
    /// multiplies alike.
    fn product(&self, edb: impl Iterator<Item = FactId>, idb: impl Iterator<Item = usize>) -> S {
        let mut prod = S::one();
        for f in edb {
            prod.mul_assign(&self.assign.value(f));
        }
        for i in idb {
            prod.mul_assign(&self.values[i]);
        }
        prod
    }

    /// ⊕ `prod` into fact `id`: an interned fact, or (`id ≥ #facts`) a
    /// fact pending in this round.
    fn add_to(&mut self, id: usize, prod: &S) {
        let n = self.gp.num_idb_facts();
        if id < n {
            let before = self.values[id].clone();
            self.values[id].add_assign(prod);
            if !self.values[id].sr_eq(&before) {
                self.changed[id] = true;
            }
        } else {
            self.pending.facts[id - n].2.add_assign(prod);
        }
    }

    /// ⊕ `prod` into the not-yet-interned head `(pred, tuple)`, creating
    /// the pending fact on first sight (re-fires may not create: they
    /// only reach heads discovery already derived). Returns the fact's
    /// index-to-be.
    fn add_new(&mut self, pred: PredId, tuple: &[ConstId], prod: S, may_create: bool) -> usize {
        let n = self.gp.num_idb_facts();
        let by_pred = self.pending.index.entry(pred).or_default();
        if let Some(&pi) = by_pred.get(tuple) {
            self.pending.facts[pi].2.add_assign(&prod);
            return n + pi;
        }
        assert!(
            may_create,
            "fused re-fire reached a head the discovery passes never derived"
        );
        let pi = self.pending.facts.len();
        by_pred.insert(tuple.to_vec(), pi);
        self.pending.facts.push((pred, tuple.to_vec(), prod));
        n + pi
    }

    /// ⊕ one streamed grounding into its head; returns the head's index.
    fn accumulate(
        &mut self,
        pred: PredId,
        head: &[ConstId],
        body: &[BodyMatch],
        may_create: bool,
    ) -> usize {
        let prod = self.product(
            body.iter().filter_map(|m| match *m {
                BodyMatch::Edb(f) => Some(f),
                BodyMatch::Idb(_) => None,
            }),
            body.iter().filter_map(|m| match *m {
                BodyMatch::Idb(i) => Some(i),
                BodyMatch::Edb(_) => None,
            }),
        );
        match self.gp.fact(pred, head) {
            Some(h) => {
                self.add_to(h, &prod);
                h
            }
            None => self.add_new(pred, head, prod, may_create),
        }
    }

    /// ⊕ a recorded fragment's groundings, in order. Returns the
    /// fragment's pending heads resolved to their indices-to-be (the
    /// remap [`CompactRules::append`] takes).
    fn drain(&mut self, frag: &Fragment) -> Vec<u32> {
        let rules = &frag.rules;
        let mut slots = vec![u32::MAX; frag.new_heads.len()];
        for i in 0..rules.len() {
            let prod = self.product(
                rules.body_edb(i).iter().copied(),
                rules.body_idb(i).iter().map(|&x| x as usize),
            );
            let h = rules.head(i) as u32;
            if h & PENDING_HEAD == 0 {
                self.add_to(h as usize, &prod);
                continue;
            }
            let k = (h & !PENDING_HEAD) as usize;
            if slots[k] == u32::MAX {
                slots[k] = self.add_new(frag.head_pred, &frag.new_heads[k], prod, true) as u32;
            } else {
                self.add_to(slots[k] as usize, &prod);
            }
        }
        slots
    }
}

/// [`par_fused_eval_recorded`] with the no-op recorder.
pub fn par_fused_eval<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    threads: usize,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let exec = Exec {
        threads,
        ..Default::default()
    };
    fused_run(program, db, assign, budget, false, &exec)
}

/// Evaluate `program` over `db` by the fused streaming pipeline with the
/// discovery joins sharded over up to `exec.threads` workers, failing
/// with [`Error::GroundingLimit`] once discovery streams more than
/// `exec.max_rules` groundings — the same count, cut off the same way,
/// as the materialized grounding's cap.
///
/// `budget` caps the number of fused rounds; `None` uses the dynamic
/// default (#derivable facts + 2, recomputed as facts are discovered —
/// the fused analogue of [`default_budget`]).
///
/// The ⊕-accumulation itself stays sequential — Gauss–Seidel in-place
/// updates are what make the streaming fixpoint converge fast, and a
/// racing schedule would break the bit-identity contract. What *can*
/// shard is discovery: the join enumeration never reads values, so each
/// round's `(rule, delta position, frontier shard)` tasks run on worker
/// threads exactly as the materialized grounding's do, each recording its
/// groundings into the same CSR fragments, and the driver then drains
/// the fragments in task order — the same accumulation sequence the
/// sequential path performs, hence bit-identical facts *and* values
/// (`threads <= 1` is literally the sequential path). Fused discovery
/// buffers only one round at a time ([`FusedOutcome::peak_buffered`]).
///
/// Telemetry into `exec.rec`: a [`Stage::FusedEval`] span with one
/// [`RoundStats`] per round, plus the [`Counter::StreamedRules`] /
/// [`Counter::FusedRefires`] / [`Counter::RuleFirings`] /
/// [`Counter::FactsDiscovered`] / [`Counter::IndexProbes`] totals.
pub fn par_fused_eval_recorded<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    exec: &Exec,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    fused_run(program, db, assign, budget, false, exec)
}

/// [`par_fused_eval_recorded`] on one thread, additionally retaining
/// every streamed grounding in a [`CompactRules`] CSR store
/// (`outcome.retained`) — the path for callers that need the rules
/// afterwards (provenance, circuit construction, incremental
/// maintenance) next to the values. Each
/// grounding is recorded exactly once (discovery passes only; re-fires
/// are value repairs, not new rules), so the store holds exactly the
/// materialized grounding's rules, in the same discovery order.
pub fn fused_eval_retaining<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    rec: &dyn Recorder,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let exec = Exec {
        rec,
        ..Default::default()
    };
    fused_run(program, db, assign, budget, true, &exec)
}

fn fused_run<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    retain: bool,
    exec: &Exec,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    if !S::ADD_IDEMPOTENT {
        // Streaming accumulation is unsound without idempotent ⊕ (stale
        // products cannot be absorbed). Fall back to exactly what the
        // materialized pipeline does for these semirings: ground fully,
        // run the naive fixpoint.
        let gp = ground(program, db, exec)?;
        let b = budget.unwrap_or_else(|| default_budget(&gp));
        let out = naive_eval::<S, _>(&gp, assign, b);
        let retained = retain.then(|| gp.rules.clone());
        let peak_buffered = gp.rules.len() as u64;
        return Ok(FusedOutcome {
            gp,
            values: out.values,
            iterations: out.iterations,
            rule_firings: out.rule_firings,
            streamed_rules: 0,
            refires: 0,
            converged: out.converged,
            peak_buffered,
            strategy: EvalStrategy::Naive,
            retained,
        });
    }

    let rec = exec.rec;
    let enabled = rec.enabled();
    let span = enabled.then(std::time::Instant::now);
    let mut index = GroundingIndex::build(program, db, false)?;
    let mut g = Grounder::new(program, db, &mut index, enabled);
    let cap = RuleCap::new(exec.max_rules);
    let mut gp = GroundedProgram::default();
    let mut values: Vec<S> = Vec::new();
    let mut retained = retain.then(CompactRules::new);
    let mut streamed: u64 = 0;
    let mut refires: u64 = 0;
    let mut peak_buffered: u64 = 0;
    // D_{r-1}: the facts appended by the previous round's discovery pass
    // (`None` before round 0).
    let mut delta_start: Option<usize> = None;
    // Facts whose value strictly changed in the previous round (any index
    // below that round's append point; newly appended facts are covered
    // by the discovery frontier instead).
    let mut changed: Vec<usize> = Vec::new();
    let mut round = 0usize;
    let converged = loop {
        let len_before = gp.num_idb_facts();
        let frontier = delta_start.map_or(0, |d| len_before - d) as u64;
        let mut acc = Accumulator {
            gp: &gp,
            values: &mut values,
            pending: PendingFacts {
                facts: Vec::new(),
                index: FxHashMap::default(),
            },
            changed: vec![false; len_before],
            assign,
        };
        let mut probes = 0u64;
        let mut fired_now = 0u64;

        // Discovery pass: the materialized grounding's round, consumed
        // as it is enumerated.
        if exec.threads > 1 {
            // Sharded discovery: worker tasks record this round's
            // groundings into fragments (task order = sequential
            // enumeration order), then the drain below accumulates them
            // in exactly the sequence the sequential path would have —
            // enumeration never reads values, so deferring the
            // accumulation to the drain changes nothing observable.
            let tasks = g.tasks(&gp, delta_start, exec.threads);
            let start = delta_start.unwrap_or(0);
            let fragments = g.discover(&gp, &tasks, start, exec, Stage::FusedEval, &cap);
            cap.check()?;
            let held: u64 = fragments.iter().map(|f| f.rules.len() as u64).sum();
            peak_buffered = peak_buffered.max(held);
            fired_now = held;
            for frag in &fragments {
                probes += frag.probes;
                let slots = acc.drain(frag);
                if let Some(csr) = &mut retained {
                    csr.append(&frag.rules, &slots);
                }
            }
        } else {
            let start = delta_start.unwrap_or(0);
            for task in g.tasks(&gp, delta_start, 1) {
                probes += g.run_task(&gp, task, start, &mut |ri, pred, head, body| {
                    if !cap.admit() {
                        return ControlFlow::Break(());
                    }
                    fired_now += 1;
                    let h = acc.accumulate(pred, head, body, true);
                    if let Some(csr) = &mut retained {
                        csr.push_matches(ri, h as u32, body);
                    }
                    ControlFlow::Continue(())
                });
            }
            cap.check()?;
        }
        streamed += fired_now;

        // Re-fire pass: repair values downstream of last round's changes.
        let mut refired_now = 0u64;
        if !changed.is_empty() {
            probes += g.refire(&gp, &changed, &mut |_, pred, head, body| {
                refired_now += 1;
                acc.accumulate(pred, head, body, false);
                ControlFlow::Continue(())
            });
        }
        refires += refired_now;

        // Round boundary: append this round's discoveries (in
        // first-discovery order — the materialized interning order) and
        // fold them into the join indices.
        let Accumulator {
            pending,
            changed: changed_flags,
            ..
        } = acc;
        for (pred, tuple, v) in pending.facts {
            let (i, new) = gp.intern_fact(pred, tuple);
            debug_assert!(new && i == values.len(), "pending facts are deduplicated");
            values.push(v);
        }
        if gp.num_idb_facts() > len_before {
            g.extend_indices(&gp);
        }
        changed = changed_flags
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some(i))
            .collect();
        let delta = (gp.num_idb_facts() - len_before) as u64;
        delta_start = Some(len_before);
        round += 1;
        if enabled {
            rec.counter(Counter::IndexProbes, probes);
            rec.counter(Counter::StreamedRules, fired_now);
            rec.counter(Counter::FusedRefires, refired_now);
            rec.counter(Counter::RuleFirings, fired_now + refired_now);
            rec.counter(Counter::FactsDiscovered, delta);
            rec.round(
                Stage::FusedEval,
                RoundStats {
                    round: (round - 1) as u64,
                    frontier,
                    delta,
                    probes,
                    firings: fired_now + refired_now,
                    worklist: delta + changed.len() as u64,
                },
            );
        }
        if delta == 0 && changed.is_empty() {
            break true;
        }
        let limit = budget.unwrap_or(gp.num_idb_facts() + 2);
        if round >= limit {
            break false;
        }
    };
    if let Some(t) = span {
        rec.stage_nanos(Stage::FusedEval, t.elapsed().as_nanos() as u64);
    }
    Ok(FusedOutcome {
        gp,
        values,
        iterations: round,
        rule_firings: (streamed + refires) as usize,
        streamed_rules: streamed,
        refires,
        converged,
        peak_buffered,
        strategy: EvalStrategy::SemiNaive,
        retained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{naive_eval, semi_naive_eval};
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};
    use telemetry::NOOP;

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    fn instance(n: usize, m: usize, seed: u64) -> (Program, Database) {
        let mut p = tc();
        let g = generators::gnm(n, m, &["E"], seed);
        let (db, _) = Database::from_graph(&mut p, &g);
        (p, db)
    }

    #[test]
    fn fused_matches_materialized_bit_for_bit() {
        for seed in [3u64, 7, 13, 29] {
            let (p, db) = instance(9, 22, seed);
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let mat = semi_naive_eval::<Tropical, _>(
                &gp,
                &UnitWeights::new(Tropical::new(1)),
                default_budget(&gp),
            );
            let fused = par_fused_eval::<Tropical, _>(
                &p,
                &db,
                &UnitWeights::new(Tropical::new(1)),
                None,
                1,
            )
            .unwrap();
            // Fact interning order is the contract, not just the fact set.
            assert_eq!(fused.gp.idb_facts, gp.idb_facts, "seed {seed}");
            assert!(fused.converged && mat.converged);
            assert_eq!(fused.values, mat.values, "seed {seed}");
            assert!(fused.gp.rules.is_empty(), "no rule was materialized");
        }
    }

    #[test]
    fn fused_bool_matches_on_cycles_and_dags() {
        for g in [generators::cycle(7, "E"), generators::path(7, "E")] {
            let mut p = tc();
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let mat = naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp));
            let fused = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, None, 1).unwrap();
            assert_eq!(fused.gp.idb_facts, gp.idb_facts);
            assert!(fused.converged && mat.converged);
            assert_eq!(fused.values, mat.values);
        }
    }

    #[test]
    fn non_idempotent_semirings_fall_back_to_materialize_and_naive() {
        // Acyclic, so Counting converges; the fused path must report the
        // naive fallback and agree with the materialized run exactly.
        let mut p = tc();
        let g = generators::path(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let mat = naive_eval::<Counting, _>(&gp, &AllOnes, default_budget(&gp));
        let fused = par_fused_eval::<Counting, _>(&p, &db, &AllOnes, None, 1).unwrap();
        assert_eq!(fused.strategy, EvalStrategy::Naive);
        assert_eq!(fused.streamed_rules, 0);
        assert!(!fused.gp.rules.is_empty(), "fallback materializes");
        assert_eq!(fused.values, mat.values);
        assert_eq!(fused.converged, mat.converged);

        // Cyclic: both diverge, reported as non-convergence either way.
        let mut p2 = tc();
        let g2 = generators::cycle(4, "E");
        let (db2, _) = Database::from_graph(&mut p2, &g2);
        let fused2 = par_fused_eval::<Counting, _>(&p2, &db2, &AllOnes, None, 1).unwrap();
        assert!(!fused2.converged);
    }

    #[test]
    fn retention_stores_exactly_the_materialized_rule_store() {
        // Same rounds, same task order, same interning: the retained
        // store is the materialized one, rule ids included — sequential
        // streaming and sharded fragment draining alike.
        let dyck = || crate::programs::dyck1();
        let cases = [
            (instance(8, 20, 5), "tc"),
            (instance(8, 20, 17), "tc"),
            (
                {
                    let mut p = dyck();
                    let g = generators::gnm(9, 20, &["L", "R"], 4);
                    let (db, _) = Database::from_graph(&mut p, &g);
                    (p, db)
                },
                "dyck",
            ),
        ];
        for ((p, db), name) in cases {
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let fused = fused_eval_retaining::<Bool, _>(&p, &db, &AllOnes, None, &NOOP).unwrap();
            let csr = fused.retained.expect("retention requested");
            assert_eq!(csr.len() as u64, fused.streamed_rules);
            assert_eq!(csr, gp.rules, "{name}: sequential retention");
            let unit = UnitWeights::new(Tropical::new(1));
            let exec = Exec {
                threads: 4,
                ..Default::default()
            };
            let par = fused_run::<Tropical, _>(&p, &db, &unit, None, true, &exec).unwrap();
            assert_eq!(
                par.retained,
                Some(gp.rules.clone()),
                "{name}: sharded retention"
            );
        }
    }

    #[test]
    fn rule_cap_holds_on_the_fused_pipeline() {
        // The cap cuts discovery off on the streaming path, the sharded
        // path, and the non-idempotent (materializing) fallback alike, at
        // exactly the materialized grounding's count.
        let mut p = tc();
        let g = generators::complete(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let unit = UnitWeights::new(Tropical::new(1));
        let rules = ground(&p, &db, &Exec::default()).unwrap().rules.len();
        for threads in [1usize, 4] {
            let exec = |max_rules| Exec {
                threads,
                max_rules,
                ..Default::default()
            };
            let tropical =
                |cap| par_fused_eval_recorded::<Tropical, _>(&p, &db, &unit, None, &exec(cap));
            let counting =
                |cap| par_fused_eval_recorded::<Counting, _>(&p, &db, &AllOnes, None, &exec(cap));
            for cap in [10, rules - 1] {
                let limit = Error::GroundingLimit { max_rules: cap };
                assert_eq!(tropical(cap).unwrap_err(), limit, "threads={threads}");
                assert_eq!(counting(cap).unwrap_err(), limit, "threads={threads}");
            }
            assert_eq!(tropical(rules).unwrap().streamed_rules, rules as u64);
        }
    }

    #[test]
    fn zero_rule_and_empty_database_programs_quiesce() {
        let p = parse_program("T(X,Y) :- E(X,Y).").unwrap();
        let db = Database::new(); // no facts at all
        let fused = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, None, 1).unwrap();
        assert!(fused.converged);
        assert!(fused.gp.idb_facts.is_empty());
        assert_eq!(fused.values.len(), 0);
    }

    #[test]
    fn explicit_budget_reports_divergence_without_panicking() {
        let (p, db) = instance(8, 20, 11);
        let fused = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, Some(1), 1).unwrap();
        assert!(!fused.converged);
        assert_eq!(fused.iterations, 1);
    }

    #[test]
    fn parallel_fused_is_bit_identical_to_sequential() {
        let unit = UnitWeights::new(Tropical::new(1));
        for seed in [3u64, 7, 13, 29] {
            let (p, db) = instance(60, 240, seed);
            let seq = par_fused_eval::<Tropical, _>(&p, &db, &unit, None, 1).unwrap();
            for threads in [2usize, 4] {
                let par = par_fused_eval::<Tropical, _>(&p, &db, &unit, None, threads).unwrap();
                assert_eq!(par.gp.idb_facts, seq.gp.idb_facts, "seed {seed}");
                assert_eq!(par.values, seq.values, "seed {seed} threads {threads}");
                assert_eq!(par.streamed_rules, seq.streamed_rules);
                assert_eq!(par.iterations, seq.iterations);
                assert!(par.converged);
                // The parallel path holds at most one round's groundings;
                // the sequential path never holds any.
                assert!(par.peak_buffered > 0);
                assert!(par.peak_buffered < par.streamed_rules);
                assert_eq!(seq.peak_buffered, 0);
            }
        }
    }

    #[test]
    fn parallel_fused_matches_non_linear_programs_too() {
        // Dyck-1 exercises multi-IDB bodies (two delta positions per
        // rule) and re-fire rounds; the sharded discovery must still
        // replay the exact sequential order.
        let mut p = crate::programs::dyck1();
        let g = generators::gnm(12, 30, &["L", "R"], 21);
        let (db, _) = Database::from_graph(&mut p, &g);
        let seq = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, None, 1).unwrap();
        let par = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, None, 3).unwrap();
        assert_eq!(par.gp.idb_facts, seq.gp.idb_facts);
        assert_eq!(par.values, seq.values);
        assert_eq!(par.streamed_rules, seq.streamed_rules);
    }
}
