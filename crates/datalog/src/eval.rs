//! Fixpoint evaluation of grounded programs over semirings (paper §2.3):
//! naive and semi-naive.
//!
//! The immediate consequence operator maps each IDB fact to the ⊕-sum over
//! its grounded rules of the ⊗-product of the rule's body values. [`naive_eval`]
//! iterates it from all-0; on a p-stable semiring it converges, and
//! the number of iterations is the *boundedness* probe of §4 (a bounded
//! program converges in O(1) iterations on every input).
//!
//! [`semi_naive_eval`] reaches the same fixpoint *differentially*: it keeps
//! a frontier of grounded rules whose body values changed last round and
//! re-fires only those, accumulating each rule's fresh contribution into its
//! head with `⊕` instead of recomputing every head's full sum. Accumulation
//! is sound exactly when `⊕` is idempotent ([`Semiring::ADD_IDEMPOTENT`]):
//! a stale contribution `x` computed from earlier (smaller) body values is
//! dominated by the final one `y`, so `x ⊕ y = y` and it never inflates the
//! result. For non-idempotent semirings (e.g. [`semiring::Counting`], where
//! re-added contributions would double-count proof trees) it transparently
//! falls back to [`naive_eval`]. [`EvalStrategy`] names the choice; the
//! `Engine` facade defaults to [`EvalStrategy::SemiNaive`]. The outcome's
//! [`EvalOutcome::strategy`] records which algorithm actually ran.
//!
//! Every stage also has an **owner-sharded parallel** variant
//! ([`par_ico`], [`par_naive_eval`], [`par_semi_naive_eval`], dispatched
//! by [`par_eval_with_strategy`]): grounded rules are embarrassingly
//! rule-parallel — each rule's ⊗-product is independent and head
//! contributions combine with `⊕` — so producer chunks route `(head,
//! contribution)` pairs through per-owner mailboxes
//! ([`crate::par::owner_of`] partitions heads by a fixed hash), and each
//! owner ⊕-folds a disjoint slice of heads in the deterministic chunk
//! order. There is no ⊕-merge step and no cross-worker write; the only
//! sequential residue is scattering the drained slices back into the
//! value vector ([`Counter::EvalDrainNanos`]). Work stealing over the
//! producer chunks keeps uneven frontiers from serializing rounds.
//! `threads <= 1` is always the exact sequential code path; the `Engine`
//! facade's `parallelism` knob picks the count.

use semiring::valuation::{AllOnes, Valuation, VarTags};
use semiring::{Semiring, Sorp};

use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ground::GroundedProgram;

/// Result of a fixpoint evaluation.
#[derive(Clone, Debug)]
pub struct EvalOutcome<S> {
    /// Value per IDB fact (aligned with [`GroundedProgram::idb_facts`]).
    pub values: Vec<S>,
    /// A *strategy-relative* progress count: naive reports ICO
    /// applications (the §4 boundedness probe); semi-naive reports
    /// **equivalent full passes** — [`rule_firings`] over the number of
    /// grounded rules, rounded up. The two are NOT comparable across
    /// strategies; compare [`rule_firings`] instead.
    ///
    /// [`rule_firings`]: EvalOutcome::rule_firings
    pub iterations: usize,
    /// Raw number of grounded-rule firings performed — the
    /// strategy-independent work measure. Naive fires every grounded rule
    /// once per ICO application (`iterations × #rules`); semi-naive fires
    /// only frontier rules, so the ratio of the two counts is exactly the
    /// work its delta propagation saved.
    pub rule_firings: usize,
    /// Whether a fixpoint was reached within the iteration budget.
    pub converged: bool,
    /// The algorithm that **actually ran**. A [`EvalStrategy::SemiNaive`]
    /// request on a non-⊕-idempotent semiring falls back to naive; this
    /// field records the fallback so callers can observe it instead of
    /// trusting the requested strategy.
    pub strategy: EvalStrategy,
}

/// One application of the immediate consequence operator.
pub fn ico<S, V>(gp: &GroundedProgram, assign: &V, current: &[S]) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let mut next = vec![S::zero(); current.len()];
    let rules = &gp.rules;
    for ri in 0..rules.len() {
        let mut prod = S::one();
        for &i in rules.body_idb(ri) {
            prod.mul_assign(&current[i as usize]);
        }
        for &f in rules.body_edb(ri) {
            prod.mul_assign(&assign.value(f));
        }
        next[rules.head(ri)].add_assign(&prod);
    }
    next
}

/// One application of the immediate consequence operator, owner-sharded
/// across `threads` scoped threads.
///
/// The grounded rules are partitioned into contiguous chunks (work-stolen
/// across workers); each chunk computes its rules' products **in rule
/// order** and deposits every `(head, product)` pair — zeros included —
/// into the mailbox of the head's owner ([`crate::par::owner_of`]). Each
/// owner then folds its disjoint head slice from `0` in chunk order:
/// chunk-ascending + in-chunk-ascending *is* rule creation order, and
/// distinct heads are independent accumulator slots, so every head
/// replays the exact `add_assign` sequence of [`ico`] and the result is bit-identical
/// on *every* semiring — idempotence is not required, and there is no
/// ⊕-merge step. With `threads <= 1` this *is* [`ico`].
pub fn par_ico<S, V>(gp: &GroundedProgram, assign: &V, current: &[S], threads: usize) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    par_ico_recorded(gp, assign, current, threads, &NOOP, Stage::Eval)
}

/// [`par_ico`] reporting into a telemetry [`Recorder`]: per-worker busy
/// time, steal counts, and mailbox volume from the producer chunks; head
/// accumulators produced from the owner drains; plus the sequential
/// transpose/scatter time ([`Counter::EvalDrainNanos`]). `stage` tags the
/// shard samples (the `Engine` facade attributes its provenance fixpoint
/// to [`Stage::Provenance`], everything else to [`Stage::Eval`]).
/// Disabled recorders take the un-instrumented path bit-identically.
pub fn par_ico_recorded<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    current: &[S],
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    let num_rules = gp.rules.len();
    if threads <= 1 || num_rules < 2 {
        return ico(gp, assign, current);
    }
    let owners = threads;
    let chunks = crate::par::chunk_bounds(num_rules, threads);
    let chunks_ref = &chunks;
    let mail: Vec<Vec<Vec<(u32, S)>>> = crate::par::run_indexed_stats(
        chunks.len(),
        threads,
        rec,
        stage,
        |buckets: &Vec<Vec<(u32, S)>>| {
            let pairs: u64 = buckets.iter().map(|b| b.len() as u64).sum();
            (pairs, pairs)
        },
        |c| {
            let (lo, hi) = chunks_ref[c];
            let mut buckets: Vec<Vec<(u32, S)>> = (0..owners).map(|_| Vec::new()).collect();
            let rules = &gp.rules;
            for ri in lo..hi {
                let mut prod = S::one();
                for &i in rules.body_idb(ri) {
                    prod.mul_assign(&current[i as usize]);
                }
                for &f in rules.body_edb(ri) {
                    prod.mul_assign(&assign.value(f));
                }
                // Zero products are deposited too: the owner's fold then
                // replays the sequential per-head `add_assign` sequence
                // exactly, with no appeal to `x ⊕ 0 = x` being bitwise.
                let head = rules.head(ri) as u32;
                buckets[crate::par::owner_of(head, owners)].push((head, prod));
            }
            buckets
        },
    );
    let drained = drain_owner_mailboxes(
        mail,
        current.len(),
        owners,
        threads,
        rec,
        stage,
        |acc: &mut S, prod| {
            acc.add_assign(prod);
            true
        },
    );
    let scatter_start = rec.enabled().then(std::time::Instant::now);
    let mut next = vec![S::zero(); current.len()];
    for out in drained {
        for (h, v, _) in out {
            next[h as usize] = v;
        }
    }
    if let Some(t) = scatter_start {
        rec.counter(Counter::EvalDrainNanos, t.elapsed().as_nanos() as u64);
    }
    next
}

/// Drain per-(chunk, owner) mailboxes: transpose the producer chunks'
/// buckets into per-owner columns (chunk order preserved — sequential
/// contribution order), then fold each owner's disjoint head slice in
/// parallel. Each mailbox has one producer (the worker that executed the
/// chunk) and one consumer (the owner task), so no ⊕ runs outside the
/// owner drains. `apply(acc, prod)` folds one contribution, starting from
/// `seed(head)`; it returns whether the accumulator strictly changed, and
/// the drain output `(head, final, changed)` ORs those per head. Heads
/// are ascending within each owner's output.
fn drain_owner_mailboxes<S, A>(
    mail: Vec<Vec<Vec<(u32, S)>>>,
    num_heads: usize,
    owners: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
    apply: A,
) -> Vec<Vec<(u32, S, bool)>>
where
    S: Semiring,
    A: Fn(&mut S, &S) -> bool + Sync,
{
    drain_owner_mailboxes_seeded(
        mail,
        num_heads,
        owners,
        threads,
        rec,
        stage,
        |_| S::zero(),
        apply,
    )
}

/// [`drain_owner_mailboxes`] with a per-head seed (the semi-naive drain
/// seeds each head with its pre-round value; the ICO drain with `0`).
#[allow(clippy::too_many_arguments)]
fn drain_owner_mailboxes_seeded<S, D, A>(
    mail: Vec<Vec<Vec<(u32, S)>>>,
    num_heads: usize,
    owners: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
    seed: D,
    apply: A,
) -> Vec<Vec<(u32, S, bool)>>
where
    S: Semiring,
    D: Fn(u32) -> S + Sync,
    A: Fn(&mut S, &S) -> bool + Sync,
{
    let transpose_start = rec.enabled().then(std::time::Instant::now);
    let mut owner_mail: Vec<Vec<Vec<(u32, S)>>> = (0..owners)
        .map(|_| Vec::with_capacity(mail.len()))
        .collect();
    for chunk in mail {
        for (o, bucket) in chunk.into_iter().enumerate() {
            owner_mail[o].push(bucket);
        }
    }
    if let Some(t) = transpose_start {
        rec.counter(Counter::EvalDrainNanos, t.elapsed().as_nanos() as u64);
    }
    let owner_mail_ref = &owner_mail;
    let (seed, apply) = (&seed, &apply);
    crate::par::run_indexed_stats(
        owners,
        threads,
        rec,
        stage,
        |out: &Vec<(u32, S, bool)>| (out.len() as u64, 0),
        move |o| {
            // Chunk-ascending + in-chunk order is the sequential
            // contribution order, and distinct heads are disjoint
            // accumulator slots, so folding the flattened stream in that
            // order replays the sequential ⊕ sequence per head exactly —
            // no sort over the pair volume. A dense first-seen index
            // keeps the per-pair cost at one array probe; only the
            // distinct heads are sorted, to keep the output ascending.
            let mut index: Vec<u32> = vec![u32::MAX; num_heads];
            let mut out: Vec<(u32, S, bool)> = Vec::new();
            for (h, prod) in owner_mail_ref[o].iter().flatten() {
                let slot = index[*h as usize];
                let entry = if slot == u32::MAX {
                    index[*h as usize] = out.len() as u32;
                    out.push((*h, seed(*h), false));
                    out.last_mut().expect("entry just pushed")
                } else {
                    &mut out[slot as usize]
                };
                entry.2 |= apply(&mut entry.1, prod);
            }
            out.sort_unstable_by_key(|e| e.0);
            out
        },
    )
}

/// The naive round loop shared by the sequential and sharded entry
/// points: iterate `step` (one ICO application) from all-0 until a
/// fixpoint or `max_iters` rounds.
fn naive_driver<S, F>(gp: &GroundedProgram, max_iters: usize, step: F) -> EvalOutcome<S>
where
    S: Semiring,
    F: FnMut(&[S]) -> Vec<S>,
{
    naive_driver_recorded(gp, max_iters, &NOOP, Stage::Eval, step)
}

/// [`naive_driver`] reporting into `rec`: one [`RoundStats`] per ICO
/// application (frontier = every grounded rule; `delta` = heads whose
/// value strictly changed) and the [`Counter::RuleFirings`] total. With a
/// disabled recorder the convergence test keeps its short-circuit form
/// and nothing else runs.
fn naive_driver_recorded<S, F>(
    gp: &GroundedProgram,
    max_iters: usize,
    rec: &dyn Recorder,
    stage: Stage,
    mut step: F,
) -> EvalOutcome<S>
where
    S: Semiring,
    F: FnMut(&[S]) -> Vec<S>,
{
    let enabled = rec.enabled();
    let num_rules = gp.rules.len();
    let mut values = vec![S::zero(); gp.num_idb_facts()];
    // With no grounded rules the ICO is constantly 0: the all-zero vector
    // is already the fixpoint, whatever the budget — even a zero budget
    // (it used to report `converged: false` for `max_iters == 0`).
    if gp.rules.is_empty() {
        return EvalOutcome {
            values,
            iterations: 0,
            rule_firings: 0,
            converged: true,
            strategy: EvalStrategy::Naive,
        };
    }
    for iter in 0..max_iters {
        let next = step(&values);
        let converged = if enabled {
            let changed = next
                .iter()
                .zip(values.iter())
                .filter(|(a, b)| !a.sr_eq(b))
                .count() as u64;
            rec.counter(Counter::RuleFirings, num_rules as u64);
            rec.round(
                stage,
                RoundStats {
                    round: iter as u64,
                    frontier: num_rules as u64,
                    delta: changed,
                    probes: 0,
                    firings: num_rules as u64,
                    worklist: if changed == 0 { 0 } else { num_rules as u64 },
                },
            );
            changed == 0
        } else {
            next.iter().zip(values.iter()).all(|(a, b)| a.sr_eq(b))
        };
        values = next;
        if converged {
            return EvalOutcome {
                values,
                iterations: iter + 1,
                rule_firings: (iter + 1) * num_rules,
                converged: true,
                strategy: EvalStrategy::Naive,
            };
        }
    }
    EvalOutcome {
        values,
        iterations: max_iters,
        rule_firings: max_iters.saturating_mul(num_rules),
        converged: false,
        strategy: EvalStrategy::Naive,
    }
}

/// Naive evaluation: iterate the ICO from all-0 until a fixpoint or
/// `max_iters` rounds.
pub fn naive_eval<S, V>(gp: &GroundedProgram, assign: &V, max_iters: usize) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    naive_driver(gp, max_iters, |current| ico(gp, assign, current))
}

/// [`naive_eval`] with each round's ICO sharded across `threads` threads
/// ([`par_ico`]).
///
/// Exactly the same rounds, convergence test, and therefore the same
/// [`EvalOutcome`] — values, `iterations`, and `converged` are identical to
/// the sequential run for every semiring (see [`par_ico`] for why). With
/// `threads <= 1` no thread is spawned and this is [`naive_eval`].
pub fn par_naive_eval<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    par_naive_eval_recorded(gp, assign, max_iters, threads, &NOOP, Stage::Eval)
}

/// [`par_naive_eval`] reporting into a telemetry [`Recorder`]: per-round
/// series from the driver, per-shard stats and merge time from each
/// round's [`par_ico_recorded`]. `stage` tags the samples (the `Engine`
/// facade uses [`Stage::Provenance`] for its provenance fixpoint).
pub fn par_naive_eval_recorded<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    naive_driver_recorded(gp, max_iters, rec, stage, |current| {
        par_ico_recorded(gp, assign, current, threads, rec, stage)
    })
}

/// Which fixpoint algorithm [`eval_with_strategy`] runs.
///
/// The two strategies compute identical values whenever both converge
/// (semi-naive falls back to naive where its delta propagation would be
/// unsound), but their `EvalOutcome::iterations` counters measure
/// different things: naive counts applications of the full immediate
/// consequence operator — the §4 boundedness probe — while semi-naive
/// counts frontier rounds, which can be fewer. Probes that *interpret*
/// the iteration count (boundedness, the Theorem 4.3 layering) must use
/// [`Naive`](EvalStrategy::Naive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalStrategy {
    /// The Jacobi-style naive fixpoint: every round re-fires every
    /// grounded rule against the previous round's values.
    Naive,
    /// Delta-driven evaluation: each round re-fires only the grounded
    /// rules whose body values changed, accumulating contributions with
    /// `⊕`. Sound on `⊕`-idempotent semirings
    /// ([`Semiring::ADD_IDEMPOTENT`]); silently equals `Naive` otherwise.
    #[default]
    SemiNaive,
}

/// Evaluate under the given [`EvalStrategy`] — the single dispatch point
/// the `Engine` facade routes through.
pub fn eval_with_strategy<S, V>(
    strategy: EvalStrategy,
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    match strategy {
        EvalStrategy::Naive => naive_eval(gp, assign, max_iters),
        EvalStrategy::SemiNaive => semi_naive_eval(gp, assign, max_iters),
    }
}

/// [`eval_with_strategy`] with the work of each round sharded across
/// `threads` scoped threads — the dispatch point the `Engine` facade's
/// `parallelism` knob routes through.
///
/// `threads <= 1` runs the exact sequential code path (no thread is
/// spawned). The returned [`EvalOutcome::strategy`] records the algorithm
/// that actually ran, so the semi-naive → naive fallback on
/// non-⊕-idempotent semirings stays observable.
pub fn par_eval_with_strategy<S, V>(
    strategy: EvalStrategy,
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    par_eval_with_strategy_recorded(strategy, gp, assign, max_iters, threads, &NOOP, Stage::Eval)
}

/// [`par_eval_with_strategy`] reporting into a telemetry [`Recorder`] —
/// the dispatch point `Engine` routes its instrumented evaluations
/// through. `stage` tags the per-round/per-shard samples, letting the
/// caller attribute a run to [`Stage::Eval`] or [`Stage::Provenance`].
pub fn par_eval_with_strategy_recorded<S, V>(
    strategy: EvalStrategy,
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    match strategy {
        EvalStrategy::Naive => par_naive_eval_recorded(gp, assign, max_iters, threads, rec, stage),
        EvalStrategy::SemiNaive => {
            par_semi_naive_eval_recorded(gp, assign, max_iters, threads, rec, stage)
        }
    }
}

/// Semi-naive (differential) evaluation: reach the same fixpoint as
/// [`naive_eval`] by propagating value changes along rule dependencies
/// instead of recomputing every fact every round.
///
/// The algorithm is a FIFO worklist over grounded rules. Every rule fires
/// once; when a firing `⊕`-accumulates a *strictly new* value into its
/// head, the rules reading that head are re-enqueued (unless already
/// pending — a pending rule reads the newer value when it fires, so one
/// queue entry absorbs any number of upstream changes). Total work is
/// proportional to the number of value *changes*, not
/// `rounds × total grounded rules` — on transitive closure over `gnm`
/// graphs this is several times faster than naive (see the `seminaive`
/// bench experiment). The fact → dependent-rules lists are laid out in
/// one flat CSR buffer, built in two passes without per-rule allocation.
///
/// Accumulation without recomputation is sound exactly when `⊕` is
/// idempotent: within the idempotent order, body values only grow, `⊗` is
/// monotone, so every stale contribution is dominated by (and absorbed
/// into) the final one. When `S::ADD_IDEMPOTENT` is `false` (e.g.
/// [`semiring::Counting`]) this function **falls back to [`naive_eval`]**,
/// so it is safe to call on any semiring; divergent instances exhaust
/// the budget and report `converged: false` either way.
///
/// `iterations` reports *equivalent full passes* — rule firings divided by
/// the number of grounded rules, rounded up — and the budget caps firings
/// at `max_iters × #rules`, mirroring naive's total work bound. Do not
/// feed the count to the §4 boundedness or layering probes (they
/// interpret naive ICO applications; use [`naive_eval`] there).
pub fn semi_naive_eval<S, V>(gp: &GroundedProgram, assign: &V, max_iters: usize) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    semi_naive_eval_recorded(gp, assign, max_iters, &NOOP, Stage::Eval)
}

/// [`semi_naive_eval`] reporting into a telemetry [`Recorder`].
///
/// The sequential worklist has no natural rounds, so the per-round series
/// is **sampled at equivalent-pass boundaries** (every `#rules` firings):
/// each [`RoundStats`] carries the queue length at the boundary (as both
/// `frontier` and `worklist`) and the head-value changes since the last
/// sample. Round 0 is the initial every-rule pass. [`Counter::RuleFirings`]
/// accumulates the exact total. Disabled recorders leave the worklist loop
/// bit-identical (the only residue is one dead branch per value change).
pub fn semi_naive_eval_recorded<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    if !S::ADD_IDEMPOTENT {
        return naive_driver_recorded(gp, max_iters, rec, stage, |current| {
            ico(gp, assign, current)
        });
    }
    let enabled = rec.enabled();
    let n = gp.num_idb_facts();
    let num_rules = gp.rules.len();
    let mut values = vec![S::zero(); n];
    let edb_factor = edb_factors(gp, assign);
    let (start, deps) = dependency_csr(gp);

    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut pending = vec![false; num_rules];
    let max_firings = max_iters.saturating_mul(num_rules.max(1));
    let mut firings = 0usize;
    let mut changes = 0u64;
    let mut sampled_changes = 0u64;
    let equivalent_passes = |firings: usize| firings.div_ceil(num_rules.max(1));
    macro_rules! finish {
        ($converged:expr) => {{
            if enabled {
                rec.counter(Counter::RuleFirings, firings as u64);
            }
            return EvalOutcome {
                values,
                iterations: equivalent_passes(firings),
                rule_firings: firings,
                converged: $converged,
                strategy: EvalStrategy::SemiNaive,
            };
        }};
    }

    // One firing of rule `ri`: ⊕-accumulate its product into the head and
    // re-enqueue the dependent rules that fired before this change (a rule
    // that has not fired yet — or is already queued — reads the newer value
    // when its turn comes, so it needs no entry).
    macro_rules! fire {
        ($ri:expr, $fired:expr) => {{
            let ri = $ri;
            let head = gp.rules.head(ri);
            let mut prod = edb_factor[ri].clone();
            for &i in gp.rules.body_idb(ri) {
                prod.mul_assign(&values[i as usize]);
            }
            if !prod.is_zero() {
                let sum = values[head].add(&prod);
                if !sum.sr_eq(&values[head]) {
                    values[head] = sum;
                    if enabled {
                        changes += 1;
                    }
                    for &dep in &deps[start[head]..start[head + 1]] {
                        let dep = dep as usize;
                        if $fired(dep) && !pending[dep] {
                            pending[dep] = true;
                            queue.push_back(dep as u32);
                        }
                    }
                }
            }
        }};
    }

    // Initial pass: every rule fires once, in creation order — a plain
    // scan, as cache-friendly as one naive round. Only rules at an earlier
    // position (already fired) can need a second look.
    for ri in 0..num_rules.min(max_firings) {
        firings += 1;
        fire!(ri, |dep| dep <= ri);
    }
    if enabled && firings > 0 {
        rec.round(
            stage,
            RoundStats {
                round: 0,
                frontier: firings as u64,
                delta: changes,
                probes: 0,
                firings: firings as u64,
                worklist: queue.len() as u64,
            },
        );
        sampled_changes = changes;
    }
    if num_rules > max_firings {
        finish!(false);
    }
    // Drain: by now every rule has fired, so any dependent of a change is
    // a re-fire candidate unless already queued.
    while let Some(ri) = queue.pop_front() {
        if firings == max_firings {
            finish!(false);
        }
        firings += 1;
        pending[ri as usize] = false;
        fire!(ri as usize, |_dep| true);
        if enabled && firings.is_multiple_of(num_rules.max(1)) {
            rec.round(
                stage,
                RoundStats {
                    round: (firings / num_rules.max(1)) as u64,
                    frontier: queue.len() as u64,
                    delta: changes - sampled_changes,
                    probes: 0,
                    firings: num_rules as u64,
                    worklist: queue.len() as u64,
                },
            );
            sampled_changes = changes;
        }
    }
    finish!(true);
}

/// Delta-driven evaluation with each round's frontier sharded across
/// `threads` scoped threads.
///
/// `threads <= 1` runs the sequential [`semi_naive_eval`] worklist
/// unchanged. With more threads the algorithm becomes **round-based**: the
/// frontier (initially every rule, always sorted by rule id) is split
/// into contiguous work-stolen chunks, each chunk computes its rules'
/// products against the *pre-round* values and routes the nonzero
/// `(head, contribution)` pairs to per-owner mailboxes
/// ([`crate::par::owner_of`]); each owner then ⊕-folds its disjoint head
/// slice in frontier order with the same strict-growth test as the
/// sequential merge. Heads that strictly grow enqueue their dependent
/// rules, and the next frontier is sorted by rule id — so the frontier
/// sequence is deterministic and independent of the thread count, and no
/// ⊕ ever runs outside an owner's own slice (no merge step, no
/// cross-worker writes).
///
/// Soundness is the same ⊕-idempotence argument as the sequential
/// algorithm (stale contributions are dominated by, and absorbed into,
/// final ones); non-idempotent semirings fall back to [`par_naive_eval`],
/// whose sharding is exact on every semiring. The two schedules
/// (worklist vs rounds) fire rules in different orders, so
/// `iterations` — still *equivalent full passes*, total firings over
/// `#rules` — may differ from the sequential count, and at a **tight**
/// budget so may `converged`: the round-based schedule reads pre-round
/// values (Jacobi) where the worklist reads in-place updates
/// (Gauss–Seidel-like), so it can need more firings to drain and may
/// exhaust a budget the worklist squeaked under. Both respect the same
/// `max_iters × #rules` firing bound; at a budget that lets either drain
/// (e.g. [`default_budget`]), `values` and `converged` agree — asserted
/// by the parallel agreement proptests.
pub fn par_semi_naive_eval<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    par_semi_naive_eval_recorded(gp, assign, max_iters, threads, &NOOP, Stage::Eval)
}

/// [`par_semi_naive_eval`] reporting into a telemetry [`Recorder`]: one
/// [`RoundStats`] per frontier round (frontier size, head-value changes,
/// next-frontier worklist), [`Counter::RuleFirings`] /
/// [`Counter::Contributions`] / [`Counter::EvalDrainNanos`] totals, and —
/// at `threads > 1` — per-worker shard stats (busy time, steals, mailbox
/// volume) from each round's producer chunks and owner drains. Disabled
/// recorders take the un-instrumented path bit-identically.
pub fn par_semi_naive_eval_recorded<S, V>(
    gp: &GroundedProgram,
    assign: &V,
    max_iters: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
) -> EvalOutcome<S>
where
    S: Semiring,
    V: Valuation<S> + Sync + ?Sized,
{
    if !S::ADD_IDEMPOTENT {
        return par_naive_eval_recorded(gp, assign, max_iters, threads, rec, stage);
    }
    if threads <= 1 {
        return semi_naive_eval_recorded(gp, assign, max_iters, rec, stage);
    }
    let enabled = rec.enabled();
    let n = gp.num_idb_facts();
    let num_rules = gp.rules.len();
    let mut values = vec![S::zero(); n];
    if num_rules == 0 {
        return EvalOutcome {
            values,
            iterations: 0,
            rule_firings: 0,
            converged: true,
            strategy: EvalStrategy::SemiNaive,
        };
    }
    let edb_factor = edb_factors(gp, assign);
    let (start, deps) = dependency_csr(gp);

    let max_firings = max_iters.saturating_mul(num_rules);
    let mut firings = 0usize;
    let mut frontier: Vec<u32> = (0..num_rules as u32).collect();
    // `pending[r]` ⇔ rule r is already in the *next* frontier.
    let mut pending = vec![false; num_rules];
    let mut exhausted = false;
    let mut round = 0u64;
    while !frontier.is_empty() {
        let budget_left = max_firings - firings;
        if budget_left == 0 {
            exhausted = true;
            break;
        }
        if frontier.len() > budget_left {
            // Fire what the budget allows, then report non-convergence —
            // the truncated rules were never re-fired.
            frontier.truncate(budget_left);
            exhausted = true;
        }
        let frontier_ref = &frontier;
        let values_ref = &values;
        let owners = threads;
        let chunks = crate::par::chunk_bounds(frontier.len(), threads);
        let chunks_ref = &chunks;
        let mail: Vec<Vec<Vec<(u32, S)>>> = crate::par::run_indexed_stats(
            chunks.len(),
            threads,
            rec,
            stage,
            |buckets: &Vec<Vec<(u32, S)>>| {
                let pairs: u64 = buckets.iter().map(|b| b.len() as u64).sum();
                (pairs, pairs)
            },
            |c| {
                let (lo, hi) = chunks_ref[c];
                let mut buckets: Vec<Vec<(u32, S)>> = (0..owners).map(|_| Vec::new()).collect();
                for &ri in &frontier_ref[lo..hi] {
                    let ri = ri as usize;
                    let mut prod = edb_factor[ri].clone();
                    for &i in gp.rules.body_idb(ri) {
                        prod.mul_assign(&values_ref[i as usize]);
                    }
                    if !prod.is_zero() {
                        let head = gp.rules.head(ri) as u32;
                        buckets[crate::par::owner_of(head, owners)].push((head, prod));
                    }
                }
                buckets
            },
        );
        firings += frontier.len();
        if enabled {
            rec.counter(Counter::RuleFirings, frontier.len() as u64);
            rec.counter(
                Counter::Contributions,
                mail.iter()
                    .flat_map(|c| c.iter())
                    .map(|b| b.len() as u64)
                    .sum(),
            );
        }
        // Rules that just fired read pre-round values: if an owner drain
        // below changes one of their inputs they must re-fire next round,
        // so clear their next-frontier membership first.
        for &ri in &frontier {
            pending[ri as usize] = false;
        }
        // Owner drains: each owner folds its disjoint head slice in
        // frontier order, seeded with the pre-round value and using the
        // same strict-growth test as the sequential merge.
        let drained = drain_owner_mailboxes_seeded(
            mail,
            values.len(),
            owners,
            threads,
            rec,
            stage,
            |h| values_ref[h as usize].clone(),
            |acc: &mut S, prod| {
                let sum = acc.add(prod);
                if sum.sr_eq(acc) {
                    false
                } else {
                    *acc = sum;
                    true
                }
            },
        );
        // Apply the drained slices and enqueue dependents in a fixed
        // order — owner-major, heads ascending — then sort the next
        // frontier by rule id, keeping the frontier sequence independent
        // of the thread count.
        let apply_start = enabled.then(std::time::Instant::now);
        let mut changed = 0u64;
        let mut next_frontier: Vec<u32> = Vec::new();
        for out in drained {
            for (head, v, grew) in out {
                if !grew {
                    continue;
                }
                let h = head as usize;
                values[h] = v;
                if enabled {
                    changed += 1;
                }
                for &dep in &deps[start[h]..start[h + 1]] {
                    if !pending[dep as usize] {
                        pending[dep as usize] = true;
                        next_frontier.push(dep);
                    }
                }
            }
        }
        next_frontier.sort_unstable();
        if let Some(t) = apply_start {
            rec.counter(Counter::EvalDrainNanos, t.elapsed().as_nanos() as u64);
        }
        if enabled {
            rec.round(
                stage,
                RoundStats {
                    round,
                    frontier: frontier.len() as u64,
                    delta: changed,
                    probes: 0,
                    firings: frontier.len() as u64,
                    worklist: next_frontier.len() as u64,
                },
            );
        }
        round += 1;
        if exhausted {
            break;
        }
        frontier = next_frontier;
    }
    EvalOutcome {
        values,
        iterations: firings.div_ceil(num_rules),
        rule_firings: firings,
        converged: !exhausted,
        strategy: EvalStrategy::SemiNaive,
    }
}

/// Each rule's EDB factor is loop-invariant across a fixpoint run: the
/// ⊗-product of its EDB body facts' values, computed once. Public so the
/// incremental-maintenance layer can reuse it when seeding delta
/// propagation over an extended grounding.
pub fn edb_factors<S, V>(gp: &GroundedProgram, assign: &V) -> Vec<S>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    (0..gp.rules.len())
        .map(|ri| {
            let mut p = S::one();
            for &f in gp.rules.body_edb(ri) {
                p.mul_assign(&assign.value(f));
            }
            p
        })
        .collect()
}

/// Invert the body references into fact → dependent rules, CSR layout:
/// `deps[start[i]..start[i + 1]]` lists the rules reading fact `i`
/// (each rule at most once per fact). Public so the incremental
/// maintenance layer can drive its change-propagation worklist and DRed
/// cone computation off the same table.
pub fn dependency_csr(gp: &GroundedProgram) -> (Vec<usize>, Vec<u32>) {
    let n = gp.num_idb_facts();
    let mut start = vec![0usize; n + 1];
    for ri in 0..gp.rules.len() {
        for_each_distinct_body_fact(gp.rules.body_idb(ri), |i| start[i + 1] += 1);
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut deps = vec![0u32; start[n]];
    let mut cursor = start.clone();
    for ri in 0..gp.rules.len() {
        for_each_distinct_body_fact(gp.rules.body_idb(ri), |i| {
            deps[cursor[i]] = ri as u32;
            cursor[i] += 1;
        });
    }
    (start, deps)
}

/// Visit each IDB fact of a rule body once, even when the body repeats it
/// (bodies are tiny, so the quadratic dedup beats sorting a clone).
fn for_each_distinct_body_fact(body_idb: &[u32], mut f: impl FnMut(usize)) {
    for (k, &i) in body_idb.iter().enumerate() {
        if !body_idb[..k].contains(&i) {
            f(i as usize);
        }
    }
}

/// Default iteration budget: `#IDB facts + 2` suffices for any absorptive
/// (0-stable) semiring, where each round strictly grows the set of facts at
/// their final value.
pub fn default_budget(gp: &GroundedProgram) -> usize {
    gp.num_idb_facts() + 2
}

/// Evaluate with every EDB fact tagged `1` — Boolean derivability plus the
/// iterations-to-fixpoint probe used by the boundedness experiments.
pub fn eval_all_ones<S: Semiring>(gp: &GroundedProgram, max_iters: usize) -> EvalOutcome<S> {
    naive_eval(gp, &AllOnes, max_iters)
}

/// The provenance polynomial of every IDB fact, computed by naive evaluation
/// over [`Sorp`] with each EDB fact tagged by its own variable.
///
/// By Proposition 2.4 this equals the tight-proof-tree polynomial of §2.4;
/// `prooftree::provenance_polynomial` cross-checks it by enumeration.
pub fn provenance_eval(gp: &GroundedProgram, max_iters: usize) -> EvalOutcome<Sorp> {
    naive_eval(gp, &VarTags, max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ground::ground;
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::prelude::*;

    fn tc_on(g: &graphgen::LabeledDigraph) -> (crate::ast::Program, Database, GroundedProgram) {
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = ground(&p, &db).unwrap();
        (p, db, gp)
    }

    #[test]
    fn boolean_eval_matches_reachability() {
        let g = generators::gnm(8, 20, &["E"], 3);
        let (p, db, gp) = tc_on(&g);
        let out = eval_all_ones::<Bool>(&gp, default_budget(&gp));
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        // Every derivable fact evaluates to true (grounding keeps only
        // derivable facts), and matches BFS reachability.
        for (i, (pred, tuple)) in gp.idb_facts.iter().enumerate() {
            if *pred != t {
                continue;
            }
            assert!(out.values[i].is_one());
            let (u, v) = (tuple[0], tuple[1]);
            // Find graph node indices back from constants.
            let find = |c| {
                (0..g.num_nodes())
                    .find(|&i| db.node_const(i) == Some(c))
                    .unwrap()
            };
            let (ui, vi) = (find(u), find(v));
            // E+ reachability: at least one edge.
            let mut ok = false;
            for &(eu, ev, _) in g.edges() {
                if eu as usize == ui && g.reachable_from(ev)[vi] {
                    ok = true;
                }
            }
            assert!(ok, "derived T({ui},{vi}) not backed by reachability");
        }
    }

    #[test]
    fn tropical_eval_is_shortest_path_on_unit_weights() {
        let g = generators::gnm(9, 24, &["E"], 7);
        let (p, db, gp) = tc_on(&g);
        let out = naive_eval(
            &gp,
            &UnitWeights::new(Tropical::new(1)),
            default_budget(&gp),
        );
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        for src in 0..g.num_nodes() {
            let dist = g.bfs_distances(src as u32);
            for (dst, &dopt) in dist.iter().enumerate() {
                let key = [db.node_const(src).unwrap(), db.node_const(dst).unwrap()];
                if let Some(i) = gp.fact(t, &key) {
                    let d = dopt.expect("derivable implies reachable");
                    // E+ paths: for src==dst, BFS gives 0 but TC needs a
                    // cycle; skip the diagonal.
                    if src != dst {
                        assert_eq!(out.values[i], Tropical::new(d), "({src},{dst})");
                    }
                }
            }
        }
    }

    #[test]
    fn counting_diverges_on_cycles() {
        let g = generators::cycle(3, "E");
        let (_, _, gp) = tc_on(&g);
        let out = naive_eval(&gp, &UnitWeights::new(Counting::new(1)), 50);
        assert!(
            !out.converged,
            "counting semiring must not converge on a cycle"
        );
    }

    #[test]
    fn counting_counts_paths_on_dags() {
        // Diamond: 0→1→3, 0→2→3 — two paths.
        let mut g = graphgen::LabeledDigraph::new(4);
        g.add_edge(0, 1, "E");
        g.add_edge(0, 2, "E");
        g.add_edge(1, 3, "E");
        g.add_edge(2, 3, "E");
        let (p, db, gp) = tc_on(&g);
        let out = naive_eval(&gp, &UnitWeights::new(Counting::new(1)), 20);
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(3).unwrap()])
            .unwrap();
        assert_eq!(out.values[i], Counting::new(2));
    }

    #[test]
    fn tropk_converges_within_stability_budget() {
        let g = generators::cycle(4, "E");
        let (_, _, gp) = tc_on(&g);
        // Trop_2 is 1-stable: naive evaluation converges despite the cycle.
        let out = naive_eval(&gp, &UnitWeights::new(TropK::<2>::single(1)), 200);
        assert!(out.converged);
    }

    #[test]
    fn provenance_eval_on_figure1() {
        // The paper's Figure 1 graph.
        let mut g = graphgen::LabeledDigraph::new(6);
        // s=0, u1=1, u2=2, v1=3, v2=4, t=5
        let e_su1 = g.add_edge(0, 1, "E");
        let e_su2 = g.add_edge(0, 2, "E");
        let e_u1v1 = g.add_edge(1, 3, "E");
        let e_u1v2 = g.add_edge(1, 4, "E");
        let e_u2v2 = g.add_edge(2, 4, "E");
        let e_v1t = g.add_edge(3, 5, "E");
        let e_v2t = g.add_edge(4, 5, "E");
        let (p, db, gp) = tc_on(&g);
        let out = provenance_eval(&gp, default_budget(&gp));
        assert!(out.converged);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(5).unwrap()])
            .unwrap();
        // §2.4: x_{s,u1}x_{u1,v1}x_{v1,t} + x_{s,u1}x_{u1,v2}x_{v2,t}
        //       + x_{s,u2}x_{u2,v2}x_{v2,t}
        let m = |a: u32, b: u32, c: u32| semiring::Monomial::from_pairs([(a, 1), (b, 1), (c, 1)]);
        let expect = Sorp::from_monomials([
            m(e_su1 as u32, e_u1v1 as u32, e_v1t as u32),
            m(e_su1 as u32, e_u1v2 as u32, e_v2t as u32),
            m(e_su2 as u32, e_u2v2 as u32, e_v2t as u32),
        ]);
        assert_eq!(out.values[i], expect);
    }

    #[test]
    fn seminaive_matches_naive_across_semirings() {
        for seed in [1u64, 5, 9] {
            let g = generators::gnm(8, 20, &["E"], seed);
            let (_, _, gp) = tc_on(&g);
            let budget = default_budget(&gp);

            let nb = naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            let sb = semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(sb.converged && nb.converged);
            assert_eq!(nb.values, sb.values, "Bool seed={seed}");

            let unit = UnitWeights::new(Tropical::new(1));
            let nt = naive_eval::<Tropical, _>(&gp, &unit, budget);
            let st = semi_naive_eval::<Tropical, _>(&gp, &unit, budget);
            assert!(st.converged);
            assert_eq!(nt.values, st.values, "Tropical seed={seed}");
            assert!(
                st.iterations <= nt.iterations,
                "semi-naive rounds ({}) exceed naive iterations ({})",
                st.iterations,
                nt.iterations
            );

            let ns = naive_eval::<Sorp, _>(&gp, &VarTags, budget);
            let ss = semi_naive_eval::<Sorp, _>(&gp, &VarTags, budget);
            assert!(ss.converged);
            assert_eq!(ns.values, ss.values, "Sorp seed={seed}");
        }
    }

    #[test]
    fn seminaive_counting_falls_back_to_naive() {
        // Counting is not ⊕-idempotent: the delta path would double-count,
        // so semi_naive_eval must route through naive and agree exactly —
        // on the DAG it counts paths, on the cycle both diverge.
        let mut g = graphgen::LabeledDigraph::new(4);
        g.add_edge(0, 1, "E");
        g.add_edge(0, 2, "E");
        g.add_edge(1, 3, "E");
        g.add_edge(2, 3, "E");
        let (_, _, gp) = tc_on(&g);
        let unit = UnitWeights::new(Counting::new(1));
        let n = naive_eval::<Counting, _>(&gp, &unit, 20);
        let s = semi_naive_eval::<Counting, _>(&gp, &unit, 20);
        assert!(n.converged && s.converged);
        assert_eq!(n.values, s.values);
        assert_eq!(n.iterations, s.iterations, "fallback must be naive itself");

        let cyc = generators::cycle(3, "E");
        let (_, _, gp) = tc_on(&cyc);
        let s = semi_naive_eval::<Counting, _>(&gp, &unit, 50);
        assert!(!s.converged, "counting must still diverge on a cycle");
    }

    #[test]
    fn seminaive_tropk_converges_on_cycles() {
        // Trop_2 is ⊕-idempotent but only 1-stable: the frontier must
        // still drain (values stop changing) despite the cycle.
        let g = generators::cycle(4, "E");
        let (_, _, gp) = tc_on(&g);
        let unit = UnitWeights::new(TropK::<2>::single(1));
        let n = naive_eval::<TropK<2>, _>(&gp, &unit, 200);
        let s = semi_naive_eval::<TropK<2>, _>(&gp, &unit, 200);
        assert!(n.converged && s.converged);
        assert_eq!(n.values, s.values);
    }

    #[test]
    fn empty_program_and_zero_budget_converge_immediately() {
        // A program with zero grounded rules: the all-zero vector is the
        // fixpoint, whatever the budget — including a zero budget.
        let mut p = parse_program("R(Y) :- E(nosuch, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        assert!(gp.rules.is_empty());
        for budget in [0usize, 1, 10] {
            let n = naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(n.converged, "naive budget={budget}");
            assert_eq!(n.iterations, 0);
            let s = semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget);
            assert!(s.converged, "semi-naive budget={budget}");
            assert_eq!(s.iterations, 0);
            // The Counting fallback routes through naive and must agree.
            let c =
                semi_naive_eval::<Counting, _>(&gp, &UnitWeights::new(Counting::new(1)), budget);
            assert!(c.converged, "fallback budget={budget}");
            assert_eq!(c.strategy, EvalStrategy::Naive);
        }
    }

    #[test]
    fn zero_budget_on_nonempty_program_is_honest() {
        // With rules present, a zero budget cannot verify the fixpoint:
        // both algorithms report non-convergence without firing anything.
        let g = generators::path(3, "E");
        let (_, _, gp) = tc_on(&g);
        let n = naive_eval::<Bool, _>(&gp, &AllOnes, 0);
        assert!(!n.converged);
        assert_eq!(n.iterations, 0);
        let s = semi_naive_eval::<Bool, _>(&gp, &AllOnes, 0);
        assert!(!s.converged);
        assert_eq!(s.iterations, 0);
        let p = par_semi_naive_eval::<Bool, _>(&gp, &AllOnes, 0, 4);
        assert!(!p.converged);
        assert_eq!(p.iterations, 0);
    }

    #[test]
    fn outcome_records_the_effective_strategy() {
        let g = generators::path(3, "E");
        let (_, _, gp) = tc_on(&g);
        let budget = default_budget(&gp);
        assert_eq!(
            naive_eval::<Bool, _>(&gp, &AllOnes, budget).strategy,
            EvalStrategy::Naive
        );
        assert_eq!(
            semi_naive_eval::<Bool, _>(&gp, &AllOnes, budget).strategy,
            EvalStrategy::SemiNaive
        );
        // The silent SemiNaive → Naive downgrade on non-idempotent
        // semirings is now visible in the outcome.
        let unit = UnitWeights::new(Counting::new(1));
        let fallback = eval_with_strategy::<Counting, _>(EvalStrategy::SemiNaive, &gp, &unit, 20);
        assert_eq!(fallback.strategy, EvalStrategy::Naive);
        let par_fallback =
            par_eval_with_strategy::<Counting, _>(EvalStrategy::SemiNaive, &gp, &unit, 20, 4);
        assert_eq!(par_fallback.strategy, EvalStrategy::Naive);
    }

    #[test]
    fn par_ico_matches_ico_along_the_whole_fixpoint() {
        for seed in [2u64, 7] {
            let g = generators::gnm(8, 20, &["E"], seed);
            let (_, _, gp) = tc_on(&g);
            let unit = UnitWeights::new(Tropical::new(1));
            let mut current = vec![Tropical::zero(); gp.num_idb_facts()];
            for _ in 0..default_budget(&gp) {
                let seq = ico::<Tropical, _>(&gp, &unit, &current);
                for threads in [2usize, 3, 8] {
                    let par = par_ico::<Tropical, _>(&gp, &unit, &current, threads);
                    assert_eq!(seq, par, "threads={threads} seed={seed}");
                }
                current = seq;
            }
        }
    }

    #[test]
    fn parallel_eval_agrees_with_sequential() {
        for seed in [1u64, 4, 11] {
            let g = generators::gnm(9, 24, &["E"], seed);
            let (_, _, gp) = tc_on(&g);
            let budget = default_budget(&gp);
            let unit = UnitWeights::new(Tropical::new(1));
            let seq_n = naive_eval::<Tropical, _>(&gp, &unit, budget);
            let seq_s = semi_naive_eval::<Tropical, _>(&gp, &unit, budget);
            for threads in [2usize, 4] {
                let par_n = par_naive_eval::<Tropical, _>(&gp, &unit, budget, threads);
                assert_eq!(seq_n.values, par_n.values, "naive t={threads} seed={seed}");
                assert_eq!(seq_n.iterations, par_n.iterations);
                assert!(par_n.converged);
                let par_s = par_semi_naive_eval::<Tropical, _>(&gp, &unit, budget, threads);
                assert_eq!(seq_s.values, par_s.values, "semi t={threads} seed={seed}");
                assert!(par_s.converged);
            }
        }
    }

    #[test]
    fn parallel_counting_falls_back_to_sharded_naive() {
        // Counting on a DAG: the parallel semi-naive entry point must route
        // through (sharded) naive and agree exactly with the sequential run.
        let mut g = graphgen::LabeledDigraph::new(4);
        g.add_edge(0, 1, "E");
        g.add_edge(0, 2, "E");
        g.add_edge(1, 3, "E");
        g.add_edge(2, 3, "E");
        let (_, _, gp) = tc_on(&g);
        let unit = UnitWeights::new(Counting::new(1));
        let seq = naive_eval::<Counting, _>(&gp, &unit, 20);
        let par = par_semi_naive_eval::<Counting, _>(&gp, &unit, 20, 4);
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(par.strategy, EvalStrategy::Naive);
    }

    #[test]
    fn strategy_dispatch_routes_both_ways() {
        let g = generators::gnm(7, 16, &["E"], 2);
        let (_, _, gp) = tc_on(&g);
        let budget = default_budget(&gp);
        let unit = UnitWeights::new(Tropical::new(1));
        let naive = eval_with_strategy::<Tropical, _>(EvalStrategy::Naive, &gp, &unit, budget);
        let semi = eval_with_strategy::<Tropical, _>(EvalStrategy::SemiNaive, &gp, &unit, budget);
        assert_eq!(naive.values, semi.values);
        assert_eq!(EvalStrategy::default(), EvalStrategy::SemiNaive);
    }

    #[test]
    fn bounded_program_converges_in_constant_iterations() {
        // Example 4.2: T(x,y) :- E(x,y); T(x,y) :- A(x), T(z,y) — bounded.
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- A(X), T(Z,Y).").unwrap();
        for n in [3usize, 6, 10] {
            let g = generators::path(n, "E");
            let (mut db, _) = Database::from_graph(&mut p, &g);
            let a = p.preds.get("A").unwrap();
            let v0 = db.node_const(0).unwrap();
            db.insert(a, vec![v0]);
            let gp = ground(&p, &db).unwrap();
            let out = eval_all_ones::<Bool>(&gp, default_budget(&gp));
            assert!(out.converged);
            assert!(
                out.iterations <= 4,
                "bounded program took {} iterations at n={n}",
                out.iterations
            );
        }
    }

    #[test]
    fn unbounded_tc_iterations_grow_with_input() {
        let mut iters = Vec::new();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let (_, _, gp) = tc_on(&g);
            let out = eval_all_ones::<Bool>(&gp, default_budget(&gp));
            assert!(out.converged);
            iters.push(out.iterations);
        }
        assert!(iters[0] < iters[1] && iters[1] < iters[2]);
    }
}
