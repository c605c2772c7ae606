//! Grounding: from a program and database to the grounded program
//! (paper §2.1), the shared input of naive evaluation and of every circuit
//! construction (Theorems 3.1, 4.3, 6.2).
//!
//! Grounding is **one pass**: a semi-naive Boolean fixpoint discovers the
//! derivable IDB facts and records every grounded rule on the way. Round
//! 0 runs the full join of every rule against the empty IDB relation
//! (only all-EDB bodies can match); round r > 0 re-fires each rule once
//! per IDB body position, pinned to the facts first derived in round
//! r − 1 (the *delta frontier*), with IDB atoms left of the pinned
//! position restricted to older facts. Every grounding whose body holds
//! in EDB ∪ derivable-IDB is therefore enumerated exactly once — in the
//! round after its newest body fact appeared, at the first body position
//! holding such a fact — and recording it right there *is* the grounding:
//! nothing is enumerated a second time against the completed fact set.
//!
//! Joins go through per-predicate **hash indices**: for every
//! `(predicate, bound argument positions)` pair some rule probes, facts are
//! keyed by their projection onto those positions (the private
//! `JoinIndices`). A body atom whose prefix has already bound `k` of its
//! arguments is matched by one hash lookup over exactly the candidate
//! facts agreeing on those arguments — not by scanning the full relation.
//! Because derivable facts are appended round by round, the delta frontier
//! is a contiguous index range and a binary search restricts any index
//! bucket to it.
//!
//! Delta joins are **frontier-driven**: the pinned atom iterates the
//! frontier facts of its predicate *outermost* (ascending fact index),
//! with the rest of the body joined per frontier fact through the shared
//! indices. That ordering is what makes a round shardable: the frontier
//! range splits into contiguous sub-ranges evaluated on scoped threads
//! against the read-only indices, and concatenating the task outputs in
//! task order replays the sequential enumeration exactly.
//!
//! **Recording and the round merge.** Each discovery task records its
//! groundings into a *fragment*, a [`CompactRules`] of its own: the
//! program-rule index, the head, and the IDB and EDB body ids in
//! body-atom order. A head already interned when the round began is
//! stored as its fact index; any other head is deduplicated within the
//! task and stored as an index into the task's new-head list, so a head
//! matched many times allocates its tuple once. The serial round merge
//! then interns each fragment's new heads in task order — the sequential
//! first-discovery order, so `FactId`s (and hence the Theorem 4.3
//! layering probe) are **bit-identical whatever the thread count**
//! ([`ground`]) — and appends the fragment to
//! [`GroundedProgram::rules`], rebasing its body offsets and resolving
//! its pending heads through the interning result. Delta grounding
//! ([`extend_grounding`]) drives the same rounds from a seed round over
//! inserted facts.
//!
//! **Rule order.** Grounded rules are numbered in *discovery order*:
//! round by round, task order within a round, enumeration order within a
//! task. Earlier releases numbered them rule-major, from a second
//! enumeration phase that re-ran every join against the completed fact
//! set. The rule *set*, every `FactId`, and every fixpoint value are
//! unchanged; what is keyed on rule ids can differ — e.g. the summand
//! order of a grounded circuit's ⊕-gates, and with it hash-consing.
//!
//! Note on cross-version stability: hoisting the delta atom changed the
//! *discovery order* relative to releases before it for rules whose
//! recursive atom is not the first body atom (the derived fact *set*,
//! values, and probes are unchanged — only which `FactId` a fact happens
//! to get). `FactId`s and rule ids are per-run artifacts, not stable
//! identifiers across versions; within a version they are deterministic
//! and thread-count-independent, which is the invariant everything
//! downstream (circuit sharing, provenance variable numbering, caches)
//! actually relies on.
//!
//! Restricting to derivable facts keeps the grounded program — and hence
//! every circuit built from it — free of dead gates.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use provcirc_error::Error;
use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ast::{Atom, Program, Rule, Term};
use crate::csr::{CompactRules, FactRules, PENDING_HEAD};
use crate::database::{Database, FactId};
use crate::fxhash::FxHashMap;
use crate::symbols::{ConstId, PredId, VarSym};

/// The grounded program.
#[derive(Clone, Debug, Default)]
pub struct GroundedProgram {
    /// All derivable IDB facts.
    pub idb_facts: Vec<(PredId, Vec<ConstId>)>,
    /// Index from fact to its position in `idb_facts`, grouped by
    /// predicate so a lookup can probe with a borrowed `&[ConstId]`
    /// (`Vec<ConstId>: Borrow<[ConstId]>`) instead of cloning the tuple
    /// into a composite key — [`fact`] sits on the per-grounding hot path
    /// of grounding.
    ///
    /// [`fact`]: GroundedProgram::fact
    pub fact_index: FxHashMap<PredId, FxHashMap<Vec<ConstId>, usize>>,
    /// All grounded rules, in discovery order (see the module docs).
    pub rules: CompactRules,
    /// For each IDB fact, the grounded rules deriving it:
    /// `rules_by_head.of(i)`, ascending. Like [`dependents`], a CSR index
    /// rebuilt by one counting sort wherever `rules` changes — when
    /// grounding finishes and after every delta
    /// ([`extend_grounding`], [`retract_facts_from_grounding`]).
    ///
    /// [`dependents`]: GroundedProgram::dependents
    pub rules_by_head: FactRules,
    /// For each IDB fact, the grounded rules citing it in their body:
    /// `dependents.of(i)`, ascending, each rule once even when its body
    /// repeats the fact. The edges semi-naive evaluation and incremental
    /// repair propagate value changes along, and the upward closure that
    /// defines a retraction's cone.
    pub dependents: FactRules,
    /// Derivable facts grouped by predicate, each group in `idb_facts`
    /// order — maintained during grounding so [`facts_of`] is a lookup,
    /// not a scan.
    ///
    /// [`facts_of`]: GroundedProgram::facts_of
    pub facts_by_pred: FxHashMap<PredId, Vec<usize>>,
}

impl GroundedProgram {
    /// Number of derivable IDB facts.
    pub fn num_idb_facts(&self) -> usize {
        self.idb_facts.len()
    }

    /// The index of a derivable IDB fact. Allocation-free: probes the
    /// per-predicate map with the borrowed tuple.
    pub fn fact(&self, pred: PredId, tuple: &[ConstId]) -> Option<usize> {
        self.fact_index.get(&pred)?.get(tuple).copied()
    }

    /// Indices of derivable facts of a predicate, in `idb_facts` order.
    ///
    /// O(1): served from the per-predicate index built during grounding
    /// (it used to be an O(#facts) scan per call, which made the grounding
    /// join quadratic on large instances).
    pub fn facts_of(&self, pred: PredId) -> &[usize] {
        self.facts_by_pred.get(&pred).map_or(&[][..], Vec::as_slice)
    }

    /// Total size of the grounded program (the `M` of Theorem 4.3's size
    /// analysis): grounded rules plus their body atoms.
    pub fn size(&self) -> usize {
        self.rules.len() + self.rules.body_len()
    }

    /// Intern a derivable fact, keeping `fact_index` and `facts_by_pred`
    /// coherent. Returns its index.
    fn intern_fact(&mut self, pred: PredId, tuple: Vec<ConstId>) -> usize {
        let by_pred = self.fact_index.entry(pred).or_default();
        if let Some(&i) = by_pred.get(&tuple) {
            return i;
        }
        let i = self.idb_facts.len();
        by_pred.insert(tuple.clone(), i);
        self.facts_by_pred.entry(pred).or_default().push(i);
        self.idb_facts.push((pred, tuple));
        i
    }

    /// Rebuild [`rules_by_head`] and [`dependents`] from `rules`: one
    /// counting sort each, reusing their buffers.
    ///
    /// [`rules_by_head`]: GroundedProgram::rules_by_head
    /// [`dependents`]: GroundedProgram::dependents
    fn index_rules(&mut self) {
        let (n, rules) = (self.idb_facts.len(), &self.rules);
        self.rules_by_head
            .rebuild(n, rules.len(), |r| std::iter::once(rules.head(r)));
        self.dependents.rebuild(n, rules.len(), |r| {
            // Bodies are tiny: a quadratic dedup beats sorting a copy.
            let body = rules.body_idb(r);
            body.iter()
                .enumerate()
                .filter(move |&(k, i)| !body[..k].contains(i))
                .map(|(_, &i)| i as usize)
        });
    }
}

/// A match target during joins: either an IDB fact index or an EDB fact id.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BodyMatch {
    /// Index into [`GroundedProgram::idb_facts`].
    Idb(usize),
    /// EDB fact id (a provenance variable).
    Edb(FactId),
}

/// Statically computed join plan of one rule, for the fixed left-to-right
/// body order: which argument positions of each body atom are already
/// bound (constants, or variables bound by an earlier atom) when the
/// matcher reaches it — the probe key of the hash index at that position.
struct RulePlan {
    /// Per body position: the pre-bound argument positions, ascending.
    bound: Vec<Vec<usize>>,
    /// Per body position: slot of the shared index in [`JoinIndices`].
    slot: Vec<usize>,
    /// Body positions holding IDB atoms (delta-constraint candidates).
    idb_positions: Vec<usize>,
    /// A constant in the rule names nothing in the active domain: the rule
    /// can never fire over this database and is skipped wholesale.
    dead: bool,
}

fn plan_rule(
    rule: &Rule,
    idbs: &HashSet<PredId>,
    const_map: &[Option<ConstId>],
    slots: &mut SlotInterner,
) -> RulePlan {
    let mut dead = rule
        .head
        .terms
        .iter()
        .any(|t| matches!(t, Term::Const(c) if const_map[*c as usize].is_none()));
    let mut bound_vars: HashSet<VarSym> = HashSet::new();
    let mut bound = Vec::with_capacity(rule.body.len());
    let mut slot = Vec::with_capacity(rule.body.len());
    let mut idb_positions = Vec::new();
    for (pos, atom) in rule.body.iter().enumerate() {
        let mut pre_bound = Vec::new();
        for (p, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if const_map[*c as usize].is_none() {
                        dead = true;
                    }
                    pre_bound.push(p);
                }
                Term::Var(v) => {
                    if bound_vars.contains(v) {
                        pre_bound.push(p);
                    }
                }
            }
        }
        for term in &atom.terms {
            if let Term::Var(v) = term {
                bound_vars.insert(*v);
            }
        }
        let is_idb = idbs.contains(&atom.pred);
        if is_idb {
            idb_positions.push(pos);
        }
        slot.push(slots.intern(atom.pred, &pre_bound, is_idb));
        bound.push(pre_bound);
    }
    RulePlan {
        bound,
        slot,
        idb_positions,
        dead,
    }
}

/// Join plan of one rule with its IDB atom at body position `dpos` pinned
/// to the delta frontier and **hoisted to the outermost loop**: the
/// frontier facts of that predicate are iterated directly (ascending fact
/// index), and the remaining atoms are joined per frontier fact, in their
/// original body order, with bound-position sets recomputed for the new
/// variable-binding order.
struct DeltaPlan {
    /// Body position of the delta atom.
    dpos: usize,
    /// Remaining body positions, original order, `dpos` excluded.
    rest: Vec<usize>,
    /// Per rest-atom: pre-bound argument positions under the hoisted order.
    bound: Vec<Vec<usize>>,
    /// Per rest-atom: slot of the shared index in [`JoinIndices`].
    slot: Vec<usize>,
}

fn plan_delta(
    rule: &Rule,
    dpos: usize,
    idbs: &HashSet<PredId>,
    slots: &mut SlotInterner,
) -> DeltaPlan {
    let mut bound_vars: HashSet<VarSym> = HashSet::new();
    for term in &rule.body[dpos].terms {
        if let Term::Var(v) = term {
            bound_vars.insert(*v);
        }
    }
    let mut rest = Vec::with_capacity(rule.body.len() - 1);
    let mut bound = Vec::with_capacity(rule.body.len() - 1);
    let mut slot = Vec::with_capacity(rule.body.len() - 1);
    for (pos, atom) in rule.body.iter().enumerate() {
        if pos == dpos {
            continue;
        }
        let mut pre_bound = Vec::new();
        for (p, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(_) => pre_bound.push(p),
                Term::Var(v) => {
                    if bound_vars.contains(v) {
                        pre_bound.push(p);
                    }
                }
            }
        }
        for term in &atom.terms {
            if let Term::Var(v) = term {
                bound_vars.insert(*v);
            }
        }
        slot.push(slots.intern(atom.pred, &pre_bound, idbs.contains(&atom.pred)));
        bound.push(pre_bound);
        rest.push(pos);
    }
    DeltaPlan {
        dpos,
        rest,
        bound,
        slot,
    }
}

/// Interner mapping `(predicate, bound positions)` to an index slot shared
/// across all rules probing the same relation the same way.
#[derive(Default)]
struct SlotInterner {
    by_key: HashMap<(PredId, Vec<usize>), usize>,
    /// Per slot: predicate, bound positions, and whether it indexes IDB.
    specs: Vec<(PredId, Vec<usize>, bool)>,
}

impl SlotInterner {
    fn intern(&mut self, pred: PredId, positions: &[usize], is_idb: bool) -> usize {
        *self
            .by_key
            .entry((pred, positions.to_vec()))
            .or_insert_with(|| {
                self.specs.push((pred, positions.to_vec(), is_idb));
                self.specs.len() - 1
            })
    }
}

/// The hash join indices of one program over one database: one index
/// per interned `(predicate, bound positions)` slot. EDB slots are filled
/// from the database and follow its inserts and retractions; IDB slots
/// grow after every semi-naive round.
struct JoinIndices {
    /// Per slot: projection key → matching facts (IDB fact indices or EDB
    /// fact ids, ascending — insertion order).
    maps: Vec<FxHashMap<Vec<ConstId>, Vec<usize>>>,
    /// Per slot: the projected positions (copied out of the interner).
    positions: Vec<Vec<usize>>,
    /// IDB slot numbers grouped by predicate, so extending with a new fact
    /// touches only its own predicate's slots.
    idb_slots_by_pred: FxHashMap<PredId, Vec<usize>>,
    /// EDB slot numbers grouped by predicate, likewise.
    edb_slots_by_pred: FxHashMap<PredId, Vec<usize>>,
    /// Number of `idb_facts` already folded into the IDB slots.
    idb_upto: usize,
    /// EDB fact ids below this are folded into the EDB slots.
    edb_upto: usize,
}

/// The projection of `tuple` onto `positions` into a reused key buffer,
/// or `false` when the tuple is too short to have them.
fn project(tuple: &[ConstId], positions: &[usize], key: &mut Vec<ConstId>) -> bool {
    key.clear();
    key.extend(positions.iter().filter_map(|&p| tuple.get(p).copied()));
    key.len() == positions.len()
}

/// Append fact `id` to the bucket of `key` (allocating the key only for
/// a new bucket).
fn file(map: &mut FxHashMap<Vec<ConstId>, Vec<usize>>, key: &[ConstId], id: usize) {
    match map.get_mut(key) {
        Some(bucket) => bucket.push(id),
        None => {
            map.insert(key.to_vec(), vec![id]);
        }
    }
}

impl JoinIndices {
    fn build(slots: &SlotInterner, db: &Database) -> Self {
        let mut idx = JoinIndices {
            maps: vec![FxHashMap::default(); slots.specs.len()],
            positions: slots.specs.iter().map(|(_, pos, _)| pos.clone()).collect(),
            idb_slots_by_pred: FxHashMap::default(),
            edb_slots_by_pred: FxHashMap::default(),
            idb_upto: 0,
            edb_upto: 0,
        };
        for (slot, (pred, _, idb)) in slots.specs.iter().enumerate() {
            let by_pred = if *idb {
                &mut idx.idb_slots_by_pred
            } else {
                &mut idx.edb_slots_by_pred
            };
            by_pred.entry(*pred).or_default().push(slot);
        }
        idx.extend_edb(db);
        idx
    }

    /// Fold the facts appended since the last call into the IDB slots of
    /// their predicate.
    fn extend_idb(&mut self, gp: &GroundedProgram) {
        let mut key = Vec::new();
        for i in self.idb_upto..gp.idb_facts.len() {
            let (pred, tuple) = &gp.idb_facts[i];
            let Some(slots) = self.idb_slots_by_pred.get(pred) else {
                continue;
            };
            for &slot in slots {
                if project(tuple, &self.positions[slot], &mut key) {
                    file(&mut self.maps[slot], &key, i);
                }
            }
        }
        self.idb_upto = gp.idb_facts.len();
    }

    /// Fold the live EDB facts inserted since the last call into the EDB
    /// slots of their predicate (ids only grow, so buckets stay
    /// ascending).
    fn extend_edb(&mut self, db: &Database) {
        let mut key = Vec::new();
        for (&pred, slots) in &self.edb_slots_by_pred {
            let facts = db.facts_of(pred);
            let from = facts.partition_point(|&f| (f as usize) < self.edb_upto);
            for &fid in &facts[from..] {
                let tuple = db.fact(fid).1;
                for &slot in slots {
                    if project(tuple, &self.positions[slot], &mut key) {
                        file(&mut self.maps[slot], &key, fid as usize);
                    }
                }
            }
        }
        self.edb_upto = db.num_facts();
    }

    /// Drop retracted EDB fact ids from their slots (the tuples stay
    /// readable in the database after a retraction).
    fn remove_edb(&mut self, db: &Database, retracted: &[FactId]) {
        let mut key = Vec::new();
        for &fid in retracted {
            let (pred, tuple) = db.fact(fid);
            let Some(slots) = self.edb_slots_by_pred.get(&pred) else {
                continue;
            };
            for &slot in slots {
                if !project(tuple, &self.positions[slot], &mut key) {
                    continue;
                }
                let Some(bucket) = self.maps[slot].get_mut(key.as_slice()) else {
                    continue;
                };
                if let Ok(k) = bucket.binary_search(&(fid as usize)) {
                    bucket.remove(k);
                }
                if bucket.is_empty() {
                    self.maps[slot].remove(key.as_slice());
                }
            }
        }
    }
}

/// The join plans and hash indices grounding probes, for one program over
/// one database: per rule a join plan (plus a hoisted delta plan per IDB
/// body position), the program's constants resolved into the
/// database's domain, and the shared per-slot hash indices.
///
/// Full grounding builds one per run. Delta grounding
/// ([`extend_grounding`]) probes one that its caller **keeps between
/// writes**: build it with [`GroundingIndex::new`] over the grounding and
/// the database *before* the first delta, then pass it to every
/// [`extend_grounding`] call — each folds in just the inserted EDB facts
/// and the newly derived IDB facts — and report every retraction through
/// [`GroundingIndex::retract`]. When an insert revives a rule (a constant
/// it names enters the domain), `extend_grounding` rebuilds the index.
/// An index must be dropped with the grounding it follows.
pub struct GroundingIndex {
    idbs: HashSet<PredId>,
    const_map: Vec<Option<ConstId>>,
    plans: Vec<RulePlan>,
    delta_plans: Vec<Vec<DeltaPlan>>,
    /// Per rule: one hoisted plan per EDB body position, pinned to the
    /// inserted facts in a delta's seed round. Empty in indices built
    /// for a full grounding, so those maintain no slot that only the
    /// seed round probes.
    seed_plans: Vec<Vec<DeltaPlan>>,
    indices: JoinIndices,
}

impl std::fmt::Debug for GroundingIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroundingIndex")
            .field("rules", &self.plans.len())
            .field("slots", &self.indices.maps.len())
            .field("idb_upto", &self.indices.idb_upto)
            .field("edb_upto", &self.indices.edb_upto)
            .finish_non_exhaustive()
    }
}

/// The program's constants resolved into the database's domain; a rule
/// naming a constant outside the active domain can never fire.
fn resolve_consts(program: &Program, db: &Database) -> Vec<Option<ConstId>> {
    (0..program.consts.len() as u32)
        .map(|c| db.consts.get(program.consts.name(c)))
        .collect()
}

impl GroundingIndex {
    /// The index of `program` over `db` with `gp`'s IDB facts folded in —
    /// the starting point of delta grounding. `db` must be the database
    /// `gp` was grounded against (the state before the next delta).
    pub fn new(program: &Program, db: &Database, gp: &GroundedProgram) -> Result<Self, Error> {
        let mut index = GroundingIndex::build(program, db, true)?;
        index.indices.extend_idb(gp);
        Ok(index)
    }

    /// Validate the program, plan every rule (with the delta seed plans
    /// when `seeds`), and fill the EDB slots.
    fn build(program: &Program, db: &Database, seeds: bool) -> Result<Self, Error> {
        program.validate()?;
        let idbs = program.idbs();
        let const_map = resolve_consts(program, db);
        let mut slots = SlotInterner::default();
        let plans: Vec<RulePlan> = program
            .rules
            .iter()
            .map(|r| plan_rule(r, &idbs, &const_map, &mut slots))
            .collect();
        let delta_plans: Vec<Vec<DeltaPlan>> = program
            .rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| {
                if plans[ri].dead {
                    return Vec::new();
                }
                plans[ri]
                    .idb_positions
                    .iter()
                    .map(|&dpos| plan_delta(rule, dpos, &idbs, &mut slots))
                    .collect()
            })
            .collect();
        let seed_plans: Vec<Vec<DeltaPlan>> = program
            .rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| {
                if !seeds || plans[ri].dead {
                    return Vec::new();
                }
                (0..rule.body.len())
                    .filter(|&pos| !idbs.contains(&rule.body[pos].pred))
                    .map(|pos| plan_delta(rule, pos, &idbs, &mut slots))
                    .collect()
            })
            .collect();
        let indices = JoinIndices::build(&slots, db);
        Ok(GroundingIndex {
            idbs,
            const_map,
            plans,
            delta_plans,
            seed_plans,
            indices,
        })
    }

    /// Drop retracted EDB facts from the indices — the index-side mirror
    /// of [`retract_facts_from_grounding`]. Call it after
    /// `Database::retract` (the retracted tuples stay readable by id).
    pub fn retract(&mut self, db: &Database, retracted: &[FactId]) {
        self.indices.remove_edb(db, retracted);
    }
}

/// How a grounding-based algorithm runs: on how many worker threads,
/// under which grounded-rule cap, reporting into which telemetry
/// [`Recorder`]. The [`Default`] is the exact sequential run with no cap
/// and the no-op recorder.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    /// Worker threads the join enumeration may shard across; `<= 1`
    /// spawns nothing and is the exact sequential code path.
    pub threads: usize,
    /// Fail with [`Error::GroundingLimit`] past this many grounded rules
    /// (`usize::MAX` for no limit).
    pub max_rules: usize,
    /// Where spans, rounds, counters and shard stats go.
    pub rec: &'a dyn Recorder,
}

impl Default for Exec<'_> {
    fn default() -> Self {
        Exec {
            threads: 1,
            max_rules: usize::MAX,
            rec: &NOOP,
        }
    }
}

/// Ground `program` against `db` with the join work sharded across
/// `exec.threads` scoped threads, failing with [`Error::GroundingLimit`]
/// if the grounding would exceed `exec.max_rules` grounded rules, and
/// reporting into `exec.rec`.
///
/// Each round's delta joins split the frontier fact range into
/// contiguous steal-granularity chunks probed concurrently against the
/// (read-only, shared) per-predicate hash indices, each recording into a
/// fragment of its own. Uneven tasks are load-balanced by work stealing
/// (`crate::par`), which only changes which worker executes a task, never
/// the task order, and the round merge consumes the fragments in task
/// order — so the resulting [`GroundedProgram`] (fact order, `FactId`s,
/// grounded-rule order) is **bit-identical** to the sequential run
/// whatever the thread count. `threads <= 1` spawns nothing and is the
/// exact sequential code path.
///
/// The rule cap is enforced during discovery: every recorded grounding
/// is counted in one counter shared by all tasks, which stop enumerating
/// as soon as the count passes the cap.
///
/// Telemetry: one [`Stage::GroundPhase1`] span for the whole one-pass
/// grounding, one [`RoundStats`] per semi-naive round (frontier size,
/// facts discovered, index probes, next-frontier worklist), the
/// [`Counter::IndexProbes`] / [`Counter::FactsDiscovered`] /
/// [`Counter::GroundMergeNanos`] totals, and per-worker shard stats
/// (`produced` counts recorded groundings). With a disabled recorder
/// (e.g. [`NOOP`]) no clock is read and no probe is counted: the join
/// loops pay one predictable never-taken branch and the result is
/// bit-identical either way.
pub fn ground(program: &Program, db: &Database, exec: &Exec) -> Result<GroundedProgram, Error> {
    let rec = exec.rec;
    let enabled = rec.enabled();
    let span = enabled.then(std::time::Instant::now);
    let mut index = GroundingIndex::build(program, db, false)?;
    let mut g = Grounder::new(program, db, &mut index, enabled);
    let cap = RuleCap::new(exec.max_rules);
    let mut gp = GroundedProgram::default();
    // `None` is round 0; `Some(d)` re-fires over the frontier `[d, len)`.
    let mut delta_start: Option<usize> = None;
    let mut round = 0u64;
    loop {
        let len_before = gp.num_idb_facts();
        let frontier = delta_start.map_or(0, |d| len_before - d);
        let tasks = g.tasks(&gp, delta_start, exec.threads);
        let start = delta_start.unwrap_or(0);
        let fragments = g.discover(&gp, &tasks, start, exec, Stage::GroundPhase1, &cap);
        cap.check()?;
        // Round merge, then fold the round's facts into the join indices.
        let merge_start = enabled.then(std::time::Instant::now);
        let probes = merge_fragments(&mut gp, fragments);
        let delta = gp.num_idb_facts() - len_before;
        if delta > 0 {
            g.extend_indices(&gp);
        }
        if let Some(t) = merge_start {
            rec.counter(Counter::GroundMergeNanos, t.elapsed().as_nanos() as u64);
            rec.counter(Counter::IndexProbes, probes);
            rec.counter(Counter::FactsDiscovered, delta as u64);
            rec.round(
                Stage::GroundPhase1,
                RoundStats {
                    round,
                    frontier: frontier as u64,
                    delta: delta as u64,
                    probes,
                    firings: 0,
                    worklist: delta as u64,
                },
            );
        }
        round += 1;
        if delta == 0 {
            break;
        }
        delta_start = Some(len_before);
    }
    gp.index_rules();
    if let Some(t) = span {
        rec.stage_nanos(Stage::GroundPhase1, t.elapsed().as_nanos() as u64);
    }
    Ok(gp)
}

/// The round merge: intern each fragment's new heads in task order (the
/// sequential first-discovery order) and append the fragment with its
/// pending heads resolved. Returns the fragments' index probes.
fn merge_fragments(gp: &mut GroundedProgram, fragments: Vec<Fragment>) -> u64 {
    let mut probes = 0;
    for frag in fragments {
        probes += frag.probes;
        let ids: Vec<u32> = frag
            .new_heads
            .into_iter()
            .map(|tuple| gp.intern_fact(frag.head_pred, tuple) as u32)
            .collect();
        gp.rules.append(&frag.rules, &ids);
    }
    probes
}

/// Extend a grounded program **in place** with the consequences of the
/// EDB facts inserted since `index` last saw the database — the
/// incremental alternative to re-grounding from scratch.
///
/// `gp` must be the grounding of `program` against `db` *minus* the new
/// facts (tombstoned retractions are fine: they no longer join), and
/// `index` the [`GroundingIndex`] kept alongside it: built by
/// [`GroundingIndex::new`] before the first delta and passed to every
/// delta since. The new facts are the live ones with ids at or above the
/// index's EDB watermark; the pass folds them into the index first. A
/// rule that was dead under the index's domain (it names a constant the
/// database did not know) and is live now is *revived*: the index is
/// rebuilt over the current database and the rule is enumerated in full.
///
/// Delta grounding runs the rounds of full grounding, recording every
/// grounding as it is enumerated (no second enumeration pass):
/// 1. **Seed** — each live rule is re-fired once per EDB body position
///    whose predicate gained facts, that atom hoisted outermost and
///    pinned to the new facts, earlier EDB positions to old ones (see
///    `Matcher::enumerate_seed`); revived rules run their full join. IDB
///    atoms see the old facts only, since none is new yet.
/// 2. **Frontier rounds** — the usual semi-naive rounds over the newly
///    derived IDB facts, which are *appended* to `gp.idb_facts` (existing
///    fact indices never move).
///
/// Every grounding with at least one new body fact is recorded exactly
/// once: in the seed if all its IDB facts are old (at its first new EDB
/// position), otherwise in the round after its newest IDB fact appeared.
/// The groundings are appended to `gp.rules` in discovery order, and
/// `rules_by_head` / `dependents` are rebuilt once. The union of old and
/// appended rules is exactly the full re-grounding of the current
/// database *plus* any rules whose body references a fact left
/// underivable by earlier retractions — those bodies evaluate to `0`,
/// so they are ⊕-neutral in every fixpoint (the "zombie" invariant of
/// [`retract_facts_from_grounding`]).
///
/// Runs sequentially whatever `exec.threads` says (deltas are small by
/// design; the full-ground path stays the parallel one) and reports one
/// [`Stage::DeltaGround`] span plus [`Counter::FactsDiscovered`] /
/// [`Counter::IndexProbes`] / [`Counter::InsertRulesAppended`] into
/// `exec.rec`. Fails with [`Error::GroundingLimit`] when the extended
/// program would exceed `exec.max_rules`; `gp` and `index` are left
/// partially extended and must be discarded by the caller (the `Engine`
/// falls back to lazy re-grounding).
pub fn extend_grounding(
    program: &Program,
    db: &Database,
    gp: &mut GroundedProgram,
    index: &mut GroundingIndex,
    exec: &Exec,
) -> Result<(), Error> {
    let (max_rules, rec) = (exec.max_rules, exec.rec);
    let enabled = rec.enabled();
    let span_start = enabled.then(std::time::Instant::now);
    let edb_start = index.indices.edb_upto;
    // Revival: a constant the index could not resolve is in the domain
    // now. Constant ids never change once interned, so comparing the
    // resolved maps detects exactly that.
    let const_map = resolve_consts(program, db);
    let revived: Vec<bool> = if const_map == index.const_map {
        index.indices.extend_edb(db);
        vec![false; program.rules.len()]
    } else {
        let was_dead: Vec<bool> = index.plans.iter().map(|p| p.dead).collect();
        *index = GroundingIndex::new(program, db, gp)?;
        was_dead
            .iter()
            .zip(&index.plans)
            .map(|(&was, now)| was && !now.dead)
            .collect()
    };

    let base_rules = gp.rules.len();
    let idb_delta_start = gp.num_idb_facts();
    let cap = RuleCap::new(if max_rules == usize::MAX {
        usize::MAX
    } else {
        max_rules.saturating_sub(base_rules)
    });
    let mut g = Grounder::new(program, db, index, enabled);
    let mut tasks = g.seed_tasks(edb_start, &revived);
    let mut delta_start = idb_delta_start;
    let mut probes = 0u64;
    // Shard stats stay with full grounding: discovery runs on the
    // sequential, unrecorded default context.
    let seq = Exec::default();
    loop {
        let fragments = g.discover(gp, &tasks, delta_start, &seq, Stage::DeltaGround, &cap);
        if cap.exceeded() {
            return Err(Error::GroundingLimit { max_rules });
        }
        let len_before = gp.num_idb_facts();
        probes += merge_fragments(gp, fragments);
        if gp.num_idb_facts() == len_before {
            break;
        }
        g.extend_indices(gp);
        delta_start = len_before;
        tasks = g.tasks(gp, Some(delta_start), 1);
    }
    gp.index_rules();
    if enabled {
        rec.counter(Counter::IndexProbes, probes);
        rec.counter(
            Counter::FactsDiscovered,
            (gp.num_idb_facts() - idb_delta_start) as u64,
        );
        rec.counter(
            Counter::InsertRulesAppended,
            (gp.rules.len() - base_rules) as u64,
        );
    }
    if let Some(t) = span_start {
        rec.stage_nanos(Stage::DeltaGround, t.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Remove — in place, in one pass — every grounded rule whose EDB body
/// references one of the `retracted` fact ids, renumbering the survivors
/// (relative order kept) and rebuilding `rules_by_head` and `dependents`.
/// Returns the head fact indices of the removed rules, deduplicated and
/// ascending: the roots of the DRed cone that [`incremental`-style value
/// maintenance][r] must rederive. A caller keeping a [`GroundingIndex`]
/// reports the same facts to [`GroundingIndex::retract`].
///
/// Derivable facts are **not** removed, even when the retraction leaves
/// them underivable: deleting a fact index would renumber every index
/// after it (invalidating circuits, provenance variables, and cached
/// values wholesale — the very thing incremental maintenance avoids).
/// Instead an underivable fact stays as a *zombie*: it keeps its index,
/// rederivation drives its value to `0`, and any rule still referencing
/// it in a body contributes `0 ⊗ … = 0`, i.e. is ⊕-neutral in every
/// fixpoint on every semiring. Query results are therefore identical to
/// a from-scratch rebuild, which simply never derives the fact.
///
/// [r]: https://docs.rs/provcirc
pub fn retract_facts_from_grounding(gp: &mut GroundedProgram, retracted: &[FactId]) -> Vec<usize> {
    let mut dead = retracted.to_vec();
    dead.sort_unstable();
    let mut roots: Vec<usize> = Vec::new();
    gp.rules.retain(|_, head, edb| {
        let cites = edb.iter().any(|f| dead.binary_search(f).is_ok());
        if cites {
            roots.push(head);
        }
        !cites
    });
    roots.sort_unstable();
    roots.dedup();
    gp.index_rules();
    roots
}

/// Variable bindings of an in-progress body match. Rule bodies bind a
/// handful of variables, so a linear-scanned vector beats a hash map on
/// every operation, and binding is strictly stack-shaped (atoms bind on
/// descent, unbind on backtrack), so a checkpoint/truncate pair replaces
/// per-variable removal — no `newly_bound` allocation per matched atom.
#[derive(Default)]
struct Bindings(Vec<(VarSym, ConstId)>);

impl Bindings {
    #[inline]
    fn get(&self, v: VarSym) -> Option<ConstId> {
        self.0.iter().find(|&&(b, _)| b == v).map(|&(_, c)| c)
    }

    #[inline]
    fn push(&mut self, v: VarSym, c: ConstId) {
        self.0.push((v, c));
    }

    /// Checkpoint for a later [`truncate`](Bindings::truncate).
    #[inline]
    fn mark(&self) -> usize {
        self.0.len()
    }

    /// Drop every binding made since `mark` (bindings are stack-shaped).
    #[inline]
    fn truncate(&mut self, mark: usize) {
        self.0.truncate(mark);
    }
}

/// Callback invoked for every satisfying assignment of a rule body.
/// Returning [`ControlFlow::Break`] aborts the whole enumeration — how the
/// grounded-rule cap cuts a combinatorially exploding join off early
/// instead of enumerating it to completion with a no-op callback.
///
/// The enumeration methods are generic over the callback (monomorphized,
/// so the per-match invocation inlines) — with tens of millions of
/// matches per grounding run, a `dyn` indirection per match is
/// measurable.
trait OnMatch: FnMut(&Bindings, &[BodyMatch]) -> ControlFlow<()> {}
impl<F: FnMut(&Bindings, &[BodyMatch]) -> ControlFlow<()>> OnMatch for F {}

/// Which body atoms left of a [`DeltaPlan`]'s pinned atom must take an
/// *older* fact — one with index (IDB) or id (EDB) below the bound — so
/// that a grounding is enumerated at its first new position only.
#[derive(Clone, Copy)]
enum Older {
    /// IDB atoms: facts first derived before the frontier (semi-naive
    /// rounds).
    Idb(usize),
    /// EDB atoms: facts present before the delta (delta seed round).
    Edb(usize),
}

/// One rule's indexed join over EDB ∪ derivable-IDB.
struct Matcher<'a> {
    db: &'a Database,
    gp: &'a GroundedProgram,
    const_map: &'a [Option<ConstId>],
    rule: &'a Rule,
    plan: &'a RulePlan,
    idbs: &'a HashSet<PredId>,
    indices: &'a JoinIndices,
    /// Telemetry gate: when `false` (disabled recorder) the probe counter
    /// below is never touched — the hot join loop pays one predictable
    /// branch and nothing else.
    count_probes: bool,
    /// Index probes performed, counted per matcher (one matcher per work
    /// item, so the counter is thread-private by construction).
    probes: Cell<u64>,
}

impl Matcher<'_> {
    /// Count one hash-index probe (when telemetry is enabled).
    #[inline]
    fn probe(&self) {
        if self.count_probes {
            self.probes.set(self.probes.get() + 1);
        }
    }
    /// Enumerate all substitutions satisfying the rule's body in body
    /// order, invoking `on_match(bindings, per-atom matches)` — the full
    /// (delta-free) join used by round 0 and by revived rules. Stops as
    /// soon as the callback breaks.
    fn enumerate(&self, on_match: &mut impl OnMatch) {
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        let _ = self.recurse(0, &mut bindings, &mut matches, &mut key, on_match);
    }

    /// Enumerate the substitutions whose IDB atom at `dp.dpos` takes a
    /// frontier fact with index in `[lo, hi)` — the semi-naive re-fire of
    /// one rule at one delta position, restricted to one frontier shard.
    ///
    /// The delta atom iterates its predicate's facts in ascending index
    /// order **outermost**, so the enumeration order is keyed by frontier
    /// fact first: concatenating the outputs of consecutive `[lo, hi)`
    /// shards reproduces the full-frontier enumeration exactly. IDB atoms
    /// at body positions *before* `dp.dpos` are restricted to pre-frontier
    /// facts (`< delta_start`), so a grounding with several frontier facts
    /// is enumerated exactly once — at its first frontier position; later
    /// positions stay unrestricted.
    fn enumerate_delta(
        &self,
        dp: &DeltaPlan,
        delta_start: usize,
        lo: usize,
        hi: usize,
        on_match: &mut impl OnMatch,
    ) {
        let atom = &self.rule.body[dp.dpos];
        let facts = self.gp.facts_of(atom.pred);
        let from = facts.partition_point(|&i| i < lo.max(delta_start));
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        for &fi in &facts[from..] {
            if fi >= hi {
                break;
            }
            let tuple = &self.gp.idb_facts[fi].1;
            if let Some(mark) = self.bind_atom(atom, tuple, &mut bindings) {
                matches.push(BodyMatch::Idb(fi));
                let flow = self.recurse_rest(
                    dp,
                    0,
                    Older::Idb(delta_start),
                    &mut bindings,
                    &mut matches,
                    &mut key,
                    on_match,
                );
                matches.pop();
                bindings.truncate(mark);
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// Descend through the non-delta atoms of a [`DeltaPlan`] (original
    /// body order, delta atom excluded), restricting the atoms left of
    /// the delta atom as `older` says.
    #[allow(clippy::too_many_arguments)]
    fn recurse_rest(
        &self,
        dp: &DeltaPlan,
        k: usize,
        older: Older,
        bindings: &mut Bindings,
        matches: &mut Vec<BodyMatch>,
        key: &mut Vec<ConstId>,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        if k == dp.rest.len() {
            return on_match(bindings, matches);
        }
        let pos = dp.rest[k];
        let atom = &self.rule.body[pos];
        key.clear();
        key.extend(dp.bound[k].iter().map(|&p| match &atom.terms[p] {
            Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
            Term::Var(v) => bindings.get(*v).expect("pre-bound by plan"),
        }));
        self.probe();
        let Some(candidates) = self.indices.maps[dp.slot[k]].get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let is_idb = self.idbs.contains(&atom.pred);
        // Older-facts restriction left of the delta position (buckets are
        // ascending: the older facts are a prefix found by binary search).
        let (restricted, start) = match older {
            Older::Idb(start) => (is_idb, start),
            Older::Edb(start) => (!is_idb, start),
        };
        let to = if restricted && pos < dp.dpos {
            candidates.partition_point(|&i| i < start)
        } else {
            candidates.len()
        };
        for &c in &candidates[..to] {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, bindings) {
                matches.push(matched);
                let flow = self.recurse_rest(dp, k + 1, older, bindings, matches, key, on_match);
                matches.pop();
                bindings.truncate(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Enumerate the substitutions whose EDB atom at `sp.dpos` takes a
    /// fact **inserted** at id `>= edb_start`, while every EDB atom at an
    /// earlier position takes an older one (later positions are
    /// unrestricted) — a delta grounding's seed round. Summing over all
    /// EDB positions covers every body with at least one inserted fact,
    /// each exactly once: at its *first* inserted position. IDB atoms are
    /// never restricted: the seed runs before the delta derives any IDB
    /// fact, so every IDB fact it can see is old. As in
    /// [`enumerate_delta`](Matcher::enumerate_delta) the pinned atom is
    /// hoisted outermost, so the seed costs the inserted facts' joins,
    /// not a scan of the relations left of them.
    fn enumerate_seed(&self, sp: &DeltaPlan, edb_start: usize, on_match: &mut impl OnMatch) {
        let facts = self.db.facts_of(self.rule.body[sp.dpos].pred);
        let from = facts.partition_point(|&f| (f as usize) < edb_start);
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        for &fid in &facts[from..] {
            let tuple = self.db.fact(fid).1;
            if let Some(mark) = self.bind_atom(&self.rule.body[sp.dpos], tuple, &mut bindings) {
                matches.push(BodyMatch::Edb(fid));
                let flow = self.recurse_rest(
                    sp,
                    0,
                    Older::Edb(edb_start),
                    &mut bindings,
                    &mut matches,
                    &mut key,
                    on_match,
                );
                matches.pop();
                bindings.truncate(mark);
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    fn recurse(
        &self,
        pos: usize,
        bindings: &mut Bindings,
        matches: &mut Vec<BodyMatch>,
        key: &mut Vec<ConstId>,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        if pos == self.rule.body.len() {
            return on_match(bindings, matches);
        }
        let atom = &self.rule.body[pos];
        // Probe key: current bindings projected onto the pre-bound
        // positions of this atom (constants resolved statically). The
        // scratch buffer is reused across the whole enumeration — the key
        // is dead once the index probe returns, so deeper levels may
        // clobber it freely.
        key.clear();
        key.extend(self.plan.bound[pos].iter().map(|&p| match &atom.terms[p] {
            Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
            Term::Var(v) => bindings.get(*v).expect("pre-bound by plan"),
        }));
        self.probe();
        let Some(candidates) = self.indices.maps[self.plan.slot[pos]].get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let is_idb = self.idbs.contains(&atom.pred);
        for &c in candidates {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, bindings) {
                matches.push(matched);
                let flow = self.recurse(pos + 1, bindings, matches, key, on_match);
                matches.pop();
                bindings.truncate(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Check the residual positions the index could not pre-filter (fresh
    /// variables, within-atom repeats) and bind the fresh variables. On
    /// success returns the checkpoint to [`Bindings::truncate`] to after
    /// the caller's recursion; on a mismatch rolls back and returns
    /// `None`.
    fn bind_atom(&self, atom: &Atom, tuple: &[ConstId], bindings: &mut Bindings) -> Option<usize> {
        if tuple.len() != atom.terms.len() {
            return None;
        }
        let mark = bindings.mark();
        for (term, &value) in atom.terms.iter().zip(tuple) {
            let ok = match term {
                Term::Const(c) => self.const_map[*c as usize] == Some(value),
                Term::Var(v) => match bindings.get(*v) {
                    Some(bound) => bound == value,
                    None => {
                        bindings.push(*v, value);
                        true
                    }
                },
            };
            if !ok {
                bindings.truncate(mark);
                return None;
            }
        }
        Some(mark)
    }
}

/// Instantiate a rule head under `bindings` into a reused buffer —
/// grounding instantiates one head per enumerated grounding (millions per
/// run), so the per-call allocation is hoisted out; consumers copy the
/// slice only when the head turns out to be a brand-new fact.
fn instantiate_into(
    atom: &Atom,
    bindings: &Bindings,
    const_map: &[Option<ConstId>],
    out: &mut Vec<ConstId>,
) {
    out.clear();
    out.extend(atom.terms.iter().map(|t| match t {
        Term::Var(v) => bindings.get(*v).expect("head vars bound by safety"),
        Term::Const(c) => const_map[*c as usize].expect("dead rules are skipped"),
    }));
}

/// The `max_rules` budget of one grounding run, shared by all of its
/// discovery tasks. Every recorded grounding is counted exactly once, so
/// the count passing the cap is exact; tasks stop enumerating as soon as
/// any of them passes it, and tasks started afterwards do nothing.
struct RuleCap {
    max: usize,
    seen: AtomicUsize,
}

impl RuleCap {
    fn new(max: usize) -> Self {
        RuleCap {
            max,
            seen: AtomicUsize::new(0),
        }
    }

    /// Count one grounding; `false` once the run is past the cap. An
    /// unlimited cap touches no atomic.
    #[inline]
    fn admit(&self) -> bool {
        self.max == usize::MAX || self.seen.fetch_add(1, Relaxed) < self.max
    }

    fn exceeded(&self) -> bool {
        self.max != usize::MAX && self.seen.load(Relaxed) > self.max
    }

    /// [`Error::GroundingLimit`] once any grounding was refused.
    fn check(&self) -> Result<(), Error> {
        if self.exceeded() {
            Err(Error::GroundingLimit {
                max_rules: self.max,
            })
        } else {
            Ok(())
        }
    }
}

/// One discovery work item. A round's task list, in order, *is* the
/// sequential enumeration order.
#[derive(Clone, Copy, Debug)]
enum Task {
    /// Round 0 (or a revived rule's delta seed): the full join of rule
    /// `ri`.
    Full(usize),
    /// Round r > 0: rule `ri` with its `di`-th delta plan pinned to the
    /// frontier facts with index in `[lo, hi)`.
    Delta {
        ri: usize,
        di: usize,
        lo: usize,
        hi: usize,
    },
    /// A delta grounding's seed: rule `ri` with its `si`-th seed plan
    /// pinned to the inserted facts (ids `>= edb_start`), see
    /// [`Matcher::enumerate_seed`].
    Seed {
        ri: usize,
        si: usize,
        edb_start: usize,
    },
}

impl Task {
    fn rule(self) -> usize {
        match self {
            Task::Full(ri) | Task::Delta { ri, .. } | Task::Seed { ri, .. } => ri,
        }
    }
}

/// Consumer of enumerated groundings: `(rule index, head tuple, body
/// matches in body-atom order)`. The head tuple is borrowed from a
/// buffer the grounder reuses across calls; breaking stops the task's
/// enumeration.
trait GroundingSink: FnMut(usize, &[ConstId], &[BodyMatch]) -> ControlFlow<()> {}
impl<F: FnMut(usize, &[ConstId], &[BodyMatch]) -> ControlFlow<()>> GroundingSink for F {}

/// A delta join's matches — pinned atom first, then the rest in body
/// order — put back in body-atom order.
fn in_atom_order<'b>(
    dpos: usize,
    matches: &'b [BodyMatch],
    buf: &'b mut Vec<BodyMatch>,
) -> &'b [BodyMatch] {
    if dpos == 0 {
        return matches;
    }
    buf.clear();
    buf.extend_from_slice(&matches[1..=dpos]);
    buf.push(matches[0]);
    buf.extend_from_slice(&matches[dpos + 1..]);
    buf
}

/// One discovery task's groundings (see the module docs): a CSR rule
/// list whose heads are fact indices, or [`PENDING_HEAD`]-tagged indices
/// into `new_heads` for heads that were not interned when the round
/// began.
struct Fragment {
    rules: CompactRules,
    /// Predicate of every head: a task enumerates one program rule.
    head_pred: PredId,
    /// The task's distinct not-yet-interned head tuples, in
    /// first-discovery order.
    new_heads: Vec<Vec<ConstId>>,
    /// Index probes the task performed.
    probes: u64,
}

/// The semi-naive discovery machinery shared by [`ground`] and
/// [`extend_grounding`]: a program and a database, the
/// [`GroundingIndex`] probed against them, and the round task lists.
struct Grounder<'p> {
    program: &'p Program,
    db: &'p Database,
    index: &'p mut GroundingIndex,
    count_probes: bool,
}

impl<'p> Grounder<'p> {
    /// A grounder over `index`, which must have been built for `program`
    /// over `db`.
    fn new(
        program: &'p Program,
        db: &'p Database,
        index: &'p mut GroundingIndex,
        count_probes: bool,
    ) -> Self {
        Grounder {
            program,
            db,
            index,
            count_probes,
        }
    }

    fn matcher<'m>(&'m self, ri: usize, gp: &'m GroundedProgram) -> Matcher<'m> {
        Matcher {
            db: self.db,
            gp,
            const_map: &self.index.const_map,
            rule: &self.program.rules[ri],
            plan: &self.index.plans[ri],
            idbs: &self.index.idbs,
            indices: &self.index.indices,
            count_probes: self.count_probes,
            probes: Cell::new(0),
        }
    }

    /// The work items of one discovery round: with `delta_start = None`
    /// (round 0) one full join per live rule; otherwise one item per
    /// `(rule, delta position, frontier sub-range)` over the frontier
    /// `[delta_start, gp.idb_facts.len())`, in that lexicographic order.
    /// With `threads > 1` the ranges are steal-granularity chunks (more
    /// chunks than workers), so a skewed frontier does not serialize the
    /// round; the chunking never changes the concatenated enumeration.
    fn tasks(&self, gp: &GroundedProgram, delta_start: Option<usize>, threads: usize) -> Vec<Task> {
        let Some(start) = delta_start else {
            return (0..self.index.plans.len())
                .filter(|&ri| !self.index.plans[ri].dead)
                .map(Task::Full)
                .collect();
        };
        let len = gp.num_idb_facts() - start;
        let ranges = if threads <= 1 {
            crate::par::shard_bounds(len, 1)
        } else {
            crate::par::chunk_bounds(len, threads)
        };
        let mut tasks = Vec::new();
        for (ri, dps) in self.index.delta_plans.iter().enumerate() {
            for di in 0..dps.len() {
                for &(lo, hi) in &ranges {
                    tasks.push(Task::Delta {
                        ri,
                        di,
                        lo: start + lo,
                        hi: start + hi,
                    });
                }
            }
        }
        tasks
    }

    /// The seed round of a delta grounding over the EDB facts inserted
    /// at ids `>= edb_start`: a full join per `revived` rule, and per live
    /// rule one [`Task::Seed`] per EDB body position whose predicate
    /// gained facts, in `(rule, position)` order.
    fn seed_tasks(&self, edb_start: usize, revived: &[bool]) -> Vec<Task> {
        let mut tasks = Vec::new();
        for (ri, sps) in self.index.seed_plans.iter().enumerate() {
            if revived[ri] {
                tasks.push(Task::Full(ri));
                continue;
            }
            for (si, sp) in sps.iter().enumerate() {
                let pred = self.program.rules[ri].body[sp.dpos].pred;
                let gained = self
                    .db
                    .facts_of(pred)
                    .last()
                    .is_some_and(|&f| (f as usize) >= edb_start);
                if gained {
                    tasks.push(Task::Seed { ri, si, edb_start });
                }
            }
        }
        tasks
    }

    /// Enumerate one task's groundings into `sink`, bodies in body-atom
    /// order; `delta_start` is the round's frontier start (read by
    /// [`Task::Delta`] only). Returns the index probes performed.
    fn run_task(
        &self,
        gp: &GroundedProgram,
        task: Task,
        delta_start: usize,
        sink: &mut impl GroundingSink,
    ) -> u64 {
        let ri = task.rule();
        let head_atom = &self.program.rules[ri].head;
        let const_map = &self.index.const_map;
        let m = self.matcher(ri, gp);
        let mut head = Vec::new();
        match task {
            Task::Full(_) => m.enumerate(&mut |bindings, matches| {
                instantiate_into(head_atom, bindings, const_map, &mut head);
                sink(ri, &head, matches)
            }),
            Task::Delta { di, lo, hi, .. } => {
                let dp = &self.index.delta_plans[ri][di];
                let mut body = Vec::new();
                m.enumerate_delta(dp, delta_start, lo, hi, &mut |bindings, matches| {
                    instantiate_into(head_atom, bindings, const_map, &mut head);
                    sink(ri, &head, in_atom_order(dp.dpos, matches, &mut body))
                });
            }
            Task::Seed { si, edb_start, .. } => {
                let sp = &self.index.seed_plans[ri][si];
                let mut body = Vec::new();
                m.enumerate_seed(sp, edb_start, &mut |bindings, matches| {
                    instantiate_into(head_atom, bindings, const_map, &mut head);
                    sink(ri, &head, in_atom_order(sp.dpos, matches, &mut body))
                });
            }
        }
        m.probes.get()
    }

    /// Run one discovery round's `tasks` on up to `exec.threads` workers,
    /// each task recording its groundings into a [`Fragment`]; fragments
    /// come back in task order. Every grounding passes through `cap`
    /// first (`exec.max_rules` is the caller's to turn into one).
    /// `delta_start` is the round's frontier start; `stage` tags the
    /// per-worker shard stats reported into `exec.rec`.
    fn discover(
        &self,
        gp: &GroundedProgram,
        tasks: &[Task],
        delta_start: usize,
        exec: &Exec,
        stage: Stage,
        cap: &RuleCap,
    ) -> Vec<Fragment> {
        crate::par::run_indexed_recorded(
            tasks.len(),
            exec.threads,
            exec.rec,
            stage,
            |f: &Fragment| f.rules.len() as u64,
            |t| {
                let head_pred = self.program.rules[tasks[t].rule()].head.pred;
                let mut rules = CompactRules::new();
                let mut new_index: FxHashMap<Vec<ConstId>, u32> = FxHashMap::default();
                let mut probes = 0;
                if !cap.exceeded() {
                    let known = gp.fact_index.get(&head_pred);
                    probes = self.run_task(gp, tasks[t], delta_start, &mut |ri, head, body| {
                        if !cap.admit() {
                            return ControlFlow::Break(());
                        }
                        let h = match known.and_then(|k| k.get(head)) {
                            Some(&i) => i as u32,
                            None => match new_index.get(head) {
                                Some(&k) => PENDING_HEAD | k,
                                None => {
                                    let k = new_index.len() as u32;
                                    new_index.insert(head.to_vec(), k);
                                    PENDING_HEAD | k
                                }
                            },
                        };
                        rules.push_matches(ri, h, body);
                        ControlFlow::Continue(())
                    });
                }
                // Unpack the dedup map here, on the worker: the merge
                // only needs the tuples in first-discovery order.
                let mut new_heads = vec![Vec::new(); new_index.len()];
                for (tuple, k) in new_index {
                    new_heads[k as usize] = tuple;
                }
                Fragment {
                    rules,
                    head_pred,
                    new_heads,
                    probes,
                }
            },
        )
    }

    /// Fold the facts appended since the last call into the IDB join
    /// indices — drivers call this once per round, after appending the
    /// round's discoveries.
    fn extend_indices(&mut self, gp: &GroundedProgram) {
        self.index.indices.extend_idb(gp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::{Bool, Semiring, Tropical};

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    /// `rules_by_head` and `dependents` equal the per-fact lists built
    /// the slow way: every fact has an entry, and each rule is listed
    /// under its head and, once, under each distinct IDB body fact.
    fn assert_by_head_coherent(gp: &GroundedProgram) {
        let n = gp.idb_facts.len();
        let (mut by_head, mut deps) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for r in 0..gp.rules.len() {
            by_head[gp.rules.head(r)].push(r as u32);
            let body: HashSet<u32> = gp.rules.body_idb(r).iter().copied().collect();
            let mut body: Vec<u32> = body.into_iter().collect();
            body.sort_unstable();
            for f in body {
                deps[f as usize].push(r as u32);
            }
        }
        assert_eq!(gp.rules_by_head.len(), n);
        assert_eq!(gp.dependents.len(), n);
        for f in 0..n {
            assert_eq!(gp.rules_by_head.of(f), &by_head[f][..], "by head, fact {f}");
            assert_eq!(gp.dependents.of(f), &deps[f][..], "dependents, fact {f}");
        }
    }

    #[test]
    fn tc_on_path_derives_all_ordered_pairs() {
        let mut p = tc();
        let g = generators::path(4, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        // 5 nodes: pairs (i,j) with i<j → 10 facts.
        assert_eq!(gp.num_idb_facts(), 10);
        let t = p.preds.get("T").unwrap();
        let c = |i: usize| db.node_const(i).unwrap();
        assert!(gp.fact(t, &[c(0), c(4)]).is_some());
        assert!(gp.fact(t, &[c(2), c(1)]).is_none());
    }

    #[test]
    fn grounded_rule_counts_on_path() {
        let mut p = tc();
        let g = generators::path(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        // Initialization: one per edge (3). Recursive T(x,z),E(z,y): T
        // facts (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) joined with edges
        // (0,1),(1,2),(2,3): (0,1)+(1,2); (0,2)+(2,3); (1,2)+(2,3) → 3.
        let count = |ri| {
            (0..gp.rules.len())
                .filter(|&i| gp.rules.rule_index(i) == ri)
                .count()
        };
        assert_eq!(count(0), 3);
        assert_eq!(count(1), 3);
        assert_by_head_coherent(&gp);
    }

    #[test]
    fn cycle_derives_all_pairs() {
        let mut p = tc();
        let g = generators::cycle(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(gp.num_idb_facts(), 9); // all ordered pairs incl. self
    }

    #[test]
    fn constants_in_rules_bind() {
        let mut p = parse_program("R(Y) :- E(v0, Y).\nR(Y) :- R(Z), E(Z,Y).").unwrap();
        let g = generators::path(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let r = p.preds.get("R").unwrap();
        // Reachable from v0 by ≥1 edges: v1, v2, v3.
        assert_eq!(gp.facts_of(r).len(), 3);
    }

    #[test]
    fn unknown_constants_never_fire() {
        let mut p = parse_program("R(Y) :- E(nosuch, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
    }

    #[test]
    fn unknown_constants_in_heads_never_fire() {
        // A head constant outside the active domain: the rule is dead (it
        // could only derive a fact outside the domain) instead of a panic.
        let mut p = parse_program("R(nosuch) :- E(X, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
        assert!(gp.rules.is_empty());
    }

    #[test]
    fn limit_is_enforced_exactly_at_every_thread_count() {
        // TC over complete(6) grounds far more than 10 rules. Discovery
        // counts each grounding once, so the cap admits exactly the full
        // grounding and refuses one rule less.
        let mut p = tc();
        let g = generators::complete(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let rules = ground(&p, &db, &Exec::default()).unwrap().rules.len();
        for threads in [1usize, 4] {
            for cap in [10, rules - 1] {
                let exec = Exec {
                    threads,
                    max_rules: cap,
                    ..Default::default()
                };
                assert_eq!(
                    ground(&p, &db, &exec).unwrap_err(),
                    Error::GroundingLimit { max_rules: cap },
                    "cap={cap} threads={threads}"
                );
            }
            let exec = Exec {
                threads,
                max_rules: rules,
                ..Default::default()
            };
            let ok = ground(&p, &db, &exec).unwrap();
            assert_eq!(ok.rules.len(), rules);
        }
    }

    #[test]
    fn monadic_program_grounds() {
        // Paper Example 2.1's second program: reachable-from-A.
        let mut p = parse_program("U(X) :- A(X).\nU(X) :- U(Y), E(X,Y).").unwrap();
        let g = generators::path(3, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        // A holds at v3; U(x) reaches backwards along edges (x,y) with U(y).
        let a = p.preds.get("A").unwrap();
        let v3 = db.node_const(3).unwrap();
        db.insert(a, vec![v3]);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let u = p.preds.get("U").unwrap();
        assert_eq!(gp.facts_of(u).len(), 4); // v3, v2, v1, v0
    }

    #[test]
    fn facts_by_pred_index_is_coherent() {
        let mut p = tc();
        let g = generators::gnm(7, 18, &["E"], 3);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let t = p.preds.get("T").unwrap();
        // The per-predicate index is exactly the filter-scan it replaced.
        let scanned: Vec<usize> = gp
            .idb_facts
            .iter()
            .enumerate()
            .filter_map(|(i, (pred, _))| (*pred == t).then_some(i))
            .collect();
        assert_eq!(gp.facts_of(t), &scanned[..]);
        assert_eq!(gp.facts_of(t).len(), gp.num_idb_facts());
    }

    #[test]
    fn nonlinear_rules_ground_like_linear_tc() {
        // Nonlinear TC has two IDB body atoms: every semi-naive round
        // exercises the pre-frontier restriction at positions before the
        // delta position. Derivable facts must match linear TC exactly.
        let mut nl = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap();
        let mut lin = tc();
        for seed in 0..4u64 {
            let g = generators::gnm(8, 18, &["E"], seed);
            let (db_nl, _) = Database::from_graph(&mut nl, &g);
            let gp_nl = ground(&nl, &db_nl, &Exec::default()).unwrap();
            let (db_lin, _) = Database::from_graph(&mut lin, &g);
            let gp_lin = ground(&lin, &db_lin, &Exec::default()).unwrap();
            assert_eq!(gp_nl.num_idb_facts(), gp_lin.num_idb_facts(), "seed={seed}");
            let t = lin.preds.get("T").unwrap();
            for (pred, tuple) in &gp_lin.idb_facts {
                if *pred == t {
                    let names: Vec<&str> = tuple.iter().map(|&c| db_lin.consts.name(c)).collect();
                    let mapped: Vec<ConstId> = names
                        .iter()
                        .map(|n| db_nl.consts.get(n).expect("shared domain"))
                        .collect();
                    let t_nl = nl.preds.get("T").unwrap();
                    assert!(
                        gp_nl.fact(t_nl, &mapped).is_some(),
                        "missing {names:?} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_grounding_is_bit_identical_to_sequential() {
        // Fact order (= FactId assignment), grounded-rule order, and every
        // index must match the sequential run for any thread count —
        // including programs whose recursive atom is not the first body
        // atom (delta position > 0 exercises the hoisted enumeration).
        let programs: Vec<Program> = vec![
            tc(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- A(X), T(Z,Y).").unwrap(),
            parse_program(
                "S(X,Y) :- L(X,Z), R(Z,Y).\n\
                 S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
                 S(X,Y) :- S(X,Z), S(Z,Y).",
            )
            .unwrap(),
        ];
        for mut p in programs {
            for seed in 0..3u64 {
                let labels: Vec<&str> = if p.preds.get("L").is_some() {
                    vec!["L", "R"]
                } else {
                    vec!["E"]
                };
                let g = generators::gnm(8, 18, &labels, seed);
                let (mut db, _) = Database::from_graph(&mut p, &g);
                if let Some(a) = p.preds.get("A") {
                    let v0 = db.node_const(0).unwrap();
                    db.insert(a, vec![v0]);
                }
                let seq = ground(&p, &db, &Exec::default()).unwrap();
                for threads in [2usize, 4, 8] {
                    let par = ground(
                        &p,
                        &db,
                        &Exec {
                            threads,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(seq.idb_facts, par.idb_facts, "facts, threads={threads}");
                    assert_eq!(seq.rules, par.rules, "rules, threads={threads}");
                    assert_eq!(seq.fact_index, par.fact_index, "index, threads={threads}");
                    assert_eq!(
                        seq.rules_by_head, par.rules_by_head,
                        "by-head, threads={threads}"
                    );
                    assert_eq!(seq.dependents, par.dependents, "deps, threads={threads}");
                }
            }
        }
    }

    #[test]
    fn seminaive_grounding_matches_reachability_on_random_graphs() {
        // The delta-frontier fixpoint must derive exactly the BFS-reachable
        // pairs (≥ 1 edge) on arbitrary graphs, cycles included.
        let mut p = tc();
        for seed in 0..5u64 {
            let g = generators::gnm(9, 22, &["E"], seed);
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = ground(&p, &db, &Exec::default()).unwrap();
            let t = p.preds.get("T").unwrap();
            let mut expected = 0usize;
            for u in 0..g.num_nodes() {
                let mut reach = vec![false; g.num_nodes()];
                for &(eu, ev, _) in g.edges() {
                    if eu as usize == u {
                        for (w, r) in g.reachable_from(ev).iter().enumerate() {
                            reach[w] |= r;
                        }
                        reach[ev as usize] = true;
                    }
                }
                for (v, reachable) in reach.iter().enumerate() {
                    if *reachable {
                        expected += 1;
                        let key = [db.node_const(u).unwrap(), db.node_const(v).unwrap()];
                        assert!(gp.fact(t, &key).is_some(), "missing T({u},{v}) seed={seed}");
                    }
                }
            }
            assert_eq!(gp.facts_of(t).len(), expected, "seed={seed}");
        }
    }

    /// One body atom's match, by value: an IDB fact as `(pred, tuple)`,
    /// an EDB fact by id.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Ref {
        Idb(PredId, Vec<ConstId>),
        Edb(FactId),
    }

    /// An IDB fact by value.
    type Fact = (PredId, Vec<ConstId>);

    /// A grounded rule by value: rule index, head fact, and the body
    /// matches in body-atom order.
    type RuleRow = (usize, Fact, Vec<Ref>);

    /// The store's rules by value, sorted (a multiset). Bodies interleave
    /// the IDB and EDB pools back into body-atom order, using the program
    /// rule's atom pattern.
    fn store_rows(p: &Program, gp: &GroundedProgram) -> Vec<RuleRow> {
        let idbs = p.idbs();
        let mut rows: Vec<RuleRow> = (0..gp.rules.len())
            .map(|i| {
                let ri = gp.rules.rule_index(i);
                let (mut idb, mut edb) = (gp.rules.body_idb(i).iter(), gp.rules.body_edb(i).iter());
                let body = p.rules[ri]
                    .body
                    .iter()
                    .map(|atom| {
                        if idbs.contains(&atom.pred) {
                            let (pred, tuple) = &gp.idb_facts[*idb.next().unwrap() as usize];
                            Ref::Idb(*pred, tuple.clone())
                        } else {
                            Ref::Edb(*edb.next().unwrap())
                        }
                    })
                    .collect();
                assert!(idb.next().is_none() && edb.next().is_none());
                (ri, gp.idb_facts[gp.rules.head(i)].clone(), body)
            })
            .collect();
        rows.sort();
        rows
    }

    /// Reference grounding by brute force: naive Boolean fixpoint for the
    /// derivable facts, then every rule enumerated by nested loops over
    /// all facts of each body atom's predicate (no indices, no deltas).
    fn reference(p: &Program, db: &Database) -> (Vec<Fact>, Vec<RuleRow>) {
        let idbs = p.idbs();
        let const_of = |c: u32| db.consts.get(p.consts.name(c));
        let mut facts: HashSet<Fact> = HashSet::new();
        // All groundings of `rule` over EDB ∪ `facts`.
        let groundings = |rule: &Rule, facts: &HashSet<Fact>| {
            let mut out: Vec<(Fact, Vec<Ref>)> = Vec::new();
            let candidates: Vec<Vec<(Vec<ConstId>, Ref)>> = rule
                .body
                .iter()
                .map(|atom| {
                    if idbs.contains(&atom.pred) {
                        facts
                            .iter()
                            .filter(|(q, _)| *q == atom.pred)
                            .map(|(q, t)| (t.clone(), Ref::Idb(*q, t.clone())))
                            .collect()
                    } else {
                        db.facts_of(atom.pred)
                            .iter()
                            .map(|&f| (db.fact(f).1.to_vec(), Ref::Edb(f)))
                            .collect()
                    }
                })
                .collect();
            let mut pick = vec![0usize; rule.body.len()];
            'odometer: loop {
                if candidates.iter().all(|c| !c.is_empty()) || rule.body.is_empty() {
                    let mut env: HashMap<VarSym, ConstId> = HashMap::new();
                    let ok = rule.body.iter().enumerate().all(|(k, atom)| {
                        let tuple = &candidates[k][pick[k]].0;
                        tuple.len() == atom.terms.len()
                            && atom.terms.iter().zip(tuple).all(|(term, &v)| match term {
                                Term::Const(c) => const_of(*c) == Some(v),
                                Term::Var(x) => *env.entry(*x).or_insert(v) == v,
                            })
                    });
                    let head: Option<Vec<ConstId>> = rule
                        .head
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => const_of(*c),
                            Term::Var(x) => env.get(x).copied(),
                        })
                        .collect();
                    if let (true, Some(head)) = (ok, head) {
                        let body = (0..rule.body.len())
                            .map(|k| candidates[k][pick[k]].1.clone())
                            .collect();
                        out.push(((rule.head.pred, head), body));
                    }
                } else {
                    break;
                }
                for k in (0..pick.len()).rev() {
                    pick[k] += 1;
                    if pick[k] < candidates[k].len() {
                        continue 'odometer;
                    }
                    pick[k] = 0;
                }
                break;
            }
            out
        };
        loop {
            let before = facts.len();
            let derived: Vec<_> = p
                .rules
                .iter()
                .flat_map(|r| groundings(r, &facts))
                .map(|(h, _)| h)
                .collect();
            facts.extend(derived);
            if facts.len() == before {
                break;
            }
        }
        let mut rows: Vec<RuleRow> = p
            .rules
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| {
                groundings(r, &facts)
                    .into_iter()
                    .map(move |(h, b)| (ri, h, b))
            })
            .collect();
        rows.sort();
        let mut facts: Vec<_> = facts.into_iter().collect();
        facts.sort();
        (facts, rows)
    }

    /// The least fixpoint by brute force: naive ICO rounds over the
    /// reference's own rule rows, from all-zero until no fact changes.
    fn reference_values<S: Semiring>(
        facts: &[Fact],
        rows: &[RuleRow],
        edb: impl Fn(FactId) -> S,
    ) -> HashMap<Fact, S> {
        let zero =
            || -> HashMap<Fact, S> { facts.iter().map(|f| (f.clone(), S::zero())).collect() };
        let mut values = zero();
        for _ in 0..4 * (facts.len() + 2) {
            let mut next = zero();
            for (_, head, body) in rows {
                let mut prod = S::one();
                for r in body {
                    prod.mul_assign(&match r {
                        Ref::Edb(f) => edb(*f),
                        Ref::Idb(q, t) => values[&(*q, t.clone())].clone(),
                    });
                }
                next.get_mut(head).unwrap().add_assign(&prod);
            }
            if facts.iter().all(|f| next[f].sr_eq(&values[f])) {
                return values;
            }
            values = next;
        }
        panic!("reference ICO did not converge");
    }

    /// `naive_eval` and `semi_naive_eval` over `gp` both equal the
    /// reference fixpoint, fact by fact.
    fn assert_values_match_reference<S: Semiring>(
        gp: &GroundedProgram,
        reference: &HashMap<Fact, S>,
        edb: impl Fn(FactId) -> S,
        label: &str,
    ) {
        let assign = semiring::valuation::from_fn(edb);
        let budget = crate::eval::default_budget(gp);
        for out in [
            crate::eval::naive_eval::<S, _>(gp, &assign, budget),
            crate::eval::semi_naive_eval::<S, _>(gp, &assign, budget),
        ] {
            assert!(out.converged, "{label}: {:?}", out.strategy);
            for (fact, v) in gp.idb_facts.iter().zip(&out.values) {
                assert!(
                    v.sr_eq(&reference[fact]),
                    "{label}: {:?} {fact:?}: {v:?} vs {:?}",
                    out.strategy,
                    reference[fact]
                );
            }
        }
    }

    #[test]
    fn rule_store_matches_nested_loop_reference_enumeration() {
        // (program, edge labels, unary predicate seeded on every node)
        let cases: [(&str, &[&str], Option<&str>); 5] = [
            // Recursive atom second: delta position > 0.
            ("T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Z), T(Z,Y).", &["E"], None),
            // A constant in a rule body.
            ("R(Y) :- E(v0, Y).\nR(Y) :- R(Z), E(Z,Y).", &["E"], None),
            // A 3-atom non-chain body with IDB atoms at positions 0 and 2.
            (
                "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Y,Z), T(Z,W).",
                &["E"],
                None,
            ),
            // Same generation: repeated head variable, IDB atom in the
            // middle of the body.
            (
                "SG(X,X) :- N(X).\nSG(X,Y) :- Par(X,XP), SG(XP,YP), Par(Y,YP).",
                &["Par"],
                Some("N"),
            ),
            // Two IDB atoms plus mutual recursion.
            (
                "S(X,Y) :- L(X,Z), R(Z,Y).\n\
                 S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
                 S(X,Y) :- S(X,Z), S(Z,Y).",
                &["L", "R"],
                None,
            ),
        ];
        for (text, labels, unary) in cases {
            for seed in 0..3u64 {
                let mut p = parse_program(text).unwrap();
                let g = generators::gnm(6, 11, labels, seed);
                let (mut db, _) = Database::from_graph(&mut p, &g);
                if let Some(name) = unary {
                    let n = p.preds.get(name).unwrap();
                    for i in 0..g.num_nodes() {
                        let c = db.node_const(i).unwrap();
                        db.insert(n, vec![c]);
                    }
                }
                let gp = ground(&p, &db, &Exec::default()).unwrap();
                let (facts, rows) = reference(&p, &db);
                let mut got_facts = gp.idb_facts.clone();
                got_facts.sort();
                assert_eq!(got_facts, facts, "{text} seed={seed}");
                assert_eq!(store_rows(&p, &gp), rows, "{text} seed={seed}");
                assert_by_head_coherent(&gp);
                // Values beyond TC: both fixpoint strategies reach the
                // brute-force fixpoint of the reference rules.
                let label = format!("{text} seed={seed}");
                let ones = |_| Bool(true);
                let bools = reference_values(&facts, &rows, ones);
                assert_values_match_reference(&gp, &bools, ones, &label);
                let weight = |f: FactId| Tropical::new(1 + (u64::from(f) * 7 + seed) % 5);
                let dists = reference_values(&facts, &rows, weight);
                assert_values_match_reference(&gp, &dists, weight, &label);
                let par = ground(
                    &p,
                    &db,
                    &Exec {
                        threads: 4,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(par.rules, gp.rules, "{text} seed={seed}: 1 vs 4 threads");
                assert_eq!(par.idb_facts, gp.idb_facts);
            }
        }
    }

    /// Canonical, order-insensitive view of a grounded program: the fact
    /// set plus every grounded rule by value (EDB fact ids are comparable
    /// directly when both databases inserted facts in the same order).
    fn canon(p: &Program, gp: &GroundedProgram) -> (Vec<Fact>, Vec<RuleRow>) {
        let mut facts = gp.idb_facts.clone();
        facts.sort();
        (facts, store_rows(p, gp))
    }

    #[test]
    fn extend_grounding_matches_rebuild_on_random_inserts() {
        // Ground a prefix of the edge set, then insert the remaining edges
        // in batches through one kept index: after every batch, facts and
        // grounded rules must equal a from-scratch grounding of the
        // database so far (fact ids align because both databases intern
        // constants and insert edges in the same order).
        let programs: Vec<Program> = vec![
            tc(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Z), T(Z,Y).").unwrap(),
        ];
        for mut p in programs {
            for seed in 0..4u64 {
                let g = generators::gnm(8, 18, &["E"], seed);
                let e = p.preds.intern("E");
                for (hold_back, batch) in [(1usize, 1usize), (3, 1), (6, 2), (6, 6)] {
                    let mut db = Database::new();
                    for i in 0..g.num_nodes() {
                        db.constant(&format!("v{i}"));
                    }
                    let edges = g.edges();
                    let split = edges.len() - hold_back;
                    let insert = |db: &mut Database, (u, v): (u32, u32)| {
                        let t = vec![
                            db.node_const(u as usize).unwrap(),
                            db.node_const(v as usize).unwrap(),
                        ];
                        db.insert(e, t);
                    };
                    for &(u, v, _) in &edges[..split] {
                        insert(&mut db, (u, v));
                    }
                    let mut gp = ground(&p, &db, &Exec::default()).unwrap();
                    let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
                    for chunk in edges[split..].chunks(batch) {
                        for &(u, v, _) in chunk {
                            insert(&mut db, (u, v));
                        }
                        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
                        let rebuilt = ground(&p, &db, &Exec::default()).unwrap();
                        assert_eq!(
                            canon(&p, &gp),
                            canon(&p, &rebuilt),
                            "seed={seed} hold_back={hold_back} batch={batch}"
                        );
                        // Self-consistency of the maintained indices.
                        assert_by_head_coherent(&gp);
                        for (pred, by_tuple) in &gp.fact_index {
                            for (tuple, &i) in by_tuple {
                                assert_eq!(gp.idb_facts[i], (*pred, tuple.clone()));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The part of a maintained grounding a rebuild has too: its facts
    /// minus the zombies, and the rules whose IDB body facts are all
    /// derivable in `rebuilt` (the others cite a zombie; their heads are
    /// kept or zombies either way).
    fn live_view(p: &Program, gp: &GroundedProgram, rebuilt: &GroundedProgram) -> Vec<RuleRow> {
        let live = |i: u32| {
            let (pred, tuple) = &gp.idb_facts[i as usize];
            rebuilt.fact(*pred, tuple).is_some()
        };
        let mut kept = gp.clone();
        kept.rules
            .retain(|r, _, _| gp.rules.body_idb(r).iter().all(|&i| live(i)));
        store_rows(p, &kept)
    }

    #[test]
    fn kept_index_follows_interleaved_inserts_and_retracts() {
        // Toggle random edges on and off through one kept index: after
        // every write the maintained grounding, zombies aside, equals a
        // from-scratch grounding of the live database.
        let cases: [(&str, &[&str]); 4] = [
            ("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).", &["E"]),
            ("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).", &["E"]),
            (
                "S(X,Y) :- L(X,Z), R(Z,Y).\n\
                 S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
                 S(X,Y) :- S(X,Z), S(Z,Y).",
                &["L", "R"],
            ),
            (
                "A(Y) :- E(v0, Y).\nA(Y) :- B(Z), E(Z,Y).\nB(Y) :- A(Z), E(Z,Y).",
                &["E"],
            ),
        ];
        for (text, labels) in cases {
            for seed in 0..4u64 {
                let mut p = parse_program(text).unwrap();
                let g = generators::gnm(6, 12, labels, seed);
                let (mut db, _) = Database::from_graph(&mut p, &g);
                let mut gp = ground(&p, &db, &Exec::default()).unwrap();
                let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for step in 0..24 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let pred = p.preds.get(labels[(rng % labels.len() as u64) as usize]);
                    let (u, v) = ((rng >> 8) % 6, (rng >> 16) % 6);
                    let tuple = vec![
                        db.node_const(u as usize).unwrap(),
                        db.node_const(v as usize).unwrap(),
                    ];
                    let pred = pred.unwrap();
                    match db.retract(pred, &tuple) {
                        Some(fid) => {
                            retract_facts_from_grounding(&mut gp, &[fid]);
                            index.retract(&db, &[fid]);
                        }
                        None => {
                            db.insert(pred, tuple);
                            extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default())
                                .unwrap();
                        }
                    }
                    let rebuilt = ground(&p, &db, &Exec::default()).unwrap();
                    assert_eq!(
                        live_view(&p, &gp, &rebuilt),
                        store_rows(&p, &rebuilt),
                        "{text} seed={seed} step={step}"
                    );
                    assert_by_head_coherent(&gp);
                }
            }
        }
    }

    #[test]
    fn extend_grounding_revives_rules_on_new_constants() {
        // `hub` is outside the initial active domain, so both rules
        // mentioning it are dead at first grounding. Inserting A(hub) and
        // E(hub, v0) interns `hub`; the extension must revive the rules,
        // enumerate them in full, and rebuild the kept index, which later
        // inserts keep using.
        let mut p = parse_program("R(Y) :- A(hub), E(hub, Y).\nR(Y) :- R(Z), E(Z,Y).").unwrap();
        let g = generators::path(3, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        let e = p.preds.get("E").unwrap();
        let a = p.preds.get("A").unwrap();
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let hub = db.constant("hub");
        let v0 = db.node_const(0).unwrap();
        db.insert(a, vec![hub]);
        db.insert(e, vec![hub, v0]);
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        let gp_full = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(canon(&p, &gp), canon(&p, &gp_full));
        let r = p.preds.get("R").unwrap();
        // hub → v0 → v1 → v2 → v3.
        assert_eq!(gp.facts_of(r).len(), 4);
        // A second hub edge goes through the rebuilt index.
        let v2 = db.node_const(2).unwrap();
        db.insert(e, vec![hub, v2]);
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        assert_eq!(
            canon(&p, &gp),
            canon(&p, &ground(&p, &db, &Exec::default()).unwrap())
        );
        assert_by_head_coherent(&gp);
    }

    #[test]
    fn extend_grounding_enforces_the_rule_limit() {
        let mut p = tc();
        let g = generators::complete(6, "E");
        let e = p.preds.get("E").unwrap();
        let (db_full, _) = Database::from_graph(&mut p, &g);
        let full_rules = ground(&p, &db_full, &Exec::default()).unwrap().rules.len();
        let insert = |db: &mut Database, edges: &[(u32, u32, u32)]| {
            for &(u, v, _) in edges {
                let t = vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ];
                db.insert(e, t);
            }
        };
        let edges = g.edges();
        let split = edges.len() / 2;
        // The cap counts old and appended rules together: the full
        // grounding fits exactly, one rule less does not.
        for (cap, fits) in [
            (full_rules / 2, false),
            (full_rules - 1, false),
            (full_rules, true),
        ] {
            let mut db = Database::new();
            for i in 0..g.num_nodes() {
                db.constant(&format!("v{i}"));
            }
            insert(&mut db, &edges[..split]);
            let mut gp = ground(&p, &db, &Exec::default()).unwrap();
            let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
            insert(&mut db, &edges[split..]);
            let exec = Exec {
                max_rules: cap,
                ..Default::default()
            };
            let got = extend_grounding(&p, &db, &mut gp, &mut index, &exec);
            if fits {
                assert!(got.is_ok(), "cap={cap}: {got:?}");
                assert_eq!(gp.rules.len(), full_rules);
            } else {
                assert_eq!(got, Err(Error::GroundingLimit { max_rules: cap }));
            }
        }
    }

    #[test]
    fn retract_removes_exactly_the_rules_citing_the_fact() {
        let mut p = tc();
        let g = generators::path(3, "E");
        let (mut db, edge_facts) = Database::from_graph(&mut p, &g);
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let before = gp.rules.len();
        let cites = |gp: &GroundedProgram, i: usize| gp.rules.body_edb(i).contains(&edge_facts[1]);
        let citing = (0..before).filter(|&i| cites(&gp, i)).count();
        assert!(citing > 0);
        // Retract the middle edge from both the database and the grounding.
        let (pred, tuple) = db.fact(edge_facts[1]);
        let tuple = tuple.to_vec();
        assert_eq!(db.retract(pred, &tuple), Some(edge_facts[1]));
        let roots = retract_facts_from_grounding(&mut gp, &[edge_facts[1]]);
        assert_eq!(gp.rules.len(), before - citing);
        assert!(!roots.is_empty());
        assert!((0..gp.rules.len()).all(|i| !cites(&gp, i)));
        // Index invariants: rules_by_head rebuilt, roots are valid facts.
        assert_by_head_coherent(&gp);
        for &root in &roots {
            assert!(root < gp.idb_facts.len());
        }
        // Zombie invariant: idb_facts are retained even when underivable.
        let t = p.preds.get("T").unwrap();
        assert_eq!(gp.facts_of(t).len(), 6);
    }
}
