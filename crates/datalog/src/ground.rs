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
//! `JoinIndices`; keys interned in a flat column, buckets of `u32` ids).
//! A body atom whose prefix has already bound `k ≥ 1` of its arguments is
//! matched by one hash lookup over exactly the candidate facts agreeing on
//! those arguments — not by scanning the full relation. An atom with no
//! bound argument takes every fact of its predicate, read directly from
//! its fact store: no index keeps a copy of a whole relation. Because
//! derivable facts are appended round by round, the delta frontier is a
//! contiguous index range and a binary search restricts any candidate
//! list to it.
//!
//! **The fact store.** EDB and IDB facts live in one store type, the
//! crate-private `FactStore`: the [`Database`] keeps one, which
//! tombstones retracts, and the [`GroundedProgram`] another, which never
//! retracts. Interning a fact copies its constants into its predicate's
//! column and allocates nothing of its own. A join reads both stores
//! through one path, indexed by fact kind.
//!
//! **One join plan.** Every join is a `JoinPlan`, unpinned (round 0's
//! full join) or pinned at one body atom, which then iterates the facts
//! of its predicate over an id range *outermost* (ascending id), the rest
//! of the body joined per pinned fact through the shared indices. A plan
//! pinned at an IDB atom re-fires a rule over the frontier; one pinned at
//! an EDB atom seeds a delta grounding from the inserted facts. Atoms of
//! the pinned atom's kind left of it take only older facts. Pinning
//! outermost is what makes a round shardable: the frontier range splits
//! into contiguous sub-ranges evaluated on scoped threads against the
//! read-only indices, and concatenating the task outputs in task order
//! replays the sequential enumeration exactly.
//!
//! **Recording and the round merge.** Each discovery task records its
//! groundings into a *fragment*, a [`CompactRules`] of its own: the
//! program-rule index, the head, and the IDB and EDB body ids in
//! body-atom order. A head already interned when the round began is
//! stored as its fact index; any other head is deduplicated within the
//! task, in a flat column of the fact store's type, and stored as its
//! row there, so a head matched many times is copied once. The serial
//! round merge then interns each fragment's new heads in task order — the
//! sequential first-discovery order, so `FactId`s (and hence the Theorem
//! 4.3 layering probe) are **bit-identical whatever the thread count**
//! ([`ground`]) — from the borrowed rows, allocating nothing per fact,
//! and appends the fragment to [`GroundedProgram::rules`], rebasing its
//! body offsets and resolving its pending heads through the interning
//! result. [`ground`] and delta grounding ([`extend_grounding`]) run one
//! round loop; they differ only in the first round's tasks (full joins
//! vs. a seed round over the inserted facts).
//!
//! **Rule order.** Grounded rules are numbered in *discovery order*:
//! round by round, task order within a round, enumeration order within a
//! task. `FactId`s and rule ids are per-run artifacts, not stable
//! identifiers across versions; within a version they are deterministic
//! and thread-count-independent, which is the invariant everything
//! downstream (circuit sharing, provenance variable numbering, caches)
//! relies on.
//!
//! Restricting to derivable facts keeps the grounded program — and hence
//! every circuit built from it — free of dead gates.

use std::cell::Cell;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use provcirc_error::Error;
use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ast::{Atom, Program, Rule, Term};
use crate::csr::{CompactRules, FactRules, PENDING_HEAD};
use crate::database::{Database, FactId};
use crate::symbols::{ConstId, PredId, VarSym};
use crate::tuples::{FactStore, Tuples};

/// The grounded program.
///
/// Its derivable IDB facts are numbered `0, 1, …` in discovery order
/// (see the module docs); these *fact indices* are what [`rules`],
/// [`rules_by_head`], [`dependents`] and every fixpoint's value vector
/// are keyed by. The facts live in the flat store a [`Database`] keeps
/// its EDB facts in: per IDB predicate one column of its tuples with a
/// `u32` hash table over it, plus its fact indices in ascending order
/// ([`facts_of`]); per fact, its predicate and row ([`idb_fact`]).
/// [`fact`] probes with the borrowed tuple.
///
/// [`rules`]: GroundedProgram::rules
/// [`rules_by_head`]: GroundedProgram::rules_by_head
/// [`dependents`]: GroundedProgram::dependents
/// [`facts_of`]: GroundedProgram::facts_of
/// [`idb_fact`]: GroundedProgram::idb_fact
/// [`fact`]: GroundedProgram::fact
#[derive(Clone, Debug, Default)]
pub struct GroundedProgram {
    /// The derivable facts, numbered by fact index. Never retracted from.
    facts: FactStore,
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
}

impl GroundedProgram {
    /// Number of derivable IDB facts.
    pub fn num_idb_facts(&self) -> usize {
        self.facts.len()
    }

    /// The derivable IDB fact with index `i`.
    pub fn idb_fact(&self, i: usize) -> (PredId, &[ConstId]) {
        self.facts.fact(i as u32)
    }

    /// Every derivable IDB fact, in fact-index order.
    pub fn idb_facts(&self) -> impl ExactSizeIterator<Item = (PredId, &[ConstId])> + '_ {
        (0..self.num_idb_facts()).map(|i| self.idb_fact(i))
    }

    /// The index of a derivable IDB fact. Allocation-free: probes the
    /// predicate's table with the borrowed tuple.
    pub fn fact(&self, pred: PredId, tuple: &[ConstId]) -> Option<usize> {
        self.facts.id(pred, tuple).map(|i| i as usize)
    }

    /// Indices of the derivable facts of a predicate, ascending.
    pub fn facts_of(&self, pred: PredId) -> &[u32] {
        self.facts.facts_of(pred)
    }

    /// Heap bytes of the fact store: the tuple columns and their tables,
    /// the per-predicate fact indices and the per-fact locators (lengths,
    /// not capacities, as in [`CompactRules::heap_bytes`]).
    pub fn fact_heap_bytes(&self) -> usize {
        self.facts.heap_bytes()
    }

    /// Total size of the grounded program (the `M` of Theorem 4.3's size
    /// analysis): grounded rules plus their body atoms.
    pub fn size(&self) -> usize {
        self.rules.len() + self.rules.body_len()
    }

    /// Rebuild [`rules_by_head`] and [`dependents`] from `rules`: one
    /// counting sort each, reusing their buffers.
    ///
    /// [`rules_by_head`]: GroundedProgram::rules_by_head
    /// [`dependents`]: GroundedProgram::dependents
    fn index_rules(&mut self) {
        let (n, rules) = (self.num_idb_facts(), &self.rules);
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
    /// An IDB fact index (see [`GroundedProgram`]).
    Idb(u32),
    /// EDB fact id (a provenance variable).
    Edb(FactId),
}

/// Statically computed join plan of one rule: the order its body atoms
/// join in, and per atom which argument positions are already bound
/// (constants, or variables bound by an earlier atom) when the matcher
/// reaches it — the probe key of the hash index at that position.
///
/// The unpinned plan (`pin == None`) joins the body in body order: round
/// 0's full join, also run for revived rules. A plan pinned at body
/// position `p` hoists that atom **outermost**: it iterates its
/// predicate's facts over an id range (ascending), and the other atoms
/// join per pinned fact in body order. Pinned at an IDB atom, the plan
/// re-fires the rule over a round's frontier; pinned at an EDB atom, it
/// seeds a delta from the inserted facts (see [`Matcher::enumerate`]).
struct JoinPlan {
    /// The hoisted body position, if any.
    pin: Option<usize>,
    /// Whether the hoisted atom is an IDB atom.
    pin_idb: bool,
    /// The other body positions, in body order.
    rest: Vec<Step>,
}

/// One non-hoisted atom of a [`JoinPlan`].
struct Step {
    /// Its body position.
    pos: usize,
    /// Whether it is an IDB atom.
    idb: bool,
    /// The pre-bound argument positions, ascending.
    bound: Vec<usize>,
    /// Slot of the shared index in [`JoinIndices`] keyed by `bound`;
    /// `None` when nothing is bound, and the atom reads every fact of its
    /// predicate straight from the grounding or the database.
    slot: Option<usize>,
}

/// The join plan of `rule` with `pin` hoisted outermost (see
/// [`JoinPlan`]), interning the index slots its probes need.
fn plan(
    rule: &Rule,
    pin: Option<usize>,
    idbs: &HashSet<PredId>,
    indices: &mut JoinIndices,
) -> JoinPlan {
    fn vars(atom: &Atom) -> impl Iterator<Item = VarSym> + '_ {
        let terms = atom.terms.iter();
        terms.filter_map(|t| if let Term::Var(v) = t { Some(*v) } else { None })
    }
    let mut bound_vars: HashSet<VarSym> =
        pin.map_or_else(HashSet::new, |p| vars(&rule.body[p]).collect());
    let mut rest = Vec::with_capacity(rule.body.len());
    for pos in (0..rule.body.len()).filter(|&pos| Some(pos) != pin) {
        let atom = &rule.body[pos];
        let bound: Vec<usize> = (0..atom.terms.len())
            .filter(|&p| match &atom.terms[p] {
                Term::Const(_) => true,
                Term::Var(v) => bound_vars.contains(v),
            })
            .collect();
        bound_vars.extend(vars(atom));
        let idb = idbs.contains(&atom.pred);
        let slot = (!bound.is_empty()).then(|| indices.slot(atom.pred, &bound, idb));
        rest.push(Step {
            pos,
            idb,
            bound,
            slot,
        });
    }
    JoinPlan {
        pin,
        pin_idb: pin.is_some_and(|p| idbs.contains(&rule.body[p].pred)),
        rest,
    }
}

/// Whether `rule` names a constant outside the active domain: then it can
/// never fire over this database and is skipped wholesale.
fn is_dead(rule: &Rule, const_map: &[Option<ConstId>]) -> bool {
    let atoms = std::iter::once(&rule.head).chain(&rule.body);
    atoms
        .flat_map(|atom| &atom.terms)
        .any(|t| matches!(t, Term::Const(c) if const_map[*c as usize].is_none()))
}

/// The projection of `tuple` onto `positions` into a reused key buffer,
/// or `false` when the tuple is too short to have them.
fn project(tuple: &[ConstId], positions: &[usize], key: &mut Vec<ConstId>) -> bool {
    key.clear();
    key.extend(positions.iter().filter_map(|&p| tuple.get(p).copied()));
    key.len() == positions.len()
}

/// One hash join index: the facts of one predicate keyed by their
/// projection onto some argument positions. The keys are interned in a
/// [`Tuples`] column; each key row owns a bucket of matching facts (IDB
/// fact indices or EDB fact ids), ascending — insertion order.
struct JoinIndex {
    positions: Vec<usize>,
    keys: Tuples,
    buckets: Vec<Vec<u32>>,
}

impl JoinIndex {
    fn new(positions: &[usize]) -> Self {
        JoinIndex {
            positions: positions.to_vec(),
            keys: Tuples::new(positions.len()),
            buckets: Vec::new(),
        }
    }

    /// The facts whose projection is `key`.
    #[inline]
    fn get(&self, key: &[ConstId]) -> &[u32] {
        self.keys
            .get(key)
            .map_or(&[], |k| &self.buckets[k as usize])
    }

    /// File fact `id`, whose tuple is `tuple`, under its projection
    /// (`key` is a reused buffer).
    fn file(&mut self, tuple: &[ConstId], id: u32, key: &mut Vec<ConstId>) {
        if project(tuple, &self.positions, key) {
            let (k, new) = self.keys.insert(key);
            if new {
                self.buckets.push(Vec::new());
            }
            self.buckets[k as usize].push(id);
        }
    }

    /// Drop fact `id`, whose tuple is `tuple`, from its bucket.
    fn remove(&mut self, tuple: &[ConstId], id: u32, key: &mut Vec<ConstId>) {
        if !project(tuple, &self.positions, key) {
            return;
        }
        if let Some(k) = self.keys.get(key) {
            let bucket = &mut self.buckets[k as usize];
            if let Ok(j) = bucket.binary_search(&id) {
                bucket.remove(j);
            }
        }
    }
}

/// The hash join indices of one program over one database: one index
/// per `(predicate, bound positions)` slot some atom probes. EDB slots are
/// filled from the database and follow its inserts and retractions; IDB
/// slots grow after every semi-naive round. The per-kind fields are
/// indexed by [`kind`].
#[derive(Default)]
struct JoinIndices {
    slots: Vec<JoinIndex>,
    /// Per kind and predicate: its slots, so extending with a new fact
    /// touches only its own predicate's slots.
    slots_by_pred: [Vec<Vec<usize>>; 2],
    /// Per kind, fact ids below this are folded into the slots.
    upto: [usize; 2],
}

/// The index of a fact kind in per-kind arrays: EDB facts 0, IDB facts 1.
#[inline]
fn kind(idb: bool) -> usize {
    usize::from(idb)
}

impl JoinIndices {
    /// The slot of `pred`'s index keyed by `positions` (IDB facts when
    /// `idb`), shared by every atom probing the same relation the same
    /// way; created empty on first use.
    fn slot(&mut self, pred: PredId, positions: &[usize], idb: bool) -> usize {
        let by_pred = &mut self.slots_by_pred[kind(idb)];
        if by_pred.len() <= pred as usize {
            by_pred.resize_with(pred as usize + 1, Vec::new);
        }
        let slots = &mut by_pred[pred as usize];
        if let Some(&slot) = slots
            .iter()
            .find(|&&s| self.slots[s].positions == positions)
        {
            return slot;
        }
        slots.push(self.slots.len());
        self.slots.push(JoinIndex::new(positions));
        self.slots.len() - 1
    }

    /// Fold the live facts of one kind (IDB when `idb`) appended to
    /// `store` since the last call into the slots of their predicate (ids
    /// only grow, so buckets stay ascending).
    fn extend(&mut self, idb: bool, store: &FactStore) {
        let (k, mut key) = (kind(idb), Vec::new());
        let by_pred = self.slots_by_pred[k].iter().enumerate();
        for (pred, slots) in by_pred.filter(|(_, slots)| !slots.is_empty()) {
            let facts = store.facts_of(pred as PredId);
            let from = facts.partition_point(|&i| (i as usize) < self.upto[k]);
            for &i in &facts[from..] {
                let tuple = store.fact(i).1;
                for &slot in slots {
                    self.slots[slot].file(tuple, i, &mut key);
                }
            }
        }
        self.upto[k] = store.len();
    }
}

/// The join plans and hash indices grounding probes, for one program over
/// one database: per rule its join plans, the program's constants
/// resolved into the database's domain, and the shared per-slot hash
/// indices.
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
    const_map: Vec<Option<ConstId>>,
    /// Per rule: it names a constant outside the active domain (see
    /// [`is_dead`]); a dead rule has no plans.
    dead: Vec<bool>,
    /// Per live rule: the unpinned plan first, then one plan pinned at
    /// each IDB body position, in body order. An index kept for delta
    /// grounding also pins each EDB body position (the seed round's
    /// plans); one built for a full grounding does not, so it maintains no
    /// slot that only the seed round probes.
    plans: Vec<Vec<JoinPlan>>,
    indices: JoinIndices,
}

impl std::fmt::Debug for GroundingIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroundingIndex")
            .field("rules", &self.plans.len())
            .field("slots", &self.indices.slots.len())
            .field("upto", &self.indices.upto)
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
        index.indices.extend(true, &gp.facts);
        Ok(index)
    }

    /// Validate the program, plan every live rule (pinning its EDB atoms
    /// too when `seeds`), and fill the EDB slots.
    fn build(program: &Program, db: &Database, seeds: bool) -> Result<Self, Error> {
        program.validate()?;
        let idbs = program.idbs();
        let const_map = resolve_consts(program, db);
        let dead: Vec<bool> = program
            .rules
            .iter()
            .map(|r| is_dead(r, &const_map))
            .collect();
        let mut indices = JoinIndices::default();
        let plans = program
            .rules
            .iter()
            .zip(&dead)
            .map(|(rule, &dead)| {
                if dead {
                    return Vec::new();
                }
                let pins = (0..rule.body.len())
                    .filter(|&pos| seeds || idbs.contains(&rule.body[pos].pred))
                    .map(Some);
                std::iter::once(None)
                    .chain(pins)
                    .map(|pin| plan(rule, pin, &idbs, &mut indices))
                    .collect()
            })
            .collect();
        indices.extend(false, &db.facts);
        Ok(GroundingIndex {
            const_map,
            dead,
            plans,
            indices,
        })
    }

    /// Drop retracted EDB facts from the indices — the index-side mirror
    /// of [`retract_facts_from_grounding`]. Call it after
    /// `Database::retract` (the retracted tuples stay readable by id).
    pub fn retract(&mut self, db: &Database, retracted: &[FactId]) {
        let (indices, mut key) = (&mut self.indices, Vec::new());
        for &fid in retracted {
            let (pred, tuple) = db.fact(fid);
            let slots = indices.slots_by_pred[kind(false)].get(pred as usize);
            for &slot in slots.into_iter().flatten() {
                indices.slots[slot].remove(tuple, fid, &mut key);
            }
        }
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
/// Round 0 runs every live rule's full join; each later round re-fires
/// the rules under their IDB-pinned plans, splitting the frontier fact
/// range into contiguous steal-granularity chunks probed concurrently
/// against the (read-only, shared) per-predicate hash indices, each
/// recording into a fragment of its own. Uneven tasks are load-balanced by work stealing
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
/// rounds' [`Counter::IndexProbes`] / [`Counter::FactsDiscovered`] /
/// [`Counter::GroundMergeNanos`], and per-worker shard stats
/// (`produced` counts recorded groundings). With a disabled recorder
/// (e.g. [`NOOP`]) no clock is read and no probe is counted: the join
/// loops pay one predictable never-taken branch and the result is
/// bit-identical either way.
pub fn ground(program: &Program, db: &Database, exec: &Exec) -> Result<GroundedProgram, Error> {
    let span = exec.rec.enabled().then(std::time::Instant::now);
    let mut index = GroundingIndex::build(program, db, false)?;
    let mut gp = GroundedProgram::default();
    let tasks = (0..program.rules.len())
        .filter(|&ri| !index.dead[ri])
        .map(Task::full)
        .collect();
    let mut g = Grounder {
        program,
        db,
        index: &mut index,
    };
    g.rounds(&mut gp, tasks, exec, Stage::GroundPhase1)?;
    if let Some(t) = span {
        exec.rec
            .stage_nanos(Stage::GroundPhase1, t.elapsed().as_nanos() as u64);
    }
    Ok(gp)
}

/// The round merge: intern each fragment's new heads in task order (the
/// sequential first-discovery order) and append the fragment with its
/// pending heads resolved. Returns the fragments' index probes.
fn merge_fragments(gp: &mut GroundedProgram, fragments: Vec<Fragment>) -> u64 {
    let (mut probes, mut ids) = (0, Vec::new());
    for frag in fragments {
        probes += frag.probes;
        ids.clear();
        let heads = &frag.new_heads;
        ids.extend((0..heads.len()).map(|k| gp.facts.insert(frag.head_pred, heads.row(k))));
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
/// Delta grounding runs the round loop of full grounding from a
/// different first round, recording every grounding as it is enumerated
/// (no second enumeration pass):
/// 1. **Seed** — each live rule is re-fired under its plan pinned at
///    each EDB body position whose predicate gained facts: that atom
///    takes the new facts, earlier EDB atoms the old ones (see
///    `Matcher::enumerate`). Revived rules run their full join. IDB
///    atoms see the old facts only, since none is new yet.
/// 2. **Frontier rounds** — the usual semi-naive rounds over the newly
///    derived IDB facts, which are *appended* to `gp`'s fact store
///    (existing fact indices never move).
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
/// design; the full-ground path stays the parallel one). Reports into
/// `exec.rec` what [`ground`] reports, under [`Stage::DeltaGround`]: one
/// span, one [`RoundStats`] per round (the seed is round 0) and the
/// rounds' counters, plus [`Counter::InsertRulesAppended`]. Fails with
/// [`Error::GroundingLimit`] when the extended program would exceed
/// `exec.max_rules`; `gp` and `index` are left partially extended and
/// must be discarded by the caller (the `Engine` falls back to lazy
/// re-grounding).
pub fn extend_grounding(
    program: &Program,
    db: &Database,
    gp: &mut GroundedProgram,
    index: &mut GroundingIndex,
    exec: &Exec,
) -> Result<(), Error> {
    let rec = exec.rec;
    let span = rec.enabled().then(std::time::Instant::now);
    let edb_start = index.indices.upto[kind(false)];
    // Revival: a constant the index could not resolve is in the domain
    // now. Constant ids never change once interned, so comparing the
    // resolved maps detects exactly that.
    let const_map = resolve_consts(program, db);
    let revived: Vec<bool> = if const_map == index.const_map {
        index.indices.extend(false, &db.facts);
        vec![false; program.rules.len()]
    } else {
        let was_dead = index.dead.clone();
        *index = GroundingIndex::new(program, db, gp)?;
        let now_dead = &index.dead;
        was_dead
            .iter()
            .zip(now_dead)
            .map(|(&was, &now)| was && !now)
            .collect()
    };
    let base_rules = gp.rules.len();
    let mut g = Grounder { program, db, index };
    let tasks = g.seed_tasks(edb_start, &revived);
    let seq = Exec {
        threads: 1,
        ..*exec
    };
    g.rounds(gp, tasks, &seq, Stage::DeltaGround)?;
    if let Some(t) = span {
        let appended = (gp.rules.len() - base_rules) as u64;
        rec.counter(Counter::InsertRulesAppended, appended);
        rec.stage_nanos(Stage::DeltaGround, t.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Remove — in place, in one pass — every grounded rule whose EDB body
/// references one of the `retracted` fact ids, renumbering the survivors
/// (relative order kept) and rebuilding `rules_by_head` and `dependents`.
/// Returns the head fact indices of the removed rules, deduplicated and
/// ascending: the roots of the DRed cone that incremental value
/// maintenance must rederive. A caller keeping a [`GroundingIndex`]
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

/// The mutable state of one join enumeration: the bindings, the body
/// matches in join order, and a probe-key buffer reused across the whole
/// enumeration (a key is dead once its index probe returns, so deeper
/// levels may clobber it freely).
#[derive(Default)]
struct JoinState {
    bindings: Bindings,
    matches: Vec<BodyMatch>,
    key: Vec<ConstId>,
}

/// The ids in `[lo, hi)` of an ascending id list (`lo <= hi`).
fn id_range(ids: &[u32], lo: usize, hi: usize) -> &[u32] {
    let below = |bound: usize| ids.partition_point(|&i| (i as usize) < bound);
    &ids[below(lo)..below(hi)]
}

/// One rule's indexed join over EDB ∪ derivable-IDB, under one plan.
struct Matcher<'a> {
    /// The facts of each kind, indexed by [`kind`]: the database's EDB
    /// facts and the grounding's IDB facts.
    stores: [&'a FactStore; 2],
    const_map: &'a [Option<ConstId>],
    rule: &'a Rule,
    plan: &'a JoinPlan,
    indices: &'a JoinIndices,
    /// Atoms left of the pinned one and of its kind take ids below this.
    older: usize,
    /// Telemetry gate: when `false` (disabled recorder) the probe counter
    /// below is never touched — the hot join loop pays one predictable
    /// branch and nothing else.
    count_probes: bool,
    /// Index probes performed, counted per matcher (one matcher per work
    /// item, so the counter is thread-private by construction).
    probes: Cell<u64>,
}

impl<'a> Matcher<'a> {
    /// Count one index probe (when telemetry is enabled). The direct read
    /// of an atom with no bound argument counts as one too, so the count
    /// stays one per joined atom.
    #[inline]
    fn probe(&self) {
        if self.count_probes {
            self.probes.set(self.probes.get() + 1);
        }
    }

    /// Enumerate the substitutions satisfying the rule's body under the
    /// plan, invoking `on_match(bindings, matches)` with the matches in
    /// join order (the pinned atom first). Stops as soon as the callback
    /// breaks.
    ///
    /// A pinned atom iterates its predicate's facts with id in `[lo, hi)`
    /// (IDB fact indices or EDB fact ids) in ascending order
    /// **outermost**, so the enumeration is keyed by pinned fact first:
    /// concatenating the outputs of consecutive ranges reproduces the
    /// whole range's enumeration exactly. Atoms left of the pinned one and
    /// of its kind (both IDB, or both EDB) take only ids below `older`;
    /// later atoms are unrestricted. Summing over the pinned positions
    /// therefore enumerates every grounding with a fact at or above
    /// `older` exactly once — at its first such position:
    /// - an IDB pin re-fires the rule over a round's frontier (`older` is
    ///   the frontier start);
    /// - an EDB pin seeds a delta from the inserted facts (`older` is the
    ///   first inserted id). The seed runs before the delta derives any
    ///   IDB fact, so every IDB fact it sees is old.
    ///
    /// The unpinned plan ignores `lo`, `hi` and `older`.
    fn enumerate(&self, lo: usize, hi: usize, on_match: &mut impl OnMatch) {
        let mut st = JoinState::default();
        let Some(pin) = self.plan.pin else {
            let _ = self.recurse(0, &mut st, on_match);
            return;
        };
        let (atom, idb) = (&self.rule.body[pin], self.plan.pin_idb);
        for &c in id_range(self.stores[kind(idb)].facts_of(atom.pred), lo, hi) {
            if self.descend(0, atom, idb, c, &mut st, on_match).is_break() {
                return;
            }
        }
    }

    /// Join the plan's `rest` atoms from the `k`-th on, by one index probe
    /// per atom: the current bindings projected onto the atom's pre-bound
    /// positions (constants resolved statically). An atom with no
    /// pre-bound position takes every fact of its predicate instead.
    fn recurse(
        &self,
        k: usize,
        st: &mut JoinState,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        let plan = self.plan;
        let Some(step) = plan.rest.get(k) else {
            return on_match(&st.bindings, &st.matches);
        };
        let atom = &self.rule.body[step.pos];
        self.probe();
        let candidates = match step.slot {
            None => self.stores[kind(step.idb)].facts_of(atom.pred),
            Some(slot) => {
                st.key.clear();
                st.key
                    .extend(step.bound.iter().map(|&p| match &atom.terms[p] {
                        Term::Const(c) => {
                            self.const_map[*c as usize].expect("dead rules are skipped")
                        }
                        Term::Var(v) => st.bindings.get(*v).expect("pre-bound by plan"),
                    }));
                self.indices.slots[slot].get(&st.key)
            }
        };
        // `rest` skips the pin, so its first `pin` atoms are the ones left
        // of it. Candidates ascend: the older facts are a prefix.
        let to = if plan.pin.is_some_and(|pin| k < pin) && step.idb == plan.pin_idb {
            candidates.partition_point(|&i| (i as usize) < self.older)
        } else {
            candidates.len()
        };
        for &c in &candidates[..to] {
            self.descend(k + 1, atom, step.idb, c, st, on_match)?;
        }
        ControlFlow::Continue(())
    }

    /// Bind `atom` to fact `c` (an IDB fact index when `is_idb`, else an
    /// EDB fact id) and on success join the `rest` atoms from the `k`-th
    /// on; then undo the binding.
    fn descend(
        &self,
        k: usize,
        atom: &Atom,
        is_idb: bool,
        c: u32,
        st: &mut JoinState,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        let tuple = self.stores[kind(is_idb)].fact(c).1;
        let Some(mark) = self.bind_atom(atom, tuple, &mut st.bindings) else {
            return ControlFlow::Continue(());
        };
        st.matches.push(if is_idb {
            BodyMatch::Idb(c)
        } else {
            BodyMatch::Edb(c)
        });
        let flow = self.recurse(k, st, on_match);
        st.matches.pop();
        st.bindings.truncate(mark);
        flow
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
}

/// One discovery work item: rule `ri` joined under its plan `pi`, which,
/// when pinned, takes pinned facts with id in `[lo, hi)` and older facts
/// below `older` (see [`Matcher::enumerate`]). A round's task list, in
/// order, *is* the sequential enumeration order.
#[derive(Clone, Copy, Debug)]
struct Task {
    ri: usize,
    pi: usize,
    lo: usize,
    hi: usize,
    older: usize,
}

impl Task {
    /// The full join of rule `ri` (its unpinned plan).
    fn full(ri: usize) -> Task {
        Task {
            ri,
            pi: 0,
            lo: 0,
            hi: 0,
            older: 0,
        }
    }
}

/// Consumer of enumerated groundings: `(rule index, head tuple, body
/// matches in body-atom order)`. The head tuple is borrowed from a
/// buffer the grounder reuses across calls; breaking stops the task's
/// enumeration.
trait GroundingSink: FnMut(usize, &[ConstId], &[BodyMatch]) -> ControlFlow<()> {}
impl<F: FnMut(usize, &[ConstId], &[BodyMatch]) -> ControlFlow<()>> GroundingSink for F {}

/// A join's matches in join order — the pinned atom first, then the rest
/// in body order — put back in body-atom order.
fn in_atom_order<'b>(
    pin: Option<usize>,
    matches: &'b [BodyMatch],
    buf: &'b mut Vec<BodyMatch>,
) -> &'b [BodyMatch] {
    let Some(pin) = pin.filter(|&p| p > 0) else {
        return matches;
    };
    buf.clear();
    buf.extend_from_slice(&matches[1..=pin]);
    buf.push(matches[0]);
    buf.extend_from_slice(&matches[pin + 1..]);
    buf
}

/// One discovery task's groundings (see the module docs): a CSR rule
/// list whose heads are fact indices, or [`PENDING_HEAD`]-tagged rows of
/// `new_heads` for heads that were not interned when the round began.
struct Fragment {
    rules: CompactRules,
    /// Predicate of every head: a task enumerates one program rule.
    head_pred: PredId,
    /// The task's distinct not-yet-interned head tuples, in
    /// first-discovery order.
    new_heads: Tuples,
    /// Index probes the task performed.
    probes: u64,
}

/// The semi-naive discovery machinery shared by [`ground`] and
/// [`extend_grounding`]: a program and a database, the
/// [`GroundingIndex`] probed against them, the round task lists, and the
/// one round loop.
struct Grounder<'p> {
    program: &'p Program,
    db: &'p Database,
    index: &'p mut GroundingIndex,
}

impl Grounder<'_> {
    /// Rule `ri`'s plans pinned at an IDB atom (`idb`) or at an EDB atom
    /// (`!idb`), as `(plan index, pinned predicate)` in body order.
    fn pinned(&self, ri: usize, idb: bool) -> impl Iterator<Item = (usize, PredId)> + '_ {
        let body = &self.program.rules[ri].body;
        let plans = self.index.plans[ri].iter().enumerate();
        plans
            .filter(move |(_, plan)| plan.pin_idb == idb)
            .filter_map(move |(pi, plan)| Some((pi, body[plan.pin?].pred)))
    }

    /// The work items of a frontier round over the facts
    /// `[start, gp.num_idb_facts())`: one item per `(rule, IDB-pinned
    /// plan, frontier sub-range)`, in that lexicographic order. With
    /// `threads > 1` the ranges are steal-granularity chunks (more chunks
    /// than workers), so a skewed frontier does not serialize the round;
    /// the chunking never changes the concatenated enumeration.
    fn frontier_tasks(&self, gp: &GroundedProgram, start: usize, threads: usize) -> Vec<Task> {
        let len = gp.num_idb_facts() - start;
        let ranges = if threads <= 1 {
            crate::par::shard_bounds(len, 1)
        } else {
            crate::par::chunk_bounds(len, threads)
        };
        let mut tasks = Vec::new();
        for ri in 0..self.index.plans.len() {
            for (pi, _) in self.pinned(ri, true) {
                tasks.extend(ranges.iter().map(|&(lo, hi)| Task {
                    ri,
                    pi,
                    lo: start + lo,
                    hi: start + hi,
                    older: start,
                }));
            }
        }
        tasks
    }

    /// The seed round of a delta grounding over the EDB facts inserted
    /// at ids `>= edb_start`: the full join of each `revived` rule, and
    /// for every other rule one item per EDB-pinned plan whose predicate
    /// gained facts, in `(rule, plan)` order.
    fn seed_tasks(&self, edb_start: usize, revived: &[bool]) -> Vec<Task> {
        let gained = |pred| {
            let facts = self.db.facts_of(pred);
            facts.last().is_some_and(|&f| (f as usize) >= edb_start)
        };
        let mut tasks = Vec::new();
        for (ri, &revived) in revived.iter().enumerate() {
            if revived {
                tasks.push(Task::full(ri));
                continue;
            }
            for (pi, pred) in self.pinned(ri, false) {
                if gained(pred) {
                    tasks.push(Task {
                        ri,
                        pi,
                        lo: edb_start,
                        hi: usize::MAX,
                        older: edb_start,
                    });
                }
            }
        }
        tasks
    }

    /// The round loop of [`ground`] and [`extend_grounding`]: discover
    /// `tasks` into `gp`, then re-fire every rule over the facts each
    /// round derived until a round derives none, and rebuild
    /// `rules_by_head` / `dependents` once at the end.
    ///
    /// Each round discovers on up to `exec.threads` workers, merges the
    /// fragments into `gp` in task order and folds the new facts into the
    /// join indices. It reports one [`RoundStats`] under `stage` and the
    /// [`Counter::IndexProbes`] / [`Counter::FactsDiscovered`] /
    /// [`Counter::GroundMergeNanos`] of the round into `exec.rec`. Fails
    /// with [`Error::GroundingLimit`] as soon as `gp` would hold more
    /// than `exec.max_rules` rules.
    fn rounds(
        &mut self,
        gp: &mut GroundedProgram,
        mut tasks: Vec<Task>,
        exec: &Exec,
        stage: Stage,
    ) -> Result<(), Error> {
        let rec = exec.rec;
        let cap = RuleCap::new(match exec.max_rules {
            usize::MAX => usize::MAX,
            max => max.saturating_sub(gp.rules.len()),
        });
        let mut frontier = 0;
        for round in 0u64.. {
            let fragments = self.discover(gp, &tasks, exec, stage, &cap);
            if cap.exceeded() {
                return Err(Error::GroundingLimit {
                    max_rules: exec.max_rules,
                });
            }
            let merge_start = rec.enabled().then(std::time::Instant::now);
            let len_before = gp.num_idb_facts();
            let probes = merge_fragments(gp, fragments);
            let delta = gp.num_idb_facts() - len_before;
            if delta > 0 {
                self.index.indices.extend(true, &gp.facts);
            }
            if let Some(t) = merge_start {
                rec.counter(Counter::GroundMergeNanos, t.elapsed().as_nanos() as u64);
                rec.counter(Counter::IndexProbes, probes);
                rec.counter(Counter::FactsDiscovered, delta as u64);
                rec.round(
                    stage,
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
            if delta == 0 {
                break;
            }
            tasks = self.frontier_tasks(gp, len_before, exec.threads);
            frontier = delta;
        }
        gp.index_rules();
        Ok(())
    }

    /// Enumerate one task's groundings into `sink`, bodies in body-atom
    /// order. Returns the index probes performed (counted only when
    /// `count_probes`).
    fn run_task(
        &self,
        gp: &GroundedProgram,
        task: Task,
        count_probes: bool,
        sink: &mut impl GroundingSink,
    ) -> u64 {
        let Task {
            ri,
            pi,
            lo,
            hi,
            older,
        } = task;
        let (rule, plan) = (&self.program.rules[ri], &self.index.plans[ri][pi]);
        let const_map = &self.index.const_map;
        let m = Matcher {
            stores: [&self.db.facts, &gp.facts],
            const_map,
            rule,
            plan,
            indices: &self.index.indices,
            older,
            count_probes,
            probes: Cell::new(0),
        };
        let (mut head, mut body) = (Vec::new(), Vec::new());
        m.enumerate(lo, hi, &mut |bindings, matches| {
            instantiate_into(&rule.head, bindings, const_map, &mut head);
            sink(ri, &head, in_atom_order(plan.pin, matches, &mut body))
        });
        m.probes.get()
    }

    /// Run one discovery round's `tasks` on up to `exec.threads` workers,
    /// each task recording its groundings into a [`Fragment`]; fragments
    /// come back in task order. Every grounding passes through `cap`
    /// first; `stage` tags the per-worker shard stats reported into
    /// `exec.rec`.
    fn discover(
        &self,
        gp: &GroundedProgram,
        tasks: &[Task],
        exec: &Exec,
        stage: Stage,
        cap: &RuleCap,
    ) -> Vec<Fragment> {
        let count_probes = exec.rec.enabled();
        crate::par::run_indexed_recorded(
            tasks.len(),
            exec.threads,
            exec.rec,
            stage,
            |f: &Fragment| f.rules.len() as u64,
            |t| {
                let head_atom = &self.program.rules[tasks[t].ri].head;
                let head_pred = head_atom.pred;
                let mut rules = CompactRules::new();
                let mut new_heads = Tuples::new(head_atom.terms.len());
                let mut probes = 0;
                if !cap.exceeded() {
                    probes = self.run_task(gp, tasks[t], count_probes, &mut |ri, head, body| {
                        if !cap.admit() {
                            return ControlFlow::Break(());
                        }
                        let h = match gp.facts.id(head_pred, head) {
                            Some(i) => i,
                            None => PENDING_HEAD | new_heads.insert(head).0,
                        };
                        rules.push_matches(ri, h, body);
                        ControlFlow::Continue(())
                    });
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::{Bool, Semiring, Tropical};
    use std::collections::HashMap;

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    /// `rules_by_head` and `dependents` equal the per-fact lists built
    /// the slow way: every fact has an entry, and each rule is listed
    /// under its head and, once, under each distinct IDB body fact.
    fn assert_by_head_coherent(gp: &GroundedProgram) {
        let n = gp.num_idb_facts();
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
        db.insert(a, &[v3]);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let u = p.preds.get("U").unwrap();
        assert_eq!(gp.facts_of(u).len(), 4); // v3, v2, v1, v0
    }

    /// Every view of the fact store agrees: `idb_fact(i)` resolves back
    /// to `i` through `fact`, each predicate's `facts_of` is exactly the
    /// ascending scan of `idb_facts()` for it, and every fact is listed
    /// under its own predicate.
    fn assert_fact_store_coherent(gp: &GroundedProgram) {
        let mut by_pred: HashMap<PredId, Vec<u32>> = HashMap::new();
        for (i, (pred, tuple)) in gp.idb_facts().enumerate() {
            assert_eq!(gp.idb_fact(i), (pred, tuple));
            assert_eq!(gp.fact(pred, tuple), Some(i), "fact {i}");
            by_pred.entry(pred).or_default().push(i as u32);
        }
        assert_eq!(gp.idb_facts().len(), gp.num_idb_facts());
        for (pred, ids) in &by_pred {
            assert_eq!(gp.facts_of(*pred), &ids[..], "pred {pred}");
        }
    }

    #[test]
    fn fact_store_views_agree_over_several_predicates() {
        // Predicates of arity 0, 1, 2 and 3, with facts interleaved
        // across predicates in discovery order.
        let mut p = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- T(X,Z), E(Z,Y).\n\
             R(Y) :- T(v0, Y).\n\
             P(X,Y,Z) :- T(X,Y), E(Y,Z).\n\
             Nonempty(Y) :- R(Y).",
        )
        .unwrap();
        // The parser has no nullary atoms: `Nonempty() :- R(Y).`
        p.rules[4].head.terms.clear();
        let g = generators::gnm(7, 18, &["E"], 3);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        assert_fact_store_coherent(&gp);
        let arity = |name| {
            let pred = p.preds.get(name).unwrap();
            let facts = gp.facts_of(pred);
            assert!(!facts.is_empty(), "{name} has facts");
            gp.idb_fact(facts[0] as usize).1.len()
        };
        assert_eq!(
            [arity("Nonempty"), arity("R"), arity("T"), arity("P")],
            [0, 1, 2, 3]
        );
        let nonempty = p.preds.get("Nonempty").unwrap();
        assert_eq!(gp.facts_of(nonempty).len(), 1);
        // Lookups under the wrong predicate or arity miss.
        let (t, tuple) = gp.idb_fact(gp.facts_of(p.preds.get("T").unwrap())[0] as usize);
        assert_eq!(gp.fact(nonempty, tuple), None);
        assert_eq!(gp.fact(t, &tuple[..1]), None);
        assert_eq!(gp.fact(p.preds.get("E").unwrap(), tuple), None);
        assert!(gp.facts_of(p.preds.get("E").unwrap()).is_empty());
        assert!(gp.fact_heap_bytes() >= gp.num_idb_facts() * 12);
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
            for (pred, tuple) in gp_lin.idb_facts() {
                if pred == t {
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
                    db.insert(a, &[v0]);
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
                    assert_eq!(
                        owned_facts(&seq),
                        owned_facts(&par),
                        "facts, threads={threads}"
                    );
                    assert_eq!(seq.rules, par.rules, "rules, threads={threads}");
                    assert_fact_store_coherent(&par);
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

    /// The grounding's IDB facts by value, in fact-index order.
    fn owned_facts(gp: &GroundedProgram) -> Vec<Fact> {
        gp.idb_facts().map(|(p, t)| (p, t.to_vec())).collect()
    }

    /// IDB fact `i` by value.
    fn fact_at(gp: &GroundedProgram, i: usize) -> Fact {
        let (pred, tuple) = gp.idb_fact(i);
        (pred, tuple.to_vec())
    }

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
                            let (pred, tuple) = fact_at(gp, *idb.next().unwrap() as usize);
                            Ref::Idb(pred, tuple)
                        } else {
                            Ref::Edb(*edb.next().unwrap())
                        }
                    })
                    .collect();
                assert!(idb.next().is_none() && edb.next().is_none());
                (ri, fact_at(gp, gp.rules.head(i)), body)
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
            for (fact, v) in owned_facts(gp).iter().zip(&out.values) {
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
                        db.insert(n, &[c]);
                    }
                }
                let gp = ground(&p, &db, &Exec::default()).unwrap();
                let (facts, rows) = reference(&p, &db);
                let mut got_facts = owned_facts(&gp);
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
                assert_eq!(owned_facts(&par), owned_facts(&gp));
            }
        }
    }

    /// Canonical, order-insensitive view of a grounded program: the fact
    /// set plus every grounded rule by value (EDB fact ids are comparable
    /// directly when both databases inserted facts in the same order).
    fn canon(p: &Program, gp: &GroundedProgram) -> (Vec<Fact>, Vec<RuleRow>) {
        let mut facts = owned_facts(gp);
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
            // Two EDB atoms per body: a batch inserting both facts of one
            // body must record it once, at its first inserted position.
            parse_program("T(X,Y) :- E(X,Z), E(Z,Y).\nT(X,Y) :- E(X,Z), T(Z,W), E(W,Y).").unwrap(),
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
                        db.insert(e, &t);
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
                        assert_fact_store_coherent(&gp);
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
            let (pred, tuple) = gp.idb_fact(i as usize);
            rebuilt.fact(pred, tuple).is_some()
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
                            db.insert(pred, &tuple);
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
        db.insert(a, &[hub]);
        db.insert(e, &[hub, v0]);
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        let gp_full = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(canon(&p, &gp), canon(&p, &gp_full));
        let r = p.preds.get("R").unwrap();
        // hub → v0 → v1 → v2 → v3.
        assert_eq!(gp.facts_of(r).len(), 4);
        // A second hub edge goes through the rebuilt index.
        let v2 = db.node_const(2).unwrap();
        db.insert(e, &[hub, v2]);
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        assert_eq!(
            canon(&p, &gp),
            canon(&p, &ground(&p, &db, &Exec::default()).unwrap())
        );
        assert_by_head_coherent(&gp);
    }

    #[test]
    fn revived_rule_reads_an_unbound_idb_atom_over_derived_facts() {
        // `S(Y) :- R(Y), A(hub).` is dead until `hub` enters the domain.
        // Its unpinned plan starts with `R(Y)`, no argument bound, so the
        // revival's full join reads every `R` fact derived before it.
        let mut p = parse_program("R(Y) :- E(X,Y).\nS(Y) :- R(Y), A(hub).").unwrap();
        let (mut db, _) = Database::from_graph(&mut p, &generators::path(3, "E"));
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let (r, s) = (p.preds.get("R").unwrap(), p.preds.get("S").unwrap());
        assert_eq!((gp.facts_of(r).len(), gp.facts_of(s).len()), (3, 0));
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let hub = db.constant("hub");
        db.insert(p.preds.get("A").unwrap(), &[hub]);
        extend_grounding(&p, &db, &mut gp, &mut index, &Exec::default()).unwrap();
        let fresh = ground(&p, &db, &Exec::default()).unwrap();
        assert_eq!(canon(&p, &gp), canon(&p, &fresh));
        assert_eq!(gp.facts_of(s).len(), 3);
        assert_by_head_coherent(&gp);
        assert_fact_store_coherent(&gp);
    }

    #[test]
    fn unbound_edb_atom_skips_retracted_facts_on_the_delta_path() {
        // `Q(X,Y) :- R(X), B(Y).` joins `B` with nothing bound. After
        // `B(v1)` is retracted, re-firing the rule over a new `R` fact
        // must not see it; re-inserting it seeds the rule again with
        // every `R` fact (an unbound IDB atom).
        let p = parse_program("R(X) :- A(X).\nQ(X,Y) :- R(X), B(Y).").unwrap();
        let (a, b) = (p.preds.get("A").unwrap(), p.preds.get("B").unwrap());
        let q = p.preds.get("Q").unwrap();
        let mut db = Database::new();
        let v: Vec<ConstId> = (0..4).map(|i| db.constant(&format!("v{i}"))).collect();
        db.insert(a, &[v[0]]);
        db.insert(b, &[v[1]]);
        db.insert(b, &[v[2]]);
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let fid = db.retract(b, &[v[1]]).unwrap();
        retract_facts_from_grounding(&mut gp, &[fid]);
        index.retract(&db, &[fid]);
        let mut check = |db: &mut Database, pred: PredId, c: ConstId| {
            db.insert(pred, &[c]);
            extend_grounding(&p, db, &mut gp, &mut index, &Exec::default()).unwrap();
            let fresh = ground(&p, db, &Exec::default()).unwrap();
            assert_eq!(live_view(&p, &gp, &fresh), store_rows(&p, &fresh));
            assert_by_head_coherent(&gp);
            assert_fact_store_coherent(&gp);
            gp.fact(q, &[v[3], v[1]]).is_some()
        };
        assert!(!check(&mut db, a, v[3]), "Q(v3,v1) joined a retracted fact");
        assert!(check(&mut db, b, v[1]), "re-inserted B(v1) seeds Q(v3,v1)");
    }

    #[test]
    fn extend_grounding_reports_its_rounds_under_delta_ground() {
        let mut p = tc();
        let (mut db, _) = Database::from_graph(&mut p, &generators::path(3, "E"));
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let e = p.preds.get("E").unwrap();
        let t = vec![db.node_const(3).unwrap(), db.constant("v4")];
        db.insert(e, &t);
        let m = telemetry::PipelineMetrics::new(true);
        let exec = Exec {
            rec: &m,
            ..Default::default()
        };
        extend_grounding(&p, &db, &mut gp, &mut index, &exec).unwrap();
        // The seed derives T(v3,v4) and, through the old T(x,v3), the
        // other three T(x,v4); the frontier round over them derives none.
        let report = m.report();
        let rounds: Vec<(u64, u64, u64)> = report
            .rounds_of(Stage::DeltaGround)
            .iter()
            .map(|r| (r.round, r.frontier, r.delta))
            .collect();
        assert_eq!(rounds, [(0, 0, 4), (1, 4, 0)]);
        assert!(report.rounds_of(Stage::GroundPhase1).is_empty());
        assert_eq!(m.counter_value(Counter::FactsDiscovered), 4);
        assert_eq!(m.counter_value(Counter::InsertRulesAppended), 4);
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
                db.insert(e, &t);
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
            assert!(root < gp.num_idb_facts());
        }
        // Zombie invariant: facts are retained even when underivable.
        let t = p.preds.get("T").unwrap();
        assert_eq!(gp.facts_of(t).len(), 6);
    }

    /// A grounding in store order: every IDB fact in fact-index order,
    /// then every grounded rule as `rule:head<-[IDB body ids][EDB body
    /// ids]`.
    fn store_order(db: &Database, gp: &GroundedProgram) -> String {
        let facts: Vec<String> = gp
            .idb_facts()
            .map(|(_, t)| {
                let names: Vec<&str> = t.iter().map(|&c| db.consts.name(c)).collect();
                names.join(",")
            })
            .collect();
        let rules: Vec<String> = (0..gp.rules.len())
            .map(|r| {
                format!(
                    "{}:{}<-{:?}{:?}",
                    gp.rules.rule_index(r),
                    gp.rules.head(r),
                    gp.rules.body_idb(r),
                    gp.rules.body_edb(r)
                )
            })
            .collect();
        format!("facts [{}] rules [{}]", facts.join(" "), rules.join(" "))
    }

    #[test]
    fn delta_grounding_order_is_pinned() {
        // Rebuild comparisons sort; this pins the exact order a
        // maintained grounding stores facts and rules in, through batched
        // inserts, a rule revival (`hub` enters the domain), a retract
        // and an insert after it.
        let mut p = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- E(X,Z), T(Z,W), E(W,Y).\n\
             T(X,Y) :- T(X,Z), T(Z,Y).\n\
             T(hub,Y) :- E(Y,hub).",
        )
        .unwrap();
        let g = generators::gnm(4, 6, &["E"], 7);
        let e = p.preds.intern("E");
        let mut db = Database::new();
        for i in 0..g.num_nodes() {
            db.constant(&format!("v{i}"));
        }
        let edge = |db: &mut Database, a: &str, b: &str| vec![db.constant(a), db.constant(b)];
        let edges: Vec<(String, String)> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| (format!("v{u}"), format!("v{v}")))
            .collect();
        for (a, b) in &edges[..3] {
            let t = edge(&mut db, a, b);
            db.insert(e, &t);
        }
        let mut gp = ground(&p, &db, &Exec::default()).unwrap();
        let mut index = GroundingIndex::new(&p, &db, &gp).unwrap();
        let mut steps = vec![store_order(&db, &gp)];
        let extend = |db: &mut Database,
                      gp: &mut GroundedProgram,
                      index: &mut GroundingIndex,
                      batch: &[(&str, &str)]| {
            for (a, b) in batch {
                let t = edge(db, a, b);
                db.insert(e, &t);
            }
            extend_grounding(&p, db, gp, index, &Exec::default()).unwrap();
            store_order(db, gp)
        };
        let rest: Vec<(&str, &str)> = edges[3..]
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        steps.push(extend(&mut db, &mut gp, &mut index, &rest[..2]));
        steps.push(extend(&mut db, &mut gp, &mut index, &[("v2", "hub")]));
        let t = edge(&mut db, rest[0].0, rest[0].1);
        let fid = db.retract(e, &t).unwrap();
        retract_facts_from_grounding(&mut gp, &[fid]);
        index.retract(&db, &[fid]);
        steps.push(store_order(&db, &gp));
        steps.push(extend(&mut db, &mut gp, &mut index, &rest[2..]));
        let expected: &[&str] = &[
            "facts [v1,v0 v2,v1 v0,v1 v1,v1 v2,v0 v0,v0] rules [0:0<-[][0] 0:1<-[][1] 0:2<-[][2] 1:1<-[0][1, 2] 1:2<-[0][2, 2] 1:0<-[2][0, 0] 2:3<-[0, 2][] 2:4<-[1, 0][] 2:5<-[2, 0][] 1:4<-[3][1, 0] 1:5<-[3][2, 0] 1:3<-[5][0, 2] 2:0<-[3, 0][] 2:3<-[3, 3][] 2:1<-[4, 2][] 2:4<-[4, 5][] 2:2<-[5, 2][] 2:5<-[5, 5][] 2:1<-[1, 3][] 2:2<-[2, 3][] 2:0<-[0, 5][]]",
            "facts [v1,v0 v2,v1 v0,v1 v1,v1 v2,v0 v0,v0 v2,v3] rules [0:0<-[][0] 0:1<-[][1] 0:2<-[][2] 1:1<-[0][1, 2] 1:2<-[0][2, 2] 1:0<-[2][0, 0] 2:3<-[0, 2][] 2:4<-[1, 0][] 2:5<-[2, 0][] 1:4<-[3][1, 0] 1:5<-[3][2, 0] 1:3<-[5][0, 2] 2:0<-[3, 0][] 2:3<-[3, 3][] 2:1<-[4, 2][] 2:4<-[4, 5][] 2:2<-[5, 2][] 2:5<-[5, 5][] 2:1<-[1, 3][] 2:2<-[2, 3][] 2:0<-[0, 5][] 0:6<-[][3] 0:4<-[][4] 1:4<-[2][4, 0] 1:1<-[5][4, 2]]",
            "facts [v1,v0 v2,v1 v0,v1 v1,v1 v2,v0 v0,v0 v2,v3 v2,hub hub,v2 v2,v2 hub,v1 hub,v0 hub,v3 hub,hub] rules [0:0<-[][0] 0:1<-[][1] 0:2<-[][2] 1:1<-[0][1, 2] 1:2<-[0][2, 2] 1:0<-[2][0, 0] 2:3<-[0, 2][] 2:4<-[1, 0][] 2:5<-[2, 0][] 1:4<-[3][1, 0] 1:5<-[3][2, 0] 1:3<-[5][0, 2] 2:0<-[3, 0][] 2:3<-[3, 3][] 2:1<-[4, 2][] 2:4<-[4, 5][] 2:2<-[5, 2][] 2:5<-[5, 5][] 2:1<-[1, 3][] 2:2<-[2, 3][] 2:0<-[0, 5][] 0:6<-[][3] 0:4<-[][4] 1:4<-[2][4, 0] 1:1<-[5][4, 2] 0:7<-[][5] 3:8<-[][5] 1:1<-[8][5, 1] 1:6<-[8][5, 3] 1:4<-[8][5, 4] 1:7<-[8][5, 5] 2:9<-[7, 8][] 2:10<-[8, 1][] 2:11<-[8, 4][] 2:12<-[8, 6][] 2:13<-[8, 7][] 1:4<-[10][5, 0] 1:1<-[11][5, 2] 2:1<-[9, 1][] 2:4<-[9, 4][] 2:6<-[9, 6][] 2:7<-[9, 7][] 2:9<-[9, 9][] 2:11<-[10, 0][] 2:10<-[10, 3][] 2:10<-[11, 2][] 2:11<-[11, 5][] 2:8<-[13, 8][] 2:10<-[13, 10][] 2:11<-[13, 11][] 2:12<-[13, 12][] 2:13<-[13, 13][] 2:8<-[8, 9][] 2:1<-[7, 10][] 2:4<-[7, 11][] 2:6<-[7, 12][] 2:7<-[7, 13][]]",
            "facts [v1,v0 v2,v1 v0,v1 v1,v1 v2,v0 v0,v0 v2,v3 v2,hub hub,v2 v2,v2 hub,v1 hub,v0 hub,v3 hub,hub] rules [0:0<-[][0] 0:1<-[][1] 0:2<-[][2] 1:1<-[0][1, 2] 1:2<-[0][2, 2] 1:0<-[2][0, 0] 2:3<-[0, 2][] 2:4<-[1, 0][] 2:5<-[2, 0][] 1:4<-[3][1, 0] 1:5<-[3][2, 0] 1:3<-[5][0, 2] 2:0<-[3, 0][] 2:3<-[3, 3][] 2:1<-[4, 2][] 2:4<-[4, 5][] 2:2<-[5, 2][] 2:5<-[5, 5][] 2:1<-[1, 3][] 2:2<-[2, 3][] 2:0<-[0, 5][] 0:4<-[][4] 1:4<-[2][4, 0] 1:1<-[5][4, 2] 0:7<-[][5] 3:8<-[][5] 1:1<-[8][5, 1] 1:4<-[8][5, 4] 1:7<-[8][5, 5] 2:9<-[7, 8][] 2:10<-[8, 1][] 2:11<-[8, 4][] 2:12<-[8, 6][] 2:13<-[8, 7][] 1:4<-[10][5, 0] 1:1<-[11][5, 2] 2:1<-[9, 1][] 2:4<-[9, 4][] 2:6<-[9, 6][] 2:7<-[9, 7][] 2:9<-[9, 9][] 2:11<-[10, 0][] 2:10<-[10, 3][] 2:10<-[11, 2][] 2:11<-[11, 5][] 2:8<-[13, 8][] 2:10<-[13, 10][] 2:11<-[13, 11][] 2:12<-[13, 12][] 2:13<-[13, 13][] 2:8<-[8, 9][] 2:1<-[7, 10][] 2:4<-[7, 11][] 2:6<-[7, 12][] 2:7<-[7, 13][]]",
            "facts [v1,v0 v2,v1 v0,v1 v1,v1 v2,v0 v0,v0 v2,v3 v2,hub hub,v2 v2,v2 hub,v1 hub,v0 hub,v3 hub,hub v1,v3 v0,v3] rules [0:0<-[][0] 0:1<-[][1] 0:2<-[][2] 1:1<-[0][1, 2] 1:2<-[0][2, 2] 1:0<-[2][0, 0] 2:3<-[0, 2][] 2:4<-[1, 0][] 2:5<-[2, 0][] 1:4<-[3][1, 0] 1:5<-[3][2, 0] 1:3<-[5][0, 2] 2:0<-[3, 0][] 2:3<-[3, 3][] 2:1<-[4, 2][] 2:4<-[4, 5][] 2:2<-[5, 2][] 2:5<-[5, 5][] 2:1<-[1, 3][] 2:2<-[2, 3][] 2:0<-[0, 5][] 0:4<-[][4] 1:4<-[2][4, 0] 1:1<-[5][4, 2] 0:7<-[][5] 3:8<-[][5] 1:1<-[8][5, 1] 1:4<-[8][5, 4] 1:7<-[8][5, 5] 2:9<-[7, 8][] 2:10<-[8, 1][] 2:11<-[8, 4][] 2:12<-[8, 6][] 2:13<-[8, 7][] 1:4<-[10][5, 0] 1:1<-[11][5, 2] 2:1<-[9, 1][] 2:4<-[9, 4][] 2:6<-[9, 6][] 2:7<-[9, 7][] 2:9<-[9, 9][] 2:11<-[10, 0][] 2:10<-[10, 3][] 2:10<-[11, 2][] 2:11<-[11, 5][] 2:8<-[13, 8][] 2:10<-[13, 10][] 2:11<-[13, 11][] 2:12<-[13, 12][] 2:13<-[13, 13][] 2:8<-[8, 9][] 2:1<-[7, 10][] 2:4<-[7, 11][] 2:6<-[7, 12][] 2:7<-[7, 13][] 0:14<-[][6] 1:14<-[2][0, 6] 1:6<-[3][1, 6] 1:15<-[3][2, 6] 1:6<-[2][4, 6] 1:6<-[10][5, 6] 2:6<-[1, 14][] 2:15<-[2, 14][] 2:14<-[3, 14][] 2:12<-[10, 14][] 2:14<-[0, 15][] 2:6<-[4, 15][] 2:15<-[5, 15][] 2:12<-[11, 15][]]",
        ];
        assert_eq!(steps.len(), expected.len());
        for (k, (step, want)) in steps.iter().zip(expected).enumerate() {
            assert_eq!(step, want, "step {k}");
        }
    }
}
