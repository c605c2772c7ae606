//! The engine's fixpoint cache: one converged materialized fixpoint per
//! `(semiring, uniform weight)` pair, read by
//! [`Engine::answer_uniform`](crate::Engine::answer_uniform) and repaired
//! by every write.
//!
//! A fixpoint is derived state of one grounding, like the provenance
//! fixpoint and the circuits an [`Engine`](crate::Engine) caches, so the
//! engine owns it: [`EngineBuilder::build`](crate::EngineBuilder::build)
//! gives each engine one `Arc`'d [`Fixpoints`], its snapshots share it,
//! and no other engine ever sees it. Entries carry the write epoch their
//! values belong to. A read uses an entry only at its own epoch, a store
//! never replaces a newer entry, and a write repairs every entry of the
//! epoch before it in place (`incremental::MaintainedFixpoint`) instead of
//! dropping it.

use std::any::Any;
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

use incremental::MaintainedFixpoint;
use semiring::{Semiring, UnitWeights};
use telemetry::{Counter, Recorder};

use crate::engine::{DeltaOutcome, Engine};

/// A cached fixpoint behind type erasure: the semiring lives inside
/// ([`Typed`]), so a write repairs entries without knowing their types.
trait Entry: Any + Send + Debug {
    /// Repair over `engine`'s grounding after its write `delta` (an insert
    /// when `insert`, else a retract). Returns whether the repair drained
    /// within the engine's budget.
    fn repair(&mut self, engine: &Engine, delta: &DeltaOutcome, insert: bool) -> bool;
}

/// The fixpoint of `S` with every EDB fact weighted `weight`.
#[derive(Debug)]
struct Typed<S> {
    weight: S,
    fix: MaintainedFixpoint<S>,
}

impl<S: Semiring> Entry for Typed<S> {
    fn repair(&mut self, engine: &Engine, delta: &DeltaOutcome, insert: bool) -> bool {
        let gp = engine
            .grounding()
            .expect("a maintained write keeps its grounding");
        let (budget, rec) = (engine.budget_over(gp), engine.metrics());
        let assign = UnitWeights::new(self.weight.clone());
        if insert {
            self.fix
                .apply_insert(gp, &assign, delta.base_rules, budget, rec)
        } else {
            self.fix
                .apply_retract(gp, &assign, &delta.roots, budget, rec)
        }
    }
}

/// Each entry with the write epoch its values belong to.
type Entries = Vec<(u64, Box<dyn Entry>)>;

/// The fixpoints of one engine generation, keyed by semiring type and
/// weight (compared by `==`; no semiring here admits a NaN). Holds a
/// handful of entries, so a lookup is a scan.
#[derive(Debug, Default)]
pub(crate) struct Fixpoints {
    entries: Mutex<Entries>,
}

/// The entry of `S` under `weight`: its position, epoch and values.
fn find<'a, S: Semiring>(
    entries: &'a Entries,
    weight: &S,
) -> Option<(usize, u64, &'a MaintainedFixpoint<S>)> {
    entries.iter().enumerate().find_map(|(i, (epoch, e))| {
        let t = (&**e as &dyn Any).downcast_ref::<Typed<S>>()?;
        (t.weight == *weight).then_some((i, *epoch, &t.fix))
    })
}

impl Fixpoints {
    /// The entries. A repair that panicked may have left one half done,
    /// so a poisoned cache is not read again.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().expect("fixpoint cache poisoned")
    }

    /// Call `read` with the fixpoint of `S` under `weight` at `epoch`, if
    /// one is cached; return whether one was. The lock is held while
    /// `read` runs, so a read takes only the values it needs instead of
    /// copying the vector out.
    pub(crate) fn read<S: Semiring>(
        &self,
        weight: &S,
        epoch: u64,
        read: &mut impl FnMut(&[S]),
    ) -> bool {
        let entries = self.lock();
        let hit = find(&entries, weight).filter(|&(_, at, _)| at == epoch);
        if let Some((_, _, fix)) = hit {
            read(fix.values());
        }
        hit.is_some()
    }

    /// Store the converged fixpoint of `S` under `weight` at `epoch`,
    /// unless a newer entry is already there (a reader of an old snapshot
    /// must not clobber a repaired entry).
    pub(crate) fn store<S: Semiring>(&self, weight: S, epoch: u64, values: Vec<S>) {
        let mut entries = self.lock();
        let found = find(&entries, &weight).map(|(i, at, _)| (i, at));
        let fix = MaintainedFixpoint::from_values(values, true);
        let entry: (u64, Box<dyn Entry>) = (epoch, Box::new(Typed { weight, fix }));
        match found {
            Some((_, at)) if at > epoch => {}
            Some((i, _)) => entries[i] = entry,
            None => entries.push(entry),
        }
    }

    /// Repair every entry after a write of `engine` that maintained its
    /// grounding in place. An entry not at the epoch before the write
    /// belongs to an older grounding and is dropped, as is one whose
    /// repair does not converge (counted in `incremental_fallbacks`); each
    /// other repair counts in `incremental_applied`.
    pub(crate) fn repair(&self, engine: &Engine, delta: &DeltaOutcome, insert: bool) {
        self.lock().retain_mut(|(epoch, e)| {
            if *epoch + 1 != delta.epoch {
                return false;
            }
            if !e.repair(engine, delta, insert) {
                engine.metrics().counter(Counter::IncrementalFallbacks, 1);
                return false;
            }
            *epoch = delta.epoch;
            engine.metrics().counter(Counter::IncrementalApplied, 1);
            true
        });
    }

    /// Drop every entry (the write could not maintain the grounding).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }
}
