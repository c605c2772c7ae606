//! Work-stealing task runner shared by the grounding and
//! delta-grounding rounds.
//!
//! No dependencies: plain `std::thread::scope` plus per-range atomic
//! cursors. The scheduler executes `count` indexed tasks on up to
//! `threads` workers and returns the results **in task order**, whatever
//! interleaving the threads ran them in — every caller relies on this to
//! keep parallel output bit-identical to the sequential enumeration (the
//! task order *is* the sequential order).
//!
//! Two pieces compose the design:
//!
//! * **Chunked ranges + work stealing.** Each worker owns a contiguous
//!   range of task indices ([`shard_bounds`]) with a shared atomic
//!   cursor. The owner claims indices with `fetch_add`; a worker whose
//!   range is exhausted scans the other ranges and claims leftover
//!   indices with `compare_exchange`. Both are read-modify-write ops on
//!   the same atomic, so every index is claimed exactly once. Stealing
//!   changes *who executes* a task, never which task produces which
//!   result slot — determinism is preserved by reassembling results into
//!   task order. Callers split uneven work into more chunks than
//!   workers ([`chunk_bounds`]) so one expensive chunk does not
//!   serialize a whole round.
//! * **Honest attribution.** With telemetry enabled, each task is timed
//!   and attributed to the worker that *actually executed it* (stealing
//!   makes `task i mod workers` wrong), including a per-worker steal
//!   count. With telemetry disabled no clock is ever read.
//!
//! With `threads <= 1` the tasks run inline on the caller's thread, so
//! the single-threaded configuration spawns nothing, touches no atomics,
//! and is exactly the sequential code path.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use telemetry::{Recorder, ShardStats, Stage};

/// Split `len` items into at most `threads` contiguous shards:
/// `(lo, hi)` bounds in ascending order, covering `0..len` exactly, never
/// empty. The single source of the shard-range arithmetic every parallel
/// stage relies on for deterministic, order-preserving concatenation.
pub(crate) fn shard_bounds(len: usize, threads: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let shards = threads.clamp(1, len);
    let chunk = len.div_ceil(shards);
    (0..shards)
        .map(|s| ((s * chunk).min(len), ((s + 1) * chunk).min(len)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// How many chunks per worker [`chunk_bounds`] aims for. More chunks →
/// finer stealing granularity → better balance under skew, at the cost of
/// more per-chunk overhead.
const CHUNKS_PER_WORKER: usize = 4;

/// Split `len` items into contiguous steal-granularity chunks: about
/// `CHUNKS_PER_WORKER` (4) × `threads` of them, covering `0..len` exactly in
/// ascending order. A pure function of `(len, threads)` — the chunking is
/// part of the deterministic task order, so it must not depend on timing
/// or core count.
pub(crate) fn chunk_bounds(len: usize, threads: usize) -> Vec<(usize, usize)> {
    shard_bounds(len, threads.max(1).saturating_mul(CHUNKS_PER_WORKER))
}

/// One executed task: its index, result, and (when timed) attribution.
struct TaskRun<T> {
    task: usize,
    result: T,
    nanos: u64,
    stolen: bool,
}

fn run_one<T>(task: usize, stolen: bool, timed: bool, f: &impl Fn(usize) -> T) -> TaskRun<T> {
    // `timed` is the only clock gate: the disabled-telemetry path passes
    // `false` and never constructs an `Instant`.
    let start = timed.then(std::time::Instant::now);
    let result = f(task);
    let nanos = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    TaskRun {
        task,
        result,
        nanos,
        stolen,
    }
}

/// The work-stealing core: execute tasks `0..count` on `workers` scoped
/// threads and return each worker's executed tasks (unordered across
/// workers; reassembled by the caller). Worker `w` owns the `w`-th range
/// of [`shard_bounds`]`(count, workers)` and claims indices from its
/// cursor with `fetch_add`; once exhausted it scans the other ranges
/// `(w+1.., then 0..w)` and claims stragglers with `compare_exchange`.
/// Cursors are monotone, and both claim paths are RMW ops on the same
/// atomic, so every index is executed exactly once; a full scan that
/// observes every cursor at its bound proves no unclaimed work remains.
fn run_stealing<T, F>(count: usize, workers: usize, timed: bool, f: &F) -> Vec<Vec<TaskRun<T>>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let bounds = shard_bounds(count, workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| bounds.get(w).copied().unwrap_or((count, count)))
        .collect();
    let cursors: Vec<AtomicUsize> = ranges.iter().map(|&(lo, _)| AtomicUsize::new(lo)).collect();
    std::thread::scope(|s| {
        let (ranges, cursors) = (&ranges, &cursors);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut out: Vec<TaskRun<T>> = Vec::new();
                    let hi = ranges[w].1;
                    loop {
                        let i = cursors[w].fetch_add(1, Relaxed);
                        if i >= hi {
                            break;
                        }
                        out.push(run_one(i, false, timed, f));
                    }
                    loop {
                        let mut claimed = false;
                        for v in (w + 1..workers).chain(0..w) {
                            let vhi = ranges[v].1;
                            loop {
                                let cur = cursors[v].load(Relaxed);
                                if cur >= vhi {
                                    break;
                                }
                                if cursors[v]
                                    .compare_exchange(cur, cur + 1, Relaxed, Relaxed)
                                    .is_ok()
                                {
                                    out.push(run_one(cur, true, timed, f));
                                    claimed = true;
                                }
                            }
                        }
                        if !claimed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel task worker panicked"))
            .collect()
    })
}

/// Run `count` indexed tasks on up to `threads` scoped worker threads
/// (work-stealing; see the module docs) and return their results in
/// task-index order. With `threads <= 1` or a single task the tasks run
/// inline, in order, on the caller's thread.
///
/// When `rec` is enabled, each task's wall-clock is measured and
/// attributed to the worker that **actually executed it** (under
/// stealing the deterministic `task i mod workers` attribution would
/// lie), together with its steal count and the item counts `produced`
/// extracts from each result. One [`ShardStats`] is reported under
/// `stage` per worker that executed at least one task — stealing means
/// idle workers are possible and the shard count can be below
/// `threads`. A disabled recorder (e.g. [`telemetry::NOOP`]) reads no
/// clock and reports nothing.
pub(crate) fn run_indexed_recorded<T, F, P>(
    count: usize,
    threads: usize,
    rec: &dyn Recorder,
    stage: Stage,
    produced: P,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(&T) -> u64,
{
    let timed = rec.enabled();
    let buckets = if threads <= 1 || count <= 1 {
        vec![(0..count).map(|i| run_one(i, false, timed, &f)).collect()]
    } else {
        run_stealing(count, threads.min(count), timed, &f)
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (w, bucket) in buckets.into_iter().enumerate() {
        let mut stats = ShardStats {
            worker: w as u64,
            ..Default::default()
        };
        for run in bucket {
            stats.busy_nanos += run.nanos;
            stats.tasks += 1;
            stats.steals += run.stolen as u64;
            stats.produced += produced(&run.result);
            slots[run.task] = Some(run.result);
        }
        if timed && stats.tasks > 0 {
            rec.shard(stage, stats);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every task index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;
    use telemetry::{PipelineMetrics, NOOP};

    /// Run the one runner with the no-op recorder and with an enabled
    /// collector; both must return the same results.
    fn run<T: Send + PartialEq + Debug>(
        count: usize,
        threads: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let quiet = run_indexed_recorded(count, threads, &NOOP, Stage::Eval, |_| 1, &f);
        let m = PipelineMetrics::new(true);
        let recorded = run_indexed_recorded(count, threads, &m, Stage::Eval, |_| 1, &f);
        assert_eq!(quiet, recorded, "count={count} threads={threads}");
        quiet
    }

    #[test]
    fn results_are_in_task_order() {
        for threads in [1usize, 2, 4, 8] {
            let out = run(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn zero_and_single_task_edges() {
        assert!(run(0, 4, |i| i).is_empty());
        assert_eq!(run(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(run(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn skewed_task_costs_still_reassemble_in_order() {
        // One hub task is ~1000× the rest; stealing must not perturb the
        // result order.
        for threads in [2usize, 4, 8] {
            let out = run(33, threads, |i| {
                let iters = if i == 0 { 100_000u64 } else { 100 };
                (0..iters).fold(i as u64, |a, x| a.wrapping_mul(31).wrapping_add(x))
            });
            let expect: Vec<u64> = (0..33)
                .map(|i| {
                    let iters = if i == 0 { 100_000u64 } else { 100 };
                    (0..iters).fold(i as u64, |a, x| a.wrapping_mul(31).wrapping_add(x))
                })
                .collect();
            assert_eq!(out, expect, "{threads}");
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for len in [0usize, 1, 2, 3, 5, 7, 16, 100] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let bounds = shard_bounds(len, threads);
                assert!(bounds.len() <= threads.max(1));
                let mut expect = 0;
                for &(lo, hi) in &bounds {
                    assert_eq!(lo, expect, "len={len} threads={threads}");
                    assert!(lo < hi, "len={len} threads={threads}");
                    expect = hi;
                }
                assert_eq!(expect, len, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_bounds_partition_exactly_and_oversplit() {
        for len in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 4, 8] {
                let bounds = chunk_bounds(len, threads);
                assert!(bounds.len() <= threads * CHUNKS_PER_WORKER);
                let mut expect = 0;
                for &(lo, hi) in &bounds {
                    assert_eq!(lo, expect, "len={len} threads={threads}");
                    assert!(lo < hi);
                    expect = hi;
                }
                assert_eq!(expect, len, "len={len} threads={threads}");
                // Deterministic: pure function of (len, threads).
                assert_eq!(bounds, chunk_bounds(len, threads));
            }
        }
        // Enough chunks to steal from when the input is large.
        assert_eq!(chunk_bounds(1000, 4).len(), 16);
    }

    #[test]
    fn recorded_runs_report_per_worker_stats() {
        // Every task is attributed to the worker that actually executed
        // it; the task/produced sums are exact even though stealing makes
        // the per-worker split timing-dependent.
        for threads in [1usize, 2, 4] {
            let m = PipelineMetrics::new(true);
            let out =
                run_indexed_recorded(10, threads, &m, Stage::GroundPhase1, |&x| x as u64, |i| i);
            assert_eq!(out, (0..10).collect::<Vec<_>>());
            let r = m.report();
            let workers = threads.clamp(1, 10);
            assert!(
                !r.shards.is_empty() && r.shards.len() <= workers,
                "threads={threads} shards={}",
                r.shards.len()
            );
            let tasks: u64 = r.shards.iter().map(|(_, a)| a.tasks).sum();
            let produced: u64 = r.shards.iter().map(|(_, a)| a.produced).sum();
            let steals: u64 = r.shards.iter().map(|(_, a)| a.steals).sum();
            assert_eq!(tasks, 10);
            assert_eq!(produced, (0..10u64).sum::<u64>());
            assert!(steals <= tasks);
        }
    }

    #[test]
    fn disabled_recorder_reports_nothing() {
        let m = PipelineMetrics::new(false);
        let out = run_indexed_recorded(5, 4, &m, Stage::Eval, |_| 1, |i| i);
        assert_eq!(out, (0..5).collect::<Vec<_>>());
        assert!(m.report().shards.is_empty());
    }

    #[test]
    fn untimed_stealing_never_reads_the_clock() {
        // The `timed` flag is the only clock gate in the scheduler: the
        // disabled-telemetry path must leave every task's nanos untouched
        // (regression for the attribution rework — timing must not leak
        // into the un-instrumented path).
        let buckets = run_stealing(16, 4, false, &|i| i);
        let mut seen = 0usize;
        for bucket in &buckets {
            for run in bucket {
                assert_eq!(run.nanos, 0);
                seen += 1;
            }
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn every_task_is_claimed_exactly_once_under_contention() {
        for _ in 0..20 {
            let out = run(97, 8, |i| i);
            assert_eq!(out, (0..97).collect::<Vec<_>>());
        }
    }
}
