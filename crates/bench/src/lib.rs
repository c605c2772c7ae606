//! Shared workloads and reporting helpers for the experiment harness
//! (`src/bin/experiments.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circuit::CircuitStats;
use datalog::{Database, Exec, GroundedProgram, Program};
use graphgen::LabeledDigraph;

/// Ground a program over a graph-backed database.
pub fn ground_on_graph(
    program: &Program,
    graph: &LabeledDigraph,
) -> (Program, Database, GroundedProgram) {
    let mut p = program.clone();
    let (db, _) = Database::from_graph(&mut p, graph);
    let gp = datalog::ground(&p, &db, &Exec::default()).expect("grounding");
    (p, db, gp)
}

/// The grounded fact index of `target(v_src, v_dst)`, if derivable.
pub fn graph_fact(
    p: &Program,
    db: &Database,
    gp: &GroundedProgram,
    src: usize,
    dst: usize,
) -> Option<usize> {
    let s = db.node_const(src)?;
    let d = db.node_const(dst)?;
    gp.fact(p.target, &[s, d])
}

/// Wall-clock statistics of repeated runs of one workload.
///
/// `best_ms` is the harness's headline number (minimum suppresses
/// allocator and scheduler noise); `mean_ms` and `samples` are reported
/// alongside it in the trajectory JSON so the committed numbers disclose
/// the spread the minimum discards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingStats {
    /// Minimum wall time over the runs, milliseconds.
    pub best_ms: f64,
    /// Arithmetic mean wall time over the runs, milliseconds.
    pub mean_ms: f64,
    /// Number of runs measured.
    pub samples: usize,
}

/// Time `runs` executions of `f`: full [`TimingStats`] plus the last
/// result — the experiment harness's stopwatch.
pub fn time_stats_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (TimingStats, T) {
    assert!(runs > 0, "need at least one run");
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut out = None;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let value = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
        out = Some(value);
    }
    (
        TimingStats {
            best_ms: best,
            mean_ms: total / runs as f64,
            samples: runs,
        },
        out.expect("runs > 0"),
    )
}

/// Best-of-`runs` wall time of `f` in milliseconds, plus the last result —
/// the minimum-only view of [`time_stats_ms`].
pub fn time_best_ms<T>(runs: usize, f: impl FnMut() -> T) -> (f64, T) {
    let (stats, out) = time_stats_ms(runs, f);
    (stats.best_ms, out)
}

/// Format circuit stats compactly.
pub fn fmt_stats(st: &CircuitStats) -> String {
    format!(
        "gates={:>8} depth={:>5} formula={}",
        st.num_gates,
        st.depth,
        fmt_u128(st.formula_size)
    )
}

/// Human-friendly saturating u128.
pub fn fmt_u128(x: u128) -> String {
    if x == u128::MAX {
        ">10^38 (saturated)".to_owned()
    } else if x > 1_000_000_000_000 {
        format!("{:.2e}", x as f64)
    } else {
        x.to_string()
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the measured growth
/// exponent of a series.
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-9).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Ratio series `y / f(x)` per point — a flat series means `y = Θ(f)`.
pub fn normalized(points: &[(f64, f64)], f: impl Fn(f64) -> f64) -> Vec<f64> {
    points.iter().map(|&(x, y)| y / f(x)).collect()
}

/// A node at hop-distance exactly `d` from `src`, if any.
pub fn target_at_distance(g: &LabeledDigraph, src: u32, d: u64) -> Option<u32> {
    g.bfs_distances(src)
        .iter()
        .position(|&x| x == Some(d))
        .map(|v| v as u32)
}

/// The farthest reachable node from `src` (ties broken by smallest id);
/// `None` when nothing but `src` is reachable.
pub fn farthest_reachable(g: &LabeledDigraph, src: u32) -> Option<u32> {
    let dist = g.bfs_distances(src);
    let best = dist.iter().flatten().max().copied()?;
    if best == 0 {
        return None;
    }
    dist.iter().position(|&x| x == Some(best)).map(|v| v as u32)
}

/// The `(src, dst)` pair with the greatest finite hop distance, scanning
/// all sources — guarantees a derivable, long-path query fact on any graph
/// with at least one edge.
pub fn best_long_pair(g: &LabeledDigraph) -> Option<(u32, u32)> {
    let mut best: Option<(u64, u32, u32)> = None;
    for src in 0..g.num_nodes() as u32 {
        for (v, d) in g.bfs_distances(src).iter().enumerate() {
            if let Some(d) = *d {
                if d > 0 && best.is_none_or(|(bd, _, _)| d > bd) {
                    best = Some((d, src, v as u32));
                }
            }
        }
    }
    best.map(|(_, s, t)| (s, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_best_returns_result_and_finite_time() {
        let (ms, v) = time_best_ms(3, || 6 * 7);
        assert_eq!(v, 42);
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn time_stats_report_best_mean_and_samples() {
        let (stats, v) = time_stats_ms(4, || {
            std::thread::sleep(std::time::Duration::from_micros(100));
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(stats.samples, 4);
        // best is a minimum, so it can never exceed the mean.
        assert!(stats.best_ms <= stats.mean_ms, "{stats:?}");
        assert!(stats.best_ms > 0.0 && stats.mean_ms.is_finite());
    }

    #[test]
    fn exponent_fit_recovers_powers() {
        let quad: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((fitted_exponent(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fitted_exponent(&lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn graph_fact_roundtrip() {
        let p = datalog::programs::transitive_closure();
        let g = graphgen::generators::path(3, "E");
        let (p, db, gp) = ground_on_graph(&p, &g);
        assert!(graph_fact(&p, &db, &gp, 0, 3).is_some());
        assert!(graph_fact(&p, &db, &gp, 3, 0).is_none());
    }

    #[test]
    fn distance_helpers() {
        let g = graphgen::generators::path(4, "E");
        assert_eq!(target_at_distance(&g, 0, 3), Some(3));
        assert_eq!(target_at_distance(&g, 0, 9), None);
        assert_eq!(farthest_reachable(&g, 0), Some(4));
        assert_eq!(farthest_reachable(&g, 4), None);
    }

    #[test]
    fn normalized_is_flat_for_matching_growth() {
        let pts: Vec<(f64, f64)> = (2..8)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, 3.0 * x * x.log2())
            })
            .collect();
        let norm = normalized(&pts, |x| x * x.log2());
        for v in &norm {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }
}
