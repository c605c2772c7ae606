//! Scheduler-focused property tests for the work-stealing parallel core,
//! from the angle the broad agreement suite does not stress:
//! **adversarial skew** — a hub vertex owning ~90% of the edges makes one
//! frontier shard vastly heavier than the rest, so these cases pass only
//! if work stealing preserves the deterministic chunk-order reassembly (a
//! thief that mangled task attribution would reorder discovered facts
//! and rules).

use datalog_circuits::datalog::{self, programs, Database, Exec};
use datalog_circuits::graphgen::LabeledDigraph;
use proptest::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deliberately skewed instance: one hub vertex is an endpoint of 90%
/// of the edges, so its frontier shard dwarfs every other worker's share
/// and rounds serialize unless the idle workers steal from it.
fn hub_graph(n: usize, m: usize, seed: u64) -> LabeledDigraph {
    let mut g = LabeledDigraph::new(n);
    let mut rng = seed;
    let hub = (splitmix(&mut rng) % n as u64) as u32;
    for i in 0..m {
        let other = (splitmix(&mut rng) % n as u64) as u32;
        if i % 10 == 9 {
            // The 10% of edges that avoid the hub keep the instance
            // connected beyond the star.
            let u = (splitmix(&mut rng) % n as u64) as u32;
            g.add_edge(u, other, "E");
        } else if i % 2 == 0 {
            g.add_edge(hub, other, "E");
        } else {
            g.add_edge(other, hub, "E");
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Par ≡ seq under adversarial hub skew, for grounding, at 2/4/8
    /// threads.
    #[test]
    fn work_stealing_stays_deterministic_under_hub_skew(
        n in 5usize..10,
        m in 24usize..48,
        seed in any::<u64>(),
    ) {
        let g = hub_graph(n, m, seed);
        let mut p = programs::transitive_closure();
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = datalog::ground(&p, &db, &Exec::default()).unwrap();
        for threads in [2usize, 4, 8] {
            let gp_par = datalog::ground(&p, &db, &Exec { threads, ..Default::default() }).unwrap();
            prop_assert!(gp.idb_facts().eq(gp_par.idb_facts()), "grounding facts, threads={}", threads);
            prop_assert_eq!(&gp.rules, &gp_par.rules, "grounded rules, threads={}", threads);
        }
    }
}
