//! Property tests: engine invariants that must survive *any* fault
//! schedule the injector can produce.
//!
//! For random instances and random fault configurations:
//!
//! * the engine never oversubscribes the platform at any instant;
//! * no task completes before `start + t` (its nominal duration; a
//!   straggler's actual duration is at least nominal);
//! * retries preserve the spec: the successful execution of every task
//!   uses exactly its `(t_i, p_i)` — failures waste time but never
//!   change what the task is.

use catbatch::CatBatch;
use proptest::prelude::*;
use rigid_dag::gen::{erdos_dag, TaskSampler};
use rigid_dag::StaticSource;
use rigid_faults::{FaultConfig, FaultInjector};
use rigid_sim::{EngineConfig, RunError};
use rigid_time::Time;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_invariants_under_random_faults(
        inst_seed in 0u64..1000,
        fault_seed in 0u64..1000,
        n in 2usize..24,
        fail in 0u32..600,
        straggle in 0u32..600,
        dip_at in 0i64..8,
        dip_len in 1i64..5,
        dip_cap in 1u32..6,
    ) {
        let procs = 6u32;
        let inst = erdos_dag(inst_seed, n, 0.25, &TaskSampler::default_mix(), procs);
        let config = FaultConfig {
            fail_permille: fail,
            max_failures_per_task: 2,
            straggle_permille: straggle,
            straggle_factor_permille: (1100, 2500),
            dips: Vec::new(),
        }
        .with_dip(
            Time::from_int(dip_at),
            Time::from_int(dip_at + dip_len),
            dip_cap,
        );
        let mut injector = FaultInjector::new(fault_seed, config);
        let mut sched = CatBatch::new().with_retry_budget(2);
        let result = EngineConfig::new()
            .faults(&mut injector)
            .try_run(&mut StaticSource::new(inst.clone()), &mut sched);
        match result {
            Ok(run) => {
                let g = inst.graph();

                // (1) No oversubscription: check capacity at every
                // placement boundary (the profile only changes there).
                // The schedule's own validator performs the same sweep;
                // do it explicitly so the property is independent.
                let mut events: Vec<Time> = run
                    .schedule
                    .placements()
                    .flat_map(|p| [p.start, p.finish])
                    .collect();
                events.sort();
                events.dedup();
                for &t in &events {
                    let in_use: u32 = run
                        .schedule
                        .placements()
                        .filter(|p| p.start <= t && t < p.finish)
                        .map(|p| p.procs)
                        .sum();
                    prop_assert!(
                        in_use <= procs,
                        "{in_use} procs in use at {t} on a {procs}-proc platform"
                    );
                }

                // (2) + (3): every task's successful execution spans at
                // least its nominal t (exactly t unless it straggled)
                // and uses exactly its p.
                prop_assert_eq!(run.release_times.len(), g.len());
                for (id, spec) in g.tasks() {
                    let p = run.schedule.placement(id).expect("every task is placed");
                    prop_assert!(p.finish - p.start >= spec.time);
                    prop_assert_eq!(p.procs, spec.procs);
                    let released = run.release_times[id.index()].expect("every task is released");
                    prop_assert!(p.start >= released);
                }

                // Bookkeeping sanity: wasted area is positive iff
                // something failed.
                prop_assert_eq!(
                    run.faults.failures > 0,
                    run.faults.wasted_area.is_positive()
                );
            }
            // Budget exhaustion is a legal outcome of a hostile draw;
            // anything else (deadlock, oversubscription, contract
            // violations) is an engine/scheduler bug.
            Err(RunError::TaskAbandoned { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// The whole pipeline is deterministic: identical (instance seed,
    /// fault seed, config) pairs give identical makespans and logs.
    #[test]
    fn runs_are_reproducible(
        inst_seed in 0u64..500,
        fault_seed in 0u64..500,
    ) {
        let inst = erdos_dag(inst_seed, 12, 0.3, &TaskSampler::default_mix(), 4);
        let config = FaultConfig::fail_stop(300, 2);
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut injector = FaultInjector::new(fault_seed, config.clone());
            let mut sched = CatBatch::new().with_retry_budget(2);
            let r = EngineConfig::new()
                .faults(&mut injector)
                .try_run(&mut StaticSource::new(inst.clone()), &mut sched);
            results.push(r);
        }
        match (&results[0], &results[1]) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.makespan(), b.makespan());
                prop_assert_eq!(a.faults.failures, b.faults.failures);
                prop_assert_eq!(a.faults.wasted_area, b.faults.wasted_area);
                prop_assert_eq!(a.decisions, b.decisions);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "one run succeeded, the other failed"),
        }
    }
}
