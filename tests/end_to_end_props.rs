//! Property-based end-to-end tests across the whole stack.

use catbatch::analysis::decompose;
use catbatch::CatBatch;
use proptest::prelude::*;
use rigid_dag::gen::{erdos_dag, layered, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{analysis, StaticSource};
use rigid_sim::engine;

fn sampler() -> TaskSampler {
    TaskSampler {
        length: LengthDist::Uniform {
            min: 0.25,
            max: 8.0,
        },
        procs: ProcDist::PowersOfTwo,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The online CatBatch run forms exactly the batches the offline
    /// category decomposition predicts — same categories, same members.
    #[test]
    fn online_batches_equal_offline_decomposition(
        seed in 0u64..10_000, n in 1usize..35, p in 1u32..9
    ) {
        let inst = erdos_dag(seed, n, 0.2, &sampler(), p);
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cb);
        let offline = decompose(&inst);
        prop_assert_eq!(offline.batch_count(), cb.batch_history().len());
        for (offline_entry, online) in offline.categories.iter().zip(cb.batch_history()) {
            prop_assert_eq!(*offline_entry.0, online.category);
            let mut a: Vec<_> = offline_entry.1.clone();
            let mut b = online.tasks.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }

    /// Lemma 5 observed at run time: a task's category strictly exceeds
    /// every predecessor's category.
    #[test]
    fn lemma5_along_edges(seed in 0u64..10_000, n in 2usize..35) {
        let inst = layered(seed, 5, (n / 5).max(1), &sampler(), 8);
        let table = catbatch::analysis::attribute_table(&inst);
        for id in inst.graph().task_ids() {
            for &pred in inst.graph().preds(id) {
                prop_assert!(
                    table[pred.index()].category < table[id.index()].category,
                    "edge {pred} -> {id}"
                );
            }
        }
    }

    /// Release instants equal the max predecessor finish in the actual
    /// schedule (the engine releases exactly when the model says).
    #[test]
    fn release_times_match_model(seed in 0u64..10_000, n in 1usize..30) {
        let inst = erdos_dag(seed, n, 0.25, &sampler(), 8);
        let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        for id in inst.graph().task_ids() {
            let expected = inst
                .graph()
                .preds(id)
                .iter()
                .map(|&q| r.schedule.placement(q).unwrap().finish)
                .max()
                .unwrap_or(rigid_time::Time::ZERO);
            prop_assert_eq!(r.release_times[id.index()], Some(expected));
        }
    }

    /// Determinism: the same instance scheduled twice gives identical
    /// schedules.
    #[test]
    fn engine_is_deterministic(seed in 0u64..10_000, n in 1usize..30) {
        let inst = erdos_dag(seed, n, 0.2, &sampler(), 4);
        let r1 = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        let r2 = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        for id in inst.graph().task_ids() {
            prop_assert_eq!(
                r1.schedule.placement(id).unwrap().start,
                r2.schedule.placement(id).unwrap().start
            );
        }
    }

    /// The Theorem 1 bound certified against Lb holds on every drawn
    /// instance (belt and braces at the integration level).
    #[test]
    fn theorem1_integration(seed in 0u64..10_000, n in 1usize..60, p in 1u32..17) {
        let inst = erdos_dag(seed, n, 0.15, &sampler(), p);
        let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        r.schedule.assert_valid(&inst);
        let ratio = r.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
        prop_assert!(ratio <= (n as f64).log2() + 3.0 + 1e-9);
    }
}
