//! Determinism under parallel execution — the invariant of the
//! work-stealing host pool (`abm_conv::parallel`).
//!
//! The paper's accelerator is deterministic by construction: the
//! semi-synchronous scheduler changes *when* a CU runs a task, never
//! *what* the task computes, and accumulation order inside a kernel
//! lane is fixed by the encoded value-run structure. The host pool must
//! preserve exactly that property: any `Parallelism` setting must give
//! results bit-identical to `Serial`, for every engine and every
//! scheduling policy.

use abm_conv::{Engine, Inferencer, Parallelism};
use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_sim::{
    simulate_network_with_parallelism, AcceleratorConfig, MemorySystem, SchedulingPolicy,
};
use abm_tensor::Tensor3;

fn model(seed: u64) -> SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    synthesize_model(&net, &profile, seed)
}

fn batch(model: &SparseModel, images: usize) -> Vec<Tensor3<i16>> {
    (0..images)
        .map(|i| {
            Tensor3::from_fn(model.network.input_shape(), |c, r, col| {
                ((((c + i) * 131 + r * 29 + col * 17) % 255) as i16) - 127
            })
        })
        .collect()
}

const POOLS: [Parallelism; 3] = [
    Parallelism::Threads(2),
    Parallelism::Threads(16),
    Parallelism::Auto,
];

/// A parallel batch must be bit-identical to serial for every
/// integer engine, across synthesis seeds (different weight streams)
/// and pool sizes (different interleavings).
#[test]
fn parallel_batch_is_bit_identical_for_every_engine() {
    for seed in [7, 2019, 777_216] {
        let model = model(seed);
        let inputs = batch(&model, 6);
        for engine in [Engine::Dense, Engine::Sparse, Engine::Abm] {
            let inf = Inferencer::new(&model).engine(engine);
            let prepared = inf.prepare().unwrap();
            let serial = inf
                .clone()
                .parallelism(Parallelism::Serial)
                .run_batch_prepared(&prepared, &inputs)
                .unwrap();
            for pool in POOLS {
                let parallel = inf
                    .clone()
                    .parallelism(pool)
                    .run_batch_prepared(&prepared, &inputs)
                    .unwrap();
                assert_eq!(
                    serial, parallel,
                    "seed {seed}, engine {engine:?}, pool {pool} drifted from serial"
                );
            }
        }
    }
}

/// Workers share one `PreparedWeights`; repeated batches through the
/// same preparation must not accumulate or leak any state.
#[test]
fn shared_prepared_weights_are_reusable_and_stateless() {
    let model = model(42);
    let inputs = batch(&model, 5);
    let inf = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Auto);
    let prepared = inf.prepare().unwrap();
    let first = inf.run_batch_prepared(&prepared, &inputs).unwrap();
    let second = inf.run_batch_prepared(&prepared, &inputs).unwrap();
    assert_eq!(first, second);
    // And a fresh preparation gives the same results.
    let fresh = inf.prepare().unwrap();
    assert_eq!(first, inf.run_batch_prepared(&fresh, &inputs).unwrap());
}

/// The simulated cycle counts are pure functions of the model and
/// configuration: fanning the simulation across host threads must not
/// change a single cycle, under either scheduling policy and on both
/// fan-out axes (across layers when layers >= workers, within-layer
/// when workers > layers).
#[test]
fn simulated_cycles_identical_serial_vs_parallel() {
    let model = model(2019);
    let cfg = AcceleratorConfig::paper();
    let mem = MemorySystem::de5_net();
    for policy in [
        SchedulingPolicy::SemiSynchronous,
        SchedulingPolicy::LockStep,
    ] {
        let serial =
            simulate_network_with_parallelism(&model, &cfg, &mem, policy, Parallelism::Serial);
        for pool in POOLS {
            let parallel = simulate_network_with_parallelism(&model, &cfg, &mem, policy, pool);
            assert_eq!(
                serial, parallel,
                "{policy:?} with pool {pool} changed simulated cycles"
            );
        }
    }
}

/// A batch with wildly uneven per-image cost (stealing order varies run
/// to run) still reassembles in input order with stable results.
#[test]
fn uneven_batches_stay_ordered() {
    let model = model(3);
    // Same image repeated except one different outlier in the middle:
    // result equality would catch any index mix-up.
    let mut inputs = batch(&model, 7);
    inputs[3] = Tensor3::from_fn(model.network.input_shape(), |c, r, col| {
        (((c * 7 + r * 3 + col) % 200) as i16) - 100
    });
    let inf = Inferencer::new(&model).engine(Engine::Abm);
    let prepared = inf.prepare().unwrap();
    let serial = inf
        .clone()
        .parallelism(Parallelism::Serial)
        .run_batch_prepared(&prepared, &inputs)
        .unwrap();
    let parallel = inf
        .parallelism(Parallelism::Threads(4))
        .run_batch_prepared(&prepared, &inputs)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_ne!(serial[3], serial[2], "outlier image must differ");
}
