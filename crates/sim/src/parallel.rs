//! Parallel simulation driver: fans the cycle simulation out across
//! host threads with the same work-stealing pool the inference host
//! uses ([`abm_conv::parallel`]).
//!
//! Two axes of parallelism are available, chosen automatically by
//! [`simulate_network_with_parallelism`]:
//!
//! * **across layers** — accelerated layers are independent
//!   simulations; with at least as many layers as workers the pool
//!   simply steals layers (the common case: VGG-16 has 16);
//! * **within a layer** — when workers outnumber layers (AlexNet's 8
//!   layers on a 16-core host, or a single [`simulate_layer_with`]
//!   call), the per-kernel lane-timing computation inside each
//!   kernel-batch task is parallelized instead
//!   ([`Workload::window_task_cycles_with`]).
//!
//! Both axes are pure maps reassembled in index order, so the simulated
//! cycle counts are **bit-identical** to the serial path for every
//! scheduling policy — enforced by `tests/concurrency.rs`. Note the
//! distinction documented in DESIGN.md: host threads accelerate the
//! *simulation*; the CU-level concurrency of the accelerator itself is
//! *modeled* by [`schedule_window`](crate::sched::schedule_window),
//! which stays sequential-and-deterministic regardless of pool size.
//!
//! [`Workload::window_task_cycles_with`]: crate::task::Workload::window_task_cycles_with

use crate::config::AcceleratorConfig;
use crate::memory::MemorySystem;
use crate::run::{simulate_layer_with, NetworkSim};
use crate::sched::SchedulingPolicy;
use abm_conv::parallel::parallel_map;
pub use abm_conv::parallel::Parallelism;
use abm_fault::AbmError;
use abm_model::SparseModel;

/// [`parallel_map`] for the simulator's pure maps, which cannot fail:
/// results in item order, with a panic in `f` re-raised on the calling
/// thread carrying its original message.
///
/// # Panics
///
/// Re-raises any panic from `f`.
pub(crate) fn pure_map<T: Sync, R: Send>(
    parallelism: Parallelism,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    parallel_map(parallelism, items, None, None, |_, _, item| f(item))
        .into_iter()
        .map(|outcome| {
            outcome.unwrap_or_else(|e| {
                let message = match e {
                    AbmError::WorkerPanic { message, .. } => message,
                    other => other.to_string(),
                };
                // INVARIANT: with no deadline the pool's only error is
                // a caught panic in `f`; re-raising keeps this map's
                // documented panics (and their messages) intact.
                panic!("{message}")
            })
        })
        .collect()
}

/// [`simulate_network`](crate::run::simulate_network) with an explicit
/// host-parallelism setting (paper scheduler, DE5-Net memory).
///
/// # Panics
///
/// Panics if a layer cannot be encoded or the configuration is
/// invalid.
pub fn simulate_network_par(
    model: &SparseModel,
    cfg: &AcceleratorConfig,
    parallelism: Parallelism,
) -> NetworkSim {
    simulate_network_with_parallelism(
        model,
        cfg,
        &MemorySystem::de5_net(),
        SchedulingPolicy::SemiSynchronous,
        parallelism,
    )
}

/// Fully explicit network simulation: memory system, scheduling policy
/// and host parallelism.
///
/// # Panics
///
/// Panics if a layer cannot be encoded (the model zoo networks all
/// can) or the configuration is invalid.
pub fn simulate_network_with_parallelism(
    model: &SparseModel,
    cfg: &AcceleratorConfig,
    mem: &MemorySystem,
    policy: SchedulingPolicy,
    parallelism: Parallelism,
) -> NetworkSim {
    // INVARIANT: documented panic — this API's contract rejects
    // invalid configurations up front.
    cfg.validate().expect("invalid accelerator configuration");
    let workers = parallelism.worker_count();
    let layers = if model.layers.len() >= workers {
        // Enough layers to keep every worker busy: steal whole layers,
        // keep the per-kernel map serial to avoid nested pools.
        pure_map(parallelism, &model.layers, |layer| {
            // INVARIANT: documented panic — every synthesized zoo layer
            // encodes (u16 indices, nonzero kernels).
            simulate_layer_with(layer, cfg, mem, policy, Parallelism::Serial)
                .expect("model layers must be encodable")
        })
    } else {
        // Fewer layers than workers: walk layers serially and let each
        // layer's kernel-batch timing computation use the whole pool.
        model
            .layers
            .iter()
            .map(|layer| {
                // INVARIANT: documented panic — every synthesized zoo
                // layer encodes (u16 indices, nonzero kernels).
                simulate_layer_with(layer, cfg, mem, policy, parallelism)
                    .expect("model layers must be encodable")
            })
            .collect()
    };
    NetworkSim::from_layers(layers, cfg.freq_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn tiny_model() -> SparseModel {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        synthesize_model(&net, &profile, 11)
    }

    #[test]
    fn parallel_simulation_is_bit_identical_to_serial() {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let serial = simulate_network_par(&model, &cfg, Parallelism::Serial);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(16),
            Parallelism::Auto,
        ] {
            let parallel = simulate_network_par(&model, &cfg, par);
            assert_eq!(serial, parallel, "{par}");
        }
    }

    #[test]
    fn both_fan_out_axes_agree() {
        // Threads(16) > 4 layers forces the within-layer axis;
        // Threads(2) <= 4 layers takes the across-layer axis. Both must
        // produce the exact serial cycle counts.
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let mem = MemorySystem::de5_net();
        for policy in [
            SchedulingPolicy::SemiSynchronous,
            SchedulingPolicy::LockStep,
        ] {
            let serial =
                simulate_network_with_parallelism(&model, &cfg, &mem, policy, Parallelism::Serial);
            let across = simulate_network_with_parallelism(
                &model,
                &cfg,
                &mem,
                policy,
                Parallelism::Threads(2),
            );
            let within = simulate_network_with_parallelism(
                &model,
                &cfg,
                &mem,
                policy,
                Parallelism::Threads(16),
            );
            for (s, layer) in [(&across, "across"), (&within, "within")] {
                assert_eq!(serial, *s, "{layer} fan-out drifted under {policy:?}");
            }
        }
    }
}
