//! Glue between the simulator and `abm-verify`: extracts the pure-data
//! facts the static passes need from a [`Workload`] and an
//! [`AcceleratorConfig`], and runs them.
//!
//! `abm-verify` deliberately depends only on `abm-tensor`/`abm-sparse`,
//! so this module is where the simulator's richer types are boiled down:
//! the lowering geometry is recovered from the workload's
//! [`FlatLayout`](abm_sparse::FlatLayout), schedule spans are observed through
//! [`schedule_window_with`]'s dispatch callback, and per-kernel FIFO
//! demands come from the probed lane recurrence.

use crate::config::AcceleratorConfig;
use crate::lane;
use crate::pipeline::simulate_pipeline;
use crate::sched::{schedule_window_with, PipelinedSchedule, SchedulingPolicy};
use crate::task::Workload;
use abm_verify::{
    verify_lowering, verify_pipeline, verify_schedule, AccumulatorModel, BoundaryFacts,
    ConvGeometry, KernelFacts, PipelineParams, ScheduleParams, StageFacts, TaskSpan, VerifyReport,
};

/// The lowering geometry a workload's flat code was built against,
/// recovered from the layout and layer dimensions (FC layers run as
/// 1×1 convolutions over the flattened input, exactly as
/// [`Workload::from_layer`] lowers them).
#[must_use]
pub fn workload_geometry(w: &Workload) -> ConvGeometry {
    lowered_geometry(&w.flat, w.is_fc, w.in_channels, w.out_rows, w.out_cols)
}

/// [`workload_geometry`] from the raw lowering parts, for callers that
/// need the geometry *before* the [`Workload`] exists (the constructor
/// certifies the layer's ranges against exactly this geometry).
#[must_use]
pub fn lowered_geometry(
    flat: &abm_sparse::FlatCode,
    is_fc: bool,
    in_channels: usize,
    layer_out_rows: usize,
    layer_out_cols: usize,
) -> ConvGeometry {
    let layout = flat.layout();
    let shape = flat.shape();
    // Grouped convolutions carry in_channels = N·groups input channels;
    // FC flattening makes the weight's N the whole input instead.
    let groups = if !is_fc && shape.in_channels > 0 && in_channels.is_multiple_of(shape.in_channels)
    {
        (in_channels / shape.in_channels).max(1)
    } else {
        1
    };
    let (out_rows, out_cols) = if is_fc {
        (1, 1)
    } else {
        (layer_out_rows, layer_out_cols)
    };
    let rows = layout.interior_rows(shape.kernel_rows, out_rows);
    let cols = layout.interior_cols(shape.kernel_cols, out_cols);
    ConvGeometry {
        in_channels: shape.in_channels * groups,
        in_rows: layout.in_rows,
        in_cols: layout.in_cols,
        stride: layout.stride,
        pad: layout.pad,
        groups,
        out_rows,
        out_cols,
        interior_rows: (rows.start, rows.end),
        interior_cols: (cols.start, cols.end),
    }
}

/// Runs the `abm-verify` lowering pass over a workload's flat code with
/// the accelerator's accumulator width. Debug builds run this from
/// [`Workload::from_layer`]; `cargo xtask verify` runs it explicitly
/// over the model zoo.
#[must_use]
pub fn verify_workload_lowering(w: &Workload, acc_bits: u32) -> VerifyReport {
    let geometry = workload_geometry(w);
    let acc = AccumulatorModel {
        acc_bits,
        // The functional engine feeds the simulator's streams i16
        // activations; the hardware's 8-bit features are strictly
        // narrower, so this bound is conservative for both.
        max_abs_input: 1 << 15,
    };
    verify_lowering(&w.name, &w.code, &w.flat, &geometry, &acc)
}

/// Statically checks one window's schedule and the workload's stream
/// demands against `cfg`: dispatch legality (every task exactly once on
/// a configured CU, no double-booking), FIFO-depth feasibility for
/// every kernel, buffer feasibility and round-robin fairness.
#[must_use]
pub fn verify_workload_schedule(
    w: &Workload,
    cfg: &AcceleratorConfig,
    policy: SchedulingPolicy,
) -> VerifyReport {
    let params = ScheduleParams {
        n_cu: cfg.n_cu,
        n: cfg.n,
        s_ec: cfg.s_ec,
        fifo_depth: cfg.fifo_depth,
        d_w: cfg.d_w,
        d_q: cfg.d_q,
    };
    let rows = w.rows_per_window(cfg);
    let tasks = w.window_task_cycles(cfg, rows);
    let mut spans = Vec::with_capacity(tasks.len());
    // The dispatch callback fires in task order for both policies, so
    // the span's task id is its dispatch ordinal.
    schedule_window_with(&tasks, cfg.n_cu, policy, |cu, start, end| {
        spans.push(TaskSpan {
            task: spans.len(),
            cu,
            start,
            end,
        });
    });
    let kernels: Vec<KernelFacts> = w
        .flat
        .kernels()
        .iter()
        .enumerate()
        .map(|(i, k)| KernelFacts {
            kernel: i,
            // One 16-bit WT-Buffer word per encoded index.
            weight_words: u64::from(k.total()),
            // Conv kernels re-sweep their stream for every output
            // vector, so it must reside in the WT-Buffer; FC kernels
            // (S_ec batches images) consume it once and stream it.
            resident: !w.is_fc,
            // One 16-bit Q-Table word per (VAL, NUM) entry plus the
            // trailing total field.
            qtable_words: k.distinct() as u64 + 1,
            fifo_high_water: if k.total() == 0 {
                0
            } else {
                lane::vector_cycles_flat_probed(k, cfg.n as u64, cfg.fifo_depth).fifo_high_water
            },
        })
        .collect();
    verify_schedule(&w.name, &params, &tasks, &spans, &kernels)
}

/// All static checks for one workload under one configuration: the
/// lowering pass plus the schedule/legality pass, merged into a single
/// report per layer.
#[must_use]
pub fn verify_workload(w: &Workload, cfg: &AcceleratorConfig) -> VerifyReport {
    let mut report = verify_workload_lowering(w, cfg.acc_bits);
    report.merge(verify_workload_schedule(
        w,
        cfg,
        SchedulingPolicy::default(),
    ));
    report
}

/// Runs the `abm-verify` pipelined-schedule pass: structural checks
/// from the schedule alone, then — only when the structure is sound
/// enough to stream — the unbounded dataflow run whose measured row
/// high-water marks feed the FIFO feasibility check.
#[must_use]
pub fn verify_pipelined_schedule(
    workloads: &[Workload],
    cfg: &AcceleratorConfig,
    schedule: &PipelinedSchedule,
    batch: usize,
) -> VerifyReport {
    let params = PipelineParams {
        n_cu: cfg.n_cu,
        n_layers: workloads.len(),
    };
    let stages: Vec<StageFacts> = schedule
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| StageFacts {
            stage: i,
            cu_start: s.cu_start,
            cu_count: s.cu_count,
            layer_start: s.layer_start,
            layer_end: s.layer_end,
        })
        .collect();
    let structural = verify_pipeline("pipelined-schedule", &params, &stages, &[]);
    if !structural.is_clean() {
        // A broken partition cannot stream; keep the structural
        // defects and skip the dataflow half.
        return structural;
    }
    let sim = simulate_pipeline(workloads, cfg, schedule, batch);
    let boundaries: Vec<BoundaryFacts> = schedule.stages[1..]
        .iter()
        .zip(&sim.boundaries)
        .enumerate()
        .map(|(b, (stage, obs))| BoundaryFacts {
            boundary: b,
            declared_rows: stage.fifo_rows,
            observed_rows: obs.high_water_rows,
        })
        .collect();
    verify_pipeline("pipelined-schedule", &params, &stages, &boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn workloads() -> Vec<Workload> {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
        let model = synthesize_model(&net, &profile, 42);
        model
            .layers
            .iter()
            .map(|l| Workload::from_layer(l).unwrap())
            .collect()
    }

    #[test]
    fn tiny_zoo_workloads_verify_clean() {
        let cfg = AcceleratorConfig::paper();
        for w in workloads() {
            let r = verify_workload(&w, &cfg);
            assert!(r.is_clean(), "{r}");
            assert!(r.facts > 0);
        }
    }

    #[test]
    fn both_policies_produce_legal_schedules() {
        let cfg = AcceleratorConfig::paper();
        for w in workloads() {
            for policy in [
                SchedulingPolicy::SemiSynchronous,
                SchedulingPolicy::LockStep,
            ] {
                let r = verify_workload_schedule(&w, &cfg, policy);
                assert!(r.is_clean(), "{policy:?}: {r}");
            }
        }
    }

    #[test]
    fn infeasible_config_is_reported() {
        let mut cfg = AcceleratorConfig::paper();
        cfg.fifo_depth = 1;
        cfg.d_q = 2;
        // Depth-1 FIFOs still *work* (the recurrence stalls), so only
        // the Q-Table depth should fail here; high-water never exceeds
        // the modelled depth because backpressure is part of the
        // protocol.
        let w = &workloads()[0];
        let r = verify_workload_schedule(w, &cfg, SchedulingPolicy::default());
        assert!(r.has_class("q_table_overflow"), "{r}");
        assert!(!r.has_class("fifo_overflow"), "{r}");
    }

    #[test]
    fn narrow_accumulator_is_reported() {
        let w = &workloads()[0];
        let r = verify_workload_lowering(w, 8);
        assert!(r.has_class("accumulator_overflow"), "{r}");
        assert!(verify_workload_lowering(w, 48).is_clean());
    }
}
