//! Pipelined-vs-sequential conformance smoke: the CI gate for the
//! layer-pipelined execution path, on both rails.
//!
//! ```text
//! cargo run --release --example pipeline_smoke            # alexnet host + sim
//! cargo run --release --example pipeline_smoke -- --smoke # tiny host, alexnet sim (CI)
//! ```
//!
//! * **host rail** — `run_batch_pipelined` must return bit-identical
//!   [`InferenceResult`]s (logits, probabilities, traces, work
//!   counters) to `run_batch_prepared` for several stage counts;
//! * **simulator rail** — the planned `PipelinedSchedule` must verify
//!   clean under `abm-verify`'s pipeline pass, and the dataflow
//!   simulation reports pipelined vs sequential batch throughput on
//!   the same silicon and clock.
//!
//! Exits non-zero on any divergence, so a status check is the gate.

#![forbid(unsafe_code)]

use abm_conv::{Engine, Inferencer};
use abm_model::{synthesize_model, zoo, LayerProfile, Network, PruneProfile, SparseModel};
use abm_sim::task::Workload;
use abm_sim::{
    plan_pipeline, simulate_pipeline, simulate_sequential_batch, verify_pipelined_schedule,
    AcceleratorConfig, PipelineOptions,
};
use abm_tensor::Tensor3;

const BATCH: usize = 4;

fn synth_batch(net: &Network) -> Vec<Tensor3<i16>> {
    (0..BATCH)
        .map(|i| {
            Tensor3::from_fn(net.input_shape(), |c, r, col| {
                ((((c + i) * 769 + r * 37 + col * 11) % 255) as i16) - 127
            })
        })
        .collect()
}

/// Host rail: pipelined execution is bit-identical to sequential for
/// every stage count from 1 to the accelerated-layer count.
fn host_conformance(name: &str, net: &Network, model: &SparseModel) -> Result<(), String> {
    let inf = Inferencer::new(model).engine(Engine::Abm);
    let prepared = inf.prepare().map_err(|e| e.to_string())?;
    let inputs = synth_batch(net);
    let sequential = inf
        .run_batch_prepared(&prepared, &inputs)
        .map_err(|e| e.to_string())?;
    for n_stages in 1..=4 {
        let pipelined = inf
            .run_batch_pipelined(&prepared, &inputs, n_stages)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        if pipelined != sequential {
            return Err(format!(
                "{name}: pipelined batch diverged from sequential at {n_stages} stage(s)"
            ));
        }
    }
    println!("  {name}: host pipelined == sequential (batch {BATCH}, 1..=4 stages)");
    Ok(())
}

/// Simulator rail: the planned schedule verifies clean and the
/// dataflow simulation reports the same-silicon throughput ratio.
fn sim_conformance(name: &str, model: &SparseModel, cfg: &AcceleratorConfig) -> Result<(), String> {
    let workloads: Vec<Workload> = model
        .layers
        .iter()
        .map(|l| Workload::from_layer(l).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let schedule = plan_pipeline(&workloads, cfg, &PipelineOptions::for_config(cfg), BATCH)
        .map_err(|e| e.to_string())?;
    let report = verify_pipelined_schedule(&workloads, cfg, &schedule, BATCH);
    if !report.is_clean() {
        return Err(format!("{name}: pipelined schedule is DIRTY\n{report}"));
    }
    let pipe = simulate_pipeline(&workloads, cfg, &schedule, BATCH);
    let seq = simulate_sequential_batch(&workloads, cfg, BATCH);
    println!(
        "  {name}: schedule verifies clean ({} facts); sim pipelined {:.0} vs sequential {:.0} cycles ({:.3}x at the same clock)",
        report.facts,
        pipe.makespan_cycles as f64,
        seq.total_cycles as f64,
        seq.total_cycles as f64 / pipe.makespan_cycles as f64,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("pipelined-vs-sequential conformance smoke:");
    if smoke {
        // Host inference on full AlexNet is too heavy for the CI smoke
        // budget; tiny exercises the same executor end to end.
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
        let model = synthesize_model(&net, &profile, 2019);
        host_conformance("tiny", &net, &model)?;
    } else {
        let net = zoo::alexnet();
        let model = synthesize_model(&net, &PruneProfile::alexnet_deep_compression(), 2019);
        host_conformance("alexnet", &net, &model)?;
    }

    let alexnet = synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    );
    sim_conformance("alexnet", &alexnet, &AcceleratorConfig::paper_alexnet())?;
    if !smoke {
        let vgg16 = synthesize_model(&zoo::vgg16(), &PruneProfile::vgg16_deep_compression(), 2019);
        sim_conformance("vgg16", &vgg16, &AcceleratorConfig::paper())?;
    }

    println!("pipeline smoke CLEAN");
    Ok(())
}
