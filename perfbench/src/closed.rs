//! Closed-loop workloads: one client sends its next image (or batch)
//! only after the previous one returns.
//!
//! Throughput is images per call over the median call time, not calls
//! over the whole run: on a shared host a slow spell of other tenants
//! can cover a third of a run, and it moves the median far less than
//! the mean.

use crate::model::{self, Net};
use crate::report::Report;
use crate::stats::median;
use abm_conv::{Inferencer, Parallelism};
use std::time::{Duration, Instant};

/// Images per batch on `vgg16-b8`.
pub const BATCH: usize = 8;

/// `alexnet-b1`: one image at a time through `run_prepared`, serial,
/// checks off. `golden_workers` threads compute the golden logits.
pub fn alexnet_b1(rep: &mut Report, seed: u64, seconds: f64, golden_workers: usize) {
    let (model, prepared, setup) = model::timed_build(Net::AlexNet, seed);
    let inputs = model::inputs(
        model.network.input_shape(),
        seed,
        Net::AlexNet.distinct_inputs(),
    );
    let golden = model::golden(Net::AlexNet, seed, inputs.len(), golden_workers);
    rep.meta("kernels", model::kernel_selection(&model, &prepared));
    let inf = Inferencer::new(&model).parallelism(Parallelism::Serial);

    let check = |rep: &mut Report, k: usize, logits: &[f32]| {
        rep.attempted += 1;
        if !model::same_logits(&golden[k % inputs.len()], logits) {
            rep.failed += 1;
        }
    };
    // Warm-up: one pass over the distinct inputs, checked, not timed.
    for (k, x) in inputs.iter().enumerate() {
        let r = inf.run_prepared(&prepared, x).expect("inference");
        check(rep, k, &r.logits);
    }
    rep.warm_peak_mb = crate::peak_rss_mb();
    let mut samples = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let k = samples.len();
        let t0 = Instant::now();
        let out = inf.run_prepared(&prepared, &inputs[k % inputs.len()]);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(r) => check(rep, k, &r.logits),
            Err(_) => {
                rep.attempted += 1;
                rep.failed += 1;
            }
        }
    }
    rep.end_to_end(&setup, 1e3 / median(&samples), &samples, "per image");
}

/// `vgg16-b8`: back-to-back 8-image batches through
/// `run_batch_prepared` on `workers` threads.
pub fn vgg16_b8(rep: &mut Report, seed: u64, seconds: f64, workers: usize) {
    let (model, prepared, setup) = model::timed_build(Net::Vgg16, seed);
    let inputs = model::inputs(
        model.network.input_shape(),
        seed,
        Net::Vgg16.distinct_inputs(),
    );
    let golden = model::golden(Net::Vgg16, seed, inputs.len(), workers);
    rep.meta("kernels", model::kernel_selection(&model, &prepared));
    let inf = Inferencer::new(&model).parallelism(Parallelism::Threads(workers));
    let batch: Vec<_> = (0..BATCH)
        .map(|j| inputs[j % inputs.len()].clone())
        .collect();

    let run_batch = |rep: &mut Report| {
        let t0 = Instant::now();
        let out = inf.run_batch_prepared(&prepared, &batch);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rep.attempted += BATCH as u64;
        match out {
            Ok(results) => {
                for (j, r) in results.iter().enumerate() {
                    if !model::same_logits(&golden[j % inputs.len()], &r.logits) {
                        rep.failed += 1;
                    }
                }
            }
            Err(_) => rep.failed += BATCH as u64,
        }
        ms
    };
    run_batch(rep); // warm-up, checked, not timed
    rep.warm_peak_mb = crate::peak_rss_mb();
    let mut samples = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        samples.push(run_batch(rep));
    }
    let images_per_s = BATCH as f64 * 1e3 / median(&samples);
    rep.end_to_end(&setup, images_per_s, &samples, "per batch");
}
