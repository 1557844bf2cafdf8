//! The metrics registry's three contracts, end to end:
//!
//! 1. **Exact reconciliation** — every `sim_*` aggregate is mirrored
//!    from the same values the adjacent telemetry events carry, so
//!    summing a collected run's events must reproduce the registry
//!    deltas *exactly* (no sampling, no drift), on AlexNet and VGG16.
//! 2. **Observation never perturbs results** — inference with the
//!    registry on (and a flight-teed sink attached) is bit-identical
//!    to inference with it off, across synthesis randomness.
//! 3. **The flight recorder is a faithful post-mortem** — a seeded
//!    injected fault freezes a dump whose tail matches the recorded
//!    event stream, byte-stably across identical runs; and the sink it
//!    tees from loses nothing under concurrent writers.
//!
//! Every test takes `registry_lock()`: the registry is process-wide
//! and `cargo test` runs tests in one binary concurrently.

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::conv::{Inferencer, Parallelism, ResiliencePolicy};
use abm_spconv_repro::metrics;
use abm_spconv_repro::model::{
    synthesize_model, zoo, LayerProfile, Network, PruneProfile, SparseModel,
};
use abm_spconv_repro::sim::{
    simulate_network_collected, AcceleratorConfig, MemorySystem, SchedulingPolicy,
};
use abm_spconv_repro::sparse::FlatCode;
use abm_spconv_repro::telemetry::{json, Event, RecordingCollector, TelemetrySink};
use abm_spconv_repro::tensor::Tensor3;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes access to the process-wide registry across tests.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Enabled registry with zeroed metrics and an empty flight ring.
fn fresh_registry() -> &'static metrics::MetricsRegistry {
    let r = metrics::global();
    r.set_enabled(true);
    r.reset();
    r.flight().clear();
    r
}

fn tiny_model(density: f64, levels: usize, seed: u64) -> (Network, SparseModel) {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(density, levels));
    let model = synthesize_model(&net, &profile, seed);
    (net, model)
}

fn synthetic_input(net: &Network, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(net.input_shape(), |c, r, col| {
        ((((c + 2) * (r + 5) * (col + 11 + salt)) % 255) as i16) - 127
    })
}

// ---------------------------------------------------------------------
// 1. Exact reconciliation: summed events == registry deltas.
// ---------------------------------------------------------------------

/// Everything the `sim_*` metrics claim, recomputed from the recorded
/// event stream.
#[derive(Default)]
struct EventSums {
    acc_busy: u64,
    acc_stall: u64,
    mult_busy: u64,
    fifo_high_water: u64,
    queue_depth_high_water: u64,
    ddr_read: u64,
    ddr_write: u64,
    cu_busy_total: u64,
    cu_busy: BTreeMap<u32, u64>,
    layers: u64,
    compute_cycles: u64,
}

fn sum_events(events: &[Event]) -> EventSums {
    let mut s = EventSums::default();
    let mut begin: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        match e {
            Event::LaneStats {
                acc_busy,
                acc_stall,
                mult_busy,
                fifo_high_water,
                ..
            } => {
                s.acc_busy += acc_busy;
                s.acc_stall += acc_stall;
                s.mult_busy += mult_busy;
                s.fifo_high_water = s.fifo_high_water.max(u64::from(*fifo_high_water));
            }
            Event::QueueDepth { depth, .. } => {
                s.queue_depth_high_water = s.queue_depth_high_water.max(u64::from(*depth));
            }
            Event::DdrWindow {
                read_bytes,
                write_bytes,
                ..
            } => {
                s.ddr_read += read_bytes;
                s.ddr_write += write_bytes;
            }
            Event::CuTask { cu, start, end, .. } => {
                s.cu_busy_total += end - start;
                *s.cu_busy.entry(*cu).or_default() += end - start;
            }
            Event::LayerBegin { layer, cycle, .. } => {
                begin.insert(*layer, *cycle);
            }
            Event::LayerEnd { layer, cycle } => {
                s.layers += 1;
                s.compute_cycles += cycle - begin.get(layer).copied().unwrap_or(0);
            }
            _ => {}
        }
    }
    s
}

fn reconcile_network(name: &str, network: Network, profile: PruneProfile, cfg: AcceleratorConfig) {
    let model = synthesize_model(&network, &profile, 2019);
    let registry = fresh_registry();
    let mut rec = RecordingCollector::new();
    let _sim = simulate_network_collected(
        &model,
        &cfg,
        &MemorySystem::de5_net(),
        SchedulingPolicy::SemiSynchronous,
        Parallelism::Serial,
        &mut rec,
    );
    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    let gauge = |n: &str| snap.gauges.get(n).copied().unwrap_or(0);
    let expect = sum_events(rec.events());
    assert_eq!(
        counter("sim_acc_busy_cycles_total"),
        expect.acc_busy,
        "{name}"
    );
    assert_eq!(
        counter("sim_acc_stall_cycles_total"),
        expect.acc_stall,
        "{name}"
    );
    assert_eq!(
        counter("sim_mult_busy_cycles_total"),
        expect.mult_busy,
        "{name}"
    );
    assert_eq!(
        gauge("sim_fifo_high_water"),
        expect.fifo_high_water,
        "{name}"
    );
    assert_eq!(
        gauge("sim_queue_depth_high_water"),
        expect.queue_depth_high_water,
        "{name}"
    );
    assert_eq!(
        counter("sim_ddr_read_bytes_total"),
        expect.ddr_read,
        "{name}"
    );
    assert_eq!(
        counter("sim_ddr_write_bytes_total"),
        expect.ddr_write,
        "{name}"
    );
    assert_eq!(
        counter("sim_cu_busy_cycles_total"),
        expect.cu_busy_total,
        "{name}"
    );
    for (cu, busy) in &expect.cu_busy {
        assert_eq!(
            counter(&format!("sim_cu{cu}_busy_cycles_total")),
            *busy,
            "{name} CU {cu}"
        );
    }
    assert_eq!(counter("sim_layers_total"), expect.layers, "{name}");
    assert_eq!(
        counter("sim_compute_cycles_total"),
        expect.compute_cycles,
        "{name}"
    );
    assert!(
        expect.layers > 0 && expect.acc_busy > 0,
        "{name}: empty run"
    );
}

#[test]
fn sim_metrics_reconcile_exactly_on_alexnet() {
    let _guard = registry_lock();
    reconcile_network(
        "alexnet",
        zoo::alexnet(),
        PruneProfile::alexnet_deep_compression(),
        AcceleratorConfig::paper_alexnet(),
    );
}

#[test]
fn sim_metrics_reconcile_exactly_on_vgg16() {
    let _guard = registry_lock();
    reconcile_network(
        "vgg16",
        zoo::vgg16(),
        PruneProfile::vgg16_deep_compression(),
        AcceleratorConfig::paper(),
    );
}

/// The inference-side aggregates reconcile against ground truth the
/// result itself carries: image/layer histogram counts, per-variant
/// execute counters, and the interior/halo pixel split.
#[test]
fn infer_metrics_reconcile_with_results() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 7);
    let registry = fresh_registry();
    let inferencer = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let prepared = inferencer.prepare().unwrap();
    let abm_layers = (0..model.layers.len())
        .filter(|&i| prepared.abm_layer(i).is_some())
        .count() as u64;
    assert!(abm_layers > 0);
    let inputs: Vec<_> = (0..3).map(|i| synthetic_input(&net, i)).collect();
    let results = inferencer.run_batch_prepared(&prepared, &inputs).unwrap();
    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    assert_eq!(counter("infer_images_total"), 3);
    assert_eq!(snap.histograms["infer_image_ns"].count, 3);
    assert_eq!(snap.histograms["infer_layer_ns"].count, abm_layers * 3);
    // One execute per ABM layer per image, attributed to the exact
    // variant the preparation resolved.
    let execute_total: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("abm_execute_") && k.ends_with("_total"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(execute_total, abm_layers * 3);
    // One dispatch per ABM layer (preparation happens once).
    let dispatch_total: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("abm_dispatch_"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(dispatch_total, abm_layers);
    // Interior + halo partition every written feature exactly.
    assert_eq!(
        counter("abm_interior_pixels_total") + counter("abm_halo_pixels_total"),
        results[0].total_features * 3
    );
}

// ---------------------------------------------------------------------
// 2. Observation never perturbs results.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Registry on (with a flight-teed sink attached) == registry off,
    /// bit for bit, whatever the synthesized weights — logits, traces,
    /// work counters, calibration statistics.
    #[test]
    fn registry_never_perturbs_inference(
        density in 0.2f64..0.9,
        levels in 4usize..32,
        seed in 0u64..1_000,
    ) {
        let _guard = registry_lock();
        let (net, model) = tiny_model(density, levels, seed);
        let inputs = vec![synthetic_input(&net, 0), synthetic_input(&net, 1)];
        let registry = metrics::global();
        registry.set_enabled(false);
        let inf = Inferencer::new(&model).parallelism(Parallelism::Serial);
        let off = inf.run_batch_prepared(&inf.prepare().unwrap(), &inputs).unwrap();
        fresh_registry();
        let inf = inf.telemetry(metrics::flight_tee(TelemetrySink::new()));
        let on = inf.run_batch_prepared(&inf.prepare().unwrap(), &inputs).unwrap();
        prop_assert_eq!(off, on);
    }
}

// ---------------------------------------------------------------------
// 3. The flight recorder as a faithful post-mortem.
// ---------------------------------------------------------------------

/// Deterministically corrupts the first prepared ABM layer (one offset
/// bit, the `wt-word-flip` fault class), runs one image under a
/// detect-only policy so the error surfaces, and returns the frozen
/// dump plus the full stable-rendered sink stream.
fn seeded_fault_run() -> (metrics::FlightDump, Vec<String>) {
    let registry = fresh_registry();
    let (net, model) = tiny_model(0.6, 16, 9);
    let sink = metrics::flight_tee(TelemetrySink::new());
    let inferencer = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::detect_only())
        .telemetry(sink.clone());
    let mut prepared = inferencer.prepare().unwrap();
    let layer = (0..model.layers.len())
        .find(|&i| prepared.abm_layer(i).is_some())
        .unwrap();
    let prep = prepared.abm_layer_mut(layer).unwrap();
    let flat = prep.flat().clone();
    let mut kernels = flat.kernels().to_vec();
    let k = &kernels[0];
    let mut offsets = k.offsets().to_vec();
    offsets[0] ^= 1 << 5;
    kernels[0] = abm_spconv_repro::sparse::FlatKernel::from_raw_parts(
        k.values().to_vec(),
        k.group_bounds().to_vec(),
        offsets,
        k.taps().to_vec(),
    );
    let bad = FlatCode::from_kernels(flat.shape(), flat.layout(), kernels);
    *prep = prep.clone().with_flat(bad);
    let input = synthetic_input(&net, 0);
    inferencer
        .run_prepared(&prepared, &input)
        .expect_err("detect-only policy must surface the corruption");
    let dump = registry
        .flight()
        .last_dump()
        .expect("the surfaced error must freeze a flight dump");
    let stream: Vec<String> = sink.events().iter().map(metrics::stable_line).collect();
    (dump, stream)
}

/// The dump's tail is exactly the recorded event stream (the run fits
/// inside the ring), and a surfaced error is counted.
#[test]
fn seeded_fault_dump_tail_matches_event_stream() {
    let _guard = registry_lock();
    let (dump, stream) = seeded_fault_run();
    assert_eq!(dump.context, "infer");
    assert_eq!(dump.total_recorded, stream.len() as u64);
    let dumped: Vec<String> = dump.events.iter().map(metrics::stable_line).collect();
    assert_eq!(dumped, stream);
    // A Detected fault event made it into the dump.
    assert!(
        dump.events.iter().any(|e| matches!(e, Event::Fault { .. })),
        "dump carries no fault event:\n{}",
        dump.to_text()
    );
    let snap = metrics::global().snapshot();
    assert_eq!(snap.counters.get("abm_errors_total"), Some(&1));
    assert_eq!(snap.counters.get("abm_errors_infer_total"), Some(&1));
    json::validate(&dump.to_json()).unwrap();
}

/// Two identical seeded fault runs freeze byte-identical dumps: the
/// stable rendering omits wall-clock fields, everything else is
/// deterministic.
#[test]
fn seeded_fault_dumps_are_byte_stable() {
    let _guard = registry_lock();
    let (first, _) = seeded_fault_run();
    let (second, _) = seeded_fault_run();
    assert_eq!(first.to_text(), second.to_text());
    assert_eq!(first.to_json(), second.to_json());
}

/// The full seeded fault *campaign* is also dump-stable: a trial's
/// telemetry tees into the flight ring (wired inside `run_campaign`),
/// and freezing a dump after two identical campaigns renders the same
/// bytes.
#[test]
fn seeded_campaign_flight_dump_is_byte_stable() {
    let _guard = registry_lock();
    let campaign_dump = || {
        let registry = fresh_registry();
        let config = CampaignConfig {
            nets: vec!["tiny".into()],
            seed: 5,
            trials_per_class: 1,
        };
        let sink = TelemetrySink::new();
        let report = run_campaign(&config, &sink).unwrap();
        assert!(report.is_clean());
        registry.note_error("campaign-postmortem", "post-campaign snapshot");
        registry.flight().last_dump().unwrap()
    };
    let first = campaign_dump();
    let second = campaign_dump();
    assert!(first.total_recorded > 0);
    assert_eq!(first.to_text(), second.to_text());
    // And the recovery-ladder counters saw the campaign.
    let snap = metrics::global().snapshot();
    let injected = snap
        .counters
        .get("fault_injected_total")
        .copied()
        .unwrap_or(0);
    let trials = snap
        .counters
        .get("campaign_trials_total")
        .copied()
        .unwrap_or(0);
    assert!(injected > 0, "campaign injected no counted faults");
    assert!(trials > 0, "campaign recorded no trials");
}

/// Satellite: the sink (with the flight tee attached — the config with
/// the most lock traffic) loses nothing under concurrent writers, and
/// per-thread event order is preserved.
#[test]
fn telemetry_sink_concurrent_writers_lose_nothing() {
    let _guard = registry_lock();
    let registry = fresh_registry();
    const THREADS: u32 = 8;
    const PER_THREAD: u64 = 200;
    let sink = metrics::flight_tee(TelemetrySink::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sink = sink.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    sink.record(Event::LayerEnd { layer: t, cycle: i });
                }
            });
        }
    });
    let events = sink.drain();
    assert_eq!(events.len(), (THREADS as u64 * PER_THREAD) as usize);
    let mut next = [0u64; THREADS as usize];
    for e in &events {
        match e {
            Event::LayerEnd { layer, cycle } => {
                assert_eq!(*cycle, next[*layer as usize], "thread {layer} reordered");
                next[*layer as usize] += 1;
            }
            other => panic!("corrupted event {other:?}"),
        }
    }
    assert!(next.iter().all(|&n| n == PER_THREAD));
    // The tee mirrored every record into the ring.
    assert_eq!(registry.flight().recorded(), THREADS as u64 * PER_THREAD);
}

/// The exposition formats stay well-formed on a real run, and the
/// Prometheus text quotes the quantiles the table prints.
#[test]
fn snapshot_expositions_are_well_formed() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 3);
    let registry = fresh_registry();
    let inf = Inferencer::new(&model).parallelism(Parallelism::Serial);
    inf.run_batch_prepared(&inf.prepare().unwrap(), &[synthetic_input(&net, 0)])
        .unwrap();
    let snap = registry.snapshot();
    let text = snap.to_json();
    json::validate(&text).unwrap();
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE infer_images_total counter"));
    assert!(prom.contains("quantile=\"0.99\""));
    let table = snap.render_table();
    assert!(table.contains("infer_image_ns"));
    assert!(table.contains("p99"));
}
