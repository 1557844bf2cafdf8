//! Integration tests for the fault-injection and recovery stack: the
//! never-silent property over every fault class, the NullInjector
//! zero-overhead bit-identity guarantee, per-item batch salvage, and
//! the offset-overflow typed-error regression.

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::conv::{Engine, Inferencer, Parallelism, ResiliencePolicy};
use abm_spconv_repro::fault::{AbmError, FaultClass, FaultOutcome, NullInjector};
use abm_spconv_repro::model::{
    synthesize_model, zoo, FcSpec, Layer, LayerKind, LayerProfile, Network, PruneProfile,
};
use abm_spconv_repro::sim::run::simulate_workload_with;
use abm_spconv_repro::sim::task::Workload;
use abm_spconv_repro::sim::{
    simulate_workload_guarded, AcceleratorConfig, MemorySystem, SchedulingPolicy, Watchdog,
};
use abm_spconv_repro::sparse::{EncodeError, FlatCode, FlatKernel, FlatLayout, LayerCode};
use abm_spconv_repro::telemetry::{NullCollector, TelemetrySink};
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use proptest::prelude::*;

fn tiny_model() -> abm_spconv_repro::model::SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
    synthesize_model(&net, &profile, 7)
}

fn synth_image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + 1) * (r + 3) * (col + 7 + salt)) % 255) as i16) - 127
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: whatever the seed, every fault class the
    /// campaign injects into the tiny network is either detected (and
    /// recovered bit-identically) or provably masked — never silent,
    /// never unrecovered.
    #[test]
    fn every_fault_class_is_never_silent(seed in any::<u64>()) {
        let mut config = CampaignConfig::net("tiny");
        config.seed = seed;
        let report = run_campaign(&config, &TelemetrySink::new()).unwrap();
        // Every class once, plus the two pipelined dataflow trials
        // (boundary FIFO stall + stage CU hang), which must obey the
        // same lattice: detected-and-recovered or provably masked.
        prop_assert_eq!(report.trials.len(), FaultClass::ALL.len() + 2);
        prop_assert_eq!(report.count(FaultOutcome::Silent), 0);
        prop_assert_eq!(report.count(FaultOutcome::DetectedUnrecovered), 0);
        // Every class was actually injected; the two dataflow-sensitive
        // classes land on both the time-multiplexed and pipelined rails.
        let counts = report.class_counts();
        for class in FaultClass::ALL {
            let expected = match class {
                FaultClass::FifoStall | FaultClass::CuHang => 2,
                _ => 1,
            };
            prop_assert_eq!(counts[class.name()].injected, expected);
        }
    }

    /// NullInjector zero-overhead guarantee at the integration level:
    /// the guarded simulation entry point with the disabled injector
    /// returns bit-identical timing to the plain simulator on every
    /// layer, for any watchdog slack.
    #[test]
    fn null_injector_guarded_sim_is_bit_identical(slack in 1u64..1_000_000) {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let mem = MemorySystem::de5_net();
        for (i, layer) in model.layers.iter().enumerate() {
            let w = Workload::from_layer(layer).unwrap();
            let plain = simulate_workload_with(
                &w, &cfg, &mem, SchedulingPolicy::SemiSynchronous, Parallelism::Serial,
            );
            let guarded = simulate_workload_guarded(
                &w, &cfg, &mem, SchedulingPolicy::SemiSynchronous, Parallelism::Serial,
                i as u32, 0, &mut NullCollector, &mut NullInjector,
                Watchdog::with_slack(slack),
            )
            .unwrap();
            prop_assert_eq!(guarded.compute_cycles, plain.compute_cycles);
            prop_assert_eq!(guarded.busy_cycles, plain.busy_cycles);
            prop_assert_eq!(guarded.seconds.to_bits(), plain.seconds.to_bits());
        }
    }
}

/// One corrupted image in a batch fails alone: the other items complete
/// and match a clean serial run exactly.
#[test]
fn corrupted_batch_item_is_salvaged_per_item() {
    let model = tiny_model();
    let shape = model.network.input_shape();
    let wrong = Shape3::new(shape.channels + 1, shape.rows, shape.cols);
    let inputs = vec![
        synth_image(shape, 0),
        synth_image(wrong, 1), // corrupted: wrong channel count
        synth_image(shape, 2),
    ];
    let inferencer = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Threads(2));
    let prepared = inferencer.prepare().unwrap();
    let results = inferencer.run_batch_salvage(&prepared, &inputs, None);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(
        matches!(results[1], Err(AbmError::ShapeMismatch { .. })),
        "bad item must fail alone, got {:?}",
        results[1]
    );
    assert!(results[2].is_ok());

    // Salvaged items match a clean run bit-identically.
    let clean = inferencer
        .run_batch_prepared(&prepared, &[inputs[0].clone(), inputs[2].clone()])
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap().logits, clean[0].logits);
    assert_eq!(results[2].as_ref().unwrap().logits, clean[1].logits);

    // The fail-fast path reports the same corruption as a hard error.
    assert!(matches!(
        inferencer.run_batch_prepared(&prepared, &inputs),
        Err(AbmError::ShapeMismatch { .. })
    ));
}

/// AlexNet-scale detector check, kept at layer level: FC6 (the largest
/// code stream, 9216 -> 4096) alone, with one WT-Buffer offset bit
/// flipped after load. Detection alone must surface the stored-checksum
/// mismatch; the hardened ladder must re-lower and reproduce the clean
/// result bit for bit.
#[test]
fn alexnet_fc6_offset_flip_is_detected_and_recovered() {
    let mut net = Network::new("AlexNet-FC6", Shape3::new(256, 6, 6));
    net.push(Layer::new(
        "FC6",
        LayerKind::FullyConnected(FcSpec::new(256 * 6 * 6, 4096)),
    ));
    net.push(Layer::new("SOFTMAX", LayerKind::Softmax));
    let model = synthesize_model(&net, &PruneProfile::alexnet_deep_compression(), 2019);
    let input = synth_image(net.input_shape(), 5);
    let hardened = Inferencer::new(&model).resilience(ResiliencePolicy::hardened());
    let mut prepared = hardened.prepare().unwrap();
    let golden = hardened.run_prepared(&prepared, &input).unwrap();

    let prep = prepared.abm_layer_mut(0).unwrap();
    let flat = prep.flat().clone();
    let mut kernels = flat.kernels().to_vec();
    let k = &kernels[2048];
    let mut offsets = k.offsets().to_vec();
    let mid = offsets.len() / 2;
    offsets[mid] ^= 1 << 9;
    kernels[2048] = FlatKernel::from_raw_parts(
        k.values().to_vec(),
        k.group_bounds().to_vec(),
        offsets,
        k.taps().to_vec(),
    );
    *prep = prep
        .clone()
        .with_flat(FlatCode::from_kernels(flat.shape(), flat.layout(), kernels));

    let err = Inferencer::new(&model)
        .resilience(ResiliencePolicy::detect_only())
        .run_prepared(&prepared, &input)
        .unwrap_err();
    assert!(
        matches!(err.root_cause(), AbmError::ChecksumMismatch { .. }),
        "{err}"
    );
    let recovered = hardened.run_prepared(&prepared, &input).unwrap();
    assert_eq!(recovered.logits, golden.logits);
    assert_eq!(recovered.probabilities, golden.probabilities);
}

/// Regression: an input plane too large for 32-bit flat offsets is a
/// typed error, not a panic (the overflow used to be unchecked).
#[test]
fn flat_offset_overflow_is_a_typed_error() {
    let weights = Tensor4::from_fn(Shape4::new(1, 2, 1, 1), |_, _, _, _| 1i8);
    let code = LayerCode::encode(&weights).unwrap();
    // plane = 2^16 * 2^16 = 2^32, so channel n = 1 lands past u32::MAX.
    let layout = FlatLayout {
        in_rows: 1 << 16,
        in_cols: 1 << 16,
        stride: 1,
        pad: 0,
    };
    match FlatCode::lower(&code, layout) {
        Err(EncodeError::OffsetOverflow { offset }) => {
            assert!(offset > u32::MAX as usize);
        }
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
    // And the conversion into the unified error type is lossless.
    let e = AbmError::from(FlatCode::lower(&code, layout).unwrap_err());
    assert!(e.to_string().contains("offset"), "unhelpful error: {e}");
}

/// The telemetry fault track records the whole injected → detected →
/// recovered lifecycle for a campaign.
#[test]
fn campaign_telemetry_records_fault_lifecycle() {
    use abm_spconv_repro::telemetry::{Event, FaultAction};
    let sink = TelemetrySink::new();
    let report = run_campaign(&CampaignConfig::net("tiny"), &sink).unwrap();
    assert!(report.is_clean(), "\n{}", report.summary_table());
    let events = sink.events();
    let count = |action: FaultAction| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Fault { action: a, .. } if *a == action))
            .count()
    };
    // Ten classes plus the two pipelined dataflow trials.
    assert_eq!(count(FaultAction::Injected), FaultClass::ALL.len() + 2);
    // Every detected trial also recorded a recovery.
    assert_eq!(count(FaultAction::Detected), count(FaultAction::Recovered));
    assert_eq!(
        count(FaultAction::Detected),
        report.count(FaultOutcome::DetectedRecovered)
    );
}
