//! The traced run: per-layer metrics from spans the benchmark records
//! around each call it makes into one of the program's layers.
//!
//! The forward pass is replayed from outside, layer by layer, through
//! the program's public functions (`PreparedConv::execute_counted`,
//! `host::{pool, relu, lrn}`, ...). Between accelerated layers the
//! benchmark requantizes with its own copy of the program's private
//! Sum/Round step; that step, the FC flatten copies and the softmax are
//! what the public calls cannot reach, reported as
//! `infer.<net>.residual_ms`. The replay's logits must equal the golden
//! ones bit for bit, which proves it computes what `run_prepared` does.

use crate::closed::BATCH;
use crate::model::{self, Net};
use crate::report::Report;
use crate::serve;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use abm_conv::{abft, host, Geometry, Inferencer, Parallelism, PreparedConv, PreparedWeights};
use abm_model::{synthesize_model, LayerKind, SparseLayer, SparseModel};
use abm_serve::Server;
use abm_sparse::{LayerCode, SizeModel};
use abm_tensor::fixed::{round_shift, saturate};
use abm_tensor::quantize::choose_frac;
use abm_tensor::{QFormat, Rounding, Shape3, Tensor3};
use abm_verify::{AbsVal, ConvGeometry};
use std::sync::Arc;
use std::time::Instant;

/// The traced layer sum must explain this share of the untraced
/// per-image time, or the traced run fails.
pub const COVERAGE_RANGE: (f64, f64) = (0.80, 1.05);

/// A replay with spans may take at most this share more (or less) time
/// than the same replay without spans, or the spans perturb what they
/// measure and the traced run fails.
pub const OVERHEAD_BOUND: f64 = 0.15;

/// The three ways one image goes through the network in [`layers`].
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// `Inferencer::run_prepared`, untraced: the end-to-end code path.
    Program,
    /// The layer-by-layer replay with a span around each call.
    Traced,
    /// The same replay with spans off.
    Bare,
}

/// Batches timed on 2 workers for `parallel.vgg16.*`.
const PARALLEL_BATCHES: usize = 2;

/// Group id shared by the spans of image `k` of `net`; the checked
/// replays of the same inputs are images of their own.
fn group(net: Net, k: usize, checked: bool) -> u64 {
    let base = match net {
        Net::AlexNet => 1_000,
        Net::Vgg16 => 2_000,
    };
    base + 500 * u64::from(checked) + k as u64
}

pub fn run(
    rep: &mut Report,
    tr: &mut Tracer,
    setup_net: Net,
    seed: u64,
    seconds: f64,
    workers: usize,
) {
    let traced = traced_setup(rep, tr, setup_net, seed);
    let (alex, vgg) = match setup_net {
        Net::AlexNet => (traced, model::build(Net::Vgg16, seed)),
        Net::Vgg16 => (model::build(Net::AlexNet, seed), traced),
    };
    let server = traced_start(rep, tr, &alex.0);
    // The worse of the two networks' overheads.
    let mut overhead: f64 = 0.0;
    for (net, (m, p)) in [(Net::AlexNet, &alex), (Net::Vgg16, &vgg)] {
        rep.meta(
            &format!("kernels.{}", net.key()),
            model::kernel_selection(m, p),
        );
        let o = layers(rep, tr, net, m, p, seed, workers);
        if o.abs() > overhead.abs() {
            overhead = o;
        }
    }
    rep.metric("trace.overhead_frac", overhead, "frac");
    if overhead.abs() > OVERHEAD_BOUND {
        rep.error(format!(
            "trace.overhead_frac {overhead:.3} exceeds the bound {OVERHEAD_BOUND}"
        ));
    }
    traced_serve(rep, tr, server, &alex.0, seed, seconds);
}

/// Set-up of `net`, one span per public call: synthesize, encode each
/// layer, lower each layer, certify each lowering, then the whole
/// `Inferencer::prepare` (which repeats encode/lower/certify internally;
/// the separate calls break its cost down).
fn traced_setup(
    rep: &mut Report,
    tr: &mut Tracer,
    net: Net,
    seed: u64,
) -> (SparseModel, PreparedWeights) {
    let root = tr.begin("setup", 0, None);
    let model = tr.span("model.synth", 0, Some(root), || {
        synthesize_model(&net.network(), &net.profile(), net.model_seed(seed))
    });
    let mut codes = Vec::new();
    for sl in &model.layers {
        codes.push(tr.span("sparse.encode", 0, Some(root), || {
            LayerCode::encode(&sl.weights).expect("zoo layers encode")
        }));
    }
    let sizes = SizeModel::paper();
    let encoded_bytes: u64 = codes.iter().map(|c| sizes.layer_bytes(c).total()).sum();
    let mut lowered = Vec::new();
    for (sl, code) in model.layers.iter().zip(&codes) {
        let (in_shape, geom) = accel_geometry(sl);
        lowered.push(tr.span("abm.lower", 0, Some(root), || {
            PreparedConv::try_new_with_isa(code, in_shape, geom, None).expect("zoo layers lower")
        }));
    }
    let mut certs = Vec::new();
    for (sl, prep) in model.layers.iter().zip(&lowered) {
        let geometry = conv_geometry(prep);
        certs.push(tr.span("verify.certify", 0, Some(root), || {
            abm_verify::certify_layer(sl.name(), prep.flat(), &geometry, AbsVal::i8_features())
        }));
    }
    let prepared = tr.span("infer.prepare", 0, Some(root), || {
        Inferencer::new(&model)
            .prepare()
            .expect("zoo models prepare")
    });
    tr.end(root);
    // The stand-alone certification must reach the same widths as the
    // one `prepare` performed, or it did not measure the same work.
    for (i, cert) in certs.iter().enumerate() {
        let inner = prepared.abm_layer(i).and_then(PreparedConv::certificate);
        if inner.map(|c| (c.stage1_bits, c.stage2_bits))
            != Some((cert.stage1_bits, cert.stage2_bits))
        {
            rep.error(format!(
                "certify replay disagrees with prepare on layer {i}"
            ));
        }
    }
    let total = |name: &str| tr.self_ms(name).iter().sum::<f64>() / 1e3;
    rep.meta("setup.net", net.key());
    rep.metric("model.synth_s", total("model.synth"), "s");
    rep.metric("sparse.encode_s", total("sparse.encode"), "s");
    rep.metric(
        "sparse.encoded_mb",
        encoded_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    rep.metric("abm.lower_s", total("abm.lower"), "s");
    rep.metric("verify.certify_s", total("verify.certify"), "s");
    rep.metric("infer.prepare_s", total("infer.prepare"), "s");
    (model, prepared)
}

/// The simulator run admission control prices requests with, and the
/// server start that performs it (plus prepare and warm-up).
fn traced_start(rep: &mut Report, tr: &mut Tracer, alex: &SparseModel) -> Server {
    let sim = tr.span("sim.host", 0, None, || {
        abm_sim::simulate_network_par(alex, &serve::accel(), abm_sim::Parallelism::Serial)
    });
    let cycles = sim.summary().compute_cycles;
    let model = Arc::new(alex.clone());
    let server = tr.span("serve.start", 0, None, || {
        Server::start(model, &serve::accel(), serve::serve_config()).expect("server starts")
    });
    if server.cycles_per_image() != cycles {
        rep.error("the server's cost model disagrees with the stand-alone simulation");
    }
    rep.metric("sim.host_s", tr.self_ms("sim.host")[0] / 1e3, "s");
    rep.metric("serve.start_s", tr.self_ms("serve.start")[0] / 1e3, "s");
    rep.metric("sim.cycles_per_image", cycles as f64, "sim_cycles");
    server
}

/// Replays `net` image by image, interleaved with untraced
/// `run_prepared` calls and untraced replays of the same inputs, and
/// reports per-layer time, exact ops, the host layers, the residual and
/// the coverage. Returns the tracing overhead: the median over images of
/// traced replay time over untraced replay time, minus one.
///
/// Coverage, residual and overhead are medians of per-image ratios and
/// differences, each taken within one image's three passes, so a slow
/// spell of the host moves numerator and denominator together. The
/// passes alternate their order from image to image so that neither
/// side always runs first.
fn layers(
    rep: &mut Report,
    tr: &mut Tracer,
    net: Net,
    model: &SparseModel,
    prepared: &PreparedWeights,
    seed: u64,
    workers: usize,
) -> f64 {
    let key = net.key();
    // Images replayed (cycling the distinct inputs), each also timed
    // untraced.
    let n = match net {
        Net::AlexNet => 12,
        Net::Vgg16 => 6,
    };
    let inputs = model::inputs(model.network.input_shape(), seed, net.distinct_inputs());
    let golden = model::golden(net, seed, inputs.len(), workers);
    let serial = Inferencer::new(model).parallelism(Parallelism::Serial);
    let mut off = Tracer::off();
    let (mut program_ms, mut traced_ms, mut bare_ms) = (Vec::new(), Vec::new(), Vec::new());
    let check = |rep: &mut Report, k: usize, logits: &[f32]| {
        rep.attempted += 1;
        if !model::same_logits(&golden[k % golden.len()], logits) {
            rep.failed += 1;
        }
    };
    // Warm-up pass so the first replayed image does not pay cold caches.
    let r = serial
        .run_prepared(prepared, &inputs[0])
        .expect("inference");
    check(rep, 0, &r.logits);
    for k in 0..n {
        let x = &inputs[k % inputs.len()];
        let g = group(net, k, false);
        let order = if k % 2 == 0 {
            [Pass::Program, Pass::Traced, Pass::Bare]
        } else {
            [Pass::Bare, Pass::Traced, Pass::Program]
        };
        for pass in order {
            let t0 = Instant::now();
            let logits = match pass {
                Pass::Program => serial.run_prepared(prepared, x).expect("inference").logits,
                Pass::Traced => replay(tr, net, model, prepared, x, g, false),
                Pass::Bare => replay(&mut off, net, model, prepared, x, g, false),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match pass {
                Pass::Program => program_ms.push(ms),
                Pass::Traced => traced_ms.push(ms),
                Pass::Bare => bare_ms.push(ms),
            }
            check(rep, k, &logits);
        }
    }
    if net == Net::AlexNet {
        // The hardened policy's detectors, timed per image in a separate
        // pass so their cache effects do not leak into the layer times.
        for k in 0..n {
            let x = &inputs[k % inputs.len()];
            let logits = replay(tr, net, model, prepared, x, group(net, k, true), true);
            check(rep, k, &logits);
        }
        let per_image = |name: &str| per_image_ms(tr, net, n, true, &[name]);
        rep.metric(
            "abm.alexnet.verify_checksum_ms",
            per_image("abm.alexnet.verify_checksum"),
            "ms",
        );
        rep.metric(
            "abft.alexnet.verify_output_ms",
            per_image("abft.alexnet.verify_output"),
            "ms",
        );
    }

    let mut layer_names = Vec::new();
    for (i, sl) in model.layers.iter().enumerate() {
        let prep = prepared.abm_layer(i).expect("ABM weights");
        let name = format!("abm.{key}.{}", sl.name());
        let ms = median(&tr.self_ms(&name));
        let ops = prep.work().total() as f64;
        rep.metric(&format!("{name}.ms"), ms, "ms");
        rep.metric(&format!("{name}.ops"), ops, "ops");
        rep.metric(&format!("{name}.gops"), ops / (ms * 1e6), "GOP/s");
        layer_names.push(name);
    }
    let host_kinds: &[&str] = match net {
        Net::AlexNet => &["pool", "relu", "lrn"],
        Net::Vgg16 => &["pool", "relu"],
    };
    for kind in host_kinds {
        let name = format!("host.{key}.{kind}");
        rep.metric(
            &format!("{name}_ms"),
            per_image_ms(tr, net, n, false, &[&name]),
            "ms",
        );
        layer_names.push(name);
    }
    let names: Vec<&str> = layer_names.iter().map(String::as_str).collect();
    let layer_sums = per_image_sums(tr, net, n, false, &names);
    let per_pair = |f: fn(f64, f64) -> f64, a: &[f64], b: &[f64]| {
        median(&a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>())
    };
    let untraced = median(&program_ms);
    let coverage = per_pair(|sum, prog| sum / prog, &layer_sums, &program_ms);
    rep.metric(
        &format!("infer.{key}.residual_ms"),
        per_pair(|sum, prog| prog - sum, &layer_sums, &program_ms),
        "ms",
    );
    rep.metric(&format!("trace.{key}.coverage"), coverage, "frac");
    rep.meta(
        &format!("untraced.{key}.image_ms"),
        format!("{untraced:.3}"),
    );
    if !(COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&coverage) {
        rep.error(format!(
            "trace.{key}.coverage {coverage:.3} outside the tolerance {COVERAGE_RANGE:?}"
        ));
    }
    if net == Net::Vgg16 {
        parallel(
            rep, tr, model, prepared, &inputs, &golden, untraced, workers,
        );
    }
    rep.meta(
        &format!("replay.{key}.image_ms"),
        format!(
            "traced {:.3}, bare {:.3}",
            median(&traced_ms),
            median(&bare_ms)
        ),
    );
    per_pair(|traced, bare| traced / bare - 1.0, &traced_ms, &bare_ms)
}

/// Per image, the summed self time of the spans named in `names`; the
/// median over the `n` images of `net`.
fn per_image_ms(tr: &Tracer, net: Net, n: usize, checked: bool, names: &[&str]) -> f64 {
    median(&per_image_sums(tr, net, n, checked, names))
}

/// Per image of `net`, the summed self time of the spans named in
/// `names`, in image order.
fn per_image_sums(tr: &Tracer, net: Net, n: usize, checked: bool, names: &[&str]) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let g = group(net, k, checked);
            (0..tr.spans().len())
                .filter(|&i| {
                    tr.spans()[i].group == g && names.contains(&tr.spans()[i].name.as_str())
                })
                .map(|i| tr.self_ns(i) as f64 / 1e6)
                .sum()
        })
        .collect()
}

/// `parallel.vgg16.*`: serial per-image time against the per-image time
/// of 8-image batches on `workers` threads.
#[allow(clippy::too_many_arguments)]
fn parallel(
    rep: &mut Report,
    tr: &mut Tracer,
    model: &SparseModel,
    prepared: &PreparedWeights,
    inputs: &[Tensor3<i16>],
    golden: &[Vec<f32>],
    serial_ms: f64,
    workers: usize,
) {
    let inf = Inferencer::new(model).parallelism(Parallelism::Threads(workers));
    let batch: Vec<_> = (0..BATCH)
        .map(|j| inputs[j % inputs.len()].clone())
        .collect();
    let mut per_image = Vec::new();
    for b in 0..PARALLEL_BATCHES {
        let id = tr.begin("infer.vgg16.batch", 3_000 + b as u64, None);
        let out = inf
            .run_batch_prepared(prepared, &batch)
            .expect("batch inference");
        tr.end(id);
        per_image.push(tr.spans()[id].dur_ns() as f64 / 1e6 / BATCH as f64);
        for (j, r) in out.iter().enumerate() {
            rep.attempted += 1;
            if !model::same_logits(&golden[j % inputs.len()], &r.logits) {
                rep.failed += 1;
            }
        }
    }
    let speedup = serial_ms / median(&per_image);
    rep.metric("parallel.vgg16.speedup", speedup, "x");
    rep.metric(
        "parallel.vgg16.efficiency",
        speedup / workers as f64,
        "frac",
    );
}

/// One image through `net`, layer by layer via the public calls. With
/// `checks`, the hardened policy's checksum and ABFT detectors run
/// around each ABM layer (their spans are kept apart from the layer
/// spans by an image-span name of their own).
fn replay(
    tr: &mut Tracer,
    net: Net,
    model: &SparseModel,
    prepared: &PreparedWeights,
    input: &Tensor3<i16>,
    g: u64,
    checks: bool,
) -> Vec<f32> {
    let key = net.key();
    let root_name = if checks {
        format!("infer.{key}.checked_image")
    } else {
        format!("infer.{key}.image")
    };
    let root = tr.begin(&root_name, g, None);
    let mut x = input.clone();
    let mut fmt = QFormat::new(8, 0);
    let mut accel = 0;
    let mut logits = None;
    for layer in model.network.layers() {
        match &layer.kind {
            LayerKind::Conv(_) | LayerKind::FullyConnected(_) => {
                let sl = &model.layers[accel];
                let prep = prepared.abm_layer(accel).expect("ABM weights");
                if matches!(layer.kind, LayerKind::FullyConnected(_)) {
                    x = host::flatten(&x);
                }
                let acc = if checks {
                    tr.span(&format!("abm.{key}.verify_checksum"), g, Some(root), || {
                        prep.verify_checksum()
                    })
                    .expect("pristine weights pass the checksum");
                    let (acc, _) = prep.execute_counted(&x);
                    tr.span(&format!("abft.{key}.verify_output"), g, Some(root), || {
                        abft::verify_output(prep, &x, &acc)
                    })
                    .expect("a correct output passes ABFT");
                    acc
                } else {
                    let name = format!("abm.{key}.{}", layer.name);
                    tr.span(&name, g, Some(root), || prep.execute_counted(&x)).0
                };
                let (out, out_fmt) = requantize(&acc, fmt, sl.format);
                x = out;
                fmt = out_fmt;
                accel += 1;
            }
            LayerKind::Pool(spec) => {
                x = tr.span(&format!("host.{key}.pool"), g, Some(root), || {
                    host::pool(&x, *spec)
                });
            }
            LayerKind::Relu => {
                x = tr.span(&format!("host.{key}.relu"), g, Some(root), || {
                    host::relu(&x)
                });
            }
            LayerKind::Lrn(spec) => {
                x = tr.span(&format!("host.{key}.lrn"), g, Some(root), || {
                    host::lrn(&x, fmt, spec)
                });
            }
            LayerKind::Softmax => {
                let l = dequantize(&x, fmt);
                std::hint::black_box(host::softmax(&l));
                logits = Some(l);
            }
        }
    }
    tr.end(root);
    logits.unwrap_or_else(|| dequantize(&x, fmt))
}

fn dequantize(x: &Tensor3<i16>, fmt: QFormat) -> Vec<f32> {
    x.as_slice()
        .iter()
        .map(|&v| fmt.dequantize(i32::from(v)))
        .collect()
}

/// The benchmark's copy of the program's Sum/Round step (dynamic
/// format: the largest magnitude just fits 8 bits, one rounding).
fn requantize(acc: &Tensor3<i64>, feat: QFormat, weight: QFormat) -> (Tensor3<i16>, QFormat) {
    let acc_frac = i32::from(feat.frac()) + i32::from(weight.frac());
    let max_abs = acc
        .as_slice()
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0);
    let max_real = (max_abs as f64 * 2f64.powi(-acc_frac)) as f32;
    let target = QFormat::new(8, choose_frac(&[max_real], 8));
    let shift = acc_frac - i32::from(target.frac());
    let out =
        acc.map(|&v| saturate(round_shift(v, shift, Rounding::NearestTiesAway), target) as i16);
    (out, target)
}

/// The input shape and geometry an accelerated layer is lowered
/// against: conv layers at their feature-map shape, FC layers on the
/// flattened vector.
fn accel_geometry(sl: &SparseLayer) -> (Shape3, Geometry) {
    match &sl.layer.layer.kind {
        LayerKind::Conv(spec) => (
            sl.layer.input_shape,
            Geometry::new(spec.stride, spec.pad).with_groups(spec.groups),
        ),
        _ => (
            Shape3::new(sl.layer.input_shape.len(), 1, 1),
            Geometry::unit(),
        ),
    }
}

fn conv_geometry(prep: &PreparedConv) -> ConvGeometry {
    let layout = prep.flat().layout();
    let w = prep.flat().shape();
    let (inp, out) = (prep.input_shape(), prep.output_shape());
    let rows = layout.interior_rows(w.kernel_rows, out.rows);
    let cols = layout.interior_cols(w.kernel_cols, out.cols);
    ConvGeometry {
        in_channels: inp.channels,
        in_rows: layout.in_rows,
        in_cols: layout.in_cols,
        stride: layout.stride,
        pad: layout.pad,
        groups: prep.geometry().groups,
        out_rows: out.rows,
        out_cols: out.cols,
        interior_rows: (rows.start, rows.end),
        interior_cols: (cols.start, cols.end),
    }
}

/// A short served run at both rates for the `serve.*` metrics; each
/// request's spans (due → response, and the submit call) share its id.
fn traced_serve(
    rep: &mut Report,
    tr: &mut Tracer,
    server: Server,
    alex: &SparseModel,
    seed: u64,
    seconds: f64,
) {
    let inputs = model::inputs(
        alex.network.input_shape(),
        seed,
        Net::AlexNet.distinct_inputs(),
    );
    let golden = model::golden(Net::AlexNet, seed, inputs.len(), serve::WORKERS);
    let warm = serve::warm_up(&server, &inputs, &golden, 2 * serve::WORKERS);
    let phases = serve::run_phases(&server, seconds, &inputs, &golden);
    let estimate_ms = server.service_estimate().as_secs_f64() * 1e3;
    let stats = server.shutdown();
    serve::account(rep, &warm);
    let mut id = 5_000_000u64;
    for phase in [&phases.nominal, &phases.overload] {
        serve::account(rep, &phase.outcomes);
        for o in &phase.outcomes {
            let root = tr.record(
                "serve.request",
                id,
                None,
                o.due,
                o.done.unwrap_or(o.accepted),
            );
            tr.record("serve.submit", id, Some(root), o.submitted, o.accepted);
            id += 1;
        }
    }
    let nominal = &phases.nominal;
    let ok: Vec<_> = nominal
        .outcomes
        .iter()
        .filter(|o| o.class == serve::Class::Ok)
        .collect();
    let queue = Samples::new(
        &ok.iter()
            .map(|o| o.queued_us as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let exec = Samples::new(
        &ok.iter()
            .map(|o| o.total_us.saturating_sub(o.queued_us) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let overload = &phases.overload;
    let batches = nominal.batches + overload.batches;
    let admitted =
        nominal.count(serve::Outcome::admitted) + overload.count(serve::Outcome::admitted);
    let nominal_batch =
        nominal.count(serve::Outcome::admitted) as f64 / nominal.batches.max(1) as f64;
    let exec_ms = exec.median().unwrap_or(f64::NAN);
    let note = format!("nominal, n={}", queue.len());
    rep.metric_note(
        "serve.queue_wait_ms_p50",
        queue.median().unwrap_or(f64::NAN),
        "ms",
        note.clone(),
    );
    rep.metric_note("serve.exec_ms_p50", exec_ms, "ms", note);
    rep.metric(
        "serve.batch_size_mean",
        admitted as f64 / batches.max(1) as f64,
        "images",
    );
    rep.metric(
        "serve.shed_frac",
        overload.count(|o| !o.admitted()) as f64 / overload.outcomes.len() as f64,
        "frac",
    );
    rep.metric(
        "serve.estimate_ratio",
        estimate_ms / (exec_ms / nominal_batch),
        "x",
    );
    let lateness = phases
        .nominal
        .lateness_max_ms()
        .max(overload.lateness_max_ms());
    rep.metric("loadgen.lateness_ms_max", lateness, "ms");
    serve::check_run(rep, &stats, lateness);
}
