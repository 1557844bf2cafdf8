//! Command-line interface for the reproduction (hand-rolled parser — no
//! extra dependencies).
//!
//! ```text
//! abm-spconv analyze  <vgg16|alexnet|vgg19|tiny>
//! abm-spconv simulate <net> [--n-cu N] [--n-knl N] [--n N] [--s-ec N] [--freq MHZ]
//!                           [--parallel serial|auto|N] [--isa auto|scalar|avx2|avx512]
//!                           [--telemetry] [--report] [--trace-out PATH]
//! abm-spconv explore  <net> [--device gxa7|arria10]
//! abm-spconv infer    <net> [--engine dense|gemm|sparse|abm|freq] [--seed S]
//!                           [--batch N] [--parallel serial|auto|N]
//!                           [--isa auto|scalar|avx2|avx512]
//! abm-spconv verify   <net> [--seed S]
//! abm-spconv faults   <net> [--seed S] [--trials N] [--json PATH] [--trace-out PATH]
//! abm-spconv pipeline <net> [--seed S] [--batch N] [--device gxa7|arria10]
//! abm-spconv metrics  <net> [--seed S] [--batch N] [--parallel serial|auto|N]
//!                           [--json PATH] [--prom PATH]
//! ```

use abm_conv::ops::NetworkOps;
use abm_conv::{Engine, Inferencer, Parallelism};
use abm_dse::flow::run_flow;
use abm_dse::{explore_pipeline, FpgaDevice, ResourceModel};
use abm_kernel::Isa;
use abm_model::{synthesize_model, zoo, Network, PruneProfile, SparseModel};
use abm_sim::task::Workload;
use abm_sim::{
    network_report, plan_pipeline, simulate_network_collected, simulate_network_par,
    verify_pipelined_schedule, AcceleratorConfig, MemorySystem, PipelineOptions, SchedulingPolicy,
};
use abm_sparse::SizeModel;
use abm_telemetry::{ChromeTrace, RecordingCollector};
use abm_tensor::Tensor3;
use std::error::Error;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Static analysis of a network + pruning profile.
    Analyze {
        /// Network name.
        net: String,
    },
    /// Cycle simulation on a configuration.
    Simulate {
        /// Network name.
        net: String,
        /// Accelerator configuration (paper defaults with overrides).
        config: AcceleratorConfig,
        /// Host-thread parallelism for the simulation itself.
        parallelism: Parallelism,
        /// Collect telemetry and print the cycle/stall/DDR summary.
        telemetry: bool,
        /// Print the per-layer roofline report annotated with the
        /// analytic model.
        report: bool,
        /// Write a Chrome `trace_event` JSON file of the CU timeline.
        trace_out: Option<String>,
        /// Pin the host kernel ISA recorded per workload (`None` =
        /// auto-detect).
        isa: Option<Isa>,
    },
    /// The full design-space exploration flow.
    Explore {
        /// Network name.
        net: String,
        /// Target device.
        device: FpgaDevice,
    },
    /// Static verification of every lowered layer: the `abm-verify`
    /// lowering and schedule/legality passes under the network's paper
    /// configuration.
    Verify {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
    },
    /// Seeded fault-injection campaign: every fault class against the
    /// network's detectors and recovery paths, gated on zero silent
    /// corruptions.
    Faults {
        /// Network name.
        net: String,
        /// Campaign seed (reproduces every trial).
        seed: u64,
        /// Trials per fault class.
        trials: usize,
        /// Write the JSON campaign report here.
        json: Option<String>,
        /// Write a Chrome trace of the fault telemetry here.
        trace_out: Option<String>,
    },
    /// The pipelined-vs-time-multiplexed design axis: plan a layer
    /// pipeline, simulate it against the sequential baseline, verify
    /// the selected schedule, and print the recommendation.
    Pipeline {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Images streamed through the pipeline.
        batch: usize,
        /// Target device for the resource/frequency model.
        device: FpgaDevice,
    },
    /// Functional inference on a batch of synthetic images.
    Infer {
        /// Network name.
        net: String,
        /// Engine to run.
        engine: Engine,
        /// Synthesis seed.
        seed: u64,
        /// Number of synthetic images to run.
        batch: usize,
        /// Host-thread parallelism across the batch.
        parallelism: Parallelism,
        /// Pin the ABM hot path to one kernel ISA (`None` =
        /// auto-detect the widest available).
        isa: Option<Isa>,
    },
    /// Run a metered workload (batch inference plus a collected
    /// simulation) against the process-wide metrics registry and print
    /// the sorted metrics table with exact p50/p90/p99 percentiles.
    Metrics {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Number of synthetic images to run.
        batch: usize,
        /// Host-thread parallelism across the batch.
        parallelism: Parallelism,
        /// Write the JSON metrics snapshot here.
        json: Option<String>,
        /// Write the Prometheus-style text exposition here.
        prom: Option<String>,
    },
    /// The fault-tolerant batching inference service: an in-process
    /// open-loop burst against the admission-controlled server
    /// (default), or a TCP listener speaking the line protocol.
    Serve {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Requests offered in the burst.
        requests: usize,
        /// Offered rate as a multiple of the measured sustainable rate
        /// (2.0 = deliberate overload).
        rate_x: f64,
        /// Enable seeded chaos injection (weight-stream corruption).
        chaos: bool,
        /// Layer-pipelined executor depth (0/1 = deadline-salvage).
        stages: usize,
        /// Bind a TCP front end here (e.g. `127.0.0.1:7070`) instead
        /// of the in-process burst.
        listen: Option<String>,
        /// Seconds the TCP listener stays up before draining.
        for_secs: u64,
        /// Write the `BENCH_serve.json`-schema report here.
        json: Option<String>,
    },
}

/// CLI usage / parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for UsageError {}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// The usage banner.
pub const USAGE: &str = "usage: abm-spconv <command> [options]
commands:
  analyze  <vgg16|alexnet|vgg19|tiny>
  simulate <net> [--n-cu N] [--n-knl N] [--n N] [--s-ec N] [--freq MHZ]
                 [--parallel serial|auto|N] [--isa auto|scalar|avx2|avx512]
                 [--telemetry] [--report] [--trace-out PATH]
  explore  <net> [--device gxa7|arria10]
  infer    <net> [--engine dense|gemm|sparse|abm|freq] [--seed S]
                 [--batch N] [--parallel serial|auto|N]
                 [--isa auto|scalar|avx2|avx512]
  verify   <net> [--seed S]
  faults   <net> [--seed S] [--trials N] [--json PATH] [--trace-out PATH]
  pipeline <net> [--seed S] [--batch N] [--device gxa7|arria10]
  metrics  <net> [--seed S] [--batch N] [--parallel serial|auto|N]
                 [--json PATH] [--prom PATH]
  serve    <net> [--seed S] [--requests N] [--rate-x F] [--chaos]
                 [--stages N] [--listen ADDR] [--for-secs T] [--json PATH]";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing what was wrong.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| err(USAGE))?;
    let net = it
        .next()
        .ok_or_else(|| err("missing network name"))?
        .clone();
    if !["vgg16", "alexnet", "vgg19", "tiny"].contains(&net.as_str()) {
        return Err(err(format!("unknown network '{net}'")));
    }
    match cmd.as_str() {
        "analyze" => Ok(Command::Analyze { net }),
        "simulate" => {
            let mut config = if net == "alexnet" {
                AcceleratorConfig::paper_alexnet()
            } else {
                AcceleratorConfig::paper()
            };
            let mut parallelism = Parallelism::Auto;
            let mut telemetry = false;
            let mut report = false;
            let mut trace_out = None;
            let mut isa = None;
            while let Some(flag) = it.next() {
                // Boolean flags take no value; everything else does.
                match flag.as_str() {
                    "--telemetry" => {
                        telemetry = true;
                        continue;
                    }
                    "--report" => {
                        report = true;
                        continue;
                    }
                    _ => {}
                }
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                let parse_usize = |v: &str| {
                    v.parse::<usize>()
                        .map_err(|_| err(format!("bad number '{v}'")))
                };
                match flag.as_str() {
                    "--n-cu" => config.n_cu = parse_usize(value)?,
                    "--n-knl" => config.n_knl = parse_usize(value)?,
                    "--n" => config.n = parse_usize(value)?,
                    "--s-ec" => config.s_ec = parse_usize(value)?,
                    "--freq" => {
                        config.freq_mhz = value
                            .parse::<f64>()
                            .map_err(|_| err(format!("bad frequency '{value}'")))?
                    }
                    "--parallel" => parallelism = Parallelism::parse(value).map_err(err)?,
                    "--trace-out" => trace_out = Some(value.clone()),
                    "--isa" => isa = Isa::parse(value).map_err(err)?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            config
                .validate()
                .map_err(|e| err(format!("invalid configuration: {e}")))?;
            Ok(Command::Simulate {
                net,
                config,
                parallelism,
                telemetry,
                report,
                trace_out,
                isa,
            })
        }
        "explore" => {
            let mut device = FpgaDevice::stratix_v_gxa7();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--device" => {
                        device = match value.as_str() {
                            "gxa7" => FpgaDevice::stratix_v_gxa7(),
                            "arria10" => FpgaDevice::arria10_gx1150(),
                            other => return Err(err(format!("unknown device '{other}'"))),
                        }
                    }
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Explore { net, device })
        }
        "pipeline" => {
            let mut seed = 2019u64;
            let mut batch = 8usize;
            let mut device = FpgaDevice::stratix_v_gxa7();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    "--batch" => {
                        batch = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad batch size '{value}'")))?
                    }
                    "--device" => {
                        device = match value.as_str() {
                            "gxa7" => FpgaDevice::stratix_v_gxa7(),
                            "arria10" => FpgaDevice::arria10_gx1150(),
                            other => return Err(err(format!("unknown device '{other}'"))),
                        }
                    }
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Pipeline {
                net,
                seed,
                batch,
                device,
            })
        }
        "infer" => {
            let mut engine = Engine::Abm;
            let mut seed = 2019u64;
            let mut batch = 1usize;
            let mut parallelism = Parallelism::Auto;
            let mut isa = None;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--engine" => {
                        engine = match value.as_str() {
                            "dense" => Engine::Dense,
                            "gemm" => Engine::Gemm,
                            "sparse" => Engine::Sparse,
                            "abm" => Engine::Abm,
                            "freq" => Engine::Freq,
                            other => return Err(err(format!("unknown engine '{other}'"))),
                        }
                    }
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    "--batch" => {
                        batch = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad batch size '{value}'")))?
                    }
                    "--parallel" => parallelism = Parallelism::parse(value).map_err(err)?,
                    "--isa" => isa = Isa::parse(value).map_err(err)?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Infer {
                net,
                engine,
                seed,
                batch,
                parallelism,
                isa,
            })
        }
        "metrics" => {
            let mut seed = 2019u64;
            let mut batch = 4usize;
            let mut parallelism = Parallelism::Auto;
            let mut json = None;
            let mut prom = None;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    "--batch" => {
                        batch = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad batch size '{value}'")))?
                    }
                    "--parallel" => parallelism = Parallelism::parse(value).map_err(err)?,
                    "--json" => json = Some(value.clone()),
                    "--prom" => prom = Some(value.clone()),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Metrics {
                net,
                seed,
                batch,
                parallelism,
                json,
                prom,
            })
        }
        "verify" => {
            let mut seed = 2019u64;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Verify { net, seed })
        }
        "faults" => {
            let mut seed = 2019u64;
            let mut trials = 1usize;
            let mut json = None;
            let mut trace_out = None;
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    "--trials" => {
                        trials = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad trial count '{value}'")))?
                    }
                    "--json" => json = Some(value.clone()),
                    "--trace-out" => trace_out = Some(value.clone()),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Faults {
                net,
                seed,
                trials,
                json,
                trace_out,
            })
        }
        "serve" => {
            let mut seed = 2019u64;
            let mut requests = 32usize;
            let mut rate_x = 1.5f64;
            let mut chaos = false;
            let mut stages = 0usize;
            let mut listen = None;
            let mut for_secs = 5u64;
            let mut json = None;
            while let Some(flag) = it.next() {
                if flag.as_str() == "--chaos" {
                    chaos = true;
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))?;
                match flag.as_str() {
                    "--seed" => {
                        seed = value
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad seed '{value}'")))?
                    }
                    "--requests" => {
                        requests = value
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad request count '{value}'")))?
                    }
                    "--rate-x" => {
                        rate_x = value
                            .parse::<f64>()
                            .ok()
                            .filter(|&f| f > 0.0 && f.is_finite())
                            .ok_or_else(|| err(format!("bad rate multiple '{value}'")))?
                    }
                    "--stages" => {
                        stages = value
                            .parse::<usize>()
                            .map_err(|_| err(format!("bad stage count '{value}'")))?
                    }
                    "--listen" => listen = Some(value.clone()),
                    "--for-secs" => {
                        for_secs = value
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err(format!("bad duration '{value}'")))?
                    }
                    "--json" => json = Some(value.clone()),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Serve {
                net,
                seed,
                requests,
                rate_x,
                chaos,
                stages,
                listen,
                for_secs,
                json,
            })
        }
        other => Err(err(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

/// Resolves a network name to the zoo entry and its pruning profile.
pub fn lookup(net: &str) -> (Network, PruneProfile) {
    match net {
        "vgg16" => (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        "vgg19" => (zoo::vgg19(), PruneProfile::vgg16_deep_compression()),
        "alexnet" => (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
        "tiny" => (
            zoo::tiny(),
            PruneProfile::uniform(abm_model::LayerProfile::new(0.6, 16)),
        ),
        other => unreachable!("parse() validated the name, got '{other}'"),
    }
}

fn build(net: &str, seed: u64) -> (Network, PruneProfile, SparseModel) {
    let (network, profile) = lookup(net);
    let model = synthesize_model(&network, &profile, seed);
    (network, profile, model)
}

/// Executes a parsed command, writing human-readable output to stdout.
pub fn execute(command: &Command) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Analyze { net } => {
            let (network, _, model) = build(net, 2019);
            let ops = NetworkOps::analyze(&model);
            println!(
                "{}: {} accelerated layers, {:.2} GOP dense, {:.1}M weights",
                network.name(),
                network.conv_fc_layers().count(),
                network.total_dense_ops() as f64 / 1e9,
                network.total_weights() as f64 / 1e6
            );
            println!(
                "{:<10} {:>10} {:>10} {:>10} {:>10}",
                "layer", "SD (MOP)", "Acc (MOP)", "Mult (MOP)", "ratio"
            );
            for l in ops.layers() {
                println!(
                    "{:<10} {:>10.1} {:>10.1} {:>10.2} {:>10.1}",
                    l.name,
                    l.sdconv as f64 / 1e6,
                    l.abm_acc as f64 / 1e6,
                    l.abm_mult as f64 / 1e6,
                    l.acc_mult_ratio()
                );
            }
            let size = SizeModel::paper();
            let enc = size.model_bytes(&model)?;
            println!(
                "op saving vs dense: {:.1}%   encoded weights: {:.1} MB (original {:.1} MB)",
                ops.abm_saving() * 100.0,
                enc.total() as f64 / 1e6,
                size.original_bytes(network.total_weights()) as f64 / 1e6
            );
        }
        Command::Simulate {
            net,
            config,
            parallelism,
            telemetry,
            report,
            trace_out,
            isa,
        } => {
            // The simulator's workload preparation reads the same
            // `ABM_FORCE_ISA` pin the functional engine honors, so the
            // flag routes through the environment override after an
            // availability check (a pin the CPU cannot run must fail
            // loudly, not silently fall back).
            if let Some(isa) = isa {
                if !isa.available() {
                    return Err(format!("ISA '{isa}' is not available on this CPU").into());
                }
                std::env::set_var(abm_kernel::FORCE_ISA_ENV, isa.name());
            }
            let (network, profile, model) = build(net, 2019);
            let collect = *telemetry || *report || trace_out.is_some();
            let mut recording = RecordingCollector::new();
            let sim = if collect {
                // The collected core runs layers serially (deterministic
                // event stream) but returns bit-identical numbers.
                simulate_network_collected(
                    &model,
                    config,
                    &MemorySystem::de5_net(),
                    SchedulingPolicy::SemiSynchronous,
                    *parallelism,
                    &mut recording,
                )
            } else {
                simulate_network_par(&model, config, *parallelism)
            };
            println!(
                "{} on N_cu={} N_knl={} N={} S_ec={} @ {} MHz (host threads: {}):",
                network.name(),
                config.n_cu,
                config.n_knl,
                config.n,
                config.s_ec,
                config.freq_mhz,
                parallelism
            );
            println!(
                "  {:.2} ms/image | {:.1} images/s | {:.1} GOP/s | lane efficiency {:.1}%",
                sim.total_seconds() * 1e3,
                sim.images_per_second(),
                sim.gops(),
                sim.lane_efficiency() * 100.0
            );
            if *telemetry {
                let s = sim.summary();
                println!(
                    "  telemetry: {} compute cycles | {} stall cycles | {:.2} MiB DDR",
                    s.compute_cycles,
                    s.stall_cycles,
                    s.bytes_moved as f64 / (1024.0 * 1024.0)
                );
            }
            if *report {
                let mut rep = network_report(network.name(), &sim, &recording);
                let est = abm_dse::estimate_network(&network, &profile, config);
                abm_dse::annotate_report(&mut rep, &est);
                print!("{}", rep.render_table());
                let groups = dispatch_groups(recording.events());
                if !groups.is_empty() {
                    println!("  host kernel dispatch: {}", render_dispatch(&groups));
                }
            }
            if let Some(path) = trace_out {
                let trace = ChromeTrace::from_events(recording.events());
                std::fs::write(path, trace.to_json())?;
                println!("  wrote Chrome trace to {path}");
            }
        }
        Command::Explore { net, device } => {
            let (network, profile) = lookup(net);
            let result = run_flow(&network, &profile, device, 3);
            println!(
                "{} on {}: min ratio {:.1} => N={}, N_knl={}",
                network.name(),
                device.name,
                result.min_acc_mult_ratio,
                result.n,
                result.n_knl
            );
            for c in &result.candidates {
                println!(
                    "  S_ec={:>2} N_cu={} -> {:>7.1} GOP/s (ALM {}, DSP {}, M20K {})",
                    c.config.s_ec,
                    c.config.n_cu,
                    c.gops,
                    c.resources.alms,
                    c.resources.dsps,
                    c.resources.m20ks
                );
            }
            println!(
                "memory: {}",
                if result.compute_bound {
                    "compute-bound"
                } else {
                    "MEMORY-BOUND"
                }
            );
        }
        Command::Verify { net, seed } => {
            let (network, _, model) = build(net, *seed);
            let cfg = if net == "alexnet" {
                AcceleratorConfig::paper_alexnet()
            } else {
                AcceleratorConfig::paper()
            };
            println!(
                "{} (seed {seed}) under N_cu={} N_knl={} N={} S_ec={}:",
                network.name(),
                cfg.n_cu,
                cfg.n_knl,
                cfg.n,
                cfg.s_ec
            );
            let mut dirty = 0usize;
            for layer in &model.layers {
                let w = abm_sim::task::Workload::from_layer(layer)?;
                let report = abm_sim::verify_workload(&w, &cfg);
                println!(
                    "  {:<10} {:>10} facts  {:>2} defects",
                    w.name,
                    report.facts,
                    report.defects.len()
                );
                if !report.is_clean() {
                    print!("{report}");
                    dirty += report.defects.len();
                }
            }
            if dirty > 0 {
                return Err(format!("static verification found {dirty} defect(s)").into());
            }
            println!("all layers defect-free");
        }
        Command::Faults {
            net,
            seed,
            trials,
            json,
            trace_out,
        } => {
            let config = crate::campaign::CampaignConfig {
                nets: vec![net.clone()],
                seed: *seed,
                trials_per_class: *trials,
            };
            let sink = abm_telemetry::TelemetrySink::new();
            let report = crate::campaign::run_campaign(&config, &sink)?;
            println!("fault campaign: {net} (seed {seed}, {trials} trial(s) per class)");
            print!("{}", report.summary_table());
            if let Some(path) = json {
                std::fs::write(path, report.to_json())?;
                println!("  wrote campaign report to {path}");
            }
            if let Some(path) = trace_out {
                let trace = ChromeTrace::from_events(&sink.drain());
                std::fs::write(path, trace.to_json())?;
                println!("  wrote Chrome trace to {path}");
            }
            if !report.is_clean() {
                return Err("campaign is DIRTY: silent or unrecovered faults".into());
            }
        }
        Command::Pipeline {
            net,
            seed,
            batch,
            device,
        } => {
            let (network, _, model) = build(net, *seed);
            let cfg = if net == "alexnet" {
                AcceleratorConfig::paper_alexnet()
            } else {
                AcceleratorConfig::paper()
            };
            let workloads = model
                .layers
                .iter()
                .map(Workload::from_layer)
                .collect::<Result<Vec<_>, _>>()?;
            let exploration =
                explore_pipeline(&workloads, &cfg, device, &ResourceModel::paper(), *batch)?;
            println!(
                "{} pipelined vs time-multiplexed (seed {seed}, batch {batch}, {}):",
                network.name(),
                device.name
            );
            println!(
                "  time-multiplexed baseline: {:>8.2} img/s",
                exploration.sequential_images_per_second
            );
            for d in &exploration.designs {
                println!(
                    "  {:<18} {} stages, {:>3} lanes @ {:>5.1} MHz, ALM {:>4.1}%: {:>8.2} img/s ({:.3}x) [{}{}]",
                    d.label,
                    d.n_stages,
                    d.lane_budget,
                    d.freq_mhz,
                    d.alm_utilization * 100.0,
                    d.images_per_second,
                    d.speedup,
                    if d.feasible { "fits" } else { "DOES NOT FIT" },
                    if d.consistency.is_clean() {
                        ", gate clean"
                    } else {
                        ", GATE FAILED"
                    },
                );
            }
            if let Some(best) = exploration.best() {
                let opts = PipelineOptions {
                    n_stages: best.n_stages,
                    lane_budget: best.lane_budget,
                    freq_mhz: best.freq_mhz,
                };
                let schedule = plan_pipeline(&workloads, &cfg, &opts, *batch)?;
                println!("  selected '{}':", best.label);
                for (i, s) in schedule.stages.iter().enumerate() {
                    println!(
                        "    stage {i}: layers {:>2}..{:<2} on CU {}..{} ({:>2} lanes), FIFO {} rows",
                        s.layer_start,
                        s.layer_end,
                        s.cu_start,
                        s.cu_start + s.cu_count,
                        s.lanes(),
                        s.fifo_rows
                    );
                }
                let report = verify_pipelined_schedule(&workloads, &cfg, &schedule, *batch);
                if report.is_clean() {
                    println!("  schedule verifies clean ({} facts)", report.facts);
                } else {
                    print!("{report}");
                    return Err("pipelined schedule failed verification".into());
                }
                if exploration.recommends_pipelining() {
                    println!(
                        "  recommendation: pipeline ({:.3}x over time-multiplexed)",
                        best.speedup
                    );
                } else {
                    println!("  recommendation: keep the time-multiplexed design");
                }
            } else {
                println!("  no pipelined candidate is feasible and consistency-clean");
            }
        }
        Command::Infer {
            net,
            engine,
            seed,
            batch,
            parallelism,
            isa,
        } => {
            let (network, _, model) = build(net, *seed);
            let inputs: Vec<_> = (0..*batch)
                .map(|i| {
                    Tensor3::from_fn(network.input_shape(), |c, r, col| {
                        ((((c + 1) * (r + 3) * (col + 7 + i)) % 255) as i16) - 127
                    })
                })
                .collect();
            // Prepare once, then run the batch against the shared
            // prepared weights — the prepared forms also carry the
            // per-layer kernel [`Selection`]s reported below.
            let inferencer = Inferencer::new(&model)
                .engine(*engine)
                .parallelism(*parallelism)
                .isa(*isa);
            let prepared = inferencer.prepare()?;
            let results = inferencer.run_batch_prepared(&prepared, &inputs)?;
            let result = &results[0];
            println!(
                "{} via {:?} (batch {}, host threads: {}): predicted class {:?}",
                network.name(),
                engine,
                batch,
                parallelism,
                result.argmax()
            );
            if *batch > 1 {
                let classes: Vec<_> = results.iter().map(|r| r.argmax().unwrap_or(0)).collect();
                println!("  batch classes: {classes:?}");
            }
            if *engine == Engine::Abm {
                let resolved = isa
                    .or_else(|| abm_kernel::forced_isa().ok().flatten())
                    .unwrap_or_else(Isa::detect);
                println!(
                    "  host kernel ISA: {resolved} ({} pixel lanes)",
                    resolved.lanes()
                );
                // Per-layer resolved kernel variants (the accumulator
                // width is proven per layer, so it can differ even
                // under one pinned ISA).
                let mut groups: Vec<(String, usize, u32)> = Vec::new();
                for layer in 0..model.layers.len() {
                    if let Some(p) = prepared.abm_layer(layer) {
                        let sel = p.selection();
                        let name = sel.name();
                        match groups.iter_mut().find(|g| g.0 == name) {
                            Some(g) => g.2 += 1,
                            None => groups.push((name, sel.lanes(), 1)),
                        }
                    }
                }
                if !groups.is_empty() {
                    let desc: Vec<String> = groups
                        .iter()
                        .map(|(name, lanes, count)| format!("{name} x{count} ({lanes} lanes)"))
                        .collect();
                    println!("  layer kernels: {}", desc.join(", "));
                }
                println!(
                    "  {} accumulations, {} multiplications ({:.1}x fewer mults than MACs)",
                    result.work.accumulations,
                    result.work.multiplications,
                    result.work.accumulations as f64 / result.work.multiplications.max(1) as f64
                );
                // AbmWork totals across the batch, and what they come to
                // in ops/cycle on the simulated accelerator (paper
                // config for this network).
                let total_ops: u64 = results.iter().map(|r| r.work.total()).sum();
                let cfg = if net == "alexnet" {
                    AcceleratorConfig::paper_alexnet()
                } else {
                    AcceleratorConfig::paper()
                };
                let cycles = simulate_network_par(&model, &cfg, *parallelism)
                    .summary()
                    .compute_cycles;
                println!(
                    "  batch AbmWork: {} total ops | {:.2} ops/cycle over {} simulated cycles/image",
                    total_ops,
                    total_ops as f64 / (*batch as f64 * cycles.max(1) as f64),
                    cycles
                );
            }
        }
        Command::Metrics {
            net,
            seed,
            batch,
            parallelism,
            json,
            prom,
        } => {
            let (network, _, model) = build(net, *seed);
            let registry = abm_metrics::global();
            registry.set_enabled(true);
            registry.reset();
            // Batch inference through a flight-teed sink: every
            // telemetry event is mirrored into the flight recorder
            // while the hot paths feed the registry's histograms and
            // counters.
            let sink = abm_metrics::flight_tee(abm_telemetry::TelemetrySink::new());
            let inputs: Vec<_> = (0..*batch)
                .map(|i| {
                    Tensor3::from_fn(network.input_shape(), |c, r, col| {
                        ((((c + 1) * (r + 3) * (col + 7 + i)) % 255) as i16) - 127
                    })
                })
                .collect();
            let inferencer = Inferencer::new(&model)
                .parallelism(*parallelism)
                .telemetry(sink);
            let results = inferencer.run_batch_prepared(&inferencer.prepare()?, &inputs)?;
            // A collected simulation populates the sim_* aggregates
            // (mirrored 1:1 from the telemetry event stream).
            let cfg = if net == "alexnet" {
                AcceleratorConfig::paper_alexnet()
            } else {
                AcceleratorConfig::paper()
            };
            let mut recording = RecordingCollector::new();
            let sim = simulate_network_collected(
                &model,
                &cfg,
                &MemorySystem::de5_net(),
                SchedulingPolicy::SemiSynchronous,
                *parallelism,
                &mut recording,
            );
            println!(
                "{} metrics (seed {seed}, batch {batch}, host threads: {parallelism}):",
                network.name()
            );
            println!(
                "  workload: {} image(s) inferred | {:.1} simulated images/s | flight recorder holds {} event(s)",
                results.len(),
                sim.images_per_second(),
                registry.flight().tail().len()
            );
            let snapshot = registry.snapshot();
            print!("{}", snapshot.render_table());
            if let Some(path) = json {
                let text = snapshot.to_json();
                abm_telemetry::json::validate(&text)?;
                std::fs::write(path, text)?;
                println!("  wrote metrics JSON to {path}");
            }
            if let Some(path) = prom {
                std::fs::write(path, snapshot.to_prometheus())?;
                println!("  wrote Prometheus exposition to {path}");
            }
        }
        Command::Serve {
            net,
            seed,
            requests,
            rate_x,
            chaos,
            stages,
            listen,
            for_secs,
            json,
        } => {
            let (network, _, model) = build(net, *seed);
            let model = std::sync::Arc::new(model);
            let accel = if net == "alexnet" {
                AcceleratorConfig::paper_alexnet()
            } else {
                AcceleratorConfig::paper()
            };
            let cfg = abm_serve::ServeConfig {
                pipeline_stages: *stages,
                chaos: chaos.then(|| abm_serve::ChaosConfig::corrupt(seed ^ 0xC4A0_5EED, 3)),
                ..abm_serve::ServeConfig::default()
            };
            let workers = cfg.workers;
            let server = abm_serve::Server::start(std::sync::Arc::clone(&model), &accel, cfg)?;
            let service = server.service_estimate();
            println!(
                "{} serving: {} cycles/image simulated, {} us/image calibrated, {} worker(s)",
                network.name(),
                server.cycles_per_image(),
                service.as_micros(),
                workers
            );
            if let Some(addr) = listen {
                let front = abm_serve::NetServer::bind(
                    std::sync::Arc::new(server),
                    addr,
                    abm_serve::NetConfig::default(),
                )?;
                println!(
                    "listening on {} for {for_secs}s (protocol: `infer <seed> <deadline_ms>`, `stats`, `ping`)",
                    front.local_addr()
                );
                std::thread::sleep(std::time::Duration::from_secs(*for_secs));
                let server = front.shutdown();
                let stats = match std::sync::Arc::try_unwrap(server) {
                    Ok(s) => s.shutdown(),
                    Err(arc) => arc.stats(), // a live connection still holds it; Drop drains
                };
                print_serve_stats(&stats);
                return Ok(());
            }
            // In-process open-loop burst with the bit-identity oracle.
            let golden_src = Inferencer::new(&model)
                .parallelism(Parallelism::Serial)
                .resilience(abm_conv::ResiliencePolicy::hardened());
            let prepared = golden_src.prepare()?;
            let mut golden = std::collections::HashMap::new();
            for s in 0..4u64 {
                let input = abm_serve::synth_input(network.input_shape(), s);
                golden.insert(s, golden_src.run_prepared(&prepared, &input)?.logits);
            }
            let sustainable = workers as f64 / service.as_secs_f64().max(1e-9);
            let load = abm_serve::LoadConfig {
                requests: *requests,
                rate_rps: sustainable * rate_x,
                deadline: service
                    .mul_f64(10.0)
                    .max(std::time::Duration::from_millis(5)),
                distinct_seeds: 4,
                jitter_seed: *seed,
            };
            let leg = format!("cli_{rate_x}x{}", if *chaos { "_chaos" } else { "" });
            let report = abm_serve::LoadGen::run(&server, &leg, &load, Some(&golden));
            let stats = server.shutdown();
            print_serve_stats(&stats);
            println!(
                "  burst: {} offered at {:.1} req/s ({rate_x}x sustainable) | p50 {} us | p99 {} us | goodput {:.1} req/s",
                report.offered,
                load.rate_rps,
                report.percentile_us(50.0),
                report.percentile_us(99.0),
                report.goodput_rps
            );
            if let Some(path) = json {
                let doc = abm_serve::loadgen::render_bench(
                    std::slice::from_ref(&report),
                    std::time::Duration::from_millis(100).max(service.mul_f64(40.0)),
                    net,
                );
                abm_telemetry::json::validate(&doc)?;
                std::fs::write(path, doc)?;
                println!("  wrote serving report to {path}");
            }
            if report.silent_corruptions > 0 {
                return Err(format!(
                    "{} silent corruption(s): completions diverged from golden logits",
                    report.silent_corruptions
                )
                .into());
            }
            if stats.admitted != stats.answered() {
                return Err(format!(
                    "drain lost requests: admitted {} answered {}",
                    stats.admitted,
                    stats.answered()
                )
                .into());
            }
        }
    }
    Ok(())
}

/// Prints the server's post-drain accounting in the CLI's table style.
fn print_serve_stats(stats: &abm_serve::ServeStats) {
    println!(
        "  admitted {} / {} offered | shed {} (typed Overloaded) | completed {} | deadline-cut {} | failed {}",
        stats.admitted,
        stats.submitted,
        stats.shed,
        stats.completed,
        stats.deadline_cut,
        stats.failed
    );
    println!(
        "  batches {} | retries {} | degraded (fault masked) {} | chaos injected {} | watchdog failovers {}",
        stats.batches,
        stats.retries,
        stats.degraded_batches,
        stats.chaos_injected,
        stats.watchdog_failovers
    );
}

/// Groups `KernelDispatch` telemetry events by resolved variant:
/// `(isa/acc, lanes, layer count)` in first-seen order.
fn dispatch_groups(events: &[abm_telemetry::Event]) -> Vec<(String, u32, u32)> {
    let mut groups: Vec<(String, u32, u32)> = Vec::new();
    for e in events {
        if let abm_telemetry::Event::KernelDispatch {
            isa, acc, lanes, ..
        } = e
        {
            let name = format!("{isa}/{acc}");
            match groups.iter_mut().find(|g| g.0 == name && g.1 == *lanes) {
                Some(g) => g.2 += 1,
                None => groups.push((name, *lanes, 1)),
            }
        }
    }
    groups
}

/// Renders dispatch groups as `isa/acc xN (L lanes)`, comma-joined.
fn render_dispatch(groups: &[(String, u32, u32)]) -> String {
    groups
        .iter()
        .map(|(name, lanes, count)| format!("{name} x{count} ({lanes} lanes)"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve tiny")).unwrap(),
            Command::Serve {
                net: "tiny".into(),
                seed: 2019,
                requests: 32,
                rate_x: 1.5,
                chaos: false,
                stages: 0,
                listen: None,
                for_secs: 5,
                json: None,
            }
        );
        let cmd = parse(&argv(
            "serve alexnet --seed 7 --requests 64 --rate-x 2.0 --chaos --stages 3 \
             --listen 127.0.0.1:0 --for-secs 2 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                net: "alexnet".into(),
                seed: 7,
                requests: 64,
                rate_x: 2.0,
                chaos: true,
                stages: 3,
                listen: Some("127.0.0.1:0".into()),
                for_secs: 2,
                json: Some("out.json".into()),
            }
        );
        assert!(parse(&argv("serve tiny --rate-x 0")).is_err());
        assert!(parse(&argv("serve tiny --requests 0")).is_err());
        assert!(parse(&argv("serve tiny --bogus 1")).is_err());
    }

    #[test]
    fn parse_analyze() {
        assert_eq!(
            parse(&argv("analyze vgg16")).unwrap(),
            Command::Analyze {
                net: "vgg16".into()
            }
        );
    }

    #[test]
    fn parse_simulate_with_overrides() {
        let cmd = parse(&argv(
            "simulate tiny --n-cu 2 --s-ec 16 --freq 150 --parallel 4",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                net,
                config,
                parallelism,
                telemetry,
                report,
                trace_out,
                isa,
            } => {
                assert_eq!(net, "tiny");
                assert_eq!(config.n_cu, 2);
                assert_eq!(config.s_ec, 16);
                assert_eq!(config.freq_mhz, 150.0);
                assert_eq!(config.n_knl, 14); // default preserved
                assert_eq!(parallelism, Parallelism::Threads(4));
                assert!(!telemetry && !report);
                assert_eq!(trace_out, None);
                assert_eq!(isa, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_simulate_telemetry_flags() {
        // Boolean flags take no value and mix freely with valued ones.
        let cmd = parse(&argv(
            "simulate tiny --telemetry --n-cu 2 --report --trace-out /tmp/t.json",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                config,
                telemetry,
                report,
                trace_out,
                ..
            } => {
                assert_eq!(config.n_cu, 2);
                assert!(telemetry && report);
                assert_eq!(trace_out.as_deref(), Some("/tmp/t.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("simulate tiny --trace-out"))
            .unwrap_err()
            .to_string()
            .contains("needs a value"));
    }

    #[test]
    fn parse_rejects_invalid_config() {
        // s_ec 18 not divisible by n 4.
        let e = parse(&argv("simulate tiny --s-ec 18")).unwrap_err();
        assert!(e.to_string().contains("divide"));
    }

    #[test]
    fn parse_explore_device() {
        let cmd = parse(&argv("explore alexnet --device arria10")).unwrap();
        match cmd {
            Command::Explore { device, .. } => assert_eq!(device.name, "Arria-10 GX1150"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("explore alexnet --device zynq")).is_err());
    }

    #[test]
    fn parse_infer_engine_and_seed() {
        let cmd = parse(&argv(
            "infer tiny --engine dense --seed 7 --batch 3 --parallel serial",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Infer {
                net: "tiny".into(),
                engine: Engine::Dense,
                seed: 7,
                batch: 3,
                parallelism: Parallelism::Serial,
                isa: None,
            }
        );
        // Defaults: single image, auto parallelism.
        let cmd = parse(&argv("infer tiny")).unwrap();
        assert_eq!(
            cmd,
            Command::Infer {
                net: "tiny".into(),
                engine: Engine::Abm,
                seed: 2019,
                batch: 1,
                parallelism: Parallelism::Auto,
                isa: None,
            }
        );
    }

    #[test]
    fn parse_isa_pins() {
        let cmd = parse(&argv("infer tiny --isa scalar")).unwrap();
        assert!(matches!(
            cmd,
            Command::Infer {
                isa: Some(Isa::Scalar),
                ..
            }
        ));
        let cmd = parse(&argv("simulate tiny --isa avx2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate {
                isa: Some(Isa::Avx2),
                ..
            }
        ));
        // `auto` is the explicit spelling of the default.
        let cmd = parse(&argv("infer tiny --isa auto")).unwrap();
        assert!(matches!(cmd, Command::Infer { isa: None, .. }));
        assert!(parse(&argv("infer tiny --isa sse9"))
            .unwrap_err()
            .to_string()
            .contains("unknown ISA"));
    }

    #[test]
    fn parse_verify() {
        assert_eq!(
            parse(&argv("verify tiny")).unwrap(),
            Command::Verify {
                net: "tiny".into(),
                seed: 2019
            }
        );
        assert_eq!(
            parse(&argv("verify alexnet --seed 7")).unwrap(),
            Command::Verify {
                net: "alexnet".into(),
                seed: 7
            }
        );
        assert!(parse(&argv("verify tiny --batch 2")).is_err());
    }

    #[test]
    fn parse_faults() {
        assert_eq!(
            parse(&argv("faults tiny")).unwrap(),
            Command::Faults {
                net: "tiny".into(),
                seed: 2019,
                trials: 1,
                json: None,
                trace_out: None,
            }
        );
        assert_eq!(
            parse(&argv("faults alexnet --seed 7 --trials 3 --json r.json")).unwrap(),
            Command::Faults {
                net: "alexnet".into(),
                seed: 7,
                trials: 3,
                json: Some("r.json".into()),
                trace_out: None,
            }
        );
        assert!(parse(&argv("faults tiny --trials 0")).is_err());
    }

    #[test]
    fn execute_faults_tiny_is_clean_and_writes_reports() {
        let json_path = std::env::temp_dir().join("abm_cli_faults_test.json");
        let trace_path = std::env::temp_dir().join("abm_cli_faults_trace_test.json");
        execute(&Command::Faults {
            net: "tiny".into(),
            seed: 3,
            trials: 1,
            json: Some(json_path.to_string_lossy().into_owned()),
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let report = std::fs::read_to_string(&json_path).unwrap();
        assert!(report.contains("\"clean\": true"));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        abm_telemetry::json::validate(&trace).unwrap();
        assert!(trace.contains("fault"), "fault track missing from trace");
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn parse_metrics() {
        assert_eq!(
            parse(&argv("metrics tiny")).unwrap(),
            Command::Metrics {
                net: "tiny".into(),
                seed: 2019,
                batch: 4,
                parallelism: Parallelism::Auto,
                json: None,
                prom: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "metrics alexnet --seed 7 --batch 2 --parallel serial --json m.json --prom m.prom"
            ))
            .unwrap(),
            Command::Metrics {
                net: "alexnet".into(),
                seed: 7,
                batch: 2,
                parallelism: Parallelism::Serial,
                json: Some("m.json".into()),
                prom: Some("m.prom".into()),
            }
        );
        assert!(parse(&argv("metrics tiny --batch 0")).is_err());
        assert!(parse(&argv("metrics tiny --trials 2")).is_err());
    }

    #[test]
    fn execute_metrics_tiny_writes_valid_snapshots() {
        let json_path = std::env::temp_dir().join("abm_cli_metrics_test.json");
        let prom_path = std::env::temp_dir().join("abm_cli_metrics_test.prom");
        execute(&Command::Metrics {
            net: "tiny".into(),
            seed: 3,
            batch: 2,
            parallelism: Parallelism::Serial,
            json: Some(json_path.to_string_lossy().into_owned()),
            prom: Some(prom_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let snap = std::fs::read_to_string(&json_path).unwrap();
        abm_telemetry::json::validate(&snap).unwrap();
        assert!(snap.contains("infer_image_ns"), "snapshot: {snap}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE"));
        assert!(prom.contains("sim_compute_cycles_total"));
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&prom_path).ok();
    }

    #[test]
    fn dispatch_groups_fold_repeated_variants() {
        let events = vec![
            abm_telemetry::Event::KernelDispatch {
                layer: 0,
                isa: "avx2".into(),
                acc: "i32".into(),
                lanes: 8,
            },
            abm_telemetry::Event::KernelDispatch {
                layer: 1,
                isa: "avx2".into(),
                acc: "i32".into(),
                lanes: 8,
            },
            abm_telemetry::Event::KernelDispatch {
                layer: 2,
                isa: "avx2".into(),
                acc: "i64".into(),
                lanes: 8,
            },
        ];
        let groups = dispatch_groups(&events);
        assert_eq!(
            groups,
            vec![("avx2/i32".into(), 8, 2), ("avx2/i64".into(), 8, 1)]
        );
        assert_eq!(
            render_dispatch(&groups),
            "avx2/i32 x2 (8 lanes), avx2/i64 x1 (8 lanes)"
        );
    }

    #[test]
    fn execute_verify_tiny_is_defect_free() {
        execute(&Command::Verify {
            net: "tiny".into(),
            seed: 1,
        })
        .unwrap();
    }

    #[test]
    fn parse_pipeline() {
        assert_eq!(
            parse(&argv("pipeline tiny")).unwrap(),
            Command::Pipeline {
                net: "tiny".into(),
                seed: 2019,
                batch: 8,
                device: FpgaDevice::stratix_v_gxa7(),
            }
        );
        assert_eq!(
            parse(&argv("pipeline vgg16 --seed 5 --batch 4 --device arria10")).unwrap(),
            Command::Pipeline {
                net: "vgg16".into(),
                seed: 5,
                batch: 4,
                device: FpgaDevice::arria10_gx1150(),
            }
        );
        assert!(parse(&argv("pipeline tiny --batch 0")).is_err());
        assert!(parse(&argv("pipeline tiny --device virtex")).is_err());
    }

    #[test]
    fn execute_pipeline_tiny_selects_a_clean_design() {
        execute(&Command::Pipeline {
            net: "tiny".into(),
            seed: 1,
            batch: 4,
            device: FpgaDevice::stratix_v_gxa7(),
        })
        .unwrap();
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(parse(&[]).unwrap_err().to_string().contains("usage"));
        assert!(parse(&argv("bogus tiny"))
            .unwrap_err()
            .to_string()
            .contains("unknown command"));
        assert!(parse(&argv("analyze resnet"))
            .unwrap_err()
            .to_string()
            .contains("unknown network"));
        assert!(parse(&argv("simulate tiny --n-cu"))
            .unwrap_err()
            .to_string()
            .contains("needs a value"));
        assert!(parse(&argv("infer tiny --seed x"))
            .unwrap_err()
            .to_string()
            .contains("bad seed"));
        assert!(parse(&argv("infer tiny --batch 0"))
            .unwrap_err()
            .to_string()
            .contains("bad batch"));
        assert!(parse(&argv("infer tiny --parallel warp"))
            .unwrap_err()
            .to_string()
            .contains("bad parallelism"));
    }

    #[test]
    fn execute_fast_paths() {
        // tiny-network commands complete quickly and without error.
        execute(&Command::Analyze { net: "tiny".into() }).unwrap();
        execute(&Command::Simulate {
            net: "tiny".into(),
            config: AcceleratorConfig::paper(),
            parallelism: Parallelism::Serial,
            telemetry: false,
            report: false,
            trace_out: None,
            isa: None,
        })
        .unwrap();
        execute(&Command::Infer {
            net: "tiny".into(),
            engine: Engine::Abm,
            seed: 1,
            batch: 4,
            parallelism: Parallelism::Threads(2),
            isa: None,
        })
        .unwrap();
        execute(&Command::Explore {
            net: "tiny".into(),
            device: FpgaDevice::stratix_v_gxa7(),
        })
        .unwrap();
    }

    #[test]
    fn execute_simulate_with_telemetry_outputs() {
        let trace_path = std::env::temp_dir().join("abm_cli_trace_test.json");
        execute(&Command::Simulate {
            net: "tiny".into(),
            config: AcceleratorConfig::paper(),
            parallelism: Parallelism::Serial,
            telemetry: true,
            report: true,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            isa: None,
        })
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        abm_telemetry::json::validate(&trace).unwrap();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn lookup_covers_every_parseable_network() {
        for net in ["vgg16", "vgg19", "alexnet", "tiny"] {
            let (network, _) = lookup(net);
            assert!(network.conv_fc_layers().count() > 0, "{net}");
        }
    }
}
