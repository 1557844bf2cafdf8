//! Host benchmark for the ABM-SpConv reproduction: cold start, per-image
//! inference and served AlexNet end to end, and a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <alexnet-b1|vgg16-b8|alexnet-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
//! print the per-layer metrics. Every output is checked bit for bit
//! against golden logits; any mismatch or invalid run exits non-zero.
//! The last line of standard output is the JSON result.

#![forbid(unsafe_code)]

mod closed;
mod model;
mod report;
mod serve;
mod stats;
mod trace;
mod traced;

use model::Net;
use report::Report;
use std::process::ExitCode;

/// Worker threads of `vgg16-b8`, the server and the traced run.
const WORKERS: usize = 2;

/// Seeds below this were used while the benchmark (or a claim) was being
/// written; a claim must also hold on a seed at or above it.
const HELD_OUT_FROM: u64 = 100;

/// Reports and span dumps land here, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AlexnetB1,
    Vgg16B8,
    AlexnetServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "alexnet-b1" => Some(Self::AlexnetB1),
            "vgg16-b8" => Some(Self::Vgg16B8),
            "alexnet-serve" => Some(Self::AlexnetServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::AlexnetB1 => "alexnet-b1",
            Self::Vgg16B8 => "vgg16-b8",
            Self::AlexnetServe => "alexnet-serve",
        }
    }

    fn net(self) -> Net {
        match self {
            Self::Vgg16B8 => Net::Vgg16,
            Self::AlexnetB1 | Self::AlexnetServe => Net::AlexNet,
        }
    }

    /// Worker threads the workload's timed phase runs on.
    fn workers(self, trace: bool) -> usize {
        match self {
            Self::AlexnetB1 if !trace => 1,
            _ => WORKERS,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn run(args: &Args, nproc: usize) -> Report {
    let mut rep = Report::default();
    let w = args.workload;
    let workers = w.workers(args.trace);
    rep.meta("workload", w.name());
    rep.meta("trace", u8::from(args.trace));
    rep.meta("seconds", args.seconds);
    rep.meta("seed", args.seed);
    rep.meta(
        "seed_class",
        if args.seed >= HELD_OUT_FROM {
            "held-out"
        } else {
            "development"
        },
    );
    for net in [Net::AlexNet, Net::Vgg16] {
        rep.meta(
            &format!("model_seed.{}", net.key()),
            net.model_seed(args.seed),
        );
    }
    rep.meta("cpu", cpu_model());
    rep.meta("nproc", nproc);
    rep.meta("workers", workers);
    rep.meta("setup_reps", model::SETUP_REPS);
    rep.meta("distinct_inputs", w.net().distinct_inputs());
    if w == Workload::AlexnetServe || args.trace {
        rep.meta(
            "serve",
            format!(
                "open loop, nominal {} req/s then overload {} req/s ({}% / {}% of the time), \
                 deadline {} ms, {} workers, lateness bound {} ms",
                serve::NOMINAL_RPS,
                serve::OVERLOAD_RPS,
                serve::NOMINAL_SHARE * 100.0,
                (1.0 - serve::NOMINAL_SHARE) * 100.0,
                serve::DEADLINE.as_millis(),
                serve::WORKERS,
                serve::LATENESS_BOUND_MS
            ),
        );
    }

    if args.trace {
        let mut tr = trace::Tracer::new();
        traced::run(&mut rep, &mut tr, w.net(), args.seed, args.seconds, workers);
        rep.meta("spans", tr.spans().len());
        write_out(
            &mut rep,
            &format!("{}-seed{}-spans.json", w.name(), args.seed),
            &tr.to_json(),
        );
    } else {
        match w {
            Workload::AlexnetB1 => {
                // Golden logits are computed outside the timed phase, on as
                // many threads as the other workloads use, capped at nproc.
                let golden_workers = WORKERS.min(nproc);
                closed::alexnet_b1(&mut rep, args.seed, args.seconds, golden_workers);
            }
            Workload::Vgg16B8 => closed::vgg16_b8(&mut rep, args.seed, args.seconds, workers),
            Workload::AlexnetServe => serve::alexnet_serve(&mut rep, args.seed, args.seconds),
        }
        // Warm-up runs every code path the timed phase runs. Over the
        // timed phase the whole-run peak grows with run length and at
        // random, with freed buffers the allocator keeps: on `vgg16-b8`
        // it once rose by about 110 MiB in one of five 30 s runs. The
        // gated figure therefore stops at the start of the timed phase,
        // and the whole-run peak is printed beside it.
        match (rep.warm_peak_mb, peak_rss_mb()) {
            (Some(warm), Some(run)) => {
                rep.metric_note(
                    "peak_rss_mb",
                    warm,
                    "MiB",
                    "VmHWM through set-up and warm-up".to_string(),
                );
                rep.extra(
                    "peak_rss_mb_run",
                    run,
                    "MiB",
                    "VmHWM of the whole run, not gated".to_string(),
                );
            }
            _ => rep.error("cannot read VmHWM from /proc/self/status"),
        }
        if w != Workload::AlexnetServe {
            rep.extra(
                "deadline_miss_frac",
                f64::NAN,
                "frac",
                "closed loop: requests carry no deadline".to_string(),
            );
        }
        rep.extra(
            "failed_frac",
            rep.failed as f64 / rep.attempted.max(1) as f64,
            "frac",
            format!(
                "{} of {} outputs wrong or errored",
                rep.failed, rep.attempted
            ),
        );
    }
    for m in &rep.metrics {
        if !m.value.is_finite() {
            rep.errors
                .push(format!("metric {} is not a finite number", m.name));
        }
    }
    let name = format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let doc = rep.to_json();
    write_out(&mut rep, &name, &doc);
    rep
}

fn write_out(rep: &mut Report, name: &str, body: &str) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body)) {
        rep.error(format!("write {}: {e}", path.display()));
    }
}

/// `perfbench golden <net> <seed> <count> <workers>`: the child process
/// that computes golden logits (see [`model::golden`]).
fn golden_child(args: &[String]) -> ExitCode {
    let parse = || -> Option<(Net, u64, usize, usize)> {
        let [net, seed, count, workers] = args else {
            return None;
        };
        Some((
            Net::parse(net)?,
            seed.parse().ok()?,
            count.parse().ok()?,
            workers.parse().ok()?,
        ))
    };
    match parse() {
        Some((net, seed, count, workers)) => {
            model::print_golden(net, seed, count, workers);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("usage: perfbench golden <alexnet|vgg16> <seed> <count> <workers>");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("golden") {
        return golden_child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <alexnet-b1|vgg16-b8|alexnet-serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = args.workload.workers(args.trace);
    if workers > nproc {
        eprintln!(
            "perfbench: refusing {}: it needs {workers} worker threads but nproc is {nproc}",
            args.workload.name()
        );
        return ExitCode::from(2);
    }
    let rep = run(&args, nproc);
    print!("{}", rep.human());
    if !rep.errors.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("{}", rep.result_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
