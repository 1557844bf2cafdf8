//! `alexnet-serve`: an open-loop generator against an in-process
//! `abm_serve::Server`.
//!
//! One generator thread submits on a fixed schedule at two absolute
//! offered rates. Every request is timed from the moment it was *due*,
//! not from when the server enqueued it, so a generator stall shows up
//! as latency; how late the generator ran is reported and bounded.

use crate::model::{self, Net};
use crate::report::Report;
use abm_conv::Parallelism;
use abm_fault::AbmError;
use abm_model::{synthesize_model, SparseModel};
use abm_serve::{ServeConfig, ServeStats, Server};
use abm_sim::AcceleratorConfig;
use abm_tensor::Tensor3;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Executor workers inside the server.
pub const WORKERS: usize = 2;
/// Offered rate of the `nominal` phase, requests per second.
pub const NOMINAL_RPS: f64 = 2.5;
/// Offered rate of the `overload` phase, requests per second.
pub const OVERLOAD_RPS: f64 = 9.5;
/// Share of the run's measuring time spent at `nominal`.
pub const NOMINAL_SHARE: f64 = 0.6;
/// Deadline budget every request carries.
pub const DEADLINE: Duration = Duration::from_millis(1000);
/// A run whose generator submitted any request later than this after
/// its due time is invalid.
pub const LATENESS_BOUND_MS: f64 = 50.0;

pub fn accel() -> AcceleratorConfig {
    AcceleratorConfig::paper_alexnet()
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        intra_batch: Parallelism::Serial,
        default_deadline: DEADLINE,
        slo: DEADLINE,
        ..ServeConfig::default()
    }
}

/// What happened to one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Completed with logits equal to the golden ones.
    Ok,
    /// Completed with wrong logits.
    Wrong,
    /// Refused at admission with the typed `Overloaded`.
    Shed,
    /// Admitted, then cut with the typed `DeadlineExceeded`.
    Cut,
    /// Any other error.
    Error,
}

#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub class: Class,
    pub due: Instant,
    pub submitted: Instant,
    pub accepted: Instant,
    /// When the response reached the waiter (`None` for sheds).
    pub done: Option<Instant>,
    pub queued_us: u64,
    pub total_us: u64,
}

impl Outcome {
    /// Milliseconds from due time to response.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    pub fn admitted(&self) -> bool {
        self.class != Class::Shed
    }

    /// Admitted, then cut or answered after its deadline (from due).
    pub fn missed_deadline(&self) -> bool {
        self.class == Class::Cut
            || (self.admitted()
                && self
                    .latency_ms()
                    .is_some_and(|l| l > DEADLINE.as_secs_f64() * 1e3))
    }

    /// Answered correctly within the deadline.
    pub fn good(&self) -> bool {
        self.class == Class::Ok && !self.missed_deadline()
    }

    pub fn lateness_ms(&self) -> f64 {
        self.submitted
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }
}

#[derive(Debug)]
pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    pub seconds: f64,
    pub outcomes: Vec<Outcome>,
    /// Batches the server dispatched during the phase.
    pub batches: u64,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.class == Class::Ok)
            .filter_map(Outcome::latency_ms)
            .collect()
    }

    pub fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(o)).count()
    }

    pub fn lateness_max_ms(&self) -> f64 {
        self.outcomes
            .iter()
            .map(Outcome::lateness_ms)
            .fold(0.0, f64::max)
    }

    /// Seconds from the first due time to the last response.
    pub fn wall_s(&self) -> f64 {
        let first = self.outcomes.iter().map(|o| o.due).min();
        let last = self
            .outcomes
            .iter()
            .map(|o| o.done.unwrap_or(o.accepted))
            .max();
        match (first, last) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => f64::NAN,
        }
    }

    pub fn deadline_miss_frac(&self) -> f64 {
        let admitted = self.count(Outcome::admitted);
        self.count(Outcome::missed_deadline) as f64 / admitted.max(1) as f64
    }
}

/// The served model and a started server, plus each set-up's wall time
/// (synthesize + `Server::start`, which lowers, certifies, prepares,
/// simulates the cost model and warms up).
pub struct Served {
    pub model: Arc<SparseModel>,
    pub server: Server,
    pub setup_s: Vec<f64>,
}

pub fn timed_start(seed: u64) -> Served {
    let mut setup_s = Vec::with_capacity(model::SETUP_REPS);
    let mut last = None;
    for _ in 0..model::SETUP_REPS {
        if let Some((_, server)) = last.take() {
            let _: ServeStats = Server::shutdown(server);
        }
        let t0 = Instant::now();
        let net = Net::AlexNet;
        let m = Arc::new(synthesize_model(
            &net.network(),
            &net.profile(),
            net.model_seed(seed),
        ));
        let server = Server::start(Arc::clone(&m), &accel(), serve_config())
            .expect("server starts on a zoo model");
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((m, server));
    }
    let (model, server) = last.expect("SETUP_REPS > 0");
    Served {
        model,
        server,
        setup_s,
    }
}

/// Submits `count` requests back to back and waits for all of them —
/// lets every worker finish preparing before anything is timed.
pub fn warm_up(
    server: &Server,
    inputs: &[Tensor3<i16>],
    golden: &[Vec<f32>],
    count: usize,
) -> Vec<Outcome> {
    offer(server, inputs, golden, count, 0, |_| Duration::ZERO)
}

/// Runs one open-loop phase at a fixed rate for `seconds`, then waits
/// for every admitted request to be answered.
fn run_phase(
    server: &Server,
    name: &'static str,
    rate: f64,
    seconds: f64,
    inputs: &[Tensor3<i16>],
    golden: &[Vec<f32>],
    first: usize,
) -> Phase {
    let before = server.stats().batches;
    let count = ((rate * seconds).round() as usize).max(1);
    let outcomes = offer(server, inputs, golden, count, first, |k| {
        Duration::from_secs_f64(k as f64 / rate)
    });

    Phase {
        name,
        rate,
        seconds,
        outcomes,
        batches: server.stats().batches - before,
    }
}

/// The generator: request `k` is due at `start + due(k)`; each admitted
/// ticket gets a waiter thread that timestamps the response.
fn offer(
    server: &Server,
    inputs: &[Tensor3<i16>],
    golden: &[Vec<f32>],
    count: usize,
    first: usize,
    due: impl Fn(usize) -> Duration,
) -> Vec<Outcome> {
    let results = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for k in 0..count {
            let due = start + due(k);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            let which = (first + k) % inputs.len();
            let verdict = server.submit(inputs[which].clone(), DEADLINE);
            let accepted = Instant::now();
            let results = &results;
            let shell = Outcome {
                class: Class::Shed,
                due,
                submitted,
                accepted,
                done: None,
                queued_us: 0,
                total_us: 0,
            };
            match verdict {
                Ok(ticket) => {
                    let golden = &golden[which];
                    scope.spawn(move || {
                        let resp = ticket.wait();
                        let done = Instant::now();
                        let class = match &resp.outcome {
                            Ok(out) if model::same_logits(golden, &out.logits) => Class::Ok,
                            Ok(_) => Class::Wrong,
                            Err(e) => classify(e),
                        };
                        let o = Outcome {
                            class,
                            done: Some(done),
                            queued_us: resp.queued_us,
                            total_us: resp.total_us,
                            ..shell
                        };
                        results.lock().expect("no waiter panics").push(o);
                    });
                }
                Err(e) => {
                    let class = match classify(&e) {
                        Class::Cut => Class::Error, // not a valid admission verdict
                        c => c,
                    };
                    results
                        .lock()
                        .expect("no waiter panics")
                        .push(Outcome { class, ..shell });
                }
            }
        }
    });
    let mut out = results.into_inner().expect("no waiter panics");
    out.sort_by_key(|o| o.due);
    out
}

fn classify(e: &AbmError) -> Class {
    match e.root_cause() {
        AbmError::Overloaded { .. } => Class::Shed,
        AbmError::DeadlineExceeded { .. } => Class::Cut,
        _ => Class::Error,
    }
}

/// Both phases of one served run.
pub struct Phases {
    pub nominal: Phase,
    pub overload: Phase,
}

/// Runs `nominal` then `overload`, splitting `seconds` between them.
pub fn run_phases(
    server: &Server,
    seconds: f64,
    inputs: &[Tensor3<i16>],
    golden: &[Vec<f32>],
) -> Phases {
    let nominal_s = seconds * NOMINAL_SHARE;
    let nominal = run_phase(server, "nominal", NOMINAL_RPS, nominal_s, inputs, golden, 0);
    let first = nominal.outcomes.len();
    let overload = run_phase(
        server,
        "overload",
        OVERLOAD_RPS,
        seconds - nominal_s,
        inputs,
        golden,
        first,
    );
    Phases { nominal, overload }
}

/// Counts offered requests as attempted and wrong or untyped-error
/// answers as failed (typed sheds and deadline cuts are not failures).
pub fn account(rep: &mut Report, outcomes: &[Outcome]) {
    rep.attempted += outcomes.len() as u64;
    rep.failed += outcomes
        .iter()
        .filter(|o| matches!(o.class, Class::Wrong | Class::Error))
        .count() as u64;
}

/// Marks the run invalid when the server lost a request or the
/// generator ran later than [`LATENESS_BOUND_MS`].
pub fn check_run(rep: &mut Report, stats: &ServeStats, lateness_ms: f64) {
    if stats.admitted != stats.answered() {
        rep.error(format!(
            "drain lost requests: admitted {} answered {}",
            stats.admitted,
            stats.answered()
        ));
    }
    if lateness_ms > LATENESS_BOUND_MS {
        rep.error(format!(
            "invalid run: the generator ran {lateness_ms:.3} ms late (bound {LATENESS_BOUND_MS} ms)"
        ));
    }
}

/// `alexnet-serve`, untraced: set-up, then `nominal` and `overload`.
pub fn alexnet_serve(rep: &mut Report, seed: u64, seconds: f64) {
    let served = timed_start(seed);
    let inputs = model::inputs(
        served.model.network.input_shape(),
        seed,
        Net::AlexNet.distinct_inputs(),
    );
    let golden = model::golden(Net::AlexNet, seed, inputs.len(), WORKERS);
    let prepared = abm_conv::Inferencer::new(&served.model)
        .prepare()
        .expect("zoo models prepare");
    rep.meta("kernels", model::kernel_selection(&served.model, &prepared));
    drop(prepared);
    rep.meta(
        "serve.service_estimate_ms",
        served.server.service_estimate().as_secs_f64() * 1e3,
    );
    rep.meta(
        "serve.cycles_per_image (simulated)",
        served.server.cycles_per_image(),
    );
    let warm = warm_up(&served.server, &inputs, &golden, 2 * WORKERS);
    account(rep, &warm);
    rep.warm_peak_mb = crate::peak_rss_mb();
    let phases = run_phases(&served.server, seconds, &inputs, &golden);
    let stats = served.server.shutdown();
    let (nominal, overload) = (&phases.nominal, &phases.overload);
    account(rep, &nominal.outcomes);
    account(rep, &overload.outcomes);
    let lateness = nominal.lateness_max_ms().max(overload.lateness_max_ms());
    check_run(rep, &stats, lateness);

    let goodput = overload.count(Outcome::good) as f64 / overload.wall_s();
    for p in [nominal, overload] {
        rep.meta(
            &format!("phase.{}", p.name),
            format!(
                "{} req/s for {:.1} s: offered {} admitted {} shed {} ok {} cut {} late {} wrong {} error {} batches {}",
                p.rate,
                p.seconds,
                p.outcomes.len(),
                p.count(Outcome::admitted),
                p.count(|o| o.class == Class::Shed),
                p.count(|o| o.class == Class::Ok),
                p.count(|o| o.class == Class::Cut),
                p.count(|o| o.class == Class::Ok && o.missed_deadline()),
                p.count(|o| o.class == Class::Wrong),
                p.count(|o| o.class == Class::Error),
                p.batches,
            ),
        );
    }
    rep.end_to_end(
        &served.setup_s,
        goodput,
        &nominal.latencies_ms(),
        "per request at nominal, from due time",
    );
    rep.extra(
        "deadline_miss_frac",
        overload.deadline_miss_frac(),
        "frac",
        format!(
            "overload: cut or late over admitted ({})",
            overload.count(Outcome::admitted)
        ),
    );
    rep.extra(
        "loadgen.lateness_ms_max",
        lateness,
        "ms",
        format!("bound {LATENESS_BOUND_MS} ms"),
    );
}
