//! Work-stealing parallel execution for the inference host.
//!
//! The paper's accelerator scales by letting idle compute units grab
//! the next task the moment they finish ("semi-synchronous"
//! scheduling, Section 4). The host-side analogue implemented here is
//! a work-stealing worker pool: tasks go into a shared
//! [`crossbeam::deque::Injector`], worker threads steal one at a time,
//! and results are reassembled **by task index**, so the output is a
//! pure function of the inputs — bit-identical to serial execution
//! regardless of thread count or interleaving. That determinism
//! invariant is enforced by `tests/concurrency.rs`.
//!
//! [`parallel_map`] is the only pool: batch inference, the served
//! deadline path and the simulator's fan-outs all run on it, under one
//! per-item contract (typed panics and deadline cuts, never a lost
//! item).
//!
//! [`Parallelism`] is the knob threaded through
//! [`Inferencer`](crate::Inferencer), the simulator's network runner,
//! the CLI and the examples.

use abm_fault::AbmError;
use abm_telemetry::{Event, TelemetrySink};
use crossbeam::deque::{Injector, Steal};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How much host-thread parallelism to use for batch-level work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Everything on the calling thread, in order.
    Serial,
    /// A fixed-size worker pool (clamped to at least one worker).
    Threads(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this host.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Parses a CLI spelling: `serial`, `auto`, or a thread count.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::Auto),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Parallelism::Threads)
                .ok_or_else(|| format!("bad parallelism '{n}' (expected serial|auto|N)")),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto({})", self.worker_count()),
        }
    }
}

/// Applies `f` to every item across a work-stealing pool and returns
/// one outcome per item, **in item order**.
///
/// Each worker repeatedly claims the next unclaimed index from a shared
/// injector queue and computes `f(worker, index, &items[index])`; the
/// pool therefore load-balances uneven items exactly like the paper's
/// semi-synchronous CU scheduler balances uneven kernel batches. With
/// one worker (or fewer than two items) the calling thread runs the
/// same loop, claiming items in order. The contract:
///
/// * `Ok(r)` — the item ran to completion. Results never depend on the
///   worker count or the interleaving.
/// * [`AbmError::WorkerPanic`] — `f` panicked on the item. The panic is
///   caught on the worker and poisons only that item.
/// * [`AbmError::DeadlineExceeded`] — `deadline` passed before any
///   worker claimed the item. Cancellation is cooperative, at claim
///   granularity: claimed items always finish, so the pool always joins
///   cleanly.
///
/// Pool metrics are recorded on every call and, when a sink is
/// attached, each worker records one [`Event::WorkerSteals`] (items it
/// claimed, wall-clock time it spent in `f`) before retiring. Metrics
/// and events observe the pool, they never steer it.
pub fn parallel_map<T, R, F>(
    parallelism: Parallelism,
    items: &[T],
    sink: Option<&TelemetrySink>,
    deadline: Option<Instant>,
    f: F,
) -> Vec<Result<R, AbmError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let metrics_on = abm_metrics::enabled();
    if metrics_on {
        let m = abm_metrics::global();
        m.add("pool_fanouts_total", 1);
        m.add("pool_items_total", items.len() as u64);
        m.gauge_max("pool_queue_depth_high_water", items.len() as u64);
    }
    let workers = parallelism.worker_count().min(items.len());
    let shares = if workers <= 1 {
        let mut next = 0..items.len();
        let share = work(0, || next.next(), items, sink, deadline, &f);
        if metrics_on {
            abm_metrics::global().add("pool_serial_items_total", share.len() as u64);
        }
        vec![share]
    } else {
        if metrics_on {
            abm_metrics::global().add("pool_workers_total", workers as u64);
        }
        let injector: Injector<usize> = Injector::new();
        for i in 0..items.len() {
            injector.push(i);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (injector, f) = (&injector, &f);
                    scope.spawn(move || {
                        let mut retries = 0u64;
                        let claim = || loop {
                            match injector.steal() {
                                Steal::Success(i) => return Some(i),
                                Steal::Empty => return None,
                                Steal::Retry => retries += 1,
                            }
                        };
                        let share = work(worker, claim, items, sink, deadline, f);
                        if metrics_on {
                            let m = abm_metrics::global();
                            m.add("pool_steals_total", share.len() as u64);
                            m.add("pool_steal_retries_total", retries);
                        }
                        share
                    })
                })
                .collect();
            // `f`'s panics are caught inside `work`, so a join only
            // fails if the pool's own bookkeeping died; that worker's
            // items come back typed below instead of crossing the join.
            handles
                .into_iter()
                .filter_map(|h| h.join().ok())
                .collect::<Vec<_>>()
        })
    };
    let mut slots: Vec<Option<Result<R, AbmError>>> = (0..items.len()).map(|_| None).collect();
    for (i, outcome) in shares.into_iter().flatten() {
        slots[i] = Some(outcome);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(item, slot)| {
            slot.unwrap_or_else(|| {
                Err(
                    deadline_cut(item, deadline).unwrap_or_else(|| AbmError::WorkerPanic {
                        item,
                        message: "worker exited before reporting the item".into(),
                    }),
                )
            })
        })
        .collect()
}

/// One worker's loop: claim the next item until none is left or the
/// deadline passes, run it behind a panic boundary, and hand back the
/// outcomes tagged with their item index.
fn work<T, R>(
    worker: usize,
    mut claim: impl FnMut() -> Option<usize>,
    items: &[T],
    sink: Option<&TelemetrySink>,
    deadline: Option<Instant>,
    f: &impl Fn(usize, usize, &T) -> R,
) -> Vec<(usize, Result<R, AbmError>)> {
    let mut done = Vec::new();
    let mut busy_ns = 0u64;
    while deadline.is_none_or(|d| Instant::now() < d) {
        let Some(i) = claim() else { break };
        let start = sink.map(|_| Instant::now());
        let outcome =
            catch_unwind(AssertUnwindSafe(|| f(worker, i, &items[i]))).map_err(|payload| {
                AbmError::WorkerPanic {
                    item: i,
                    message: payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "worker panicked with a non-string payload".to_string()),
                }
            });
        if let Some(start) = start {
            busy_ns = busy_ns
                .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        done.push((i, outcome));
    }
    if let Some(sink) = sink.filter(|_| !done.is_empty()) {
        sink.record(Event::WorkerSteals {
            worker: worker as u32,
            tasks: done.len() as u64,
            busy_ns,
        });
    }
    done
}

/// The typed [`AbmError::DeadlineExceeded`] for an item no worker
/// claimed before `deadline` passed; `None` while there is still time,
/// and always without a deadline.
fn deadline_cut(item: usize, deadline: Option<Instant>) -> Option<AbmError> {
    let late = Instant::now().checked_duration_since(deadline?)?;
    Some(AbmError::DeadlineExceeded {
        item,
        late_us: u64::try_from(late.as_micros()).unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// The pool with no sink and no deadline, every outcome unwrapped.
    fn map<T: Sync, R: Send>(
        par: Parallelism,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        parallel_map(par, items, None, None, |_, i, item| f(i, item))
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    fn steal_counts(sink: &TelemetrySink) -> Vec<(u32, u64)> {
        sink.events()
            .iter()
            .map(|e| match e {
                Event::WorkerSteals { worker, tasks, .. } => (*worker, *tasks),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn results_keep_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = map(Parallelism::Serial, &items, |i, &x| x * 3 + i as u64);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            assert_eq!(map(par, &items, |i, &x| x * 3 + i as u64), serial, "{par}");
        }
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let visits = AtomicUsize::new(0);
        let out = map(Parallelism::Threads(8), &items, |_, &x| {
            visits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(visits.load(Ordering::Relaxed), 500);
        assert_eq!(out, items);
    }

    #[test]
    fn uneven_items_balance() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..40)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let spin = |_: usize, &n: &u64| (0..n).fold(0u64, |a, b| a.wrapping_add(b));
        assert_eq!(
            map(Parallelism::Threads(4), &items, spin),
            map(Parallelism::Serial, &items, spin),
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        let sink = TelemetrySink::new();
        let deadline = Some(Instant::now() + Duration::from_secs(60));
        assert!(parallel_map(
            Parallelism::Auto,
            &empty,
            Some(&sink),
            deadline,
            |_, _, &x| x
        )
        .is_empty());
        assert!(sink.events().is_empty(), "an empty map records no worker");
        assert_eq!(map(Parallelism::Auto, &[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn pool_records_steal_counts() {
        let items: Vec<u64> = (0..64).collect();
        let sink = TelemetrySink::new();
        let serial = map(Parallelism::Serial, &items, |i, &x| x + i as u64);
        let traced: Vec<u64> = parallel_map(
            Parallelism::Threads(4),
            &items,
            Some(&sink),
            None,
            |w, i, &x| {
                assert!(w < 4);
                x + i as u64
            },
        )
        .into_iter()
        .map(Result::unwrap)
        .collect();
        assert_eq!(traced, serial);
        let counts = steal_counts(&sink);
        assert!(!counts.is_empty() && counts.len() <= 4);
        let total: u64 = counts.iter().map(|&(_, tasks)| tasks).sum();
        assert_eq!(total, 64, "every item stolen exactly once");
    }

    #[test]
    fn serial_map_reports_one_worker() {
        let sink = TelemetrySink::new();
        let out = parallel_map(
            Parallelism::Serial,
            &[1u8, 2, 3],
            Some(&sink),
            None,
            |w, _, &x| {
                assert_eq!(w, 0);
                x * 2
            },
        );
        assert_eq!(out, vec![Ok(2), Ok(4), Ok(6)]);
        assert_eq!(steal_counts(&sink), vec![(0, 3)]);
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let items: Vec<u32> = (0..20).collect();
        let generous = Instant::now() + Duration::from_secs(60);
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            for deadline in [None, Some(generous)] {
                let out = parallel_map(par, &items, None, deadline, |_, _, &x| {
                    assert!(x != 13, "poisoned item {x}");
                    x * 2
                });
                assert_eq!(out.len(), 20);
                for (i, r) in out.iter().enumerate() {
                    if i == 13 {
                        match r {
                            Err(AbmError::WorkerPanic { item, message }) => {
                                assert_eq!(*item, 13, "{par}");
                                assert!(message.contains("poisoned item 13"), "{par}: {message}");
                            }
                            other => panic!("{par}: expected WorkerPanic, got {other:?}"),
                        }
                    } else {
                        assert_eq!(*r, Ok(i as u32 * 2), "{par}");
                    }
                }
            }
        }
    }

    #[test]
    fn deadline_types_every_unclaimed_item() {
        let items: Vec<u64> = (0..24).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            // Generous deadline: everything completes, in order.
            let generous = Instant::now() + Duration::from_secs(60);
            let out = parallel_map(par, &items, None, Some(generous), |_, _, &x| x * 2);
            let want: Vec<Result<u64, AbmError>> = items.iter().map(|&x| Ok(x * 2)).collect();
            assert_eq!(out, want, "{par}");

            // Expired deadline: nothing runs, every item is typed.
            let runs = AtomicUsize::new(0);
            let expired = Instant::now() - Duration::from_millis(1);
            let out = parallel_map(par, &items, None, Some(expired), |_, _, &x| {
                runs.fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(runs.load(Ordering::Relaxed), 0, "{par}");
            assert_eq!(out.len(), 24);
            for (i, r) in out.iter().enumerate() {
                match r {
                    Err(AbmError::DeadlineExceeded { item, .. }) => assert_eq!(*item, i, "{par}"),
                    other => panic!("{par}: item {i} not typed as deadline cut: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn midbatch_cut_keeps_completed_items() {
        // Slow items force the deadline to fire mid-batch; the fast
        // items that were claimed first must come back Ok and correct,
        // and the pool still accounts for every claimed item.
        let items: Vec<u64> = (0..16).collect();
        let sink = TelemetrySink::new();
        let deadline = Instant::now() + Duration::from_millis(30);
        let out = parallel_map(
            Parallelism::Threads(2),
            &items,
            Some(&sink),
            Some(deadline),
            |_, i, &x| {
                if i >= 4 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                x + 100
            },
        );
        assert_eq!(out.len(), 16);
        let completed = out.iter().filter(|r| r.is_ok()).count();
        assert!(
            completed < 16,
            "deadline should have cut the tail of the batch"
        );
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i as u64 + 100),
                Err(AbmError::DeadlineExceeded { item, .. }) => assert_eq!(*item, i),
                Err(other) => panic!("unexpected error for item {i}: {other}"),
            }
        }
        let claimed: u64 = steal_counts(&sink).iter().map(|&(_, tasks)| tasks).sum();
        assert_eq!(claimed as usize, completed);
    }

    #[test]
    fn worker_counts_resolve() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(3).worker_count(), 3);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(Parallelism::parse("serial"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse("6"), Ok(Parallelism::Threads(6)));
        assert!(Parallelism::parse("0").is_err());
        assert!(Parallelism::parse("fast").is_err());
    }
}
