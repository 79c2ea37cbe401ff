//! The open-loop load generator: one generator thread releases
//! arrivals on a fixed schedule, whatever the system's state, to a few
//! client threads (one connection each). Every request is timed from the
//! moment it was due, so a stall also charges the requests queued behind
//! it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::gauge;
use crate::util::now_ns;

/// A service longer than this is recorded as a stall, with its time.
pub const STALL_NS: u64 = 100_000_000;

/// The generator samples the host-speed gauge only in a gap at least
/// this long before the next arrival is due, so it never releases late
/// on the gauge's account.
const GAUGE_GAP_NS: u64 = 1_000_000;

/// What one open-loop phase measured (all times ns).
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due → done, per successful request.
    pub latency: Vec<f64>,
    /// Due → released by the generator: how late the generator ran.
    pub lag: Vec<f64>,
    /// Released → picked up by a client thread.
    pub queue: Vec<f64>,
    /// Picked up → done: send to answer.
    pub service: Vec<f64>,
    /// `(seconds into the phase, service ms)` of every stall.
    pub stalls: Vec<(f64, f64)>,
    /// Requests released.
    pub offered: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Length of the phase, s.
    pub seconds: f64,
}

impl OpenLoop {
    /// Appends a later phase of the same load (its stall times shifted
    /// by this phase's length).
    pub fn absorb(&mut self, mut later: OpenLoop) {
        self.latency.append(&mut later.latency);
        self.lag.append(&mut later.lag);
        self.queue.append(&mut later.queue);
        self.service.append(&mut later.service);
        let shift = self.seconds;
        self.stalls
            .extend(later.stalls.iter().map(|&(at, ms)| (at + shift, ms)));
        self.offered += later.offered;
        self.failed += later.failed;
        self.seconds += later.seconds;
    }

    /// Share of requests answered within `limit_us` of their due time;
    /// failures count as misses.
    pub fn on_time_fraction(&self, limit_us: f64) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        let ok = self
            .latency
            .iter()
            .filter(|&&ns| ns / 1e3 <= limit_us)
            .count();
        ok as f64 / self.offered as f64
    }
}

/// One released request: its index, when it was due, when it was released.
struct Arrival {
    index: usize,
    due: u64,
    released: u64,
}

/// Released requests not yet picked up, and whether the generator is done.
#[derive(Default)]
struct Pending {
    items: VecDeque<Arrival>,
    closed: bool,
}

/// Releases `rate` requests per second for `seconds` and serves them on
/// one client thread per entry of `clients`. `op(client, i)` performs
/// request `i` and returns whether it succeeded.
pub fn run<C: Send>(
    rate: f64,
    seconds: f64,
    clients: Vec<C>,
    op: impl Fn(&mut C, usize) -> bool + Sync,
) -> OpenLoop {
    let pending = Mutex::new(Pending::default());
    let ready = Condvar::new();
    let total = (rate * seconds).round().max(1.0) as usize;
    let gap_ns = 1e9 / rate;
    let start = now_ns();
    let parts: Vec<OpenLoop> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let (pending, ready, op) = (&pending, &ready, &op);
                s.spawn(move || {
                    let mut out = OpenLoop::default();
                    loop {
                        let a = {
                            let mut g = pending.lock().expect("arrival queue poisoned");
                            loop {
                                if let Some(a) = g.items.pop_front() {
                                    break a;
                                }
                                if g.closed {
                                    return out;
                                }
                                g = ready.wait(g).expect("arrival queue poisoned");
                            }
                        };
                        let picked = now_ns();
                        let ok = op(&mut c, a.index);
                        let done = now_ns();
                        if ok {
                            let ns = done.saturating_sub(a.due) as f64;
                            out.latency.push(gauge::scale(ns));
                        } else {
                            out.failed += 1;
                        }
                        out.lag.push(a.released.saturating_sub(a.due) as f64);
                        out.queue.push(picked.saturating_sub(a.released) as f64);
                        let service = done.saturating_sub(picked);
                        out.service.push(service as f64);
                        if service >= STALL_NS {
                            let at = picked.saturating_sub(start) as f64 / 1e9;
                            out.stalls.push((at, service as f64 / 1e6));
                        }
                    }
                })
            })
            .collect();
        for index in 0..total {
            let due = start + (index as f64 * gap_ns) as u64;
            if due.saturating_sub(now_ns()) >= GAUGE_GAP_NS {
                gauge::tick();
            }
            let now = now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let released = now_ns();
            let arrival = Arrival {
                index,
                due,
                released,
            };
            pending
                .lock()
                .expect("arrival queue poisoned")
                .items
                .push_back(arrival);
            ready.notify_one();
        }
        pending.lock().expect("arrival queue poisoned").closed = true;
        ready.notify_all();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = OpenLoop {
        offered: total as u64,
        ..OpenLoop::default()
    };
    for p in parts {
        all.absorb(p);
    }
    all.stalls.sort_by(|a, b| a.0.total_cmp(&b.0));
    all.seconds = (now_ns() - start) as f64 / 1e9;
    all
}
