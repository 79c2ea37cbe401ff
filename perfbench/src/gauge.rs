//! The host-speed gauge.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by up to 2× for seconds or minutes at a time, with the load of other
//! tenants (thread CPU time moves with it, so the cause is contention for
//! the cores and caches, not time stolen from the guest). A wall-clock
//! time measured there says as much about the neighbours as about the
//! program. The gauge samples a fixed reference kernel, owned by the
//! benchmark and independent of the repository's code, every
//! [`INTERVAL_NS`] while a workload works; every timed end-to-end
//! quantity is reported at the reference speed:
//!
//! ```text
//! reported = measured × REFERENCE_NS / (median of the last WINDOW sample times)
//! ```
//!
//! so a host that is twice as slow for a while makes both the program and
//! the kernel about twice as slow, and the reported time does not move. A
//! change to the program moves the program's time and not the kernel's.
//! The human report ends with the samples' median, from which the
//! unscaled times follow.
//!
//! The disk moves on its own, and the kernel does not follow it: the time
//! a durable store's WAL fsyncs take inside an ingest is reported as
//! measured, and only the rest of the ingest is scaled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::util::{median, now_ns, timed};

/// Sample time the reported figures are scaled to, ns: about what a
/// sample takes amid the workloads on the reference host.
pub const REFERENCE_NS: f64 = 200_000.0;
/// Least time between two gauge samples, ns.
pub const INTERVAL_NS: u64 = 20_000_000;
/// Samples the current speed is the median of.
const WINDOW: usize = 9;

/// Words of the kernel's working set (1 MiB, the size of the canonical
/// corpus' bitmap index).
const WORDS: usize = 1 << 17;
/// Words per AND/popcount run: one 100k-row bitmap.
const RUN_WORDS: usize = 100_000 / 64;
/// AND/popcount runs per call.
const RUNS: usize = 8;
/// Short-lived vectors allocated, filled and freed per call.
const ALLOCS: usize = 700;
/// Dependent random reads across the working set per call.
const READS: usize = 400;
/// Rounds of pure integer work per call.
const ALU_ROUNDS: usize = 8_000;

struct State {
    /// Whether this run scales (untraced runs); otherwise nothing is
    /// sampled and `scale` is the identity.
    on: bool,
    buf: Vec<u64>,
    /// Every sample, ns.
    samples: Vec<f64>,
    last_at: u64,
}

/// The process-wide gauge.
pub struct Gauge {
    state: Mutex<State>,
    /// Current median kernel time, f64 bits.
    current: AtomicU64,
}

/// xorshift64*: the kernel's fixed input and its access pattern.
fn mix(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One reference-kernel call, four parts of about equal time on the
/// reference host, the kinds of work an estimator probe does: ANDs and
/// popcounts of bitmap-sized runs, allocator churn, dependent random
/// reads across a cache-sized working set, and pure integer work. (Of
/// the single parts and mixes tried against `walk_local`'s round times,
/// the equal mix tracked the host's speed best.)
fn kernel(buf: &[u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..RUNS {
        let a = (mix(&mut x) as usize) % (WORDS - RUN_WORDS);
        let b = (mix(&mut x) as usize) % (WORDS - RUN_WORDS);
        acc += buf[a..a + RUN_WORDS]
            .iter()
            .zip(&buf[b..b + RUN_WORDS])
            .map(|(p, q)| u64::from((p & q).count_ones()))
            .sum::<u64>();
    }
    for i in 0..ALLOCS {
        let v: Vec<u32> = (0..(8 + i % 56) as u32).collect();
        acc += std::hint::black_box(v).len() as u64;
    }
    let mut at = (acc as usize) % WORDS;
    for _ in 0..READS {
        let w = buf[at];
        acc = acc.wrapping_add(w);
        at = ((w ^ acc) as usize) % WORDS;
    }
    for _ in 0..ALU_ROUNDS {
        acc = acc.wrapping_add(u64::from(mix(&mut x).count_ones()));
    }
    acc
}

impl Gauge {
    fn new(on: bool) -> Self {
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let buf: Vec<u64> = if on {
            (0..WORDS).map(|_| mix(&mut x)).collect()
        } else {
            Vec::new()
        };
        let g = Self {
            state: Mutex::new(State {
                on,
                buf,
                samples: Vec::new(),
                last_at: 0,
            }),
            current: AtomicU64::new(REFERENCE_NS.to_bits()),
        };
        for _ in 0..WINDOW {
            g.sample();
        }
        g
    }

    /// Takes one sample now.
    pub fn sample(&self) {
        let mut st = self.state.lock().expect("gauge poisoned");
        if !st.on {
            return;
        }
        // Two calls: the first finds the working set evicted by the
        // workload (memory latency), the second finds it cached (core
        // speed); a sample is their sum.
        let (sum, ns) = timed(|| kernel(&st.buf) ^ kernel(&st.buf));
        std::hint::black_box(sum);
        st.samples.push(ns as f64);
        st.last_at = now_ns();
        let recent = &st.samples[st.samples.len().saturating_sub(WINDOW)..];
        self.current
            .store(median(recent).to_bits(), Ordering::Relaxed);
    }

    /// Samples if [`INTERVAL_NS`] has passed since the last sample.
    pub fn tick(&self) {
        let due = {
            let st = self.state.lock().expect("gauge poisoned");
            now_ns().saturating_sub(st.last_at) >= INTERVAL_NS
        };
        if due {
            self.sample();
        }
    }

    /// `ns` measured now, at the reference speed.
    pub fn scale(&self, ns: f64) -> f64 {
        ns * REFERENCE_NS / f64::from_bits(self.current.load(Ordering::Relaxed))
    }

    /// Every sample so far, ns.
    pub fn samples(&self) -> Vec<f64> {
        self.state.lock().expect("gauge poisoned").samples.clone()
    }
}

static GAUGE: OnceLock<Gauge> = OnceLock::new();

/// Builds the process-wide gauge, sampled [`WINDOW`] times, scaling when
/// `on` (untraced runs: the traced run reports per-layer times, some of
/// them differences of two times, unscaled). Later calls do nothing.
pub fn init(on: bool) {
    GAUGE.get_or_init(|| Gauge::new(on));
}

/// The process-wide gauge (off unless [`init`] turned it on).
pub fn get() -> &'static Gauge {
    GAUGE.get_or_init(|| Gauge::new(false))
}

/// Samples if due.
pub fn tick() {
    get().tick();
}

/// `ns` measured now, at the reference speed.
pub fn scale(ns: f64) -> f64 {
    get().scale(ns)
}

/// Runs `f` between fresh samples, and returns its result with its time
/// at the reference speed and unscaled, ns: for single stretches of work
/// (a set-up, a recovery) longer than the interval. Half the window is
/// sampled after `f`, so the speed it is scaled by straddles it.
pub fn timed_scaled<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let g = get();
    g.sample();
    let (out, ns) = timed(f);
    for _ in 0..WINDOW.div_ceil(2) {
        g.sample();
    }
    (out, g.scale(ns as f64), ns as f64)
}
