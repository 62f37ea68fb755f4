//! Host-speed probe, interleaved with the workload on a wall-clock timer.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! seconds to minutes, as neighbours come and go on the same core, cache
//! and memory bus. To report host times at a nominal speed, the benchmark
//! samples the host's speed all through a repetition: every
//! [`TICK_US`] µs of wall time a `SIGALRM` handler runs one short slice of
//! fixed work on whichever thread the signal lands on: eight chains of
//! random reads with data-dependent branches within a 512 KB table. The
//! slices' mean duration says how fast the host ran while the workload
//! ran; `run.py` rescales the repetition's times by it. (Two other kinds
//! of slice were tried and dropped: a dependent integer chain, which
//! followed the host's drift less closely, and random reads over 32 MB,
//! which varied far more than the workloads did.)
//!
//! The probe is benchmark code and does not change when the crates do, so
//! a faster crate still reads as faster. Slice time is taken out of every
//! time the workloads report ([`Stopwatch`]); the probe's table is taken
//! out of the peak RSS ([`TABLE_MB`]).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Wall-clock period of the probe timer.
pub const TICK_US: i64 = 20_000;
/// Words of the random-read table (512 KB).
const TABLE_WORDS: usize = 1 << 17;
/// The table's size, which the probe adds to the process's RSS.
pub const TABLE_MB: f64 = (TABLE_WORDS * 4) as f64 / (1024.0 * 1024.0);
/// Steps per slice: a slice takes ~1.2 ms on a 2-core 2.1 GHz Xeon VM.
const STEPS: usize = 90_000;

static TABLE: OnceLock<Box<[u32]>> = OnceLock::new();
/// Slices run, and the ns they took.
static SLICES: AtomicU64 = AtomicU64::new(0);
static PROBE_NS: AtomicU64 = AtomicU64::new(0);

/// Eight independent chains of dependent reads within the table, with a
/// data-dependent branch per read.
fn reads(table: &[u32]) -> u64 {
    let mask = TABLE_WORDS - 1;
    let mut p = [0usize, 1, 2, 3, 4, 5, 6, 7];
    let mut acc = 0u64;
    for _ in 0..STEPS {
        for (k, pk) in p.iter_mut().enumerate() {
            let v = table[*pk & mask];
            if v & 3 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else {
                acc ^= u64::from(v);
            }
            *pk = (v as usize) ^ k;
        }
    }
    acc
}

extern "C" fn on_tick(_signal: i32) {
    let Some(table) = TABLE.get() else { return };
    let t = Instant::now();
    black_box(reads(table));
    PROBE_NS.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    SLICES.fetch_add(1, Relaxed);
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

const SIGALRM: i32 = 14;
const ITIMER_REAL: i32 = 0;

fn set_timer(us: i64) {
    let period = Timeval { sec: 0, usec: us };
    let first = Timeval { sec: 0, usec: us };
    let it = Itimerval {
        interval: period,
        value: first,
    };
    // SAFETY: `it` is a valid itimerval for the call's duration; a null
    // old-value pointer is allowed.
    let rc = unsafe { setitimer(ITIMER_REAL, &it, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer failed");
}

/// Fill the table and start the timer.
pub fn start() {
    TABLE.get_or_init(|| {
        let mut z = 0x2545_F491_4F6C_DD1Du64;
        (0..TABLE_WORDS)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z % TABLE_WORDS as u64) as u32
            })
            .collect()
    });
    // SAFETY: the handler only reads the already-filled table, reads the
    // clock and updates atomics: it allocates nothing and takes no lock.
    unsafe { signal(SIGALRM, on_tick as extern "C" fn(i32) as usize) };
    set_timer(TICK_US);
}

/// Stop the timer.
pub fn stop() {
    set_timer(0);
}

/// Slices run so far, and their mean duration in seconds (0 if none).
pub fn slices() -> (u64, f64) {
    let n = SLICES.load(Relaxed);
    let s = PROBE_NS.load(Relaxed) as f64 * 1e-9;
    (n, if n > 0 { s / n as f64 } else { 0.0 })
}

/// Wall time with the probe's slices taken out.
pub struct Stopwatch {
    t: Instant,
    probe_ns: u64,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            t: Instant::now(),
            probe_ns: PROBE_NS.load(Relaxed),
        }
    }

    /// Seconds since [`Stopwatch::start`], less the probe slices run since.
    pub fn secs(&self) -> f64 {
        let wall = self.t.elapsed().as_nanos() as u64;
        let probe = PROBE_NS.load(Relaxed) - self.probe_ns;
        wall.saturating_sub(probe) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_run_and_are_taken_out_of_the_stopwatch() {
        start();
        let (wall, watch) = (Instant::now(), Stopwatch::start());
        let mut h = 0u64;
        while wall.elapsed().as_millis() < 200 {
            h = black_box(h.wrapping_mul(31).wrapping_add(1));
        }
        let (wall_s, watch_s) = (wall.elapsed().as_secs_f64(), watch.secs());
        stop();
        let (n, s) = slices();
        assert!(n > 0 && s > 0.0);
        assert!(watch_s < wall_s);
    }
}
