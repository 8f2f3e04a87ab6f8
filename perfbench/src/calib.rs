//! Calibrated CPU time.
//!
//! On a shared host two things move with what the neighbours run, and
//! neither is the program's doing: the time a process waits for a
//! processor, and the processor's speed (the same fixed loop took from
//! 160 to 215 ms within a few seconds). The wall clock counts both, so
//! wall-clock medians of one workload moved by a quarter to a half
//! between runs of the same code.
//!
//! The benchmark therefore measures cost as process CPU time, which
//! leaves out the waiting, and divides it by the speed of the processor
//! at the time. A calibration thread runs a fixed piece of the
//! benchmark's own work, the pass, every [`INTERVAL`] for the whole run
//! and times each pass with its own CPU clock. The cost of a window of
//! the program's work is the process's CPU time in the window, less the
//! calibration thread's, over the mean pass time in the window, times the
//! pass time on the machine the benchmark was tuned on ([`REF_PASS_MS`]).
//! The pass is the benchmark's code, so a change to the library moves the
//! reported cost and the host's speed does not.

use crate::{cpu_s, thread_cpu_s};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// CPU milliseconds of one pass on the reference machine, a 2-vCPU Xeon
/// VM with AVX-512. Calibrated costs read as CPU milliseconds on it.
pub const REF_PASS_MS: f64 = 0.2;

/// Pause between passes: passes take about a tenth of one processor.
const INTERVAL: Duration = Duration::from_millis(2);

/// The pass is an int8 matrix product of `ROWS × INNER` by
/// `INNER × COLS`, a slice of a mid-size conv site of the `default`
/// U-Net, small enough to stay in the first-level caches.
const ROWS: usize = 16;
const INNER: usize = 576;
const COLS: usize = 64;

/// Counters the calibration thread publishes after every pass.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    passes: AtomicU64,
    /// CPU nanoseconds of all passes so far.
    pass_ns: AtomicU64,
    /// CPU nanoseconds of the calibration thread so far, passes and
    /// pauses together.
    thread_ns: AtomicU64,
}

/// A calibration thread, running until dropped.
pub struct Calibration {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// The clocks at one instant: process CPU and the calibration counters.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    cpu_s: f64,
    passes: u64,
    pass_ns: u64,
    thread_ns: u64,
}

fn product(a: &[i8], b: &[i8]) -> i64 {
    let mut sum = 0i64;
    for row in a.chunks_exact(INNER) {
        for col in b.chunks_exact(INNER) {
            let dot: i32 = row
                .iter()
                .zip(col)
                .map(|(&x, &w)| i32::from(x) * i32::from(w))
                .sum();
            sum += i64::from(dot);
        }
    }
    sum
}

impl Calibration {
    /// Starts the calibration thread and waits for its first pass.
    pub fn start() -> Self {
        let shared = Arc::new(Shared::default());
        let s = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let code = |i: usize| ((i.wrapping_mul(2_654_435_761) >> 7) % 255) as i32 - 127;
            let a: Vec<i8> = (0..ROWS * INNER).map(|i| code(i) as i8).collect();
            // Stored column by column, so each output is one contiguous dot.
            let b: Vec<i8> = (0..INNER * COLS).map(|i| code(i + 7) as i8).collect();
            while !s.stop.load(Ordering::Relaxed) {
                let c = thread_cpu_s();
                std::hint::black_box(product(std::hint::black_box(&a), std::hint::black_box(&b)));
                let end = thread_cpu_s();
                s.pass_ns
                    .fetch_add(((end - c) * 1e9) as u64, Ordering::SeqCst);
                s.thread_ns.store((end * 1e9) as u64, Ordering::SeqCst);
                s.passes.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(INTERVAL);
            }
        });
        while shared.passes.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(INTERVAL);
        }
        Calibration {
            shared,
            thread: Some(thread),
        }
    }

    /// Reads the clocks.
    pub fn mark(&self) -> Mark {
        let s = &self.shared;
        // A pass in progress is in the process's CPU time but not yet in
        // the calibration thread's, so a window's cost errs by at most
        // about one pass.
        let thread_ns = s.thread_ns.load(Ordering::SeqCst);
        let pass_ns = s.pass_ns.load(Ordering::SeqCst);
        let passes = s.passes.load(Ordering::SeqCst);
        Mark {
            cpu_s: cpu_s(),
            passes,
            pass_ns,
            thread_ns,
        }
    }

    /// CPU seconds the program used between two marks, without the
    /// calibration thread.
    pub fn cpu_between(from: Mark, to: Mark) -> f64 {
        to.cpu_s - from.cpu_s - to.thread_ns.saturating_sub(from.thread_ns) as f64 * 1e-9
    }

    /// Mean CPU seconds of the passes between two marks; of all passes up
    /// to `to` when none ended in between.
    pub fn pass_between(from: Mark, to: Mark) -> f64 {
        let (n, ns) = match to.passes - from.passes {
            0 => (to.passes, to.pass_ns),
            n => (n, to.pass_ns - from.pass_ns),
        };
        ns as f64 * 1e-9 / n as f64
    }

    /// The program's cost between two marks in reference milliseconds.
    pub fn ref_ms(from: Mark, to: Mark) -> f64 {
        Self::cpu_between(from, to) / Self::pass_between(from, to) * REF_PASS_MS
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(cpu_s: f64, passes: u64, pass_ns: u64, thread_ns: u64) -> Mark {
        Mark {
            cpu_s,
            passes,
            pass_ns,
            thread_ns,
        }
    }

    #[test]
    fn cost_excludes_the_calibration_thread_and_scales_by_its_passes() {
        // 1.0 s of process CPU, 0.1 s of it the calibration thread's;
        // 400 passes of 0.4 ms each: the machine ran at half the
        // reference speed, so 0.9 s reads as 0.45 reference seconds.
        let from = mark(2.0, 100, 21_000_000, 50_000_000);
        let to = mark(3.0, 500, 21_000_000 + 400 * 400_000, 150_000_000);
        assert!((Calibration::cpu_between(from, to) - 0.9).abs() < 1e-9);
        assert!((Calibration::pass_between(from, to) - 0.0004).abs() < 1e-12);
        assert!((Calibration::ref_ms(from, to) - 450.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_without_a_pass_uses_every_pass_so_far() {
        let from = mark(1.0, 10, 2_000_000, 4_000_000);
        let to = mark(1.001, 10, 2_000_000, 4_000_000);
        assert!((Calibration::pass_between(from, to) - 0.0002).abs() < 1e-12);
        assert!((Calibration::ref_ms(from, to) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn the_thread_runs_passes_and_stops_when_dropped() {
        let cal = Calibration::start();
        let a = cal.mark();
        std::thread::sleep(INTERVAL * 5);
        let b = cal.mark();
        assert!(b.passes > a.passes);
        assert!(Calibration::pass_between(a, b) > 0.0);
        drop(cal);
    }
}
