//! Deterministic worker-pool parallelism for the math kernels.
//!
//! Every hot kernel in this crate (the matmul family, `im2col`/`col2im`,
//! `softmax_rows`, the elementwise activations) is written on top of the
//! small API in this module, which fans contiguous chunks of the output
//! out to a persistent pool of `std::thread` workers. The build
//! environment is offline, so this is a from-scratch pool — no rayon —
//! with the subset of behavior the kernels need:
//!
//! * **Pool size.** Taken from the `SQDM_THREADS` environment variable,
//!   defaulting to [`std::thread::available_parallelism`]. Tests (and any
//!   scoped override) use [`with_threads`].
//! * **Bitwise determinism.** Work is always partitioned into contiguous
//!   blocks so that every output element is produced by exactly one task
//!   running the exact serial code, in the exact serial order. Results are
//!   therefore bitwise identical for *every* thread count, including 1,
//!   and whether or not a region splits at all.
//! * **Nested calls run serially.** A kernel invoked from inside a pool
//!   task sees [`current_threads`]` == 1` and runs inline, so the pool
//!   never deadlocks on itself and the partitioning stays flat.
//! * **Panic propagation.** A panic inside any task is caught, forwarded
//!   to the caller of the parallel region, and resumed there after all
//!   sibling tasks have finished (which is also what makes the lifetime
//!   erasure below sound).
//!
//! # Granularity
//!
//! Handing a task to the pool costs a queue lock, a condvar wake and a
//! latch round trip: an empty two-task region takes about 15 µs on a
//! 2-vCPU Xeon VM against a few ns inline (`dispatch_*` groups of the
//! `kernels_parallel` bench). A region therefore splits only when each
//! task gets at least [`GRAIN`] work units, so kernels worth well under
//! a millisecond run inline on the calling thread.
//!
//! Every call site states its per-chunk work in one unit: one flop of a
//! GEMM inner loop, a multiply-accumulate counting two
//! (`ops::blocking::gemm_task_work`). On that VM a unit costs 0.03–0.065
//! ns of one thread in the packed int8 GEMM and about 0.07 ns in the f32
//! GEMM. Passes that move memory convert their element counts instead:
//! [`MOVE_WORK`] units per element gathered, widened or copied,
//! [`EXP_WORK`] per element that evaluates an `exp`. With these estimates
//! an int8 denoiser evaluation of the `default` or `micro` U-Net opens no
//! region at batch 1 (81 and 52 under the former 4096-unit grain), while
//! batch-4 `default` serving still splits its GEMM panels and operand
//! passes, and the 256³ bench GEMMs and training shapes split as before.
//! [`regions_opened`] counts the regions a thread actually opened.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of pool work whose borrows have been erased to `'static`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work units each task of a parallel region must carry before the
/// region splits: a region of `w` units runs as at most `w / GRAIN`
/// tasks, inline when that is below 2.
///
/// At 0.03–0.07 ns per unit (see the module docs) a task of `GRAIN`
/// units runs for 30–70 µs, two to four times the 15 µs an empty
/// two-task region costs. The `dispatch_conv_i8_*` bench groups show
/// both sides on one 12→12 3×3 int8 conv of `default` at 16×16: at
/// batch 1 it takes 93 µs inline and 128 µs split under the former
/// grain; at batch 4 it takes 490 µs inline and 304 µs split at 2^20.
/// Measured with the repository benchmark
/// (`perfbench`, 2-vCPU Xeon VM, 20 s runs, median of seeds 1 and 2;
/// CPU figures are its calibrated CPU ms) against the former 4096-unit
/// grain:
///
/// | grain       | `http_short` CPU/request | batched drain CPU/image | drain wall/image |
/// |-------------|--------------------------|-------------------------|------------------|
/// | 2^12 before | 9.33 ms                  | 269 ms                  | 236 ms           |
/// | 2^18        | 5.04 ms                  | 254 ms                  | 220 ms           |
/// | 2^20        | 5.23 ms                  | 241 ms                  | 227 ms           |
/// | 2^22        | 5.06 ms                  | 192 ms                  | 203 ms           |
///
/// From 2^18 up no batch-1 `micro` kernel splits, which is where
/// `http_short` gains 45 %: its daemon mostly serves one request per
/// round. Per evaluation, 2^18 still opens 34 regions at batch-1
/// `default` and 18 at batch-4 `micro`; 2^20 opens none at batch 1 and
/// 33 at batch-4 `default` (GEMM panels and operand passes); 2^22 opens
/// none. Single drain runs spread by up to 70 ms, so the drain
/// columns do not separate the grains. In 12 interleaved pairs of
/// batch-4 `default` evaluations on the same VM, 2^20 matched the former
/// grain's wall-clock time (ratio 0.99) at 0.91 of its CPU, and 2^22
/// was 3 % faster still at 0.74 of its CPU: two vCPUs gain nothing from
/// splitting these kernels. 2^20 keeps batched serving parallel on hosts
/// with more cores; revisit it when one is measured. Splitting never
/// changes bits, so the grain is purely a performance decision;
/// [`with_grain`] overrides it for testing.
pub const GRAIN: usize = 1 << 20;

/// Work units per element for passes that gather, widen or copy one
/// element per step (`im2col`, operand packing, transposes, epilogues).
/// Measured on the VM of the module docs: 0.8–1.3 ns per element for
/// the int8 GEMM's activation pack and 1.4–2.3 ns for `im2col_i8`, that
/// is 12–45 GEMM units.
pub const MOVE_WORK: usize = 32;

/// Work units per element for passes that evaluate an `exp` (SiLU,
/// softmax): SiLU measured at about 7 ns per element, 110–230 GEMM
/// units.
pub const EXP_WORK: usize = 128;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    /// Number of worker threads spawned so far; grown on demand so that
    /// `with_threads(n)` scopes larger than the default still get `n`-way
    /// execution.
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while the current thread is executing inside a parallel
    /// region (as a pool worker, or as the caller running its own share);
    /// kernels re-entered in that state run serially.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Scoped grain override installed by [`with_grain`].
    static GRAIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Multi-task regions this thread has opened; see [`regions_opened`].
    static REGIONS: Cell<u64> = const { Cell::new(0) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Ensures at least `n` workers exist (workers are daemons: they park
    /// on the queue condvar and are never joined).
    fn ensure_workers(&self, n: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < n {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("sqdm-worker-{spawned}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn sqdm worker thread");
            *spawned += 1;
        }
    }

    fn submit(&self, job: Job) {
        self.shared.queue.lock().unwrap().push_back(job);
        self.shared.available.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_PARALLEL.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        job();
    }
}

/// Pool size when no [`with_threads`] scope is active: `SQDM_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SQDM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The number of threads parallel regions started from this thread will
/// use: 1 inside a parallel region, the innermost [`with_threads`]
/// override if one is active, the `SQDM_THREADS`/auto default otherwise.
pub fn current_threads() -> usize {
    if IN_PARALLEL.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Runs `f` with parallel regions on this thread capped at `threads`
/// workers, restoring the previous setting afterwards (including on
/// panic). `with_threads(1, ..)` forces fully serial execution and is the
/// reference the equivalence tests compare against.
///
/// # Panics
///
/// Panics if `threads` is zero.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::{current_threads, with_threads};
/// let n = with_threads(3, current_threads);
/// assert_eq!(n, 3);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "with_threads requires at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(threads))));
    f()
}

/// Runs `f` with [`GRAIN`] replaced by `grain` on this thread, restoring
/// the previous setting afterwards (including on panic).
///
/// Testing aid in the spirit of `ops::int::force_generic_kernels`: the
/// thread-count equivalence suites use a tiny grain so that their small
/// shapes still split across the pool. Results never depend on it.
///
/// # Panics
///
/// Panics if `grain` is zero.
#[doc(hidden)]
pub fn with_grain<R>(grain: usize, f: impl FnOnce() -> R) -> R {
    assert!(grain >= 1, "with_grain requires a positive grain");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAIN_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(GRAIN_OVERRIDE.with(|c| c.replace(Some(grain))));
    f()
}

/// Number of multi-task parallel regions the calling thread has opened
/// so far: a monotonic per-thread counter, read before and after a call
/// to see whether the call reached the pool. Regions that ran inline
/// (one task) do not count.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::{par_map_indexed, regions_opened, with_threads};
/// let before = regions_opened();
/// with_threads(2, || par_map_indexed(2, 1, |i| i));
/// assert_eq!(regions_opened(), before, "two units of work run inline");
/// ```
pub fn regions_opened() -> u64 {
    REGIONS.with(Cell::get)
}

/// Countdown latch used by [`run_tasks`] to wait for offloaded jobs,
/// carrying the first panic payload observed on a worker.
struct Latch {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new((count, None)),
            done: Condvar::new(),
        })
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed, then re-raises the first
    /// worker panic, if any.
    fn wait_and_rethrow(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 > 0 {
            state = self.done.wait(state).unwrap();
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

/// Executes every task, offloading all but the first to the pool and
/// running the first on the calling thread. Returns (or unwinds) only
/// after *all* tasks have finished.
fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let mut tasks = tasks.into_iter();
    let Some(own) = tasks.next() else { return };
    if tasks.len() == 0 {
        own();
        return;
    }
    REGIONS.with(|c| c.set(c.get() + 1));
    let pool = pool();
    pool.ensure_workers(tasks.len());
    let latch = Latch::new(tasks.len());
    for task in tasks {
        // SAFETY: the transmute only erases the borrow lifetime of the
        // task; `run_tasks` does not return (normally or by unwinding)
        // until `latch.wait_and_rethrow()` has observed every offloaded
        // job complete, so all borrows strictly outlive the job.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                task,
            )
        };
        let latch = Arc::clone(&latch);
        pool.submit(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            latch.complete(outcome.err());
        }));
    }
    let own_outcome = {
        struct Exit(bool);
        impl Drop for Exit {
            fn drop(&mut self) {
                IN_PARALLEL.with(|c| c.set(self.0));
            }
        }
        let _exit = Exit(IN_PARALLEL.with(|c| c.replace(true)));
        catch_unwind(AssertUnwindSafe(own))
    };
    latch.wait_and_rethrow();
    if let Err(payload) = own_outcome {
        resume_unwind(payload);
    }
}

/// Number of tasks to split `items` independent work items into, given
/// the approximate work units each item costs.
fn task_count(items: usize, work_per_item: usize) -> usize {
    let threads = current_threads();
    if threads <= 1 || items <= 1 {
        return 1;
    }
    let grain = GRAIN_OVERRIDE.with(Cell::get).unwrap_or(GRAIN);
    let total = items.saturating_mul(work_per_item.max(1));
    threads.min(items).min((total / grain).max(1))
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and calls `f(chunk_index, chunk)` for each,
/// distributing contiguous *blocks of chunks* over the pool.
///
/// `chunk_work` is the approximate work units one chunk costs (see the
/// module docs for the unit); regions below two [`GRAIN`]s run inline. Chunk
/// indices are global and ascending within each task, so any computation
/// whose serial form iterates chunks in order is reproduced bitwise.
///
/// # Panics
///
/// Panics if `chunk_len` is zero while `data` is non-empty, or if a task
/// closure panics (the panic is propagated to the caller).
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::par_chunks_mut;
/// let mut rows = vec![0u32; 6];
/// par_chunks_mut(&mut rows, 2, 1 << 20, |i, chunk| {
///     for v in chunk {
///         *v = i as u32;
///     }
/// });
/// assert_eq!(rows, [0, 0, 1, 1, 2, 2]);
/// ```
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, chunk_work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "par_chunks_mut requires a nonzero chunk_len");
    let n_chunks = data.len().div_ceil(chunk_len);
    let n_tasks = task_count(n_chunks, chunk_work);
    if n_tasks <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks_per_task = n_chunks.div_ceil(n_tasks);
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_tasks);
    let mut rest = data;
    let mut first_chunk = 0usize;
    while !rest.is_empty() {
        let take = (chunks_per_task * chunk_len).min(rest.len());
        let (block, tail) = rest.split_at_mut(take);
        rest = tail;
        let base = first_chunk;
        tasks.push(Box::new(move || {
            for (offset, chunk) in block.chunks_mut(chunk_len).enumerate() {
                f(base + offset, chunk);
            }
        }));
        first_chunk += chunks_per_task;
    }
    run_tasks(tasks);
}

/// Computes `f(0), f(1), …, f(n - 1)` — possibly in parallel — and
/// returns the results in index order. `item_work` is the approximate
/// work units one call costs.
///
/// # Panics
///
/// Propagates panics from `f`.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::par_map_indexed;
/// let squares = par_map_indexed(5, 1 << 20, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map_indexed<R, F>(n: usize, item_work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut out, 1, item_work, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|r| r.expect("par_map_indexed task did not fill its slot"))
        .collect()
}

/// Runs two closures — possibly in parallel — and returns both results.
///
/// # Panics
///
/// Propagates panics from either closure.
pub fn par_join<RA, RB, FA, FB>(a: FA, b: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
{
    if current_threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    run_tasks(vec![
        Box::new(|| ra = Some(a())),
        Box::new(|| rb = Some(b())),
    ]);
    (
        ra.expect("par_join first closure did not run"),
        rb.expect("par_join second closure did not run"),
    )
}

/// Applies `f` to every element of `data` in place, in parallel for large
/// slices. `item_work` is the approximate work units one element costs.
pub fn par_map_inplace(data: &mut [f32], item_work: usize, f: impl Fn(f32) -> f32 + Sync) {
    let chunk = elementwise_chunk_len(data.len());
    par_chunks_mut(data, chunk, chunk.saturating_mul(item_work), |_, block| {
        for v in block {
            *v = f(*v);
        }
    });
}

/// Sets `dst[i] = f(dst[i], src[i])` for every element, in parallel for
/// large slices. The slices must have equal lengths.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn par_zip_inplace(
    dst: &mut [f32],
    src: &[f32],
    item_work: usize,
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    assert_eq!(dst.len(), src.len(), "par_zip_inplace length mismatch");
    let chunk = elementwise_chunk_len(dst.len());
    par_chunks_mut(dst, chunk, chunk.saturating_mul(item_work), |i, block| {
        let s = &src[i * chunk..i * chunk + block.len()];
        for (d, &v) in block.iter_mut().zip(s.iter()) {
            *d = f(*d, v);
        }
    });
}

/// Chunk length for elementwise sweeps: large enough to amortize
/// dispatch, small enough to split across the pool.
pub(crate) fn elementwise_chunk_len(len: usize) -> usize {
    len.div_ceil(current_threads().max(1)).clamp(1, 1 << 14)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(5, || {
            assert_eq!(current_threads(), 5);
            with_threads(2, current_threads)
        });
        assert_eq!(inner, 2);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outer = current_threads();
        let caught = catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_grain_overrides_and_restores_on_panic() {
        let small = || with_threads(2, || par_map_indexed(2, 1, |i| i));
        let before = regions_opened();
        small();
        assert_eq!(
            regions_opened(),
            before,
            "two units split at the real grain"
        );
        with_grain(1, small);
        assert_eq!(
            regions_opened(),
            before + 1,
            "a one-unit grain did not split"
        );
        let caught = catch_unwind(|| with_grain(1, || panic!("boom")));
        assert!(caught.is_err());
        small();
        assert_eq!(regions_opened(), before + 1, "grain override leaked");
    }

    #[test]
    fn regions_count_only_multi_task_regions() {
        let before = regions_opened();
        with_threads(1, || par_map_indexed(8, GRAIN, |i| i));
        assert_eq!(regions_opened(), before, "a serial scope opened a region");
        with_threads(2, || par_map_indexed(8, GRAIN, |i| i));
        assert_eq!(regions_opened(), before + 1);
        with_threads(2, || par_join(|| 1, || 2));
        assert_eq!(regions_opened(), before + 2);
    }

    #[test]
    fn par_chunks_mut_covers_every_chunk_once() {
        // 103 elements in chunks of 10 -> 11 chunks, the last of length 3.
        let mut data = vec![0usize; 103];
        with_threads(4, || {
            par_chunks_mut(&mut data, 10, 1 << 20, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += i + 1;
                }
            });
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, pos / 10 + 1, "element {pos}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = with_threads(7, || par_map_indexed(23, 1 << 20, |i| i * 3));
        assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        assert!(with_threads(4, || par_map_indexed(0, 1, |i| i)).is_empty());
    }

    #[test]
    fn par_join_returns_both_results() {
        let (a, b) = with_threads(2, || par_join(|| 6 * 7, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_regions_run_serially() {
        let depths = with_threads(4, || par_map_indexed(4, 1 << 20, |_| current_threads()));
        // Every task (the caller's own share included) sees a serial
        // context, so nested kernels cannot re-enter the pool.
        assert_eq!(depths, [1, 1, 1, 1]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(8, 1 << 20, |i| {
                    if i == 5 {
                        panic!("injected task failure");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
        // The pool must remain usable after a task panic.
        let ok = with_threads(4, || par_map_indexed(8, 1 << 20, |i| i + 1));
        assert_eq!(ok, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn elementwise_helpers_match_serial() {
        let src: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        let mut par = src.clone();
        with_grain(1, || {
            with_threads(3, || par_map_inplace(&mut par, 4, |v| v * 2.0 + 1.0));
        });
        let serial: Vec<f32> = src.iter().map(|&v| v * 2.0 + 1.0).collect();
        assert_eq!(par, serial);

        let mut zip = src.clone();
        with_grain(1, || {
            with_threads(3, || par_zip_inplace(&mut zip, &serial, 4, |a, b| a + b));
        });
        let expect: Vec<f32> = src.iter().zip(&serial).map(|(&a, &b)| a + b).collect();
        assert_eq!(zip, expect);
    }
}
