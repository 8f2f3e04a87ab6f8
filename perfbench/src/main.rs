//! End-to-end and per-layer benchmark of the SQ-DM serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_long|http_short --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark generates every input from `--seed` (arrival times,
//! noise seeds, step budgets) and drives the library only through its
//! public API. `--trace 0` prints the end-to-end metrics, whose times are
//! calibrated CPU time (see [`calib`]); `--trace 1`
//! records spans around each call into a layer, writes them to
//! `.bench_out/`, and prints the per-layer metrics. The last line of
//! standard output is one JSON object; every output is checked against
//! solo `sample`, and a mismatch makes the exit code 1.
//! See `perfbench/README.md` for the workloads, metrics and predictions.

mod calib;
mod http;
mod layers;
mod offline;
mod stats;
mod trace;

use sqdm_edm::{Denoiser, EdmSchedule, SamplerConfig, UNet, UNetConfig};
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::Rng;
use std::time::Instant;

/// Weight seed of every model the benchmark builds or registers. Model
/// weights are part of the system under test, not of the workload.
pub const MODEL_SEED: u64 = 7;

/// Workload seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning, so a later claim can be re-checked on inputs
/// nobody looked at while writing it.
pub const HELD_OUT_SEED: u64 = 9001;

/// Generator threads and open connections of the HTTP load generator.
pub const GEN_THREADS: usize = 2;

/// The end-to-end metrics, in report order, with units. Every workload
/// reports each of them (see README for what each means per workload).
/// The timed ones, `setup_s` too, are calibrated CPU time (see
/// [`calib`]): on a shared host the wall clock and the processor's speed
/// both move with the neighbours' load, and wall-clock figures moved by
/// up to half between runs of the same code. Wall-clock throughput and
/// latency are printed every run, beside the metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("cpu_ms_per_image", "ref-cpu-ms"),
    ("primary_cpu_ms", "ref-cpu-ms"),
    ("secondary_cpu_ms", "ref-cpu-ms"),
];

/// Span names recorded by the benchmark; each gets a `self_ms.` metric,
/// the mean self time of one span of that name.
pub const SPANS: &[&str] = &[
    "loadgen.send",
    "wire.submit",
    "wire.status",
    "daemon.stats",
    "serve.run",
    "sampler.sample",
    "sampler.sample_delta",
    "sampler.step",
    "model.denoise",
    "tensor.conv",
    "accel.run_model",
];

/// The per-layer metrics, in report order, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.conv_ns_b1", "ns"),
    ("tensor.conv_ns_b4", "ns"),
    ("tensor.conv_delta_ns_u50", "ns"),
    ("tensor.conv_delta_ns_u90", "ns"),
    ("tensor.conv_gmac_s", "GMAC/s-computed"),
    ("tensor.conv_bytes", "B-computed"),
    ("model.eval_ns_b1", "ns"),
    ("model.eval_ns_b4", "ns"),
    ("model.kernel_share_b1", "share"),
    ("nn.pack_builds", "count/image"),
    ("sampler.step_ns", "ns"),
    ("delta.sparse_share", "share"),
    ("sparsity.unchanged_share", "share"),
    ("serve.round_ns_p50", "ns"),
    ("serve.batch_occupancy", "streams"),
    ("serve.self_ns", "ns"),
    ("registry.pack_builds", "count"),
    ("daemon.batch_occupancy", "streams"),
    ("daemon.rounds_per_request", "rounds"),
    ("daemon.stats_ms_p50", "ms"),
    ("daemon.stats_ms_p99", "ms"),
    ("wire.submit_ms_p50", "ms"),
    ("wire.submit_ms_p99", "ms"),
    ("wire.status_ms_p50", "ms"),
    ("wire.status_ms_p99", "ms"),
    ("wire.polls_per_request", "count"),
    ("wire.encode_us_micro", "us"),
    ("wire.encode_us_default", "us"),
    ("wire.decode_us_micro", "us"),
    ("wire.decode_us_default", "us"),
    ("loadgen.late_ms_p99_low", "ms"),
    ("loadgen.late_ms_p99_high", "ms"),
    ("loadgen.late_ms_p99_overload", "ms"),
    ("loadgen.backlog_low", "requests"),
    ("loadgen.backlog_high", "requests"),
    ("loadgen.backlog_overload", "requests"),
    ("accel.sim_cycles", "cycles"),
    ("accel.sim_cycles_dense", "cycles"),
    ("accel.sim_speedup", "x"),
    ("accel.sim_energy_saving", "share"),
    ("accel.host_us", "us"),
    ("accel.rank_corr", "rho"),
    ("trace.overhead", "share"),
    ("self_ms.loadgen.send", "ms/span"),
    ("self_ms.wire.submit", "ms/span"),
    ("self_ms.wire.status", "ms/span"),
    ("self_ms.daemon.stats", "ms/span"),
    ("self_ms.serve.run", "ms/span"),
    ("self_ms.sampler.sample", "ms/span"),
    ("self_ms.sampler.sample_delta", "ms/span"),
    ("self_ms.sampler.step", "ms/span"),
    ("self_ms.model.denoise", "ms/span"),
    ("self_ms.tensor.conv", "ms/span"),
    ("self_ms.accel.run_model", "ms/span"),
];

/// The workloads `BENCHMARK.json` declares.
pub const WORKLOADS: &[&str] = &["offline_long", "http_short"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
    /// Operations attempted (images generated or requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bits.
    pub failed: u64,
    /// Output mismatches; any makes the run incorrect.
    pub mismatched: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Notes how fast the processor ran between two marks, relative to
    /// the reference machine.
    pub fn calibration(&mut self, from: calib::Mark, to: calib::Mark) {
        let pass_ms = calib::Calibration::pass_between(from, to) * 1e3;
        self.note(format!(
            "calibration: mean pass {pass_ms:.4} ms CPU against {} ms on the reference machine",
            calib::REF_PASS_MS
        ));
    }

    /// Notes a sample of times in ms: median, quartiles, p95 and p99 (or
    /// the highest percentile the sample supports) and its size.
    pub fn latency(&mut self, label: &str, ms: &[f64]) {
        let p50 = stats::median(ms);
        let (Some((q1, q3)), Some((p95, v95)), Some((p99, v99))) = (
            stats::quartiles(ms),
            stats::tail(ms, 95.0),
            stats::tail(ms, 99.0),
        ) else {
            self.note(format!(
                "{label}: p50 {p50:.3} ms; {} samples support no tail",
                ms.len()
            ));
            return;
        };
        self.note(format!(
            "{label}: p50 {p50:.3} ms (quartiles {q1:.3}..{q3:.3}), p{p95:.2} {v95:.3} ms, p{p99:.2} {v99:.3} ms over {} samples",
            ms.len()
        ));
    }
}

/// CPU time used so far by this process, all its threads together, in
/// seconds. It leaves out time spent waiting for a processor, whether in
/// the run queue or stolen by the hypervisor.
pub fn cpu_s() -> f64 {
    clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time used so far by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

fn clock_s(clock: std::os::raw::c_int) -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock} is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// INT8 weights and activations on the native integer engine, set on the
/// request path rather than through `SQDM_EXEC`.
pub fn int8_native() -> PrecisionAssignment {
    PrecisionAssignment::uniform(
        sqdm_edm::block_ids::COUNT,
        BlockPrecision::uniform(QuantFormat::int8()),
        "INT8",
    )
    .with_mode(ExecMode::NativeInt)
}

pub fn denoiser() -> Denoiser {
    Denoiser::new(EdmSchedule::default())
}

/// The model a preset name stands for, built as the daemon builds it.
pub fn build_net(cfg: UNetConfig) -> UNet {
    UNet::new(cfg, &mut Rng::seed_from(MODEL_SEED)).expect("preset configs are valid")
}

/// Solo `sample` of one request: the reference every served image must
/// equal bit for bit.
pub fn solo_bits(
    net: &mut UNet,
    asg: &PrecisionAssignment,
    seed: u64,
    steps: usize,
) -> Result<Vec<u32>, String> {
    let img = sqdm_edm::sample(
        net,
        &denoiser(),
        1,
        SamplerConfig { steps },
        Some(asg),
        &mut Rng::seed_from(seed),
    )
    .map_err(|e| format!("solo sample failed: {e}"))?;
    Ok(bits(&img))
}

pub fn bits(t: &sqdm_tensor::Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// SplitMix64: the workload generator's own PRNG, independent of the
/// library's, so inputs stay fixed for a seed whatever the library does.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut g = Gen(seed);
        for b in stream.bytes() {
            g.0 ^= u64::from(b);
            g.next_u64();
        }
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    let mut c = std::process::Command::new(cmd);
    c.args(args);
    // Never let git find a repository above the checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Pin the library's worker pool to the machine before any kernel runs.
    std::env::set_var("SQDM_THREADS", nproc.to_string());

    let meta = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"threads\":{},\"avx2\":{},\"git_rev\":{},\"rustc\":{},\"sqdm_exec_env\":{},\"gen_threads\":{GEN_THREADS},\"connections\":{GEN_THREADS},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sqdm_tensor::parallel::current_threads(),
        avx2(),
        json_str(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&std::env::var("SQDM_EXEC").unwrap_or_default()),
    );
    println!("meta {meta}");

    let tracer = trace::Tracer::new(args.trace);
    let mut rep = Report::default();
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "offline_long" => offline::run(&args, &tracer, &mut rep),
        _ => http::run(&args, &tracer, &mut rep),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    let ok = rep.attempted.saturating_sub(rep.failed) as f64 / rep.attempted.max(1) as f64;
    rep.set("ok_share", ok);

    if args.trace {
        if let Err(e) = layers::finish_trace(&args, &tracer, &mut rep) {
            eprintln!("perfbench: per-layer probes failed: {e}");
            std::process::exit(1);
        }
    }
    for line in &rep.notes {
        println!("{}: {line}", args.workload);
    }
    println!(
        "{}: attempted {} failed {} (mismatched {}), fail_share {:.6}, ran {:.1} s",
        args.workload,
        rep.attempted,
        rep.failed,
        rep.mismatched,
        1.0 - ok,
        started.elapsed().as_secs_f64()
    );

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    let mut complete = true;
    for (name, unit) in wanted {
        let value = rep.get(name).filter(|v| v.is_finite());
        let Some(value) = value else {
            eprintln!("perfbench: metric {name} was not measured");
            complete = false;
            continue;
        };
        println!("{}: {name} = {value} {unit}", args.workload);
        fields.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = complete && rep.mismatched == 0 && rep.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root declares exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        use serde::de::Value;
        let text = include_str!("../../BENCHMARK.json");
        let top = sqdm_edm::wire::json::parse(text).unwrap();
        let field = |v: &Value, key: &str| -> Value {
            let entries = v.as_map().expect("object");
            entries.iter().find(|(k, _)| k == key).expect(key).1.clone()
        };
        let names = |key: &str| -> Vec<(String, String)> {
            let Value::Seq(items) = field(&top, key) else {
                panic!("{key} is not an array")
            };
            let text = |v: Value| match v {
                Value::Str(s) => s,
                _ => String::new(),
            };
            items
                .iter()
                .map(|item| {
                    let unit = item
                        .as_map()
                        .and_then(|m| m.iter().find(|(k, _)| k == "unit"))
                        .map_or(String::new(), |u| text(u.1.clone()));
                    (text(field(item, "name")), unit)
                })
                .collect()
        };
        let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(END_TO_END));
        assert_eq!(names("per_layer"), expect(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        for span in SPANS {
            assert!(PER_LAYER
                .iter()
                .any(|(n, _)| *n == format!("self_ms.{span}")));
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(5, "x");
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(5, "x");
                move |_| g.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(5, "y");
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = Gen::new(1, "r");
        assert!((0..1000)
            .map(|_| g.range(2, 4))
            .all(|v| (2..=4).contains(&v)));
    }
}
