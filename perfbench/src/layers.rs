//! Per-layer measurements of a traced run.
//!
//! [`probe_serve`] and [`probe_sampler`] run a small sample of the
//! workload's own requests through the `serve`, `nn`, `sparsity`,
//! `registry`, `sampler` and `delta` layers, outside the timed end-to-end
//! region. [`finish_trace`] adds the workload-independent layers —
//! `tensor` (every conv site of the `default` U-Net replayed through the
//! packed i8 kernels), `model`, the `wire` codec and the `accel` simulator
//! — then the mean self time per span name, and writes the span file.

use crate::trace::{mean_self_time_by_name, Tracer};
use crate::{build_net, denoiser, int8_native, stats, Args, Gen, Report, PER_LAYER, SPANS};
use sqdm_accel::{Accelerator, AcceleratorConfig, LayerQuant};
use sqdm_edm::wire::{self, json, ImagePayload, StatusReply};
use sqdm_edm::{
    sample_delta, sample_with_observer, DeltaSession, ModelRegistry, PackCache, RegistryRequest,
    RegistryScheduler, RunConfig, SamplerConfig, ScheduledRequest, Scheduler, ServeRequest,
    StepObserver, UNet, UNetConfig, DEFAULT_TRACE_TOL,
};
use sqdm_quant::PrecisionAssignment;
use sqdm_tensor::ops::int::{
    conv2d_i8_packed_delta_multi, conv2d_i8_packed_multi, ConvDeltaState, PackedQuantizedMatrix,
    QuantizedMatrix, XQuant, DELTA_DENSE_THRESHOLD,
};
use sqdm_tensor::ops::Conv2dGeometry;
use sqdm_tensor::{Rng, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed repetitions of each microbenchmark call.
const REPS: usize = 25;

/// One request through solo `sample` or solo `sample_delta`.
pub struct Solo {
    pub image: Tensor,
    /// Wall-clock milliseconds of the call.
    pub ms: f64,
    /// Time between consecutive observer calls; empty unless traced, and
    /// for `sample_delta`.
    pub step_ns: Vec<f64>,
    /// Delta-eligible conv calls that took the sparse and the dense path;
    /// 0 for `sample`.
    pub sparse: usize,
    pub dense: usize,
}

/// Runs `r` through solo `sample`, with a `sampler.step` span per step,
/// under a `sampler.sample` span when `traced`.
pub fn solo(
    net: &mut UNet,
    asg: &PrecisionAssignment,
    r: &ServeRequest,
    traced: bool,
    tr: &Tracer,
) -> Result<Solo, String> {
    let span = tr.start(traced, "sampler.sample", r.id, None);
    let parent = span.id();
    let mut marks = Vec::with_capacity(if traced { r.steps + 1 } else { 0 });
    let mut observe = |_i: usize, _sigma: f32, _x: &Tensor| {
        if traced {
            marks.push(tr.now());
        }
    };
    let t = Instant::now();
    let image = sample_with_observer(
        net,
        &denoiser(),
        1,
        SamplerConfig { steps: r.steps },
        Some(asg),
        &mut Rng::seed_from(r.seed),
        Some(&mut observe as &mut StepObserver),
    )
    .map_err(|e| format!("solo sample: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if traced {
        marks.push(tr.now());
    }
    tr.end(span);
    let mut step_ns = Vec::with_capacity(marks.len());
    for w in marks.windows(2) {
        tr.record(traced, "sampler.step", r.id, parent, w[0], w[1]);
        step_ns.push((w[1] - w[0]) as f64);
    }
    Ok(Solo {
        image,
        ms,
        step_ns,
        sparse: 0,
        dense: 0,
    })
}

/// Runs `r` through solo `sample_delta`, under a `sampler.sample_delta`
/// span when `traced`.
pub fn solo_delta(
    net: &mut UNet,
    asg: &PrecisionAssignment,
    r: &ServeRequest,
    traced: bool,
    tr: &Tracer,
) -> Result<Solo, String> {
    let span = tr.start(traced, "sampler.sample_delta", r.id, None);
    let mut session = DeltaSession::default();
    let t = Instant::now();
    let image = sample_delta(
        net,
        &denoiser(),
        1,
        SamplerConfig { steps: r.steps },
        Some(asg),
        &mut Rng::seed_from(r.seed),
        &mut session,
    )
    .map_err(|e| format!("delta sample: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(span);
    Ok(Solo {
        image,
        ms,
        step_ns: Vec::new(),
        sparse: session.delta_steps(),
        dense: session.dense_steps(),
    })
}

/// Records the `sampler` and `delta` metrics from solo trajectories.
pub fn set_sampler(rep: &mut Report, step_ns: &[f64], sparse: usize, dense: usize) {
    rep.set("sampler.step_ns", stats::median(step_ns));
    rep.set(
        "delta.sparse_share",
        sparse as f64 / (sparse + dense).max(1) as f64,
    );
}

/// Runs a sample of the workload's requests through solo `sample` and
/// `sample_delta` for the `sampler` and `delta` metrics.
pub fn probe_sampler(
    cfg: UNetConfig,
    reqs: &[ServeRequest],
    tr: &Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let asg = int8_native();
    let mut net = build_net(cfg);
    let (mut step_ns, mut sparse, mut dense) = (Vec::new(), 0, 0);
    for r in reqs {
        step_ns.extend(solo(&mut net, &asg, r, true, tr)?.step_ns);
        let d = solo_delta(&mut net, &asg, r, true, tr)?;
        sparse += d.sparse;
        dense += d.dense;
    }
    set_sampler(rep, &step_ns, sparse, dense);
    Ok(())
}

/// Probes the `serve`, `nn`, `sparsity` and `registry` layers with a
/// sample of the workload's requests, all arriving at step 0.
pub fn probe_serve(
    cfg: UNetConfig,
    reqs: &[ServeRequest],
    tr: &Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let asg = int8_native();
    let den = denoiser();
    let mut net = build_net(cfg);
    let at0: Vec<ScheduledRequest> = reqs.iter().map(|&r| ScheduledRequest::new(r, 0)).collect();

    // serve: one drain with a fresh pack cache, exactly `Scheduler::run`.
    let packs = PackCache::new();
    let span = tr.start(true, "serve.run", reqs[0].id, None);
    let t = Instant::now();
    let (_, st) = Scheduler::new(den, 4)
        .with_traces(false)
        .run_with_packs(&mut net, &at0, Some(&asg), &packs)
        .map_err(|e| format!("serve probe: {e}"))?;
    let wall = t.elapsed().as_nanos() as f64;
    tr.end(span);
    let rounds: Vec<f64> = st.step_latency_ns.iter().map(|&n| n as f64).collect();
    rep.set("serve.round_ns_p50", stats::median(&rounds));
    rep.set("serve.batch_occupancy", st.mean_batch_occupancy());
    rep.set("serve.self_ns", wall - rounds.iter().sum::<f64>());
    rep.set("nn.pack_builds", packs.builds() as f64 / reqs.len() as f64);

    // sparsity: channels each stream's change mask marks unchanged, over
    // every step (step 0 is always fully changed).
    let (outs, _) = Scheduler::new(den, 4)
        .with_traces(true)
        .run(&mut net, &at0, Some(&asg))
        .map_err(|e| format!("trace probe: {e}"))?;
    let (mut unchanged, mut total) = (0usize, 0usize);
    for out in &outs {
        for (block, stage) in out.traced_keys() {
            for step in 0..out.steps {
                if let Some(mask) = out.change_mask(block, stage, step, DEFAULT_TRACE_TOL) {
                    total += mask.as_slice().len();
                    unchanged += mask.as_slice().len() - mask.changed_count();
                }
            }
        }
    }
    rep.set(
        "sparsity.unchanged_share",
        unchanged as f64 / total.max(1) as f64,
    );

    // registry: pack builds in a second pass over the same requests, after
    // the first pass warmed the model.
    let mut registry = ModelRegistry::new();
    let id = registry.register("m0", net, Some(asg), den);
    let mix: Vec<RegistryRequest> = at0.iter().map(|&r| RegistryRequest::new(id, r)).collect();
    let sched = RegistryScheduler::new(4).with_traces(false);
    sched
        .run(&mut registry, &mix)
        .map_err(|e| format!("registry probe: {e}"))?;
    let warmed = registry.pack_builds();
    sched
        .run(&mut registry, &mix)
        .map_err(|e| format!("registry probe: {e}"))?;
    rep.set(
        "registry.pack_builds",
        (registry.pack_builds() - warmed) as f64,
    );
    Ok(())
}

fn random_codes(gen: &mut Gen, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| (gen.range(0, 254) as i32 - 127) as i8)
        .collect()
}

fn time_ns(tr: &Tracer, name: &'static str, request: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let s = tr.now();
        f();
        let e = tr.now();
        tr.record(true, name, request, None, s, e);
        ns.push((e - s) as f64);
    }
    stats::median(&ns)
}

/// Replays every conv site of the `default` U-Net; returns each site's
/// median ns at batch 1.
fn tensor_replay(gen: &mut Gen, tr: &Tracer, rep: &mut Report) -> Vec<f64> {
    let sites = sqdm_core::conv_sites(&UNetConfig::default());
    let geom = Conv2dGeometry {
        stride: 1,
        padding: 1,
    };
    let xq = XQuant::symmetric(0.02);
    let (mut b1, mut b4, mut u50, mut u90) = (Vec::new(), 0.0, 0.0, 0.0);
    let (mut macs, mut bytes) = (0.0, 0.0);
    for (i, site) in sites.iter().enumerate() {
        let (k, c, kk, s) = (site.k, site.c, site.kernel, site.spatial);
        let cols = c * kk * kk;
        let w = QuantizedMatrix::per_channel(random_codes(gen, k * cols), k, cols, vec![0.01; k])
            .expect("weight shape is consistent");
        let pw = PackedQuantizedMatrix::pack(w);
        let bias = vec![0.0f32; k];
        let conv = |x: &[i8], n: usize| {
            conv2d_i8_packed_multi(&pw, x, n, c, s, s, kk, kk, Some(&bias), geom, &vec![xq; n])
                .expect("conv site shapes are consistent")
        };
        let x1 = random_codes(gen, c * s * s);
        let x4 = random_codes(gen, 4 * c * s * s);
        b1.push(time_ns(tr, "tensor.conv", i as u64, || {
            std::hint::black_box(conv(std::hint::black_box(&x1), 1));
        }));
        b4 += time_ns(tr, "tensor.conv", i as u64, || {
            std::hint::black_box(conv(std::hint::black_box(&x4), 4));
        });
        for (unchanged, slot) in [(0.5, &mut u50), (0.9, &mut u90)] {
            // The second input differs from the first in exactly the
            // changed channels; alternating them makes every call a delta
            // step over that share of the channels.
            let changed: Vec<bool> = (0..c)
                .map(|ch| (ch as f64) >= unchanged * c as f64)
                .collect();
            let mut x2 = x1.clone();
            for (ch, _) in changed.iter().enumerate().filter(|(_, &m)| m) {
                for v in &mut x2[ch * s * s..(ch + 1) * s * s] {
                    *v = if *v == 127 { 126 } else { *v + 1 };
                }
            }
            let mut state = ConvDeltaState::new();
            let all = vec![true; c];
            let delta = |x: &[i8], mask: &[bool], state: &mut ConvDeltaState| {
                conv2d_i8_packed_delta_multi(
                    &pw,
                    x,
                    1,
                    c,
                    s,
                    s,
                    kk,
                    kk,
                    Some(&bias),
                    geom,
                    &[xq],
                    mask,
                    state,
                    DELTA_DENSE_THRESHOLD,
                )
                .expect("conv site shapes are consistent")
            };
            delta(&x1, &all, &mut state);
            let mut flip = false;
            *slot += time_ns(tr, "tensor.conv", i as u64, || {
                flip = !flip;
                let x = if flip { &x2 } else { &x1 };
                std::hint::black_box(delta(std::hint::black_box(x), &changed, &mut state));
            });
        }
        macs += (k * cols * s * s) as f64;
        bytes += (k * cols + c * s * s + 4 * k * s * s) as f64;
    }
    let total_b1: f64 = b1.iter().sum();
    rep.set("tensor.conv_ns_b1", total_b1);
    rep.set("tensor.conv_ns_b4", b4);
    rep.set("tensor.conv_delta_ns_u50", u50);
    rep.set("tensor.conv_delta_ns_u90", u90);
    rep.set("tensor.conv_gmac_s", macs / total_b1);
    rep.set("tensor.conv_bytes", bytes);
    rep.note(format!(
        "tensor: {} conv sites, {macs} MACs and {bytes} bytes per b1 pass (computed from shapes)",
        sites.len()
    ));
    b1
}

fn model_eval(gen: &mut Gen, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let asg = int8_native();
    let den = denoiser();
    let cfg = UNetConfig::default();
    let mut net = build_net(cfg);
    let packs = PackCache::new();
    for b in [1usize, 4] {
        let s = cfg.image_size;
        let x = Tensor::randn(
            [b, cfg.in_channels, s, s],
            &mut Rng::seed_from(gen.next_u64()),
        );
        let sigmas = vec![1.0f32; b];
        let mut failed = None;
        let ns = time_ns(tr, "model.denoise", b as u64, || {
            let mut rc = RunConfig {
                assignment: Some(&asg),
                batched: b > 1,
                packs: Some(&packs),
                ..RunConfig::infer()
            };
            if let Err(e) = den.denoise(&mut net, &x, &sigmas, &mut rc) {
                failed = Some(e.to_string());
            }
        });
        if let Some(e) = failed {
            return Err(format!("model eval: {e}"));
        }
        rep.set(&format!("model.eval_ns_b{b}"), ns);
    }
    Ok(())
}

fn wire_codec(gen: &mut Gen, rep: &mut Report) -> Result<(), String> {
    for (name, dims) in [("micro", vec![1, 1, 8, 8]), ("default", vec![1, 3, 16, 16])] {
        let n: usize = dims.iter().product();
        let reply = StatusReply {
            id: gen.next_u64() >> 12,
            state: "done".into(),
            model: 0,
            image: Some(ImagePayload {
                dims,
                bits: (0..n)
                    .map(|_| ((gen.unit() * 2.0 - 1.0) as f32).to_bits())
                    .collect(),
            }),
            error: None,
            proto_version: wire::PROTO_VERSION,
        };
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        let mut text = String::new();
        for _ in 0..400 {
            let t = Instant::now();
            text = json::to_string(std::hint::black_box(&reply)).map_err(|e| e.to_string())?;
            enc.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            let back: StatusReply =
                json::from_str(std::hint::black_box(&text)).map_err(|e| e.to_string())?;
            dec.push(t.elapsed().as_nanos() as f64 / 1e3);
            if back != reply {
                return Err("status reply changed through the codec".into());
            }
        }
        rep.set(&format!("wire.encode_us_{name}"), stats::median(&enc));
        rep.set(&format!("wire.decode_us_{name}"), stats::median(&dec));
        rep.note(format!("wire: {name} status reply is {} bytes", text.len()));
    }
    Ok(())
}

fn accel(gen: &mut Gen, site_ns: &[f64], tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    // Per-channel activation sparsity of a real `default` trajectory,
    // taken at its middle step.
    let asg = int8_native();
    let mut net = build_net(UNetConfig::default());
    let req = ScheduledRequest::new(ServeRequest::new(0, 8).seed(gen.next_u64() >> 1), 0);
    let (outs, _) = Scheduler::new(denoiser(), 1)
        .run(&mut net, &[req], Some(&asg))
        .map_err(|e| format!("accel traces: {e}"))?;
    let traces: BTreeMap<sqdm_core::LayerKey, _> = outs[0]
        .traced_keys()
        .into_iter()
        .filter_map(|k| outs[0].trace(k.0, k.1).map(|t| (k, t.clone())))
        .collect();
    let sites = sqdm_core::conv_sites(&UNetConfig::default());
    let layers: Vec<_> = sqdm_core::workloads_at_step(&sites, &traces, 4)
        .map_err(|e| format!("accel workloads: {e}"))?
        .into_iter()
        .map(|w| (w, LayerQuant::int8()))
        .collect();
    let paper = Accelerator::new(AcceleratorConfig::paper());
    let dense = Accelerator::new(AcceleratorConfig::dense_baseline());
    let mut stats_paper = None;
    let ns = time_ns(tr, "accel.run_model", 0, || {
        stats_paper = Some(paper.run_model(std::hint::black_box(&layers), None));
    });
    let sp = stats_paper.expect("timed at least once");
    let sd = dense.run_model(&layers, None);
    rep.set("accel.sim_cycles", sp.cycles as f64);
    rep.set("accel.sim_cycles_dense", sd.cycles as f64);
    rep.set("accel.sim_speedup", sp.speedup_vs(&sd));
    rep.set("accel.sim_energy_saving", sp.energy_saving_vs(&sd));
    rep.set("accel.host_us", ns / 1e3);
    let per_site: Vec<f64> = layers
        .iter()
        .map(|l| paper.run_model(std::slice::from_ref(l), None).cycles as f64)
        .collect();
    rep.set("accel.rank_corr", stats::spearman(&per_site, site_ns));
    rep.note(
        "accel: the cycle model is unvalidated (no reference hardware results); no error figure",
    );
    Ok(())
}

/// Adds the workload-independent layers, mean self time per span, and zeros
/// for layers this workload does not run; writes the span file.
pub fn finish_trace(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let mut gen = Gen::new(args.seed, "layers");
    let site_ns = tensor_replay(&mut gen, tr, rep);
    model_eval(&mut gen, tr, rep)?;
    rep.set(
        "model.kernel_share_b1",
        rep.get("tensor.conv_ns_b1").unwrap_or(f64::NAN)
            / rep.get("model.eval_ns_b1").unwrap_or(f64::NAN),
    );
    wire_codec(&mut gen, rep)?;
    accel(&mut gen, &site_ns, tr, rep)?;

    let spans = tr.spans();
    let own = mean_self_time_by_name(&spans);
    for name in SPANS {
        rep.set(
            &format!("self_ms.{name}"),
            own.get(name).copied().unwrap_or(0.0) / 1e6,
        );
    }
    let idle: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| rep.get(n).is_none())
        .collect();
    for name in &idle {
        rep.set(name, 0.0);
    }
    if !idle.is_empty() {
        rep.note(format!(
            "not exercised by this workload, reported as 0: {}",
            idle.join(", ")
        ));
    }
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    rep.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}
