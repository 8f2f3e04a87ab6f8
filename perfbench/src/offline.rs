//! `offline_long`: 32-step generation on the `default` U-Net, three ways
//! over the same seeds — batched drains through `Scheduler::run` (every
//! request arrives at step 0, `max_batch` 4), solo `sample`, and solo
//! `sample_delta`. Kernel-bound, with the most steps for temporal sparsity
//! to pay; the daemon, the wire and admission do no work here.

use crate::calib::Calibration;
use crate::trace::Tracer;
use crate::{bits, build_net, denoiser, int8_native, layers, stats, Args, Gen, Report};
use sqdm_edm::{ScheduledRequest, Scheduler, ServeRequest, UNetConfig};
use sqdm_tensor::Tensor;
use std::time::Instant;

/// Denoising steps per image.
const STEPS: usize = 32;
/// Requests per batched drain, equal to the scheduler's `max_batch`.
const BATCH: usize = 4;
/// Batched drains of each cycle's requests: the drain is the costliest
/// and least sampled of the three paths, so it runs twice per cycle and
/// both outputs are checked.
const DRAINS: usize = 2;
/// Set-up repetitions; `setup_s` is the median of their calibrated CPU
/// time.
const SETUPS: usize = 25;
/// Cycles run whatever `--seconds` says: 12 images per path is the least
/// sample with a tail (10 samples beyond it) to report.
const MIN_CYCLES: u64 = 3;
/// `sample_delta` is designed to differ from solo `sample`: it keeps a
/// sticky activation scale so consecutive steps share one quantization
/// grid. The library pins the gap as a mean squared error below this share
/// of the solo image's power (at least 1), and the benchmark gates each
/// `sample_delta` image on the same criterion. Batched images must equal
/// solo `sample` bit for bit.
const DELTA_GAP_LIMIT: f64 = 0.05;

/// Mean squared error of `delta` against `solo`, over `max(power, 1)`.
fn delta_gap(delta: &Tensor, solo: &Tensor) -> f64 {
    let power = solo.as_slice().iter().map(|v| v * v).sum::<f32>() / solo.len() as f32;
    match delta.mse(solo) {
        Ok(gap) if gap.is_finite() => f64::from(gap / power.max(1.0)),
        _ => f64::INFINITY,
    }
}

pub fn run(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let asg = int8_native();
    let sched = Scheduler::new(denoiser(), BATCH).with_traces(false);
    let mut gen = Gen::new(args.seed, "offline_long");
    let cal = Calibration::start();
    let start = cal.mark();
    let (mut setups, mut batch, mut solo_cost, mut delta_cost) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    // Set-up: build the model and serve one short warm-up drain, which
    // starts the worker pool and fills the scratch arena.
    let mut net = None;
    for i in 0..SETUPS {
        let m = cal.mark();
        let mut n = build_net(UNetConfig::default());
        let warm: Vec<ScheduledRequest> = (0..BATCH as u64)
            .map(|id| ScheduledRequest::new(ServeRequest::new(id, 2).seed(i as u64 * 100 + id), 0))
            .collect();
        sched
            .run(&mut n, &warm, Some(&asg))
            .map_err(|e| format!("warm-up drain: {e}"))?;
        setups.push(Calibration::ref_ms(m, cal.mark()) / 1e3);
        net = Some(n);
    }
    let mut net = net.expect("at least one set-up");

    // In a traced run the layer probes take the last part of the budget.
    let budget = if args.trace { 0.8 } else { 1.0 } * args.seconds;
    let t0 = Instant::now();
    let (mut rates, mut solo_ms, mut delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut solo_traced = Vec::new();
    let mut first_requests = Vec::new();
    let (mut delta_differs, mut worst_gap) = (0usize, 0.0f64);
    let (mut step_ns, mut sparse, mut dense) = (Vec::new(), 0, 0);
    let mut cycle = 0u64;
    // A cycle takes about as long as (DRAINS + 2) · BATCH solo images;
    // start one only when it fits in what is left.
    let mut cycle_s = 0.0;
    while cycle < MIN_CYCLES || t0.elapsed().as_secs_f64() + cycle_s <= budget {
        let c0 = Instant::now();
        // Traced runs alternate traced and untraced cycles, so the tracing
        // overhead is measured under the same conditions.
        let traced = tr.on() && cycle.is_multiple_of(2);
        let reqs: Vec<ServeRequest> = (0..BATCH as u64)
            .map(|i| ServeRequest::new(cycle * BATCH as u64 + i, STEPS).seed(gen.next_u64() >> 1))
            .collect();
        if cycle == 0 {
            first_requests = reqs.clone();
        }
        let scheduled: Vec<ScheduledRequest> =
            reqs.iter().map(|&r| ScheduledRequest::new(r, 0)).collect();

        let mut drained = Vec::with_capacity(DRAINS);
        for _ in 0..DRAINS {
            let span = tr.start(traced, "serve.run", reqs[0].id, None);
            let (t, m) = (Instant::now(), cal.mark());
            let (outs, _) = sched
                .run(&mut net, &scheduled, Some(&asg))
                .map_err(|e| format!("batched drain: {e}"))?;
            batch.push(Calibration::ref_ms(m, cal.mark()) / BATCH as f64);
            rates.push(BATCH as f64 / t.elapsed().as_secs_f64());
            tr.end(span);
            drained.push(outs);
        }

        for (i, r) in reqs.iter().enumerate() {
            let m = cal.mark();
            let solo = layers::solo(&mut net, &asg, r, traced, tr)?;
            let m2 = cal.mark();
            let delta = layers::solo_delta(&mut net, &asg, r, traced, tr)?;
            solo_cost.push(Calibration::ref_ms(m, m2));
            delta_cost.push(Calibration::ref_ms(m2, cal.mark()));
            solo_ms.push(solo.ms);
            delta_ms.push(delta.ms);
            solo_traced.push(traced);
            step_ns.extend(solo.step_ns);
            sparse += delta.sparse;
            dense += delta.dense;

            rep.attempted += DRAINS as u64 + 2;
            let want = bits(&solo.image);
            for outs in &drained {
                if bits(&outs[i].image) != want {
                    rep.mismatched += 1;
                    rep.failed += 1;
                }
            }
            let gap = delta_gap(&delta.image, &solo.image);
            worst_gap = worst_gap.max(gap);
            if bits(&delta.image) != bits(&solo.image) {
                delta_differs += 1;
            }
            if gap >= DELTA_GAP_LIMIT {
                rep.mismatched += 1;
                rep.failed += 1;
            }
        }
        cycle += 1;
        cycle_s = c0.elapsed().as_secs_f64();
    }

    rep.set("setup_s", stats::median(&setups));
    rep.set("cpu_ms_per_image", stats::median(&batch));
    rep.set("primary_cpu_ms", stats::median(&solo_cost));
    rep.set("secondary_cpu_ms", stats::median(&delta_cost));
    rep.latency("solo sample wall clock per image (solo_image_ms)", &solo_ms);
    rep.latency(
        "sample_delta wall clock per image (delta_image_ms)",
        &delta_ms,
    );
    rep.latency("batched drain per image, calibrated CPU", &batch);
    rep.latency("solo sample per image, calibrated CPU", &solo_cost);
    rep.latency("sample_delta per image, calibrated CPU", &delta_cost);
    rep.calibration(start, cal.mark());
    // The layer probes below time short calls; the calibration thread
    // would only add noise to them.
    drop(cal);
    rep.note(format!(
        "sample_delta: {delta_differs} of {} images differ bitwise from solo sample \
         (by design); largest MSE gap {worst_gap:.6} of max(power, 1) (gate {DELTA_GAP_LIMIT})",
        delta_ms.len(),
    ));
    rep.note(format!(
        "batched drain: wall-clock images_per_s median {:.4} over {} drains of {BATCH} x {STEPS} steps",
        stats::median(&rates),
        rates.len()
    ));
    if tr.on() {
        // Calibrated CPU of traced over untraced solo samples, minus one.
        let (traced, untraced): (Vec<_>, Vec<_>) =
            solo_cost.into_iter().zip(solo_traced).partition(|s| s.1);
        let median =
            |xs: Vec<(f64, bool)>| stats::median(&xs.iter().map(|x| x.0).collect::<Vec<_>>());
        rep.set("trace.overhead", median(traced) / median(untraced) - 1.0);
        layers::set_sampler(rep, &step_ns, sparse, dense);
        layers::probe_serve(UNetConfig::default(), &first_requests[..2], tr, rep)?;
    }
    Ok(())
}
