//! `http_short`: an in-process `sqdmd` serving the `micro` preset, driven
//! by an open-loop load generator of two threads, each holding at most one
//! connection — a sender that submits every request at its due time, and a
//! poller that polls each outstanding request's status at a fixed interval
//! and reads `/v1/stats` every 250 ms, as a monitoring client would. A
//! request is timed from when it was due until its image bits are decoded
//! and checked against solo `sample`.

use crate::calib::{Calibration, Mark};
use crate::stats::{self, Phase};
use crate::trace::{Open, Tracer};
use crate::{build_net, int8_native, layers, solo_bits, Args, Gen, Report, MODEL_SEED};
use sqdm_edm::daemon::{self, DaemonConfig, DaemonHandle};
use sqdm_edm::wire::{self, client, json};
use sqdm_edm::{ServeRequest, UNetConfig};
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Status poll interval per outstanding request.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// `/v1/stats` read interval.
const STATS_INTERVAL: Duration = Duration::from_millis(250);
/// Client-side I/O deadline of one HTTP request.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long after the last due time outstanding requests may still finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up repetitions; `setup_s` is the median of their calibrated CPU
/// time.
const SETUPS: usize = 31;
/// Status poll interval of the set-up's warm-up request: short, so the
/// poll's sleep does not round `setup_s` up to whole poll intervals.
const SETUP_POLL: Duration = Duration::from_micros(100);
/// Distinct noise seeds: references are computed once per (seed, steps),
/// outside the timed region.
const SEEDS: u64 = 48;
/// Load phases, in order; the latency figures come from `high` and `low`,
/// the throughput from `overload`.
const PHASES: [&str; 3] = ["low", "high", "overload"];
const LOW: usize = 0;
const HIGH: usize = 1;
const OVERLOAD: usize = 2;

/// One generated request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    id: u64,
    seed: u64,
    steps: usize,
    /// Seconds after the load origin.
    due: f64,
    phase: usize,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    sent: Option<f64>,
    done: Option<f64>,
    refused: bool,
    failed: bool,
    mismatched: bool,
    polls: u32,
}

/// Client-side measurements of one load run.
#[derive(Debug, Default)]
struct Load {
    outcomes: Vec<Outcome>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    /// Clocks when each phase's first request was due, then when the
    /// last request finished.
    marks: Vec<Mark>,
}

/// `count` arrivals of a Poisson process conditioned on its count: sorted
/// uniform times in `[start, start + len)`.
fn poisson(gen: &mut Gen, start: f64, len: f64, count: usize) -> Vec<f64> {
    let mut t: Vec<f64> = (0..count).map(|_| start + gen.unit() * len).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// The generated requests of one run, by due time, with ids from 1.
fn plan(args: &Args) -> Vec<Planned> {
    // (rate per second, seconds of a 40-second run, quiet gap after it).
    // The latency phases run at about 20 % and 35 % of the capacity the
    // overload phase measures; nearer capacity, the daemon's latency
    // swings between runs by more than any usable bound. The gaps let one
    // phase's backlog drain before the next starts.
    const SHAPE: [(f64, f64, f64); 3] = [(20.0, 14.0, 0.5), (35.0, 21.0, 0.5), (180.0, 2.0, 0.0)];
    let scale = if args.trace { 0.8 } else { 1.0 } * args.seconds / 40.0;
    let mut gen = Gen::new(args.seed, "http_short");
    let mut plan = Vec::new();
    let mut start = 0.05;
    for (phase, (rate, secs, gap)) in SHAPE.iter().enumerate() {
        let span = secs * scale;
        // Every phase has a request, so every phase has a CPU window.
        let count = ((rate * span).round() as usize).max(1);
        for due in poisson(&mut gen, start, span, count) {
            plan.push(Planned {
                id: 0,
                seed: gen.range(1, SEEDS),
                steps: gen.range(2, 4) as usize,
                due,
                phase,
            });
        }
        start += span + gap * scale;
    }
    plan.sort_by(|a, b| a.due.total_cmp(&b.due));
    for (i, p) in plan.iter_mut().enumerate() {
        p.id = i as u64 + 1;
    }
    plan
}

fn post<T: serde::Serialize>(
    addr: SocketAddr,
    path: &str,
    body: &T,
) -> Result<client::Response, String> {
    let text = json::to_string(body).map_err(|e| e.to_string())?;
    client::request(addr, "POST", path, Some(&text), IO_TIMEOUT)
        .map_err(|e| format!("POST {path}: {e}"))
}

fn get(addr: SocketAddr, path: &str) -> Result<client::Response, String> {
    client::request(addr, "GET", path, None, IO_TIMEOUT).map_err(|e| format!("GET {path}: {e}"))
}

/// Starts a daemon, registers `micro` over HTTP, and serves one warm-up
/// request, so the pack cache is filled before the load starts.
fn start_daemon() -> Result<DaemonHandle, String> {
    let handle = daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 4,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon spawn: {e}"))?;
    let addr = handle.addr();
    let resp = post(
        addr,
        "/v1/models",
        &wire::RegisterModel {
            name: "micro".into(),
            preset: "micro".into(),
            precision: "int8-native".into(),
            seed: MODEL_SEED,
        },
    )?;
    if !resp.is_success() {
        return Err(format!("register micro: {} {}", resp.status, resp.body));
    }
    let id = u64::MAX;
    let submit = wire::Submit {
        model: 0,
        id,
        seed: 1,
        steps: 2,
        tenant: 0,
        priority: 0,
    };
    let resp = post(addr, "/v1/submit", &submit)?;
    if !resp.is_success() {
        return Err(format!("warm-up submit: {} {}", resp.status, resp.body));
    }
    loop {
        let resp = get(addr, &format!("/v1/status/{id}"))?;
        let reply: wire::StatusReply = json::from_str(&resp.body).map_err(|e| e.to_string())?;
        match reply.state.as_str() {
            "done" => return Ok(handle),
            "failed" => return Err("warm-up request failed".into()),
            _ => std::thread::sleep(SETUP_POLL),
        }
    }
}

/// Median calibrated set-up CPU time over [`SETUPS`] fresh daemons; the
/// last one serves.
fn setup(cal: &Calibration, rep: &mut Report) -> Result<DaemonHandle, String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let m = cal.mark();
        let h = start_daemon()?;
        setups.push(Calibration::ref_ms(m, cal.mark()) / 1e3);
        if let Some(old) = last.replace(h) {
            DaemonHandle::shutdown(old);
        }
    }
    rep.set("setup_s", stats::median(&setups));
    Ok(last.expect("at least one set-up"))
}

/// Solo `sample` bits by (seed, steps).
type Refs = HashMap<(u64, usize), Vec<u32>>;

/// Solo `sample` bits for every distinct (seed, steps) in the plan.
fn references(plan: &[Planned]) -> Result<Refs, String> {
    let asg = int8_native();
    let mut net = build_net(UNetConfig::micro());
    let mut refs = HashMap::new();
    for p in plan {
        if let Entry::Vacant(slot) = refs.entry((p.seed, p.steps)) {
            slot.insert(solo_bits(&mut net, &asg, p.seed, p.steps)?);
        }
    }
    Ok(refs)
}

/// Drives the plan against the daemon: the sender runs on a scoped
/// thread, the poller on this one.
fn drive(addr: SocketAddr, plan: &[Planned], refs: &Refs, tr: &Tracer, cal: &Calibration) -> Load {
    let origin = Instant::now();
    let origin_ns = tr.now();
    let secs = |t: Instant| t.duration_since(origin).as_secs_f64();
    let traced = |p: &Planned| tr.on() && p.id.is_multiple_of(2);
    let (to_poller, inbox) = mpsc::channel::<(usize, Open)>();

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = vec![(None, false, false); plan.len()];
            let mut submit_ms = Vec::with_capacity(plan.len());
            let mut marks = Vec::with_capacity(PHASES.len() + 1);
            for (i, p) in plan.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(p.due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if marks.len() == p.phase {
                    marks.push(cal.mark());
                }
                let root = tr.start_at(
                    traced(p),
                    "loadgen.send",
                    p.id,
                    None,
                    origin_ns + (p.due * 1e9) as u64,
                );
                let t = Instant::now();
                let s = tr.now();
                let submit = wire::Submit {
                    model: 0,
                    id: p.id,
                    seed: p.seed,
                    steps: p.steps,
                    tenant: 0,
                    priority: 0,
                };
                let resp = post(addr, "/v1/submit", &submit);
                submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tr.record(traced(p), "wire.submit", p.id, root.id(), s, tr.now());
                sent[i].0 = Some(secs(t));
                match resp {
                    Ok(r) if r.is_success() => {
                        // The poller outlives the sender, so this cannot fail.
                        let _ = to_poller.send((i, root));
                    }
                    Ok(_) => sent[i].1 = true,
                    Err(_) => sent[i].2 = true,
                }
            }
            (sent, submit_ms, marks)
        });
        let mut load = Load {
            outcomes: vec![Outcome::default(); plan.len()],
            ..Load::default()
        };
        let mut outstanding: Vec<(usize, Open, Instant)> = Vec::new();
        let mut next_stats = origin + STATS_INTERVAL;
        let last_due = origin + Duration::from_secs_f64(plan.last().map_or(0.0, |p| p.due));
        let mut sender_done = false;
        loop {
            // Take new submissions without blocking.
            loop {
                match inbox.try_recv() {
                    Ok((i, root)) => outstanding.push((i, root, Instant::now() + POLL_INTERVAL)),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        sender_done = true;
                        break;
                    }
                }
            }
            if sender_done && outstanding.is_empty() {
                break;
            }
            let now = Instant::now();
            if now > last_due + DRAIN_TIMEOUT {
                for (i, _, _) in outstanding.drain(..) {
                    load.outcomes[i].failed = true;
                }
                break;
            }
            if now >= next_stats && !sender_done {
                let s = tr.now();
                let t = Instant::now();
                let ok = get(addr, "/v1/stats").is_ok_and(|r| r.is_success());
                load.stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tr.record(tr.on(), "daemon.stats", 0, None, s, tr.now());
                if !ok {
                    eprintln!("perfbench: /v1/stats failed");
                }
                next_stats += STATS_INTERVAL;
                continue;
            }
            let Some(k) = (0..outstanding.len()).min_by_key(|&k| outstanding[k].2) else {
                match inbox.recv_timeout(POLL_INTERVAL) {
                    Ok((i, root)) => outstanding.push((i, root, Instant::now() + POLL_INTERVAL)),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => sender_done = true,
                }
                continue;
            };
            let wake = if !sender_done {
                outstanding[k].2.min(next_stats)
            } else {
                outstanding[k].2
            };
            if let Some(wait) = wake.checked_duration_since(now) {
                std::thread::sleep(wait.min(POLL_INTERVAL));
                continue;
            }
            let (i, root, _) = &outstanding[k];
            let (i, p) = (*i, &plan[*i]);
            let s = tr.now();
            let t = Instant::now();
            let resp = get(addr, &format!("/v1/status/{}", p.id));
            load.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.record(traced(p), "wire.status", p.id, root.id(), s, tr.now());
            let out = &mut load.outcomes[i];
            out.polls += 1;
            let reply = resp.and_then(|r| {
                json::from_str::<wire::StatusReply>(&r.body).map_err(|e| e.to_string())
            });
            let finished = match reply {
                Ok(reply) if reply.state == "done" => {
                    let want = &refs[&(p.seed, p.steps)];
                    out.mismatched = reply.image.as_ref().map(|img| &img.bits) != Some(want);
                    out.done = Some(secs(Instant::now()));
                    true
                }
                Ok(reply) if reply.state == "queued" || reply.state == "running" => false,
                _ => {
                    out.failed = true;
                    true
                }
            };
            if finished {
                let (_, root, _) = outstanding.swap_remove(k);
                tr.end(root);
            } else {
                outstanding[k].2 = Instant::now() + POLL_INTERVAL;
            }
        }
        let end = cal.mark();
        let (sent, submit_ms, mut marks) = sender.join().expect("sender thread panicked");
        marks.push(end);
        load.marks = marks;
        for (out, (at, refused, failed)) in load.outcomes.iter_mut().zip(sent) {
            out.sent = at;
            out.refused |= refused;
            out.failed |= failed;
        }
        load.submit_ms = submit_ms;
        load
    })
}

/// Shared accounting of a finished load: correctness, client-side layer
/// metrics and daemon statistics.
fn account(
    addr: SocketAddr,
    plan: &[Planned],
    load: &Load,
    rep: &mut Report,
) -> Result<Vec<Phase>, String> {
    let (mut completed, mut failed, mut refused, mut mismatched) = (0u64, 0u64, 0u64, 0u64);
    for o in &load.outcomes {
        if o.refused {
            refused += 1;
        } else if o.failed {
            failed += 1;
        } else if o.mismatched {
            mismatched += 1;
        } else if o.done.is_some() {
            completed += 1;
        } else {
            failed += 1;
        }
    }
    // Each outcome lands in exactly one bucket; the daemon's own ledger
    // must agree: everything it finished, less the warm-up request, is
    // what the client completed or found mismatched, and everything it
    // refused is what the client saw refused.
    let attempted = plan.len() as u64;
    let resp = get(addr, "/v1/stats")?;
    let st: wire::StatsReply = json::from_str(&resp.body).map_err(|e| e.to_string())?;
    let done: usize = st.models.iter().map(|m| m.completed).sum();
    let served = done.saturating_sub(1) as u64;
    if attempted != completed + failed + mismatched + refused
        || served != completed + mismatched
        || st.rejected != refused
    {
        return Err(format!(
            "request accounting disagrees: client completed {completed} + mismatched \
             {mismatched}, refused {refused}; daemon served {served}, rejected {}",
            st.rejected
        ));
    }
    rep.attempted = attempted;
    rep.failed = failed + mismatched + refused;
    rep.mismatched = mismatched;
    rep.note(format!(
        "requests attempted {attempted} = completed {completed} + failed {failed} + mismatched {mismatched} + refused {refused}"
    ));

    let mut ledgers = vec![Phase::default(); PHASES.len()];
    for (p, o) in plan.iter().zip(&load.outcomes) {
        let l = &mut ledgers[p.phase];
        l.due.push(p.due);
        l.sent.push(o.sent);
        l.done.push(if o.mismatched { None } else { o.done });
    }
    for (name, l) in PHASES.iter().zip(&ledgers) {
        let late_ms: Vec<f64> = l.lateness().iter().map(|s| s * 1e3).collect();
        let p99 = stats::nearest_rank(&stats::sorted(&late_ms), 99.0).unwrap_or(0.0);
        rep.set(&format!("loadgen.late_ms_p99_{name}"), p99);
        rep.set(
            &format!("loadgen.backlog_{name}"),
            l.backlog_at(l.end()) as f64,
        );
    }

    let pct = |xs: &[f64], p: f64| stats::nearest_rank(&stats::sorted(xs), p).unwrap_or(0.0);
    rep.set("wire.submit_ms_p50", pct(&load.submit_ms, 50.0));
    rep.set("wire.submit_ms_p99", pct(&load.submit_ms, 99.0));
    rep.set("wire.status_ms_p50", pct(&load.status_ms, 50.0));
    rep.set("wire.status_ms_p99", pct(&load.status_ms, 99.0));
    let polls: u32 = load.outcomes.iter().map(|o| o.polls).sum();
    rep.set(
        "wire.polls_per_request",
        f64::from(polls) / completed.max(1) as f64,
    );
    rep.set("daemon.stats_ms_p50", pct(&load.stats_ms, 50.0));
    rep.set("daemon.stats_ms_p99", pct(&load.stats_ms, 99.0));

    let occupied: f64 = st
        .models
        .iter()
        .map(|m| m.mean_batch_occupancy.unwrap_or(0.0) * m.rounds as f64)
        .sum();
    let rounds: usize = st.models.iter().map(|m| m.rounds).sum();
    rep.set("daemon.batch_occupancy", occupied / rounds.max(1) as f64);
    rep.set(
        "daemon.rounds_per_request",
        st.rounds as f64 / done.max(1) as f64,
    );
    Ok(ledgers)
}

fn phase_ms(l: &Phase) -> Vec<f64> {
    l.latencies().iter().map(|s| s * 1e3).collect()
}

/// Tracing overhead: median latency of traced over untraced requests of
/// the high phase, minus one.
fn trace_overhead(plan: &[Planned], load: &Load, rep: &mut Report) {
    let high_ms = |traced: bool| -> Vec<f64> {
        plan.iter()
            .zip(&load.outcomes)
            .filter(|(p, o)| p.phase == HIGH && p.id.is_multiple_of(2) == traced && !o.mismatched)
            .filter_map(|(p, o)| o.done.map(|d| (d - p.due) * 1e3))
            .collect()
    };
    rep.set(
        "trace.overhead",
        stats::median(&high_ms(true)) / stats::median(&high_ms(false)) - 1.0,
    );
}

/// `http_short`: `micro` requests of 2–4 steps in three open-loop phases.
pub fn run(args: &Args, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let plan = plan(args);
    let refs = references(&plan)?;
    let cal = Calibration::start();
    let handle = setup(&cal, rep)?;
    let addr = handle.addr();
    let load = drive(addr, &plan, &refs, tr, &cal);
    let ledgers = account(addr, &plan, &load, rep)?;
    handle.shutdown();
    drop(cal);

    // Calibrated CPU per completed request, over the whole load and over
    // each phase's window, from its first due time to the next phase's.
    let per_request = |from: usize, to: usize| {
        let completed: usize = ledgers[from..to]
            .iter()
            .map(|l| l.done.iter().flatten().count())
            .sum();
        Calibration::ref_ms(load.marks[from], load.marks[to]) / completed.max(1) as f64
    };
    let whole = per_request(LOW, PHASES.len());
    rep.set("cpu_ms_per_image", whole);
    rep.set("primary_cpu_ms", per_request(HIGH, HIGH + 1));
    rep.set("secondary_cpu_ms", per_request(LOW, LOW + 1));
    rep.note(format!(
        "calibrated CPU ms per request: low {:.4}, high {:.4}, overload {:.4}, whole load {whole:.4}",
        per_request(LOW, LOW + 1),
        per_request(HIGH, HIGH + 1),
        per_request(OVERLOAD, OVERLOAD + 1),
    ));
    rep.calibration(load.marks[LOW], load.marks[PHASES.len()]);
    rep.latency(
        "high phase wall clock (p50_ms_high, p99_ms_high)",
        &phase_ms(&ledgers[HIGH]),
    );
    rep.latency(
        "low phase wall clock (p50_ms_low, p99_ms_low)",
        &phase_ms(&ledgers[LOW]),
    );
    let peak = ledgers[OVERLOAD].drain_rate();
    rep.note(format!(
        "overload phase completes {peak:.3} requests/s (peak_rps); {} overload requests planned",
        plan.iter().filter(|p| p.phase == OVERLOAD).count()
    ));
    if tr.on() {
        trace_overhead(&plan, &load, rep);
        let sample: Vec<ServeRequest> = plan[..8]
            .iter()
            .map(|p| ServeRequest::new(p.id, p.steps).seed(p.seed))
            .collect();
        layers::probe_serve(UNetConfig::micro(), &sample, tr, rep)?;
        layers::probe_sampler(UNetConfig::micro(), &sample, tr, rep)?;
    }
    Ok(())
}
