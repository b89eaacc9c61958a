//! The measured loops of the four workloads, untraced and traced, and the
//! output checks that guard them.
//!
//! One thread generates all load (`ThreadConfig::serial()`); every clock
//! read sits in this file, around public calls into the library.

use std::hint::black_box;
use std::time::{Duration, Instant};

use novelty::{
    DecisionSource, QueueConfig, StreamConfig, StreamDecision, StreamRuntime, StreamServer,
    TenantSpec, TenantStats,
};
use simdrive::{FaultKind, TenantTraffic};
use vision::Image;

use crate::catalog::{Values, SERVE_GROUP, TRAIN_GROUP};
use crate::profile::{FrameProfile, RECONCILIATION};
use crate::setup::{spec_digest, Inputs, Scale, Setup, Workload};
use crate::stats::{beyond, median, percentile, sorted, window_rate_median, Call, Fnv, MIN_BEYOND};

/// A decision later than this missed its deadline: one frame period of a
/// 20 fps camera.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Frames each stream runtime sees before measuring (fills the scratch
/// pool and the kernels' packed panels).
const STREAM_WARMUP: usize = 8;
/// Serve rounds before measuring.
const SERVE_WARMUP_ROUNDS: usize = 2;
/// `serve-hostile` sends one round every period (open loop).
const HOSTILE_PERIOD: Duration = Duration::from_millis(25);
/// The smallest number of trainings a `train` run times.
const MIN_TRAININGS: usize = 3;
/// Frames the traced serve and train runs put through the frame profile.
const PROFILE_FRAMES: usize = 64;
/// Serve rounds (after warm-up) whose decisions the untraced-vs-traced
/// digest covers.
const DIGEST_ROUNDS: usize = 48;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke-test run: the tail-sample guard is not enforced.
    pub quick: bool,
}

/// One output check.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, for the report.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            passed,
            detail: detail.into(),
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The catalog metrics.
    pub values: Values,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Extra context for the human-readable summary.
    pub notes: Vec<String>,
}

/// Runs one workload on its set-up.
pub fn run(workload: Workload, setup: &Setup, scale: &Scale, cfg: RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let result = match workload {
        Workload::StreamClean if cfg.trace => stream_traced(setup, cfg, &mut out),
        Workload::StreamClean => stream(setup, cfg, &mut out),
        Workload::ServeFleet | Workload::ServeHostile => serve(workload, setup, cfg, &mut out),
        Workload::Train => train(setup, scale, cfg, &mut out),
    };
    if let Err(e) = result {
        out.checks.push(Check::new("workload ran", false, e));
    }
    out
}

/// `latency_p50_ms` and `latency_p99_ms`: nearest-rank percentiles of
/// every operation's latency in the window (an untraced run prints the
/// first, a traced run the second). With `tail`, the run fails unless at
/// least [`MIN_BEYOND`] samples lie beyond the p99.
fn latency(
    out: &mut Outcome,
    samples_ms: &[f64],
    cfg: RunConfig,
    tail: bool,
) -> Result<(), String> {
    let s = sorted(samples_ms);
    let p50 = percentile(&s, 50.0).ok_or("no latency samples")?;
    let p99 = percentile(&s, 99.0).ok_or("no latency samples")?;
    out.values.set("latency_p50_ms", p50);
    out.values.set("latency_p99_ms", p99);
    let n = beyond(&s, p99);
    out.notes.push(format!(
        "{} latency samples: p50 {p50:.4} ms, p99 {p99:.4} ms, {n} beyond p99",
        s.len()
    ));
    if tail && !cfg.quick {
        out.checks.push(Check::new(
            "tail samples",
            n >= MIN_BEYOND,
            format!("{n} samples beyond p99 (need {MIN_BEYOND})"),
        ));
    }
    Ok(())
}

/// `throughput_per_s`: frames scored per busy second in the median whole
/// second of a run lasting `duration` seconds.
fn throughput(out: &mut Outcome, calls: &[Call], duration: f64) -> Result<(), String> {
    let rate = window_rate_median(calls, duration).ok_or("run shorter than one second")?;
    out.values.set("throughput_per_s", rate);
    Ok(())
}

fn stream_inputs(setup: &Setup) -> Result<(&[Image], &[u32]), String> {
    match &setup.inputs {
        Inputs::Stream { frames, reference } if !frames.is_empty() => Ok((frames, reference)),
        _ => Err("stream-clean needs stream inputs".into()),
    }
}

/// `stream-clean`, untraced: `process` per frame, closed loop.
fn stream(setup: &Setup, cfg: RunConfig, out: &mut Outcome) -> Result<(), String> {
    let (frames, reference) = stream_inputs(setup)?;
    let detector = &setup.detector;
    let mut runtime = StreamRuntime::new(detector, StreamConfig::for_detector(detector))
        .map_err(|e| e.to_string())?;
    for frame in frames.iter().cycle().take(STREAM_WARMUP) {
        let _ = black_box(runtime.process(Some(frame)));
    }
    let mut lat_ms = Vec::new();
    let mut calls = Vec::new();
    let mut wrong = Vec::new();
    let start = Instant::now();
    let mut i = STREAM_WARMUP;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let k = i % frames.len();
        let t = Instant::now();
        let decision = runtime.process(Some(&frames[k]));
        let end = Instant::now();
        let busy = (end - t).as_secs_f64();
        lat_ms.push(busy * 1e3);
        let correct = decision.source == DecisionSource::Scored
            && decision.verdict.as_ref().map(|v| v.score.to_bits()) == Some(reference[k]);
        if !correct {
            wrong.push(decision.frame);
        }
        calls.push(Call {
            at: (end - start).as_secs_f64(),
            frames: f64::from(u8::from(correct)),
            busy,
        });
        i += 1;
    }
    let duration = start.elapsed().as_secs_f64();
    out.attempted = lat_ms.len() as u64;
    out.failed = wrong.len() as u64;
    out.checks.push(Check::new(
        "every frame scored to its reference",
        wrong.is_empty(),
        format!(
            "{} of {} frames wrong (first: {:?})",
            wrong.len(),
            lat_ms.len(),
            wrong.first()
        ),
    ));
    latency(out, &lat_ms, cfg, true)?;
    throughput(out, &calls, duration)
}

/// Feeds `frames` (with reference score bits) through a frame profile,
/// then writes the frame group.
fn profile_frames<'a>(
    profile: &mut FrameProfile<'_>,
    frames: impl Iterator<Item = (&'a Image, u32)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut errors = Vec::new();
    for (image, reference) in frames {
        if let Err(e) = profile.frame(image, reference) {
            errors.push(e);
        }
    }
    out.failed += errors.len() as u64;
    out.checks.push(Check::new(
        "decomposed scores equal detector.score",
        errors.is_empty(),
        format!(
            "{} of {} profiled frames wrong{}",
            errors.len(),
            profile.frames() + errors.len(),
            errors.first().map(|e| format!(": {e}")).unwrap_or_default()
        ),
    ));
    profile.finish(&mut out.values)?;
    let r = out.values.get("frame.reconciliation").unwrap_or(0.0);
    out.checks.push(Check::new(
        "stages reconcile with process()",
        RECONCILIATION.contains(&r),
        format!(
            "frame.sum_us / untraced frame = {r:.3} (band {:?})",
            RECONCILIATION
        ),
    ));
    Ok(())
}

/// `stream-clean`, traced: the frame profile for the whole window.
fn stream_traced(setup: &Setup, cfg: RunConfig, out: &mut Outcome) -> Result<(), String> {
    let (frames, reference) = stream_inputs(setup)?;
    let mut profile = FrameProfile::new(&setup.detector)?;
    let cycle = || frames.iter().zip(reference.iter().copied()).cycle();
    for (image, bits) in cycle().take(STREAM_WARMUP) {
        profile.frame(image, bits)?;
    }
    profile.reset();
    let start = Instant::now();
    profile_frames(
        &mut profile,
        cycle()
            .skip(STREAM_WARMUP)
            .take_while(|_| start.elapsed().as_secs_f64() < cfg.seconds),
        out,
    )?;
    out.attempted = profile.frames() as u64 + out.failed;
    // The tail of the profile's plain `process` calls, which run between
    // the timed stages of each frame.
    latency(out, &profile.process_ms(), cfg, true)?;
    out.values.zero(SERVE_GROUP);
    out.values.zero(TRAIN_GROUP);
    Ok(())
}

/// Queue bounds and pacing of a serve workload.
fn serve_plan(workload: Workload) -> (QueueConfig, Option<Duration>) {
    match workload {
        // Lossless: every arrival is scored in the round it arrives.
        Workload::ServeFleet => (
            QueueConfig {
                capacity: 8,
                drain: 3,
                max_wait_rounds: u64::MAX,
            },
            None,
        ),
        _ => (
            QueueConfig {
                capacity: 4,
                drain: 1,
                max_wait_rounds: 2,
            },
            Some(HOSTILE_PERIOD),
        ),
    }
}

/// A server plus the bookkeeping the output checks need.
struct Session<'a> {
    server: StreamServer<'a>,
    traffic: Vec<TenantTraffic>,
    reference: &'a [Vec<Option<u32>>],
    /// Traffic index of every frame offered, per tenant, in frame order.
    offered: Vec<Vec<usize>>,
    /// Decisions received per tenant.
    decided: Vec<u64>,
    lossless: bool,
    /// Digest of the decisions of the first `digest_rounds` rounds.
    digest: Fnv,
    digest_rounds: usize,
    rounds: usize,
    violations: Vec<String>,
    violation_count: u64,
}

/// What one round's decisions contained.
#[derive(Debug, Default)]
struct Tally {
    scored: u64,
    shed: u64,
    errors: u64,
}

impl<'a> Session<'a> {
    fn new(workload: Workload, setup: &'a Setup, digest_rounds: usize) -> Result<Self, String> {
        let Inputs::Traffic { tenants, reference } = &setup.inputs else {
            return Err("serve workloads need traffic inputs".into());
        };
        let (queue, _) = serve_plan(workload);
        let detector = &setup.detector;
        let specs = tenants
            .iter()
            .map(|t| {
                TenantSpec::new(t.name(), StreamConfig::for_detector(detector)).with_queue(queue)
            })
            .collect();
        let mut traffic = tenants.clone();
        traffic.iter_mut().for_each(TenantTraffic::reset);
        Ok(Session {
            server: StreamServer::new(detector, specs).map_err(|e| e.to_string())?,
            offered: vec![Vec::new(); traffic.len()],
            decided: vec![0; traffic.len()],
            traffic,
            reference,
            lossless: queue.max_wait_rounds == u64::MAX,
            digest: Fnv::default(),
            digest_rounds,
            rounds: 0,
            violations: Vec::new(),
            violation_count: 0,
        })
    }

    /// The next round's arrivals, cloned so offering them costs only the
    /// hand-over. Exhausted tenants replay their traffic from the start.
    fn arrivals(&mut self) -> Vec<(usize, Option<Image>)> {
        let mut out = Vec::new();
        for (t, traffic) in self.traffic.iter_mut().enumerate() {
            if traffic.remaining() == 0 {
                traffic.reset();
            }
            let first = traffic.len() - traffic.remaining();
            for (j, frame) in traffic.next_round().iter().enumerate() {
                self.offered[t].push(first + j);
                out.push((t, frame.image.clone()));
            }
        }
        out
    }

    fn offer(&mut self, arrivals: Vec<(usize, Option<Image>)>) -> Result<(), String> {
        for (t, image) in arrivals {
            self.server.offer(t, image).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 5 {
            self.violations.push(what);
        }
    }

    /// Checks one round's decisions and folds them into the digest.
    fn check(&mut self, decisions: &[(usize, StreamDecision)]) -> Tally {
        let mut tally = Tally::default();
        let digesting = self.rounds < self.digest_rounds;
        self.rounds += 1;
        for (t, d) in decisions {
            let t = *t;
            if d.frame != self.decided[t] {
                self.violation(format!(
                    "tenant {t}: decision for frame {} where {} was due",
                    d.frame, self.decided[t]
                ));
            }
            self.decided[t] += 1;
            let Some(&index) = self.offered[t].get(d.frame as usize) else {
                self.violation(format!(
                    "tenant {t}: decision for unoffered frame {}",
                    d.frame
                ));
                continue;
            };
            let rejected = d.gate_fault.is_some() || d.source == DecisionSource::Shed;
            match self.traffic[t].fault_at(index) {
                // A frozen feed re-delivers a clean frame; the gate lets
                // the first repeat through, so it may be scored.
                None | Some(FaultKind::Freeze) => {}
                Some(kind) if !rejected => {
                    self.violation(format!(
                        "tenant {t} frame {}: injected {} was not rejected or shed",
                        d.frame,
                        kind.name()
                    ));
                }
                Some(_) => {}
            }
            let score = d.verdict.as_ref().map(|v| v.score.to_bits());
            match d.source {
                DecisionSource::Scored => {
                    tally.scored += 1;
                    if score != self.reference[t][index] {
                        self.violation(format!(
                            "tenant {t} frame {}: score {:?} differs from the reference",
                            d.frame,
                            score.map(f32::from_bits)
                        ));
                    }
                }
                DecisionSource::Shed => {
                    tally.shed += 1;
                    if self.lossless {
                        self.violation(format!(
                            "tenant {t} frame {}: shed by a lossless queue",
                            d.frame
                        ));
                    }
                }
                _ => {}
            }
            tally.errors += u64::from(d.score_error.is_some());
            if digesting {
                let h = &mut self.digest;
                h.u64(t as u64);
                h.u64(d.frame);
                h.bytes(d.source.name().as_bytes());
                h.bytes(d.shed.map_or("-", |s| s.name()).as_bytes());
                h.bytes(d.gate_fault.map_or("-", |f| f.class()).as_bytes());
                h.u64(score.map_or(u64::MAX, u64::from));
            }
        }
        tally
    }

    /// One whole round, untimed.
    fn round(&mut self, recorder: Option<&obs::RunRecorder>) -> Result<Tally, String> {
        let arrivals = self.arrivals();
        self.offer(arrivals)?;
        let decisions = match recorder {
            Some(rec) => self.server.step_recorded(rec),
            None => self.server.step(),
        };
        Ok(self.check(&decisions))
    }

    /// Steps until every offered frame has its decision, then checks the
    /// one-decision-per-frame invariant.
    fn drain(&mut self) {
        while self.server.pending() > 0 {
            let decisions = self.server.step();
            self.check(&decisions);
        }
        for t in 0..self.offered.len() {
            let (offered, decided) = (self.offered[t].len() as u64, self.decided[t]);
            if offered != decided {
                self.violation(format!(
                    "tenant {t}: {offered} frames offered, {decided} decisions"
                ));
            }
        }
    }

    /// `TenantStats` summed over tenants.
    fn stats(&self) -> TenantStats {
        (0..self.server.tenant_count())
            .filter_map(|t| self.server.stats(t))
            .fold(TenantStats::default(), |a, s| TenantStats {
                offered: a.offered + s.offered,
                decisions: a.decisions + s.decisions,
                scored: a.scored + s.scored,
                shed_queue_full: a.shed_queue_full + s.shed_queue_full,
                shed_deadline: a.shed_deadline + s.shed_deadline,
                gate_rejected: a.gate_rejected + s.gate_rejected,
                score_errors: a.score_errors + s.score_errors,
                alarm_raised_frames: a.alarm_raised_frames + s.alarm_raised_frames,
            })
    }
}

/// Spins until `due`. Sleeping would let the core idle between rounds, and
/// an idle vCPU comes back with cold caches whose cost depends on what
/// else the host ran meanwhile; spinning keeps the open loop's rounds as
/// warm as the closed loops'.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// `serve-fleet` and `serve-hostile`, untraced or traced.
fn serve(
    workload: Workload,
    setup: &Setup,
    cfg: RunConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let (_, period) = serve_plan(workload);
    let mut s = Session::new(workload, setup, SERVE_WARMUP_ROUNDS + DIGEST_ROUNDS)?;
    let warm_recorder = obs::RunRecorder::new();
    for _ in 0..SERVE_WARMUP_ROUNDS {
        s.round(cfg.trace.then_some(&warm_recorder))?;
    }
    let before = s.stats();

    let mut lat_ms = Vec::new();
    let mut calls = Vec::new();
    let mut lag_ms = Vec::new();
    let (mut offered, mut missed) = (0u64, 0u64);
    // Traced only: per-round phase times and coalesced batch sizes.
    let (mut offer_us, mut score_ms, mut walk_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batched, mut batches) = (0.0f64, 0u64);
    let start = Instant::now();
    let mut round = 0u32;
    loop {
        let due = period.map(|p| start + p * round);
        let elapsed = due.map_or_else(|| start.elapsed(), |d| d - start);
        if elapsed.as_secs_f64() >= cfg.seconds {
            break;
        }
        let arrivals = s.arrivals();
        offered += arrivals.len() as u64;
        if let Some(due) = due {
            wait_until(due);
        }
        let t0 = Instant::now();
        if let Some(due) = due {
            lag_ms.push((t0 - due).as_secs_f64() * 1e3);
        }
        s.offer(arrivals)?;
        let t1 = Instant::now();
        let recorder = cfg.trace.then(obs::RunRecorder::new);
        let round_decisions = match &recorder {
            Some(rec) => s.server.step_recorded(rec),
            None => s.server.step(),
        };
        let end = Instant::now();
        if let Some(rec) = recorder {
            let report = rec.report("perfbench");
            let score = report.stage("serve-score").map_or(0.0, |st| st.total_secs);
            offer_us.push((t1 - t0).as_secs_f64() * 1e6);
            score_ms.push(score * 1e3);
            walk_ms.push(((end - t1).as_secs_f64() - score) * 1e3);
            if let Some(h) = report.histogram("serve.coalesce.batch_size") {
                batched += h.mean * h.count as f64;
                batches += h.count;
            }
        }
        let ms = (end - due.unwrap_or(t0)).as_secs_f64() * 1e3;
        let tally = s.check(&round_decisions);
        let n = round_decisions.len() as u64;
        lat_ms.extend(std::iter::repeat_n(ms, n as usize));
        calls.push(Call {
            at: (end - start).as_secs_f64(),
            frames: tally.scored as f64,
            busy: (end - t0).as_secs_f64(),
        });
        missed += if ms > LATENCY_LIMIT_MS {
            n
        } else {
            tally.shed + tally.errors
        };
        round += 1;
    }
    // An open loop's window is its schedule, even when the last round
    // ends just before it does.
    let duration = start.elapsed().as_secs_f64().max(cfg.seconds);
    let after = s.stats();
    // A `TenantStats` counter over the measured window.
    let window = |field: fn(&TenantStats) -> u64| field(&after) - field(&before);
    // The digest covers rounds with arrivals only, not the drain below.
    let covered = s.rounds.min(s.digest_rounds);
    s.digest_rounds = covered;
    s.drain();

    // The same opening rounds, replayed from a fresh server with the
    // other recording mode, must produce the same decisions.
    let mut replay = Session::new(workload, setup, usize::MAX)?;
    let replay_recorder = obs::RunRecorder::new();
    for _ in 0..covered {
        replay.round((!cfg.trace).then_some(&replay_recorder))?;
    }
    let (digest, replayed) = (s.digest.finish(), replay.digest.finish());
    out.checks.push(Check::new(
        "decision digest equal untraced and traced",
        digest == replayed,
        format!("{covered} rounds: {digest:016x} vs {replayed:016x}"),
    ));
    out.checks.push(Check::new(
        "one correct decision per offered frame",
        s.violation_count == 0 && replay.violation_count == 0,
        format!(
            "{} violations{}",
            s.violation_count + replay.violation_count,
            s.violations
                .iter()
                .chain(&replay.violations)
                .next()
                .map(|v| format!(", first: {v}"))
                .unwrap_or_default()
        ),
    ));
    out.attempted = offered;
    out.failed = window(|s| s.score_errors) + s.violation_count;
    out.notes.push(format!(
        "{round} rounds, {offered} frames offered, {} scored, {} shed, {} gate-rejected",
        window(|s| s.scored),
        window(TenantStats::shed),
        window(|s| s.gate_rejected)
    ));
    let lag_p99 = percentile(&sorted(&lag_ms), 99.0).unwrap_or(0.0);
    if period.is_some() {
        out.notes.push(format!(
            "generator lag p99 {lag_p99:.3} ms behind the due times"
        ));
    }

    let miss_rate = missed as f64 / offered.max(1) as f64;
    out.notes.push(format!(
        "miss rate {miss_rate:.4} (shed, failed or later than {LATENCY_LIMIT_MS} ms)"
    ));

    latency(out, &lat_ms, cfg, true)?;
    if !cfg.trace {
        return throughput(out, &calls, duration);
    }

    let v = &mut out.values;
    v.set("miss_rate", miss_rate);
    let med = |x: &[f64]| median(x).ok_or("no serve rounds measured");
    v.set("novelty.serve.offer_us", med(&offer_us)?);
    v.set("novelty.serve.score_ms", med(&score_ms)?);
    v.set("novelty.serve.walk_demux_ms", med(&walk_ms)?);
    v.set("novelty.serve.batch_mean", batched / batches.max(1) as f64);
    let share = |field: fn(&TenantStats) -> u64| window(field) as f64 / offered.max(1) as f64;
    v.set("novelty.serve.scored_share", share(|s| s.scored));
    v.set(
        "novelty.serve.shed_queue_full_share",
        share(|s| s.shed_queue_full),
    );
    v.set(
        "novelty.serve.shed_deadline_share",
        share(|s| s.shed_deadline),
    );
    v.set(
        "novelty.serve.gate_rejected_share",
        share(|s| s.gate_rejected),
    );
    v.set("novelty.serve.score_error_share", share(|s| s.score_errors));
    v.set("bench.generator_lag_p99_ms", lag_p99);
    v.zero(TRAIN_GROUP);

    // Frame profile over the workload's clean, scorable frames, taken
    // round-robin across tenants.
    let Inputs::Traffic { tenants, reference } = &setup.inputs else {
        unreachable!("checked by Session::new");
    };
    let longest = tenants.iter().map(TenantTraffic::len).max().unwrap_or(0);
    let sample: Vec<(&Image, u32)> = (0..longest)
        .flat_map(|i| (0..tenants.len()).map(move |t| (t, i)))
        .filter(|&(t, i)| tenants[t].fault_at(i).is_none())
        .filter_map(|(t, i)| Some((tenants[t].image_at(i)?, reference[t].get(i).copied()??)))
        .take(PROFILE_FRAMES)
        .collect();
    profile_sample(setup, &sample, out)
}

/// Warms a frame profile on `sample`, then profiles it once.
fn profile_sample(
    setup: &Setup,
    sample: &[(&Image, u32)],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut profile = FrameProfile::new(&setup.detector)?;
    for &(image, bits) in sample.iter().take(STREAM_WARMUP) {
        profile.frame(image, bits)?;
    }
    profile.reset();
    profile_frames(&mut profile, sample.iter().copied(), out)
}

/// `train`: retrain the paper detector on the set-up's training set.
fn train(setup: &Setup, scale: &Scale, cfg: RunConfig, out: &mut Outcome) -> Result<(), String> {
    const STAGES: [(&str, &str); 5] = [
        ("cnn-train", "neural.cnn_train_s"),
        ("vbp", "saliency.vbp_batch_s"),
        ("ae-train", "novelty.ae_train_s"),
        ("scoring", "novelty.calib_scoring_s"),
        ("calibration", "novelty.calibration_s"),
    ];
    let builder = scale.builder();
    let mut secs = Vec::new();
    let mut stage_secs: [Vec<f64>; STAGES.len()] = Default::default();
    let mut mismatched = Vec::new();
    let start = Instant::now();
    while secs.len() < MIN_TRAININGS || start.elapsed().as_secs_f64() < cfg.seconds {
        let recorder = obs::RunRecorder::new();
        let t = Instant::now();
        let trained = if cfg.trace {
            builder.train_recorded(&setup.training, &recorder)
        } else {
            builder.train(&setup.training)
        };
        secs.push(t.elapsed().as_secs_f64());
        if cfg.trace {
            let report = recorder.report("perfbench");
            for (acc, (stage, _)) in stage_secs.iter_mut().zip(STAGES) {
                acc.push(report.stage(stage).map_or(0.0, |s| s.total_secs));
            }
        }
        let digest = trained
            .map_err(|e| e.to_string())
            .and_then(|d| spec_digest(&d));
        if digest.as_ref() != Ok(&setup.spec_digest) {
            mismatched.push(digest.map_or_else(|e| e, |d| format!("digest {d:016x}")));
        }
    }
    out.attempted = secs.len() as u64;
    out.failed = mismatched.len() as u64;
    out.notes.push(format!("training seconds {secs:.3?}"));
    out.checks.push(Check::new(
        "retrained detector spec equals set-up's",
        mismatched.is_empty(),
        format!(
            "{} of {} trainings differ from {:016x}{}",
            mismatched.len(),
            secs.len(),
            setup.spec_digest,
            mismatched
                .first()
                .map(|m| format!(": {m}"))
                .unwrap_or_default()
        ),
    ));

    // A run holds about a dozen trainings: its p99 is the slowest one, with
    // no ten samples beyond it, so the tail check is off.
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    latency(out, &ms, cfg, false)?;
    if !cfg.trace {
        // A training outlasts the one-second windows of the other
        // workloads: the rate is over all training time instead.
        let frames = (setup.training.len() * secs.len()) as f64;
        out.values
            .set("throughput_per_s", frames / secs.iter().sum::<f64>());
        return Ok(());
    }

    out.values
        .set("train_s", median(&secs).ok_or("no training measured")?);
    for (acc, (_, name)) in stage_secs.iter().zip(STAGES) {
        out.values
            .set(name, median(acc).ok_or("no training measured")?);
    }
    out.values.zero(SERVE_GROUP);
    let images: Vec<Image> = setup
        .training
        .frames()
        .iter()
        .take(PROFILE_FRAMES)
        .map(|f| f.image.clone())
        .collect();
    let reference = setup
        .detector
        .score_batch(&images)
        .map_err(|e| format!("reference scores: {e}"))?;
    let sample: Vec<(&Image, u32)> = images
        .iter()
        .zip(reference.iter().map(|s| s.to_bits()))
        .collect();
    profile_sample(setup, &sample, out)
}
