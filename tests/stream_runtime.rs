//! End-to-end robustness tests of the fault-tolerant streaming runtime:
//! every injected fault class must yield a decision under every fallback
//! policy (no panics, no silent frame drops), the health machine must
//! degrade and recover, and all of it must be visible in the obs report.

use neural::serialize::LayerSpec;
use novelty::monitor::AlarmState;
use novelty::serve::{StreamServer, TenantSpec};
use novelty::{
    detector_from_spec, detector_to_spec, ClassifierConfig, DecisionSource, FallbackPolicy,
    HealthState, NoveltyDetector, NoveltyDetectorBuilder, ReconstructionObjective, StreamConfig,
    StreamDecision, StreamRuntime,
};
use obs::{Recorder, RunRecorder};
use simdrive::{DriveConfig, FaultBurst, FaultConfig, FaultInjector, FaultKind, World};
use vision::Image;

const HEIGHT: usize = 40;
const WIDTH: usize = 80;

/// One tiny trained detector shared by every test in this binary.
fn detector() -> &'static NoveltyDetector {
    use std::sync::OnceLock;
    static DETECTOR: OnceLock<NoveltyDetector> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        let data = simdrive::DatasetConfig::outdoor()
            .with_len(24)
            .with_size(HEIGHT, WIDTH)
            .with_supersample(1)
            .generate(31);
        NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 6,
                warmup_epochs: 2,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(2)
            .train(&data)
            .unwrap()
    })
}

fn drive_frames(len: usize, seed: u64) -> Vec<Image> {
    DriveConfig::new(World::Outdoor)
        .with_len(len)
        .with_size(HEIGHT, WIDTH)
        .with_supersample(1)
        .simulate(seed)
        .frames()
        .iter()
        .map(|f| f.image.clone())
        .collect()
}

/// Runs `frames` through a fresh runtime with the given fault schedule.
fn run_stream(
    policy: FallbackPolicy,
    fault_config: FaultConfig,
    frames: &[Image],
    recorder: &dyn Recorder,
) -> Vec<StreamDecision> {
    let det = detector();
    let config = StreamConfig::for_detector(det)
        .with_fallback(policy)
        .with_alarm_window(6, 4);
    let mut runtime = StreamRuntime::new(det, config).unwrap();
    let mut injector = FaultInjector::new(fault_config);
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            let injected = injector.apply(i, frame);
            runtime.process_recorded(injected.image.as_ref(), recorder)
        })
        .collect()
}

#[test]
fn every_fault_class_yields_a_decision_under_every_policy() {
    let frames = drive_frames(20, 3);
    let burst = 4..10; // 6 consecutive faulty frames
    for kind in FaultKind::all() {
        for policy in FallbackPolicy::all() {
            let recorder = RunRecorder::new();
            let fault_config =
                FaultConfig::new(0).with_burst(FaultBurst::new(kind, burst.start, burst.len()));
            let decisions = run_stream(policy, fault_config, &frames, &recorder);
            let label = format!("kind {} policy {}", kind.name(), policy.name());

            // No silent frame drops: one decision per frame, in order.
            assert_eq!(decisions.len(), frames.len(), "{label}");
            for (i, d) in decisions.iter().enumerate() {
                assert_eq!(d.frame, i as u64, "{label}");
                // Every frame carries a flag unless the abstain policy
                // explicitly declined one.
                match d.source {
                    DecisionSource::Abstained => {
                        assert_eq!(policy, FallbackPolicy::Abstain, "{label}");
                        assert_eq!(d.is_novel, None, "{label}");
                    }
                    _ => assert!(d.is_novel.is_some(), "{label} frame {i}"),
                }
            }

            // The burst is visible: the gate rejected at least one frame
            // (freeze needs a couple of repeats before it reads as stuck,
            // every other class is caught immediately).
            let rejected = decisions[burst.clone()]
                .iter()
                .filter(|d| d.gate_fault.is_some())
                .count();
            assert!(rejected >= 1, "{label}: no gate rejection in the burst");
            // Outside the burst every frame scores normally.
            for d in decisions[..burst.start].iter() {
                assert_eq!(d.source, DecisionSource::Scored, "{label}");
            }

            // The whole episode is visible in the obs report.
            let report = recorder.report("stream");
            assert_eq!(
                report.counter("stream-score.frames"),
                Some(frames.len() as u64),
                "{label}"
            );
            assert!(
                report.counter("stream-score.gate_rejected").unwrap_or(0) >= rejected as u64,
                "{label}"
            );
            assert!(
                report.missing_stages(&["stream-score"]).is_empty(),
                "{label}"
            );
        }
    }
}

#[test]
fn health_degrades_through_failsafe_and_recovers() {
    let frames = drive_frames(30, 5);
    let recorder = RunRecorder::new();
    let fault_config = FaultConfig::new(0).with_burst(FaultBurst::new(FaultKind::NanBurst, 8, 8));
    let decisions = run_stream(
        FallbackPolicy::TreatAsNovel,
        fault_config,
        &frames,
        &recorder,
    );

    // Degraded after 2 consecutive faults, FailSafe after 6.
    assert_eq!(decisions[9].health, HealthState::Degraded);
    assert_eq!(decisions[13].health, HealthState::FailSafe);
    // Recovery is stepwise with hysteresis: 4 clean frames per level.
    assert_eq!(decisions[19].health, HealthState::Degraded);
    assert_eq!(decisions[23].health, HealthState::Healthy);
    assert_eq!(decisions.last().unwrap().health, HealthState::Healthy);

    // The sustained fault raised the alarm (treat-as-novel feeds the
    // window), and the alarm cleared once scoring resumed.
    assert!(decisions[8..16]
        .iter()
        .any(|d| d.alarm == AlarmState::Raised));
    assert_eq!(decisions.last().unwrap().alarm, AlarmState::Nominal);

    // Healthy→Degraded→FailSafe→Degraded→Healthy = 4 transitions, all
    // counted in the report.
    let report = recorder.report("stream");
    assert_eq!(report.counter("stream-score.health.transitions"), Some(4));
    assert_eq!(report.counter("stream-score.health.to_fail-safe"), Some(1));
    assert_eq!(
        report.counter("stream-score.gate_rejected.non-finite-pixels"),
        Some(8)
    );
    assert_eq!(report.counter("stream-score.fallbacks"), Some(8));
    assert!(report.counter("stream-score.alarm.raised_frames").unwrap() > 0);
}

#[test]
fn seeded_random_fault_runs_are_deterministic() {
    let frames = drive_frames(25, 7);
    let config = || FaultConfig::new(99).with_random(0.25, 3);
    let a = run_stream(
        FallbackPolicy::HoldLastVerdict,
        config(),
        &frames,
        obs::noop(),
    );
    let b = run_stream(
        FallbackPolicy::HoldLastVerdict,
        config(),
        &frames,
        obs::noop(),
    );
    assert_eq!(a, b);
    // The schedule actually fired (rate 0.25 over 25 frames).
    assert!(a.iter().any(|d| d.source != DecisionSource::Scored));
    // A different seed corrupts differently.
    let other = FaultConfig::new(100).with_random(0.25, 3);
    let c = run_stream(FallbackPolicy::HoldLastVerdict, other, &frames, obs::noop());
    let faults =
        |v: &[StreamDecision]| -> Vec<bool> { v.iter().map(|d| d.gate_fault.is_some()).collect() };
    assert_ne!(faults(&a), faults(&c));
}

#[test]
fn hold_last_coasts_and_abstain_reports_gaps() {
    let frames = drive_frames(12, 9);
    let fault_config = || FaultConfig::new(0).with_burst(FaultBurst::new(FaultKind::Drop, 5, 3));

    let held = run_stream(
        FallbackPolicy::HoldLastVerdict,
        fault_config(),
        &frames,
        obs::noop(),
    );
    for d in &held[5..8] {
        assert_eq!(d.source, DecisionSource::FallbackHeld);
        // The held verdict is the one scored just before the gap.
        assert_eq!(d.verdict, held[4].verdict);
    }

    let abstained = run_stream(
        FallbackPolicy::Abstain,
        fault_config(),
        &frames,
        obs::noop(),
    );
    for d in &abstained[5..8] {
        assert_eq!(d.source, DecisionSource::Abstained);
        assert_eq!(d.is_novel, None);
    }
    // Scoring resumes after the gap under both policies.
    assert_eq!(held[8].source, DecisionSource::Scored);
    assert_eq!(abstained[8].source, DecisionSource::Scored);
}

/// Asserts that `poisoned` fails closed on ten drive frames: every frame
/// a score error, none scored, and the health machine in FailSafe at the
/// end. Checked on the solo runtime and on a two-tenant server, whose
/// frames take the batched scoring path.
fn assert_fails_closed(poisoned: &NoveltyDetector) {
    let frames = drive_frames(10, 13);
    let assert_failed_closed = |decisions: &[StreamDecision], label: &str| {
        assert_eq!(decisions.len(), frames.len(), "{label}");
        for d in decisions {
            assert_ne!(
                d.source,
                DecisionSource::Scored,
                "{label}: frame {}",
                d.frame
            );
            assert!(d.score_error.is_some(), "{label}: frame {}", d.frame);
        }
        assert_eq!(
            decisions.last().unwrap().health,
            HealthState::FailSafe,
            "{label}"
        );
    };

    let mut runtime = StreamRuntime::new(poisoned, StreamConfig::for_detector(poisoned)).unwrap();
    let solo: Vec<StreamDecision> = frames.iter().map(|f| runtime.process(Some(f))).collect();
    assert_failed_closed(&solo, "runtime");

    let tenants = (0..2)
        .map(|t| TenantSpec::new(format!("t{t}"), StreamConfig::for_detector(poisoned)))
        .collect();
    let mut server = StreamServer::new(poisoned, tenants).unwrap();
    let mut served = [Vec::new(), Vec::new()];
    for frame in &frames {
        for tenant in 0..2 {
            server.offer(tenant, Some(frame.clone())).unwrap();
        }
        for (tenant, decision) in server.step() {
            served[tenant].push(decision);
        }
    }
    for (tenant, decisions) in served.iter().enumerate() {
        assert_failed_closed(decisions, &format!("server tenant {tenant}"));
    }
}

/// A detector whose weights are finite but overflow at run time scores
/// NaN. `Threshold::is_novel(NaN)` is false in both directions, so such
/// a detector must fail closed — every frame a score error driving the
/// health machine to FailSafe — instead of calling every frame familiar.
#[test]
fn non_finite_scores_fail_closed_into_failsafe() {
    // The spec loader accepts any finite weight; 3e38 in the first
    // autoencoder bias overflows to ±inf and then NaN downstream.
    let mut spec = detector_to_spec(detector()).unwrap();
    let first = spec.autoencoder.as_mut().unwrap().layers.first_mut();
    let Some(LayerSpec::Dense { bias, .. }) = first else {
        panic!("the autoencoder starts with a dense layer");
    };
    bias.data.fill(3e38);
    assert_fails_closed(&detector_from_spec(spec).unwrap());
}

/// The same overflow in the steering CNN: 3e38 in every first-conv weight
/// drives conv1's outputs to +∞ and every later map to NaN. Min-max
/// normalisation would turn that VisualBackProp mask into all zeros, an
/// image the autoencoder reconstructs well, so every frame would be
/// called familiar; the non-finite mask must instead fail each frame
/// closed.
#[test]
fn non_finite_saliency_masks_fail_closed_into_failsafe() {
    let mut spec = detector_to_spec(detector()).unwrap();
    let first = spec.steering.as_mut().unwrap().layers.first_mut();
    let Some(LayerSpec::Conv2d { weight, .. }) = first else {
        panic!("the steering CNN starts with a conv layer");
    };
    weight.data.fill(3e38);
    assert_fails_closed(&detector_from_spec(spec).unwrap());
}
