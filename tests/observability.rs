//! End-to-end tests of the observability layer: a recorded training run
//! must produce a [`RunReport`] covering every pipeline stage, and —
//! the layer's core invariant — recording must never perturb results.

use novelty::eval::evaluate;
use novelty::{
    detector_to_spec, BackendKind, ClassifierConfig, DecisionSource, EnsembleDetector,
    EnsembleSpec, NoveltyDetector, NoveltyDetectorBuilder, QueueConfig, ReconstructionObjective,
    StreamConfig, StreamServer, TenantSpec, ENSEMBLE_SCHEMA_VERSION,
};
use obs::{Recorder, RunRecorder, RunReport};
use simdrive::{DatasetConfig, DrivingDataset};
use vision::Image;

const STAGES: [&str; 5] = ["cnn-train", "vbp", "ae-train", "calibration", "scoring"];

fn train_data() -> DrivingDataset {
    DatasetConfig::outdoor()
        .with_len(16)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(31)
}

fn probe_images() -> Vec<Image> {
    DatasetConfig::indoor()
        .with_len(4)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(32)
        .frames()
        .iter()
        .map(|f| f.image.clone())
        .collect()
}

/// Hidden-layer widths of the tiny autoencoder.
const HIDDEN: [usize; 3] = [12, 6, 12];

fn tiny_builder() -> NoveltyDetectorBuilder {
    NoveltyDetectorBuilder::for_kind(BackendKind::VbpSsim)
        .classifier_config(ClassifierConfig {
            hidden: HIDDEN.to_vec(),
            epochs: 3,
            warmup_epochs: 1,
            batch_size: 8,
            learning_rate: 3e-3,
            objective: ReconstructionObjective::Ssim { window: 7 },
        })
        .cnn_epochs(1)
        .seed(9)
}

fn train(recorder: &dyn Recorder) -> NoveltyDetector {
    tiny_builder()
        .train_recorded(&train_data(), recorder)
        .unwrap()
}

/// A two-member ensemble: one raw and one saliency backend, so both the
/// shared-CNN and the CNN-free member paths train.
fn train_ensemble(recorder: &dyn Recorder) -> EnsembleDetector {
    let kinds = [BackendKind::RawMse, BackendKind::VbpSsim];
    EnsembleDetector::train(&tiny_builder(), &kinds, &train_data(), recorder).unwrap()
}

fn ensemble_json(ensemble: &EnsembleDetector) -> String {
    let spec = EnsembleSpec {
        schema_version: ENSEMBLE_SCHEMA_VERSION,
        quorum: ensemble.quorum(),
        members: ensemble
            .members()
            .iter()
            .map(|m| detector_to_spec(m).unwrap())
            .collect(),
    };
    serde_json::to_string(&spec).unwrap()
}

#[test]
fn recorded_training_reports_all_five_stages() {
    let recorder = RunRecorder::new();
    let detector = train(&recorder);
    let report = recorder.report("train");

    let missing = report.missing_stages(&STAGES);
    assert!(missing.is_empty(), "missing stages: {missing:?}");
    for name in STAGES {
        let stage = report
            .stage(name)
            .or_else(|| {
                report
                    .stages
                    .iter()
                    .find(|s| s.name.starts_with(&format!("{name}.")))
            })
            .unwrap_or_else(|| panic!("no stage entry for {name}"));
        assert!(stage.count >= 1, "{name} never entered");
        assert!(stage.total_secs > 0.0, "{name} has zero wall time");
    }

    // Counters and series line up with the actual work done.
    assert_eq!(
        report.counter("scoring.scores_computed").unwrap(),
        detector.training_scores().len() as u64
    );
    assert_eq!(
        report.counter("vbp.masks_computed").unwrap(),
        detector.training_scores().len() as u64,
        "one mask per training image"
    );
    let cnn_loss = report.series("cnn-train.epoch_loss").unwrap();
    assert_eq!(cnn_loss.values.len(), 1, "one CNN epoch was requested");
    let ae_loss = report.series("ae-train.epoch_loss").unwrap();
    assert_eq!(ae_loss.values.len(), 3, "1 warmup + 2 main AE epochs");
    assert!(report.gauge("calibration.threshold").is_some());

    // The report survives a JSON round trip bit-for-bit.
    let json = report.to_json().unwrap();
    assert_eq!(RunReport::from_json(&json).unwrap(), report);
}

/// Recorded AE training gauges every hidden ReLU's sparsity — live
/// units and exact-zero share — without changing the trained detector.
#[test]
fn recorded_training_gauges_hidden_relu_sparsity() {
    let recorder = RunRecorder::new();
    let recorded = train(&recorder);
    let plain = train(obs::noop());
    assert_eq!(
        serde_json::to_string(&detector_to_spec(&plain).unwrap()).unwrap(),
        serde_json::to_string(&detector_to_spec(&recorded).unwrap()).unwrap(),
        "the sparsity gauges changed the trained detector"
    );

    let report = recorder.report("train");
    for (h, &width) in HIDDEN.iter().enumerate() {
        let live = report
            .gauge(&format!("ae-train.hidden{}.live_units", h + 1))
            .unwrap_or_else(|| panic!("no live-unit gauge for hidden layer {}", h + 1));
        assert!(live.fract() == 0.0 && (0.0..=width as f64).contains(&live));
        let share = report
            .gauge(&format!("ae-train.hidden{}.zero_share", h + 1))
            .unwrap_or_else(|| panic!("no zero-share gauge for hidden layer {}", h + 1));
        assert!((0.0..=1.0).contains(&share), "zero share {share}");
        // A dead unit is zero on every row, so it bounds the share below.
        assert!(share >= (width as f64 - live) / width as f64 - 1e-12);
    }
    let extra = format!("ae-train.hidden{}.live_units", HIDDEN.len() + 1);
    assert!(
        report.gauge(&extra).is_none(),
        "only hidden ReLUs are gauged"
    );
}

#[test]
fn recording_never_perturbs_results() {
    let probes = probe_images();
    let plain = train(obs::noop());
    let recorder = RunRecorder::new();
    let recorded = train(&recorder);

    // Detector JSON bit-identical.
    let plain_json = serde_json::to_string(&detector_to_spec(&plain).unwrap()).unwrap();
    let recorded_json = serde_json::to_string(&detector_to_spec(&recorded).unwrap()).unwrap();
    assert_eq!(
        plain_json, recorded_json,
        "recording changed the trained detector"
    );

    // Scores bit-identical, with the recorder enabled on one side.
    let a = plain.score_batch(&probes).unwrap();
    let b = recorded
        .score_batch_recorded(&probes, &RunRecorder::new())
        .unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "score diverged");
    }
}

#[test]
fn recording_never_perturbs_ensemble_training_or_evaluation() {
    let target: Vec<Image> = train_data()
        .frames()
        .iter()
        .map(|f| f.image.clone())
        .collect();
    let novel = probe_images();
    let plain = train_ensemble(obs::noop());
    let recorder = RunRecorder::new();
    let recorded = train_ensemble(&recorder);
    assert_eq!(
        ensemble_json(&plain),
        ensemble_json(&recorded),
        "recording changed the trained ensemble"
    );

    let plain_report = evaluate(&plain, &target, &novel, obs::noop()).unwrap();
    let recorded_report = evaluate(&recorded, &target, &novel, &recorder).unwrap();
    assert_eq!(
        plain_report, recorded_report,
        "recording changed the evaluation"
    );
    let report = recorder.report("ensemble");
    assert!(report.gauge("eval.auroc").is_some());
}

#[test]
fn serving_an_ensemble_records_coalesced_scoring() {
    let ensemble = train_ensemble(obs::noop());
    let frames = probe_images();
    let lossless = QueueConfig {
        capacity: 64,
        drain: 16,
        max_wait_rounds: u64::MAX,
    };
    let specs: Vec<TenantSpec> = (0..2)
        .map(|t| {
            TenantSpec::new(format!("t{t}"), StreamConfig::for_detector(&ensemble))
                .with_queue(lossless)
        })
        .collect();
    let mut server = StreamServer::new(&ensemble, specs).unwrap();
    let recorder = RunRecorder::new();
    let mut scored = 0u64;
    // Both tenants offer a frame every round, so every round scores a
    // coalesced batch of two through `Detector::classify_each`.
    for (k, frame) in frames.iter().enumerate() {
        server.offer(0, Some(frame.clone())).unwrap();
        server
            .offer(1, Some(frames[(k + 1) % frames.len()].clone()))
            .unwrap();
        for (_, decision) in server.step_recorded(&recorder) {
            scored += u64::from(decision.source == DecisionSource::Scored);
        }
    }
    assert_eq!(scored, 2 * frames.len() as u64, "every frame is scored");
    let report = recorder.report("serve");
    assert_eq!(report.counter("scoring.scores_computed"), Some(scored));
    assert!(report.stage("scoring").is_some(), "no scoring stage");
}
