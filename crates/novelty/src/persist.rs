//! Saving and loading trained detectors.
//!
//! A deployed system trains the pipeline offline and ships the frozen
//! detector; [`NoveltyDetector::save`] / [`NoveltyDetector::load`]
//! serialize the whole bundle (backend networks, calibrated profile,
//! threshold, configuration) as one JSON document keyed by the backend
//! registry id. [`DetectorSpec`] carries a schema-version field so a
//! deployment loading a file written by an incompatible build fails with
//! a clear message instead of a cryptic field error; version-2 files
//! (written before the backend registry existed) still load through an
//! explicit migration that maps the old `preprocessing` + `objective`
//! pair onto a backend id. [`EnsembleDetector`] bundles its members the
//! same way, and [`load_any`] opens either kind of file. The original
//! free functions [`save_detector`] / [`load_detector`] remain as thin
//! wrappers.

use std::path::Path;

use neural::serialize::{from_spec, to_spec, NetworkSpec};
use serde::{Deserialize, Serialize};

use crate::backend::{BackendKind, Detector};
use crate::modelchar::{ModelCharBackend, StatProfile};
use crate::{
    AutoencoderClassifier, EnsembleDetector, NoveltyDetector, NoveltyError, Preprocessing,
    ReconstructionObjective, Result, Threshold,
};

/// Version of the detector JSON layout this build reads and writes.
///
/// History: 1 = unversioned pre-observability files (no
/// `schema_version` field); 2 = versioned, fixed `preprocessing` +
/// `objective` pipeline triple; 3 = current (backend registry id, with
/// per-backend payloads — autoencoder networks or a statistics
/// profile). Version-2 files load via [`NoveltyDetector::load`]'s
/// migration path; version-1 files are rejected with guidance.
pub const DETECTOR_SCHEMA_VERSION: u32 = 3;

/// Version of the ensemble JSON layout this build reads and writes.
pub const ENSEMBLE_SCHEMA_VERSION: u32 = 1;

/// Serialized form of a trained [`NoveltyDetector`].
///
/// `schema_version` and `backend` stay the first two fields: a
/// version-1 file fails with `missing field schema_version` and a
/// version-2 file with `missing field backend`, which is how
/// [`NoveltyDetector::load`] routes each vintage to the right handler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorSpec {
    /// [`DETECTOR_SCHEMA_VERSION`] at the time the spec was written.
    pub schema_version: u32,
    /// The registry id of the backend ([`BackendKind::id`]).
    pub backend: String,
    /// The steering CNN, for backends that carry one.
    pub steering: Option<NetworkSpec>,
    /// The autoencoder network, for reconstruction backends.
    pub autoencoder: Option<NetworkSpec>,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Scoring objective, for reconstruction backends.
    pub objective: Option<ReconstructionObjective>,
    /// Calibrated per-layer statistics, for the model-characterization
    /// backend.
    pub profile: Option<StatProfile>,
    /// Calibrated threshold.
    pub threshold: Threshold,
    /// Training-score distribution used for calibration.
    pub training_scores: Vec<f32>,
}

/// The version-2 layout, kept verbatim so old files migrate instead of
/// erroring. Serialized only by tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DetectorSpecV2 {
    schema_version: u32,
    steering: Option<NetworkSpec>,
    autoencoder: NetworkSpec,
    height: usize,
    width: usize,
    objective: ReconstructionObjective,
    preprocessing: Preprocessing,
    threshold: Threshold,
    training_scores: Vec<f32>,
}

impl DetectorSpecV2 {
    /// Maps the old fixed pipeline triple onto its registry id and lifts
    /// the spec to the current layout.
    fn migrate(self) -> DetectorSpec {
        let backend = match (self.preprocessing, &self.objective) {
            (Preprocessing::Raw, _) => BackendKind::RawMse,
            (Preprocessing::Vbp, ReconstructionObjective::Mse) => BackendKind::VbpMse,
            (Preprocessing::Vbp, ReconstructionObjective::Ssim { .. }) => BackendKind::VbpSsim,
        };
        DetectorSpec {
            schema_version: DETECTOR_SCHEMA_VERSION,
            backend: backend.id().to_string(),
            steering: self.steering,
            autoencoder: Some(self.autoencoder),
            height: self.height,
            width: self.width,
            objective: Some(self.objective),
            profile: None,
            threshold: self.threshold,
            training_scores: self.training_scores,
        }
    }
}

/// Serialized form of a trained [`EnsembleDetector`]: the fusion quorum
/// plus one full [`DetectorSpec`] per member.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleSpec {
    /// [`ENSEMBLE_SCHEMA_VERSION`] at the time the spec was written.
    pub schema_version: u32,
    /// Member votes required to flag a frame novel.
    pub quorum: u32,
    /// The member detectors, in backend-id order.
    pub members: Vec<DetectorSpec>,
}

/// Either kind of detector file, as loaded by [`load_any`].
#[derive(Debug)]
pub enum LoadedDetector {
    /// A single calibrated backend.
    Single(NoveltyDetector),
    /// A fused ensemble.
    Ensemble(EnsembleDetector),
}

impl LoadedDetector {
    /// The common [`Detector`] face of whichever variant was loaded.
    pub fn as_detector(&self) -> &dyn Detector {
        match self {
            LoadedDetector::Single(d) => d,
            LoadedDetector::Ensemble(e) => e,
        }
    }

    /// The single detector, when the file held one.
    pub fn as_single(&self) -> Option<&NoveltyDetector> {
        match self {
            LoadedDetector::Single(d) => Some(d),
            LoadedDetector::Ensemble(_) => None,
        }
    }

    /// The ensemble, when the file held one.
    pub fn as_ensemble(&self) -> Option<&EnsembleDetector> {
        match self {
            LoadedDetector::Single(_) => None,
            LoadedDetector::Ensemble(e) => Some(e),
        }
    }
}

/// Extracts a serializable spec from a detector.
///
/// # Errors
///
/// Propagates network spec-extraction errors.
pub fn detector_to_spec(detector: &NoveltyDetector) -> Result<DetectorSpec> {
    let backend = detector.backend();
    let (height, width) = backend.input_size();
    Ok(DetectorSpec {
        schema_version: DETECTOR_SCHEMA_VERSION,
        backend: detector.kind().id().to_string(),
        steering: backend.steering_network().map(to_spec).transpose()?,
        autoencoder: backend
            .classifier()
            .map(|c| to_spec(c.network()))
            .transpose()?,
        height,
        width,
        objective: backend.classifier().map(|c| c.objective().clone()),
        profile: backend.stat_profile().cloned(),
        threshold: detector.threshold(),
        training_scores: detector.training_scores().to_vec(),
    })
}

/// Reconstructs a detector from its spec, verifying the schema version
/// and the backend id against the registry.
///
/// # Errors
///
/// Fails on a schema-version mismatch, an unknown backend id, a payload
/// inconsistent with the named backend, or when any stored network or
/// invariant is invalid.
pub fn detector_from_spec(spec: DetectorSpec) -> Result<NoveltyDetector> {
    if spec.schema_version != DETECTOR_SCHEMA_VERSION {
        return Err(NoveltyError::invalid(
            "load_detector",
            format!(
                "detector file has schema version {}, but this build reads version {} — \
                 retrain the detector or load it with a matching build",
                spec.schema_version, DETECTOR_SCHEMA_VERSION
            ),
        ));
    }
    let kind = BackendKind::from_id(&spec.backend).ok_or_else(|| {
        let known: Vec<&str> = BackendKind::all().iter().map(|k| k.id()).collect();
        NoveltyError::invalid(
            "load_detector",
            format!(
                "unknown backend `{}` (this build registers: {})",
                spec.backend,
                known.join(", ")
            ),
        )
    })?;
    let detector = match kind {
        BackendKind::ModelChar => {
            let steering = spec.steering.ok_or_else(|| {
                NoveltyError::invalid(
                    "load_detector",
                    "model-char detector file carries no steering network",
                )
            })?;
            let profile = spec.profile.ok_or_else(|| {
                NoveltyError::invalid(
                    "load_detector",
                    "model-char detector file carries no statistics profile",
                )
            })?;
            let backend = ModelCharBackend::from_parts(
                from_spec(steering)?,
                spec.height,
                spec.width,
                profile,
            )?;
            NoveltyDetector::from_backend(Box::new(backend), spec.threshold, spec.training_scores)?
        }
        BackendKind::RawMse | BackendKind::VbpMse | BackendKind::VbpSsim => {
            let autoencoder = spec.autoencoder.ok_or_else(|| {
                NoveltyError::invalid(
                    "load_detector",
                    format!("{} detector file carries no autoencoder", spec.backend),
                )
            })?;
            let objective = spec.objective.ok_or_else(|| {
                NoveltyError::invalid(
                    "load_detector",
                    format!("{} detector file carries no objective", spec.backend),
                )
            })?;
            let steering = spec.steering.map(from_spec).transpose()?;
            let classifier = AutoencoderClassifier::from_parts(
                from_spec(autoencoder)?,
                spec.height,
                spec.width,
                objective,
            )?;
            let preprocessing = kind.preprocessing().ok_or_else(|| {
                NoveltyError::invalid("load_detector", "backend has no preprocessing layer")
            })?;
            NoveltyDetector::from_parts(
                steering,
                classifier,
                spec.threshold,
                preprocessing,
                spec.training_scores,
            )?
        }
    };
    if detector.kind() != kind {
        return Err(NoveltyError::invalid(
            "load_detector",
            format!(
                "detector file names the {} backend but its payload reassembles to {}",
                kind.id(),
                detector.kind().id()
            ),
        ));
    }
    Ok(detector)
}

/// Writes `json` to `path` atomically: the bytes land in a sibling
/// temporary file which is then renamed over `path`, so a crash
/// mid-save leaves either the previous file or the new one — never a
/// truncated document.
pub(crate) fn write_atomic(path: &Path, json: &str) -> Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, json)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

impl NoveltyDetector {
    /// Saves the detector to a JSON file (atomically; see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let spec = detector_to_spec(self)?;
        let json = serde_json::to_string(&spec).map_err(|e| NoveltyError::Serde(e.to_string()))?;
        write_atomic(path.as_ref(), &json)
    }

    /// Loads a detector from a JSON file written by
    /// [`NoveltyDetector::save`].
    ///
    /// Version-2 files (fixed pipeline triple, no backend registry)
    /// load through an explicit migration; files written before the
    /// spec was versioned are rejected with guidance.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors; unknown backends and
    /// incompatible versions are rejected with a message naming what
    /// this build supports.
    pub fn load(path: impl AsRef<Path>) -> Result<NoveltyDetector> {
        let json = std::fs::read_to_string(path)?;
        let spec = match serde_json::from_str::<DetectorSpec>(&json) {
            Ok(spec) => spec,
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("missing field `schema_version`") {
                    return Err(NoveltyError::invalid(
                        "load_detector",
                        format!(
                            "detector file predates schema versioning (version 1), but this \
                             build reads version {DETECTOR_SCHEMA_VERSION} — retrain the detector"
                        ),
                    ));
                }
                if msg.contains("missing field `backend`") {
                    // A versioned file without a backend id is the v2
                    // layout; migrate it if its version checks out.
                    let old: DetectorSpecV2 = serde_json::from_str(&json)
                        .map_err(|e2| NoveltyError::Serde(e2.to_string()))?;
                    if old.schema_version != 2 {
                        return Err(NoveltyError::invalid(
                            "load_detector",
                            format!(
                                "detector file has schema version {}, but this build reads \
                                 version {} (and migrates version 2) — retrain the detector",
                                old.schema_version, DETECTOR_SCHEMA_VERSION
                            ),
                        ));
                    }
                    old.migrate()
                } else {
                    return Err(NoveltyError::Serde(msg));
                }
            }
        };
        detector_from_spec(spec)
    }
}

impl EnsembleDetector {
    /// Saves the ensemble — quorum plus every member — to one JSON file
    /// (atomically; see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let members = self
            .members()
            .iter()
            .map(detector_to_spec)
            .collect::<Result<Vec<DetectorSpec>>>()?;
        let spec = EnsembleSpec {
            schema_version: ENSEMBLE_SCHEMA_VERSION,
            quorum: self.quorum(),
            members,
        };
        let json = serde_json::to_string(&spec).map_err(|e| NoveltyError::Serde(e.to_string()))?;
        write_atomic(path.as_ref(), &json)
    }

    /// Loads an ensemble from a JSON file written by
    /// [`EnsembleDetector::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors; version mismatches
    /// and invalid members are rejected with clear messages.
    pub fn load(path: impl AsRef<Path>) -> Result<EnsembleDetector> {
        let json = std::fs::read_to_string(path)?;
        let spec: EnsembleSpec =
            serde_json::from_str(&json).map_err(|e| NoveltyError::Serde(e.to_string()))?;
        ensemble_from_spec(spec)
    }
}

/// Reconstructs an ensemble from its spec, verifying the schema version
/// and every member.
///
/// # Errors
///
/// Fails on a schema-version mismatch or any invalid member.
pub fn ensemble_from_spec(spec: EnsembleSpec) -> Result<EnsembleDetector> {
    if spec.schema_version != ENSEMBLE_SCHEMA_VERSION {
        return Err(NoveltyError::invalid(
            "load_ensemble",
            format!(
                "ensemble file has schema version {}, but this build reads version {} — \
                 retrain the ensemble or load it with a matching build",
                spec.schema_version, ENSEMBLE_SCHEMA_VERSION
            ),
        ));
    }
    let members = spec
        .members
        .into_iter()
        .map(detector_from_spec)
        .collect::<Result<Vec<NoveltyDetector>>>()?;
    EnsembleDetector::with_quorum(members, spec.quorum)
}

/// Loads either kind of detector file: an [`EnsembleDetector`] bundle
/// or a single [`NoveltyDetector`] (any loadable version).
///
/// # Errors
///
/// Propagates I/O errors; when the file is neither a valid ensemble nor
/// a valid single detector, the single-detector error is returned (the
/// common case, with the migration guidance).
pub fn load_any(path: impl AsRef<Path>) -> Result<LoadedDetector> {
    let path = path.as_ref();
    let json = std::fs::read_to_string(path)?;
    // Single-detector files fail this parse immediately (no `quorum`
    // field), so a valid parse means the file really is an ensemble.
    if let Ok(spec) = serde_json::from_str::<EnsembleSpec>(&json) {
        return Ok(LoadedDetector::Ensemble(ensemble_from_spec(spec)?));
    }
    Ok(LoadedDetector::Single(NoveltyDetector::load(path)?))
}

/// Saves a detector to a JSON file (wrapper for
/// [`NoveltyDetector::save`], kept for existing callers).
///
/// # Errors
///
/// Propagates serialization and I/O errors.
pub fn save_detector(detector: &NoveltyDetector, path: impl AsRef<Path>) -> Result<()> {
    detector.save(path)
}

/// Loads a detector from a JSON file (wrapper for
/// [`NoveltyDetector::load`], kept for existing callers).
///
/// # Errors
///
/// Propagates I/O and deserialization errors.
pub fn load_detector(path: impl AsRef<Path>) -> Result<NoveltyDetector> {
    NoveltyDetector::load(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierConfig, NoveltyDetectorBuilder};
    use simdrive::DatasetConfig;

    fn trained() -> (NoveltyDetector, simdrive::DrivingDataset) {
        let data = DatasetConfig::indoor()
            .with_len(16)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(21);
        let detector = NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![12, 6, 12],
                epochs: 4,
                warmup_epochs: 1,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(5)
            .train(&data)
            .unwrap();
        (detector, data)
    }

    #[test]
    fn detector_roundtrips_through_spec() {
        let (detector, data) = trained();
        let img = &data.frames()[0].image;
        let before = detector.score(img).unwrap();
        let spec = detector_to_spec(&detector).unwrap();
        assert_eq!(spec.schema_version, DETECTOR_SCHEMA_VERSION);
        assert_eq!(spec.backend, "vbp+ssim");
        let back = detector_from_spec(spec).unwrap();
        let after = back.score(img).unwrap();
        assert_eq!(before, after);
        assert_eq!(back.threshold(), detector.threshold());
        assert_eq!(back.preprocessing(), detector.preprocessing());
        assert_eq!(back.training_scores(), detector.training_scores());
        assert_eq!(back.kind(), detector.kind());
    }

    #[test]
    fn model_char_detector_roundtrips_through_file() {
        let data = DatasetConfig::indoor()
            .with_len(16)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(23);
        let detector = NoveltyDetectorBuilder::model_characterization()
            .cnn_epochs(1)
            .seed(6)
            .train(&data)
            .unwrap();
        let dir = std::env::temp_dir().join("saliency_novelty_persist_mc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model_char.json");
        detector.save(&path).unwrap();
        let back = NoveltyDetector::load(&path).unwrap();
        assert_eq!(back.kind(), BackendKind::ModelChar);
        for frame in data.frames().iter().take(3) {
            assert_eq!(
                detector.classify(&frame.image).unwrap(),
                back.classify(&frame.image).unwrap()
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_roundtrip_preserves_verdicts() {
        let (detector, data) = trained();
        let dir = std::env::temp_dir().join("saliency_novelty_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("detector.json");
        detector.save(&path).unwrap();
        let back = NoveltyDetector::load(&path).unwrap();
        for frame in data.frames().iter().take(3) {
            let a = detector.classify(&frame.image).unwrap();
            let b = back.classify(&frame.image).unwrap();
            assert_eq!(a, b);
        }
        // The free-function wrappers read the same file.
        let back2 = load_detector(&path).unwrap();
        assert_eq!(back2.threshold(), detector.threshold());
        // `load_any` recognizes it as a single detector.
        let any = load_any(&path).unwrap();
        assert!(any.as_single().is_some());
        assert!(any.as_ensemble().is_none());
        assert_eq!(any.as_detector().input_size(), detector.input_size());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ensemble_file_roundtrips_and_load_any_routes_it() {
        let data = DatasetConfig::indoor()
            .with_len(16)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(29);
        let base = NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![12, 6, 12],
                epochs: 3,
                warmup_epochs: 1,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(7);
        let kinds = [BackendKind::RawMse, BackendKind::VbpSsim];
        let ensemble = EnsembleDetector::train(&base, &kinds, &data, obs::noop()).unwrap();
        let dir = std::env::temp_dir().join("saliency_novelty_persist_ens");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ensemble.json");
        ensemble.save(&path).unwrap();
        let back = EnsembleDetector::load(&path).unwrap();
        assert_eq!(back.quorum(), ensemble.quorum());
        assert_eq!(back.members().len(), 2);
        let img = &data.frames()[0].image;
        assert_eq!(
            Detector::classify(&ensemble, img).unwrap(),
            Detector::classify(&back, img).unwrap()
        );
        let any = load_any(&path).unwrap();
        assert!(any.as_ensemble().is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_files_migrate_to_the_backend_registry() {
        let (detector, data) = trained();
        let spec = detector_to_spec(&detector).unwrap();
        // Reconstruct the exact v2 layout from the current spec.
        let old = DetectorSpecV2 {
            schema_version: 2,
            steering: spec.steering.clone(),
            autoencoder: spec.autoencoder.clone().unwrap(),
            height: spec.height,
            width: spec.width,
            objective: spec.objective.clone().unwrap(),
            preprocessing: Preprocessing::Vbp,
            threshold: spec.threshold,
            training_scores: spec.training_scores.clone(),
        };
        let dir = std::env::temp_dir().join("saliency_novelty_persist_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.json");
        std::fs::write(&path, serde_json::to_string(&old).unwrap()).unwrap();
        let back = NoveltyDetector::load(&path).unwrap();
        assert_eq!(back.kind(), BackendKind::VbpSsim);
        let img = &data.frames()[0].image;
        assert_eq!(
            detector.score(img).unwrap().to_bits(),
            back.score(img).unwrap().to_bits()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_backends_are_rejected_with_the_registry() {
        let (detector, _) = trained();
        let mut spec = detector_to_spec(&detector).unwrap();
        spec.backend = "warp-core".to_string();
        let err = detector_from_spec(spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown backend `warp-core`"), "{msg}");
        assert!(msg.contains("vbp+ssim"), "{msg}");
        assert!(msg.contains("model-char"), "{msg}");
    }

    #[test]
    fn mismatched_backend_payload_is_rejected() {
        let (detector, _) = trained();
        let mut spec = detector_to_spec(&detector).unwrap();
        // The payload reassembles to vbp+ssim, not the named vbp+mse.
        spec.backend = "vbp+mse".to_string();
        let err = detector_from_spec(spec).unwrap_err();
        assert!(err.to_string().contains("reassembles"), "{err}");
    }

    #[test]
    fn schema_version_mismatch_is_a_clear_error() {
        let (detector, _) = trained();
        let mut spec = detector_to_spec(&detector).unwrap();
        spec.schema_version = DETECTOR_SCHEMA_VERSION + 7;
        let err = detector_from_spec(spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("schema version"), "{msg}");
        assert!(msg.contains(&DETECTOR_SCHEMA_VERSION.to_string()), "{msg}");
    }

    #[test]
    fn pre_versioning_files_are_rejected_with_guidance() {
        let (detector, _) = trained();
        let dir = std::env::temp_dir().join("saliency_novelty_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        // Simulate a v1 file: serialize, then strip the version field.
        let spec = detector_to_spec(&detector).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let needle = format!("\"schema_version\":{DETECTOR_SCHEMA_VERSION},");
        let old_json = json.replacen(&needle, "", 1);
        assert_ne!(json, old_json, "expected to strip the version field");
        std::fs::write(&path, old_json).unwrap();
        let err = NoveltyDetector::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("predates schema versioning"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_fails_load_and_atomic_save_leaves_no_temp() {
        let (detector, data) = trained();
        let dir = std::env::temp_dir().join("saliency_novelty_persist_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("detector.json");
        detector.save(&path).unwrap();
        // The temp file used for the atomic write must be gone.
        assert!(!dir.join("detector.json.tmp").exists());

        // Simulate a crash mid-write under the old non-atomic scheme:
        // the target file holds only a prefix of the JSON.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = NoveltyDetector::load(&path).unwrap_err();
        assert!(matches!(err, NoveltyError::Serde(_)), "{err}");
        assert!(load_any(&path).is_err());

        // Saving again over the corrupt file restores a loadable one.
        detector.save(&path).unwrap();
        let back = NoveltyDetector::load(&path).unwrap();
        let img = &data.frames()[0].image;
        assert_eq!(detector.classify(img).unwrap(), back.classify(img).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_files_are_rejected() {
        let dir = std::env::temp_dir().join("saliency_novelty_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(NoveltyDetector::load(&path).is_err());
        assert!(NoveltyDetector::load(dir.join("missing.json")).is_err());
        assert!(load_any(dir.join("missing.json")).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
