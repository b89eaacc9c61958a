//! Ensemble detection: several calibrated backends, one fused verdict.
//!
//! Each member is a full [`NoveltyDetector`] — its own backend, its own
//! 99th-percentile threshold, its own training-score ECDF. Fusion works
//! on the only scale the members share: every member's score is mapped
//! through its *own* calibration ECDF to a percentile rank, the rank is
//! reoriented so higher always means more novel
//! ([`BackendScore::oriented_rank`]), and the fused score is the mean
//! of the **two strongest** oriented ranks (top-2 corroboration). A
//! plain mean lets weak members drag a confident one back toward
//! chance, while a pure max saturates on a single calibration outlier;
//! averaging the two strongest ranks needs a second member to
//! corroborate before the fused score maxes out, and empirically
//! dominates both on the cross-domain grid. The fused *decision* is a
//! vote: the ensemble flags a frame novel when at least `quorum`
//! members do (each member voting with its own calibrated threshold,
//! exactly as it would alone).
//!
//! Determinism: [`fuse_verdict`] sorts the member scores by backend id,
//! then selects the top ranks under `f32::total_cmp` and accumulates in
//! that fixed order, so the fused verdict is bit-identical no matter
//! what order the members were scored in.

use neural::serialize::clone_network;
use obs::{Recorder, Scoped};
use simdrive::DrivingDataset;
use vision::Image;

use crate::backend::{BackendKind, Detector};
use crate::pipeline::{BackendScore, NoveltyDetector, NoveltyDetectorBuilder, Verdict};
use crate::{NoveltyError, Result};

/// Fuses per-member [`BackendScore`]s into one ensemble [`Verdict`].
///
/// The fusion is a pure function of the (unordered) set of member
/// scores and the quorum:
///
/// * `novel_votes` counts members whose own threshold flagged the frame;
/// * the verdict is novel iff `novel_votes >= quorum`;
/// * `score` (= `percentile_rank`) is the mean of the `min(2, n)`
///   largest oriented ranks — top-2 corroboration fusion. Ranks are
///   ordered with `f32::total_cmp` over the backend-id-sorted members,
///   so the selection and the sum are independent of input order;
/// * `threshold` reports the vote bar on the same `[0, 100]` scale:
///   `100 * quorum / total_votes`.
///
/// An empty slice fuses to a non-novel verdict with zero votes.
pub fn fuse_verdict(scores: &[BackendScore], quorum: u32) -> Verdict {
    let mut members = scores.to_vec(); // sncheck:allow(hot-path-transitive-alloc): verdict fusion sorts a copy of the 2-4 member scores; the input slice is caller-owned and must stay unsorted
    members.sort_by(|a, b| a.backend.cmp(b.backend));
    let total_votes = members.len() as u32;
    let novel_votes = members.iter().filter(|s| s.is_novel).count() as u32;
    let fused = if members.is_empty() {
        0.0
    } else {
        let mut ranks: Vec<f32> = members.iter().map(BackendScore::oriented_rank).collect();
        // Descending total order; stable on the id-sorted members, so
        // the top-2 pick (and the sum order) is input-order-free.
        ranks.sort_by(|a, b| b.total_cmp(a));
        ranks.truncate(2);
        let mut sum = 0.0f32;
        for r in &ranks {
            sum += r;
        }
        sum / ranks.len() as f32
    };
    let threshold = if total_votes == 0 {
        100.0
    } else {
        100.0 * quorum as f32 / total_votes as f32
    };
    Verdict {
        is_novel: novel_votes >= quorum && total_votes > 0,
        score: fused,
        threshold,
        direction: crate::Direction::HigherIsNovel,
        percentile_rank: fused,
        backend: "ensemble",
        novel_votes,
        total_votes,
        backends: members,
    }
}

/// Several calibrated detectors fused by vote: novel when at least
/// `quorum` members flag the frame. Members are kept sorted by backend
/// id, so every fused verdict lists them in the same order.
#[derive(Debug)]
pub struct EnsembleDetector {
    members: Vec<NoveltyDetector>,
    quorum: u32,
}

impl EnsembleDetector {
    /// Assembles an ensemble with a majority quorum
    /// (`n / 2 + 1` of `n` members).
    ///
    /// # Errors
    ///
    /// Fails on zero members, duplicate backends, or mismatched frame
    /// geometries.
    pub fn new(members: Vec<NoveltyDetector>) -> Result<Self> {
        let quorum = members.len() as u32 / 2 + 1;
        Self::with_quorum(members, quorum)
    }

    /// Assembles an ensemble with an explicit quorum.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EnsembleDetector::new`], plus a quorum
    /// outside `[1, members.len()]`.
    pub fn with_quorum(mut members: Vec<NoveltyDetector>, quorum: u32) -> Result<Self> {
        if members.is_empty() {
            return Err(NoveltyError::invalid(
                "EnsembleDetector",
                "an ensemble needs at least one member",
            ));
        }
        if quorum == 0 || quorum as usize > members.len() {
            return Err(NoveltyError::invalid(
                "EnsembleDetector",
                format!("quorum must be in [1, {}], got {quorum}", members.len()),
            ));
        }
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if members[i].kind() == members[j].kind() {
                    return Err(NoveltyError::invalid(
                        "EnsembleDetector",
                        format!("duplicate {} member", members[i].kind().id()),
                    ));
                }
            }
            if members[i].input_size() != members[0].input_size() {
                return Err(NoveltyError::invalid(
                    "EnsembleDetector",
                    format!(
                        "member {} expects {:?} frames but member {} expects {:?}",
                        members[i].kind().id(),
                        members[i].input_size(),
                        members[0].kind().id(),
                        members[0].input_size()
                    ),
                ));
            }
        }
        members.sort_by(|a, b| a.kind().id().cmp(b.kind().id()));
        Ok(EnsembleDetector { members, quorum })
    }

    /// The member detectors, sorted by backend id.
    pub fn members(&self) -> &[NoveltyDetector] {
        &self.members
    }

    /// How many member votes flag a frame novel.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }

    /// Trains one member per requested backend from a shared base
    /// configuration and fuses them with a majority quorum.
    ///
    /// When any member needs the steering CNN it is trained **once**
    /// (under the usual `cnn-train` stage) and cloned into each member,
    /// which is bit-identical to training it per member — the clone is
    /// an exact parameter copy and the training seeds derive from the
    /// shared base seed. Each member then trains under a
    /// `backend-train-<id>` stage, with its internal stages scoped as
    /// `<id>.*`. Pass [`obs::noop`] as `recorder` to record nothing;
    /// recording never changes the trained members.
    ///
    /// # Errors
    ///
    /// Fails on an empty or duplicated backend list, or when any member
    /// fails to train.
    pub fn train(
        base: &NoveltyDetectorBuilder,
        kinds: &[BackendKind],
        dataset: &DrivingDataset,
        recorder: &dyn Recorder,
    ) -> Result<EnsembleDetector> {
        if kinds.is_empty() {
            return Err(NoveltyError::invalid(
                "EnsembleDetector",
                "an ensemble needs at least one backend",
            ));
        }
        let needs_cnn = kinds.iter().any(|k| *k != BackendKind::RawMse);
        let shared_cnn = if needs_cnn {
            let (train_split, _held_out) = dataset.split(base.train_fraction_value());
            Some(base.train_steering_cnn(&train_split, recorder)?)
        } else {
            None
        };
        let mut members = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let pretrained = match &shared_cnn {
                Some(net) => Some(clone_network(net)?),
                None => None,
            };
            let scoped = Scoped::new(recorder, kind.id());
            let stage = format!("backend-train-{}", kind.id());
            let member = obs::time(recorder, &stage, || {
                base.clone()
                    .backend(*kind)
                    .train_with_cnn(dataset, pretrained, &scoped)
            })?;
            members.push(member);
        }
        EnsembleDetector::new(members)
    }
}

impl Detector for EnsembleDetector {
    fn input_size(&self) -> (usize, usize) {
        self.members[0].input_size()
    }

    fn classify(&self, image: &Image) -> Result<Verdict> {
        let mut scores = Vec::with_capacity(self.members.len()); // sncheck:allow(hot-path-transitive-alloc): one score slot per ensemble member (2-4), per verdict
        for member in &self.members {
            let score = member.score(image)?;
            scores.push(member.backend_score(score));
        }
        Ok(fuse_verdict(&scores, self.quorum))
    }

    fn classify_batch(&self, images: &[Image], recorder: &dyn Recorder) -> Result<Vec<Verdict>> {
        // Score the whole batch per member (each under its own scoped
        // `<id>.scoring` stage), then fuse column-wise. The per-member
        // batches are bit-identical to scoring each image alone, so the
        // fused verdicts match `classify` exactly.
        let mut columns = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let scoped = Scoped::new(recorder, member.kind().id());
            columns.push(member.score_batch_recorded(images, &scoped)?);
        }
        let mut fused = Vec::with_capacity(images.len());
        let mut scores = Vec::with_capacity(self.members.len());
        for i in 0..images.len() {
            scores.clear();
            for (member, column) in self.members.iter().zip(&columns) {
                scores.push(member.backend_score(column[i]));
            }
            fused.push(fuse_verdict(&scores, self.quorum));
        }
        Ok(fused)
    }

    fn label(&self) -> String {
        let ids: Vec<&str> = self.members.iter().map(|m| m.kind().id()).collect();
        format!("ensemble({})", ids.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierConfig, Direction, ReconstructionObjective};
    use simdrive::DatasetConfig;

    fn tiny_dataset(seed: u64) -> DrivingDataset {
        DatasetConfig::outdoor()
            .with_len(24)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(seed)
    }

    fn fast_base() -> NoveltyDetectorBuilder {
        NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 4,
                warmup_epochs: 1,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(1)
    }

    fn score(backend: &'static str, rank: f32, novel: bool) -> BackendScore {
        BackendScore {
            backend,
            score: rank,
            threshold: 0.5,
            direction: Direction::HigherIsNovel,
            percentile_rank: rank,
            is_novel: novel,
        }
    }

    #[test]
    fn fusion_is_order_independent_and_votes_count() {
        let a = score("raw+mse", 10.0, false);
        let b = score("vbp+ssim", 90.0, true);
        let c = score("model-char", 80.0, true);
        let forward = fuse_verdict(&[a, b, c], 2);
        let shuffled = fuse_verdict(&[c, a, b], 2);
        assert_eq!(forward, shuffled);
        assert!(forward.is_novel);
        assert_eq!(forward.novel_votes, 2);
        assert_eq!(forward.total_votes, 3);
        assert_eq!(forward.backend, "ensemble");
        // Top-2 corroboration: the weakest rank (10) is excluded.
        assert_eq!(forward.score, (80.0 + 90.0) / 2.0);
        // Members are listed in backend-id order.
        let ids: Vec<&str> = forward.backends.iter().map(|s| s.backend).collect();
        assert_eq!(ids, ["model-char", "raw+mse", "vbp+ssim"]);
        // Below quorum: not novel.
        assert!(!fuse_verdict(&[a, b, c], 3).is_novel);
        // Empty fuse: inert verdict.
        let empty = fuse_verdict(&[], 1);
        assert!(!empty.is_novel);
        assert_eq!(empty.total_votes, 0);
    }

    #[test]
    fn lower_is_novel_ranks_are_reoriented() {
        let mut s = score("vbp+ssim", 5.0, true);
        s.direction = Direction::LowerIsNovel;
        // Rank 5 under LowerIsNovel means deep in the novel tail.
        assert_eq!(s.oriented_rank(), 95.0);
        let v = fuse_verdict(&[s], 1);
        assert_eq!(v.score, 95.0);
        assert!(v.is_novel);
    }

    #[test]
    fn ensemble_trains_fuses_and_validates() {
        let data = tiny_dataset(5);
        let kinds = [BackendKind::RawMse, BackendKind::VbpSsim];
        let ensemble = EnsembleDetector::train(&fast_base(), &kinds, &data, obs::noop()).unwrap();
        assert_eq!(ensemble.members().len(), 2);
        assert_eq!(ensemble.quorum(), 2);
        assert_eq!(ensemble.input_size(), (40, 80));
        assert_eq!(ensemble.label(), "ensemble(raw+mse,vbp+ssim)");

        // The shared-CNN member is bit-identical to training standalone.
        let standalone = fast_base().train(&data).unwrap();
        let vbp_member = &ensemble.members()[1];
        assert_eq!(vbp_member.kind(), BackendKind::VbpSsim);
        assert_eq!(vbp_member.training_scores(), standalone.training_scores());
        assert_eq!(
            vbp_member.threshold().value(),
            standalone.threshold().value()
        );

        // Fused verdicts carry every member and match batch classification.
        let img = &data.frames()[0].image;
        let v = ensemble.classify(img).unwrap();
        assert_eq!(v.total_votes, 2);
        assert_eq!(v.backends.len(), 2);
        let batch = ensemble
            .classify_batch(std::slice::from_ref(img), obs::noop())
            .unwrap();
        assert_eq!(batch[0], v);

        // Validation: empty, bad quorum, duplicate members.
        assert!(EnsembleDetector::new(Vec::new()).is_err());
        assert!(EnsembleDetector::train(&fast_base(), &[], &data, obs::noop()).is_err());
        let dup_a = fast_base().train(&data).unwrap();
        let dup_b = fast_base().train(&data).unwrap();
        assert!(EnsembleDetector::new(vec![dup_a, dup_b]).is_err());
        let lone = fast_base().train(&data).unwrap();
        assert!(EnsembleDetector::with_quorum(vec![lone], 2).is_err());
    }
}
