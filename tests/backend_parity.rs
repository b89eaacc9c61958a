//! Backend-registry parity harness.
//!
//! The `ScoreBackend` refactor must be a pure re-plumbing: each of the
//! paper's three legacy pipelines, trained and scored *through the
//! trait*, has to produce bit-identical scores and byte-identical
//! persisted specs on every same-seed run. Every batch entry point runs the
//! one stacked scoring path, which must give per-image `classify`'s
//! score bits for every backend and an ensemble, at any batch size
//! around the 64-row scoring chunk. The ensemble layer on top must
//! fuse deterministically: `fuse_verdict` is a pure function of the
//! (unordered) member-score set and the quorum, order-independent and
//! monotone in both the oriented ranks and the votes.

use novelty::{
    detector_to_spec, fuse_verdict, BackendKind, BackendScore, Detector, Direction,
    EnsembleDetector, NoveltyDetectorBuilder, Verdict,
};
use proptest::prelude::*;
use simdrive::{DatasetConfig, DrivingDataset};
use vision::Image;

fn tiny_dataset(seed: u64) -> DrivingDataset {
    DatasetConfig::outdoor()
        .with_len(16)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(seed)
}

fn probe_images() -> Vec<Image> {
    (0..5)
        .map(|s| {
            Image::from_fn(40, 80, |y, x| ((y * 7 + x * 3 + s * 11) % 31) as f32 / 30.0).unwrap()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every legacy pipeline, trained twice with one seed and scored through
/// the `ScoreBackend` trait, is bit-identical between the two runs —
/// scores, calibration, and the persisted JSON spec alike — and its
/// batch verdicts carry per-image `score`'s bits.
#[test]
fn legacy_backends_are_deterministic_through_the_trait() {
    let data = tiny_dataset(41);
    let probes = probe_images();

    for kind in BackendKind::legacy() {
        let build = || {
            NoveltyDetectorBuilder::for_kind(kind)
                .cnn_epochs(1)
                .ae_epochs(2)
                .seed(13)
                .train(&data)
                .expect("tiny detector trains")
        };

        let reference = build();
        let ref_scores: Vec<f32> = probes
            .iter()
            .map(|img| reference.score(img).unwrap())
            .collect();
        let ref_spec = serde_json::to_string(&detector_to_spec(&reference).unwrap()).unwrap();

        let detector = build();
        assert_eq!(detector.kind(), kind);
        assert_eq!(
            bits(detector.training_scores()),
            bits(reference.training_scores()),
            "{} training scores",
            kind.id()
        );
        assert_eq!(
            detector.threshold().value().to_bits(),
            reference.threshold().value().to_bits(),
            "{} threshold",
            kind.id()
        );
        // Batch scoring through the trait object matches per-image
        // scoring bit for bit.
        let batch = detector.classify_batch(&probes, obs::noop()).unwrap();
        let scores: Vec<f32> = batch.iter().map(|v| v.score).collect();
        assert_eq!(bits(&scores), bits(&ref_scores), "{} scores", kind.id());
        for (verdict, score) in batch.iter().zip(&ref_scores) {
            assert_eq!(verdict.backend, kind.id());
            assert_eq!(verdict.score.to_bits(), score.to_bits());
            assert_eq!(verdict.total_votes, 1);
        }
        // The persisted spec is byte-identical, so same-seed runs
        // write the same detector file.
        let spec = serde_json::to_string(&detector_to_spec(&detector).unwrap()).unwrap();
        assert_eq!(spec, ref_spec, "{} spec JSON", kind.id());
    }
}

/// A verdict's score bits followed by those of its members, so an
/// ensemble verdict is compared member by member too.
fn verdict_bits(v: &Verdict) -> Vec<u32> {
    std::iter::once(v.score)
        .chain(v.backends.iter().map(|b| b.score))
        .map(f32::to_bits)
        .collect()
}

/// `classify_batch`, `classify_each` and `score_batch` all run the one
/// stacked scoring path (autoencoder passes of 64 rows). For every
/// backend and a two-member ensemble, at batch sizes on both sides of
/// one and two chunks, each must return per-image `classify`'s verdicts
/// with the same score bits. In
/// `classify_each` a NaN frame and a wrong-size frame fail only their
/// own slots, and `classify_batch` fails with the first of them.
#[test]
fn batch_paths_match_classify_bitwise_around_the_scoring_chunk() {
    let data = tiny_dataset(41);
    let frames: Vec<Image> = DatasetConfig::outdoor()
        .with_len(130)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(43)
        .frames()
        .iter()
        .map(|f| f.image.clone())
        .collect();
    let mut mixed = frames.clone();
    mixed[3] = Image::from_fn(40, 80, |_, _| f32::NAN).unwrap();
    mixed[64] = Image::from_fn(40, 81, |_, _| 0.5).unwrap();

    let base = NoveltyDetectorBuilder::paper()
        .cnn_epochs(1)
        .ae_epochs(2)
        .seed(13);
    let singles = EnsembleDetector::train(&base, &BackendKind::all(), &data, obs::noop()).unwrap();
    let pair = EnsembleDetector::train(
        &base,
        &[BackendKind::RawMse, BackendKind::VbpSsim],
        &data,
        obs::noop(),
    )
    .unwrap();
    let mut detectors: Vec<&dyn Detector> = singles
        .members()
        .iter()
        .map(|m| m as &dyn Detector)
        .collect();
    detectors.push(&pair);

    for detector in &detectors {
        let label = detector.label();
        let reference: Vec<Verdict> = frames
            .iter()
            .map(|f| detector.classify(f).unwrap())
            .collect();
        for n in [1usize, 63, 64, 65, 130] {
            let batch = detector.classify_batch(&frames[..n], obs::noop()).unwrap();
            let each: Vec<Verdict> = detector
                .classify_each(&frames[..n], obs::noop())
                .into_iter()
                .map(Result::unwrap)
                .collect();
            for verdicts in [&batch, &each] {
                assert_eq!(verdicts.len(), n, "{label} n={n}");
                for (i, (got, want)) in verdicts.iter().zip(&reference).enumerate() {
                    assert_eq!(got, want, "{label} n={n} frame {i}");
                    assert_eq!(
                        verdict_bits(got),
                        verdict_bits(want),
                        "{label} n={n} frame {i}"
                    );
                }
            }
        }

        let each = detector.classify_each(&mixed, obs::noop());
        assert_eq!(each.len(), mixed.len(), "{label}");
        for (i, verdict) in each.iter().enumerate() {
            match i {
                3 | 64 => assert!(verdict.is_err(), "{label}: bad frame {i} scored"),
                _ => assert_eq!(
                    verdict_bits(verdict.as_ref().unwrap()),
                    verdict_bits(&reference[i]),
                    "{label}: frame {i}"
                ),
            }
        }
        let first_error = detector.classify_batch(&mixed, obs::noop()).unwrap_err();
        assert!(
            first_error.to_string().contains("NaN"),
            "{label}: {first_error}"
        );
    }

    for member in singles.members().iter().chain(pair.members()) {
        let reference: Vec<f32> = frames.iter().map(|f| member.score(f).unwrap()).collect();
        for n in [1usize, 63, 64, 65, 130] {
            assert_eq!(
                bits(&member.score_batch(&frames[..n]).unwrap()),
                bits(&reference[..n]),
                "{} score_batch n={n}",
                member.kind().id()
            );
        }
    }
}

/// The distinct backend ids member scores can carry (fusion sorts by
/// id; real ensembles never hold duplicates).
const IDS: [&str; 6] = [
    "raw+mse",
    "vbp+mse",
    "vbp+ssim",
    "model-char",
    "aux-a",
    "aux-b",
];

fn member(backend: &'static str, rank: f32, novel: bool, lower_is_novel: bool) -> BackendScore {
    BackendScore {
        backend,
        score: rank,
        threshold: 50.0,
        direction: if lower_is_novel {
            Direction::LowerIsNovel
        } else {
            Direction::HigherIsNovel
        },
        percentile_rank: rank,
        is_novel: novel,
    }
}

/// Materialises raw `(rank, novel, lower_is_novel)` draws into member
/// scores with distinct backend ids (fusion sorts by id; real ensembles
/// never hold duplicates).
fn make_members(raw: &[(f32, u8, u8)]) -> Vec<BackendScore> {
    raw.iter()
        .enumerate()
        .map(|(i, &(rank, novel, lower))| member(IDS[i], rank, novel == 1, lower == 1))
        .collect()
}

/// Deterministically permutes `v` from a seed (Fisher–Yates over a
/// splitmix-style stream), so order-independence is exercised without
/// relying on ambient randomness.
fn permute<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fusion is a pure function: the same member set fuses to the same
    /// verdict, bit for bit, no matter how the members are ordered.
    #[test]
    fn fusion_is_deterministic_and_order_independent(
        raw in collection::vec((0.0f32..100.0, 0u8..2, 0u8..2), 1..7),
        quorum_frac in 0.0f64..1.0,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let members = make_members(&raw);
        let quorum = 1 + (quorum_frac * (members.len() - 1) as f64) as u32;
        let once = fuse_verdict(&members, quorum);
        let again = fuse_verdict(&members, quorum);
        prop_assert_eq!(&once, &again);
        let shuffled = fuse_verdict(&permute(members.clone(), shuffle_seed), quorum);
        prop_assert_eq!(once.score.to_bits(), shuffled.score.to_bits());
        prop_assert_eq!(&once, &shuffled);

        // Bookkeeping invariants.
        prop_assert_eq!(once.backend, "ensemble");
        prop_assert_eq!(once.total_votes as usize, members.len());
        let votes = members.iter().filter(|m| m.is_novel).count() as u32;
        prop_assert_eq!(once.novel_votes, votes);
        prop_assert_eq!(once.is_novel, votes >= quorum);
        prop_assert!((0.0..=100.0).contains(&once.score));
    }

    /// Raising one member's oriented rank (everything else fixed) never
    /// lowers the fused score, and flipping one member's vote to novel
    /// never un-flags the frame.
    #[test]
    fn fusion_is_monotone_in_ranks_and_votes(
        raw in collection::vec((0.0f32..100.0, 0u8..2, 0u8..2), 1..7),
        which_frac in 0.0f64..1.0,
        bump_frac in 0.0f64..1.0,
    ) {
        let members = make_members(&raw);
        let quorum = (members.len() as u32 / 2) + 1;
        let which = (which_frac * (members.len() - 1) as f64) as usize;
        let before = fuse_verdict(&members, quorum);

        // Oriented rank is `rank` under HigherIsNovel and `100 - rank`
        // under LowerIsNovel; bump it by moving the raw rank the right
        // way within [0, 100].
        let mut bumped = members.clone();
        let old = bumped[which].percentile_rank;
        let rank = match bumped[which].direction {
            Direction::HigherIsNovel => old + (bump_frac as f32) * (100.0 - old),
            Direction::LowerIsNovel => old - (bump_frac as f32) * old,
        };
        bumped[which].percentile_rank = rank;
        prop_assert!(bumped[which].oriented_rank() >= members[which].oriented_rank());
        let after = fuse_verdict(&bumped, quorum);
        prop_assert!(
            after.score >= before.score,
            "fused score dropped: {} -> {}", before.score, after.score
        );

        let mut voted = members.clone();
        voted[which].is_novel = true;
        let after_vote = fuse_verdict(&voted, quorum);
        prop_assert!(after_vote.novel_votes >= before.novel_votes);
        // A novel verdict can only be strengthened by another vote.
        prop_assert!(!before.is_novel || after_vote.is_novel);
    }
}
