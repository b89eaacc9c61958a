//! Backend-registry parity harness.
//!
//! The `ScoreBackend` refactor must be a pure re-plumbing: each of the
//! paper's three legacy pipelines, trained and scored *through the
//! trait*, has to produce bit-identical scores and byte-identical
//! persisted specs at any thread count. The ensemble layer on top must
//! fuse deterministically: `fuse_verdict` is a pure function of the
//! (unordered) member-score set and the quorum, order-independent and
//! monotone in both the oriented ranks and the votes.
//!
//! Thread-config tests mutate process-global state and serialise on one
//! mutex, same as `parallel_parity.rs`.

use std::sync::Mutex;

use ndtensor::{set_thread_config, ThreadConfig};
use novelty::{
    detector_to_spec, fuse_verdict, BackendKind, BackendScore, Detector, Direction,
    NoveltyDetectorBuilder,
};
use proptest::prelude::*;
use simdrive::{DatasetConfig, DrivingDataset};
use vision::Image;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the environment-derived config when dropped, so a failing
/// test does not leak its thread count into later tests.
struct ConfigRestore;

impl Drop for ConfigRestore {
    fn drop(&mut self) {
        set_thread_config(ThreadConfig::from_env());
    }
}

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

/// Every legacy pipeline, trained and scored through the `ScoreBackend`
/// trait, is bit-identical between one worker thread and four — scores,
/// calibration, and the persisted JSON spec alike.
#[test]
fn legacy_backends_are_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
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

        set_thread_config(ThreadConfig::serial());
        let reference = build();
        let ref_scores: Vec<f32> = probes
            .iter()
            .map(|img| reference.score(img).unwrap())
            .collect();
        let ref_spec = serde_json::to_string(&detector_to_spec(&reference).unwrap()).unwrap();

        for threads in [1usize, 4] {
            set_thread_config(ThreadConfig::new(threads));
            let detector = build();
            assert_eq!(detector.kind(), kind);
            assert_eq!(
                bits(detector.training_scores()),
                bits(reference.training_scores()),
                "{} training scores, threads={threads}",
                kind.id()
            );
            assert_eq!(
                detector.threshold().value().to_bits(),
                reference.threshold().value().to_bits(),
                "{} threshold, threads={threads}",
                kind.id()
            );
            // Scoring through the trait object (the batch path fans out
            // over the pool) matches the serial reference bit for bit.
            let batch = detector.classify_batch(&probes, obs::noop()).unwrap();
            let scores: Vec<f32> = batch.iter().map(|v| v.score).collect();
            assert_eq!(
                bits(&scores),
                bits(&ref_scores),
                "{} scores, threads={threads}",
                kind.id()
            );
            for (verdict, score) in batch.iter().zip(&ref_scores) {
                assert_eq!(verdict.backend, kind.id());
                assert_eq!(verdict.score.to_bits(), score.to_bits());
                assert_eq!(verdict.total_votes, 1);
            }
            // The persisted spec is byte-identical, so same-seed runs
            // write the same detector file at any thread count.
            let spec = serde_json::to_string(&detector_to_spec(&detector).unwrap()).unwrap();
            assert_eq!(spec, ref_spec, "{} spec JSON, threads={threads}", kind.id());
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
