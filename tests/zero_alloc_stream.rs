//! Proof that a warmed [`novelty::StreamRuntime`] scores frames without
//! touching the heap.
//!
//! A counting allocator wraps the system allocator for this whole test
//! binary (integration tests are separate binaries, so nothing else is
//! affected). After training a tiny detector and warming the runtime —
//! first frames populate the scratch pool, the VBP thread-local
//! workspace, and the tensor pool — the steady-state per-frame
//! allocation delta must be exactly zero. This is the end-to-end
//! guarantee the scratch/workspace plumbing exists to provide: frame
//! latency in deployment cannot jitter on allocator locks or page
//! faults.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use novelty::{
    ClassifierConfig, NoveltyDetectorBuilder, ReconstructionObjective, StreamConfig, StreamRuntime,
};
use simdrive::{DatasetConfig, DriveConfig, World};

/// System allocator with an allocation counter. Only `alloc` calls are
/// counted (growth via `realloc` routes through `alloc` in the default
/// `GlobalAlloc` impl, and counting frees would add nothing to the
/// zero-allocation claim).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// The `GlobalAlloc` trait is unsafe by definition; this impl only
// forwards to `System` and bumps a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warmed_stream_runtime_is_zero_allocation_per_frame() {
    let data = DatasetConfig::outdoor()
        .with_len(24)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(11);
    let detector = NoveltyDetectorBuilder::paper()
        .classifier_config(ClassifierConfig {
            hidden: vec![16, 8, 16],
            epochs: 2,
            warmup_epochs: 1,
            batch_size: 8,
            learning_rate: 3e-3,
            objective: ReconstructionObjective::Ssim { window: 7 },
        })
        .cnn_epochs(1)
        .seed(1)
        .train(&data)
        .expect("tiny detector trains");

    let frames: Vec<_> = DriveConfig::new(World::Outdoor)
        .with_len(12)
        .with_size(40, 80)
        .with_supersample(1)
        .simulate(3)
        .frames()
        .iter()
        .map(|f| f.image.clone())
        .collect();

    // Sanity: the counter is live (training alone allocates plenty). A
    // broken hook would make the zero assertions below vacuous.
    assert!(
        allocations() > 1000,
        "counting allocator is not intercepting allocations"
    );

    let mut runtime = StreamRuntime::new(&detector, StreamConfig::for_detector(&detector))
        .expect("stream runtime");

    // Warm-up: the first frames populate every pool (tensor storage,
    // scratch panels, the VBP thread-local workspace). Warming with
    // several frames, not one, lets pools reach their steady-state
    // high-water mark.
    for frame in frames.iter().take(4) {
        let decision = runtime.process(Some(frame));
        assert!(decision.is_novel.is_some());
    }

    // Steady state: not one heap allocation per frame, over many frames.
    for (i, frame) in frames.iter().enumerate() {
        let before = allocations();
        let decision = runtime.process(Some(frame));
        let delta = allocations() - before;
        assert!(decision.verdict.is_some(), "frame {i} must score");
        assert_eq!(
            delta, 0,
            "frame {i}: {delta} heap allocations in the warmed hot path"
        );
    }
}
