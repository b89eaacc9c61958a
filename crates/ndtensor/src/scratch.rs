//! Thread-local, size-classed scratch buffers for the scoring hot path.
//!
//! Every tensor temporary in the score/stream loop used to be a fresh
//! heap allocation; on the 1-core deployment target allocation churn is
//! pure overhead. This module recycles `f32` (and `f64`, for the SSIM
//! integral images) buffers through a per-thread pool so a warmed stream
//! performs zero heap allocations per frame.
//!
//! Design points:
//!
//! * **Thread-local**: each `par` worker owns its pool, so pooling never
//!   introduces cross-thread traffic and cannot perturb the bit-identical
//!   thread-parity guarantee — a recycled buffer holds the same values a
//!   fresh one would after initialisation.
//! * **Size-classed**: buffers live in power-of-two capacity classes;
//!   [`take`] returns a cleared buffer with `capacity >= len` from class
//!   `ceil(log2(len))`, [`give`] files a buffer under
//!   `floor(log2(capacity))` so a later take of that class always fits.
//! * **Bounded**: at most `MAX_PER_CLASS` buffers per class are
//!   retained and classes above `MAX_POOLED_CLASS` are never pooled,
//!   so the pool cannot hoard unbounded memory during training.
//! * **Observable**: process-global hit/miss/byte counters (same pattern
//!   as `par::ParStats`) are bridged into run reports by
//!   `obs::record_scratch_delta`.
//!
//! [`set_enabled`] turns recycling off globally (takes allocate, gives
//! drop) so benchmarks can A/B the pool without rebuilding.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Buffers with capacity `2^c` for `c` in `0..NUM_CLASSES` are pooled.
const NUM_CLASSES: usize = MAX_POOLED_CLASS + 1;

/// Largest pooled class: `2^24` elements (64 MiB as `f32`). Larger
/// buffers are allocated and freed normally.
const MAX_POOLED_CLASS: usize = 24;

/// Retention cap per size class, per thread.
const MAX_PER_CLASS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global scratch counters.
///
/// Counters are monotonic; use [`ScratchStats::since`] to express the
/// work of one region, exactly like `par::ParStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Takes served by recycling a pooled buffer.
    pub hits: u64,
    /// Takes that had to allocate a fresh buffer.
    pub misses: u64,
    /// Bytes newly allocated through the pool (misses only).
    pub bytes_allocated: u64,
}

impl ScratchStats {
    /// Counter deltas accumulated since `earlier`.
    pub fn since(self, earlier: ScratchStats) -> ScratchStats {
        ScratchStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
        }
    }
}

/// Reads the current global counters.
pub fn stats() -> ScratchStats {
    ScratchStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
    }
}

/// Globally enables or disables recycling (enabled by default). With the
/// pool disabled every take allocates and every give drops, which gives
/// benchmarks a clean on/off A-B switch. Values computed are identical
/// either way.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// `true` when recycling is active.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Size class that can satisfy a request for `len` elements:
/// the smallest `c` with `2^c >= len`.
fn class_for_len(len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        (usize::BITS - (len - 1).leading_zeros()) as usize
    }
}

/// Size class a returned buffer files under: the largest `c` with
/// `2^c <= capacity`, so any take of class `c` fits in it.
fn class_for_capacity(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

struct Pool<T> {
    classes: Vec<Vec<Vec<T>>>,
}

impl<T: Copy + Default> Pool<T> {
    fn new() -> Self {
        let mut classes = Vec::with_capacity(NUM_CLASSES);
        classes.resize_with(NUM_CLASSES, Vec::new);
        Pool { classes }
    }

    fn take(&mut self, len: usize) -> Vec<T> {
        let class = class_for_len(len);
        if enabled() && class <= MAX_POOLED_CLASS {
            if let Some(mut buf) = self.classes[class].pop() {
                buf.clear();
                HITS.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
        }
        let cap = if class <= MAX_POOLED_CLASS {
            1usize << class
        } else {
            len
        };
        MISSES.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add((cap * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
        Vec::with_capacity(cap)
    }

    fn give(&mut self, buf: Vec<T>) {
        // Capacity 0 marks buffers already donated elsewhere (or never
        // backed by storage); nothing to recycle.
        if buf.capacity() == 0 || !enabled() {
            return;
        }
        let class = class_for_capacity(buf.capacity());
        if class <= MAX_POOLED_CLASS && self.classes[class].len() < MAX_PER_CLASS {
            self.classes[class].push(buf);
        }
    }
}

thread_local! {
    static F32_POOL: RefCell<Pool<f32>> = RefCell::new(Pool::new());
    static F64_POOL: RefCell<Pool<f64>> = RefCell::new(Pool::new());
}

/// Takes an empty `f32` buffer with `capacity >= len` from this thread's
/// pool (allocating on miss).
pub fn take(len: usize) -> Vec<f32> {
    F32_POOL.with(|p| p.borrow_mut().take(len))
}

/// Takes a zero-filled `f32` buffer of exactly `len` elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, 0.0);
    buf
}

/// Returns an `f32` buffer to this thread's pool for reuse. After the
/// pool's thread-local destructor ran (another thread-local holding
/// tensors, dropped on thread exit) the buffer is freed instead.
pub fn give(buf: Vec<f32>) {
    let _ = F32_POOL.try_with(|p| p.borrow_mut().give(buf));
}

/// Takes an empty `f64` buffer with `capacity >= len` (SSIM integral
/// images are the hot `f64` consumer).
pub fn take_f64(len: usize) -> Vec<f64> {
    F64_POOL.with(|p| p.borrow_mut().take(len))
}

/// Takes a zero-filled `f64` buffer of exactly `len` elements.
pub fn take_zeroed_f64(len: usize) -> Vec<f64> {
    let mut buf = take_f64(len);
    buf.resize(len, 0.0);
    buf
}

/// Returns an `f64` buffer to this thread's pool, or frees it like
/// [`give`] once the pool is gone.
pub fn give_f64(buf: Vec<f64>) {
    let _ = F64_POOL.try_with(|p| p.borrow_mut().give(buf));
}

/// An explicit bag of reusable buffers for workspace-taking kernels.
///
/// A `Workspace` checks buffers out of the thread-local pool and keeps
/// them for its own lifetime, so a caller that loops over many kernel
/// invocations (e.g. `conv2d` over a batch) reuses identical storage
/// without even touching the pool per iteration. Dropping the workspace
/// files everything back into the pool.
///
/// Ownership rule: a buffer obtained from [`Workspace::take`] is either
/// returned via [`Workspace::give`] (for reuse) or simply dropped (it is
/// then lost to the pool) — never both.
#[derive(Debug, Default)]
pub struct Workspace {
    slots: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Takes an empty buffer with `capacity >= len`, preferring buffers
    /// previously [`given`](Workspace::give) back to this workspace.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let class = class_for_len(len);
        if let Some(i) = self
            .slots
            .iter()
            .position(|b| b.capacity() > 0 && class_for_capacity(b.capacity()) >= class)
        {
            let mut buf = self.slots.swap_remove(i);
            buf.clear();
            HITS.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        take(len)
    }

    /// Takes a zero-filled buffer of exactly `len` elements.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to this workspace for later reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.slots.push(buf);
        }
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        for buf in self.slots.drain(..) {
            give(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_math() {
        assert_eq!(class_for_len(0), 0);
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(4), 2);
        assert_eq!(class_for_len(5), 3);
        assert_eq!(class_for_capacity(1), 0);
        assert_eq!(class_for_capacity(2), 1);
        assert_eq!(class_for_capacity(3), 1);
        assert_eq!(class_for_capacity(4), 2);
        assert_eq!(class_for_capacity(1023), 9);
        assert_eq!(class_for_capacity(1024), 10);
    }

    #[test]
    fn take_give_recycles_storage() {
        let before = stats();
        let buf = take(100);
        assert!(buf.capacity() >= 100);
        let ptr = buf.as_ptr();
        give(buf);
        let buf2 = take(100);
        // Same thread, same class: storage is recycled.
        assert_eq!(buf2.as_ptr(), ptr);
        assert!(buf2.is_empty());
        let delta = stats().since(before);
        assert!(delta.hits >= 1);
        give(buf2);
    }

    #[test]
    fn give_from_a_late_thread_local_destructor_drops_the_buffer() {
        // Thread-local destructors run in reverse order of first use, so
        // `LATE` (used first) is dropped after the pool, the way a
        // thread-local workspace holding tensors is on thread exit.
        struct GivesOnDrop;
        impl Drop for GivesOnDrop {
            fn drop(&mut self) {
                give(vec![0.0; 8]);
                give_f64(vec![0.0; 8]);
            }
        }
        thread_local! {
            static LATE: GivesOnDrop = const { GivesOnDrop };
        }
        std::thread::spawn(|| {
            LATE.with(|_| {});
            give(take(8));
            give_f64(take_f64(8));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn take_zeroed_is_zeroed_after_reuse() {
        let mut buf = take(64);
        buf.resize(64, 7.0);
        give(buf);
        let buf = take_zeroed(64);
        assert_eq!(buf.len(), 64);
        assert!(buf.iter().all(|&v| v == 0.0));
        give(buf);
    }

    #[test]
    fn f64_pool_round_trips() {
        let buf = take_zeroed_f64(33);
        assert_eq!(buf.len(), 33);
        let ptr = buf.as_ptr();
        give_f64(buf);
        let buf2 = take_f64(20);
        // Class 5 request fits in the recycled class-6 buffer only if
        // classes match; a 33-length take files under class 6 and a
        // 20-length take asks class 5, so recycling is not guaranteed —
        // just check the buffer is usable.
        assert!(buf2.capacity() >= 20);
        let _ = ptr;
        give_f64(buf2);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        give(Vec::new()); // must not panic or pollute class 0
        let buf = take(1);
        assert!(buf.capacity() >= 1);
        give(buf);
    }

    #[test]
    fn workspace_reuses_given_buffers() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(128);
        buf.push(1.0);
        let ptr = buf.as_ptr();
        ws.give(buf);
        let buf2 = ws.take(100);
        assert_eq!(buf2.as_ptr(), ptr);
        assert!(buf2.is_empty());
        ws.give(buf2);
    }

    #[test]
    fn disabled_pool_still_serves_buffers() {
        set_enabled(false);
        let buf = take(10);
        assert!(buf.capacity() >= 10);
        give(buf);
        let buf = take_zeroed(10);
        assert_eq!(buf.len(), 10);
        give(buf);
        set_enabled(true);
    }

    #[test]
    fn oversized_requests_fall_through() {
        // A request above the largest pooled class allocates exactly and
        // is dropped on give without being retained.
        let len = (1usize << MAX_POOLED_CLASS) + 1;
        let buf = take(len);
        assert!(buf.capacity() >= len);
        give(buf);
    }
}
