//! Frame admission control: validate frames *before* they reach scoring.
//!
//! `NoveltyDetector::score` errors on malformed input, but a deployed
//! monitor needs to know *why* a frame is unusable — a NaN-poisoned
//! transfer, a blown-out exposure and a stuck sensor call for the same
//! fallback decision but very different maintenance responses.
//! [`FrameGate`] classifies incoming frames into [`FrameFault`] classes
//! cheaply (one pass over the pixels, no network evaluation) so the
//! streaming runtime can route rejects to its fallback policy and feed
//! its health state machine with structured evidence.

use vision::Image;

use crate::{NoveltyError, Result};

/// Why the gate refused to forward a frame to scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameFault {
    /// No frame arrived at all (sensor drop upstream of the gate).
    MissingFrame,
    /// The frame's geometry does not match the detector's input size.
    WrongDimensions {
        /// `(height, width)` the detector was trained on.
        expected: (usize, usize),
        /// `(height, width)` actually delivered.
        got: (usize, usize),
    },
    /// The frame contains NaN or infinite pixels.
    NonFinitePixels {
        /// Number of non-finite pixels found.
        count: usize,
    },
    /// Finite pixels fall outside the admissible intensity range.
    OutOfRangePixels {
        /// Smallest pixel observed.
        min: f32,
        /// Largest pixel observed.
        max: f32,
    },
    /// The frame is (nearly) uniformly dark — lens cap, dead sensor.
    AllBlack,
    /// The frame is (nearly) uniformly bright — blinding glare, blown
    /// exposure.
    Saturated,
    /// The frame is bit-identical to a run of preceding frames longer
    /// than the configured tolerance — the feed is frozen.
    StuckFrame {
        /// Length of the identical run, this frame included.
        run: usize,
    },
}

impl FrameFault {
    /// Stable kebab-case class name, used in counters and alarm logs.
    pub fn class(&self) -> &'static str {
        match self {
            FrameFault::MissingFrame => "missing-frame",
            FrameFault::WrongDimensions { .. } => "wrong-dimensions",
            FrameFault::NonFinitePixels { .. } => "non-finite-pixels",
            FrameFault::OutOfRangePixels { .. } => "out-of-range-pixels",
            FrameFault::AllBlack => "all-black",
            FrameFault::Saturated => "saturated",
            FrameFault::StuckFrame { .. } => "stuck-frame",
        }
    }

    /// Every fault class name, in a stable order (for exhaustive
    /// reporting even when a class never fired).
    pub fn all_classes() -> [&'static str; 7] {
        [
            "missing-frame",
            "wrong-dimensions",
            "non-finite-pixels",
            "out-of-range-pixels",
            "all-black",
            "saturated",
            "stuck-frame",
        ]
    }
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::MissingFrame => write!(f, "frame missing from the stream"),
            FrameFault::WrongDimensions { expected, got } => write!(
                f,
                "frame is {}x{} but the detector expects {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            FrameFault::NonFinitePixels { count } => {
                write!(f, "{count} NaN/infinite pixels")
            }
            FrameFault::OutOfRangePixels { min, max } => {
                write!(
                    f,
                    "pixels outside the admissible range (min {min}, max {max})"
                )
            }
            FrameFault::AllBlack => write!(f, "frame is uniformly dark"),
            FrameFault::Saturated => write!(f, "frame is uniformly bright"),
            FrameFault::StuckFrame { run } => {
                write!(f, "frame identical to the previous {} frames", run - 1)
            }
        }
    }
}

/// Validation thresholds for a [`FrameGate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// `(height, width)` every frame must match.
    pub expected: (usize, usize),
    /// Smallest admissible pixel value (default −0.01: nominal range is
    /// `[0, 1]` with a little slack for resampling ringing).
    pub min_pixel: f32,
    /// Largest admissible pixel value (default 1.01).
    pub max_pixel: f32,
    /// Frames with mean intensity at or below this are [`FrameFault::AllBlack`]
    /// (default 0.02).
    pub black_mean: f32,
    /// Frames with mean intensity at or above this are
    /// [`FrameFault::Saturated`] (default 0.98).
    pub saturated_mean: f32,
    /// Longest tolerated run of bit-identical frames; the next identical
    /// frame is rejected as [`FrameFault::StuckFrame`] (default 2 —
    /// temporally coherent streams repeat a frame occasionally, three in
    /// a row means the feed is frozen). Zero disables stuck detection.
    pub stuck_after: usize,
}

impl GateConfig {
    /// Defaults for a detector trained on `height`×`width` frames.
    pub fn new(height: usize, width: usize) -> Self {
        GateConfig {
            expected: (height, width),
            min_pixel: -0.01,
            max_pixel: 1.01,
            black_mean: 0.02,
            saturated_mean: 0.98,
            stuck_after: 2,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.expected.0 == 0 || self.expected.1 == 0 {
            return Err(NoveltyError::invalid(
                "FrameGate",
                "expected dimensions must be non-zero",
            ));
        }
        // partial_cmp so NaN thresholds are rejected, not admitted.
        if self.min_pixel.partial_cmp(&self.max_pixel) != Some(std::cmp::Ordering::Less) {
            return Err(NoveltyError::invalid(
                "FrameGate",
                format!(
                    "min_pixel must be below max_pixel, got [{}, {}]",
                    self.min_pixel, self.max_pixel
                ),
            ));
        }
        if self.black_mean.partial_cmp(&self.saturated_mean) != Some(std::cmp::Ordering::Less) {
            return Err(NoveltyError::invalid(
                "FrameGate",
                "black_mean must be below saturated_mean",
            ));
        }
        Ok(())
    }
}

/// Stateful frame validator for one stream.
///
/// The only state is the stuck-frame tracker (the previous delivered
/// frame's dimensions and pixels, and the run length), so gating is
/// deterministic: the same frame sequence always produces the same
/// sequence of [`FrameFault`]s.
///
/// Two frames belong to one run when they are bit-identical: the same
/// dimensions and the same `f32` bit patterns, NaNs included, so a
/// one-ulp change breaks a run. The previous frame is kept as a copy
/// (one frame of memory per gate, allocated on the first frame and
/// reused after), which makes the check an exact compare rather than a
/// hash.
///
/// # Example
///
/// ```
/// use novelty::{FrameGate, GateConfig};
/// use vision::Image;
///
/// # fn main() -> Result<(), novelty::NoveltyError> {
/// let mut gate = FrameGate::new(GateConfig::new(4, 4))?;
/// let frame = Image::filled(4, 4, 0.5)?;
/// assert!(gate.admit(Some(&frame)).is_none());
/// let nan = Image::filled(4, 4, f32::NAN)?;
/// assert_eq!(gate.admit(Some(&nan)).unwrap().class(), "non-finite-pixels");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrameGate {
    config: GateConfig,
    /// Dimensions of the previous delivered frame; `None` before the
    /// first frame and after [`FrameGate::reset`].
    last_dims: Option<(usize, usize)>,
    /// Pixels of the previous delivered frame.
    last_pixels: Vec<f32>,
    run: usize,
}

impl FrameGate {
    /// A gate enforcing `config`.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is internally inconsistent.
    pub fn new(config: GateConfig) -> Result<Self> {
        config.validate()?;
        Ok(FrameGate {
            config,
            last_dims: None,
            last_pixels: Vec::new(),
            run: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &GateConfig {
        &self.config
    }

    /// Classifies one frame; `None` means the frame is admissible.
    ///
    /// Pass `None` for a frame that never arrived — it is classified as
    /// [`FrameFault::MissingFrame`] so missing frames are first-class
    /// events rather than silent gaps.
    ///
    /// Checks run cheapest-first and the first failure wins: dimensions,
    /// finiteness, range, black/saturated, stuck. The stuck tracker
    /// advances on every *delivered* frame (even rejected ones), so a
    /// frozen feed of corrupt frames still reads as frozen once it
    /// recovers pixel validity.
    #[must_use = "ignoring the gate's classification feeds unvetted frames to the detector"]
    pub fn admit(&mut self, frame: Option<&Image>) -> Option<FrameFault> {
        let Some(frame) = frame else {
            // No bits arrived: the stuck tracker keeps its run (a frozen
            // sensor interleaving drops is still frozen).
            return Some(FrameFault::MissingFrame);
        };
        let got = (frame.height(), frame.width());
        let run = if self.last_dims == Some(got) && same_bits(&self.last_pixels, frame.as_slice()) {
            self.run + 1
        } else {
            self.last_dims = Some(got);
            self.last_pixels.clear();
            self.last_pixels.extend_from_slice(frame.as_slice());
            1
        };
        self.run = run;

        if got != self.config.expected {
            return Some(FrameFault::WrongDimensions {
                expected: self.config.expected,
                got,
            });
        }
        if screen(frame.as_slice(), &self.config) {
            return self.stuck_fault(run);
        }
        // The serial classification: the screen could not decide alone.
        let mut non_finite = 0usize;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        for &px in frame.as_slice() {
            if !px.is_finite() {
                non_finite += 1;
                continue;
            }
            min = min.min(px);
            max = max.max(px);
            sum += px as f64;
        }
        if non_finite > 0 {
            return Some(FrameFault::NonFinitePixels { count: non_finite });
        }
        if min < self.config.min_pixel || max > self.config.max_pixel {
            return Some(FrameFault::OutOfRangePixels { min, max });
        }
        let mean = (sum / frame.len() as f64) as f32;
        if mean <= self.config.black_mean {
            return Some(FrameFault::AllBlack);
        }
        if mean >= self.config.saturated_mean {
            return Some(FrameFault::Saturated);
        }
        self.stuck_fault(run)
    }

    /// The last check of [`FrameGate::admit`], on a frame that passed the
    /// pixel checks.
    fn stuck_fault(&self, run: usize) -> Option<FrameFault> {
        (self.config.stuck_after > 0 && run > self.config.stuck_after)
            .then_some(FrameFault::StuckFrame { run })
    }

    /// Forgets the stuck-frame history (e.g. after a camera restart).
    pub fn reset(&mut self) {
        self.last_dims = None;
        self.run = 0;
    }
}

/// Lanes of the [`screen`] pass.
const LANES: usize = 16;

/// One lane-parallel pass over a frame of the expected size: `true` when
/// the frame certainly passes the finiteness, range, black and saturated
/// checks of [`FrameGate::admit`], so the serial classification would
/// reach the stuck check. `false` means "not certain", never a verdict:
/// the caller then runs the serial loop, so every fault and its payload
/// come from that loop alone.
///
/// The pass keeps per-lane non-finite flags, `min`/`max` and `f64` sums.
/// Finite `min`/`max` are order-free, so the range check is exact. The
/// lane sum `s` differs from the serial chain by reordering only: both
/// are within `γ_{n−1}·Σ|x|` of the exact sum (`γ_k ≈ k·2⁻⁵³`), and
/// `Σ|x| ≤ n·max|x|`. The screen widens `s` by `8·n·2⁻⁵³·n·max|x|`, over
/// four times that gap, so the rounding of the widening itself is
/// covered too. When the widened interval, divided by `n`, lies above
/// the `f32` value next above `black_mean` and below the one next below
/// `saturated_mean`, the serial mean — rounded to `f64` and then to
/// `f32`, both monotone — lies strictly between the two thresholds.
fn screen(pixels: &[f32], config: &GateConfig) -> bool {
    let mut bad = [0u32; LANES];
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut sum = [0.0f64; LANES];
    let mut chunks = pixels.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            let v = chunk[l];
            bad[l] |= u32::from(!v.is_finite());
            lo[l] = lo[l].min(v);
            hi[l] = hi[l].max(v);
            sum[l] += f64::from(v);
        }
    }
    for (l, &v) in chunks.remainder().iter().enumerate() {
        bad[l] |= u32::from(!v.is_finite());
        lo[l] = lo[l].min(v);
        hi[l] = hi[l].max(v);
        sum[l] += f64::from(v);
    }
    if bad.iter().any(|&b| b != 0) {
        return false;
    }
    let min = lo.iter().copied().fold(f32::INFINITY, f32::min);
    let max = hi.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if min < config.min_pixel || max > config.max_pixel {
        return false;
    }
    let n = pixels.len() as f64;
    let s: f64 = sum.iter().sum();
    let abs_bound = n * f64::from(min.abs().max(max.abs()));
    let slack = 8.0 * n * f64::EPSILON / 2.0 * abs_bound;
    let (mean_lo, mean_hi) = ((s - slack) / n, (s + slack) / n);
    mean_lo > f64::from(config.black_mean.next_up())
        && mean_hi < f64::from(config.saturated_mean.next_down())
}

/// Whether two pixel buffers are bit-identical. Compares 64-pixel blocks
/// branch-free and stops at the first block that differs.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    const BLOCK: usize = 64;
    a.len() == b.len()
        && a.chunks(BLOCK).zip(b.chunks(BLOCK)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0u32, |diff, (p, q)| diff | (p.to_bits() ^ q.to_bits()))
                == 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> FrameGate {
        FrameGate::new(GateConfig::new(6, 8)).unwrap()
    }

    fn textured(seed: f32) -> Image {
        Image::from_fn(6, 8, |y, x| {
            0.2 + 0.5 * ((y * 8 + x) as f32 * 0.07 + seed).sin().abs()
        })
        .unwrap()
    }

    #[test]
    fn config_is_validated() {
        assert!(FrameGate::new(GateConfig::new(0, 8)).is_err());
        let mut bad = GateConfig::new(6, 8);
        bad.min_pixel = 2.0;
        assert!(FrameGate::new(bad).is_err());
        let mut bad = GateConfig::new(6, 8);
        bad.black_mean = 0.99;
        assert!(FrameGate::new(bad).is_err());
    }

    #[test]
    fn clean_frames_are_admitted() {
        let mut g = gate();
        for i in 0..5 {
            assert_eq!(g.admit(Some(&textured(i as f32))), None, "frame {i}");
        }
    }

    #[test]
    fn each_fault_class_is_detected() {
        let mut g = gate();
        assert_eq!(g.admit(None), Some(FrameFault::MissingFrame));

        let wrong = Image::filled(3, 8, 0.5).unwrap();
        assert!(matches!(
            g.admit(Some(&wrong)),
            Some(FrameFault::WrongDimensions {
                expected: (6, 8),
                got: (3, 8)
            })
        ));

        let mut nan = textured(1.0);
        nan.put(2, 2, f32::NAN);
        nan.put(2, 3, f32::INFINITY);
        assert_eq!(
            g.admit(Some(&nan)),
            Some(FrameFault::NonFinitePixels { count: 2 })
        );

        let hot = textured(2.0).map(|v| v * 3.0);
        assert!(matches!(
            g.admit(Some(&hot)),
            Some(FrameFault::OutOfRangePixels { .. })
        ));

        let black = Image::filled(6, 8, 0.001).unwrap();
        assert_eq!(g.admit(Some(&black)), Some(FrameFault::AllBlack));

        let white = Image::filled(6, 8, 0.999).unwrap();
        assert_eq!(g.admit(Some(&white)), Some(FrameFault::Saturated));
    }

    #[test]
    fn stuck_frames_reject_after_tolerated_run() {
        let mut g = gate();
        let frame = textured(3.0);
        assert_eq!(g.admit(Some(&frame)), None); // run 1
        assert_eq!(g.admit(Some(&frame)), None); // run 2: tolerated
        assert_eq!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { run: 3 })
        );
        assert_eq!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { run: 4 })
        );
        // A fresh frame clears the run.
        assert_eq!(g.admit(Some(&textured(4.0))), None);
        assert_eq!(g.admit(Some(&frame)), None);
    }

    #[test]
    fn drops_do_not_break_a_stuck_run() {
        let mut g = gate();
        let frame = textured(5.0);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(None), Some(FrameFault::MissingFrame));
        assert!(matches!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { .. })
        ));
    }

    #[test]
    fn reset_clears_stuck_history() {
        let mut g = gate();
        let frame = textured(6.0);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&frame)), None);
        g.reset();
        assert_eq!(g.admit(Some(&frame)), None);
    }

    /// The stuck tracker as it was when it hashed frames: equal
    /// `frame_digest` values extend a run.
    #[derive(Default)]
    struct DigestTracker {
        last: Option<u64>,
        run: usize,
    }

    impl DigestTracker {
        fn admit(&mut self, frame: &Image) -> usize {
            let digest = simdrive::frame_digest(frame);
            self.run = if self.last == Some(digest) {
                self.run + 1
            } else {
                1
            };
            self.last = Some(digest);
            self.run
        }
    }

    /// The exact-compare tracker counts the same runs as the digest
    /// reference over seeded sequences of repeats, one-ulp changes, NaN
    /// frames (same and different payloads), transposed dimensions with
    /// the same pixels, missing frames and resets.
    #[test]
    fn stuck_runs_match_digest_reference() {
        let base = textured(8.0);
        let mut ulp = base.clone();
        ulp.put(3, 5, f32::from_bits(base.get(3, 5).to_bits() + 1));
        let nan = Image::filled(6, 8, f32::NAN).unwrap();
        let mut nan2 = nan.clone();
        nan2.put(0, 0, f32::from_bits(0x7fc0_0001));
        let transposed = Image::from_tensor(base.tensor().reshape([8, 6]).unwrap()).unwrap();
        let palette = [&base, &ulp, &textured(9.0), &nan, &nan2, &transposed];
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let mut g = gate();
            let mut reference = DigestTracker::default();
            let mut pick = 0usize;
            for step in 0..300 {
                match next() % 16 {
                    0 => {
                        assert_eq!(g.admit(None), Some(FrameFault::MissingFrame));
                        continue;
                    }
                    1 => {
                        g.reset();
                        reference = DigestTracker::default();
                        continue;
                    }
                    2..=5 => pick = next() % palette.len(),
                    _ => {}
                }
                let frame = palette[pick];
                let _ = g.admit(Some(frame));
                assert_eq!(g.run, reference.admit(frame), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn one_ulp_change_breaks_a_run() {
        let mut g = gate();
        let frame = textured(10.0);
        let mut nudged = frame.clone();
        nudged.put(5, 7, f32::from_bits(frame.get(5, 7).to_bits() + 1));
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&nudged)), None);
        assert_eq!(g.run, 1);
        // A NaN frame repeated is still stuck.
        let nan = Image::filled(6, 8, f32::NAN).unwrap();
        for _ in 0..3 {
            let _ = g.admit(Some(&nan));
        }
        assert_eq!(g.run, 3);
    }

    /// `FrameGate::admit` as it was before the screen: one serial loop
    /// classifies every frame.
    struct SerialGate {
        config: GateConfig,
        last: Option<((usize, usize), Vec<u32>)>,
        run: usize,
    }

    impl SerialGate {
        fn new(config: GateConfig) -> Self {
            SerialGate {
                config,
                last: None,
                run: 0,
            }
        }

        fn admit(&mut self, frame: Option<&Image>) -> Option<FrameFault> {
            let Some(frame) = frame else {
                return Some(FrameFault::MissingFrame);
            };
            let got = (frame.height(), frame.width());
            let pixels: Vec<u32> = frame.as_slice().iter().map(|v| v.to_bits()).collect();
            let run = match &self.last {
                Some((dims, last)) if *dims == got && *last == pixels => self.run + 1,
                _ => {
                    self.last = Some((got, pixels));
                    1
                }
            };
            self.run = run;
            if got != self.config.expected {
                return Some(FrameFault::WrongDimensions {
                    expected: self.config.expected,
                    got,
                });
            }
            let mut non_finite = 0usize;
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            let mut sum = 0.0f64;
            for &px in frame.as_slice() {
                if !px.is_finite() {
                    non_finite += 1;
                    continue;
                }
                min = min.min(px);
                max = max.max(px);
                sum += px as f64;
            }
            if non_finite > 0 {
                return Some(FrameFault::NonFinitePixels { count: non_finite });
            }
            if min < self.config.min_pixel || max > self.config.max_pixel {
                return Some(FrameFault::OutOfRangePixels { min, max });
            }
            let mean = (sum / frame.len() as f64) as f32;
            if mean <= self.config.black_mean {
                return Some(FrameFault::AllBlack);
            }
            if mean >= self.config.saturated_mean {
                return Some(FrameFault::Saturated);
            }
            if self.config.stuck_after > 0 && run > self.config.stuck_after {
                return Some(FrameFault::StuckFrame { run });
            }
            None
        }
    }

    /// A fault with its `f32` payloads as bits, so `-0.0` differs from
    /// `0.0`.
    fn fault_bits(f: Option<FrameFault>) -> Option<(FrameFault, u32, u32)> {
        f.map(|f| match f {
            FrameFault::OutOfRangePixels { min, max } => (f, min.to_bits(), max.to_bits()),
            _ => (f, 0, 0),
        })
    }

    /// Frames of `h × w` pixels around the gate's edges: near-constant
    /// frames whose mean sits at each threshold and a few ulps either
    /// side, pixels at, and one ulp beyond, each range bound, NaN, ±∞ and
    /// `-0.0` pixels, all-zero frames and repeats (stuck runs).
    fn edge_frames(h: usize, w: usize, config: &GateConfig, seed: u64) -> Vec<Image> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let ulps = |v: f32, k: i32| {
            (0..k.unsigned_abs()).fold(v, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
        };
        let mut frames = Vec::new();
        let levels = [
            config.black_mean,
            config.saturated_mean,
            config.min_pixel,
            config.max_pixel,
            0.0,
            0.5,
        ];
        for &level in &levels {
            for k in -3..=3 {
                let base = ulps(level, k);
                // Constant, then with a share of pixels nudged by ±1 ulp.
                frames.push(Image::filled(h, w, base).unwrap());
                let share = next() % 4 + 1;
                let picks: Vec<usize> = (0..h * w).map(|_| next() % 8).collect();
                frames.push(
                    Image::from_fn(h, w, |y, x| match picks[y * w + x] {
                        0 if share > 1 => base.next_up(),
                        1 if share > 2 => base.next_down(),
                        _ => base,
                    })
                    .unwrap(),
                );
            }
        }
        let textured = Image::from_fn(h, w, |y, x| {
            0.1 + 0.8 * ((y * 31 + x * 17) % 23) as f32 / 22.0
        })
        .unwrap();
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            config.min_pixel,
            config.min_pixel.next_down(),
            config.max_pixel,
            config.max_pixel.next_up(),
        ];
        for &v in &special {
            for _ in 0..2 {
                let mut f = textured.clone();
                let at = next() % (h * w);
                f.put(at / w, at % w, v);
                frames.push(f);
            }
        }
        let mut zeros = Image::filled(h, w, -0.0).unwrap();
        zeros.put(0, 0, 0.0);
        frames.push(zeros);
        // Repeats make stuck runs.
        for _ in 0..3 {
            frames.push(textured.clone());
        }
        frames
    }

    /// The screened gate classifies every frame, fault payload bits
    /// included, exactly as the serial gate: default and narrow-band
    /// configurations, frame lengths below, at and not a multiple of the
    /// screen's lane count, frames at every threshold ±1 ulp, non-finite
    /// and `-0.0` pixels, stuck runs and missing frames.
    #[test]
    fn screen_matches_the_serial_gate() {
        let mut narrow = GateConfig::new(1, 1);
        narrow.black_mean = 0.5;
        narrow.saturated_mean = 0.5f32.next_up();
        let mut wide = GateConfig::new(1, 1);
        wide.min_pixel = f32::NEG_INFINITY;
        wide.max_pixel = f32::INFINITY;
        wide.black_mean = -1.0;
        // Frames the screen left to the serial loop, and frames it decided.
        let mut decided = [0usize; 2];
        for (h, w) in [(1usize, 1usize), (3, 3), (4, 4), (5, 7), (7, 13), (60, 160)] {
            for (c, template) in [GateConfig::new(h, w), narrow.clone(), wide.clone()]
                .into_iter()
                .enumerate()
            {
                let config = GateConfig {
                    expected: (h, w),
                    ..template
                };
                let mut screened = FrameGate::new(config.clone()).unwrap();
                let mut serial = SerialGate::new(config.clone());
                let frames = edge_frames(h, w, &config, (h * w + c) as u64);
                for (i, frame) in frames.iter().enumerate() {
                    decided[usize::from(screen(frame.as_slice(), &config))] += 1;
                    let got = fault_bits(screened.admit(Some(frame)));
                    let want = fault_bits(serial.admit(Some(frame)));
                    assert_eq!(got, want, "{h}x{w} config {c} frame {i}");
                    if i % 7 == 3 {
                        assert_eq!(screened.admit(None), serial.admit(None));
                    }
                }
            }
        }
        assert!(decided[0] > 100 && decided[1] > 100, "{decided:?}");
    }

    /// A frame whose serial `f64` sum loses a tiny pixel that the lane
    /// sums keep: `0.5 + 2⁻⁶⁰` rounds to `0.5` in the serial chain, which
    /// the later `−0.5` then cancels to `0`, while lane 0 cancels the
    /// halves first and lane 1 keeps `2⁻⁶⁰`. The serial mean is `0`, at
    /// a `black_mean` of `0`; only the screen's reordering slack keeps it
    /// from admitting the frame.
    #[test]
    fn screen_defers_when_reordering_could_cross_a_threshold() {
        let mut config = GateConfig::new(4, 8);
        config.min_pixel = -1.0;
        config.black_mean = 0.0;
        config.stuck_after = 0;
        let mut frame = Image::filled(4, 8, 0.0).unwrap();
        frame.put(0, 0, 0.5);
        frame.put(0, 1, 2f32.powi(-60));
        frame.put(2, 0, -0.5);
        assert!(!screen(frame.as_slice(), &config));
        let mut gate = FrameGate::new(config.clone()).unwrap();
        let mut serial = SerialGate::new(config);
        assert_eq!(serial.admit(Some(&frame)), Some(FrameFault::AllBlack));
        assert_eq!(gate.admit(Some(&frame)), Some(FrameFault::AllBlack));
    }

    #[test]
    fn stuck_detection_can_be_disabled() {
        let mut config = GateConfig::new(6, 8);
        config.stuck_after = 0;
        let mut g = FrameGate::new(config).unwrap();
        let frame = textured(7.0);
        for _ in 0..10 {
            assert_eq!(g.admit(Some(&frame)), None);
        }
    }

    #[test]
    fn classes_are_stable_and_exhaustive() {
        let faults = [
            FrameFault::MissingFrame,
            FrameFault::WrongDimensions {
                expected: (1, 1),
                got: (2, 2),
            },
            FrameFault::NonFinitePixels { count: 1 },
            FrameFault::OutOfRangePixels {
                min: -2.0,
                max: 3.0,
            },
            FrameFault::AllBlack,
            FrameFault::Saturated,
            FrameFault::StuckFrame { run: 3 },
        ];
        let classes: Vec<_> = faults.iter().map(|f| f.class()).collect();
        assert_eq!(classes, FrameFault::all_classes());
        for fault in &faults {
            assert!(!fault.to_string().is_empty());
        }
    }

    fn rendered_frame(seed: u64) -> Image {
        simdrive::DatasetConfig::outdoor()
            .with_len(1)
            .with_size(24, 64)
            .with_supersample(1)
            .generate(seed)
            .frames()[0]
            .image
            .clone()
    }

    fn scene_gate() -> FrameGate {
        FrameGate::new(GateConfig::new(24, 64)).unwrap()
    }

    #[test]
    fn scene_modifiers_at_full_intensity_pass_the_gate() {
        // The gate exists to catch sensor faults, not weather: even the
        // heaviest fog/night/glare/rain must be admitted while the
        // degenerate frames they superficially resemble are rejected.
        let base = rendered_frame(31);
        for spec in [
            "fog@1.0",
            "night@1.0",
            "glare@1.0",
            "rain@1.0",
            "tunnel@1.0",
        ] {
            let stack = simdrive::ModifierStack::parse(spec).unwrap();
            let mut g = scene_gate();
            for frame_index in 0..3u64 {
                let modified = stack.apply(9, frame_index, &base);
                assert_eq!(
                    g.admit(Some(&modified)),
                    None,
                    "{spec} frame {frame_index} must be admitted"
                );
            }
        }
    }

    #[test]
    fn fog_is_distinguished_from_all_black() {
        // Full fog pulls every pixel toward a mid luminance; the
        // all-black detector keys on the frame *mean*, which fog raises.
        let foggy =
            simdrive::ModifierStack::parse("fog@1.0")
                .unwrap()
                .apply(9, 0, &rendered_frame(32));
        assert_eq!(scene_gate().admit(Some(&foggy)), None);
        let dead_sensor = Image::filled(24, 64, 0.001).unwrap();
        assert_eq!(
            scene_gate().admit(Some(&dead_sensor)),
            Some(FrameFault::AllBlack)
        );
    }

    #[test]
    fn glare_is_distinguished_from_saturated_fault() {
        // Glare is a localized bloom: the frame mean stays far below the
        // saturated threshold even at intensity 1.
        let glared =
            simdrive::ModifierStack::parse("glare@1.0")
                .unwrap()
                .apply(9, 0, &rendered_frame(33));
        assert_eq!(scene_gate().admit(Some(&glared)), None);
        let stuck_high = Image::filled(24, 64, 0.999).unwrap();
        assert_eq!(
            scene_gate().admit(Some(&stuck_high)),
            Some(FrameFault::Saturated)
        );
    }

    #[test]
    fn faults_on_modified_frames_are_still_caught() {
        // A real sensor fault on top of bad weather must not hide behind
        // the weather: inject the brightness-spike and NaN faults into a
        // fog+night frame and check the gate still fires.
        let stack = simdrive::ModifierStack::parse("fog@0.8+night@0.7").unwrap();
        let weathered = stack.apply(9, 0, &rendered_frame(34));
        assert_eq!(scene_gate().admit(Some(&weathered)), None);

        let spiked = weathered.map(|v| v * 4.0 + 0.5);
        assert!(matches!(
            scene_gate().admit(Some(&spiked)),
            Some(FrameFault::OutOfRangePixels { .. })
        ));

        let mut burst = weathered.clone();
        burst.put(3, 3, f32::NAN);
        assert!(matches!(
            scene_gate().admit(Some(&burst)),
            Some(FrameFault::NonFinitePixels { .. })
        ));
    }
}
