//! Resampling kernels for rank-2 tensors (single-channel maps).
//!
//! These back two users: image resizing in the `vision` crate and the
//! mask-upscaling steps of VisualBackProp in the `saliency` crate (which
//! upsamples averaged feature maps back to the resolution of the previous
//! layer).

use std::cell::RefCell;

use crate::{scratch, Result, Tensor, TensorError};

fn require_map(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    let (h, w) = (t.shape().dims()[0], t.shape().dims()[1]);
    if h == 0 || w == 0 {
        return Err(TensorError::invalid(op, "input map must be non-empty"));
    }
    Ok((h, w))
}

fn require_target(out_h: usize, out_w: usize, op: &'static str) -> Result<()> {
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::invalid(op, "target size must be non-zero"));
    }
    Ok(())
}

/// Nearest-neighbour resize of a `[H, W]` map to `[out_h, out_w]`.
///
/// # Errors
///
/// Fails for non-rank-2 input or empty source/target sizes.
pub fn resize_nearest(map: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (h, w) = require_map(map, "resize_nearest")?;
    require_target(out_h, out_w, "resize_nearest")?;
    let data = map.as_slice();
    let mut out = scratch::take(out_h * out_w);
    for oy in 0..out_h {
        let sy = ((oy as f32 + 0.5) * h as f32 / out_h as f32 - 0.5)
            .round()
            .clamp(0.0, (h - 1) as f32) as usize;
        for ox in 0..out_w {
            let sx = ((ox as f32 + 0.5) * w as f32 / out_w as f32 - 0.5)
                .round()
                .clamp(0.0, (w - 1) as f32) as usize;
            out.push(data[sy * w + sx]);
        }
    }
    Tensor::from_vec([out_h, out_w], out)
}

/// Column taps of [`resize_bilinear`], reused across calls so a warmed
/// stream computes them without heap allocation. Output column `ox` reads
/// source columns `x0[ox]` and `x1[ox]` with weight `tx[ox]` on the second.
#[derive(Default)]
struct ColumnTaps {
    x0: Vec<usize>,
    x1: Vec<usize>,
    tx: Vec<f32>,
    /// Output columns `lo..hi` in order, each with `Some(x0 of lo)` when
    /// every column of the segment reads taps `(x0 + i, x0 + i + 1)`.
    segments: Vec<(usize, usize, Option<usize>)>,
}

/// Shortest column run [`resize_bilinear`] reads as contiguous slices;
/// shorter runs take the per-column path. No production shape depends on
/// the value: the VisualBackProp walk's one-pixel upscales form a single
/// run over all but the two edge columns, and a downscale moves `x0` by
/// more than one every column or two.
const MIN_RUN: usize = 4;

impl ColumnTaps {
    fn build(&mut self, w: usize, out_w: usize) {
        let scale_x = w as f32 / out_w as f32;
        self.x0.clear();
        self.x1.clear();
        self.tx.clear();
        for ox in 0..out_w {
            let fx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (w - 1) as f32);
            let x0 = fx.floor() as usize;
            self.x0.push(x0);
            self.x1.push((x0 + 1).min(w - 1));
            self.tx.push(fx - x0 as f32);
        }
        self.segments.clear();
        let mut ox = 0;
        while ox < out_w {
            // The longest run from `ox` whose taps step by one column.
            let start = self.x0[ox];
            let run = self.x0[ox..]
                .iter()
                .zip(&self.x1[ox..])
                .enumerate()
                .take_while(|&(i, (&a, &b))| a == start + i && b == a + 1)
                .count();
            if run >= MIN_RUN {
                self.segments.push((ox, ox + run, Some(start)));
                ox += run;
            } else {
                match self.segments.last_mut() {
                    Some((_, hi, None)) if *hi == ox => *hi += 1,
                    _ => self.segments.push((ox, ox + 1, None)),
                }
                ox += 1;
            }
        }
    }
}

thread_local! {
    static COLUMN_TAPS: RefCell<ColumnTaps> = RefCell::new(ColumnTaps::default());
}

/// Bilinear resize of a `[H, W]` map to `[out_h, out_w]` with half-pixel
/// centre alignment.
///
/// The column taps depend only on `ox`, so they are computed once per
/// call rather than once per pixel. Runs of columns whose taps are
/// `(x0 + i, x0 + i + 1)` — all of an upscale by a few pixels, as in the
/// VisualBackProp walk — read their source rows as contiguous slices the
/// compiler vectorises; other columns take the per-column path. Either
/// way every output pixel is the same expression on the same operands as
/// a per-pixel evaluation.
///
/// # Errors
///
/// Fails for non-rank-2 input or empty source/target sizes.
pub fn resize_bilinear(map: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (h, w) = require_map(map, "resize_bilinear")?;
    require_target(out_h, out_w, "resize_bilinear")?;
    let data = map.as_slice();
    // Every element is assigned below, segment by segment.
    let mut out = scratch::take_stale(out_h * out_w);
    let scale_y = h as f32 / out_h as f32;
    COLUMN_TAPS.with(|taps| {
        let mut taps = taps.borrow_mut();
        taps.build(w, out_w);
        for (oy, orow) in out.chunks_exact_mut(out_w).enumerate() {
            let fy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (h - 1) as f32);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let ty = fy - y0 as f32;
            let row0 = &data[y0 * w..(y0 + 1) * w];
            let row1 = &data[y1 * w..(y1 + 1) * w];
            for &(lo, hi, run) in &taps.segments {
                let dst = &mut orow[lo..hi];
                match run {
                    Some(x0) => {
                        let n = hi - lo;
                        let (a0, b0) = (&row0[x0..x0 + n], &row0[x0 + 1..x0 + 1 + n]);
                        let (a1, b1) = (&row1[x0..x0 + n], &row1[x0 + 1..x0 + 1 + n]);
                        let tx = &taps.tx[lo..hi];
                        for i in 0..n {
                            let t = tx[i];
                            let top = a0[i] * (1.0 - t) + b0[i] * t;
                            let bot = a1[i] * (1.0 - t) + b1[i] * t;
                            dst[i] = top * (1.0 - ty) + bot * ty;
                        }
                    }
                    None => {
                        let cols = taps.x0[lo..hi].iter().zip(&taps.x1[lo..hi]);
                        for ((d, (&x0, &x1)), &t) in dst.iter_mut().zip(cols).zip(&taps.tx[lo..hi])
                        {
                            let top = row0[x0] * (1.0 - t) + row0[x1] * t;
                            let bot = row1[x0] * (1.0 - t) + row1[x1] * t;
                            *d = top * (1.0 - ty) + bot * ty;
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec([out_h, out_w], out)
}

/// Transposed-convolution-style upsampling with an all-ones `kh × kw`
/// kernel and stride `(sh, sw)`: every source value is *added* into the
/// `kh × kw` window anchored at its strided position.
///
/// This mirrors the deconvolution step in VisualBackProp, which scales an
/// averaged feature map up through the geometry of the convolution layer it
/// came from. The output size is `(h-1)*sh + kh` by `(w-1)*sw + kw`.
///
/// Each output is gathered: `+0.0` plus its sources in source raster
/// order (`y` ascending, then `x` ascending), the order a per-source
/// scatter adds them in. Output column `ox = q·sw + p` takes sources
/// `x = q − d` for `d < ⌈(kw − p)/sw⌉`, so the columns of one phase `p`
/// share their tap pattern and are summed in register blocks of
/// consecutive columns over zero-padded source rows, then interleaved
/// into the output row. A padding zero is `+0.0`: a sum
/// that starts at `+0.0` never becomes `-0.0`, so adding it changes no
/// bit, NaN and `±∞` included (only a NaN's payload is unspecified).
///
/// # Errors
///
/// Fails for non-rank-2 input, an empty kernel or a zero stride.
pub fn upsample_sum(map: &Tensor, kh: usize, kw: usize, sh: usize, sw: usize) -> Result<Tensor> {
    let (h, w) = require_map(map, "upsample_sum")?;
    if kh == 0 || kw == 0 {
        return Err(TensorError::invalid(
            "upsample_sum",
            "kernel must be non-empty",
        ));
    }
    if sh == 0 || sw == 0 {
        return Err(TensorError::invalid(
            "upsample_sum",
            "stride must be non-zero",
        ));
    }
    let out_h = (h - 1) * sh + kh;
    let out_w = (w - 1) * sw + kw;
    // Each source row with `lead` zeros on both sides: phase-0 column `q`
    // reads `x = q − d` for `d ≤ lead` and `q ≤ w − 1 + lead`.
    let lead = (kw - 1) / sw;
    let pw = w + 2 * lead;
    let mut padded = scratch::take_zeroed(h * pw);
    for (dst, src) in padded
        .chunks_exact_mut(pw)
        .zip(map.as_slice().chunks_exact(w))
    {
        dst[lead..lead + w].copy_from_slice(src);
    }
    // One accumulator row per phase; phase 0 has the most columns.
    let qn = out_w.div_ceil(sw);
    let mut acc = scratch::take_stale(sw * qn);
    // Every element is assigned below, row by row.
    let mut out = scratch::take_stale(out_h * out_w);
    for (oy, orow) in out.chunks_exact_mut(out_w).enumerate() {
        // Source rows `y` with `oy − y·sh` in `0..kh`, ascending.
        let y_lo = (oy + 1).saturating_sub(kh).div_ceil(sh);
        let y_hi = (oy / sh + 1).min(h);
        for (p, phase) in acc.chunks_exact_mut(qn).enumerate() {
            let n = (out_w - p.min(out_w)).div_ceil(sw);
            let taps = kw.saturating_sub(p).div_ceil(sw);
            let rows = &padded[y_lo * pw..y_hi.max(y_lo) * pw];
            // Column `q` of this phase sums `row[lead − d + q]` for `d`
            // descending: from `start = lead + 1 − taps` on, ascending.
            let start = lead + 1 - taps;
            let mut blocks = phase[..n].chunks_exact_mut(BLOCK);
            for (b, block) in (&mut blocks).enumerate() {
                block.copy_from_slice(&gather_block::<BLOCK>(rows, pw, start + b * BLOCK, taps));
            }
            let rest = blocks.into_remainder();
            let q0 = n - rest.len();
            rest.fill(0.0);
            for row in rows.chunks_exact(pw) {
                for t in 0..taps {
                    for (a, &v) in rest.iter_mut().zip(&row[start + t + q0..]) {
                        *a += v;
                    }
                }
            }
        }
        interleave(orow, &acc, qn, sw);
    }
    scratch::give(padded);
    scratch::give(acc);
    Tensor::from_vec([out_h, out_w], out)
}

/// Output columns per register block of [`upsample_sum`], enough
/// independent chains to hide the adder's latency; the columns past the
/// last full block are summed one slice pass per tap.
const BLOCK: usize = 64;

/// `W` consecutive phase columns of one output row, kept in registers:
/// column `i` is `+0.0` plus, for each padded source row of `rows` (row
/// stride `pw`) in order, its `taps` elements from `start + i` on.
#[inline(always)]
fn gather_block<const W: usize>(rows: &[f32], pw: usize, start: usize, taps: usize) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for row in rows.chunks_exact(pw) {
        for t in 0..taps {
            let src = &row[start + t..start + t + W];
            for i in 0..W {
                acc[i] += src[i];
            }
        }
    }
    acc
}

/// `row[q·sw + p] = phases[p·qn + q]` for every column of `row`. Stride 2
/// (every strided PilotNet conv) pairs the two phases in one contiguous
/// pass the compiler vectorises.
#[inline(always)]
fn interleave(row: &mut [f32], phases: &[f32], qn: usize, sw: usize) {
    match sw {
        1 => row.copy_from_slice(&phases[..row.len()]),
        2 => {
            let mid = row.len() / 2;
            let (even, odd) = phases.split_at(qn);
            let mut pairs = row.chunks_exact_mut(2);
            for (pair, (&a, &b)) in (&mut pairs).zip(even.iter().zip(odd)) {
                pair[0] = a;
                pair[1] = b;
            }
            if let [last] = pairs.into_remainder() {
                *last = even[mid];
            }
        }
        _ => {
            for (ox, v) in row.iter_mut().enumerate() {
                *v = phases[(ox % sw) * qn + ox / sw];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(h: usize, w: usize, f: impl Fn(usize, usize) -> f32) -> Tensor {
        Tensor::from_fn([h, w], |idx| f(idx[0], idx[1]))
    }

    /// A `[h, w]` map drawn from ±0.0, negatives, NaN, ±∞ and ordinary
    /// values, seeded.
    fn hostile(h: usize, w: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Tensor::from_fn([h, w], |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0;
            match (state >> 59) % 32 {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 => f32::NAN,
                5 => f32::INFINITY,
                6 => f32::NEG_INFINITY,
                7..=12 => -u.abs() * 3.0,
                _ => u,
            }
        })
    }

    /// Output bits, with every NaN mapped to one pattern: Rust leaves the
    /// sign and payload of a NaN produced by arithmetic unspecified (the
    /// compiler may commute `a + b`), so only NaN-ness is comparable.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// The per-pixel bilinear loop this module used before the column
    /// taps were hoisted.
    fn old_resize_bilinear(map: &Tensor, out_h: usize, out_w: usize) -> Tensor {
        let (h, w) = (map.shape().dims()[0], map.shape().dims()[1]);
        let data = map.as_slice();
        let mut out = Vec::new();
        let scale_y = h as f32 / out_h as f32;
        let scale_x = w as f32 / out_w as f32;
        for oy in 0..out_h {
            let fy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (h - 1) as f32);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let ty = fy - y0 as f32;
            for ox in 0..out_w {
                let fx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (w - 1) as f32);
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(w - 1);
                let tx = fx - x0 as f32;
                let top = data[y0 * w + x0] * (1.0 - tx) + data[y0 * w + x1] * tx;
                let bot = data[y1 * w + x0] * (1.0 - tx) + data[y1 * w + x1] * tx;
                out.push(top * (1.0 - ty) + bot * ty);
            }
        }
        Tensor::from_vec([out_h, out_w], out).unwrap()
    }

    /// The per-source scatter with exact-zero skip this module used
    /// before the row passes and the gather.
    fn old_upsample_sum(map: &Tensor, kh: usize, kw: usize, sh: usize, sw: usize) -> Tensor {
        let (h, w) = (map.shape().dims()[0], map.shape().dims()[1]);
        let out_h = (h - 1) * sh + kh;
        let out_w = (w - 1) * sw + kw;
        let data = map.as_slice();
        let mut out = vec![0.0f32; out_h * out_w];
        for y in 0..h {
            for x in 0..w {
                let v = data[y * w + x];
                if v == 0.0 {
                    continue;
                }
                for ky in 0..kh {
                    let oy = y * sh + ky;
                    let row = &mut out[oy * out_w..(oy + 1) * out_w];
                    for kx in 0..kw {
                        row[x * sw + kx] += v;
                    }
                }
            }
        }
        Tensor::from_vec([out_h, out_w], out).unwrap()
    }

    #[test]
    fn nearest_identity_when_same_size() {
        let m = map(3, 4, |y, x| (y * 4 + x) as f32);
        assert_eq!(resize_nearest(&m, 3, 4).unwrap(), m);
    }

    #[test]
    fn bilinear_identity_when_same_size() {
        let m = map(3, 4, |y, x| (y * 4 + x) as f32);
        let r = resize_bilinear(&m, 3, 4).unwrap();
        for (a, b) in r.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn nearest_doubling_replicates_pixels() {
        let m = map(2, 2, |y, x| (y * 2 + x) as f32);
        let r = resize_nearest(&m, 4, 4).unwrap();
        assert_eq!(
            r.as_slice(),
            &[0., 0., 1., 1., 0., 0., 1., 1., 2., 2., 3., 3., 2., 2., 3., 3.]
        );
    }

    #[test]
    fn bilinear_preserves_constant_maps() {
        let m = Tensor::full([3, 5], 0.7);
        let r = resize_bilinear(&m, 7, 11).unwrap();
        for &v in r.as_slice() {
            assert!((v - 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let m = map(1, 2, |_, x| x as f32); // [0, 1]
        let r = resize_bilinear(&m, 1, 4).unwrap();
        // Half-pixel alignment: centres at 0.25/0.75 source coords → clamped
        // edges stay exact, interior points interpolate monotonically.
        let v = r.as_slice();
        assert!(v[0] <= v[1] && v[1] <= v[2] && v[2] <= v[3]);
        assert!((v[0] - 0.0).abs() < 1e-6);
        assert!((v[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn downsampling_stays_in_range() {
        let m = map(8, 8, |y, x| ((y * 8 + x) % 5) as f32);
        for r in [
            resize_bilinear(&m, 3, 3).unwrap(),
            resize_nearest(&m, 3, 3).unwrap(),
        ] {
            assert!(r.min_value() >= 0.0 && r.max_value() <= 4.0);
        }
    }

    #[test]
    fn resize_rejects_bad_inputs() {
        let m = map(2, 2, |_, _| 0.0);
        assert!(resize_nearest(&m, 0, 2).is_err());
        assert!(resize_bilinear(&m, 2, 0).is_err());
        assert!(resize_nearest(&Tensor::zeros([2]), 2, 2).is_err());
        assert!(resize_bilinear(&Tensor::zeros([0, 2]), 2, 2).is_err());
    }

    #[test]
    fn upsample_sum_single_pixel() {
        let m = Tensor::from_vec([1, 1], vec![2.0]).unwrap();
        let r = upsample_sum(&m, 3, 3, 2, 2).unwrap();
        assert_eq!(r.shape().dims(), &[3, 3]);
        assert!(r.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn upsample_sum_overlapping_windows_accumulate() {
        // Two adjacent pixels, stride 1, kernel 2 → middle column covered twice.
        let m = Tensor::from_vec([1, 2], vec![1.0, 1.0]).unwrap();
        let r = upsample_sum(&m, 1, 2, 1, 1).unwrap();
        assert_eq!(r.shape().dims(), &[1, 3]);
        assert_eq!(r.as_slice(), &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn upsample_sum_geometry_matches_conv_inverse() {
        // A conv layer maps H → (H - kh)/sh + 1; upsample_sum maps back.
        let (h, w, kh, kw, sh, sw) = (5usize, 7usize, 3usize, 3usize, 2usize, 2usize);
        let oh = (h - kh) / sh + 1;
        let ow = (w - kw) / sw + 1;
        let m = Tensor::ones([oh, ow]);
        let r = upsample_sum(&m, kh, kw, sh, sw).unwrap();
        assert_eq!(r.shape().dims(), &[h, w]);
    }

    #[test]
    fn upsample_sum_rejects_bad_inputs() {
        let m = Tensor::ones([2, 2]);
        assert!(upsample_sum(&m, 0, 1, 1, 1).is_err());
        assert!(upsample_sum(&m, 1, 1, 0, 1).is_err());
        assert!(upsample_sum(&Tensor::ones([2]), 1, 1, 1, 1).is_err());
    }

    /// The VBP walk's five levels (compact and paper PilotNet share
    /// them): conv5 and conv4 upsample a 4×17 mask through 3×3 stride 1,
    /// conv3–conv1 through 5×5 stride 2, and the strided levels resize
    /// 11×37, 27×77 and 59×159 up by one row and column. Hostile maps,
    /// several seeds each.
    #[test]
    fn resample_matches_old_loops_on_vbp_shapes() {
        let levels = [
            (4usize, 17usize, 3usize, 1usize),
            (4, 17, 3, 1),
            (4, 17, 5, 2),
            (12, 37, 5, 2),
            (28, 78, 5, 2),
        ];
        for (level, &(h, w, k, s)) in levels.iter().enumerate() {
            for seed in 0..8u64 {
                let m = hostile(h, w, 100 * level as u64 + seed);
                let up = upsample_sum(&m, k, k, s, s).unwrap();
                assert_eq!(bits(&up), bits(&old_upsample_sum(&m, k, k, s, s)));
                let (uh, uw) = ((h - 1) * s + k, (w - 1) * s + k);
                assert_eq!(up.shape().dims(), &[uh, uw]);
                if s > 1 {
                    let u = hostile(uh, uw, 100 * level as u64 + seed + 50);
                    assert_eq!(
                        bits(&resize_bilinear(&u, uh + 1, uw + 1).unwrap()),
                        bits(&old_resize_bilinear(&u, uh + 1, uw + 1))
                    );
                }
            }
        }
    }

    /// A stale output buffer from the pool is fully overwritten.
    #[test]
    fn resample_outputs_are_fully_assigned_from_a_poisoned_pool() {
        let m = hostile(12, 37, 7);
        for class in 0..=14 {
            for _ in 0..8 {
                scratch::give(vec![f32::NAN; 1 << class]);
            }
        }
        assert_eq!(
            bits(&upsample_sum(&m, 5, 5, 2, 2).unwrap()),
            bits(&old_upsample_sum(&m, 5, 5, 2, 2))
        );
        assert_eq!(
            bits(&upsample_sum(&m, 2, 2, 3, 3).unwrap()),
            bits(&old_upsample_sum(&m, 2, 2, 3, 3))
        );
        assert_eq!(
            bits(&resize_bilinear(&m, 13, 38).unwrap()),
            bits(&old_resize_bilinear(&m, 13, 38))
        );
    }

    proptest! {
        /// The gather reproduces the per-source scatter bit-for-bit,
        /// including the dropped exact-zero skip, on maps holding ±0.0,
        /// negatives, NaN and ±∞.
        #[test]
        fn upsample_sum_matches_old_scatter_bitwise(
            (h, w) in (1usize..7, 1usize..9),
            (kh, kw, sh, sw) in (1usize..5, 1usize..5, 1usize..4, 1usize..4),
            seed in 0u64..10_000
        ) {
            let m = hostile(h, w, seed);
            prop_assert_eq!(
                bits(&upsample_sum(&m, kh, kw, sh, sw).unwrap()),
                bits(&old_upsample_sum(&m, kh, kw, sh, sw))
            );
        }

        /// Hoisted column taps reproduce the per-pixel loop bit-for-bit,
        /// up- and downsampling, on hostile maps.
        #[test]
        fn resize_bilinear_matches_old_loop_bitwise(
            (h, w) in (1usize..9, 1usize..9),
            (oh, ow) in (1usize..17, 1usize..17),
            seed in 0u64..10_000
        ) {
            let m = hostile(h, w, seed);
            prop_assert_eq!(
                bits(&resize_bilinear(&m, oh, ow).unwrap()),
                bits(&old_resize_bilinear(&m, oh, ow))
            );
        }

        /// Near-identity upscales, where most columns form contiguous
        /// tap runs, and wide maps up- and downsampled, on hostile maps.
        #[test]
        fn resize_bilinear_runs_match_old_loop_bitwise(
            (h, w) in (1usize..12, 1usize..90),
            (dh, dw) in (0usize..4, 0usize..4),
            down in 0u8..2,
            seed in 0u64..10_000
        ) {
            let m = hostile(h, w, seed);
            let (oh, ow) = if down == 1 {
                (h.saturating_sub(dh).max(1), w.saturating_sub(dw * 7).max(1))
            } else {
                (h + dh, w + dw)
            };
            prop_assert_eq!(
                bits(&resize_bilinear(&m, oh, ow).unwrap()),
                bits(&old_resize_bilinear(&m, oh, ow))
            );
        }

        /// Wide maps through kernels wider and narrower than the stride,
        /// so phases with no taps (gap columns) are covered too.
        #[test]
        fn upsample_sum_wide_maps_match_old_scatter_bitwise(
            (h, w) in (1usize..5, 1usize..80),
            (kh, kw, sh, sw) in (1usize..7, 1usize..7, 1usize..5, 1usize..5),
            seed in 0u64..10_000
        ) {
            let m = hostile(h, w, seed);
            prop_assert_eq!(
                bits(&upsample_sum(&m, kh, kw, sh, sw).unwrap()),
                bits(&old_upsample_sum(&m, kh, kw, sh, sw))
            );
        }

        #[test]
        fn upsample_sum_preserves_mass_times_kernel(
            h in 1usize..5, w in 1usize..5, kh in 1usize..4, kw in 1usize..4,
            sh in 1usize..3, sw in 1usize..3
        ) {
            let m = map(h, w, |y, x| (y + x) as f32);
            let r = upsample_sum(&m, kh, kw, sh, sw).unwrap();
            // Every source value lands in exactly kh*kw cells.
            let expect = m.sum() * (kh * kw) as f32;
            prop_assert!((r.sum() - expect).abs() < 1e-3 * (1.0 + expect.abs()));
        }

        #[test]
        fn bilinear_output_within_input_range(
            h in 1usize..6, w in 1usize..6, oh in 1usize..10, ow in 1usize..10
        ) {
            let m = map(h, w, |y, x| ((y * 31 + x * 17) % 11) as f32);
            let r = resize_bilinear(&m, oh, ow).unwrap();
            prop_assert!(r.min_value() >= m.min_value() - 1e-4);
            prop_assert!(r.max_value() <= m.max_value() + 1e-4);
        }
    }
}
