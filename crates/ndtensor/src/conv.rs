//! 2-D convolution (NCHW) as implicit GEMM, with full backward pass.
//!
//! The forward pass multiplies the flattened kernel bank against the
//! sample's column matrix without ever building it: the sample is split
//! once into stride-phase planes, in which every tap's column-matrix row
//! is a contiguous run ([`conv2d_impl`]). The flattened kernel bank is
//! the weight tensor's own contiguous storage — `[F, C, KH, KW]`
//! row-major *is* `[F, C·KH·KW]` — so it is "packed" exactly once per
//! layer and reused across every sample of every batch with no reshape
//! copy. The backward pass lowers each sample to a transposed column
//! panel (im2col). Both passes walk the batch in sample order; the
//! backward adds each sample's weight and bias gradients into the totals
//! as soon as they are formed.
//!
//! Hot-path buffers (phase planes, column panels, one sample's weight
//! gradient) and the output tensors come from [`crate::scratch`], so a
//! warmed pipeline performs no per-frame heap allocation.

use std::cell::RefCell;

use crate::kernels::{conv_panel, conv_panel_stride, pack_at, Cols, Strided};
use crate::{scratch, Result, Tensor, TensorError};

/// Stride and zero-padding configuration for a 2-D convolution.
///
/// # Example
///
/// ```
/// use ndtensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new((2, 2), (1, 1));
/// // 60×160 input, 5×5 kernel, stride 2, pad 1 → 29×79 output.
/// assert_eq!(spec.output_hw(60, 160, 5, 5).unwrap(), (29, 79));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Vertical and horizontal stride (must both be non-zero).
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding applied to both sides.
    pub padding: (usize, usize),
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: (1, 1),
            padding: (0, 0),
        }
    }
}

impl Conv2dSpec {
    /// Creates a spec from `(stride_h, stride_w)` and `(pad_h, pad_w)`.
    pub fn new(stride: (usize, usize), padding: (usize, usize)) -> Self {
        Conv2dSpec { stride, padding }
    }

    /// Unit-stride, zero-padding spec.
    pub fn unit() -> Self {
        Self::default()
    }

    /// Output height/width for an input of `in_h × in_w` and a kernel of
    /// `kh × kw`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when the stride is zero or the
    /// padded input is smaller than the kernel.
    pub fn output_hw(
        &self,
        in_h: usize,
        in_w: usize,
        kh: usize,
        kw: usize,
    ) -> Result<(usize, usize)> {
        let (sh, sw) = self.stride;
        if sh == 0 || sw == 0 {
            return Err(TensorError::invalid("conv2d", "stride must be non-zero"));
        }
        if kh == 0 || kw == 0 {
            return Err(TensorError::invalid("conv2d", "kernel must be non-empty"));
        }
        let (ph, pw) = self.padding;
        let eff_h = in_h + 2 * ph;
        let eff_w = in_w + 2 * pw;
        if eff_h < kh || eff_w < kw {
            return Err(TensorError::invalid(
                "conv2d",
                format!("padded input {eff_h}x{eff_w} smaller than kernel {kh}x{kw}"),
            ));
        }
        Ok(((eff_h - kh) / sh + 1, (eff_w - kw) / sw + 1))
    }
}

fn im2col_geometry(
    sample_len: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<(usize, usize)> {
    if sample_len != c * h * w {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w,
            actual: sample_len,
        });
    }
    spec.output_hw(h, w, kh, kw)
}

/// `dst[i] = src[i · stride]` for every `i`; `src` must reach index
/// `(dst.len() − 1) · stride`. Strides 1 and 2 (every PilotNet conv) get
/// a slice copy and a fixed-width gather the compiler can vectorise.
#[inline(always)]
fn gather_strided(dst: &mut [f32], src: &[f32], stride: usize) {
    match stride {
        1 => dst.copy_from_slice(&src[..dst.len()]),
        2 => gather_by(dst, src, 2),
        _ => gather_by(dst, src, stride),
    }
}

#[inline(always)]
fn gather_by(dst: &mut [f32], src: &[f32], stride: usize) {
    let Some((last, body)) = dst.split_last_mut() else {
        return;
    };
    for (d, chunk) in body.iter_mut().zip(src.chunks_exact(stride)) {
        *d = chunk[0];
    }
    *last = src[body.len() * stride];
}

/// Half-open range of output columns `ox` whose input column
/// `ox·sw + kx − pw` lies inside `0..w`.
fn valid_ox(ow: usize, w: usize, kx: usize, sw: usize, pw: usize) -> (usize, usize) {
    let lo = pw.saturating_sub(kx).div_ceil(sw).min(ow);
    let hi = if w + pw > kx {
        ((w + pw - kx - 1) / sw + 1).min(ow)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Writes the `[c·kh·kw, oh·ow]` column matrix for one sample, assigning
/// every element of `out` (padding taps become zeros), so the buffer
/// needs no pre-zeroing. Geometry must be validated by the caller.
///
/// The valid `ox` range of each `(ci, ky, kx)` row is hoisted out of the
/// pixel loop, so the interior of each output row segment is a plain
/// strided gather of one input row.
#[allow(clippy::too_many_arguments)]
fn im2col_core(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let cols = oh * ow;
    debug_assert_eq!(out.len(), c * kh * kw * cols);
    for ci in 0..c {
        let plane = &sample[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let orow = &mut out[row * cols..(row + 1) * cols];
                let (lo, hi) = valid_ox(ow, w, kx, sw, pw);
                let ix0 = (lo * sw + kx).saturating_sub(pw);
                for (oy, seg) in orow.chunks_exact_mut(ow).enumerate() {
                    let iy = oy * sh + ky;
                    if iy < ph || iy - ph >= h {
                        seg.fill(0.0);
                        continue;
                    }
                    gather_segment(
                        seg,
                        &plane[(iy - ph) * w..(iy - ph + 1) * w],
                        (lo, hi),
                        ix0,
                        sw,
                    );
                }
            }
        }
    }
}

/// Assigns `seg[lo..hi]` from `row` (a strided gather from `row[ix0..]`)
/// and zeros the rest of `seg`.
#[inline(always)]
fn gather_segment(
    seg: &mut [f32],
    row: &[f32],
    (lo, hi): (usize, usize),
    ix0: usize,
    stride: usize,
) {
    let (head, rest) = seg.split_at_mut(lo);
    let (mid, tail) = rest.split_at_mut(hi - lo);
    head.fill(0.0);
    if !mid.is_empty() {
        gather_strided(mid, &row[ix0..], stride);
    }
    tail.fill(0.0);
}

/// Stride-phase geometry of one `c × h × w` sample: `sh × sw` planes per
/// channel, each `hq × wq`, with `wq = max(⌈(w + pw)/sw⌉, ow)` and `hq =
/// ⌈(h + 2ph)/sh⌉`, plus one zero row when `pw > 0`. Plane `(ci, py, px)`
/// holds the zero-padded sample's pixels `(qy·sh + py, qx·sw + px)`, and
/// zeros past the padded edge.
///
/// Tap `(ci, ky, kx)` at output `(oy, ox)` reads padded pixel `(oy·sh +
/// ky, ox·sw + kx)`, that is plane `(ci, ky mod sh, kx mod sw)` at `(oy +
/// ky div sh, ox + kx div sw)`. So over an `oh × wq` grid of output
/// columns, the tap's column-matrix row is one contiguous run of that
/// plane from offset `(ky div sh)·wq + kx div sw`. A row holds only
/// `wq·sw ≥ w + pw` padded columns: a kept read past its end lands in
/// the next row's left padding, which holds the zeros of the right
/// padding it stands for — hence the zero row under the last, so no kept
/// read leaves its plane. Grid columns `ox ≥ ow` read past a row's kept
/// part (into the next row, the next plane or the buffer's tail) and are
/// dropped.
struct Phases {
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    hq: usize,
    wq: usize,
}

impl Phases {
    fn new(c: usize, h: usize, w: usize, ow: usize, spec: Conv2dSpec) -> Self {
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        Phases {
            c,
            h,
            w,
            spec,
            hq: (h + 2 * ph).div_ceil(sh) + usize::from(pw > 0),
            wq: (w + pw).div_ceil(sw).max(ow),
        }
    }

    /// Length of all the planes of one sample.
    fn len(&self) -> usize {
        self.c * self.spec.stride.0 * self.spec.stride.1 * self.hq * self.wq
    }

    /// Fills `starts` with the start of tap `(ci, ky, kx)`'s run, for
    /// every tap in column-matrix row order.
    fn starts(&self, kh: usize, kw: usize, starts: &mut Vec<usize>) {
        let (sh, sw) = self.spec.stride;
        let plane = self.hq * self.wq;
        starts.clear();
        for ci in 0..self.c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let p = (ci * sh + ky % sh) * sw + kx % sw;
                    starts.push(p * plane + (ky / sh) * self.wq + kx / sw);
                }
            }
        }
    }

    /// Writes one sample's planes into `out` ([`Phases::len`] long),
    /// assigning every element. Each plane row is a strided gather of one
    /// input row between zeros.
    fn split(&self, sample: &[f32], out: &mut [f32]) {
        let &Phases {
            c, h, w, hq, wq, ..
        } = self;
        let (sh, sw) = self.spec.stride;
        let (ph, pw) = self.spec.padding;
        debug_assert_eq!(out.len(), self.len());
        let mut planes = out.chunks_exact_mut(hq * wq);
        for chan in sample.chunks_exact(h * w).take(c) {
            for py in 0..sh {
                for px in 0..sw {
                    let Some(plane) = planes.next() else { return };
                    let (lo, hi) = valid_ox(wq, w, px, sw, pw);
                    let ix0 = (lo * sw + px).saturating_sub(pw);
                    for (qy, row) in plane.chunks_exact_mut(wq).enumerate() {
                        let iy = qy * sh + py;
                        if iy < ph || iy - ph >= h {
                            row.fill(0.0);
                        } else {
                            let src = &chan[(iy - ph) * w..(iy - ph + 1) * w];
                            gather_segment(row, src, (lo, hi), ix0, sw);
                        }
                    }
                }
            }
        }
    }
}

/// Writes the transposed column matrix for one sample: row `p = oy·ow +
/// ox` at `out[p · ld..]` holds output pixel `p`'s receptive field in
/// im2col row order `(ci, ky, kx)`, with `ld ≥ c·kh·kw`. Assigns every
/// element of `out` (padding taps and the `ld − c·kh·kw` pad columns of
/// each row become zeros), so the buffer needs no pre-zeroing; only
/// pixels whose field crosses the padding zero any taps. Geometry must be
/// validated by the caller.
///
/// Each `(ci, ky)` run of taps is one copy from an input row, clipped to
/// the valid `kx` range of the pixel's column. Kernel widths 3 and 5
/// (every PilotNet conv) copy unclipped runs as fixed-size moves instead
/// of a `memcpy` call per run.
#[allow(clippy::too_many_arguments)]
fn im2col_t_core(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    ld: usize,
    out: &mut [f32],
) {
    match kw {
        3 => im2col_t_runs::<3>(sample, c, h, w, kh, kw, spec, oh, ow, ld, out),
        5 => im2col_t_runs::<5>(sample, c, h, w, kh, kw, spec, oh, ow, ld, out),
        _ => im2col_t_runs::<0>(sample, c, h, w, kh, kw, spec, oh, ow, ld, out),
    }
}

/// The body of [`im2col_t_core`]; a non-zero `KW` equals `kw` and turns
/// unclipped runs into fixed-size copies.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn im2col_t_runs<const KW: usize>(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    ld: usize,
    out: &mut [f32],
) {
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let kdim = c * kh * kw;
    debug_assert!(ld >= kdim && (KW == 0 || KW == kw));
    debug_assert_eq!(out.len(), oh * ow * ld);
    for oy in 0..oh {
        // Tap ky reads input row y0 + ky − ph.
        let y0 = oy * sh;
        let ky_lo = ph.saturating_sub(y0).min(kh);
        let ky_hi = (h + ph).saturating_sub(y0).min(kh).max(ky_lo);
        for ox in 0..ow {
            let p = oy * ow + ox;
            let (taps, pad) = out[p * ld..(p + 1) * ld].split_at_mut(kdim);
            pad.fill(0.0);
            // Tap kx reads input column x0 + kx − pw.
            let x0 = ox * sw;
            let kx_lo = pw.saturating_sub(x0).min(kw);
            let kx_hi = (w + pw).saturating_sub(x0).min(kw).max(kx_lo);
            let (ix, len) = ((x0 + kx_lo).saturating_sub(pw), kx_hi - kx_lo);
            let clipped = ky_lo > 0 || ky_hi < kh || len < kw;
            for ci in 0..c {
                let plane = &sample[ci * h * w..(ci + 1) * h * w];
                for ky in 0..kh {
                    let run = &mut taps[(ci * kh + ky) * kw..(ci * kh + ky + 1) * kw];
                    if !clipped {
                        let src = &plane[(y0 + ky - ph) * w + ix..];
                        if KW != 0 {
                            run[..KW].copy_from_slice(&src[..KW]);
                        } else {
                            run.copy_from_slice(&src[..kw]);
                        }
                    } else if ky < ky_lo || ky >= ky_hi || len == 0 {
                        run.fill(0.0);
                    } else {
                        let src = &plane[(y0 + ky - ph) * w + ix..];
                        run[..kx_lo].fill(0.0);
                        run[kx_lo..kx_hi].copy_from_slice(&src[..len]);
                        run[kx_hi..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// `dst[i · stride] += src[i]` for every `i`; `dst` must reach index
/// `(src.len() − 1) · stride`. Stride 1 is a slice add the compiler can
/// vectorise.
#[inline(always)]
fn scatter_add_strided(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    } else {
        for (d, &s) in dst.iter_mut().step_by(stride).zip(src) {
            *d += s;
        }
    }
}

/// `dst[2i] += a[i]` and `dst[2i + 1] += b[i]` for every `i`: one
/// contiguous pass over `dst` that the compiler vectorises with
/// interleaving shuffles.
#[inline(always)]
fn scatter_add_pair(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for (d, (&x, &y)) in dst.chunks_exact_mut(2).zip(a.iter().zip(b)) {
        d[0] += x;
        d[1] += y;
    }
}

/// Accumulates a column matrix back into a sample buffer. `out` must be
/// zeroed (or hold a value to accumulate onto); geometry must be
/// validated by the caller.
///
/// The valid `ox` range of each `(ci, ky, kx)` row is hoisted out of the
/// pixel loop, as in [`im2col_core`]; the visiting order, and so each
/// pixel's summation order, is the per-element loop's. At stride 2, taps
/// `kx` and `kx + 1` land on pixels of opposite parity, so no pixel takes
/// a term from both: the pair is scattered as one interleaved contiguous
/// add where both are valid, and each pixel still takes its terms in
/// `(ky, kx)` order.
#[allow(clippy::too_many_arguments)]
fn col2im_core(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let ncols = oh * ow;
    debug_assert_eq!(out.len(), c * h * w);
    for ci in 0..c {
        let plane = &mut out[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            // The pixel row tap row `ky` of output row `oy` lands on.
            let prow_of = |oy: usize| {
                let iy = oy * sh + ky;
                (iy >= ph && iy - ph < h).then(|| (iy - ph) * w)
            };
            let crow = |kx: usize| {
                let row = (ci * kh + ky) * kw + kx;
                &data[row * ncols..(row + 1) * ncols]
            };
            let mut kx = 0;
            while kx < kw {
                if sw == 2 && kx + 1 < kw {
                    // Taps `kx` (a) and `kx + 1` (b): both valid on
                    // `lo..hi`, each alone on the rest of its own range.
                    let (a, b) = (crow(kx), crow(kx + 1));
                    let (ra, rb) = (valid_ox(ow, w, kx, 2, pw), valid_ox(ow, w, kx + 1, 2, pw));
                    let lo = ra.0.max(rb.0);
                    let hi = ra.1.min(rb.1).max(lo);
                    let lone = [
                        (0, ra.0, ra.1.min(lo)),
                        (0, hi.max(ra.0), ra.1),
                        (1, rb.0, rb.1.min(lo)),
                        (1, hi.max(rb.0), rb.1),
                    ];
                    for oy in 0..oh {
                        let Some(p0) = prow_of(oy) else { continue };
                        let prow = &mut plane[p0..p0 + w];
                        let (sa, sb) = (&a[oy * ow..(oy + 1) * ow], &b[oy * ow..(oy + 1) * ow]);
                        for (t, l, r) in lone {
                            if l < r {
                                let seg = if t == 0 { sa } else { sb };
                                scatter_add_strided(
                                    &mut prow[l * 2 + kx + t - pw..],
                                    &seg[l..r],
                                    2,
                                );
                            }
                        }
                        if lo < hi {
                            let ix0 = lo * 2 + kx - pw;
                            scatter_add_pair(&mut prow[ix0..], &sa[lo..hi], &sb[lo..hi]);
                        }
                    }
                    kx += 2;
                } else {
                    let row = crow(kx);
                    let (lo, hi) = valid_ox(ow, w, kx, sw, pw);
                    if lo < hi {
                        let ix0 = lo * sw + kx - pw;
                        for oy in 0..oh {
                            let Some(p0) = prow_of(oy) else { continue };
                            let seg = &row[oy * ow + lo..oy * ow + hi];
                            scatter_add_strided(&mut plane[p0 + ix0..p0 + w], seg, sw);
                        }
                    }
                    kx += 1;
                }
            }
        }
    }
}

/// Lowers one `C×H×W` sample to a `[C·KH·KW, OH·OW]` column matrix.
///
/// Out-of-bounds taps (from padding) contribute zeros. This is the exact
/// adjoint of [`col2im`].
///
/// # Errors
///
/// Propagates the shape errors of [`Conv2dSpec::output_hw`]; additionally
/// fails when `sample.len() != c*h*w`.
pub fn im2col(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (oh, ow) = im2col_geometry(sample.len(), c, h, w, kh, kw, spec)?;
    let mut out = Tensor::zeros([c * kh * kw, oh * ow]);
    im2col_core(sample, c, h, w, kh, kw, spec, oh, ow, out.as_mut_slice());
    Ok(out)
}

fn col2im_geometry(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<(usize, usize)> {
    let (oh, ow) = spec.output_hw(h, w, kh, kw)?;
    let rows = c * kh * kw;
    let ncols = oh * ow;
    if cols.shape().dims() != [rows, ncols] {
        return Err(TensorError::invalid(
            "col2im",
            format!(
                "column matrix shape {} does not match expected [{rows}, {ncols}]",
                cols.shape()
            ),
        ));
    }
    Ok((oh, ow))
}

/// Accumulates a `[C·KH·KW, OH·OW]` column matrix back into a `C×H×W`
/// sample buffer (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Fails when the column matrix does not match the implied geometry.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<Vec<f32>> {
    let (oh, ow) = col2im_geometry(cols, c, h, w, kh, kw, spec)?;
    let mut out = scratch::take(c * h * w);
    out.resize(c * h * w, 0.0);
    col2im_core(cols.as_slice(), c, h, w, kh, kw, spec, oh, ow, &mut out);
    Ok(out)
}

/// Resolved geometry of one convolution: batch, channels, spatial sizes.
struct ConvGeometry {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

fn conv_geometry(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<ConvGeometry> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: input.rank(),
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: weight.rank(),
        });
    }
    let [n, c, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
        input.shape().dims()[3],
    ];
    let [f, wc, kh, kw] = [
        weight.shape().dims()[0],
        weight.shape().dims()[1],
        weight.shape().dims()[2],
        weight.shape().dims()[3],
    ];
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    let (oh, ow) = spec.output_hw(h, w, kh, kw)?;
    Ok(ConvGeometry {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        oh,
        ow,
    })
}

fn check_bias(bias: Option<&Tensor>, f: usize, weight: &Tensor) -> Result<()> {
    if let Some(b) = bias {
        if b.shape().dims() != [f] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: b.shape().clone(),
                rhs: weight.shape().clone(),
            });
        }
    }
    Ok(())
}

thread_local! {
    /// [`conv2d_impl`]'s tap starts, kept across calls so that a warmed
    /// forward allocates nothing. It grows to the largest `c·kh·kw` run
    /// on this thread: a few kilobytes for PilotNet.
    static TAP_STARTS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Forward pass over a pre-validated geometry, assigning every element of
/// `out` (length `n·f·oh·ow`).
///
/// Implicit GEMM: each sample is split once into its stride-phase planes
/// ([`Phases`]), and [`conv_panel`] reads tap `(ci, ky, kx)`'s B row as
/// the run of its plane at that tap's offset, over an `oh × wq` grid of
/// output columns whose `wq − ow` columns past each output row are
/// computed and dropped at the store. The bias is added in the store
/// epilogue — one kernel for every conv forward at every batch size.
/// Each output element's chain is the column-matrix product's: from
/// `+0.0` over the taps in ascending `(ci, ky, kx)`, skipping exact-zero
/// weights, then `+ bias`; a padding tap reads a plane's zero.
fn conv2d_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    g: &ConvGeometry,
    out: &mut [f32],
) {
    let &ConvGeometry {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        oh,
        ow,
    } = g;
    // `[F, C, KH, KW]` row-major storage is already the `[F, C·KH·KW]`
    // GEMM operand: the kernel bank is packed once per layer, for free.
    let wd = weight.as_slice();
    let sample_len = c * h * w;
    let out_len = f * oh * ow;
    let kdim = c * kh * kw;
    let bias = bias.map(Tensor::as_slice);
    let phases = Phases::new(c, h, w, ow, spec);
    let cols = Cols::wide(oh, phases.wq, ow);
    let planes_len = phases.len();
    TAP_STARTS.with_borrow_mut(|starts| {
        phases.starts(kh, kw, starts);
        // The planes, then a tail that only the dropped columns of the
        // last taps' runs read: it keeps whatever the pool left there.
        let len = starts
            .iter()
            .map(|&s| s + cols.span())
            .fold(planes_len, usize::max);
        let mut planes = scratch::take_stale(len);
        for ni in 0..n {
            let sample = &input.as_slice()[ni * sample_len..(ni + 1) * sample_len];
            phases.split(sample, &mut planes[..planes_len]);
            let dst = &mut out[ni * out_len..(ni + 1) * out_len];
            conv_panel(wd, f, kdim, &planes, &starts[..], cols, bias, true, dst);
        }
        scratch::give(planes);
    });
}

/// 2-D convolution forward pass.
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[F, C, KH, KW]`
/// * `bias`: optional `[F]`
///
/// Returns `[N, F, OH, OW]`.
///
/// # Errors
///
/// Fails on rank/shape mismatches or when the padded input is smaller than
/// the kernel.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let g = conv_geometry(input, weight, spec)?;
    check_bias(bias, g.f, weight)?;
    // `conv_panel` assigns every output element.
    let mut out = Tensor::stale([g.n, g.f, g.oh, g.ow]);
    conv2d_impl(input, weight, bias, spec, &g, out.as_mut_slice());
    Ok(out)
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weights, `[F, C, KH, KW]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[F]`.
    pub grad_bias: Tensor,
}

/// Backward pass over a pre-validated geometry, accumulating into zeroed
/// gradient slices. With `grad_input` absent the input gradient is not
/// formed at all.
///
/// Samples run in order. Per sample, both GEMMs run on [`conv_panel`]:
///
/// * `dW = gOut · colsᵀ` over a padded transposed column panel
///   (`[oh·ow, c·kh·kw]`, [`im2col_t_core`]). Each element is one chain
///   from `0.0` over the output pixels, ascending, with every term formed
///   — the never-skipping chain, on the kernel's branch-free loop. The
///   sample's `dW` is then added to `grad_weight`, and its `gOut` row
///   sums to `grad_bias`, so both totals are sums over samples in sample
///   order.
/// * `dCols = Wᵀ · gOut` over a padded copy of `gOut`, skipping exact-zero
///   weights — the zero-skipping chain — then scattered by
///   [`col2im_core`] into the sample's slice of `grad_input`.
///
/// The column panel and both products are taken stale from the scratch
/// pool once and reused by every sample: the lowering assigns its panel
/// in full, pad columns included, and [`conv_panel`] assigns every output
/// element. The `gOut` panel starts zeroed, so its pad columns stay zero
/// while each sample copies in its rows.
#[allow(clippy::too_many_arguments)]
fn conv2d_backward_impl(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
    g: &ConvGeometry,
    mut grad_input: Option<&mut [f32]>,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    let &ConvGeometry {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        oh,
        ow,
    } = g;
    let god = grad_output.as_slice();
    let sample_len = c * h * w;
    let out_len = f * oh * ow;
    let kdim = c * kh * kw;
    let ncols = oh * ow;
    let ld_cols = conv_panel_stride(kdim);
    let ld_gout = conv_panel_stride(ncols);
    let mut cols_t = scratch::take_stale(ncols * ld_cols);
    let mut dw = scratch::take_stale(f * kdim);
    // `Wᵀ` as `kdim` packed rows of `f` weights, the padded `gOut` panel
    // and the `dCols` product: only when the input gradient is formed.
    let (wt, mut gpanel, mut dcols) = if grad_input.is_some() {
        (
            pack_at(weight.as_slice(), f, kdim),
            scratch::take_zeroed(f * ld_gout),
            scratch::take_stale(kdim * ncols),
        )
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    for ni in 0..n {
        let sample = &input.as_slice()[ni * sample_len..(ni + 1) * sample_len];
        let gout = &god[ni * out_len..(ni + 1) * out_len];
        im2col_t_core(sample, c, h, w, kh, kw, spec, oh, ow, ld_cols, &mut cols_t);
        conv_panel(
            gout,
            f,
            ncols,
            &cols_t,
            Strided(ld_cols),
            Cols::dense(kdim),
            None,
            false,
            &mut dw,
        );
        for (gw, &d) in grad_weight.iter_mut().zip(&dw) {
            *gw += d;
        }
        if let Some(gi) = grad_input.as_deref_mut() {
            for (dst, src) in gpanel
                .chunks_exact_mut(ld_gout)
                .zip(gout.chunks_exact(ncols))
            {
                dst[..ncols].copy_from_slice(src);
            }
            conv_panel(
                &wt,
                kdim,
                f,
                &gpanel,
                Strided(ld_gout),
                Cols::dense(ncols),
                None,
                true,
                &mut dcols,
            );
            let dsample = &mut gi[ni * sample_len..(ni + 1) * sample_len];
            col2im_core(&dcols, c, h, w, kh, kw, spec, oh, ow, dsample);
        }
        for (gb, row) in grad_bias.iter_mut().zip(gout.chunks_exact(ncols)) {
            *gb += row.iter().sum::<f32>();
        }
    }
    for buf in [cols_t, dw, wt, gpanel, dcols] {
        scratch::give(buf);
    }
}

fn check_backward_shapes(grad_output: &Tensor, g: &ConvGeometry) -> Result<()> {
    if grad_output.shape().dims() != [g.n, g.f, g.oh, g.ow] {
        return Err(TensorError::invalid(
            "conv2d_backward",
            format!(
                "grad_output shape {} does not match expected [{}, {}, {}, {}]",
                grad_output.shape(),
                g.n,
                g.f,
                g.oh,
                g.ow
            ),
        ));
    }
    Ok(())
}

/// 2-D convolution backward pass.
///
/// `grad_output` must have the forward output shape `[N, F, OH, OW]`.
///
/// # Errors
///
/// Fails on rank/shape mismatches between the stored forward geometry and
/// `grad_output`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
) -> Result<Conv2dGrads> {
    let g = conv_geometry(input, weight, spec)?;
    check_backward_shapes(grad_output, &g)?;
    let mut grad_input = Tensor::zeros([g.n, g.c, g.h, g.w]);
    let mut grad_weight = Tensor::zeros([g.f, g.c, g.kh, g.kw]);
    let mut grad_bias = Tensor::zeros([g.f]);
    conv2d_backward_impl(
        input,
        weight,
        grad_output,
        spec,
        &g,
        Some(grad_input.as_mut_slice()),
        grad_weight.as_mut_slice(),
        grad_bias.as_mut_slice(),
    );
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// Like [`conv2d_backward`], but forms only `(grad_weight, grad_bias)`:
/// the input gradient's `Wᵀ · gOut` product and scatter are skipped. Both
/// tensors are bit-identical to [`conv2d_backward`]'s.
///
/// # Errors
///
/// Like [`conv2d_backward`].
pub fn conv2d_backward_params(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let g = conv_geometry(input, weight, spec)?;
    check_backward_shapes(grad_output, &g)?;
    let mut grad_weight = Tensor::zeros([g.f, g.c, g.kh, g.kw]);
    let mut grad_bias = Tensor::zeros([g.f]);
    conv2d_backward_impl(
        input,
        weight,
        grad_output,
        spec,
        &g,
        None,
        grad_weight.as_mut_slice(),
        grad_bias.as_mut_slice(),
    );
    Ok((grad_weight, grad_bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Direct (definition-level) convolution used as the test oracle.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let [n, c, h, w] = [
            input.shape().dims()[0],
            input.shape().dims()[1],
            input.shape().dims()[2],
            input.shape().dims()[3],
        ];
        let [f, _, kh, kw] = [
            weight.shape().dims()[0],
            weight.shape().dims()[1],
            weight.shape().dims()[2],
            weight.shape().dims()[3],
        ];
        let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        Tensor::from_fn([n, f, oh, ow], |idx| {
            let (ni, fi, oy, ox) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = bias.map(|b| b.at(&[fi]).unwrap()).unwrap_or(0.0);
            for ci in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * sh + ky) as isize - ph as isize;
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        acc += input.at(&[ni, ci, iy as usize, ix as usize]).unwrap()
                            * weight.at(&[fi, ci, ky, kx]).unwrap();
                    }
                }
            }
            acc
        })
    }

    fn pseudo(shape: impl Into<crate::Shape>, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Tensor::from_fn(shape.into(), |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::new((2, 2), (0, 0));
        assert_eq!(spec.output_hw(60, 160, 5, 5).unwrap(), (28, 78));
        assert_eq!(Conv2dSpec::unit().output_hw(5, 5, 3, 3).unwrap(), (3, 3));
        assert!(Conv2dSpec::new((0, 1), (0, 0))
            .output_hw(5, 5, 3, 3)
            .is_err());
        assert!(Conv2dSpec::unit().output_hw(2, 2, 3, 3).is_err());
        // Padding rescues a too-small input.
        assert_eq!(
            Conv2dSpec::new((1, 1), (1, 1))
                .output_hw(2, 2, 3, 3)
                .unwrap(),
            (2, 2)
        );
    }

    #[test]
    fn conv_matches_naive_reference() {
        for &(spec, c, f) in &[
            (Conv2dSpec::unit(), 1usize, 1usize),
            (Conv2dSpec::new((2, 2), (0, 0)), 2, 3),
            (Conv2dSpec::new((1, 2), (1, 1)), 3, 2),
            (Conv2dSpec::new((2, 1), (2, 0)), 1, 4),
        ] {
            let input = pseudo([2, c, 9, 11], 5);
            let weight = pseudo([f, c, 3, 3], 6);
            let bias = pseudo([f], 7);
            let fast = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            let slow = naive_conv(&input, &weight, Some(&bias), spec);
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    fn conv_without_bias() {
        let input = pseudo([1, 2, 6, 6], 1);
        let weight = pseudo([3, 2, 3, 3], 2);
        let spec = Conv2dSpec::unit();
        assert_close(
            &conv2d(&input, &weight, None, spec).unwrap(),
            &naive_conv(&input, &weight, None, spec),
            1e-4,
        );
    }

    #[test]
    fn backward_params_is_bit_identical_to_full_backward() {
        for spec in [
            Conv2dSpec::new((2, 2), (0, 0)),
            Conv2dSpec::new((1, 1), (1, 1)),
        ] {
            let input = pseudo([3, 2, 9, 11], 61);
            let weight = pseudo([5, 2, 3, 3], 62);
            let out = conv2d(&input, &weight, None, spec).unwrap();
            let gout = pseudo(out.shape().dims().to_vec(), 63);
            let full = conv2d_backward(&input, &weight, &gout, spec).unwrap();
            let (gw, gb) = conv2d_backward_params(&input, &weight, &gout, spec).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gw), bits(&full.grad_weight));
            assert_eq!(bits(&gb), bits(&full.grad_bias));
        }
        let bad = Tensor::zeros([1, 1, 9, 9]);
        let (input, weight) = (pseudo([1, 1, 5, 5], 1), pseudo([1, 1, 3, 3], 2));
        assert!(conv2d_backward_params(&input, &weight, &bad, Conv2dSpec::unit()).is_err());
    }

    #[test]
    fn conv_rejects_bad_shapes() {
        let input = pseudo([1, 2, 6, 6], 1);
        let weight = pseudo([3, 99, 3, 3], 2);
        assert!(conv2d(&input, &weight, None, Conv2dSpec::unit()).is_err());
        let weight_ok = pseudo([3, 2, 3, 3], 2);
        let bad_bias = pseudo([4], 3);
        assert!(conv2d(&input, &weight_ok, Some(&bad_bias), Conv2dSpec::unit()).is_err());
        assert!(conv2d(
            &Tensor::zeros([2, 6, 6]),
            &weight_ok,
            None,
            Conv2dSpec::unit()
        )
        .is_err());
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> must equal <x, col2im(y)> — the defining property
        // that makes the backward pass correct.
        let (c, h, w, kh, kw) = (2, 6, 7, 3, 2);
        let spec = Conv2dSpec::new((2, 1), (1, 1));
        let x = pseudo([c * h * w], 31).into_vec();
        let cols_shape_probe = im2col(&x, c, h, w, kh, kw, spec).unwrap();
        let y = pseudo(cols_shape_probe.shape().dims().to_vec(), 32);
        let cx = im2col(&x, c, h, w, kh, kw, spec).unwrap();
        let lhs = cx.dot(&y).unwrap();
        let back = col2im(&y, c, h, w, kh, kw, spec).unwrap();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = Conv2dSpec::new((2, 2), (1, 1));
        let input = pseudo([1, 2, 5, 6], 41);
        let weight = pseudo([2, 2, 3, 3], 42);
        let bias = pseudo([2], 43);

        // Loss = sum(conv output); gradient of loss wrt output is all-ones.
        let out = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let grads = conv2d_backward(&input, &weight, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss =
            |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d(inp, wt, Some(b), spec).unwrap().sum();

        for probe in [0usize, 7, 23, input.len() - 1] {
            let mut plus = input.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            let analytic = grads.grad_input.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad at {probe}: {numeric} vs {analytic}"
            );
        }
        for probe in [0usize, 5, weight.len() - 1] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            let analytic = grads.grad_weight.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "weight grad at {probe}: {numeric} vs {analytic}"
            );
        }
        for probe in 0..2 {
            let mut plus = bias.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = bias.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss(&input, &weight, &plus) - loss(&input, &weight, &minus)) / (2.0 * eps);
            let analytic = grads.grad_bias.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "bias grad at {probe}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let input = pseudo([1, 1, 5, 5], 1);
        let weight = pseudo([1, 1, 3, 3], 2);
        let bad = Tensor::zeros([1, 1, 9, 9]);
        assert!(conv2d_backward(&input, &weight, &bad, Conv2dSpec::unit()).is_err());
    }

    #[test]
    fn empty_batch_filters_and_channels_are_handled() {
        // (n, c, f): no samples, no filters, no input channels.
        for (n, c, f) in [(0usize, 2usize, 3usize), (2, 2, 0), (2, 0, 3)] {
            let input = Tensor::zeros([n, c, 5, 5]);
            let weight = Tensor::zeros([f, c, 3, 3]);
            let out = conv2d(&input, &weight, None, Conv2dSpec::unit()).unwrap();
            assert_eq!(out.shape().dims(), &[n, f, 3, 3]);
            assert!(out.as_slice().iter().all(|&v| v == 0.0));
            let grads = conv2d_backward(&input, &weight, &out, Conv2dSpec::unit()).unwrap();
            assert_eq!(grads.grad_input.shape().dims(), &[n, c, 5, 5]);
            assert!(grads.grad_weight.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn conv_linearity_in_input(
            h in 4usize..8, w in 4usize..8, seed in 0u64..500
        ) {
            let spec = Conv2dSpec::unit();
            let a = pseudo([1, 1, h, w], seed);
            let b = pseudo([1, 1, h, w], seed + 1);
            let k = pseudo([1, 1, 3, 3], seed + 2);
            let lhs = conv2d(&(&a + &b), &k, None, spec).unwrap();
            let rhs = &conv2d(&a, &k, None, spec).unwrap() + &conv2d(&b, &k, None, spec).unwrap();
            assert_close(&lhs, &rhs, 1e-4);
        }

        #[test]
        fn im2col_roundtrip_counts_taps(
            h in 3usize..7, w in 3usize..7
        ) {
            // col2im(im2col(ones)) counts, per input pixel, how many output
            // windows cover it — every entry must be ≥ 1 for unit stride,
            // zero padding, and kernel ≤ input.
            let spec = Conv2dSpec::unit();
            let x = vec![1.0f32; h * w];
            let cols = im2col(&x, 1, h, w, 2, 2, spec).unwrap();
            let back = col2im(&cols, 1, h, w, 2, 2, spec).unwrap();
            for v in back {
                prop_assert!(v >= 1.0);
            }
        }

        #[test]
        fn im2col_col2im_adjoint_under_varying_geometry(
            (c, h, w) in (1usize..3, 4usize..9, 4usize..9),
            (kh, kw, sh, sw) in (1usize..4, 1usize..4, 1usize..3, 1usize..3),
            (ph, pw) in (0usize..2, 0usize..2),
            seed in 0u64..500
        ) {
            // <im2col(x), y> == <x, col2im(y)> for arbitrary strides and
            // padding, not just the fixed geometry of the unit test above.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let x = pseudo([c * h * w], seed).into_vec();
            let cx = im2col(&x, c, h, w, kh, kw, spec).unwrap();
            let y = pseudo(cx.shape().dims().to_vec(), seed + 1);
            let lhs = cx.dot(&y).unwrap();
            let back = col2im(&y, c, h, w, kh, kw, spec).unwrap();
            let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
            prop_assert!(
                (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
                "adjoint mismatch: {lhs} vs {rhs}"
            );
        }

        #[test]
        fn im2col_matches_per_element_lowering(
            (c, h, w) in (1usize..3, 1usize..10, 1usize..12),
            (kh, kw, sh, sw) in (1usize..4, 1usize..5, 1usize..4, 1usize..4),
            (ph, pw) in (0usize..3, 0usize..4),
            seed in 0u64..500
        ) {
            // The hoisted-range lowering writes exactly what a per-element
            // bounds test would, padding zeros included.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let x = pseudo([c * h * w], seed).into_vec();
            let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
            let mut want = Vec::new();
            for ci in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * sh + ky) as isize - ph as isize;
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                let inside = iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                                want.push(if inside {
                                    x[(ci * h + iy as usize) * w + ix as usize]
                                } else {
                                    0.0
                                });
                            }
                        }
                    }
                }
            }
            let got = im2col(&x, c, h, w, kh, kw, spec).unwrap();
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }

        #[test]
        fn col2im_matches_per_element_scatter(
            (c, h, w) in (1usize..3, 1usize..10, 1usize..12),
            (kh, kw, sh, sw) in (1usize..4, 1usize..5, 1usize..4, 1usize..4),
            (ph, pw) in (0usize..3, 0usize..4),
            seed in 0u64..500
        ) {
            // The hoisted-range scatter adds exactly what a per-element
            // bounds test would, in the same order per pixel.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
            let cols = pseudo([c * kh * kw, oh * ow], seed);
            let mut want = vec![0.0f32; c * h * w];
            for ci in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let row = (ci * kh + ky) * kw + kx;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * sh + ky) as isize - ph as isize;
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                if iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize {
                                    want[(ci * h + iy as usize) * w + ix as usize] +=
                                        cols.as_slice()[row * oh * ow + oy * ow + ox];
                                }
                            }
                        }
                    }
                }
            }
            let got = col2im(&cols, c, h, w, kh, kw, spec).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn transposed_lowering_is_im2col_transposed(
            (c, h, w) in (1usize..3, 1usize..10, 1usize..12),
            (kh, kw, sh, sw) in (1usize..4, 1usize..5, 1usize..4, 1usize..4),
            (ph, pw) in (0usize..3, 0usize..4),
            seed in 0u64..500
        ) {
            // Row p of the padded transposed panel is column p of im2col,
            // followed by zero pad columns, over a NaN-filled buffer.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
            let x = pseudo([c * h * w], seed).into_vec();
            let cols = im2col(&x, c, h, w, kh, kw, spec).unwrap();
            let (kdim, ncols) = (c * kh * kw, oh * ow);
            let ld = conv_panel_stride(kdim);
            let mut panel = vec![f32::NAN; ncols * ld];
            im2col_t_core(&x, c, h, w, kh, kw, spec, oh, ow, ld, &mut panel);
            for p in 0..ncols {
                for r in 0..ld {
                    let want = if r < kdim { cols.as_slice()[r * ncols + p] } else { 0.0 };
                    prop_assert_eq!(panel[p * ld + r].to_bits(), want.to_bits());
                }
            }
        }

        #[test]
        fn im2col_roundtrip_tap_counts_under_stride_and_padding(
            (h, w) in (3usize..8, 3usize..8),
            (kh, kw, sh, sw) in (1usize..4, 1usize..4, 1usize..3, 1usize..3),
            (ph, pw) in (0usize..2, 0usize..2)
        ) {
            // On an all-ones input, col2im(im2col(·)) yields per-pixel
            // window-coverage counts: integers bounded by the densest
            // possible overlap ⌈kh/sh⌉·⌈kw/sw⌉.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let x = vec![1.0f32; h * w];
            let cols = im2col(&x, 1, h, w, kh, kw, spec).unwrap();
            let back = col2im(&cols, 1, h, w, kh, kw, spec).unwrap();
            let max_cover = (kh.div_ceil(sh) * kw.div_ceil(sw)) as f32;
            for v in back {
                prop_assert!(v >= 0.0 && v <= max_cover && v.fract() == 0.0,
                    "coverage count {v} outside [0, {max_cover}]");
            }
        }
    }
}
