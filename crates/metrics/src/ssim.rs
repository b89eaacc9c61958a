//! Structural Similarity (SSIM) with an analytic gradient.
//!
//! SSIM compares two images through local luminance, contrast and structure
//! statistics over sliding windows (the paper uses 11×11 patches with
//! α = β = γ = 1, reducing to the familiar two-factor form):
//!
//! ```text
//! SSIM_w(x, y) = (2 μx μy + C1)(2 σxy + C2)
//!                ───────────────────────────
//!                (μx² + μy² + C1)(σx² + σy² + C2)
//! ```
//!
//! The image-level score is the mean over all window positions. Because
//! the paper *trains* its autoencoder against SSIM, we also need
//! `∂SSIM/∂y` — derived in closed form below and evaluated in `O(H·W)`
//! using integral images, so SSIM-loss training costs the same order as
//! MSE-loss training.
//!
//! # Gradient derivation
//!
//! With `n` pixels per window, per-window statistics `μx, μy, σx², σy²,
//! σxy` (population normalisation), `A1 = 2μxμy + C1`, `A2 = 2σxy + C2`,
//! `B1 = μx² + μy² + C1`, `B2 = σx² + σy² + C2`, and `S = A1·A2/(B1·B2)`:
//!
//! ```text
//! ∂S/∂y_j = (2 / (n·B1·B2)) ·
//!           [ μx·A2 + (x_j − μx)·A1 − S·(μy·B2 + (y_j − μy)·B1) ]
//! ```
//!
//! Grouping terms that multiply `x_j`, `y_j` and `1` lets the sum over all
//! windows containing a pixel be evaluated with three box filters — the
//! same trick used by Zhao et al., *Loss Functions for Image Restoration
//! with Neural Networks* (2016).

use vision::Image;

use crate::{MetricsError, Result};

/// Configuration for SSIM computation.
///
/// # Example
///
/// ```
/// use metrics::SsimConfig;
///
/// let cfg = SsimConfig::default();
/// assert_eq!(cfg.window, 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Side length of the square sliding window (paper: 11).
    pub window: usize,
    /// Luminance stabiliser; `(0.01)²` for unit-range images.
    pub c1: f32,
    /// Contrast stabiliser; `(0.03)²` for unit-range images.
    pub c2: f32,
}

impl Default for SsimConfig {
    fn default() -> Self {
        SsimConfig {
            window: 11,
            c1: 0.01 * 0.01,
            c2: 0.03 * 0.03,
        }
    }
}

impl SsimConfig {
    /// A config with a custom window size and the standard stabilisers.
    pub fn with_window(window: usize) -> Self {
        SsimConfig {
            window,
            ..Self::default()
        }
    }

    fn validate(&self, h: usize, w: usize) -> Result<()> {
        if self.window == 0 {
            return Err(MetricsError::invalid("ssim", "window must be non-zero"));
        }
        if self.window > h || self.window > w {
            return Err(MetricsError::invalid(
                "ssim",
                format!("window {} larger than image {h}x{w}", self.window),
            ));
        }
        if !self.c1.is_finite() || !self.c2.is_finite() || self.c1 <= 0.0 || self.c2 <= 0.0 {
            return Err(MetricsError::invalid(
                "ssim",
                "stabilisers c1 and c2 must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// `T` summed-area tables over one `h × w` grid, each `(h+1) × (w+1)`
/// entries in f64, built one row at a time: row `y` of every table is
/// stored before row `y + 1` of any, so table `t`'s row `y` starts at
/// `(y·T + t)·(w+1)`.
///
/// The storage is borrowed from the [`ndtensor::scratch`] pool and
/// returned on drop, so repeated SSIM evaluation (the per-frame scoring
/// hot path) allocates nothing once warmed.
struct Integrals<const T: usize> {
    sums: Vec<f64>,
    w1: usize,
}

impl<const T: usize> Drop for Integrals<T> {
    fn drop(&mut self) {
        ndtensor::scratch::give_f64(std::mem::take(&mut self.sums));
    }
}

impl<const T: usize> Integrals<T> {
    /// Tables with room for `h` rows after their zero row 0.
    fn new(h: usize, w: usize) -> Self {
        let w1 = w + 1;
        let mut sums = ndtensor::scratch::take_f64(T * (h + 1) * w1);
        sums.resize(T * w1, 0.0);
        Integrals { sums, w1 }
    }

    /// Appends the next row of every table: `value(x)` yields the `T`
    /// values of the row's element `x`. The new rows start as a copy of
    /// the rows above; each table's row prefix sum is an independent
    /// serial chain from `+0.0`, so the `T` chains run side by side and
    /// each adds its running sum onto the copied entry: `above + row`,
    /// exactly the entries of a table built on its own, with entry 0 zero.
    fn push_row(&mut self, value: impl Fn(usize) -> [f64; T]) {
        let (w1, start) = (self.w1, self.sums.len());
        self.sums.extend_from_within(start - T * w1..start);
        let mut rest = &mut self.sums[start..];
        let rows: [&mut [f64]; T] = std::array::from_fn(|_| {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(w1);
            rest = tail;
            row
        });
        let mut row = [0.0f64; T];
        for x in 0..w1 - 1 {
            let v = value(x);
            for t in 0..T {
                row[t] += v[t];
                rows[t][x + 1] += row[t];
            }
        }
    }

    /// Table `t`'s row `y` (length `w + 1`).
    fn row(&self, t: usize, y: usize) -> &[f64] {
        let start = (y * T + t) * self.w1;
        &self.sums[start..start + self.w1]
    }

    /// The corner rows of the `kh`-row, `kw`-column boxes whose top rows
    /// are row `y` and whose left columns are `0..len`, one per table.
    fn corners(&self, y: usize, kh: usize, kw: usize, len: usize) -> [Corners<'_>; T] {
        std::array::from_fn(|t| {
            let (top, bot) = (self.row(t, y), self.row(t, y + kh));
            Corners {
                br: &bot[kw..kw + len],
                tl: &top[..len],
                tr: &top[kw..kw + len],
                bl: &bot[..len],
            }
        })
    }
}

/// The four corner rows of one table over a row of boxes: box `i` sums to
/// `br[i] + tl[i] - tr[i] - bl[i]`, evaluated left to right.
#[derive(Clone, Copy)]
struct Corners<'a> {
    br: &'a [f64],
    tl: &'a [f64],
    tr: &'a [f64],
    bl: &'a [f64],
}

impl Corners<'_> {
    /// The first `len` boxes: re-slicing to the loop's length lets the
    /// compiler drop the bounds checks and vectorise the loop.
    #[inline(always)]
    fn cut(self, len: usize) -> Self {
        Corners {
            br: &self.br[..len],
            tl: &self.tl[..len],
            tr: &self.tr[..len],
            bl: &self.bl[..len],
        }
    }

    #[inline(always)]
    fn sum(&self, i: usize) -> f64 {
        self.br[i] + self.tl[i] - self.tr[i] - self.bl[i]
    }
}

/// The five image tables (`x`, `y`, `x²`, `y²`, `xy`) of a pair.
fn image_tables(xs: &[f32], ys: &[f32], h: usize, w: usize) -> Integrals<5> {
    let mut tables = Integrals::<5>::new(h, w);
    for (xr, yr) in xs.chunks_exact(w).zip(ys.chunks_exact(w)) {
        tables.push_row(|i| {
            let (a, b) = (xr[i] as f64, yr[i] as f64);
            [a, b, a * a, b * b, a * b]
        });
    }
    tables
}

fn check_sizes(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<(usize, usize)> {
    if x.height() != y.height() || x.width() != y.width() {
        return Err(MetricsError::invalid(
            "ssim",
            format!(
                "image sizes differ: {}x{} vs {}x{}",
                x.height(),
                x.width(),
                y.height(),
                y.width()
            ),
        ));
    }
    cfg.validate(x.height(), x.width())?;
    Ok((x.height(), x.width()))
}

/// Five per-window values: the statistics `(μx, μy, σx², σy², σxy)`, or
/// `(S, A1, A2, B1, B2)`.
type Five = (f64, f64, f64, f64, f64);

/// Per-window statistics `(μx, μy, σx², σy², σxy)` from the five window
/// sums `[Σx, Σy, Σx², Σy², Σxy]` over `n` pixels.
#[inline(always)]
fn window_stats(sums: [f64; 5], n: f64) -> Five {
    let mx = sums[0] / n;
    let my = sums[1] / n;
    // Population variance/covariance; max(0) guards tiny negative
    // values from floating-point cancellation.
    let vx = (sums[2] / n - mx * mx).max(0.0);
    let vy = (sums[3] / n - my * my).max(0.0);
    let cxy = sums[4] / n - mx * my;
    (mx, my, vx, vy, cxy)
}

/// `(S, A1, A2, B1, B2)` of one window from its statistics.
#[inline(always)]
fn window_score((mx, my, vx, vy, cxy): Five, c1: f64, c2: f64) -> Five {
    let a1 = 2.0 * mx * my + c1;
    let a2 = 2.0 * cxy + c2;
    let b1 = mx * mx + my * my + c1;
    let b2 = vx + vy + c2;
    (a1 * a2 / (b1 * b2), a1, a2, b1, b2)
}

/// Window `wx`'s `(S, A1, A2, B1, B2)` and statistics from the five
/// tables' corner rows.
#[inline(always)]
fn window_at(corners: &[Corners<'_>; 5], wx: usize, n: f64, c1: f64, c2: f64) -> (Five, Five) {
    let [c0, c1s, c2s, c3, c4] = corners;
    let sums = [c0.sum(wx), c1s.sum(wx), c2s.sum(wx), c3.sum(wx), c4.sum(wx)];
    let stats = window_stats(sums, n);
    (window_score(stats, c1, c2), stats)
}

/// One row of window scores, the corner sums computed in the loop:
/// `score` is the only output, so the loop vectorises without alias
/// checks.
fn row_scores(score: &mut [f64], corners: &[Corners<'_>; 5], n: f64, c1: f64, c2: f64) {
    let corners = corners.map(|c| c.cut(score.len()));
    for (wx, s) in score.iter_mut().enumerate() {
        *s = window_at(&corners, wx, n, c1, c2).0 .0;
    }
}

/// One row of window scores and of the per-window gradient coefficients:
/// for pixel `j` inside window `wx`, `∂S_w/∂y_j = x_j·cx[wx] + y_j·cy[wx] +
/// cc[wx]`. Each window's statistics and `(S, A1, A2, B1, B2)` are
/// computed once and serve both; the four outputs are the only writes,
/// so the loop vectorises.
fn row_scores_and_coefficients(
    [score, cx, cy, cc]: [&mut [f64]; 4],
    corners: &[Corners<'_>; 5],
    n: f64,
    c1: f64,
    c2: f64,
) {
    let len = score.len();
    let (cx, cy, cc) = (&mut cx[..len], &mut cy[..len], &mut cc[..len]);
    let corners = corners.map(|c| c.cut(len));
    for wx in 0..len {
        let ((s, a1, a2, b1, b2), (mx, my, ..)) = window_at(&corners, wx, n, c1, c2);
        score[wx] = s;
        let scale = 2.0 / (n * b1 * b2);
        // ∂S/∂y_j = scale·[ μx·A2 + (x_j−μx)·A1 − S·(μy·B2 + (y_j−μy)·B1) ]
        //         = x_j·(scale·A1) + y_j·(−scale·S·B1)
        //           + scale·(μx·A2 − μx·A1 − S·μy·B2 + S·μy·B1)
        cx[wx] = scale * a1;
        cy[wx] = -scale * s * b1;
        cc[wx] = scale * (mx * a2 - mx * a1 - s * my * b2 + s * my * b1);
    }
}

/// One pixel row of the gradient, `(x·Σcx + y·Σcy + Σcc) / windows`, each
/// sum over the windows covering the pixel, from the coefficient tables'
/// rows `top` (first covering window row) and `bot` (one past the last).
/// Pixel `px` is covered by window columns `px.saturating_sub(k −
/// 1).min(mw − 1) ..= px.min(mw − 1)`; where that range is a full `k`
/// wide the corner sums are formed inside one vectorised loop, and the
/// edge pixels take the same expression one at a time.
fn gradient_row(
    grow: &mut [f32],
    (xr, yr): (&[f32], &[f32]),
    top: [&[f64]; 3],
    bot: [&[f64]; 3],
    k: usize,
    mw: usize,
    windows: f64,
) {
    let pixel = |x: f32, y: f32, [sx, sy, sc]: [f64; 3]| {
        let g = (x as f64) * sx + (y as f64) * sy + sc;
        (g / windows) as f32
    };
    let w = grow.len();
    let (i0, i1) = (k - 1, mw);
    if i0 < i1 {
        let len = i1 - i0;
        let [c0, c1, c2] = std::array::from_fn(|t| {
            Corners {
                br: &bot[t][k..],
                tl: top[t],
                tr: &top[t][k..],
                bl: bot[t],
            }
            .cut(len)
        });
        let (gs, xs, ys) = (&mut grow[i0..i1], &xr[i0..i1], &yr[i0..i1]);
        for i in 0..len {
            gs[i] = pixel(xs[i], ys[i], [c0.sum(i), c1.sum(i), c2.sum(i)]);
        }
    }
    for px in (0..i0.min(w)).chain(i1.max(i0).min(w)..w) {
        let lo = px.saturating_sub(k - 1).min(mw - 1);
        let hi = px.min(mw - 1) + 1;
        let sums = std::array::from_fn(|t| bot[t][hi] + top[t][lo] - top[t][hi] - bot[t][lo]);
        grow[px] = pixel(xr[px], yr[px], sums);
    }
}

/// Visits every window row's scores in raster order. The five image
/// tables are built row by row; each window row's scores are computed
/// into a scratch row buffer by one loop over contiguous table rows that
/// the compiler vectorises — the same per-window expressions as a
/// window-at-a-time evaluation.
fn window_rows<F: FnMut(usize, &[f64])>(
    x: &Image,
    y: &Image,
    cfg: &SsimConfig,
    mut visit: F,
) -> Result<()> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let n = (k * k) as f64;
    let tables = image_tables(x.as_slice(), y.as_slice(), h, w);
    let mw = w - k + 1;
    let mut score = ndtensor::scratch::take_zeroed_f64(mw);
    for wy in 0..=(h - k) {
        let corners = tables.corners(wy, k, k, mw);
        row_scores(&mut score, &corners, n, cfg.c1 as f64, cfg.c2 as f64);
        visit(wy, &score);
    }
    ndtensor::scratch::give_f64(score);
    Ok(())
}

/// Mean SSIM between two same-size images.
///
/// Returns a value in `[-1, 1]`: 1.0 = identical structure, 0.0 = no
/// correspondence, −1.0 = perfect anti-correlation (paper §III.C).
///
/// # Errors
///
/// Fails when the images differ in size, the window exceeds the image, or
/// the config is invalid.
///
/// # Example
///
/// ```
/// use metrics::{ssim, SsimConfig};
/// use vision::Image;
///
/// # fn main() -> Result<(), metrics::MetricsError> {
/// let img = Image::from_fn(16, 16, |y, x| ((y + x) % 7) as f32 / 6.0).unwrap();
/// let score = ssim(&img, &img, &SsimConfig::default())?;
/// assert!((score - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn ssim(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<f32> {
    let mut total = 0.0f64;
    let mut count = 0usize;
    window_rows(x, y, cfg, |_, scores| {
        for &s in scores {
            total += s;
        }
        count += scores.len();
    })?;
    Ok((total / count as f64) as f32)
}

/// Per-window SSIM map: entry `(wy, wx)` is the SSIM of the window with
/// that top-left corner. The map has size `(H−k+1) × (W−k+1)`.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_map(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<Image> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let mut out = Image::new(h - k + 1, w - k + 1)
        .map_err(|e| MetricsError::invalid("ssim_map", e.to_string()))?;
    window_rows(x, y, cfg, |wy, scores| {
        for (wx, &s) in scores.iter().enumerate() {
            out.put(wy, wx, s as f32);
        }
    })?;
    Ok(out)
}

/// Mean SSIM together with its gradient with respect to the second image
/// (`∂ mean-SSIM / ∂y`), as needed to train a reconstruction model that
/// *maximises* SSIM.
///
/// The returned gradient has the same dimensions as the inputs.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_with_grad(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<(f32, Image)> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let n = (k * k) as f64;
    let (c1, c2) = (cfg.c1 as f64, cfg.c2 as f64);
    let mh = h - k + 1;
    let mw = w - k + 1;
    let windows = (mh * mw) as f64;

    let (xs, ys) = (x.as_slice(), y.as_slice());
    let tables = image_tables(xs, ys, h, w);

    // Each window row's scores and gradient coefficients go straight into
    // the next row of a second round of summed-area tables, over the
    // window-index grid, so each coefficient can be summed over all
    // windows covering a pixel.
    let mut coefs = Integrals::<3>::new(mh, mw);
    let mut rows = ndtensor::scratch::take_zeroed_f64(4 * mw);
    let mut total = 0.0f64;
    for wy in 0..mh {
        let (score, rest) = rows.split_at_mut(mw);
        let (cx, rest) = rest.split_at_mut(mw);
        let (cy, cc) = rest.split_at_mut(mw);
        let corners = tables.corners(wy, k, k, mw);
        row_scores_and_coefficients([score, cx, cy, cc], &corners, n, c1, c2);
        for &s in score.iter() {
            total += s;
        }
        let (cx, cy, cc) = (&*cx, &*cy, &*cc);
        coefs.push_row(|i| [cx[i], cy[i], cc[i]]);
    }
    ndtensor::scratch::give_f64(rows);
    drop(tables);

    let mut grad = Image::new(h, w).map_err(|e| MetricsError::invalid("ssim", e.to_string()))?;
    for (py, grow) in grad.as_mut_slice().chunks_exact_mut(w).enumerate() {
        // Windows covering row py have top row wy in [py−k+1, py] ∩ [0, mh).
        let wy0 = py.saturating_sub(k - 1).min(mh - 1);
        let wy1 = py.min(mh - 1);
        gradient_row(
            grow,
            (&xs[py * w..(py + 1) * w], &ys[py * w..(py + 1) * w]),
            std::array::from_fn(|t| coefs.row(t, wy0)),
            std::array::from_fn(|t| coefs.row(t, wy1 + 1)),
            k,
            mw,
            windows,
        );
    }
    Ok(((total / windows) as f32, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vision::perturb;

    fn textured(h: usize, w: usize, seed: u64) -> Image {
        Image::from_fn(h, w, |y, x| {
            let v = (y as u64 * 31 + x as u64 * 17 + seed * 101) % 97;
            0.2 + 0.6 * (v as f32 / 96.0)
        })
        .unwrap()
    }

    /// The five-pass implementation this module used before the one-pass
    /// tables and the row buffer: one serial summed-area build per table,
    /// then one window at a time. Bitwise reference for the production
    /// paths.
    mod five_pass {
        use super::super::SsimConfig;
        use vision::Image;

        struct Integral {
            sums: Vec<f64>,
            w1: usize,
        }

        impl Integral {
            fn build(data: impl Iterator<Item = f64>, h: usize, w: usize) -> Self {
                let w1 = w + 1;
                let mut sums = vec![0.0f64; (h + 1) * w1];
                let mut it = data;
                for y in 0..h {
                    let mut row = 0.0f64;
                    for x in 0..w {
                        row += it.next().unwrap();
                        sums[(y + 1) * w1 + (x + 1)] = sums[y * w1 + (x + 1)] + row;
                    }
                }
                Integral { sums, w1 }
            }

            fn window(&self, y: usize, x: usize, kh: usize, kw: usize) -> f64 {
                let w1 = self.w1;
                self.sums[(y + kh) * w1 + (x + kw)] + self.sums[y * w1 + x]
                    - self.sums[y * w1 + (x + kw)]
                    - self.sums[(y + kh) * w1 + x]
            }
        }

        /// `(wy, wx, score, a1, a2, b1, b2, mx, my)` per window, raster order.
        fn windows(x: &Image, y: &Image, cfg: &SsimConfig) -> Vec<[f64; 9]> {
            let (h, w) = (x.height(), x.width());
            let k = cfg.window;
            let n = (k * k) as f64;
            let xs = x.as_slice();
            let ys = y.as_slice();
            let ix = Integral::build(xs.iter().map(|&v| v as f64), h, w);
            let iy = Integral::build(ys.iter().map(|&v| v as f64), h, w);
            let ixx = Integral::build(xs.iter().map(|&v| (v as f64) * (v as f64)), h, w);
            let iyy = Integral::build(ys.iter().map(|&v| (v as f64) * (v as f64)), h, w);
            let ixy = Integral::build(
                xs.iter().zip(ys).map(|(&a, &b)| (a as f64) * (b as f64)),
                h,
                w,
            );
            let mut out = Vec::new();
            for wy in 0..=(h - k) {
                for wx in 0..=(w - k) {
                    let mx = ix.window(wy, wx, k, k) / n;
                    let my = iy.window(wy, wx, k, k) / n;
                    let vx = (ixx.window(wy, wx, k, k) / n - mx * mx).max(0.0);
                    let vy = (iyy.window(wy, wx, k, k) / n - my * my).max(0.0);
                    let cxy = ixy.window(wy, wx, k, k) / n - mx * my;
                    let c1 = cfg.c1 as f64;
                    let c2 = cfg.c2 as f64;
                    let a1 = 2.0 * mx * my + c1;
                    let a2 = 2.0 * cxy + c2;
                    let b1 = mx * mx + my * my + c1;
                    let b2 = vx + vy + c2;
                    let score = a1 * a2 / (b1 * b2);
                    out.push([wy as f64, wx as f64, score, a1, a2, b1, b2, mx, my]);
                }
            }
            out
        }

        pub fn ssim(x: &Image, y: &Image, cfg: &SsimConfig) -> f32 {
            let ws = windows(x, y, cfg);
            let mut total = 0.0f64;
            for win in &ws {
                total += win[2];
            }
            (total / ws.len() as f64) as f32
        }

        pub fn ssim_map(x: &Image, y: &Image, cfg: &SsimConfig) -> Image {
            let k = cfg.window;
            let mut out = Image::new(x.height() - k + 1, x.width() - k + 1).unwrap();
            for win in windows(x, y, cfg) {
                out.put(win[0] as usize, win[1] as usize, win[2] as f32);
            }
            out
        }

        pub fn ssim_with_grad(x: &Image, y: &Image, cfg: &SsimConfig) -> (f32, Image) {
            let (h, w) = (x.height(), x.width());
            let k = cfg.window;
            let n = (k * k) as f64;
            let (mh, mw) = (h - k + 1, w - k + 1);
            let windows_n = (mh * mw) as f64;
            let mut coef_x = vec![0.0f64; mh * mw];
            let mut coef_y = vec![0.0f64; mh * mw];
            let mut coef_c = vec![0.0f64; mh * mw];
            let mut total = 0.0f64;
            for [wy, wx, score, a1, a2, b1, b2, mx, my] in windows(x, y, cfg) {
                total += score;
                let scale = 2.0 / (n * b1 * b2);
                let idx = wy as usize * mw + wx as usize;
                coef_x[idx] = scale * a1;
                coef_y[idx] = -scale * score * b1;
                coef_c[idx] = scale * (mx * a2 - mx * a1 - score * my * b2 + score * my * b1);
            }
            let icx = Integral::build(coef_x.iter().copied(), mh, mw);
            let icy = Integral::build(coef_y.iter().copied(), mh, mw);
            let icc = Integral::build(coef_c.iter().copied(), mh, mw);
            let xs = x.as_slice();
            let ys = y.as_slice();
            let mut grad = Image::new(h, w).unwrap();
            for py in 0..h {
                let wy0 = py.saturating_sub(k - 1).min(mh - 1);
                let wy1 = py.min(mh - 1);
                for px in 0..w {
                    let wx0 = px.saturating_sub(k - 1).min(mw - 1);
                    let wx1 = px.min(mw - 1);
                    let (rh, rw) = (wy1 - wy0 + 1, wx1 - wx0 + 1);
                    let sx = icx.window(wy0, wx0, rh, rw);
                    let sy = icy.window(wy0, wx0, rh, rw);
                    let sc = icc.window(wy0, wx0, rh, rw);
                    let j = py * w + px;
                    let g = (xs[j] as f64) * sx + (ys[j] as f64) * sy + sc;
                    grad.put(py, px, (g / windows_n) as f32);
                }
            }
            ((total / windows_n) as f32, grad)
        }
    }

    fn image_bits(img: &Image) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Pixels in [0, 1) with occasional exact repeats, seeded.
    fn noisy(h: usize, w: usize, seed: u64) -> Image {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let values: Vec<f32> = (0..h * w)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) % 4096) as f32 / 4096.0
            })
            .collect();
        Image::from_fn(h, w, |y, x| values[y * w + x]).unwrap()
    }

    /// Naive direct SSIM used as the oracle.
    fn naive_ssim(x: &Image, y: &Image, cfg: &SsimConfig) -> f32 {
        let k = cfg.window;
        let n = (k * k) as f64;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for wy in 0..=(x.height() - k) {
            for wx in 0..=(x.width() - k) {
                let mut sx = 0.0f64;
                let mut sy = 0.0f64;
                let mut sxx = 0.0f64;
                let mut syy = 0.0f64;
                let mut sxy = 0.0f64;
                for dy in 0..k {
                    for dx in 0..k {
                        let a = x.get(wy + dy, wx + dx) as f64;
                        let b = y.get(wy + dy, wx + dx) as f64;
                        sx += a;
                        sy += b;
                        sxx += a * a;
                        syy += b * b;
                        sxy += a * b;
                    }
                }
                let mx = sx / n;
                let my = sy / n;
                let vx = sxx / n - mx * mx;
                let vy = syy / n - my * my;
                let cxy = sxy / n - mx * my;
                let c1 = cfg.c1 as f64;
                let c2 = cfg.c2 as f64;
                total += (2.0 * mx * my + c1) * (2.0 * cxy + c2)
                    / ((mx * mx + my * my + c1) * (vx + vy + c2));
                count += 1;
            }
        }
        (total / count as f64) as f32
    }

    #[test]
    fn identical_images_score_one() {
        let img = textured(20, 30, 1);
        let s = ssim(&img, &img, &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-6, "SSIM(x,x) = {s}");
    }

    #[test]
    fn inverted_image_scores_negative() {
        // Zero-mean anticorrelated structure → strongly negative SSIM.
        let x = Image::from_fn(16, 16, |y, x| 0.5 + 0.4 * (((y + x) % 2) as f32 - 0.5)).unwrap();
        let y = x.map(|v| 1.0 - v);
        let s = ssim(&x, &y, &SsimConfig::default()).unwrap();
        assert!(s < -0.5, "anticorrelated SSIM = {s}");
    }

    #[test]
    fn matches_naive_reference() {
        for seed in 0..3 {
            let x = textured(18, 24, seed);
            let y = textured(18, 24, seed + 10);
            for k in [3usize, 7, 11] {
                let cfg = SsimConfig::with_window(k);
                let fast = ssim(&x, &y, &cfg).unwrap();
                let slow = naive_ssim(&x, &y, &cfg);
                assert!(
                    (fast - slow).abs() < 1e-5,
                    "k={k} seed={seed}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn score_is_symmetric() {
        let x = textured(16, 20, 4);
        let y = textured(16, 20, 9);
        let cfg = SsimConfig::default();
        let a = ssim(&x, &y, &cfg).unwrap();
        let b = ssim(&y, &x, &cfg).unwrap();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn validates_inputs() {
        let x = Image::new(8, 8).unwrap();
        let cfg = SsimConfig::default(); // window 11 > 8
        assert!(ssim(&x, &x, &cfg).is_err());
        let y = Image::new(8, 9).unwrap();
        assert!(ssim(&x, &y, &SsimConfig::with_window(3)).is_err());
        assert!(ssim(&x, &x, &SsimConfig::with_window(0)).is_err());
        let mut bad = SsimConfig::with_window(3);
        bad.c1 = 0.0;
        assert!(ssim(&x, &x, &bad).is_err());
    }

    #[test]
    fn map_dimensions_and_values() {
        let x = textured(14, 18, 2);
        let y = perturb::adjust_brightness(&x, 0.05);
        let cfg = SsimConfig::with_window(5);
        let map = ssim_map(&x, &y, &cfg).unwrap();
        assert_eq!((map.height(), map.width()), (10, 14));
        let mean_of_map = map.mean();
        let s = ssim(&x, &y, &cfg).unwrap();
        assert!((mean_of_map - s).abs() < 1e-5);
    }

    #[test]
    fn constant_images_with_equal_mean_score_one() {
        let a = Image::filled(12, 12, 0.3).unwrap();
        let s = ssim(&a, &a.clone(), &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn figure3_property_noise_hurts_more_than_brightness_at_equal_mse() {
        // The paper's Fig. 3: calibrate Gaussian noise and a brightness
        // shift to (approximately) the same MSE; SSIM must judge the noisy
        // image far less similar than the brightened one. Natural road
        // images are locally smooth, so the base image here is too.
        let base = Image::from_fn(40, 60, |y, x| {
            0.5 + 0.25 * (y as f32 / 6.0).sin() * (x as f32 / 9.0).cos()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let sigma = 0.12;
        let noisy = perturb::add_gaussian_noise(&base, &mut rng, sigma).unwrap();
        let noise_mse = crate::mse(&base, &noisy).unwrap();
        // Brightness delta with the same MSE: delta = sqrt(mse).
        let bright = perturb::adjust_brightness(&base, noise_mse.sqrt());
        let bright_mse = crate::mse(&base, &bright).unwrap();
        assert!(
            (noise_mse - bright_mse).abs() / noise_mse < 0.2,
            "MSEs not comparable: {noise_mse} vs {bright_mse}"
        );
        let cfg = SsimConfig::default();
        let s_noise = ssim(&base, &noisy, &cfg).unwrap();
        let s_bright = ssim(&base, &bright, &cfg).unwrap();
        assert!(
            s_bright > s_noise + 0.2,
            "SSIM noise {s_noise} vs brightness {s_bright}"
        );
        assert!(
            s_bright > 0.8,
            "brightness SSIM unexpectedly low: {s_bright}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = textured(12, 14, 3);
        let mut y = textured(12, 14, 8);
        let cfg = SsimConfig::with_window(5);
        let (_, grad) = ssim_with_grad(&x, &y, &cfg).unwrap();
        let eps = 1e-3f32;
        for &(py, px) in &[(0usize, 0usize), (5, 7), (11, 13), (3, 12), (6, 0)] {
            let orig = y.get(py, px);
            y.put(py, px, orig + eps);
            let plus = ssim(&x, &y, &cfg).unwrap();
            y.put(py, px, orig - eps);
            let minus = ssim(&x, &y, &cfg).unwrap();
            y.put(py, px, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad.get(py, px);
            assert!(
                (numeric - analytic).abs() < 2e-3 + 0.05 * numeric.abs(),
                "grad at ({py},{px}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_at_identity_is_tiny() {
        // SSIM is maximised at y = x, so the gradient there is ~0.
        let x = textured(16, 16, 5);
        let (s, grad) = ssim_with_grad(&x, &x.clone(), &SsimConfig::with_window(7)).unwrap();
        assert!((s - 1.0).abs() < 1e-6);
        for &g in grad.as_slice() {
            assert!(g.abs() < 1e-4, "gradient at optimum: {g}");
        }
    }

    #[test]
    fn gradient_ascent_improves_ssim() {
        // A few gradient steps on y must increase SSIM(x, y).
        let x = textured(16, 16, 6);
        let mut y = Image::filled(16, 16, 0.5).unwrap();
        let cfg = SsimConfig::with_window(5);
        let (mut prev, _) = ssim_with_grad(&x, &y, &cfg).unwrap();
        for _ in 0..20 {
            let (_, grad) = ssim_with_grad(&x, &y, &cfg).unwrap();
            for (p, g) in y.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *p += 5.0 * g;
            }
        }
        let (after, _) = ssim_with_grad(&x, &y, &cfg).unwrap();
        assert!(
            after > prev + 0.05,
            "gradient ascent did not improve: {prev} → {after}"
        );
        prev = after;
        let _ = prev;
    }

    /// The paper geometry (60×160, 11×11 windows, and 7×7) against the
    /// five-pass reference, on a mask-like, a noisy and an identical
    /// pair, plus images whose sides equal the window; the scalar
    /// `ssim_with_grad` returns is bit-equal to `ssim`'s.
    #[test]
    fn paper_geometry_matches_five_pass_bitwise() {
        for k in [7usize, 11] {
            let cfg = SsimConfig::with_window(k);
            for (x, y) in [
                (textured(60, 160, 1), textured(60, 160, 2)),
                (noisy(60, 160, 3), noisy(60, 160, 4)),
                (noisy(60, 160, 5), noisy(60, 160, 5)),
                (noisy(k, k, 6), noisy(k, k, 7)),
                (noisy(k, 160, 8), noisy(k, 160, 9)),
                (noisy(60, k, 10), noisy(60, k, 11)),
            ] {
                let plain = ssim(&x, &y, &cfg).unwrap();
                assert_eq!(plain.to_bits(), five_pass::ssim(&x, &y, &cfg).to_bits());
                let (s, g) = ssim_with_grad(&x, &y, &cfg).unwrap();
                let (rs, rg) = five_pass::ssim_with_grad(&x, &y, &cfg);
                assert_eq!(s.to_bits(), rs.to_bits());
                assert_eq!(s.to_bits(), plain.to_bits());
                assert_eq!(image_bits(&g), image_bits(&rg));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `ssim`, `ssim_map` and `ssim_with_grad` reproduce the
        /// five-pass reference bit-for-bit over random sizes and windows,
        /// including a reconstruction equal to its input.
        #[test]
        fn matches_five_pass_reference_bitwise(
            (h, w) in (1usize..24, 1usize..40),
            k in 1usize..12,
            (seed, same) in (0u64..10_000, 0u8..4)
        ) {
            prop_assume!(k <= h && k <= w);
            let cfg = SsimConfig::with_window(k);
            let x = noisy(h, w, seed);
            let y = if same == 0 { x.clone() } else { noisy(h, w, seed + 1) };
            prop_assert_eq!(
                ssim(&x, &y, &cfg).unwrap().to_bits(),
                five_pass::ssim(&x, &y, &cfg).to_bits()
            );
            prop_assert_eq!(
                image_bits(&ssim_map(&x, &y, &cfg).unwrap()),
                image_bits(&five_pass::ssim_map(&x, &y, &cfg))
            );
            let (s, g) = ssim_with_grad(&x, &y, &cfg).unwrap();
            let (rs, rg) = five_pass::ssim_with_grad(&x, &y, &cfg);
            prop_assert_eq!(s.to_bits(), rs.to_bits());
            prop_assert_eq!(s.to_bits(), ssim(&x, &y, &cfg).unwrap().to_bits());
            prop_assert_eq!(image_bits(&g), image_bits(&rg));
        }

        #[test]
        fn score_is_bounded(seed_a in 0u64..50, seed_b in 0u64..50) {
            let x = textured(13, 15, seed_a);
            let y = textured(13, 15, seed_b);
            let s = ssim(&x, &y, &SsimConfig::with_window(5)).unwrap();
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&s));
        }

        #[test]
        fn more_noise_means_lower_ssim(seed in 0u64..30) {
            let x = textured(20, 20, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mild = perturb::add_gaussian_noise(&x, &mut rng, 0.03).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let heavy = perturb::add_gaussian_noise(&x, &mut rng, 0.25).unwrap();
            let cfg = SsimConfig::with_window(7);
            let s_mild = ssim(&x, &mild, &cfg).unwrap();
            let s_heavy = ssim(&x, &heavy, &cfg).unwrap();
            prop_assert!(s_mild > s_heavy);
        }
    }
}
