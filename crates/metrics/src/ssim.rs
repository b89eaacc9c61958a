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
/// entries in f64, stored one after another in a single buffer.
///
/// The storage is borrowed from the [`ndtensor::scratch`] pool and
/// returned on drop, so repeated SSIM evaluation (the per-frame scoring
/// hot path) allocates nothing once warmed.
struct Integrals<const T: usize> {
    sums: Vec<f64>,
    w1: usize,
    plane: usize,
}

impl<const T: usize> Drop for Integrals<T> {
    fn drop(&mut self) {
        ndtensor::scratch::give_f64(std::mem::take(&mut self.sums));
    }
}

impl<const T: usize> Integrals<T> {
    /// Builds all `T` tables in one raster pass: `value(i)` yields the
    /// `T` values of grid element `i`, and each table's row prefix sum is
    /// an independent chain, so the `T` serial chains run side by side.
    /// Every table entry is `above + row`, exactly as a table built on
    /// its own.
    fn build(h: usize, w: usize, mut value: impl FnMut(usize) -> [f64; T]) -> Self {
        let w1 = w + 1;
        let plane = (h + 1) * w1;
        let mut sums = ndtensor::scratch::take_zeroed_f64(T * plane);
        for y in 0..h {
            let mut row = [0.0f64; T];
            for x in 0..w {
                let v = value(y * w + x);
                for t in 0..T {
                    row[t] += v[t];
                    let base = t * plane;
                    sums[base + (y + 1) * w1 + (x + 1)] = sums[base + y * w1 + (x + 1)] + row[t];
                }
            }
        }
        Integrals { sums, w1, plane }
    }

    /// Table `t`'s row `y` (length `w + 1`).
    fn row(&self, t: usize, y: usize) -> &[f64] {
        let start = t * self.plane + y * self.w1;
        &self.sums[start..start + self.w1]
    }

    /// Sum of table `t` over the rectangle with top-left `(y, x)` and size
    /// `kh × kw`.
    #[inline]
    fn window(&self, t: usize, y: usize, x: usize, kh: usize, kw: usize) -> f64 {
        let (top, bot) = (self.row(t, y), self.row(t, y + kh));
        bot[x + kw] + top[x] - top[x + kw] - bot[x]
    }
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

/// Per-window statistics `(μx, μy, σx², σy², σxy)` from the five window
/// sums `[Σx, Σy, Σx², Σy², Σxy]` over `n` pixels.
#[inline(always)]
fn window_stats(sums: [f64; 5], n: f64) -> (f64, f64, f64, f64, f64) {
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
fn window_score(
    (mx, my, vx, vy, cxy): (f64, f64, f64, f64, f64),
    c1: f64,
    c2: f64,
) -> (f64, f64, f64, f64, f64) {
    let a1 = 2.0 * mx * my + c1;
    let a2 = 2.0 * cxy + c2;
    let b1 = mx * mx + my * my + c1;
    let b2 = vx + vy + c2;
    (a1 * a2 / (b1 * b2), a1, a2, b1, b2)
}

/// `out[i] = br[i] + tl[i] - tr[i] - bl[i]`: one row of window sums
/// from the four corner rows of a summed-area table.
fn corner_sums(out: &mut [f64], br: &[f64], tl: &[f64], tr: &[f64], bl: &[f64]) {
    for (o, (((&a, &b), &c), &d)) in out.iter_mut().zip(br.iter().zip(tl).zip(tr).zip(bl)) {
        *o = a + b - c - d;
    }
}

/// One row of window scores from the row's five window-sum planes.
/// `score` is the only output, so the loop vectorises without alias
/// checks.
fn row_scores(score: &mut [f64], sums: [&[f64]; 5], n: f64, c1: f64, c2: f64) {
    let len = score.len();
    let sums = sums.map(|plane| &plane[..len]);
    for (wx, s) in score.iter_mut().enumerate() {
        let stats = window_stats(
            [
                sums[0][wx],
                sums[1][wx],
                sums[2][wx],
                sums[3][wx],
                sums[4][wx],
            ],
            n,
        );
        *s = window_score(stats, c1, c2).0;
    }
}

/// One window row: the five window sums and the score of the window
/// with top-left `(wy, wx)`, at entry `wx`.
struct WindowRow<'a> {
    sums: [&'a [f64]; 5],
    score: &'a [f64],
}

impl WindowRow<'_> {
    /// Statistics of window `wx`: the ones its score was computed from.
    fn stats(&self, wx: usize, n: f64) -> (f64, f64, f64, f64, f64) {
        window_stats(self.sums.map(|plane| plane[wx]), n)
    }
}

/// Visits every window row in raster order. The five integral tables
/// (`x`, `y`, `x²`, `y²`, `xy`) are built in one pass; each row's window
/// sums and scores are then computed into a scratch row buffer by loops
/// over contiguous table rows that the compiler vectorises — the same
/// per-window expressions as a window-at-a-time evaluation.
fn per_window_row<F: FnMut(usize, &WindowRow<'_>)>(
    x: &Image,
    y: &Image,
    cfg: &SsimConfig,
    mut visit: F,
) -> Result<()> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let n = (k * k) as f64;
    let xs = x.as_slice();
    let ys = y.as_slice();
    let tables = Integrals::<5>::build(h, w, |i| {
        let (a, b) = (xs[i] as f64, ys[i] as f64);
        [a, b, a * a, b * b, a * b]
    });
    let mw = w - k + 1;
    let mut buf = ndtensor::scratch::take_zeroed_f64(6 * mw);
    for wy in 0..=(h - k) {
        let (sums, score) = buf.split_at_mut(5 * mw);
        for (t, out) in sums.chunks_exact_mut(mw).enumerate() {
            let (top, bot) = (tables.row(t, wy), tables.row(t, wy + k));
            corner_sums(
                out,
                &bot[k..k + mw],
                &top[..mw],
                &top[k..k + mw],
                &bot[..mw],
            );
        }
        let sums: [&[f64]; 5] = std::array::from_fn(|t| &sums[t * mw..(t + 1) * mw]);
        row_scores(score, sums, n, cfg.c1 as f64, cfg.c2 as f64);
        visit(wy, &WindowRow { sums, score });
    }
    ndtensor::scratch::give_f64(buf);
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
    per_window_row(x, y, cfg, |_, row| {
        for &s in row.score {
            total += s;
        }
        count += row.score.len();
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
    per_window_row(x, y, cfg, |wy, row| {
        for (wx, &s) in row.score.iter().enumerate() {
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
    let mh = h - k + 1;
    let mw = w - k + 1;
    let windows = (mh * mw) as f64;

    // Per-window coefficient maps such that, for pixel j inside window w:
    //   ∂S_w/∂y_j = x_j·coef_x[w] + y_j·coef_y[w] + coef_c[w].
    let mut coef_x = ndtensor::scratch::take_zeroed_f64(mh * mw);
    let mut coef_y = ndtensor::scratch::take_zeroed_f64(mh * mw);
    let mut coef_c = ndtensor::scratch::take_zeroed_f64(mh * mw);
    let mut total = 0.0f64;
    per_window_row(x, y, cfg, |wy, row| {
        for wx in 0..mw {
            let stats = row.stats(wx, n);
            let (mx, my, ..) = stats;
            let (score, a1, a2, b1, b2) = window_score(stats, cfg.c1 as f64, cfg.c2 as f64);
            total += score;
            let scale = 2.0 / (n * b1 * b2);
            // ∂S/∂y_j = scale·[ μx·A2 + (x_j−μx)·A1 − S·(μy·B2 + (y_j−μy)·B1) ]
            //         = x_j·(scale·A1) + y_j·(−scale·S·B1)
            //           + scale·(μx·A2 − μx·A1 − S·μy·B2 + S·μy·B1)
            let idx = wy * mw + wx;
            coef_x[idx] = scale * a1;
            coef_y[idx] = -scale * score * b1;
            coef_c[idx] = scale * (mx * a2 - mx * a1 - score * my * b2 + score * my * b1);
        }
    })?;

    // Sum each coefficient over all windows covering a pixel with a second
    // round of integral images over the window-index grid.
    let coefs = Integrals::<3>::build(mh, mw, |i| [coef_x[i], coef_y[i], coef_c[i]]);
    ndtensor::scratch::give_f64(coef_x);
    ndtensor::scratch::give_f64(coef_y);
    ndtensor::scratch::give_f64(coef_c);

    let xs = x.as_slice();
    let ys = y.as_slice();
    let mut grad = Image::new(h, w).map_err(|e| MetricsError::invalid("ssim", e.to_string()))?;
    for py in 0..h {
        // Windows covering row py have top row wy in [py−k+1, py] ∩ [0, mh).
        let wy0 = py.saturating_sub(k - 1).min(mh - 1);
        let wy1 = py.min(mh - 1);
        for px in 0..w {
            let wx0 = px.saturating_sub(k - 1).min(mw - 1);
            let wx1 = px.min(mw - 1);
            let (rh, rw) = (wy1 - wy0 + 1, wx1 - wx0 + 1);
            let sx = coefs.window(0, wy0, wx0, rh, rw);
            let sy = coefs.window(1, wy0, wx0, rh, rw);
            let sc = coefs.window(2, wy0, wx0, rh, rw);
            let j = py * w + px;
            let g = (xs[j] as f64) * sx + (ys[j] as f64) * sy + sc;
            grad.put(py, px, (g / windows) as f32);
        }
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

    /// The paper geometry (60×160, 11×11 windows) against the five-pass
    /// reference, on a mask-like and a noisy pair.
    #[test]
    fn paper_geometry_matches_five_pass_bitwise() {
        let cfg = SsimConfig::default();
        for (x, y) in [
            (textured(60, 160, 1), textured(60, 160, 2)),
            (noisy(60, 160, 3), noisy(60, 160, 4)),
        ] {
            assert_eq!(
                ssim(&x, &y, &cfg).unwrap().to_bits(),
                five_pass::ssim(&x, &y, &cfg).to_bits()
            );
            let (s, g) = ssim_with_grad(&x, &y, &cfg).unwrap();
            let (rs, rg) = five_pass::ssim_with_grad(&x, &y, &cfg);
            assert_eq!(s.to_bits(), rs.to_bits());
            assert_eq!(image_bits(&g), image_bits(&rg));
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
