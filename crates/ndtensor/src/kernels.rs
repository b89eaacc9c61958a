//! The GEMM microkernels behind [`crate::matmul`] and [`crate::conv`].
//!
//! Five kernels, one per shape class, and one rule that picks between
//! the two accumulating ones ([`accumulate_kernel`]):
//!
//! * [`mm_axpy`] — axpy-ordered accumulation with a 256-column tile and
//!   B-panel packing; wins where `k` is long.
//! * [`mm_rr2`] — two-row, 64-wide register-blocked accumulation; wins
//!   where the output is wide and `k` short enough for the `k × 64` B
//!   block to stay L1-resident (the wide backward GEMMs).
//! * [`conv_panel`] — four-row, 32-wide register-blocked kernel over a
//!   padded im2col panel with the bias in its store epilogue: every
//!   conv forward, at every batch size.
//! * [`mm_assign`] — the same register blocks as [`mm_rr2`], assigning:
//!   the weight-stationary `x · Wᵀ` of every dense forward, run on a
//!   cached `[in, out]` weight copy. It never skips, or — only when that
//!   copy is all finite — skips exact-zero inputs like [`mm_rr2`].
//! * [`abt_tiled`] — the assigning `A·Bᵀ` kernel with eight independent
//!   dot-product chains over 64-row B tiles, for every `A·Bᵀ` shape.
//!
//! Every kernel honours one non-negotiable contract: **each output
//! element is accumulated in a single chain, ascending `k`, starting from
//! the element's initial value** — exactly the three-loop schoolbook
//! product. Tiling, packing and register blocking only reorder *which
//! element is worked on next*, never the additions inside one element,
//! so the two accumulating kernels are bitwise-interchangeable, the two
//! assigning kernels are bitwise-equal on transposed operands, and every
//! kernel is bitwise-equal to the naive product (the tests below and
//! `tests/kernel_parity.rs`). The accumulating kernels keep the
//! historical exact-zero skip on `A` entries, both skipping the same `l`
//! indices. The assigning kernels write every output element exactly
//! once and never skip, except [`mm_assign`]'s skipping form: it is
//! only run on an all-finite `B`, where a skipped term is `±0.0` and
//! adding it to a chain that starts at `+0.0` cannot change a bit, so it
//! is bitwise-equal to the never-skipping form and to [`abt_tiled`].
//!
//! All but [`conv_panel`] share the calling convention `(arows, rows, k,
//! bd, n, out)`: a packed `rows × k` block of A rows against the full B
//! operand, writing a `rows × n` output block — exactly the per-chunk
//! shape [`crate::par::for_each_block`] hands to workers.

use crate::scratch;

/// The shared microkernel signature: `(arows, rows, k, bd, n, out)`.
pub(crate) type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

/// Minimum rows in a chunk before packing the B panel pays for itself.
/// The decision never affects values.
const PACK_MIN_ROWS: usize = 4;

/// Output columns per [`mm_axpy`] tile.
const COL_TILE: usize = 256;

/// Accumulator width of [`mm_rr2`]: output columns held in registers.
const RR_W: usize = 64;

/// B rows per [`abt_tiled`] tile.
const ABT_ROW_TILE: usize = 64;

/// Independent dot-product chains in flight in [`abt_tiled`].
const ABT_J: usize = 8;

/// The accumulating kernel for a full `k × n` problem: [`mm_rr2`] where
/// its 64-column accumulator block fits the output (`n ≥ 64`) and the
/// `k × 64` B block stays L1-resident (`k ≤ 128`, ≤ 32 KB of f32),
/// [`mm_axpy`] elsewhere, where its packed panel amortizes over long `k`.
///
/// Call once per entry-point invocation, on the caller thread, before
/// row-splitting, so the choice cannot depend on the thread count.
pub(crate) fn accumulate_kernel(k: usize, n: usize) -> Kernel {
    if n >= RR_W && k <= 128 {
        mm_rr2
    } else {
        mm_axpy
    }
}

/// Packs the `k × tw` column panel of `b` starting at column `jc` into
/// `panel` (cleared first): one streaming copy, then every row of the
/// chunk reuses it from cache.
fn pack_panel(bd: &[f32], k: usize, n: usize, jc: usize, tw: usize, panel: &mut Vec<f32>) {
    panel.clear();
    for l in 0..k {
        panel.extend_from_slice(&bd[l * n + jc..l * n + jc + tw]);
    }
}

/// Axpy-ordered accumulating kernel: `out[i][j] += Σ_l arows[i][l] ·
/// b[l][j]` with column tiling and optional B-panel packing. `out` must
/// hold the `rows × n` output block already initialised.
///
/// Per output element the summation is a single chain in ascending `l`,
/// skipping exact-zero `arows` entries — identical to the naive kernel.
pub(crate) fn mm_axpy(arows: &[f32], rows: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    // One tile spanning all of B would pack a plain copy of it.
    let pack = rows >= PACK_MIN_ROWS && n > COL_TILE;
    let mut panel = if pack {
        scratch::take(k * COL_TILE.min(n))
    } else {
        Vec::new()
    };
    let mut jc = 0;
    while jc < n {
        let tw = COL_TILE.min(n - jc);
        if pack {
            pack_panel(bd, k, n, jc, tw, &mut panel);
        }
        for i in 0..rows {
            let arow = &arows[i * k..(i + 1) * k];
            let orow = &mut out[i * n + jc..i * n + jc + tw];
            for (l, &av) in arow.iter().enumerate() {
                // sncheck:allow(no-float-eq): exact-zero sparsity skip,
                // not a tolerance check.
                if av == 0.0 {
                    continue;
                }
                let brow = if pack {
                    &panel[l * tw..(l + 1) * tw]
                } else {
                    &bd[l * n + jc..l * n + jc + tw]
                };
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        jc += tw;
    }
    scratch::give(panel);
}

/// Whether an A row contains no exact zero.
///
/// Gates the branch-free fast path of the skipping kernels: when no
/// element is zero, the skip-discipline loop and the branch-free loop
/// perform the identical sequence of multiplies and adds, so the fast
/// path is bitwise-equal on exactly the inputs where it is taken. The
/// scan tests 16 elements per step with no exit inside a step, so it
/// vectorises: a 9600-wide dense row costs one pass at vector speed,
/// and a zero still ends the scan within 16 elements.
#[inline(always)]
fn dense_row(row: &[f32]) -> bool {
    let steps = row.chunks_exact(16);
    let tail = steps.remainder();
    // sncheck:allow(no-float-eq): exact-zero test is the gate condition
    // for the sparsity-skip discipline, not a tolerance comparison.
    let nonzero = |&v: &f32| v != 0.0;
    steps
        .into_iter()
        .all(|step| step.iter().fold(true, |dense, v| dense & nonzero(v)))
        && tail.iter().all(nonzero)
}

/// Single-row register block for the remainder row of [`rr2_blocks`].
#[inline(always)]
fn rr1_block<const SKIP: bool>(
    r0: &[f32],
    k: usize,
    bd: &[f32],
    n: usize,
    j: usize,
    acc0: &mut [f32; RR_W],
) {
    if !SKIP || dense_row(r0) {
        for l in 0..k {
            let brow = &bd[l * n + j..l * n + j + RR_W];
            let a0 = r0[l];
            for t in 0..RR_W {
                acc0[t] += a0 * brow[t];
            }
        }
    } else {
        for l in 0..k {
            let brow = &bd[l * n + j..l * n + j + RR_W];
            let a0 = r0[l];
            // sncheck:allow(no-float-eq): exact-zero sparsity skip,
            // same discipline as mm_axpy.
            if a0 != 0.0 {
                for t in 0..RR_W {
                    acc0[t] += a0 * brow[t];
                }
            }
        }
    }
}

/// Scalar column-remainder chains (identical order to the wide paths).
fn rr_col_remainder<const ASSIGN: bool, const SKIP: bool>(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    mut j: usize,
) {
    while j < n {
        for i in 0..rows {
            let mut s = if ASSIGN { 0.0 } else { out[i * n + j] };
            for l in 0..k {
                let av = arows[i * k + l];
                // sncheck:allow(no-float-eq): exact-zero sparsity skip,
                // same discipline as mm_axpy.
                if SKIP && av == 0.0 {
                    continue;
                }
                s += av * bd[l * n + j];
            }
            out[i * n + j] = s;
        }
        j += 1;
    }
}

/// Two-row register-blocked GEMM body behind [`mm_rr2`] and
/// [`mm_assign`]: a pair of 64-wide accumulator rows lives in separate
/// fixed-size locals (so scalar replacement keeps them in vector
/// registers for the whole `k` chain — a nested `[[f32; W]; R]` block
/// defeats that) and is stored back once. The `k × 64` B block is loaded
/// once per `l`, shared by both rows, and stays L1-resident across row
/// pairs at the same column offset when `k` is short, so B is
/// effectively streamed from memory once per call. Each output element's
/// chain is ascending `l`.
///
/// `ASSIGN` picks where chains start: at `out`'s value (accumulating) or
/// at `0.0` (assigning). `SKIP` picks the zero discipline: skipping
/// exact-zero A entries, where row pairs whose A rows contain no exact
/// zero take the branch-free inner loop — it performs the identical
/// operation sequence as the skip loop on those inputs, so the choice
/// never changes bits — or never skipping, always branch-free.
#[inline(always)]
fn rr2_blocks<const ASSIGN: bool, const SKIP: bool>(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + RR_W <= n {
        let mut i = 0;
        while i + 2 <= rows {
            let r0 = &arows[i * k..(i + 1) * k];
            let r1 = &arows[(i + 1) * k..(i + 2) * k];
            let mut acc0 = [0.0f32; RR_W];
            let mut acc1 = [0.0f32; RR_W];
            if !ASSIGN {
                acc0.copy_from_slice(&out[i * n + j..i * n + j + RR_W]);
                acc1.copy_from_slice(&out[(i + 1) * n + j..(i + 1) * n + j + RR_W]);
            }
            if !SKIP || (dense_row(r0) && dense_row(r1)) {
                for l in 0..k {
                    let brow = &bd[l * n + j..l * n + j + RR_W];
                    let a0 = r0[l];
                    let a1 = r1[l];
                    for t in 0..RR_W {
                        acc0[t] += a0 * brow[t];
                    }
                    for t in 0..RR_W {
                        acc1[t] += a1 * brow[t];
                    }
                }
            } else {
                for l in 0..k {
                    let brow = &bd[l * n + j..l * n + j + RR_W];
                    let a0 = r0[l];
                    // sncheck:allow(no-float-eq): exact-zero sparsity
                    // skip, same discipline as mm_axpy.
                    if a0 != 0.0 {
                        for t in 0..RR_W {
                            acc0[t] += a0 * brow[t];
                        }
                    }
                    let a1 = r1[l];
                    // sncheck:allow(no-float-eq): exact-zero sparsity
                    // skip, same discipline as mm_axpy.
                    if a1 != 0.0 {
                        for t in 0..RR_W {
                            acc1[t] += a1 * brow[t];
                        }
                    }
                }
            }
            out[i * n + j..i * n + j + RR_W].copy_from_slice(&acc0);
            out[(i + 1) * n + j..(i + 1) * n + j + RR_W].copy_from_slice(&acc1);
            i += 2;
        }
        // Remainder row: single-row register block, identical chains.
        while i < rows {
            let r0 = &arows[i * k..(i + 1) * k];
            let mut acc0 = [0.0f32; RR_W];
            if !ASSIGN {
                acc0.copy_from_slice(&out[i * n + j..i * n + j + RR_W]);
            }
            rr1_block::<SKIP>(r0, k, bd, n, j, &mut acc0);
            out[i * n + j..i * n + j + RR_W].copy_from_slice(&acc0);
            i += 1;
        }
        j += RR_W;
    }
    rr_col_remainder::<ASSIGN, SKIP>(arows, rows, k, bd, n, out, j);
}

/// Two-row, 64-wide register-blocked accumulating kernel:
/// `out[i][j] += Σ_l arows[i][l] · b[l][j]`, skipping exact-zero
/// `arows` entries (see [`rr2_blocks`]).
pub(crate) fn mm_rr2(arows: &[f32], rows: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    rr2_blocks::<false, true>(arows, rows, k, bd, n, out);
}

/// Two-row, 64-wide register-blocked assigning kernel:
/// `out[i][j] = Σ_l arows[i][l] · b[l][j]`. Each element is one chain
/// from `0.0`, ascending `l` — exactly [`abt_tiled`]'s chain on the
/// transposed B. Every element of `out` is assigned (zeros when
/// `k == 0`).
///
/// `SKIP = false` forms every term, so a non-finite B entry reaches its
/// outputs even through an exact-zero A entry. `SKIP = true` skips
/// exact-zero A entries and requires an all-finite B; under that
/// precondition its bits equal the never-skipping chain's: a skipped
/// term `0 · b` is `±0.0`, a chain from `+0.0` never holds `-0.0`, and
/// adding `±0.0` to any other sum — NaN and `±∞` included — leaves its
/// bits unchanged.
pub(crate) fn mm_assign<const SKIP: bool>(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    rr2_blocks::<true, SKIP>(arows, rows, k, bd, n, out);
}

/// Rows of the [`conv_panel`] register block.
const CONV_R: usize = 4;

/// Columns of the [`conv_panel`] register block.
const CONV_W: usize = 32;

/// Width of [`conv_panel`]'s narrowest tail block: a padded panel's row
/// stride is a multiple of this, so a panel wastes at most 7 columns.
const CONV_TAIL_W: usize = 8;

/// Row stride of a padded conv panel with `n` columns: `n` rounded up to
/// [`CONV_TAIL_W`].
pub(crate) fn conv_panel_stride(n: usize) -> usize {
    n.div_ceil(CONV_TAIL_W) * CONV_TAIL_W
}

/// One register block of [`conv_panel`]: the four weight rows `w` (each
/// of length `k`) against panel columns `j..j + W`. Each chain starts at
/// `0.0`, runs ascending `l` and skips exact-zero weights; when `dense`
/// (no weight row holds an exact zero) the block takes the branch-free
/// loop, which performs the identical operation sequence on those
/// inputs. The four accumulator rows are separate locals: a nested
/// `[[f32; W]; 4]` is not kept in registers (see [`rr2_blocks`]).
#[inline(always)]
fn conv_block<const W: usize>(
    w: [&[f32]; CONV_R],
    dense: bool,
    panel: &[f32],
    ld: usize,
    j: usize,
) -> [[f32; W]; CONV_R] {
    let [w0, w1, w2, w3] = w;
    let k = w0.len();
    let (w1, w2, w3) = (&w1[..k], &w2[..k], &w3[..k]);
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    if dense {
        for l in 0..k {
            let brow = &panel[l * ld + j..l * ld + j + W];
            let (a0, a1, a2, a3) = (w0[l], w1[l], w2[l], w3[l]);
            for t in 0..W {
                acc0[t] += a0 * brow[t];
                acc1[t] += a1 * brow[t];
                acc2[t] += a2 * brow[t];
                acc3[t] += a3 * brow[t];
            }
        }
    } else {
        for l in 0..k {
            let brow = &panel[l * ld + j..l * ld + j + W];
            let (a0, a1, a2, a3) = (w0[l], w1[l], w2[l], w3[l]);
            // sncheck:allow(no-float-eq): exact-zero sparsity skip, same
            // discipline as mm_axpy.
            if a0 != 0.0 {
                for t in 0..W {
                    acc0[t] += a0 * brow[t];
                }
            }
            // sncheck:allow(no-float-eq): exact-zero sparsity skip.
            if a1 != 0.0 {
                for t in 0..W {
                    acc1[t] += a1 * brow[t];
                }
            }
            // sncheck:allow(no-float-eq): exact-zero sparsity skip.
            if a2 != 0.0 {
                for t in 0..W {
                    acc2[t] += a2 * brow[t];
                }
            }
            // sncheck:allow(no-float-eq): exact-zero sparsity skip.
            if a3 != 0.0 {
                for t in 0..W {
                    acc3[t] += a3 * brow[t];
                }
            }
        }
    }
    [acc0, acc1, acc2, acc3]
}

/// Stores the first `live` rows of a [`conv_block`] result at columns
/// `j..j + valid` of the `n`-wide output rows, each as `acc + bias` when
/// there is a bias.
#[inline(always)]
fn store_block<const W: usize>(
    acc: &[[f32; W]; CONV_R],
    live: usize,
    bias: Option<&[f32]>,
    j: usize,
    valid: usize,
    n: usize,
    out: &mut [f32],
) {
    for (r, accr) in acc.iter().enumerate().take(live) {
        let orow = &mut out[r * n + j..r * n + j + valid];
        match bias {
            Some(b) => {
                for (o, &v) in orow.iter_mut().zip(accr) {
                    *o = v + b[r];
                }
            }
            None => orow.copy_from_slice(&accr[..valid]),
        }
    }
}

/// The conv forward kernel: `out[i][j] = (Σ_l w[i][l] · panel[l][j]) +
/// bias[i]` for `f` filter rows of `w: [f, k]` against a padded column
/// panel of `k` rows, row stride `ld` ([`conv_panel_stride`] of `n`)
/// and zeros in the pad columns, writing the dense `f × n` output.
///
/// Each element's chain is the accumulating kernels' chain on a zeroed
/// output — from `0.0`, ascending `l`, skipping exact-zero weights —
/// followed by the single `+ bias` the separate bias pass used to add,
/// so the result is bitwise-equal to [`mm_rr2`] or [`mm_axpy`] into a
/// zeroed output plus that pass. Four-row × 32-column register blocks
/// (16- and 8-wide on the tail) are computed in full and only their
/// valid columns stored; a last block of fewer than four filters repeats
/// its last row and stores only the live ones. Every output element is
/// assigned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_panel(
    w: &[f32],
    f: usize,
    k: usize,
    panel: &[f32],
    ld: usize,
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    debug_assert_eq!(w.len(), f * k);
    debug_assert_eq!(ld, conv_panel_stride(n));
    debug_assert_eq!(panel.len(), k * ld);
    debug_assert_eq!(out.len(), f * n);
    debug_assert!(bias.is_none_or(|b| b.len() == f));
    const HALF_W: usize = CONV_W / 2;
    for i in (0..f).step_by(CONV_R) {
        let live = CONV_R.min(f - i);
        let rows: [&[f32]; CONV_R] = std::array::from_fn(|r| {
            let fi = (i + r).min(f - 1);
            &w[fi * k..(fi + 1) * k]
        });
        let dense = rows.iter().all(|row| dense_row(row));
        let bias = bias.map(|b| &b[i..i + live]);
        let out = &mut out[i * n..(i + live) * n];
        let mut j = 0;
        while j + CONV_W <= ld {
            let acc = conv_block::<CONV_W>(rows, dense, panel, ld, j);
            store_block(&acc, live, bias, j, CONV_W.min(n - j), n, out);
            j += CONV_W;
        }
        if j + HALF_W <= ld {
            let acc = conv_block::<HALF_W>(rows, dense, panel, ld, j);
            store_block(&acc, live, bias, j, HALF_W.min(n - j), n, out);
            j += HALF_W;
        }
        if j < ld {
            let acc = conv_block::<CONV_TAIL_W>(rows, dense, panel, ld, j);
            store_block(&acc, live, bias, j, n - j, n, out);
        }
    }
}

/// Transposes the `Aᵀ` column block `i0..i0 + rows` of `A: [k, m]` into
/// a contiguous `rows × k` scratch buffer (single pass over `A`), so the
/// accumulating kernels see plain packed rows.
pub(crate) fn pack_at(ad: &[f32], k: usize, m: usize, i0: usize, rows: usize) -> Vec<f32> {
    let mut pa = scratch::take(rows * k);
    pa.resize(rows * k, 0.0);
    for l in 0..k {
        let acol = &ad[l * m + i0..l * m + i0 + rows];
        for (i, &av) in acol.iter().enumerate() {
            pa[i * k + l] = av;
        }
    }
    pa
}

/// Tiled assigning kernel for `A·Bᵀ`: `out[i][j] = Σ_l arows[i][l] ·
/// b[j][l]`, eight independent dot-product chains for instruction-level
/// parallelism over 64-row B tiles. Every element of `out` is assigned.
pub(crate) fn abt_tiled(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 {
        return;
    }
    let mut j0 = 0;
    loop {
        let tile_end = (j0 + ABT_ROW_TILE).min(n);
        for i in 0..rows {
            let arow = &arows[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = j0;
            while j + ABT_J <= tile_end {
                let mut acc = [0.0f32; ABT_J];
                let base: [&[f32]; ABT_J] =
                    std::array::from_fn(|t| &bd[(j + t) * k..(j + t + 1) * k]);
                for (l, &av) in arow.iter().enumerate() {
                    for t in 0..ABT_J {
                        acc[t] += av * base[t][l];
                    }
                }
                orow[j..j + ABT_J].copy_from_slice(&acc);
                j += ABT_J;
            }
            while j < tile_end {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                orow[j] = acc;
                j += 1;
            }
        }
        if tile_end == n {
            break;
        }
        j0 = tile_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Pseudo-random fill with every `zero_every`-th element an exact
    /// zero (0 disables), to exercise the accumulating kernels' sparsity
    /// skip and [`mm_rr2`]'s dense-row fast-path gate.
    fn pseudo_sparse(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                }
            })
            .collect()
    }

    /// `rows × k` values shaped like a ReLU output: at most one in 16
    /// non-zero, about a third of the zeros `-0.0`, and every third row
    /// from row 1 entirely zero.
    fn zero_heavy(rows: usize, k: usize, seed: u64) -> Vec<f32> {
        let values = pseudo_sparse(rows * k, seed, 0);
        (0..rows * k)
            .map(|x| {
                if (x / k) % 3 != 1 && (x as u64 + seed).is_multiple_of(16) {
                    values[x]
                } else if x.is_multiple_of(3) {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Schoolbook reference over packed `A: [m, k]` rows. Accumulating
    /// (`b: [k, n]`): element `(i, j)` starts at `init[i * n + j]` and
    /// skips exact-zero A elements (0.0 * inf = NaN and -0.0 + 0.0 = +0.0
    /// make the skip observable). Assigning (`b: [n, k]`): starts at 0
    /// and never skips.
    fn naive(
        a: &[f32],
        b: &[f32],
        init: &[f32],
        m: usize,
        k: usize,
        n: usize,
        abt: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = if abt { 0.0 } else { init[i * n + j] };
                for l in 0..k {
                    let av = a[i * k + l];
                    if abt {
                        acc += av * b[j * k + l];
                    } else if av != 0.0 {
                        acc += av * b[l * n + j];
                    }
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Runs `kernel` over `chunks` contiguous row blocks of the `m × k`
    /// by `k × n` problem, the way the threaded entry points do.
    fn chunked(
        kernel: Kernel,
        chunks: usize,
        (m, k, n): (usize, usize, usize),
        pa: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let per = m.div_ceil(chunks);
        let mut row0 = 0;
        while row0 < m {
            let rows = per.min(m - row0);
            let a_chunk = &pa[row0 * k..(row0 + rows) * k];
            kernel(
                a_chunk,
                rows,
                k,
                b,
                n,
                &mut out[row0 * n..(row0 + rows) * n],
            );
            row0 += rows;
        }
    }

    /// Every kernel reproduces the naive chain bit-for-bit on every row
    /// chunking the thread row-splitter could produce (1, 2 and 4
    /// contiguous chunks), on A with no zeros, every third zero, and
    /// ReLU-like zero-heavy rows (at least 90 % exact zeros, `-0.0`
    /// entries, all-zero rows), where the skipping [`mm_assign`] must
    /// match the never-skipping chain; the accumulating kernels honour
    /// the accumulate-into contract (zero and non-zero initial output)
    /// and the assigning ones overwrite a stale output.
    ///
    /// Shapes land on the accumulator width (64 columns ±1), the axpy
    /// column tile, the `a_bt` tile and chain width, the row-pair
    /// boundary, the pack threshold and an empty `k`.
    #[test]
    fn every_kernel_matches_naive_bitwise() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (2, 3, 17),
            (3, 5, 63),
            (4, 8, 64),
            (5, 16, 65),
            (6, 7, 96),
            (7, 33, 128),
            (8, 64, 130),
            (9, 129, 160),
            (2, 130, 256),
            (5, 6, 300),
            (32, 64, 96),
            (3, 0, 70),
            (1, 70, 65),
            (2, 64, 300),
            (15, 64, 64),
            (15, 70, 130),
        ];
        let accumulating: [(&str, Kernel); 2] = [("mm_axpy", mm_axpy), ("mm_rr2", mm_rr2)];
        let (mut zeros, mut total) = (0usize, 0usize);
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = 100 + case as u64;
            let heavy = zero_heavy(m, k, seed);
            zeros += heavy.iter().filter(|&&v| v == 0.0).count();
            total += heavy.len();
            let inputs = [
                ("no zeros", pseudo_sparse(m * k, seed, 0)),
                ("every third zero", pseudo_sparse(m * k, seed, 3)),
                ("zero-heavy", heavy),
            ];
            for (zeros_in_a, a) in &inputs {
                let b = pseudo_sparse(k * n, seed + 7, 0);
                let zeroed = vec![0.0f32; m * n];
                let init = pseudo_sparse(m * n, seed + 13, 0);
                for (name, kernel) in accumulating {
                    for start in [&zeroed, &init] {
                        let want = naive(a, &b, start, m, k, n, false);
                        for chunks in [1usize, 2, 4] {
                            let mut out = start.clone();
                            chunked(kernel, chunks, (m, k, n), a, &b, &mut out);
                            assert_eq!(
                                bits(&out),
                                bits(&want),
                                "{name} m{m} k{k} n{n} {zeros_in_a} chunks={chunks}"
                            );
                        }
                    }
                }
                // The assigning kernels against one naive chain: `abt_tiled`
                // on `B: [n, k]`, `mm_assign` on the same B as `[k, n]`.
                let bt = pseudo_sparse(n * k, seed + 7, 0);
                let b_kn: Vec<f32> = (0..k * n).map(|x| bt[(x % n) * k + x / n]).collect();
                let want = naive(a, &bt, &zeroed, m, k, n, true);
                let assigning: [(&str, Kernel, &[f32]); 3] = [
                    ("abt_tiled", abt_tiled, &bt),
                    ("mm_assign", mm_assign::<false>, &b_kn),
                    ("mm_assign skip", mm_assign::<true>, &b_kn),
                ];
                for (name, kernel, operand) in assigning {
                    for chunks in [1usize, 2, 4] {
                        // Stale non-zero output: every element must be assigned.
                        let mut out = init.clone();
                        chunked(kernel, chunks, (m, k, n), a, operand, &mut out);
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "{name} m{m} k{k} n{n} {zeros_in_a} chunks={chunks}"
                        );
                    }
                }
            }
        }
        assert!(zeros * 10 >= total * 9, "{zeros} zeros of {total}");
    }

    /// `conv_panel` on a padded panel equals the naive accumulating chain
    /// on a zeroed output plus one `+ bias`, at every tail combination of
    /// the 32/16/8-wide blocks, remainder rows, `k = 0` and weights that
    /// mix dense and zero-holding rows; stale output is overwritten.
    #[test]
    fn conv_panel_matches_naive_bitwise() {
        for f in [1usize, 3, 4, 5, 9] {
            for k in [0usize, 1, 7, 25] {
                for n in [
                    1usize, 7, 8, 9, 16, 17, 24, 31, 32, 33, 40, 48, 56, 67, 68, 444,
                ] {
                    let seed = (f * 1000 + k * 100 + n) as u64;
                    let w = pseudo_sparse(f * k, seed, if f % 2 == 0 { 0 } else { 5 });
                    let b = pseudo_sparse(k * n, seed + 1, 0);
                    let bias = pseudo_sparse(f, seed + 2, 0);
                    let ld = conv_panel_stride(n);
                    assert!(ld >= n && ld - n < CONV_TAIL_W && ld.is_multiple_of(CONV_TAIL_W));
                    let mut panel = vec![0.0f32; k * ld];
                    for l in 0..k {
                        panel[l * ld..l * ld + n].copy_from_slice(&b[l * n..(l + 1) * n]);
                    }
                    let chains = naive(&w, &b, &vec![0.0; f * n], f, k, n, false);
                    for with_bias in [false, true] {
                        let want: Vec<f32> = if with_bias {
                            (0..f * n).map(|x| chains[x] + bias[x / n]).collect()
                        } else {
                            chains.clone()
                        };
                        let mut out = vec![f32::NAN; f * n];
                        let bias_arg = with_bias.then_some(bias.as_slice());
                        conv_panel(&w, f, k, &panel, ld, n, bias_arg, &mut out);
                        assert_eq!(bits(&out), bits(&want), "f{f} k{k} n{n} bias={with_bias}");
                    }
                }
            }
        }
    }

    /// The vectorised gate finds a single `±0.0` at every position of a
    /// row, inside a 16-element step and in the tail.
    #[test]
    fn dense_row_finds_every_zero() {
        for len in 0usize..50 {
            let row: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
            assert!(dense_row(&row), "len {len}");
            for at in 0..len {
                for zero in [0.0, -0.0] {
                    let mut holed = row.clone();
                    holed[at] = zero;
                    assert!(!dense_row(&holed), "len {len}, {zero} at {at}");
                }
            }
        }
        assert!(dense_row(&[f32::NAN, f32::INFINITY, f32::MIN_POSITIVE]));
    }

    #[test]
    fn accumulate_kernel_splits_on_width_and_depth() {
        let is_rr2 = |k, n| accumulate_kernel(k, n) as usize == mm_rr2 as Kernel as usize;
        assert!(is_rr2(128, 64));
        assert!(is_rr2(1, 9600));
        assert!(!is_rr2(129, 64));
        assert!(!is_rr2(128, 63));
        assert!(!is_rr2(9600, 64));
    }
}
