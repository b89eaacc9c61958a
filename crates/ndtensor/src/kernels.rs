//! The GEMM microkernels behind [`crate::matmul`] and [`crate::conv`].
//!
//! Two kernels, one per B layout, and no rule that picks between them:
//!
//! * [`mm_assign`] — two-row × 64-column register-blocked assigning
//!   kernel over a row-major B, whose last columns run the same block
//!   zero-padded to 8, 16, 32 or 64 wide, and whose `k` runs in
//!   cache-sized blocks. It runs every `matmul` and `matmul_at_b` and the
//!   weight-stationary `x · W` of every dense forward, on the layer's
//!   `[in, out]` weight. It skips exact-zero A entries, or never skips.
//!   [`mm_accumulate`] is the same block storing `out + chain`: the
//!   dense `dW += xᵀ·g` (`matmul_at_b_acc`).
//! * [`conv_panel`] — four-row, 32-wide register-blocked assigning kernel
//!   over B rows that start where the caller says ([`RowStarts`]), with
//!   an optional bias in its store epilogue. It runs every conv forward
//!   (`W · cols` over stride-phase planes), both conv backward GEMMs
//!   (`dW = gOut · colsᵀ` over a transposed column panel, `dCols = Wᵀ ·
//!   gOut` over a padded `gOut`) and every `A·Bᵀ` as the transposed
//!   product `B · Aᵀ` (the dense input gradient `g · Wᵀ` among them).
//!
//! Every kernel honours one non-negotiable contract: **each output
//! element is accumulated in a single chain, ascending `k`, starting from
//! `+0.0`** — exactly the three-loop schoolbook product. Register
//! blocking only reorders *which element is worked on next*, never the
//! additions inside one element, and a k-block pauses a chain in the
//! output and resumes it from there, which an f32 store and load carry
//! exactly; so the two kernels are bitwise-equal on transposed operands
//! and each is bitwise-equal to the naive product (the tests below and
//! `tests/kernel_parity.rs`). Each kernel stores every output element
//! (the accumulating store as `out + chain`) and runs one of two chains: the
//! zero-skipping chain, which drops the terms of exact-zero A entries,
//! or the never-skipping chain. The two differ only where a skipped term
//! is not `±0.0`, that is, where a NaN or `±∞` in B faces an exact-zero
//! A entry: a skipped `±0.0` term added to a chain that starts at `+0.0`
//! cannot change a bit. So a caller that needs the never-skipping chain
//! may run the skipping form on a B it has checked to be all finite.
//!
//! [`mm_assign`] takes `(arows, rows, k, bd, n, out)`: `rows × k` packed
//! A rows against the full B operand, writing a `rows × n` output.

use crate::scratch;

/// Accumulator width of [`mm_assign`]: output columns held in registers.
const RR_W: usize = 64;

/// Depth of one k-block: [`mm_assign`] runs each chain over `k` in
/// blocks of this many steps, so the B rows of one block (32 KiB at the
/// 64-column accumulator width) stay in L1 while every row pair of the
/// call walks them, instead of streaming a long `k` from memory once per
/// row pair.
const KC: usize = 128;

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

/// How one k-block of chains meets the output.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Store {
    /// The first k-block: the chains start at `+0.0` and the block
    /// stores its sums.
    First,
    /// A later k-block: the chains resume from the partial sums the
    /// previous block stored in the output and store theirs back.
    Resume,
    /// The one block of the accumulating form: the chains start at
    /// `+0.0` and the block stores `out + sum`.
    Add,
}

impl Store {
    /// The block's starting accumulators: zeros, or the first `w`
    /// entries of `out`.
    #[inline(always)]
    fn load<const W: usize>(self, out: &[f32], w: usize) -> [f32; W] {
        let mut acc = [0.0f32; W];
        if self == Store::Resume {
            acc[..w].copy_from_slice(&out[..w]);
        }
        acc
    }

    /// Stores the first `w` accumulators into `out`.
    #[inline(always)]
    fn save<const W: usize>(self, acc: &[f32; W], out: &mut [f32], w: usize) {
        let out = &mut out[..w];
        if self == Store::Add {
            for (o, &a) in out.iter_mut().zip(acc) {
                *o += a;
            }
        } else {
            out.copy_from_slice(&acc[..w]);
        }
    }
}

/// The k-blocks of a `k`-step chain: `(k0, kc)` pairs of at most
/// `depth` steps in ascending order, and one empty block when `k == 0`
/// (so every output is still stored).
fn k_blocks(k: usize, depth: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k.div_ceil(depth).max(1)).map(move |b| (b * depth, depth.min(k - b * depth)))
}

/// Single-row register block for the remainder row of [`rr_block`]: one
/// `W`-wide accumulator row over `b`'s columns `j..j + W`, row stride
/// `ld`.
#[inline(always)]
fn rr1_block<const SKIP: bool, const W: usize>(
    r0: &[f32],
    b: &[f32],
    (ld, j): (usize, usize),
    acc0: &mut [f32; W],
) {
    if !SKIP || dense_row(r0) {
        for (l, &a0) in r0.iter().enumerate() {
            let brow = &b[l * ld + j..l * ld + j + W];
            for t in 0..W {
                acc0[t] += a0 * brow[t];
            }
        }
    } else {
        for (l, &a0) in r0.iter().enumerate() {
            let brow = &b[l * ld + j..l * ld + j + W];
            // sncheck:allow(no-float-eq): exact-zero sparsity skip.
            if a0 != 0.0 {
                for t in 0..W {
                    acc0[t] += a0 * brow[t];
                }
            }
        }
    }
}

/// Two-row register block over one k-block: steps `k0..k0 + kc` of every
/// row of `arows` (`rows` rows of `k` entries each) against columns
/// `j..j + W` of `b` (B's rows from `k0` on, row stride `ld`), meeting
/// the first `w` columns of each matching `n`-wide row of `out` as
/// `store` says.
///
/// A pair of `W`-wide accumulator rows lives in separate fixed-size
/// locals (so scalar replacement keeps them in vector registers for the
/// whole k-block — a nested `[[f32; W]; R]` block defeats that) and is
/// stored back once. The `kc × W` B block is loaded once per step, shared
/// by both rows, and stays cache-resident across row pairs. Each output
/// element's chain runs ascending `l`, from `+0.0` or from its own partial
/// sum, which an f32 store and load carry exactly.
///
/// `SKIP` picks the zero discipline: skipping exact-zero A entries, where
/// row pairs whose A rows contain no exact zero take the branch-free
/// inner loop — it performs the identical operation sequence as the skip
/// loop on those inputs, so the choice never changes bits — or never
/// skipping, always branch-free.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rr_block<const SKIP: bool, const W: usize>(
    arows: &[f32],
    rows: usize,
    k: usize,
    (k0, kc): (usize, usize),
    b: &[f32],
    (ld, j): (usize, usize),
    out: &mut [f32],
    n: usize,
    w: usize,
    store: Store,
) {
    let arow = |i: usize| &arows[i * k + k0..i * k + k0 + kc];
    let mut i = 0;
    while i + 2 <= rows {
        let (r0, r1) = (arow(i), arow(i + 1));
        let mut acc0: [f32; W] = store.load(&out[i * n..], w);
        let mut acc1: [f32; W] = store.load(&out[(i + 1) * n..], w);
        if !SKIP || (dense_row(r0) && dense_row(r1)) {
            for l in 0..kc {
                let brow = &b[l * ld + j..l * ld + j + W];
                let a0 = r0[l];
                let a1 = r1[l];
                for t in 0..W {
                    acc0[t] += a0 * brow[t];
                }
                for t in 0..W {
                    acc1[t] += a1 * brow[t];
                }
            }
        } else {
            for l in 0..kc {
                let brow = &b[l * ld + j..l * ld + j + W];
                let a0 = r0[l];
                // sncheck:allow(no-float-eq): exact-zero sparsity
                // skip.
                if a0 != 0.0 {
                    for t in 0..W {
                        acc0[t] += a0 * brow[t];
                    }
                }
                let a1 = r1[l];
                // sncheck:allow(no-float-eq): exact-zero sparsity
                // skip.
                if a1 != 0.0 {
                    for t in 0..W {
                        acc1[t] += a1 * brow[t];
                    }
                }
            }
        }
        store.save(&acc0, &mut out[i * n..], w);
        store.save(&acc1, &mut out[(i + 1) * n..], w);
        i += 2;
    }
    // Remainder row: single-row register block, identical chains.
    if i < rows {
        let mut acc0: [f32; W] = store.load(&out[i * n..], w);
        rr1_block::<SKIP, W>(arow(i), b, (ld, j), &mut acc0);
        store.save(&acc0, &mut out[i * n..], w);
    }
}

/// [`rr_block`] over the last `n - j` (at most `W`) columns of `b` (B's
/// rows from `k0` on, `n` wide), copied for the k-block's `kc` rows into
/// a `kc × W` scratch panel with zeros in the pad columns; only the valid
/// columns are stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rr_padded_block<const SKIP: bool, const W: usize>(
    arows: &[f32],
    rows: usize,
    k: usize,
    (k0, kc): (usize, usize),
    b: &[f32],
    n: usize,
    out: &mut [f32],
    j: usize,
    store: Store,
) {
    let mut panel = scratch::take_zeroed(kc * W);
    for (prow, brow) in panel.chunks_exact_mut(W).zip(b.chunks_exact(n)) {
        prow[..n - j].copy_from_slice(&brow[j..]);
    }
    let w = n - j;
    rr_block::<SKIP, W>(
        arows,
        rows,
        k,
        (k0, kc),
        &panel,
        (W, 0),
        &mut out[j..],
        n,
        w,
        store,
    );
    scratch::give(panel);
}

/// The GEMM body of [`mm_assign`] and [`mm_accumulate`]: per k-block
/// ([`KC`] steps; the accumulating form runs all of `k` as one block),
/// [`rr_block`] over each 64-column block of B in place, then over the
/// columns left, padded to the narrowest of 8, 16, 32 or 64 that holds
/// them ([`rr_padded_block`]) — so no output column runs a scalar chain.
fn rr2_blocks<const SKIP: bool>(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    add: bool,
) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 {
        return;
    }
    for (k0, kc) in k_blocks(k, if add { k.max(1) } else { KC }) {
        let store = match (add, k0) {
            (true, _) => Store::Add,
            (false, 0) => Store::First,
            (false, _) => Store::Resume,
        };
        let b = &bd[k0 * n..(k0 + kc) * n];
        let blk = (k0, kc);
        let mut j = 0;
        while j + RR_W <= n {
            rr_block::<SKIP, RR_W>(
                arows,
                rows,
                k,
                blk,
                b,
                (n, j),
                &mut out[j..],
                n,
                RR_W,
                store,
            );
            j += RR_W;
        }
        match n - j {
            0 => {}
            1..=8 => rr_padded_block::<SKIP, 8>(arows, rows, k, blk, b, n, out, j, store),
            9..=16 => rr_padded_block::<SKIP, 16>(arows, rows, k, blk, b, n, out, j, store),
            17..=32 => rr_padded_block::<SKIP, 32>(arows, rows, k, blk, b, n, out, j, store),
            _ => rr_padded_block::<SKIP, RR_W>(arows, rows, k, blk, b, n, out, j, store),
        }
    }
}

/// Two-row, 64-wide register-blocked assigning kernel:
/// `out[i][j] = Σ_l arows[i][l] · b[l][j]`. Each element is one chain
/// from `0.0`, ascending `l` — exactly [`conv_panel`]'s chain on the
/// transposed operands. `k` runs in blocks of [`KC`] steps, each block
/// resuming every chain from the partial sum the previous one stored in
/// `out`: still one chain per element, since an f32 store and load are
/// exact. Every element of `out` is assigned (zeros when `k == 0`).
///
/// `SKIP = false` forms every term: the never-skipping chain, so a
/// non-finite B entry reaches its outputs even through an exact-zero A
/// entry. `SKIP = true` computes the zero-skipping chain for any B: the
/// terms of exact-zero A entries are dropped. When B is all finite the
/// two chains give the same bits: a skipped term `0 · b` is `±0.0`, a
/// chain from `+0.0` never holds `-0.0`, and adding `±0.0` to any other
/// sum — NaN and `±∞` included — leaves its bits unchanged.
pub(crate) fn mm_assign<const SKIP: bool>(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    rr2_blocks::<SKIP>(arows, rows, k, bd, n, out, false);
}

/// [`mm_assign`]'s zero-skipping chains, each added to the output
/// element it lands on once complete: `out[i][j] = out[i][j] + Σ_l
/// arows[i][l] · b[l][j]`, the bits of adding a separately computed
/// product. The chains run over all of `k` in one block, since a partial
/// sum has nowhere to wait without a buffer the size of the output; its
/// caller, the dense `dW += xᵀ·g`, has `k` = the batch size.
pub(crate) fn mm_accumulate(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    rr2_blocks::<true>(arows, rows, k, bd, n, out, true);
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

/// Where [`conv_panel`]'s computed columns land in its output: computed
/// column `p` is grid cell `(p / wide, p % wide)` of a `rows × wide`
/// grid, stored at `(p / wide) · keep + p % wide` of each output row when
/// `p % wide < keep` and dropped otherwise. A plain product is one grid
/// row with nothing dropped ([`Cols::dense`]); the conv forward runs over
/// its stride-phase planes' wide rows and drops the `wide − keep` columns
/// that straddle a row end.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cols {
    rows: usize,
    wide: usize,
    keep: usize,
}

impl Cols {
    /// `n` computed columns, all kept.
    pub(crate) fn dense(n: usize) -> Self {
        Cols {
            rows: 1,
            wide: n,
            keep: n,
        }
    }

    /// A `rows × wide` grid whose first `keep` columns of each row are
    /// kept (`keep ≤ wide`).
    pub(crate) fn wide(rows: usize, wide: usize, keep: usize) -> Self {
        debug_assert!(keep <= wide);
        Cols { rows, wide, keep }
    }

    /// Kept columns: the width of each output row.
    fn len(self) -> usize {
        self.rows * self.keep
    }

    /// Columns to compute: through the last kept column of the last row.
    fn computed(self) -> usize {
        if self.len() == 0 {
            0
        } else {
            (self.rows - 1) * self.wide + self.keep
        }
    }

    /// Columns each B row must be readable for from its start: the
    /// computed columns rounded up to [`CONV_TAIL_W`], the width the
    /// register blocks cover.
    pub(crate) fn span(self) -> usize {
        conv_panel_stride(self.computed())
    }
}

/// Where each B row of [`conv_panel`] starts in its slice. The kernel is
/// generic over it, so a padded panel's evenly strided rows cost a
/// multiply, not a table load.
pub(crate) trait RowStarts: Copy {
    /// The first `k` rows, cut to length so that the kernel's loop over
    /// them needs no bounds check.
    fn first_rows(self, k: usize) -> Self;
    /// Start of row `l`.
    fn row_start(self, l: usize) -> usize;
}

/// The rows `0, ld, 2·ld, …` of a padded panel with row stride `ld`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Strided(pub(crate) usize);

impl RowStarts for Strided {
    #[inline(always)]
    fn first_rows(self, _k: usize) -> Self {
        self
    }

    #[inline(always)]
    fn row_start(self, l: usize) -> usize {
        l * self.0
    }
}

/// Rows at arbitrary starts: the conv forward's taps.
impl RowStarts for &[usize] {
    #[inline(always)]
    fn first_rows(self, k: usize) -> Self {
        &self[..k]
    }

    #[inline(always)]
    fn row_start(self, l: usize) -> usize {
        self[l]
    }
}

/// One register block of [`conv_panel`]: the four weight rows `w` (each
/// of length `k`) against columns `j..j + W` of the B rows starting at
/// `b[starts.row_start(l)..]`. Each chain starts at `0.0`, runs
/// ascending `l` and skips exact-zero weights; when `dense` (no weight
/// row holds an exact zero) the block takes the branch-free loop, which
/// performs the identical operation sequence on those inputs. The four accumulator
/// rows are separate locals: a nested `[[f32; W]; 4]` is not kept in
/// registers (see [`rr_block`]).
#[inline(always)]
fn conv_block<const W: usize, S: RowStarts>(
    w: [&[f32]; CONV_R],
    dense: bool,
    b: &[f32],
    starts: S,
    j: usize,
) -> [[f32; W]; CONV_R] {
    let [w0, w1, w2, w3] = w;
    let k = w0.len();
    let (w1, w2, w3, starts) = (&w1[..k], &w2[..k], &w3[..k], starts.first_rows(k));
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    if dense {
        for l in 0..k {
            let brow = &b[starts.row_start(l) + j..starts.row_start(l) + j + W];
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
            let brow = &b[starts.row_start(l) + j..starts.row_start(l) + j + W];
            let (a0, a1, a2, a3) = (w0[l], w1[l], w2[l], w3[l]);
            // sncheck:allow(no-float-eq): exact-zero sparsity skip.
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

/// Stores the first `live` rows of a [`conv_block`] result, computed
/// columns `j..j + valid`, where `cols` puts them in the output rows,
/// each as `acc + bias` when there is a bias. The block is cut at each
/// grid row end; a piece past `keep` is dropped.
#[inline(always)]
fn store_block<const W: usize>(
    acc: &[[f32; W]; CONV_R],
    live: usize,
    bias: Option<&[f32]>,
    (j, valid): (usize, usize),
    cols: Cols,
    out: &mut [f32],
) {
    let n = cols.len();
    let mut p = j;
    while p < j + valid {
        let (y, x) = (p / cols.wide, p % cols.wide);
        let run = (j + valid - p).min(cols.wide - x);
        if x < cols.keep {
            let (src, len) = (p - j, run.min(cols.keep - x));
            let at = y * cols.keep + x;
            for (r, accr) in acc.iter().enumerate().take(live) {
                let orow = &mut out[r * n + at..r * n + at + len];
                let accr = &accr[src..src + len];
                match bias {
                    Some(b) => {
                        for (o, &v) in orow.iter_mut().zip(accr) {
                            *o = v + b[r];
                        }
                    }
                    None => orow.copy_from_slice(accr),
                }
            }
        }
        p += run;
    }
}

/// The panel kernel: `out[i][c] = (Σ_l w[i][l] · b[s_l + p]) + bias[i]`
/// for `f` rows of `w: [f, k]`, where `s_l = starts.row_start(l)` and
/// computed column `p` lands on output column `c` as `cols` says
/// ([`Cols`]), writing the dense `f × cols.len()` output. Each B row must
/// be readable for [`Cols::span`] columns from its start: a padded panel
/// passes [`Strided`]; the conv forward passes each tap's offset into
/// its stride-phase plane, so no column matrix is built.
///
/// Each element's chain starts at `0.0` and runs ascending `l`, followed
/// by the single `+ bias` when there is one. With `skip` the chain skips
/// exact-zero weights — the zero-skipping chain, bitwise-equal to
/// [`mm_assign`]`::<true>` on the transposed operands plus a separate
/// bias pass. Without `skip` every term is formed: the never-skipping
/// chain, which a skipping run also
/// reproduces bit for bit when the panel is all finite (a skipped term
/// `0 · p` is then `±0.0`, a chain from `+0.0` never holds `-0.0`, and
/// adding `±0.0` to any other sum leaves its bits unchanged). A dropped
/// column reads what it likes: no kept column reads its B entries.
///
/// Four-row × 32-column register blocks (16- and 8-wide on the tail) are
/// computed in full and only their kept columns stored; a last block of
/// fewer than four rows repeats its last row and stores only the live
/// ones. Every output element is assigned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_panel<S: RowStarts>(
    w: &[f32],
    f: usize,
    k: usize,
    b: &[f32],
    starts: S,
    cols: Cols,
    bias: Option<&[f32]>,
    skip: bool,
    out: &mut [f32],
) {
    let (n, span) = (cols.computed(), cols.span());
    debug_assert_eq!(w.len(), f * k);
    debug_assert!((0..k).all(|l| starts.first_rows(k).row_start(l) + span <= b.len()));
    debug_assert_eq!(out.len(), f * cols.len());
    debug_assert!(bias.is_none_or(|b| b.len() == f));
    const HALF_W: usize = CONV_W / 2;
    for i in (0..f).step_by(CONV_R) {
        let live = CONV_R.min(f - i);
        let rows: [&[f32]; CONV_R] = std::array::from_fn(|r| {
            let fi = (i + r).min(f - 1);
            &w[fi * k..(fi + 1) * k]
        });
        let dense = !skip || rows.iter().all(|row| dense_row(row));
        let bias = bias.map(|b| &b[i..i + live]);
        let out = &mut out[i * cols.len()..(i + live) * cols.len()];
        let mut j = 0;
        while j + CONV_W <= span {
            let acc = conv_block::<CONV_W, S>(rows, dense, b, starts, j);
            store_block(&acc, live, bias, (j, CONV_W.min(n - j)), cols, out);
            j += CONV_W;
        }
        if j + HALF_W <= span {
            let acc = conv_block::<HALF_W, S>(rows, dense, b, starts, j);
            store_block(&acc, live, bias, (j, HALF_W.min(n - j)), cols, out);
            j += HALF_W;
        }
        if j < span {
            let acc = conv_block::<CONV_TAIL_W, S>(rows, dense, b, starts, j);
            store_block(&acc, live, bias, (j, n - j), cols, out);
        }
    }
}

/// Whether every element of `v` is finite: the condition under which a
/// skipping [`conv_panel`] run reproduces the never-skipping chain. No
/// exit inside the fold, so the scan vectorises.
pub(crate) fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Writes `A: [m, k]` transposed into a padded panel of `k` rows, row
/// stride `ld` ([`conv_panel_stride`] of `m`): `panel[l][i] = a[i][l]`,
/// zeros in the pad columns. The panel is written row by row, so the
/// writes are sequential and the `m` strided reads of one row share cache
/// lines with the next rows'.
pub(crate) fn pack_t_padded(a: &[f32], m: usize, k: usize, ld: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    let mut panel = scratch::take(k * ld);
    for l in 0..k {
        panel.extend((0..m).map(|i| a[i * k + l]));
        panel.extend(std::iter::repeat_n(0.0, ld - m));
    }
    panel
}

/// Transposes `A: [k, m]` into a contiguous `m × k` scratch buffer, so
/// [`mm_assign`] sees plain packed rows of `Aᵀ`. Written row by row, as
/// [`pack_t_padded`].
pub(crate) fn pack_at(ad: &[f32], k: usize, m: usize) -> Vec<f32> {
    let mut pa = scratch::take(m * k);
    for i in 0..m {
        pa.extend((0..k).map(|l| ad[l * m + i]));
    }
    pa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bits with every NaN mapped to one value: a NaN's payload may
    /// depend on operand order, which the kernels do not pin.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Pseudo-random fill with every `zero_every`-th element an exact
    /// zero (0 disables), to exercise the sparsity skip and its
    /// dense-row fast-path gate.
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

    /// Writes NaN, `+∞` and `−∞` in turn over every `every`-th element.
    fn poison(v: &mut [f32], every: usize) {
        for (x, e) in v.iter_mut().enumerate().step_by(every) {
            *e = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(x / every) % 3];
        }
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

    /// Schoolbook reference over packed `A: [m, k]` rows and `b: [k, n]`:
    /// element `(i, j)` starts at `0.0` and runs ascending `l`. With
    /// `skip` the terms of exact-zero A elements are dropped (`0 · ∞ =
    /// NaN` makes the skip observable); without, every term is formed.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, skip: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    let av = a[i * k + l];
                    if !(skip && av == 0.0) {
                        acc += av * b[l * n + j];
                    }
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// The `(arows, rows, k, bd, n, out)` signature of [`mm_assign`].
    type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

    /// Both forms of [`mm_assign`] reproduce their naive chain
    /// bit-for-bit on A with no zeros, every third zero, and ReLU-like
    /// zero-heavy rows (at least 90 % exact zeros, `-0.0` entries,
    /// all-zero rows), overwriting a stale output.
    /// On an all-finite B the skipping form must match the never-skipping
    /// chain; on a B holding NaN and `±∞` it must match the zero-skipping
    /// chain (NaNs compared by NaN-ness).
    ///
    /// Shapes land on the accumulator width (64 columns ±1), every width
    /// of the padded last column block (8, 16, 32, 64), the row-pair
    /// boundary, an empty `k` and both sides of the k-block depth [`KC`].
    /// [`mm_accumulate`] must add the zero-skipping chain to each stale
    /// output element.
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
            (4, 9, 16),
            (3, 4, 72),
            (2, 5, 9),
            (5, 12, 33),
            (6, 10, 88),
            (3, KC - 1, 65),
            (2, KC, 64),
            (5, 2 * KC + 1, 17),
        ];
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
            let init = pseudo_sparse(m * n, seed + 13, 0);
            for (zeros_in_a, a) in &inputs {
                for finite in [true, false] {
                    let mut b = pseudo_sparse(k * n, seed + 7, 0);
                    if !finite {
                        poison(&mut b, 7);
                    }
                    let full = naive(a, &b, m, k, n, false);
                    let skipping = naive(a, &b, m, k, n, true);
                    if finite {
                        assert_eq!(bits(&skipping), bits(&full), "m{m} k{k} n{n} {zeros_in_a}");
                    }
                    let added: Vec<f32> = init.iter().zip(&skipping).map(|(i, s)| i + s).collect();
                    let forms: [(&str, Kernel, &[f32]); 3] = [
                        ("mm_assign", mm_assign::<false>, &full),
                        ("mm_assign skip", mm_assign::<true>, &skipping),
                        ("mm_accumulate", mm_accumulate, &added),
                    ];
                    for (name, kernel, want) in forms {
                        // Stale non-zero output: every element must be
                        // assigned, or added to.
                        let mut out = init.clone();
                        kernel(a, m, k, &b, n, &mut out);
                        assert_eq!(
                            nan_bits(&out),
                            nan_bits(want),
                            "{name} m{m} k{k} n{n} {zeros_in_a} finite={finite}"
                        );
                    }
                }
            }
        }
        assert!(zeros * 10 >= total * 9, "{zeros} zeros of {total}");
    }

    /// `conv_panel` on a padded panel equals the naive chain plus one
    /// `+ bias` — the zero-skipping chain with `skip`, the never-skipping
    /// one without — at every tail
    /// combination of the 32/16/8-wide blocks, remainder rows, `k = 0`
    /// and weights that mix dense and zero-holding rows. A panel holding
    /// NaN and `±∞` shows the two disciplines apart (NaNs compared by
    /// NaN-ness); on an all-finite panel both give the same bits. Stale
    /// output is overwritten.
    #[test]
    fn conv_panel_matches_naive_bitwise() {
        for f in [1usize, 3, 4, 5, 9] {
            for k in [0usize, 1, 7, 25] {
                for n in [
                    1usize, 7, 8, 9, 16, 17, 24, 31, 32, 33, 40, 48, 56, 67, 68, 444,
                ] {
                    let seed = (f * 1000 + k * 100 + n) as u64;
                    let w = pseudo_sparse(f * k, seed, if f % 2 == 0 { 0 } else { 5 });
                    let bias = pseudo_sparse(f, seed + 2, 0);
                    let ld = conv_panel_stride(n);
                    assert!(ld >= n && ld - n < CONV_TAIL_W && ld.is_multiple_of(CONV_TAIL_W));
                    for finite in [true, false] {
                        let mut b = pseudo_sparse(k * n, seed + 1, 0);
                        if !finite {
                            poison(&mut b, 3);
                        }
                        let mut panel = vec![0.0f32; k * ld];
                        for l in 0..k {
                            panel[l * ld..l * ld + n].copy_from_slice(&b[l * n..(l + 1) * n]);
                        }
                        let skipping = naive(&w, &b, f, k, n, true);
                        let full = naive(&w, &b, f, k, n, false);
                        if finite {
                            assert_eq!(bits(&skipping), bits(&full), "f{f} k{k} n{n}");
                        }
                        for (skip, chains) in [(true, &skipping), (false, &full)] {
                            for with_bias in [false, true] {
                                let want: Vec<f32> = if with_bias {
                                    (0..f * n).map(|x| chains[x] + bias[x / n]).collect()
                                } else {
                                    chains.clone()
                                };
                                let mut out = vec![f32::NAN; f * n];
                                let bias_arg = with_bias.then_some(bias.as_slice());
                                let cols = Cols::dense(n);
                                conv_panel(
                                    &w,
                                    f,
                                    k,
                                    &panel,
                                    Strided(ld),
                                    cols,
                                    bias_arg,
                                    skip,
                                    &mut out,
                                );
                                assert_eq!(
                                    nan_bits(&out),
                                    nan_bits(&want),
                                    "f{f} k{k} n{n} bias={with_bias} skip={skip} finite={finite}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `pack_t_padded` transposes into zero-padded rows, and `all_finite`
    /// finds a single NaN or `±∞` at every position.
    #[test]
    fn transposed_panel_and_finite_scan() {
        assert!(pack_t_padded(&[], 3, 0, 8).is_empty());
        let (m, k) = (5usize, 7usize);
        let a = pseudo_sparse(m * k, 9, 0);
        let ld = conv_panel_stride(m);
        let panel = pack_t_padded(&a, m, k, ld);
        for l in 0..k {
            for i in 0..ld {
                let want = if i < m { a[i * k + l] } else { 0.0 };
                assert_eq!(panel[l * ld + i].to_bits(), want.to_bits());
            }
        }
        assert!(all_finite(&a) && all_finite(&[]));
        for at in 0..a.len() {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut holed = a.clone();
                holed[at] = bad;
                assert!(!all_finite(&holed), "{bad} at {at}");
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
}
