//! Quantized coarse-pass pruning over [`PointStore`] blocks.
//!
//! ## The prune-only contract
//!
//! The paper's thesis is progressive evaluation: cheap approximate models
//! eliminate most of the archive before the exact model runs. This module
//! applies that idea to the scoring inner loop itself. Each fixed-size
//! block of rows is packed into an i8 side structure (per-block,
//! per-dimension affine quantization) together with a **rigorously
//! derived error bound**, so a scan can reject a whole block — or a
//! single row — whose quantized upper bound falls below the current
//! K-th floor *before touching any f64 data*.
//!
//! The coarse pass may only **prune**, never decide: every row it lets
//! through is re-scored by the exact f64 kernel with the canonical
//! left-to-right summation order (see [`crate::kernels`]), and every row
//! it rejects is *provably* strictly below the floor, so it could not
//! have entered the top-K even on a tie (the tie-break in
//! [`crate::stats::rank_cmp`] only matters at exactly equal scores, and
//! pruning requires a **strict** `ub < floor`). Final answers are
//! bit-identical to the exact-only paths.
//!
//! ## The bound derivation
//!
//! For block `b` and dimension `j`, values are stored as
//! `x ≈ bias_j + scale_j · q` with `q ∈ [-127, 127]`. Three error sources
//! are covered, each by a measured or magnitude-capped term:
//!
//! 1. **Quantization error** `err_j`: the *measured* maximum of
//!    `|x - (bias_j + scale_j · q)|` over the block, padded by
//!    `4ε(maxabs_j + |bias_j| + 127·scale_j)` for the rounding of the
//!    measurement itself.
//! 2. **Summation error of the coarse pass**: the quantized dot
//!    `Σ coeff_j · q_j` (with `coeff_j = a_j · scale_j`) is an ≤ d-term
//!    f64 sum; its error is at most `γ_d · C` with
//!    `C = 127 · Σ |coeff_j|`.
//! 3. **Summation error of the exact kernel**: the f64 score the kernels
//!    produce differs from the real `Σ a_j x_j` by at most `γ_d · M`
//!    with `M = Σ |a_j| · maxabs_j` — the bound must dominate the
//!    *computed* exact score, not just the real one.
//!
//! The per-block slack is `Σ|a_j|·err_j + γ(M + B + 2C)` with
//! `B = Σ|a_j|·|bias_j|` and `γ = (2d + 8)ε` (a deliberately generous
//! constant for every ≤ d+2-term sum involved), padded once more
//! relatively and absolutely (`pad_up`) to absorb the final additions.
//! A block whose magnitude sum `M` exceeds `OVERFLOW_GUARD` is marked
//! unusable for that query (bound `+∞`, never pruned): below the guard
//! no partial sum of the exact kernel can overflow, which rules out NaN
//! scores sneaking past a finite bound.
//!
//! ## Layout
//!
//! Codes are stored transposed (SoA): `codes[j·m + i]` is dimension `j`
//! of row `i`, so the per-row coarse pass streams stride-1 across rows —
//! one i8 byte per element instead of eight f64 bytes — with a 4-lane
//! unrolled accumulation, and monomorphized variants for d ∈ {2, 3, 8}
//! dispatched once per query.

use crate::store::PointStore;

/// Rows per quantized block: big enough that the per-block prepared
/// bound amortizes, small enough that one block's codes live in L1 and
/// a block-level rejection stays fine-grained.
pub const QUANT_BLOCK_ROWS: usize = 512;

/// Rows per **sub-block corner**: inside each block, per-dimension
/// min/max codes are also kept at this granularity. A 512-row corner
/// over Gaussian-ish data is almost never below a top-K floor (the
/// per-dimension maxima of 512 samples stack up), but an 8-row corner
/// sits far enough down the max-order statistics to prune the vast
/// majority of sub-blocks with a single O(d) check — the difference
/// between "row-level filtering that costs as much as the exact
/// kernel" and "skipping 8 rows per compare". Power of two, so the
/// member→sub mapping in index walks is a shift.
pub const QUANT_SUB_ROWS: usize = 8;

/// Largest quantized magnitude: codes live in `[-127, 127]`.
const QMAX: f64 = 127.0;

/// Machine epsilon shorthand for the error-bound arithmetic.
const EPS: f64 = f64::EPSILON;

/// Magnitude cap above which a block is unusable for a query: with
/// `Σ|a_j|·maxabs_j` below this, no partial sum of the exact kernel can
/// overflow to ±∞ (and hence never produce NaN), so a finite quantized
/// bound soundly dominates the exact score.
const OVERFLOW_GUARD: f64 = 1e300;

/// Nudges a bound upward by a relative + tiny absolute pad, absorbing
/// the rounding of the final few additions that assemble the bound.
#[inline]
fn pad_up(x: f64) -> f64 {
    x + x.abs() * (16.0 * EPS) + f64::MIN_POSITIVE
}

/// One block's quantization: per-dimension affine codes plus everything
/// the per-query bound preparation needs.
#[derive(Debug, Clone)]
struct QuantBlock {
    /// First row of the block in the backing store.
    start: usize,
    /// Rows in this block (the last block may be ragged).
    rows: usize,
    /// False when the block holds non-finite data: such a block is never
    /// pruned (its bound is `+∞` for every query).
    usable: bool,
    /// Per-dimension quantization step (0.0 for constant dimensions).
    scale: Vec<f64>,
    /// Per-dimension affine offset (the interval midpoint).
    bias: Vec<f64>,
    /// Per-dimension measured + padded dequantization error bound.
    err: Vec<f64>,
    /// Per-dimension max |x| over the block (for summation slack).
    maxabs: Vec<f64>,
    /// Per-dimension min code over the block (block-level bound).
    qmin: Vec<i8>,
    /// Per-dimension max code over the block (block-level bound).
    qmax: Vec<i8>,
    /// Sub-blocks ([`QUANT_SUB_ROWS`]-row groups) in this block.
    subs: usize,
    /// Per-sub-block min codes, dim-major: `sub_qmin[j * subs + s]`.
    sub_qmin: Vec<i8>,
    /// Per-sub-block max codes, dim-major: `sub_qmax[j * subs + s]`.
    sub_qmax: Vec<i8>,
    /// Transposed (SoA) codes: `codes[j * rows + i]`.
    codes: Vec<i8>,
}

/// The i8 coarse-pass side structure over a [`PointStore`].
///
/// Build once per store ([`QuantizedStore::build`]), prepare once per
/// query direction ([`QuantizedStore::prepare`]), then ask the prepared
/// [`QuantQuery`] for block- and row-level upper bounds.
#[derive(Debug, Clone)]
pub struct QuantizedStore {
    dims: usize,
    rows: usize,
    blocks: Vec<QuantBlock>,
}

impl QuantizedStore {
    /// Quantizes `store` into [`QUANT_BLOCK_ROWS`]-row blocks.
    pub fn build(store: &PointStore) -> Self {
        let dims = store.dims();
        let rows = store.len();
        let flat = store.flat();
        let mut blocks = Vec::with_capacity(rows.div_ceil(QUANT_BLOCK_ROWS.max(1)));
        let mut start = 0usize;
        while start < rows {
            let m = QUANT_BLOCK_ROWS.min(rows - start);
            blocks.push(QuantBlock::pack(
                &flat[start * dims..(start + m) * dims],
                dims,
                start,
                m,
            ));
            start += m;
        }
        QuantizedStore { dims, rows, blocks }
    }

    /// Dimensions per row of the quantized store.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Rows covered by the quantized store.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of quantized blocks.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// `(first_row, row_count)` of block `b`.
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        let blk = &self.blocks[b];
        (blk.start, blk.rows)
    }

    /// The block index covering `row`.
    pub fn block_of(&self, row: usize) -> usize {
        row / QUANT_BLOCK_ROWS
    }

    /// Number of [`QUANT_SUB_ROWS`]-row sub-blocks in block `b`.
    pub fn subs(&self, b: usize) -> usize {
        self.blocks[b].subs
    }

    /// `(first_row, row_count)` of sub-block `s` of block `b`, in
    /// store-global row coordinates.
    pub fn sub_range(&self, b: usize, s: usize) -> (usize, usize) {
        let blk = &self.blocks[b];
        let lo = s * QUANT_SUB_ROWS;
        let hi = (lo + QUANT_SUB_ROWS).min(blk.rows);
        (blk.start + lo, hi - lo)
    }

    /// Prepares the per-query coarse state (block bounds, scaled
    /// coefficients, slack, and the d-specialized kernel dispatch) for
    /// one direction. O(blocks · d).
    ///
    /// # Panics
    ///
    /// Panics if the direction length does not match the store.
    pub fn prepare(&self, direction: &[f64]) -> QuantQuery {
        assert_eq!(direction.len(), self.dims, "direction length mismatch");
        let d = self.dims;
        let dir_ok = direction.iter().all(|a| a.is_finite());
        let gamma = (2 * d + 8) as f64 * EPS;
        let mut base = Vec::with_capacity(self.blocks.len());
        let mut slack = Vec::with_capacity(self.blocks.len());
        let mut block_ub = Vec::with_capacity(self.blocks.len());
        let mut coeff = Vec::with_capacity(self.blocks.len() * d);
        for blk in &self.blocks {
            let at = coeff.len();
            for (a, s) in direction.iter().zip(&blk.scale) {
                coeff.push(a * s);
            }
            if !blk.usable || !dir_ok {
                base.push(0.0);
                slack.push(f64::INFINITY);
                block_ub.push(f64::INFINITY);
                continue;
            }
            let c = &coeff[at..at + d];
            let mut b_sum = 0.0f64;
            let mut r_sum = 0.0f64;
            let mut m_sum = 0.0f64;
            let mut bmag = 0.0f64;
            let mut c_sum = 0.0f64;
            let mut maxq = 0.0f64;
            for j in 0..d {
                let a = direction[j];
                b_sum += a * blk.bias[j];
                r_sum += a.abs() * blk.err[j];
                m_sum += a.abs() * blk.maxabs[j];
                bmag += a.abs() * blk.bias[j].abs();
                c_sum += c[j].abs() * QMAX;
                maxq += (c[j] * f64::from(blk.qmin[j])).max(c[j] * f64::from(blk.qmax[j]));
            }
            // Overflow guard: beyond this, the exact kernel's partial sums
            // could overflow (or even produce NaN), which no finite bound
            // can dominate. `!(x <= GUARD)` also catches NaN magnitudes.
            if !(m_sum <= OVERFLOW_GUARD && bmag <= OVERFLOW_GUARD && c_sum <= OVERFLOW_GUARD) {
                base.push(0.0);
                slack.push(f64::INFINITY);
                block_ub.push(f64::INFINITY);
                continue;
            }
            let s = r_sum + gamma * (m_sum + bmag + 2.0 * c_sum);
            let s = s + s * (16.0 * EPS) + f64::MIN_POSITIVE;
            let ub = pad_up(b_sum + maxq + s);
            base.push(b_sum);
            slack.push(s);
            block_ub.push(if ub.is_finite() { ub } else { f64::INFINITY });
        }
        QuantQuery {
            dims: d,
            kernel: QuantKernel::of(d),
            base,
            slack,
            block_ub,
            coeff,
        }
    }
}

impl QuantBlock {
    fn pack(flat: &[f64], dims: usize, start: usize, m: usize) -> Self {
        let subs = m.div_ceil(QUANT_SUB_ROWS);
        let mut scale = vec![0.0f64; dims];
        let mut bias = vec![0.0f64; dims];
        let mut err = vec![0.0f64; dims];
        let mut maxabs = vec![0.0f64; dims];
        let mut qmin = vec![0i8; dims];
        let mut qmax = vec![0i8; dims];
        let mut sub_qmin = vec![0i8; dims * subs];
        let mut sub_qmax = vec![0i8; dims * subs];
        let mut codes = vec![0i8; dims * m];
        let mut usable = true;
        for j in 0..dims {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut amax = 0.0f64;
            for i in 0..m {
                let v = flat[i * dims + j];
                if !v.is_finite() {
                    usable = false;
                    break;
                }
                lo = lo.min(v);
                hi = hi.max(v);
                amax = amax.max(v.abs());
            }
            if !usable {
                break;
            }
            let mid = 0.5 * lo + 0.5 * hi;
            let step = (hi - lo) / (2.0 * QMAX);
            let step = if step.is_finite() && step > 0.0 {
                step
            } else {
                0.0
            };
            if !mid.is_finite() {
                usable = false;
                break;
            }
            let mut e = 0.0f64;
            let mut cmin = i8::MAX;
            let mut cmax = i8::MIN;
            for i in 0..m {
                let v = flat[i * dims + j];
                let q = if step == 0.0 {
                    0i8
                } else {
                    ((v - mid) / step).round().clamp(-QMAX, QMAX) as i8
                };
                codes[j * m + i] = q;
                cmin = cmin.min(q);
                cmax = cmax.max(q);
                e = e.max((v - (mid + step * f64::from(q))).abs());
            }
            // Pad the measured deviation for the rounding of the
            // measurement itself (a 3-op f64 chain per sample).
            let e = e + 4.0 * EPS * (amax + mid.abs() + step * QMAX);
            if !e.is_finite() {
                usable = false;
                break;
            }
            scale[j] = step;
            bias[j] = mid;
            err[j] = e;
            maxabs[j] = amax;
            qmin[j] = cmin;
            qmax[j] = cmax;
            // Sub-block corners: per-dimension min/max codes over each
            // sub-block group, the granularity at which pruning actually
            // fires on clustered data.
            for s in 0..subs {
                let lo_i = s * QUANT_SUB_ROWS;
                let hi_i = (lo_i + QUANT_SUB_ROWS).min(m);
                let mut scmin = i8::MAX;
                let mut scmax = i8::MIN;
                for &q in &codes[j * m + lo_i..j * m + hi_i] {
                    scmin = scmin.min(q);
                    scmax = scmax.max(q);
                }
                sub_qmin[j * subs + s] = scmin;
                sub_qmax[j * subs + s] = scmax;
            }
        }
        if !usable {
            // Neutral, never-pruning block: bound preparation returns +inf.
            scale.iter_mut().for_each(|v| *v = 0.0);
            bias.iter_mut().for_each(|v| *v = 0.0);
            err.iter_mut().for_each(|v| *v = 0.0);
            codes.iter_mut().for_each(|v| *v = 0);
            sub_qmin.iter_mut().for_each(|v| *v = 0);
            sub_qmax.iter_mut().for_each(|v| *v = 0);
        }
        QuantBlock {
            start,
            rows: m,
            usable,
            scale,
            bias,
            err,
            maxabs,
            qmin,
            qmax,
            subs,
            sub_qmin,
            sub_qmax,
            codes,
        }
    }
}

/// Monomorphized dispatch for the quantized dot, chosen **once per
/// query** (not per block, not per row). The d ∈ {2, 3, 8} variants let
/// the compiler fully unroll the dimension loop around the 4-lane row
/// accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuantKernel {
    D2,
    D3,
    D8,
    Dyn,
}

impl QuantKernel {
    fn of(dims: usize) -> Self {
        match dims {
            2 => QuantKernel::D2,
            3 => QuantKernel::D3,
            8 => QuantKernel::D8,
            _ => QuantKernel::Dyn,
        }
    }
}

/// A direction prepared against a [`QuantizedStore`]: per-block bases,
/// slacks, scaled coefficients, and ready-made block upper bounds.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    dims: usize,
    kernel: QuantKernel,
    base: Vec<f64>,
    slack: Vec<f64>,
    block_ub: Vec<f64>,
    coeff: Vec<f64>,
}

impl QuantQuery {
    /// Sound upper bound on the exact f64 kernel score of **every** row
    /// in block `b` — an O(d) probe, no row data touched. `+∞` for
    /// blocks (or directions) the quantization cannot cover.
    #[inline]
    pub fn block_upper_bound(&self, b: usize) -> f64 {
        self.block_ub[b]
    }

    /// Sound per-row upper bounds for block `b`, written into `out`
    /// (cleared first; `out.len() == rows of b`). Streams the SoA i8
    /// codes with the query's monomorphized kernel: the only bytes
    /// touched are one i8 per element.
    pub fn row_upper_bounds(&self, store: &QuantizedStore, b: usize, out: &mut Vec<f64>) {
        let blk = &store.blocks[b];
        let m = blk.rows;
        out.clear();
        let s = self.slack[b];
        if !s.is_finite() {
            out.resize(m, f64::INFINITY);
            return;
        }
        out.resize(m, self.base[b] + s);
        let coeff = &self.coeff[b * self.dims..(b + 1) * self.dims];
        match self.kernel {
            QuantKernel::D2 => accumulate_codes::<2>(&blk.codes, m, coeff, out),
            QuantKernel::D3 => accumulate_codes::<3>(&blk.codes, m, coeff, out),
            QuantKernel::D8 => accumulate_codes::<8>(&blk.codes, m, coeff, out),
            QuantKernel::Dyn => accumulate_codes_dyn(&blk.codes, m, self.dims, coeff, out),
        }
        for u in out.iter_mut() {
            *u = pad_up(*u);
        }
    }

    /// Sound per-sub-block upper bounds for block `b`, written into
    /// `out` (cleared first; `out.len() == subs of b`). Each entry
    /// dominates the exact kernel score of every row in its
    /// [`QUANT_SUB_ROWS`]-row group — one O(d) corner per sub-block, the
    /// workhorse granularity of the coarse pass.
    pub fn sub_upper_bounds(&self, store: &QuantizedStore, b: usize, out: &mut Vec<f64>) {
        let blk = &store.blocks[b];
        let subs = blk.subs;
        out.clear();
        let s = self.slack[b];
        if !s.is_finite() {
            out.resize(subs, f64::INFINITY);
            return;
        }
        out.resize(subs, self.base[b] + s);
        let coeff = &self.coeff[b * self.dims..(b + 1) * self.dims];
        match self.kernel {
            QuantKernel::D2 => {
                corner_accumulate::<2>(&blk.sub_qmin, &blk.sub_qmax, subs, coeff, out)
            }
            QuantKernel::D3 => {
                corner_accumulate::<3>(&blk.sub_qmin, &blk.sub_qmax, subs, coeff, out)
            }
            QuantKernel::D8 => {
                corner_accumulate::<8>(&blk.sub_qmin, &blk.sub_qmax, subs, coeff, out)
            }
            QuantKernel::Dyn => {
                corner_accumulate_dyn(&blk.sub_qmin, &blk.sub_qmax, subs, self.dims, coeff, out)
            }
        }
        for u in out.iter_mut() {
            *u = pad_up(*u);
        }
    }

    /// Sound upper bound for a single row (`row` is store-global). The
    /// O(d) fallback for callers probing scattered rows, where a bulk
    /// SoA pass over the whole block would cost more than it saves.
    pub fn row_upper_bound(&self, store: &QuantizedStore, row: usize) -> f64 {
        let b = store.block_of(row);
        let blk = &store.blocks[b];
        let s = self.slack[b];
        if !s.is_finite() {
            return f64::INFINITY;
        }
        let i = row - blk.start;
        let coeff = &self.coeff[b * self.dims..(b + 1) * self.dims];
        let mut acc = self.base[b] + s;
        for (j, c) in coeff.iter().enumerate() {
            acc += c * f64::from(blk.codes[j * blk.rows + i]);
        }
        pad_up(acc)
    }
}

/// The 4-lane unrolled SoA accumulation (mirrors the PR-4 checksum
/// fold): per dimension, one stride-1 pass over the block's rows with
/// four independent accumulator updates per step. Row sums are f64
/// upper-bound material, not exact scores, so the accumulation order is
/// free — the slack already covers any-order summation error.
#[inline(always)]
fn accumulate_codes<const D: usize>(codes: &[i8], m: usize, coeff: &[f64], out: &mut [f64]) {
    for j in 0..D {
        let c = coeff[j];
        let col = &codes[j * m..(j + 1) * m];
        lane4(c, col, out);
    }
}

#[inline(always)]
fn accumulate_codes_dyn(codes: &[i8], m: usize, dims: usize, coeff: &[f64], out: &mut [f64]) {
    for j in 0..dims {
        let c = coeff[j];
        let col = &codes[j * m..(j + 1) * m];
        lane4(c, col, out);
    }
}

/// Sign-picked corner accumulation over sub-block min/max codes: each
/// sub-block's bound gains `max(c_j·qmin_j, c_j·qmax_j)` per dimension —
/// the extremal corner of the sub-block's quantized box.
#[inline(always)]
fn corner_accumulate<const D: usize>(
    sub_qmin: &[i8],
    sub_qmax: &[i8],
    subs: usize,
    coeff: &[f64],
    out: &mut [f64],
) {
    for j in 0..D {
        let c = coeff[j];
        let qn = &sub_qmin[j * subs..(j + 1) * subs];
        let qx = &sub_qmax[j * subs..(j + 1) * subs];
        for s in 0..subs {
            out[s] += (c * f64::from(qn[s])).max(c * f64::from(qx[s]));
        }
    }
}

#[inline(always)]
fn corner_accumulate_dyn(
    sub_qmin: &[i8],
    sub_qmax: &[i8],
    subs: usize,
    dims: usize,
    coeff: &[f64],
    out: &mut [f64],
) {
    for j in 0..dims {
        let c = coeff[j];
        let qn = &sub_qmin[j * subs..(j + 1) * subs];
        let qx = &sub_qmax[j * subs..(j + 1) * subs];
        for s in 0..subs {
            out[s] += (c * f64::from(qn[s])).max(c * f64::from(qx[s]));
        }
    }
}

#[inline(always)]
fn lane4(c: f64, col: &[i8], out: &mut [f64]) {
    let m = col.len();
    let lanes = m / 4 * 4;
    let mut i = 0;
    while i < lanes {
        out[i] += c * f64::from(col[i]);
        out[i + 1] += c * f64::from(col[i + 1]);
        out[i + 2] += c * f64::from(col[i + 2]);
        out[i + 3] += c * f64::from(col[i + 3]);
        i += 4;
    }
    while i < m {
        out[i] += c * f64::from(col[i]);
        i += 1;
    }
}

/// Coarse-pass work accounting for one pruned scan or query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantPruneReport {
    /// Blocks the query touched (pruned or not).
    pub blocks_total: u64,
    /// Blocks rejected wholesale by their O(d) block bound.
    pub blocks_pruned: u64,
    /// Sub-blocks rejected by their O(d) corner bound (within blocks
    /// that survived the block-level check).
    pub subblocks_pruned: u64,
    /// Rows skipped without an exact f64 score (any granularity).
    pub rows_pruned: u64,
    /// Rows scored by the exact f64 kernel.
    pub rows_exact: u64,
}

impl QuantPruneReport {
    /// Fraction of candidate rows eliminated before exact scoring.
    pub fn prune_rate(&self) -> f64 {
        let total = self.rows_pruned + self.rows_exact;
        if total == 0 {
            return 0.0;
        }
        self.rows_pruned as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use proptest::prelude::*;

    fn lcg_points(seed: u64, n: usize, d: usize, magnitude: f64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * 2.0 * magnitude
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    /// The invariant everything rests on: for every row, the coarse
    /// bound dominates the exact kernel score (and the block bound
    /// dominates every row bound's row).
    fn assert_sound(rows: &[Vec<f64>], dir: &[f64]) {
        let store = PointStore::from_rows(rows).unwrap();
        let quant = QuantizedStore::build(&store);
        let qq = quant.prepare(dir);
        let mut ubs = Vec::new();
        let mut sub_ubs = Vec::new();
        for b in 0..quant.blocks() {
            let (start, m) = quant.block_range(b);
            let block_ub = qq.block_upper_bound(b);
            qq.row_upper_bounds(&quant, b, &mut ubs);
            qq.sub_upper_bounds(&quant, b, &mut sub_ubs);
            assert_eq!(ubs.len(), m);
            assert_eq!(sub_ubs.len(), quant.subs(b));
            for i in 0..m {
                let exact = kernels::dot(dir, store.row(start + i));
                let single = qq.row_upper_bound(&quant, start + i);
                let sub_ub = sub_ubs[i / QUANT_SUB_ROWS];
                if exact.is_nan() {
                    assert!(
                        ubs[i] == f64::INFINITY && block_ub == f64::INFINITY,
                        "NaN exact score must be shielded by an infinite bound"
                    );
                    assert!(sub_ub == f64::INFINITY);
                } else {
                    assert!(
                        ubs[i] >= exact,
                        "row ub {} < exact {} (block {b} row {i})",
                        ubs[i],
                        exact
                    );
                    assert!(
                        single >= exact,
                        "single-row ub {single} < exact {exact} (row {})",
                        start + i
                    );
                    assert!(
                        block_ub >= exact,
                        "block ub {block_ub} < exact {exact} (block {b})"
                    );
                    assert!(
                        sub_ub >= exact,
                        "sub ub {sub_ub} < exact {exact} (block {b} row {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_dominate_exact_scores_on_gaussianish_data() {
        for d in [1usize, 2, 3, 5, 8] {
            let rows = lcg_points(7 + d as u64, 1300, d, 50.0);
            let dir: Vec<f64> = (0..d).map(|j| 0.443 - 0.061 * j as f64).collect();
            assert_sound(&rows, &dir);
        }
    }

    #[test]
    fn constant_blocks_and_zero_scale_round_trip() {
        // Constant values per dimension: scale collapses to 0, every code
        // is 0, and the bound is the exact score plus a vanishing pad.
        let rows: Vec<Vec<f64>> = (0..700).map(|_| vec![2.5, -1.25, 0.0]).collect();
        let dir = vec![1.0, -3.0, 7.0];
        assert_sound(&rows, &dir);
        let store = PointStore::from_rows(&rows).unwrap();
        let quant = QuantizedStore::build(&store);
        let qq = quant.prepare(&dir);
        let exact = kernels::dot(&dir, &rows[0]);
        let ub = qq.block_upper_bound(0);
        assert!(
            ub >= exact && ub - exact < 1e-9,
            "degenerate bound is tight"
        );
    }

    #[test]
    fn zero_direction_and_zero_data_are_safe() {
        let rows: Vec<Vec<f64>> = (0..600).map(|_| vec![0.0, -0.0]).collect();
        assert_sound(&rows, &[0.0, -0.0]);
        let rows = lcg_points(3, 600, 2, 10.0);
        assert_sound(&rows, &[0.0, 0.0]);
    }

    #[test]
    fn non_finite_data_disables_the_block() {
        let mut rows = lcg_points(9, 520, 3, 5.0);
        rows[17][1] = f64::NAN;
        rows[515][0] = f64::INFINITY;
        let store = PointStore::from_rows(&rows).unwrap();
        let quant = QuantizedStore::build(&store);
        let qq = quant.prepare(&[1.0, 2.0, -0.5]);
        assert_eq!(qq.block_upper_bound(0), f64::INFINITY);
        // Second block (rows 512..) holds the +inf row.
        assert_eq!(qq.block_upper_bound(1), f64::INFINITY);
    }

    #[test]
    fn non_finite_direction_disables_pruning() {
        let rows = lcg_points(11, 520, 2, 5.0);
        let store = PointStore::from_rows(&rows).unwrap();
        let quant = QuantizedStore::build(&store);
        for dir in [[f64::NAN, 1.0], [f64::INFINITY, 0.0]] {
            let qq = quant.prepare(&dir);
            for b in 0..quant.blocks() {
                assert_eq!(qq.block_upper_bound(b), f64::INFINITY);
            }
        }
    }

    #[test]
    fn overflow_magnitudes_are_shielded() {
        // Products near f64::MAX would overflow the exact kernel's partial
        // sums; the guard must answer +inf rather than a finite bound.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1e160 * i as f64, -1e160]).collect();
        assert_sound(&rows, &[1e160, 1e160]);
    }

    #[test]
    fn block_ranges_tile_the_store() {
        let rows = lcg_points(5, 1100, 2, 1.0);
        let store = PointStore::from_rows(&rows).unwrap();
        let quant = QuantizedStore::build(&store);
        let mut covered = 0;
        for b in 0..quant.blocks() {
            let (start, m) = quant.block_range(b);
            assert_eq!(start, covered);
            covered += m;
            assert!(m <= QUANT_BLOCK_ROWS);
        }
        assert_eq!(covered, store.len());
        assert_eq!(quant.block_of(0), 0);
        assert_eq!(quant.block_of(QUANT_BLOCK_ROWS), 1);
        for b in 0..quant.blocks() {
            let (bstart, bm) = quant.block_range(b);
            let mut sub_covered = 0;
            for s in 0..quant.subs(b) {
                let (sstart, sm) = quant.sub_range(b, s);
                assert_eq!(sstart, bstart + sub_covered);
                sub_covered += sm;
                assert!(sm <= QUANT_SUB_ROWS && sm > 0);
            }
            assert_eq!(sub_covered, bm, "sub-blocks tile block {b}");
        }
    }

    proptest! {
        #[test]
        fn prop_bounds_sound_for_random_blocks(
            n in 1usize..200,
            d in 1usize..9,
            seed in 0u64..3_000,
            magnitude in prop::sample::select(vec![1e-6, 1.0, 1e3, 1e9, 1e160]),
        ) {
            let rows = lcg_points(seed, n, d, magnitude);
            let mut state = seed ^ 0xdead;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let dir: Vec<f64> = (0..d).map(|_| next() * 8.0).collect();
            assert_sound(&rows, &dir);
        }

        #[test]
        fn prop_bounds_sound_under_heavy_ties(
            n in 1usize..200,
            seed in 0u64..2_000,
        ) {
            // Values drawn from a 5-element set: constant dimensions, tied
            // scores, zero scales — the degenerate regimes.
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) % 5) as f64 - 2.0
            };
            let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..3).map(|_| next()).collect()).collect();
            let dir = [1.0, -1.0, 0.5];
            assert_sound(&rows, &dir);
        }
    }
}
