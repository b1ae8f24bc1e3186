//! Aggregate resolution pyramids with sound interval bounds.
//!
//! Progressive model execution needs more than block means: to *prune* a
//! region soundly, the engine must know an interval guaranteed to contain
//! every base-resolution value under a pyramid cell. `AggregatePyramid`
//! stores `(min, max, mean, count)` per cell, so any model monotone in its
//! attributes gets sound per-region bounds.

use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_archive::grid::{ChunkedGrid, Grid2};
use std::ops::Range;

/// Aggregates of the base-resolution values covered by one pyramid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Minimum covered value.
    pub min: f64,
    /// Maximum covered value.
    pub max: f64,
    /// Mean of covered values.
    pub mean: f64,
    /// Number of base cells covered.
    pub count: u64,
}

impl CellStats {
    /// Aggregates a single value.
    pub fn of_value(v: f64) -> Self {
        CellStats {
            min: v,
            max: v,
            mean: v,
            count: 1,
        }
    }

    /// Merges two aggregates.
    pub fn merge(&self, other: &CellStats) -> CellStats {
        let count = self.count + other.count;
        CellStats {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            mean: (self.mean * self.count as f64 + other.mean * other.count as f64) / count as f64,
            count,
        }
    }

    /// Width of the value interval.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// A min/max/mean pyramid over a [`Grid2<f64>`].
///
/// Level 0 is base resolution (stats of single cells); each higher level
/// aggregates 2x2 children (ragged edges aggregate what exists). The
/// top level is always a single cell. Levels are stored as
/// [`ChunkedGrid`]s, so a clone shares every level's chunks and
/// [`extend_rows`](Self::extend_rows) rebuilds only the chunks a band
/// dirties.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_progressive::pyramid::AggregatePyramid;
///
/// let pyr = AggregatePyramid::build(&Grid2::from_fn(32, 32, |r, _| r as f64));
/// let root = pyr.root();
/// assert_eq!(root.min, 0.0);
/// assert_eq!(root.max, 31.0);
/// assert_eq!(root.count, 32 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct AggregatePyramid {
    levels: Vec<ChunkedGrid<CellStats>>,
}

/// Single-cell stats of row-major base values.
fn base_cells(values: &[f64]) -> impl Iterator<Item = CellStats> + '_ {
    values.iter().map(|&v| CellStats::of_value(v))
}

/// The cells of parent rows `rows` over `child`, row-major. Each parent
/// merges its 2x2 child block (clamped at ragged edges) in the fixed
/// order top-left, top-right, bottom-left, bottom-right, which makes
/// every build of a parent bit-identical.
fn parent_cells(
    child: &ChunkedGrid<CellStats>,
    rows: Range<usize>,
) -> impl Iterator<Item = CellStats> + '_ {
    let cols = child.cols().div_ceil(2);
    let (mut r, mut c) = (rows.start, 0);
    let (mut top, mut bottom): (&[CellStats], &[CellStats]) = (&[], &[]);
    // A map over a range has an exact length, so the chunk is written in
    // place; the closure walks (r, c) itself.
    (0..rows.len() * cols).map(move |_| {
        if c == 0 {
            top = child.row(2 * r);
            bottom = if 2 * r + 1 < child.rows() {
                child.row(2 * r + 1)
            } else {
                &[]
            };
        }
        let block = 2 * c..(2 * c + 2).min(top.len());
        let mut cells = top[block.clone()]
            .iter()
            .chain(bottom.get(block).unwrap_or(&[]));
        let first = *cells
            .next()
            .expect("every parent covers at least one child");
        let merged = cells.fold(first, |acc, s| acc.merge(s));
        c += 1;
        if c == cols {
            (r, c) = (r + 1, 0);
        }
        merged
    })
}

impl AggregatePyramid {
    /// Builds the full pyramid (down to 1x1) over `base`.
    pub fn build(base: &Grid2<f64>) -> Self {
        let mut levels = vec![ChunkedGrid::from_rows(base.rows(), base.cols(), |rows| {
            base_cells(base.row_range(rows))
        })];
        loop {
            let prev = levels.last().expect("non-empty by construction");
            if prev.rows() == 1 && prev.cols() == 1 {
                break;
            }
            let next =
                ChunkedGrid::from_rows(prev.rows().div_ceil(2), prev.cols().div_ceil(2), |rows| {
                    parent_cells(prev, rows)
                });
            levels.push(next);
        }
        AggregatePyramid { levels }
    }

    /// Extends the pyramid for rows appended at the bottom of the base
    /// grid, recomputing only the dirtied suffix of each level.
    ///
    /// Appending `band` below an `R`-row base dirties base rows
    /// `R..R+band.rows()`; at level `l` the first dirty row follows the
    /// recurrence `dirty_l = dirty_{l-1} / 2` (a parent is dirty exactly
    /// when its child block `2r..2r+2` reaches a dirty row, including the
    /// previously clamped last parent that now covers a second child).
    /// Each level is [`ChunkedGrid::extended`] from the old one: chunks
    /// ending before the dirty frontier are **shared** with the old
    /// pyramid (and every clone of it), the frontier chunk copies its clean
    /// rows, and only dirty rows are computed, with [`build`](Self::build)'s
    /// fixed merge order, so the result is bit-identical to a full rebuild
    /// over the extended grid (property-tested). New levels appear as the
    /// pyramid grows taller.
    ///
    /// The cost is O(band·cols + levels·chunk) cells however large the
    /// pyramid is: level `l` computes about `band.rows() / 2^l + 1` rows
    /// and copies fewer than [`CHUNK_ROWS`](mbir_archive::grid::CHUNK_ROWS)
    /// clean ones.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when the band's width differs from
    /// the base's; [`ArchiveError::EmptyDimension`] for an empty band.
    pub fn extend_rows(&mut self, band: &Grid2<f64>) -> Result<(), ArchiveError> {
        let (base_rows, base_cols) = self.base_shape();
        if band.cols() != base_cols {
            return Err(ArchiveError::Misaligned(format!(
                "band width {} != pyramid width {}",
                band.cols(),
                base_cols
            )));
        }
        if band.rows() == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        let mut dirty = base_rows;
        let mut levels = vec![
            self.levels[0].extended(dirty, base_rows + band.rows(), |rows| {
                base_cells(band.row_range(rows.start - base_rows..rows.end - base_rows))
            }),
        ];
        loop {
            let prev = levels.last().expect("non-empty by construction");
            if prev.rows() == 1 && prev.cols() == 1 {
                break;
            }
            dirty /= 2;
            let (rows, cols) = (prev.rows().div_ceil(2), prev.cols().div_ceil(2));
            let fill = |rows| parent_cells(prev, rows);
            let next = match self.levels.get(levels.len()) {
                Some(old) => old.extended(dirty, rows, fill),
                None => ChunkedGrid::from_rows(rows, cols, fill),
            };
            levels.push(next);
        }
        self.levels = levels;
        Ok(())
    }

    /// The storage of one level, for inspecting which chunks two pyramids
    /// share.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn level(&self, level: usize) -> &ChunkedGrid<CellStats> {
        &self.levels[level]
    }

    /// Number of levels; level 0 is base resolution.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Base grid shape `(rows, cols)`.
    pub fn base_shape(&self) -> (usize, usize) {
        (self.levels[0].rows(), self.levels[0].cols())
    }

    /// Shape of a level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn level_shape(&self, level: usize) -> (usize, usize) {
        let g = &self.levels[level];
        (g.rows(), g.cols())
    }

    /// Stats of the cell at `(level, row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] outside the level's shape (a
    /// `level` beyond the top is reported against the top level's bounds).
    pub fn cell(&self, level: usize, row: usize, col: usize) -> Result<CellStats, ArchiveError> {
        let g = self.levels.get(level).ok_or(ArchiveError::OutOfBounds {
            row: level,
            col: 0,
            rows: self.levels.len(),
            cols: 1,
        })?;
        Ok(*g.get(row, col)?)
    }

    /// Stats of the single top cell.
    pub fn root(&self) -> CellStats {
        self.levels[self.levels.len() - 1].row(0)[0]
    }

    /// The children coordinates of `(level, row, col)` at `level - 1`.
    ///
    /// Returns an empty vector at level 0. Descent loops that run once per
    /// popped frontier region should prefer
    /// [`AggregatePyramid::children_into`] with a reused buffer.
    pub fn children(&self, level: usize, row: usize, col: usize) -> Vec<CellCoord> {
        let mut out = Vec::with_capacity(4);
        self.children_into(level, row, col, &mut out);
        out
    }

    /// Writes the children of `(level, row, col)` into `out` (cleared
    /// first) — the allocation-free form of [`AggregatePyramid::children`]
    /// for hot descent loops. `out` is left empty at level 0.
    pub fn children_into(&self, level: usize, row: usize, col: usize, out: &mut Vec<CellCoord>) {
        out.clear();
        if level == 0 || level >= self.levels.len() {
            return;
        }
        let child = &self.levels[level - 1];
        for rr in row * 2..(row * 2 + 2).min(child.rows()) {
            for cc in col * 2..(col * 2 + 2).min(child.cols()) {
                out.push(CellCoord::new(rr, cc));
            }
        }
    }

    /// The base-resolution cells covered by `(level, row, col)`.
    pub fn base_cells(&self, level: usize, row: usize, col: usize) -> Vec<CellCoord> {
        let mut out = Vec::new();
        self.base_cells_into(level, row, col, &mut out);
        out
    }

    /// Writes the base cells covered by `(level, row, col)` into `out`
    /// (cleared first) — the allocation-free form of
    /// [`AggregatePyramid::base_cells`].
    pub fn base_cells_into(&self, level: usize, row: usize, col: usize, out: &mut Vec<CellCoord>) {
        out.clear();
        let scale = 1usize << level;
        let (rows, cols) = self.base_shape();
        for rr in row * scale..((row + 1) * scale).min(rows) {
            for cc in col * scale..((col + 1) * scale).min(cols) {
                out.push(CellCoord::new(rr, cc));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::grid::CHUNK_ROWS;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn root_covers_everything() {
        let g = Grid2::from_fn(10, 14, |r, c| (r * 14 + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        let root = pyr.root();
        assert_eq!(root.min, 0.0);
        assert_eq!(root.max, 139.0);
        assert_eq!(root.count, 140);
        assert!((root.mean - g.mean()).abs() < 1e-9);
    }

    #[test]
    fn level0_is_base() {
        let g = Grid2::from_fn(3, 3, |r, c| (r + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        let s = pyr.cell(0, 2, 1).unwrap();
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn children_partition_parent() {
        let g = Grid2::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        for level in 1..pyr.levels() {
            let (rows, cols) = pyr.level_shape(level);
            for r in 0..rows {
                for c in 0..cols {
                    let parent = pyr.cell(level, r, c).unwrap();
                    let kids = pyr.children(level, r, c);
                    assert!(!kids.is_empty());
                    let merged = kids
                        .iter()
                        .map(|k| pyr.cell(level - 1, k.row, k.col).unwrap())
                        .reduce(|a, b| a.merge(&b))
                        .unwrap();
                    assert_eq!(parent.count, merged.count);
                    assert_eq!(parent.min, merged.min);
                    assert_eq!(parent.max, merged.max);
                    assert!((parent.mean - merged.mean).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn base_cells_match_count() {
        let g = Grid2::from_fn(7, 9, |r, c| (r * c) as f64);
        let pyr = AggregatePyramid::build(&g);
        for level in 0..pyr.levels() {
            let (rows, cols) = pyr.level_shape(level);
            for r in 0..rows {
                for c in 0..cols {
                    let s = pyr.cell(level, r, c).unwrap();
                    let cells = pyr.base_cells(level, r, c);
                    assert_eq!(s.count as usize, cells.len(), "level {level} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_errors() {
        let pyr = AggregatePyramid::build(&Grid2::filled(4, 4, 1.0));
        assert!(pyr.cell(0, 4, 0).is_err());
        assert!(pyr.cell(99, 0, 0).is_err());
    }

    #[test]
    fn into_variants_agree_with_allocating_forms() {
        // Odd shape exercises clamped 2x2 blocks and ragged base coverage;
        // the reused buffer must also be fully cleared between calls.
        let pyr = AggregatePyramid::build(&Grid2::from_fn(7, 5, |r, c| (r * 5 + c) as f64));
        let mut buf = vec![CellCoord::new(999, 999); 3];
        for level in 0..pyr.levels() {
            let (lr, lc) = pyr.level_shape(level);
            for r in 0..lr {
                for c in 0..lc {
                    pyr.children_into(level, r, c, &mut buf);
                    assert_eq!(buf, pyr.children(level, r, c), "children {level} ({r},{c})");
                    pyr.base_cells_into(level, r, c, &mut buf);
                    assert_eq!(buf, pyr.base_cells(level, r, c), "base {level} ({r},{c})");
                }
            }
        }
        // Beyond-top levels yield no children in either form.
        pyr.children_into(99, 0, 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(pyr.children(99, 0, 0), Vec::<CellCoord>::new());
    }

    fn stats_eq(a: &AggregatePyramid, b: &AggregatePyramid) -> bool {
        if a.levels() != b.levels() {
            return false;
        }
        for l in 0..a.levels() {
            let (r, c) = a.level_shape(l);
            if b.level_shape(l) != (r, c) {
                return false;
            }
            for rr in 0..r {
                for cc in 0..c {
                    let x = a.cell(l, rr, cc).unwrap();
                    let y = b.cell(l, rr, cc).unwrap();
                    // Bit-identity, not approximate equality.
                    if x.min.to_bits() != y.min.to_bits()
                        || x.max.to_bits() != y.max.to_bits()
                        || x.mean.to_bits() != y.mean.to_bits()
                        || x.count != y.count
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn extend_rows_matches_full_rebuild_bit_for_bit() {
        let cell = |r: usize, c: usize| ((r * 131 + c * 17) % 97) as f64 * 0.375 - 11.0;
        for (base_rows, band_rows, cols) in [(4, 2, 6), (5, 3, 7), (1, 1, 1), (8, 8, 3), (2, 6, 16)]
        {
            let base = Grid2::from_fn(base_rows, cols, cell);
            let band = Grid2::from_fn(band_rows, cols, |r, c| cell(base_rows + r, c));
            let full = AggregatePyramid::build(&Grid2::from_fn(base_rows + band_rows, cols, cell));
            let mut incr = AggregatePyramid::build(&base);
            incr.extend_rows(&band).unwrap();
            assert!(
                stats_eq(&incr, &full),
                "({base_rows}+{band_rows})x{cols} diverged from rebuild"
            );
        }
    }

    #[test]
    fn extend_rows_validates_band() {
        let mut pyr = AggregatePyramid::build(&Grid2::filled(4, 4, 1.0));
        assert!(pyr.extend_rows(&Grid2::filled(2, 3, 1.0)).is_err());
        assert_eq!(pyr.base_shape(), (4, 4), "failed extend left it intact");
    }

    proptest! {
        #[test]
        fn prop_extend_rows_is_rebuild(
            base_rows in 1usize..24,
            band_rows in 1usize..12,
            cols in 1usize..24,
            seed in 0u64..500,
        ) {
            let cell = |r: usize, c: usize| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 53 + c) as u64);
                (h % 1000) as f64 - 500.0
            };
            let base = Grid2::from_fn(base_rows, cols, cell);
            let band = Grid2::from_fn(band_rows, cols, |r, c| cell(base_rows + r, c));
            let full =
                AggregatePyramid::build(&Grid2::from_fn(base_rows + band_rows, cols, cell));
            let mut incr = AggregatePyramid::build(&base);
            incr.extend_rows(&band).unwrap();
            prop_assert!(stats_eq(&incr, &full));
        }
    }

    #[test]
    fn extend_rows_shares_every_chunk_before_the_dirty_row() {
        let cell = |r: usize, c: usize| ((r * 31 + c * 7) % 53) as f64;
        let base_rows = 4 * CHUNK_ROWS + 3;
        let parent = AggregatePyramid::build(&Grid2::from_fn(base_rows, 40, cell));
        let mut child = parent.clone();
        child
            .extend_rows(&Grid2::from_fn(CHUNK_ROWS, 40, |r, c| {
                cell(base_rows + r, c)
            }))
            .unwrap();
        let mut dirty = base_rows;
        for level in 0..parent.levels() {
            let (old, new) = (parent.level(level).chunks(), child.level(level).chunks());
            for (i, chunk) in new.iter().enumerate() {
                let shared = old.get(i).is_some_and(|o| Arc::ptr_eq(o, chunk));
                assert_eq!(shared, i < dirty / CHUNK_ROWS, "level {level} chunk {i}");
            }
            dirty /= 2;
        }
    }

    /// Rows `from..to` of the grid `cell` defines.
    fn band_of(
        cell: impl Fn(usize, usize) -> f64,
        from: usize,
        to: usize,
        cols: usize,
    ) -> Grid2<f64> {
        Grid2::from_fn(to - from, cols, |r, c| cell(from + r, c))
    }

    proptest! {
        #[test]
        fn prop_chained_extends_are_rebuild(
            base_rows in 1usize..3 * CHUNK_ROWS + 1,
            heights in proptest::collection::vec(1usize..2 * CHUNK_ROWS + 8, 1..6),
            cols in proptest::sample::select(vec![1usize, 3, 5, 9, 13, 21]),
            seed in 0u64..500,
        ) {
            let cell = |r: usize, c: usize| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 53 + c) as u64);
                (h % 1000) as f64 * 0.125 - 60.0
            };
            let mut rows = base_rows;
            let mut incr = AggregatePyramid::build(&band_of(cell, 0, rows, cols));
            for height in heights {
                let before = incr.clone();
                incr.extend_rows(&band_of(cell, rows, rows + height, cols)).unwrap();
                // The parent is untouched by its child's extension.
                prop_assert!(stats_eq(&before, &AggregatePyramid::build(&band_of(cell, 0, rows, cols))));
                rows += height;
                prop_assert!(stats_eq(&incr, &AggregatePyramid::build(&band_of(cell, 0, rows, cols))));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bounds_are_sound(
            rows in 1usize..20,
            cols in 1usize..20,
            seed in 0u64..1000,
        ) {
            // Pseudo-random but deterministic grid from the seed.
            let g = Grid2::from_fn(rows, cols, |r, c| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 31 + c) as u64);
                (h % 1000) as f64 - 500.0
            });
            let pyr = AggregatePyramid::build(&g);
            for level in 0..pyr.levels() {
                let (lr, lc) = pyr.level_shape(level);
                for r in 0..lr {
                    for c in 0..lc {
                        let s = pyr.cell(level, r, c).unwrap();
                        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
                        for cell in pyr.base_cells(level, r, c) {
                            let v = *g.at(cell.row, cell.col);
                            prop_assert!(v >= s.min && v <= s.max);
                        }
                    }
                }
            }
        }
    }
}
