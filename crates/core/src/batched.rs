//! Batched multi-query execution: one shared pyramid descent serving Q
//! queries at once.
//!
//! [`batched_top_k`] accepts a batch of linear models over one pyramid
//! index and runs a *single* best-first traversal: one solo-sized frontier
//! per query, with a `Selector` advancing whichever query holds the
//! globally best upper bound (a keyed branchless argmax up to 64 queries,
//! a heap above). While the governed memo tables are live this global
//! order is also the cache-friendly order — queries interested in the
//! same region pop it back to back; once the governor proves the batch
//! has no cross-query reuse left, scheduling degrades to query-major
//! serial drains with the solo engine's loop shape (DESIGN.md §15).
//! Each query's logical descent — the sequence of regions it expands, the
//! cells it evaluates, the floor it prunes with — is *exactly* the
//! sequential [`resilient_top_k`](crate::resilient::resilient_top_k)
//! descent for that query alone; what the batch shares is the physical
//! work underneath:
//!
//! * **Base cells are fetched once.** A level-0 cell reached by several
//!   queries hits the page source exactly once; the materialized
//!   attribute vector (or the lost-page verdict) is memoized and replayed
//!   for every later query. A cell is fetched iff it survives at least
//!   one query's K-th floor — the per-query floor vector is what decides.
//! * **Region range boxes are fetched once.** The per-attribute range box
//!   of a region is read from the pyramids once; each query's upper bound
//!   over that box is computed lazily on first request (same left-to-right
//!   term order as the solo bound) and replayed from its slot afterwards.
//!   Lazy slots keep zero-overlap batches at solo cost — a query never
//!   pays for another query's bound.
//!
//! The shared-frontier invariant (DESIGN.md §15): the shared descent may
//! only *add* physical cell visits relative to any single query, never
//! skip one that query needed — each query's offers are gated by its own
//! floor against its own bound, so per-query answers, completeness,
//! skipped pages, and even effort reports stay bit-identical to the solo
//! run. The budget, by contrast, is *batch-wide*: one checkpoint stream
//! over the summed multiply-adds and the shared source clocks, so a
//! binding budget stops the whole batch at one point (each still-open
//! query surrenders its remaining frontier as leftover, exactly like a
//! solo stop; already-closed queries keep their finished answers and a
//! `None` stop).
//!
//! Fault semantics match the resilient engine per query, with one caveat
//! inherited from memoization: a page whose fault behavior is *stateful*
//! across read attempts (e.g. a transient fault budget larger than the
//! retry policy) can present differently to a batch (one physical read)
//! than to Q solo runs (Q physical reads). With deterministic faults —
//! permanent, corrupt, quarantined, or transients healed within one
//! logical read — batched and solo verdicts coincide.

use crate::coarse::CoarseGrid;
use crate::engine::{
    read_base_vector_into, region_bound_into, validate_grid_inputs, EffortReport, Region,
};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::resilient::{checkpoint_stop, region_candidate, BudgetStop, ExecutionBudget};
use crate::resilient::{ResilientHit, ResilientTopK, ScoreBounds, WallDeadline};
use crate::source::CellSource;
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the memo tables, whose keys are already
/// well-packed `u64`s ([`region_key`] / [`cell_key`]): one Fibonacci
/// multiply plus an xor-shift replaces SipHash on the descent's hottest
/// path. Not DoS-resistant — keys come from the pyramid geometry, never
/// from untrusted input.
#[derive(Debug, Default)]
pub(crate) struct FastU64Hasher(u64);

impl Hasher for FastU64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// `u64`-keyed memo map on the fast hasher.
pub(crate) type MemoMap<V> = HashMap<u64, V, BuildHasherDefault<FastU64Hasher>>;

/// One `(query, region)` frontier entry of the shared batched descent.
///
/// The order is the per-query [`Region`] order — upper bound first, then
/// smaller (level, row, col) pops first — with the query index as the
/// final cross-query tiebreak, so restricted to any one query the pop
/// sequence is exactly the solo frontier's, and the interleaving of
/// queries is deterministic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchEntry {
    pub(crate) ub: f64,
    pub(crate) level: u32,
    pub(crate) row: u32,
    pub(crate) col: u32,
    pub(crate) q: u32,
}

impl PartialEq for BatchEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for BatchEntry {}
impl PartialOrd for BatchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BatchEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| other.level.cmp(&self.level))
            .then_with(|| other.row.cmp(&self.row))
            .then_with(|| other.col.cmp(&self.col))
            .then_with(|| other.q.cmp(&self.q))
    }
}

impl BatchEntry {
    pub(crate) fn region(&self) -> Region {
        Region {
            ub: self.ub,
            level: self.level as usize,
            row: self.row as usize,
            col: self.col as usize,
        }
    }
}

/// Memoized verdict of one base-cell read, shared across the batch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellSlot {
    /// Attribute vector lives at this offset of the cell arena.
    Loaded(usize),
    /// The read failed on this page (lost-page semantics).
    Lost(usize),
}

pub(crate) fn region_key(level: usize, row: usize, col: usize) -> u64 {
    debug_assert!(row < (1 << 26) && col < (1 << 26) && level < (1 << 12));
    ((level as u64) << 52) | ((row as u64) << 26) | col as u64
}

pub(crate) fn cell_key(row: u32, col: u32) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// Probe window of the cell-read memo's [`MemoGovernor`].
pub(crate) const CELL_MEMO_WINDOW: u32 = 64;

/// Probe window of the bound memo's [`MemoGovernor`].
pub(crate) const BOUND_MEMO_WINDOW: u32 = 64;

/// Lifecycle of a governed memo layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoPhase {
    /// Measuring sharing with presence-only probes before paying for
    /// full memoization (bound memo's opening window).
    Sampling,
    /// Full memoization; hit rate still watched, may retire to `Off`.
    On,
    /// Retired for this batch: the engine takes the solo direct path.
    Off,
}

/// Hit-rate governor for a memo layer.
///
/// Memoization is pure dedup — it never changes a query's answer, only
/// who pays for a fetch — so it is worth its hash probes exactly when the
/// batch actually shares work. The governor watches the layer's hit rate
/// over fixed windows of probes and retires the layer for the rest of the
/// batch once a full window hits on fewer than half its probes: from then
/// on the engine takes the solo-style direct path, so an adversarial
/// zero-overlap batch degrades to Q independent descents instead of Q
/// descents each dragging a cold hash table. Windows reset at each
/// boundary, so the always-shared pyramid apex cannot mask a disjoint
/// bulk. A layer whose store cost is heavy (the bound memo's box + slot
/// vectors) starts in [`MemoPhase::Sampling`] and pays only key-presence
/// probes until its first window proves the sharing is real.
#[derive(Debug)]
pub(crate) struct MemoGovernor {
    window: u32,
    probes: u32,
    hits: u32,
    phase: MemoPhase,
    opening: MemoPhase,
}

impl MemoGovernor {
    /// Full memoization from the first probe (cell memo).
    pub(crate) fn new(window: u32) -> Self {
        MemoGovernor {
            window,
            probes: 0,
            hits: 0,
            phase: MemoPhase::On,
            opening: MemoPhase::On,
        }
    }

    /// Presence-only sampling until the first window passes (bound memo).
    pub(crate) fn sampling(window: u32) -> Self {
        MemoGovernor {
            window,
            probes: 0,
            hits: 0,
            phase: MemoPhase::Sampling,
            opening: MemoPhase::Sampling,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.probes = 0;
        self.hits = 0;
        self.phase = self.opening;
    }

    pub(crate) fn phase(&self) -> MemoPhase {
        self.phase
    }

    /// Whether the memo layer should still be probed (cell-memo view of
    /// the two-state lifecycle).
    pub(crate) fn live(&self) -> bool {
        self.phase != MemoPhase::Off
    }

    /// Record a probe outcome; at each window boundary, promote to full
    /// memoization when at least half of the window's probes hit, retire
    /// the layer otherwise.
    pub(crate) fn record(&mut self, hit: bool) {
        self.probes += 1;
        self.hits += u32::from(hit);
        if self.probes == self.window {
            self.phase = if self.hits * 2 < self.window {
                MemoPhase::Off
            } else {
                MemoPhase::On
            };
            self.probes = 0;
            self.hits = 0;
        }
    }
}

/// Batch width above which [`Selector`] replaces the linear top scan
/// with a mirror heap: the scan costs `O(Q)` per pop but touches only
/// each frontier's root and needs zero re-arm bookkeeping, the heap
/// costs `O(log Q)` plus one push per processed pop.
pub(crate) const SELECTOR_SCAN_MAX: usize = 64;

/// Interleaving policy over the per-query frontiers: pick, at every
/// step, the globally best `(ub, level, row, col, q)` tuple among the
/// live frontier tops — exactly the order one shared heap over all
/// `(query, region)` entries would pop, because the max over per-query
/// maxima *is* the global max. Keeping the frontiers separate is what
/// lets a closed query's remainder be abandoned in O(1) instead of
/// draining through a shared heap entry by entry.
///
/// A query participates while its top is *armed*: [`Selector::next`]
/// disarms the query it pops, and the engine re-arms it after pushing
/// children (or finding its frontier empty). A query that closes — floor
/// at or above its best bound, or a batch stop — is simply never
/// re-armed.
#[derive(Debug)]
pub(crate) enum Selector {
    /// Contiguous mirror of each armed query's frontier top plus a
    /// validity bitmask (batch width ≤ 64). `keys[q]` is the top's upper
    /// bound mapped through the IEEE total-order bijection (clamped away
    /// from the 0 = disarmed sentinel), so `next` is a branch-predictable
    /// integer argmax over one dense array; the full `(ub, level, row,
    /// col, q)` comparator runs only on the rare exact key tie.
    Scan {
        tops: Vec<Region>,
        keys: Vec<u64>,
        mask: u64,
        /// Cache-aware degraded mode: once the bound memo retires (proven
        /// zero cross-query region reuse), interleaving by global bound
        /// order has nothing left to amortize, so the selector runs each
        /// armed query to completion in ascending-q order instead —
        /// restoring solo cache locality. One-way latch; per-query pop
        /// order (and thus every per-query result) is unchanged.
        serial: bool,
    },
    /// One [`BatchEntry`] per armed query. `O(log Q)` per pop for very
    /// wide batches.
    Heap(BinaryHeap<BatchEntry>),
}

/// The IEEE-754 total-order bijection `f64` → `u64`: `ub_key(a) >
/// ub_key(b)` ⇔ `a.total_cmp(&b).is_gt()`. Clamped to ≥ 1 so 0 can mean
/// "disarmed"; the clamp only merges the two bottommost bit patterns
/// (negative quiet-NaN payloads), which the tie path re-orders exactly.
#[inline]
fn ub_key(x: f64) -> u64 {
    let b = x.to_bits();
    (b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)).max(1)
}

impl Selector {
    pub(crate) fn for_width(m: usize) -> Self {
        if m <= SELECTOR_SCAN_MAX {
            Selector::Scan {
                tops: vec![
                    Region {
                        ub: 0.0,
                        level: 0,
                        row: 0,
                        col: 0,
                    };
                    m
                ],
                keys: vec![0; m],
                mask: 0,
                serial: false,
            }
        } else {
            Selector::Heap(BinaryHeap::with_capacity(m))
        }
    }

    /// (Re-)arm query `q` with its current frontier top, if any.
    #[inline]
    pub(crate) fn arm(&mut self, q: usize, frontiers: &[BinaryHeap<Region>]) {
        match self {
            Selector::Scan {
                tops,
                keys,
                mask,
                serial,
            } => {
                if *serial {
                    // Query-major mode reads only the armed mask; skip the
                    // top mirror and key map.
                    if frontiers[q].is_empty() {
                        *mask &= !(1 << q);
                    } else {
                        *mask |= 1 << q;
                    }
                    return;
                }
                match frontiers[q].peek() {
                    Some(r) => {
                        tops[q] = *r;
                        keys[q] = ub_key(r.ub);
                        *mask |= 1 << q;
                    }
                    None => {
                        keys[q] = 0;
                        *mask &= !(1 << q);
                    }
                }
            }
            Selector::Heap(h) => {
                if let Some(r) = frontiers[q].peek() {
                    h.push(BatchEntry {
                        ub: r.ub,
                        level: r.level as u32,
                        row: r.row as u32,
                        col: r.col as u32,
                        q: q as u32,
                    });
                }
            }
        }
    }

    /// Full-comparator argmax over the armed tops: the tie path of the
    /// scan selector, and the reference order (`BatchEntry`'s) it keeps.
    #[cold]
    fn scan_tie_break(tops: &[Region], mask: u64) -> usize {
        let mut rest = mask;
        let mut best = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        // Ascending-q scan with a strict "pops before" test keeps the
        // smallest q on full ties — BatchEntry's tie-break.
        while rest != 0 {
            let q = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (r, b) = (&tops[q], &tops[best]);
            if r.ub
                .total_cmp(&b.ub)
                .then_with(|| b.level.cmp(&r.level))
                .then_with(|| b.row.cmp(&r.row))
                .then_with(|| b.col.cmp(&r.col))
                .is_gt()
            {
                best = q;
            }
        }
        best
    }

    /// Switch the scan selector to serial (query-major) scheduling; a
    /// no-op for the heap selector and after the first call. Engines call
    /// this when the bound memo retires: with no cross-query reuse to
    /// amortize, query-major order trades nothing away and keeps each
    /// query's working set hot.
    #[inline]
    pub(crate) fn go_serial(&mut self) {
        if let Selector::Scan { serial, .. } = self {
            *serial = true;
        }
    }

    /// Pop the next `(query, region)` — in global shared-heap order, or
    /// query-major order once [`go_serial`](Selector::go_serial) latched —
    /// disarming that query, or `None` when no query is armed.
    #[inline]
    pub(crate) fn next(&mut self, frontiers: &mut [BinaryHeap<Region>]) -> Option<(usize, Region)> {
        match self {
            Selector::Scan {
                tops,
                keys,
                mask,
                serial,
            } => {
                if *serial {
                    if *mask == 0 {
                        return None;
                    }
                    let q = mask.trailing_zeros() as usize;
                    *mask &= !(1 << q);
                    keys[q] = 0;
                    return Some((q, frontiers[q].pop().expect("armed top mirrored")));
                }
                // Branchless integer argmax; disarmed slots hold key 0 and
                // an ascending scan with a strict test keeps the smallest
                // q among equals, so a surviving tie means two armed tops
                // share the exact ub bits — settle those with the full
                // comparator.
                let mut best = 0usize;
                let mut best_key = keys[0];
                let mut tie = false;
                for (q, &k) in keys.iter().enumerate().skip(1) {
                    let gt = k > best_key;
                    tie = (tie && !gt) || k == best_key;
                    best = if gt { q } else { best };
                    best_key = if gt { k } else { best_key };
                }
                if best_key == 0 {
                    return None;
                }
                if tie {
                    best = Self::scan_tie_break(tops, *mask);
                }
                *mask &= !(1 << best);
                keys[best] = 0;
                Some((best, frontiers[best].pop().expect("armed top mirrored")))
            }
            Selector::Heap(h) => {
                let t = h.pop()?;
                let q = t.q as usize;
                Some((
                    q,
                    frontiers[q].pop().expect("selector mirrors frontier tops"),
                ))
            }
        }
    }
}

/// Reusable buffers for the batched engine: the shared frontier, the
/// cell/bound memo tables and their flat arenas, and the per-call child,
/// attribute, and range boxes. A warmed scratch allocates nothing in the
/// steady state; [`regrowths`](BatchScratch::regrowths) counts growth
/// events so tests can assert it.
#[derive(Debug, Default)]
pub struct BatchScratch {
    frontiers: Vec<BinaryHeap<Region>>,
    pub(crate) children: Vec<CellCoord>,
    pub(crate) x: Vec<f64>,
    cell_memo: MemoMap<CellSlot>,
    bound_memo: BoundMemo,
    cell_arena: Vec<f64>,
    /// Range-box buffer for the retired-memo direct bound path.
    ranges: Vec<(f64, f64)>,
    coarse_bufs: Vec<(Vec<f64>, Vec<f64>)>,
    regrowths: u64,
}

impl BatchScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Cumulative number of internal-buffer growth events since creation.
    /// Stable across two identical consecutive batches ⇔ the second batch
    /// allocated nothing.
    pub fn regrowths(&self) -> u64 {
        self.regrowths
    }

    fn caps(&self) -> [usize; 10] {
        let [bm, bb, bs, bx] = self.bound_memo.caps();
        [
            self.frontiers.iter().map(BinaryHeap::capacity).sum(),
            self.children.capacity(),
            self.x.capacity(),
            self.cell_memo.capacity(),
            self.cell_arena.capacity(),
            self.ranges.capacity(),
            bm,
            bb,
            bs,
            bx,
        ]
    }

    fn note_regrowth(&mut self, before: &[usize; 10]) {
        let after = self.caps();
        self.regrowths += after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| u64::from(a > b))
            .sum::<u64>();
    }
}

/// Result of one batched run: per-query answers plus the physical-work
/// accounting that shows what the batch amortized.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedTopK {
    /// Per-query results, in batch order — each bit-identical to the
    /// query's solo [`resilient_top_k`](crate::resilient::resilient_top_k)
    /// run (deterministic faults, non-binding budget).
    pub queries: Vec<ResilientTopK>,
    /// Physical pages read by the whole batch (source delta).
    pub pages_read: u64,
    /// Distinct level-0 cells materialized through the source.
    pub cells_fetched: u64,
    /// Logical per-query cell reads served (≥ `cells_fetched`; the ratio
    /// is the read amortization factor).
    pub cell_requests: u64,
    /// Physical region range-box fetches (one per distinct region while
    /// the bound memo is on; one per request while it samples or is off).
    pub bound_evals: u64,
    /// Logical per-query bound requests served (≥ `bound_evals`).
    pub bound_requests: u64,
}

/// Memoized region range boxes with lazily computed per-query bounds.
///
/// The per-attribute range box of a region is fetched from the pyramids
/// exactly once per batch; each query's upper bound over that box is
/// computed on first request — with the same `bound_over_box` term order
/// as the solo engine, so slot `q` is bit-identical to the solo
/// `region_bound_into` result for query `q` — and replayed from its slot
/// on every later request. An unevaluated slot is a `NaN` sentinel (a
/// genuinely-`NaN` bound is simply recomputed, never served stale).
///
/// A [`MemoGovernor`] retires the table when the batch exhibits no
/// cross-query region sharing; the direct path then assembles the range
/// box in a reused scratch and bounds it immediately — the same fetch
/// and `bound_over_box` term order, so the value is unchanged either way.
#[derive(Debug)]
pub(crate) struct BoundMemo {
    map: MemoMap<usize>,
    /// Region range boxes, `arity` `(min, max)` pairs per ordinal.
    boxes: Vec<(f64, f64)>,
    /// Per-query bound slots, `m` per ordinal, `NaN` until first request.
    bounds: Vec<f64>,
    /// Range-box buffer for the governed-off direct path.
    scratch: Vec<(f64, f64)>,
    gov: MemoGovernor,
}

impl Default for BoundMemo {
    fn default() -> Self {
        BoundMemo {
            map: MemoMap::default(),
            boxes: Vec::new(),
            bounds: Vec::new(),
            scratch: Vec::new(),
            gov: MemoGovernor::sampling(BOUND_MEMO_WINDOW),
        }
    }
}

impl BoundMemo {
    pub(crate) fn new() -> Self {
        BoundMemo::default()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.boxes.clear();
        self.bounds.clear();
        self.gov.reset();
    }

    pub(crate) fn caps(&self) -> [usize; 4] {
        [
            self.map.capacity(),
            self.boxes.capacity(),
            self.bounds.capacity(),
            self.scratch.capacity(),
        ]
    }

    /// Whether the governor has retired the table. Callers fast-path a
    /// retired memo through the solo `region_bound_into` at the call
    /// site, so the hot no-sharing loop inlines exactly the solo bound
    /// code; [`bound`](BoundMemo::bound) keeps an equivalent off arm as
    /// the non-inlined fallback.
    #[inline]
    pub(crate) fn is_off(&self) -> bool {
        self.gov.phase() == MemoPhase::Off
    }

    /// The upper bound of `models[q]` over the region's range box.
    /// `bound_evals` counts physical range-box fetches (one per distinct
    /// region while memoized; one per request while sampling or off).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bound(
        &mut self,
        models: &[LinearModel],
        pyramids: &[AggregatePyramid],
        level: usize,
        row: usize,
        col: usize,
        q: usize,
        bound_evals: &mut u64,
    ) -> Result<f64, CoreError> {
        let m = models.len();
        let arity = pyramids.len();
        match self.gov.phase() {
            MemoPhase::Off => {
                self.scratch.clear();
                for p in pyramids {
                    let s = p.cell(level, row, col)?;
                    self.scratch.push((s.min, s.max));
                }
                *bound_evals += 1;
                let (_, hi) = models[q].bound_over_box(&self.scratch)?;
                Ok(hi)
            }
            MemoPhase::Sampling => {
                // Presence-only probe: count sharing without paying the
                // box/slot store, and compute the bound directly.
                let key = region_key(level, row, col);
                match self.map.entry(key) {
                    Entry::Occupied(_) => self.gov.record(true),
                    Entry::Vacant(v) => {
                        v.insert(usize::MAX);
                        self.gov.record(false);
                    }
                }
                self.scratch.clear();
                for p in pyramids {
                    let s = p.cell(level, row, col)?;
                    self.scratch.push((s.min, s.max));
                }
                *bound_evals += 1;
                let (_, hi) = models[q].bound_over_box(&self.scratch)?;
                Ok(hi)
            }
            MemoPhase::On => {
                let key = region_key(level, row, col);
                let ord = match self.map.entry(key) {
                    Entry::Occupied(mut o) => {
                        let stored = *o.get();
                        if stored == usize::MAX {
                            // Seen during sampling but never stored:
                            // upgrade to a real ordinal now.
                            self.gov.record(true);
                            let ord = self.boxes.len() / arity;
                            for p in pyramids {
                                let s = p.cell(level, row, col)?;
                                self.boxes.push((s.min, s.max));
                            }
                            self.bounds.resize(self.bounds.len() + m, f64::NAN);
                            *bound_evals += 1;
                            o.insert(ord);
                            ord
                        } else {
                            self.gov.record(true);
                            stored
                        }
                    }
                    Entry::Vacant(v) => {
                        self.gov.record(false);
                        let ord = self.boxes.len() / arity;
                        for p in pyramids {
                            let s = p.cell(level, row, col)?;
                            self.boxes.push((s.min, s.max));
                        }
                        self.bounds.resize(self.bounds.len() + m, f64::NAN);
                        *bound_evals += 1;
                        v.insert(ord);
                        ord
                    }
                };
                let slot = ord * m + q;
                let cached = self.bounds[slot];
                if !cached.is_nan() {
                    return Ok(cached);
                }
                let (_, hi) =
                    models[q].bound_over_box(&self.boxes[ord * arity..(ord + 1) * arity])?;
                self.bounds[slot] = hi;
                Ok(hi)
            }
        }
    }
}

/// Batched top-K: one shared descent answering every model in `models`
/// against the same pyramids and page source. See the module docs for the
/// sharing/identity contract; `budget` is batch-wide.
///
/// # Errors
///
/// Same validation as
/// [`resilient_top_k`](crate::resilient::resilient_top_k) (applied to the
/// first model), plus [`CoreError::Query`] when the models disagree on
/// arity. Non-page archive errors abort the whole batch, exactly as they
/// abort a solo run.
pub fn batched_top_k<S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
) -> Result<BatchedTopK, CoreError> {
    with_pooled_scratch(|scratch| {
        batched_top_k_inner(models, pyramids, k, source, budget, None, None, scratch)
    })
}

thread_local! {
    /// Per-thread [`BatchScratch`] behind the convenience wrappers, so
    /// repeated calls on one thread warm the same buffers instead of
    /// reallocating the frontier, memo tables, and arenas every batch.
    /// [`batched_top_k_with_scratch`] bypasses the pool entirely.
    static POOLED_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::new());
}

/// Run `f` with this thread's pooled scratch, or a fresh one if the pool
/// is unavailable (a source callback re-entering the engine).
fn with_pooled_scratch<T>(f: impl FnOnce(&mut BatchScratch) -> T) -> T {
    POOLED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BatchScratch::new()),
    })
}

/// [`batched_top_k`] polling a [`CancelToken`] at every checkpoint.
/// Cancellation stops the whole batch; every still-open query degrades
/// with sound bounds, exactly like a solo cancellation.
///
/// # Errors
///
/// Same as [`batched_top_k`].
pub fn batched_top_k_cancellable<S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: &CancelToken,
) -> Result<BatchedTopK, CoreError> {
    with_pooled_scratch(|scratch| {
        batched_top_k_inner(
            models,
            pyramids,
            k,
            source,
            budget,
            Some(cancel),
            None,
            scratch,
        )
    })
}

/// [`batched_top_k`] consulting a quantized [`CoarseGrid`] before each
/// exact child bound, per query against that query's own floor — the same
/// prune-only contract as
/// [`resilient_top_k_coarse`](crate::resilient::resilient_top_k_coarse),
/// so per-query results stay bit-identical.
///
/// # Errors
///
/// Same as [`batched_top_k`], plus [`CoreError::Query`] when the coarse
/// grid's arity does not match the models.
pub fn batched_top_k_coarse<S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    coarse: &CoarseGrid,
) -> Result<BatchedTopK, CoreError> {
    with_pooled_scratch(|scratch| {
        batched_top_k_inner(
            models,
            pyramids,
            k,
            source,
            budget,
            None,
            Some(coarse),
            scratch,
        )
    })
}

/// [`batched_top_k`] with every internal buffer reused from `scratch` —
/// the allocation-free form for sessions issuing many batches. Results
/// are bit-identical to [`batched_top_k`].
///
/// # Errors
///
/// Same as [`batched_top_k`].
pub fn batched_top_k_with_scratch<S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    scratch: &mut BatchScratch,
) -> Result<BatchedTopK, CoreError> {
    batched_top_k_inner(models, pyramids, k, source, budget, None, None, scratch)
}

/// How a [`serial_drain_query`] run ended.
enum SerialEnd {
    /// The query finished on its own: bound proof closed or frontier
    /// exhausted. Its remaining frontier (if any) is provably excluded.
    Finished,
    /// A batch-wide budget stop fired mid-drain; the in-flight region is
    /// returned so the caller can surrender it as leftover.
    Stopped(Region, BudgetStop),
}

/// Run one query to completion with the solo engine's loop shape: all
/// per-query state hoisted into locals, bounds computed directly (the
/// bound memo is retired when this runs), cells still offered to the
/// governed cell memo. This is the batch's cache-aware degraded mode —
/// once the governor proves zero cross-query region reuse, query-major
/// execution restores solo locality and sheds the selector round-trip,
/// while each query's own pop order (and thus every per-query result)
/// stays exactly the solo order.
#[allow(clippy::too_many_arguments)]
fn serial_drain_query<S: CellSource>(
    q: usize,
    first: Region,
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    source: &S,
    budget: &ExecutionBudget,
    cancel: Option<&CancelToken>,
    deadline: &WallDeadline,
    pages_at_entry: u64,
    ticks_at_entry: u64,
    coarse: Option<&CoarseGrid>,
    coarse_bufs: &[(Vec<f64>, Vec<f64>)],
    cols: usize,
    frontiers: &mut [BinaryHeap<Region>],
    heaps: &mut [TopKHeap],
    floors: &mut [Option<f64>],
    lost: &mut [Vec<(Region, usize)>],
    efforts: &mut [EffortReport],
    total_ma: &mut u64,
    children: &mut Vec<CellCoord>,
    x: &mut Vec<f64>,
    ranges: &mut Vec<(f64, f64)>,
    cell_memo: &mut MemoMap<CellSlot>,
    cell_gov: &mut MemoGovernor,
    cell_arena: &mut Vec<f64>,
    cells_fetched: &mut u64,
    cell_requests: &mut u64,
    bound_evals: &mut u64,
    bound_requests: &mut u64,
) -> Result<SerialEnd, CoreError> {
    let arity = pyramids.len();
    let n = arity as u64;
    let model = &models[q];
    let frontier = &mut frontiers[q];
    let heap = &mut heaps[q];
    let effort = &mut efforts[q];
    let lost_q = &mut lost[q];
    let mut floor = floors[q];
    let mut e = first;
    let end = loop {
        if floor.is_some_and(|f| f >= e.ub) {
            break SerialEnd::Finished;
        }
        if let Some(stop) = checkpoint_stop(
            cancel,
            deadline,
            budget,
            *total_ma,
            source.pages_read().saturating_sub(pages_at_entry),
            source.ticks_elapsed().saturating_sub(ticks_at_entry),
        ) {
            break SerialEnd::Stopped(e, stop);
        }
        if e.level == 0 {
            *cell_requests += 1;
            if cell_gov.live() {
                let ck = cell_key(e.row as u32, e.col as u32);
                let slot = match cell_memo.get(&ck) {
                    Some(s) => {
                        cell_gov.record(true);
                        *s
                    }
                    None => {
                        cell_gov.record(false);
                        let s = match read_base_vector_into(source, arity, e.row, e.col, x) {
                            Ok(()) => {
                                *cells_fetched += 1;
                                let off = cell_arena.len();
                                cell_arena.extend_from_slice(x);
                                CellSlot::Loaded(off)
                            }
                            Err(CoreError::Archive(
                                ArchiveError::PageIo { page }
                                | ArchiveError::PageQuarantined { page }
                                | ArchiveError::PageCorrupt { page },
                            )) => {
                                let page = source.page_of(e.row, e.col).unwrap_or(page);
                                CellSlot::Lost(page)
                            }
                            Err(err) => return Err(err),
                        };
                        cell_memo.insert(ck, s);
                        s
                    }
                };
                match slot {
                    CellSlot::Loaded(off) => {
                        effort.multiply_adds += n;
                        *total_ma += n;
                        heap.offer(ScoredItem {
                            index: e.row * cols + e.col,
                            score: model.evaluate(&cell_arena[off..off + arity]),
                        });
                        floor = heap.floor();
                    }
                    CellSlot::Lost(page) => lost_q.push((e, page)),
                }
            } else {
                match read_base_vector_into(source, arity, e.row, e.col, x) {
                    Ok(()) => {
                        *cells_fetched += 1;
                        effort.multiply_adds += n;
                        *total_ma += n;
                        heap.offer(ScoredItem {
                            index: e.row * cols + e.col,
                            score: model.evaluate(x),
                        });
                        floor = heap.floor();
                    }
                    Err(CoreError::Archive(
                        ArchiveError::PageIo { page }
                        | ArchiveError::PageQuarantined { page }
                        | ArchiveError::PageCorrupt { page },
                    )) => {
                        let page = source.page_of(e.row, e.col).unwrap_or(page);
                        lost_q.push((e, page));
                    }
                    Err(err) => return Err(err),
                }
            }
        } else {
            let level = e.level;
            pyramids[0].children_into(level, e.row, e.col, children);
            for &child in children.iter() {
                if let Some(cg) = coarse {
                    if let Some(f) = floor {
                        let (qc, qm) = &coarse_bufs[q];
                        if cg.cell_upper_bound(qc, qm, level - 1, child.row, child.col) < f {
                            continue;
                        }
                    }
                }
                *bound_requests += 1;
                *bound_evals += 1;
                *total_ma += n;
                let ub = region_bound_into(
                    model,
                    pyramids,
                    level - 1,
                    child.row,
                    child.col,
                    ranges,
                    effort,
                )?;
                frontier.push(Region {
                    ub,
                    level: level - 1,
                    row: child.row,
                    col: child.col,
                });
            }
        }
        match frontier.pop() {
            Some(next) => e = next,
            None => break SerialEnd::Finished,
        }
    };
    floors[q] = floor;
    Ok(end)
}

#[allow(clippy::too_many_arguments)]
fn batched_top_k_inner<S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: Option<&CancelToken>,
    coarse: Option<&CoarseGrid>,
    scratch: &mut BatchScratch,
) -> Result<BatchedTopK, CoreError> {
    let m = models.len();
    if m == 0 {
        return Ok(BatchedTopK {
            queries: Vec::new(),
            pages_read: 0,
            cells_fetched: 0,
            cell_requests: 0,
            bound_evals: 0,
            bound_requests: 0,
        });
    }
    let ((rows, cols), levels) = validate_grid_inputs(&models[0], pyramids, k)?;
    for model in &models[1..] {
        if model.arity() != models[0].arity() {
            return Err(CoreError::Query(
                "batched queries must share the model arity".into(),
            ));
        }
    }
    let arity = models[0].arity();
    let n = arity as u64;
    let total_cells = (rows * cols) as u64;
    let pages_at_entry = source.pages_read();
    let ticks_at_entry = source.ticks_elapsed();
    let deadline = WallDeadline::starting_now(budget);

    let caps = scratch.caps();
    let BatchScratch {
        frontiers,
        children,
        x,
        cell_memo,
        bound_memo,
        cell_arena,
        ranges,
        coarse_bufs,
        ..
    } = scratch;
    let mut selector = Selector::for_width(m);
    if frontiers.len() < m {
        frontiers.resize_with(m, BinaryHeap::new);
    }
    for f in frontiers.iter_mut() {
        f.clear();
    }
    cell_memo.clear();
    bound_memo.clear();
    cell_arena.clear();
    if let Some(cg) = coarse {
        coarse_bufs.resize_with(m, Default::default);
        for (q, model) in models.iter().enumerate() {
            let (qc, qm) = &mut coarse_bufs[q];
            cg.prepare_into(model, qc, qm)?;
        }
    }

    let mut efforts: Vec<EffortReport> = (0..m)
        .map(|_| EffortReport {
            multiply_adds: 0,
            naive_multiply_adds: n * total_cells,
        })
        .collect();
    let mut total_ma = 0u64;
    let mut heaps: Vec<TopKHeap> = (0..m).map(|_| TopKHeap::new(k)).collect();
    let mut floors: Vec<Option<f64>> = vec![None; m];
    let mut done: Vec<bool> = vec![false; m];
    let mut done_count = 0usize;
    let mut lost: Vec<Vec<(Region, usize)>> = (0..m).map(|_| Vec::new()).collect();
    let mut leftovers: Vec<Vec<Region>> = (0..m).map(|_| Vec::new()).collect();
    let mut stops: Vec<Option<BudgetStop>> = vec![None; m];
    let mut cells_fetched = 0u64;
    let mut cell_requests = 0u64;
    let mut bound_evals = 0u64;
    let mut bound_requests = 0u64;
    let mut cell_gov = MemoGovernor::new(CELL_MEMO_WINDOW);

    // Every query starts at the shared root; each is charged its own root
    // bound, exactly like the solo engine, even though the range box is
    // fetched once.
    let top = levels - 1;
    for q in 0..m {
        let ub = bound_memo.bound(models, pyramids, top, 0, 0, q, &mut bound_evals)?;
        efforts[q].multiply_adds += n;
        total_ma += n;
        bound_requests += 1;
        frontiers[q].push(Region {
            ub,
            level: top,
            row: 0,
            col: 0,
        });
        selector.arm(q, frontiers);
    }

    // The selector holds exactly one entry per live query: the current top
    // of that query's solo-sized frontier. Its max is the global max over
    // all frontier entries (each top is its frontier's max), so pops
    // interleave in exactly the shared descending order, and a closed
    // query's frontier is abandoned in O(1) instead of draining through
    // the heap entry by entry.
    while let Some((q, e)) = selector.next(frontiers) {
        if bound_memo.is_off() {
            // No cross-query reuse left to amortize: latch query-major
            // scheduling and drain this query to completion with the
            // solo-shaped loop.
            selector.go_serial();
            match serial_drain_query(
                q,
                e,
                models,
                pyramids,
                source,
                budget,
                cancel,
                &deadline,
                pages_at_entry,
                ticks_at_entry,
                coarse,
                coarse_bufs,
                cols,
                frontiers,
                &mut heaps,
                &mut floors,
                &mut lost,
                &mut efforts,
                &mut total_ma,
                children,
                x,
                ranges,
                cell_memo,
                &mut cell_gov,
                cell_arena,
                &mut cells_fetched,
                &mut cell_requests,
                &mut bound_evals,
                &mut bound_requests,
            )? {
                SerialEnd::Finished => {
                    done[q] = true;
                    done_count += 1;
                    if done_count == m {
                        break;
                    }
                    continue;
                }
                SerialEnd::Stopped(last, stop) => {
                    leftovers[q].push(last);
                    stops[q] = Some(stop);
                    for (rq, f) in frontiers.iter_mut().enumerate() {
                        if done[rq] || (rq != q && f.is_empty()) {
                            continue;
                        }
                        stops[rq] = Some(stop);
                        leftovers[rq].extend(f.drain());
                    }
                    break;
                }
            }
        }
        if floors[q].is_some_and(|f| f >= e.ub) {
            // This query's bound proof is closed: every entry left in its
            // frontier carries a smaller bound. Not re-arming the selector
            // drops them wholesale — exactly the solo engine's break.
            done[q] = true;
            done_count += 1;
            if done_count == m {
                break;
            }
            continue;
        }
        // One cooperative checkpoint per logical pop — the same cadence as
        // Q solo runs — against the *batch-wide* budget: summed
        // multiply-adds and the shared source clocks.
        let checked = checkpoint_stop(
            cancel,
            &deadline,
            budget,
            total_ma,
            source.pages_read().saturating_sub(pages_at_entry),
            source.ticks_elapsed().saturating_sub(ticks_at_entry),
        );
        if let Some(stop) = checked {
            leftovers[q].push(e);
            stops[q] = Some(stop);
            for (rq, f) in frontiers.iter_mut().enumerate() {
                if done[rq] || (rq != q && f.is_empty()) {
                    // A closed query keeps its finished answer; a query
                    // whose frontier ran dry before the stop completed on
                    // its own — neither takes the stop, as in a solo run.
                    continue;
                }
                stops[rq] = Some(stop);
                leftovers[rq].extend(f.drain());
            }
            break;
        }
        if e.level == 0 {
            cell_requests += 1;
            if cell_gov.live() {
                let ck = cell_key(e.row as u32, e.col as u32);
                let slot = match cell_memo.get(&ck) {
                    Some(s) => {
                        cell_gov.record(true);
                        *s
                    }
                    None => {
                        cell_gov.record(false);
                        let s = match read_base_vector_into(source, arity, e.row, e.col, x) {
                            Ok(()) => {
                                cells_fetched += 1;
                                let off = cell_arena.len();
                                cell_arena.extend_from_slice(x);
                                CellSlot::Loaded(off)
                            }
                            Err(CoreError::Archive(
                                ArchiveError::PageIo { page }
                                | ArchiveError::PageQuarantined { page }
                                | ArchiveError::PageCorrupt { page },
                            )) => {
                                let page = source.page_of(e.row, e.col).unwrap_or(page);
                                CellSlot::Lost(page)
                            }
                            Err(err) => return Err(err),
                        };
                        cell_memo.insert(ck, s);
                        s
                    }
                };
                match slot {
                    CellSlot::Loaded(off) => {
                        efforts[q].multiply_adds += n;
                        total_ma += n;
                        heaps[q].offer(ScoredItem {
                            index: e.row * cols + e.col,
                            score: models[q].evaluate(&cell_arena[off..off + arity]),
                        });
                        floors[q] = heaps[q].floor();
                    }
                    CellSlot::Lost(page) => lost[q].push((e, page)),
                }
            } else {
                // Governed off: the solo engine's read-and-score path,
                // with no arena copy and no table insert.
                match read_base_vector_into(source, arity, e.row, e.col, x) {
                    Ok(()) => {
                        cells_fetched += 1;
                        efforts[q].multiply_adds += n;
                        total_ma += n;
                        heaps[q].offer(ScoredItem {
                            index: e.row * cols + e.col,
                            score: models[q].evaluate(x),
                        });
                        floors[q] = heaps[q].floor();
                    }
                    Err(CoreError::Archive(
                        ArchiveError::PageIo { page }
                        | ArchiveError::PageQuarantined { page }
                        | ArchiveError::PageCorrupt { page },
                    )) => {
                        let page = source.page_of(e.row, e.col).unwrap_or(page);
                        lost[q].push((e, page));
                    }
                    Err(err) => return Err(err),
                }
            }
            selector.arm(q, frontiers);
            continue;
        }
        let level = e.level;
        pyramids[0].children_into(level, e.row, e.col, children);
        for &child in children.iter() {
            // Per-query coarse pass against this query's own floor — the
            // solo prune-only contract, query by query.
            if let Some(cg) = coarse {
                if let Some(f) = floors[q] {
                    let (qc, qm) = &coarse_bufs[q];
                    if cg.cell_upper_bound(qc, qm, level - 1, child.row, child.col) < f {
                        continue;
                    }
                }
            }
            bound_requests += 1;
            let ub = if bound_memo.is_off() {
                // Retired memo: the solo engine's bound path, inlined
                // with the same reused range-box buffer.
                bound_evals += 1;
                region_bound_into(
                    &models[q],
                    pyramids,
                    level - 1,
                    child.row,
                    child.col,
                    ranges,
                    &mut efforts[q],
                )?
            } else {
                let ub = bound_memo.bound(
                    models,
                    pyramids,
                    level - 1,
                    child.row,
                    child.col,
                    q,
                    &mut bound_evals,
                )?;
                efforts[q].multiply_adds += n;
                ub
            };
            total_ma += n;
            frontiers[q].push(Region {
                ub,
                level: level - 1,
                row: child.row,
                col: child.col,
            });
        }
        selector.arm(q, frontiers);
    }

    let pages_read = source.pages_read().saturating_sub(pages_at_entry);
    let parent_level = 1.min(levels - 1);
    let mut queries = Vec::with_capacity(m);
    for (q, heap) in heaps.into_iter().enumerate() {
        // Only a full heap gives a sound exclusion floor.
        let floor = heap.floor();
        let excluded = |hi: f64| floor.is_some_and(|f| f >= hi);
        let mut unresolved = 0u64;
        let mut skipped: BTreeSet<usize> = BTreeSet::new();
        let mut hits: Vec<ResilientHit> = heap
            .into_sorted()
            .into_iter()
            .map(|item| ResilientHit {
                cell: CellCoord::new(item.index / cols, item.index % cols),
                level: 0,
                score: item.score,
                bounds: ScoreBounds::exact(item.score),
                exact: true,
            })
            .collect();
        for region in &leftovers[q] {
            let (candidate, count) = region_candidate(
                &models[q],
                pyramids,
                region.level,
                region.row,
                region.col,
                &mut efforts[q],
            )?;
            if excluded(candidate.bounds.hi) {
                continue; // Provably outside the top-K: resolved.
            }
            unresolved += count;
            hits.push(candidate);
        }
        for (region, page) in &lost[q] {
            if excluded(region.ub) {
                continue; // Resolved by the deterministic bound.
            }
            skipped.insert(*page);
            let (mut candidate, _) = region_candidate(
                &models[q],
                pyramids,
                parent_level,
                region.row >> parent_level,
                region.col >> parent_level,
                &mut efforts[q],
            )?;
            candidate.cell = CellCoord::new(region.row, region.col);
            candidate.level = 0;
            unresolved += 1;
            hits.push(candidate);
        }
        hits.sort_by(|a, b| {
            b.bounds
                .hi
                .total_cmp(&a.bounds.hi)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.cell.cmp(&b.cell))
        });
        hits.truncate(k);
        queries.push(ResilientTopK {
            results: hits,
            effort: efforts[q],
            completeness: 1.0 - unresolved as f64 / total_cells as f64,
            skipped_pages: skipped.into_iter().collect(),
            budget_stop: stops[q],
        });
    }
    scratch.note_regrowth(&caps);
    Ok(BatchedTopK {
        queries,
        pages_read,
        cells_fetched,
        cell_requests,
        bound_evals,
        bound_requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pyramid_top_k;
    use crate::resilient::{resilient_top_k, resilient_top_k_cancellable, resilient_top_k_coarse};
    use crate::source::{CachedTileSource, TileSource};
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
        })
    }

    fn world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (
        Vec<LinearModel>,
        Vec<AggregatePyramid>,
        Vec<TileStore>,
        AccessStats,
    ) {
        let grids: Vec<Grid2<f64>> = (0..arity).map(|i| smooth_grid(i, rows, cols)).collect();
        let pyramids = grids.iter().map(AggregatePyramid::build).collect();
        let stats = AccessStats::new();
        let stores = grids
            .iter()
            .map(|g| {
                TileStore::new(g.clone(), tile)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        // A spread of query directions over the shared attributes: sign
        // flips, magnitude skews, and offsets, so floors mature at
        // different paces across the batch.
        let models = (0..6)
            .map(|qi| {
                let coeffs: Vec<f64> = (0..arity)
                    .map(|a| 1.0 - 0.3 * a as f64 + 0.17 * qi as f64 - 0.09 * (a * qi) as f64)
                    .collect();
                LinearModel::new(coeffs, 0.25 * qi as f64).unwrap()
            })
            .collect();
        (models, pyramids, stores, stats)
    }

    fn fresh_sources(stores: &[TileStore]) -> TileSource<'_> {
        TileSource::new(stores).unwrap()
    }

    #[test]
    fn healthy_batch_is_bit_identical_to_solo_runs() {
        let (models, pyramids, stores, _) = world(3, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        for k in [1usize, 5, 9] {
            let src = fresh_sources(&stores);
            let batch = batched_top_k(&models, &pyramids, k, &src, &budget).unwrap();
            assert_eq!(batch.queries.len(), models.len());
            for (q, model) in models.iter().enumerate() {
                let solo_src = fresh_sources(&stores);
                let solo = resilient_top_k(model, &pyramids, k, &solo_src, &budget).unwrap();
                // Full structural equality: results, effort, completeness,
                // skipped pages, and stop reason all match the solo run.
                assert_eq!(batch.queries[q], solo, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn batch_amortizes_pages_and_bounds_across_queries() {
        let (models, pyramids, stores, _) = world(3, 64, 64, 8);
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 7, &src, &budget).unwrap();
        let mut solo_pages = 0u64;
        for model in &models {
            let solo_src = fresh_sources(&stores);
            let before = solo_src.pages_read();
            resilient_top_k(model, &pyramids, 7, &solo_src, &budget).unwrap();
            solo_pages += solo_src.pages_read() - before;
        }
        assert!(
            batch.pages_read <= solo_pages,
            "batched {} pages vs solo sum {}",
            batch.pages_read,
            solo_pages
        );
        // The memo tables actually deduplicate: logical requests exceed
        // physical work whenever queries overlap. The spread batch diverges
        // early, so the sampling governor may retire the bound memo there
        // (evals == requests is then correct); cells still amortize.
        assert!(batch.cell_requests >= batch.cells_fetched);
        assert!(batch.bound_requests >= batch.bound_evals);

        // A tightly-overlapping batch keeps the bound memo on past the
        // sampling window: physical box fetches stay strictly below the
        // logical request count.
        let near: Vec<LinearModel> = (0..6)
            .map(|qi| {
                let t = qi as f64;
                let coeffs: Vec<f64> = (0..pyramids.len())
                    .map(|a| 1.0 + 0.01 * t - 0.3 * a as f64)
                    .collect();
                LinearModel::new(coeffs, 0.02 * t).unwrap()
            })
            .collect();
        let src = fresh_sources(&stores);
        let near_batch = batched_top_k(&near, &pyramids, 7, &src, &budget).unwrap();
        assert!(
            near_batch.bound_requests > near_batch.bound_evals,
            "overlapping batch should amortize range-box fetches: {} requests vs {} evals",
            near_batch.bound_requests,
            near_batch.bound_evals
        );
        assert!(near_batch.cell_requests > near_batch.cells_fetched);
    }

    #[test]
    fn singleton_batch_equals_solo_run_exactly() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models[..1], &pyramids, 5, &src, &budget).unwrap();
        let solo_src = fresh_sources(&stores);
        let solo = resilient_top_k(&models[0], &pyramids, 5, &solo_src, &budget).unwrap();
        assert_eq!(batch.queries[0], solo);
        assert_eq!(batch.cell_requests, batch.cells_fetched);
    }

    #[test]
    fn lost_pages_degrade_each_query_exactly_like_solo() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&models[0], &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(page)))
            .collect();
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 3, &src, &budget).unwrap();
        let mut any_degraded = false;
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k(model, &pyramids, 3, &solo_src, &budget).unwrap();
            any_degraded |= solo.is_degraded();
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
        assert!(any_degraded, "fault must actually degrade some query");
    }

    #[test]
    fn corrupt_page_verdict_is_shared_and_matches_solo() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&models[1], &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(page)))
            .collect();
        let budget = ExecutionBudget::unlimited();
        let src = CachedTileSource::new(&stores, 16).unwrap();
        let batch = batched_top_k(&models, &pyramids, 4, &src, &budget).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = CachedTileSource::new(&stores, 16).unwrap();
            let solo = resilient_top_k(model, &pyramids, 4, &solo_src, &budget).unwrap();
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn coarse_batch_is_bit_identical_to_coarse_solo_runs() {
        let (models, pyramids, stores, _) = world(3, 64, 64, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k_coarse(&models, &pyramids, 7, &src, &budget, &coarse).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo =
                resilient_top_k_coarse(model, &pyramids, 7, &solo_src, &budget, &coarse).unwrap();
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn pre_expired_deadline_stops_every_query_like_solo() {
        use std::time::Duration;
        let (models, pyramids, stores, _) = world(2, 64, 64, 8);
        let budget = ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO);
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 5, &src, &budget).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k(model, &pyramids, 5, &solo_src, &budget).unwrap();
            assert_eq!(solo.budget_stop, Some(BudgetStop::WallClock));
            // A stop at the very first checkpoint leaves each query with
            // exactly its root leftover — identical to the solo stop.
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_query_like_solo() {
        let (models, pyramids, stores, _) = world(2, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let token = CancelToken::new();
        token.cancel();
        let src = fresh_sources(&stores);
        let batch =
            batched_top_k_cancellable(&models, &pyramids, 5, &src, &budget, &token).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k_cancellable(model, &pyramids, 5, &solo_src, &budget, &token)
                .unwrap();
            assert_eq!(solo.budget_stop, Some(BudgetStop::Cancelled));
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn mid_run_budget_stop_is_sound_per_query() {
        let (models, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = fresh_sources(&stores);
        let unlimited =
            batched_top_k(&models, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let total: u64 = unlimited
            .queries
            .iter()
            .map(|r| r.effort.multiply_adds)
            .sum();
        let budget = ExecutionBudget::unlimited().with_max_multiply_adds(total / 3);
        let src = fresh_sources(&stores);
        let stopped = batched_top_k(&models, &pyramids, 5, &src, &budget).unwrap();
        let mut any_stopped = false;
        for (q, r) in stopped.queries.iter().enumerate() {
            any_stopped |= r.budget_stop.is_some();
            assert!(r.completeness >= 0.0 && r.completeness <= 1.0);
            assert!(r.results.len() <= 5);
            // Soundness: the true winner is confirmed exactly, covered by
            // a degraded candidate's bound, or pushed out of a full report.
            let best = unlimited.queries[q].results[0].score;
            assert!(
                r.results.len() == 5
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
                "q={q}: winner neither confirmed nor covered"
            );
            for hit in r.results.iter().filter(|h| !h.exact) {
                assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            }
        }
        assert!(any_stopped, "budget must actually bind");
    }

    #[test]
    fn warmed_scratch_stops_allocating_across_batches() {
        let (models, pyramids, stores, _) = world(3, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let mut scratch = BatchScratch::new();
        let src = fresh_sources(&stores);
        let first =
            batched_top_k_with_scratch(&models, &pyramids, 6, &src, &budget, &mut scratch).unwrap();
        let warm = scratch.regrowths();
        for _ in 0..3 {
            let src = fresh_sources(&stores);
            let again =
                batched_top_k_with_scratch(&models, &pyramids, 6, &src, &budget, &mut scratch)
                    .unwrap();
            assert_eq!(again.queries, first.queries);
            assert_eq!(
                scratch.regrowths(),
                warm,
                "a warmed batch scratch must not regrow"
            );
        }
    }

    #[test]
    fn empty_batch_and_mismatched_arity_are_handled() {
        let (models, pyramids, stores, _) = world(2, 16, 16, 8);
        let src = fresh_sources(&stores);
        let budget = ExecutionBudget::unlimited();
        let empty = batched_top_k(&[], &pyramids, 3, &src, &budget).unwrap();
        assert!(empty.queries.is_empty());
        assert_eq!(empty.pages_read, 0);
        let odd = LinearModel::new(vec![1.0, 2.0, 3.0], 0.0).unwrap();
        let mixed = vec![models[0].clone(), odd];
        assert!(batched_top_k(&mixed, &pyramids, 3, &src, &budget).is_err());
        assert!(batched_top_k(&models, &pyramids, 0, &src, &budget).is_err());
    }
}
