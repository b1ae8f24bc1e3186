//! The Onion technique (paper §3.2, reference \[11\]): indexing for linear
//! optimization queries by convex-hull layer peeling.
//!
//! "An indexing technique, Onion, based on convex hull was proposed in \[11\]
//! to address the issue of locating tuples that optimize (either maximize or
//! minimize) a linear model. Experimental results have shown, with
//! three-parameter Gaussian distributed data sets, a speed-up of 13,000 fold
//! ... for retrieving the top-one choice while a speed-up of 1,400 fold ...
//! for retrieving the top-ten choices, both measured against sequential scan
//! of the unindexed data set."
//!
//! ## Construction
//!
//! Points are peeled into layers, outermost first. For 2-D data each layer
//! is the exact convex hull (Andrew's monotone chain over a single global
//! sort). For d >= 3 exact hulls are replaced by direction-sweep extreme
//! sets: the union of per-direction argmax points over a fixed bundle of
//! axis + seeded-random directions. That layer is a subset of the true hull,
//! which would be unsound on its own — so correctness is restored at query
//! time (below). Peeling stops after `max_layers`; the remainder forms a
//! core bucket.
//!
//! ## Query soundness
//!
//! At build time each peel records the bounding box of *all points at that
//! depth or deeper*. A query walks layers outward-in, keeps a top-K heap,
//! and stops only when the K-th best score already reached is at least the
//! box upper bound of everything not yet examined. The box bound holds for
//! any layer contents whatsoever, so results are exactly the scan results
//! (property-tested) regardless of hull exactness; layer quality only
//! affects how early the walk stops.
//!
//! ## Data layout
//!
//! Tuples live in a flat row-major [`PointStore`]. The d >= 3 peel sweep is
//! the build hot path, and it now makes **one** streaming pass over the
//! store per layer, updating every bundle direction's running argmax per
//! row ([`kernels::sweep_argmax_block`]) — instead of one pointer-chased
//! pass per direction over `Vec<Vec<f64>>`. Per-direction winners are
//! unchanged (same visit order, same strict-max rule), so layers are
//! bit-identical to the legacy build, which remains available as
//! [`OnionIndex::build_legacy`] for benchmarking and as the reference in
//! bit-identity property tests.

use crate::kernels;
use crate::quant::{QuantPruneReport, QuantizedStore, QUANT_SUB_ROWS};
use crate::scan::TopKHeap;
use crate::stats::{QueryStats, ScoredItem, TopKResult};
use crate::store::PointStore;
use mbir_models::error::ModelError;
use rand_like::DirectionBundle;

/// Deterministic pseudo-random unit directions (no `rand` dependency in
/// this crate; a splitmix-style generator is ample for direction bundles).
mod rand_like {
    /// A reproducible bundle of unit directions in `d` dimensions.
    #[derive(Debug, Clone)]
    pub struct DirectionBundle {
        directions: Vec<Vec<f64>>,
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn uniform(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gaussian(state: &mut u64) -> f64 {
        let u = uniform(state).max(1e-300);
        let v = uniform(state);
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    impl DirectionBundle {
        /// `2d` axis directions plus `extra` random unit vectors.
        pub fn new(d: usize, extra: usize, seed: u64) -> Self {
            let mut directions = Vec::with_capacity(2 * d + extra);
            for i in 0..d {
                let mut plus = vec![0.0; d];
                plus[i] = 1.0;
                directions.push(plus);
                let mut minus = vec![0.0; d];
                minus[i] = -1.0;
                directions.push(minus);
            }
            let mut state = seed ^ 0x5eed_0123_4567_89ab;
            for _ in 0..extra {
                let mut v: Vec<f64> = (0..d).map(|_| gaussian(&mut state)).collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for x in &mut v {
                        *x /= norm;
                    }
                    directions.push(v);
                }
            }
            DirectionBundle { directions }
        }

        /// The directions.
        pub fn directions(&self) -> &[Vec<f64>] {
            &self.directions
        }

        /// Appends extra (already normalized) directions.
        pub fn with_extra(mut self, extra: &[Vec<f64>]) -> Self {
            self.directions.extend(extra.iter().cloned());
            self
        }
    }
}

/// Sound enclosure of a point set: bounding box plus enclosing sphere
/// (box center, max distance). For any direction the true maximum of
/// `direction . x` is at most `min(box corner bound, sphere bound)` — the
/// sphere bound `a·c + |a|·R` is much tighter for ball-like (Gaussian)
/// clouds, the box bound for axis-aligned ones.
#[derive(Debug, Clone, PartialEq)]
struct BoundingBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
    center: Vec<f64>,
    radius: f64,
}

impl BoundingBox {
    /// Encloses `members`, reading coordinates through `row` — the one
    /// implementation serves both the flat store and the legacy nested
    /// points (identical per-coordinate fold order either way).
    fn of<'a, F, M>(row: F, members: M, d: usize) -> Option<Self>
    where
        F: Fn(usize) -> &'a [f64],
        M: Iterator<Item = usize> + Clone,
    {
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        let mut any = false;
        for idx in members.clone() {
            any = true;
            kernels::min_max_update(&mut lo, &mut hi, row(idx));
        }
        if !any {
            return None;
        }
        let center: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| (l + h) / 2.0).collect();
        let mut radius: f64 = 0.0;
        for idx in members {
            let d2: f64 = row(idx)
                .iter()
                .zip(&center)
                .map(|(v, c)| (v - c) * (v - c))
                .sum();
            radius = radius.max(d2);
        }
        Some(BoundingBox {
            lo,
            hi,
            center,
            radius: radius.sqrt(),
        })
    }

    /// Grows the enclosure to cover one more point.
    fn extend(&mut self, point: &[f64]) {
        kernels::min_max_update(&mut self.lo, &mut self.hi, point);
        let d2: f64 = point
            .iter()
            .zip(&self.center)
            .map(|(v, c)| (v - c) * (v - c))
            .sum();
        self.radius = self.radius.max(d2.sqrt());
    }

    /// Whether the enclosure's bounds already cover `point` — inside the
    /// box **and** inside the sphere, so both halves of
    /// [`upper_bound`](Self::upper_bound) stay sound if the point joins
    /// the enclosed set.
    fn contains(&self, point: &[f64]) -> bool {
        let in_box = point
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(v, (lo, hi))| *v >= *lo && *v <= *hi);
        if !in_box {
            return false;
        }
        let d2: f64 = point
            .iter()
            .zip(&self.center)
            .map(|(v, c)| (v - c) * (v - c))
            .sum();
        d2.sqrt() <= self.radius
    }

    /// Sound upper bound on `direction . x` over the enclosed set.
    fn upper_bound(&self, direction: &[f64]) -> f64 {
        let box_bound: f64 = direction
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(a, (lo, hi))| if *a >= 0.0 { a * hi } else { a * lo })
            .sum();
        let norm: f64 = direction.iter().map(|a| a * a).sum::<f64>().sqrt();
        let centered: f64 = direction.iter().zip(&self.center).map(|(a, c)| a * c).sum();
        let sphere_bound = centered + norm * self.radius;
        box_bound.min(sphere_bound)
    }
}

/// What an incremental [`OnionIndex::append_points`] did: how much of the
/// layer structure survived and how much was re-peeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnionAppendReport {
    /// Tuples appended.
    pub appended: usize,
    /// Leading layers kept untouched (the batch was inside their
    /// enclosures).
    pub kept_layers: usize,
    /// Layers re-peeled over the dirtied suffix plus the batch.
    pub repeeled_layers: usize,
}

/// The Onion index over a fixed set of d-dimensional tuples.
///
/// # Examples
///
/// ```
/// use mbir_index::onion::OnionIndex;
///
/// let points = vec![vec![0.1, 0.1], vec![0.9, 0.2], vec![0.5, 0.95], vec![0.5, 0.5]];
/// let onion = OnionIndex::build(points).unwrap();
/// let top = onion.top_k_max(&[0.0, 1.0], 1).unwrap();
/// assert_eq!(top.results[0].index, 2);
/// ```
#[derive(Debug, Clone)]
pub struct OnionIndex {
    points: PointStore,
    dims: usize,
    /// Layers outermost-first; the final entry is the unpeeled core.
    layers: Vec<Vec<usize>>,
    /// `remaining_box[l]` bounds every point in layers `l..`.
    remaining_box: Vec<BoundingBox>,
    /// Workload hint directions (normalized) registered at build time.
    hints: Vec<Vec<f64>>,
    /// `hint_support[l][h]` = exact max of `hints[h] . x` over layers `l..`
    /// — a tight, sound stopping bound for queries parallel to a hint.
    hint_support: Vec<Vec<f64>>,
    /// Number of leading layers that are *exact convex hulls* (all peeled
    /// layers for d <= 2; zero for d >= 3, whose sweep layers are hull
    /// subsets). Within this prefix the classical Onion theorem applies:
    /// the j-th best tuple of any linear query lies in the first j layers.
    exact_hull_layers: usize,
    /// Optional i8 coarse-pass side structure over `points`: lets the
    /// query walk and the build sweep reject whole blocks below the
    /// current floor before touching f64 data. Prune-only — answers are
    /// bit-identical with or without it. Dropped by [`OnionIndex::insert`]
    /// (the store changes under it) and restored by
    /// [`OnionIndex::rebuild`].
    quant: Option<QuantizedStore>,
}

impl OnionIndex {
    /// Builds the index with default peeling limits (64 layers, 32 extra
    /// sweep directions).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points and
    /// [`ModelError::ArityMismatch`] for ragged dimensions.
    pub fn build(points: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints(points, &[], 64, 32, 7)
    }

    /// Builds with explicit limits: at most `max_layers` peels, `extra_dirs`
    /// random sweep directions (d >= 3 only), and a seed for the bundle.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points and
    /// [`ModelError::ArityMismatch`] for ragged dimensions.
    pub fn build_with(
        points: Vec<Vec<f64>>,
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints(points, &[], max_layers, extra_dirs, seed)
    }

    /// Builds with *workload hints*: known model directions (this is the
    /// paper's model-specific indexing — the index is built for the model).
    /// For every hint `h` the exact support `max h·x` over each peel
    /// remainder is stored, so a query whose direction is positively
    /// parallel to a hint gets a tight sound stopping bound instead of the
    /// generic box/sphere bound. Hints are also added to the peel sweep so
    /// their argmax points land in the outer layers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points,
    /// [`ModelError::ArityMismatch`] for ragged dimensions or wrong-length
    /// hints, and [`ModelError::InvalidValue`] for zero/non-finite hints.
    pub fn build_with_hints(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints_threads(points, hints, max_layers, extra_dirs, seed, 1)
    }

    /// Builds the index with default limits using `threads` OS threads for
    /// the per-layer direction sweep (d >= 3; lower dimensions build their
    /// exact hulls sequentially — they are already cheap). The layer
    /// structure is **bit-identical** to the sequential build: each
    /// direction's argmax is computed independently and deterministically,
    /// and the per-layer union is sorted and deduplicated, so how the
    /// directions are dealt to threads cannot change the result.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build`].
    pub fn build_parallel(points: Vec<Vec<f64>>, threads: usize) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints_threads(points, &[], 64, 32, 7, threads)
    }

    /// Fully parameterized build: hints, peel limits, sweep seed, and the
    /// number of threads for the d >= 3 direction sweep. `threads <= 1`
    /// runs entirely on the calling thread.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build_with_hints`].
    pub fn build_with_hints_threads(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_impl(
            points, hints, max_layers, extra_dirs, seed, threads, false, false,
        )
    }

    /// Builds with default limits **plus the i8 quantized side structure**
    /// (see [`crate::quant`]): the d >= 3 peel sweep skips blocks whose
    /// coarse bound cannot beat any direction's running argmax, and
    /// queries go through [`OnionIndex::top_k_max_quant`]'s coarse-pruned
    /// walk. Layers and query answers are bit-identical to
    /// [`OnionIndex::build`] — the coarse pass only ever prunes work that
    /// provably cannot matter.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build`].
    pub fn build_quantized(points: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        OnionIndex::build_quantized_with(points, 64, 32, 7, 1)
    }

    /// [`OnionIndex::build_quantized`] with explicit peel limits, sweep
    /// seed, and thread count.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build_with`].
    pub fn build_quantized_with(
        points: Vec<Vec<f64>>,
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_impl(
            points,
            &[],
            max_layers,
            extra_dirs,
            seed,
            threads,
            false,
            true,
        )
    }

    /// Attaches (or rebuilds) the quantized side structure on an existing
    /// index, enabling the coarse-pruned query path.
    pub fn with_quantized(mut self) -> Self {
        self.quant = Some(QuantizedStore::build(&self.points));
        self
    }

    /// Whether the quantized side structure is present.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Builds via the pre-`PointStore` reference path: nested
    /// `Vec<Vec<f64>>` storage end to end, one sweep pass per direction.
    /// Layers, bounds, and query answers are bit-identical to
    /// [`OnionIndex::build`]; only the construction cost differs. Kept as
    /// the honest "before" baseline for the kernels benchmark and as the
    /// reference in bit-identity property tests.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build`].
    pub fn build_legacy(points: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        OnionIndex::build_legacy_with(points, 64, 32, 7)
    }

    /// [`OnionIndex::build_legacy`] with explicit peel limits and seed.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build_with`].
    pub fn build_legacy_with(
        points: Vec<Vec<f64>>,
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_impl(points, &[], max_layers, extra_dirs, seed, 1, true, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_impl(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
        threads: usize,
        legacy: bool,
        quantize: bool,
    ) -> Result<Self, ModelError> {
        let first = points.first().ok_or(ModelError::Empty)?;
        let dims = first.len();
        if dims == 0 {
            return Err(ModelError::Empty);
        }
        for p in &points {
            if p.len() != dims {
                return Err(ModelError::ArityMismatch {
                    expected: dims,
                    actual: p.len(),
                });
            }
        }
        // Validate and normalize hints.
        let mut unit_hints: Vec<Vec<f64>> = Vec::with_capacity(hints.len());
        for h in hints {
            if h.len() != dims {
                return Err(ModelError::ArityMismatch {
                    expected: dims,
                    actual: h.len(),
                });
            }
            let norm: f64 = h.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !norm.is_finite() || norm <= 0.0 {
                return Err(ModelError::InvalidValue(
                    "hint directions must be non-zero and finite".into(),
                ));
            }
            unit_hints.push(h.iter().map(|v| v / norm).collect());
        }

        let n = points.len();
        let store = PointStore::from_rows(&points)?;
        let quant_store = if quantize && !legacy {
            Some(QuantizedStore::build(&store))
        } else {
            None
        };
        let mut alive = vec![true; n];
        let mut remaining = n;
        let mut layers: Vec<Vec<usize>> = Vec::new();
        let mut remaining_box: Vec<BoundingBox> = Vec::new();
        let mut hint_support: Vec<Vec<f64>> = Vec::new();

        // Pre-sort for 2-D monotone chain reuse.
        let sorted_2d: Option<Vec<usize>> = if dims == 2 {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                store.row(a)[0]
                    .total_cmp(&store.row(b)[0])
                    .then(store.row(a)[1].total_cmp(&store.row(b)[1]))
            });
            Some(order)
        } else {
            None
        };
        let bundle = DirectionBundle::new(dims, extra_dirs, seed).with_extra(&unit_hints);

        let enclose = |alive: &[bool]| -> BoundingBox {
            let members = (0..n).filter(|i| alive[*i]);
            if legacy {
                BoundingBox::of(|i| points[i].as_slice(), members, dims)
            } else {
                BoundingBox::of(|i| store.row(i), members, dims)
            }
            .expect("remaining > 0")
        };
        let supports = |alive: &[bool]| -> Vec<f64> {
            unit_hints
                .iter()
                .map(|h| {
                    if legacy {
                        support_of_rows(alive, &points, h)
                    } else {
                        kernels::max_score_alive(store.flat(), dims, alive, h)
                    }
                })
                .collect()
        };

        while remaining > 0 && layers.len() < max_layers {
            remaining_box.push(enclose(&alive));
            hint_support.push(supports(&alive));
            let layer = match (&sorted_2d, dims) {
                (_, 1) => extremes_1d(&store, &alive),
                (Some(order), 2) => hull_2d(&store, &alive, order),
                _ => {
                    if legacy {
                        sweep_layer_threads(&points, &alive, &bundle, threads)
                    } else {
                        sweep_layer_flat_threads(
                            &store,
                            &alive,
                            &bundle,
                            threads,
                            quant_store.as_ref(),
                        )
                    }
                }
            };
            debug_assert!(!layer.is_empty(), "peel must remove at least one point");
            for &idx in &layer {
                alive[idx] = false;
            }
            remaining -= layer.len();
            layers.push(layer);
        }
        if remaining > 0 {
            remaining_box.push(enclose(&alive));
            hint_support.push(supports(&alive));
            layers.push((0..n).filter(|i| alive[*i]).collect());
        }
        // For d <= 2 every peeled layer is an exact hull; the trailing
        // core bucket (present when the cap was hit) is not.
        let peeled = if remaining > 0 {
            layers.len() - 1
        } else {
            layers.len()
        };
        let exact_hull_layers = if dims <= 2 { peeled } else { 0 };
        Ok(OnionIndex {
            points: store,
            dims,
            layers,
            remaining_box,
            hints: unit_hints,
            hint_support,
            exact_hull_layers,
            quant: quant_store,
        })
    }

    /// Inserts a tuple without rebuilding: the point joins the *outermost*
    /// layer, which preserves query exactness (an outer-layer point is
    /// always examined before any stopping decision) at the cost of one
    /// extra examined tuple per insert. Registered hint supports are
    /// updated. Call [`OnionIndex::rebuild`] once inserts accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-width tuple.
    pub fn insert(&mut self, point: Vec<f64>) -> Result<usize, ModelError> {
        if point.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: point.len(),
            });
        }
        // Update every remaining-set enclosure: the new point is "visible"
        // from depth 0 only (it lives in layer 0), so only that level's
        // bounds must cover it — but remaining_box[l] must bound layers
        // l.., and the new point joins layer 0, so only level 0 grows.
        if let Some(bbox) = self.remaining_box.first_mut() {
            bbox.extend(&point);
        }
        for (h, hint) in self.hints.iter().enumerate() {
            let s: f64 = hint.iter().zip(&point).map(|(a, v)| a * v).sum();
            if let Some(level0) = self.hint_support.first_mut() {
                level0[h] = level0[h].max(s);
            }
        }
        let idx = self.points.push_row(&point)?;
        self.layers[0].push(idx);
        // The store just changed under the quantized side structure; drop
        // it rather than serve stale bounds (queries fall back to the
        // exact walk until the next rebuild).
        self.quant = None;
        Ok(idx)
    }

    /// Appends a batch of tuples, rebuilding **only the dirtied hull
    /// suffix** — the incremental maintenance path for appendable
    /// archives, between per-point [`OnionIndex::insert`] (O(1) but
    /// degrades the outer layer) and a full [`OnionIndex::rebuild`].
    ///
    /// Each new point's *depth* is the number of leading remaining-set
    /// enclosures that already contain it (box **and** sphere); the dirty
    /// frontier is the minimum depth over the batch, clamped so at least
    /// the innermost layer re-peels. Layers, enclosures, and hint
    /// supports before the frontier are kept untouched — sound because
    /// every new point is inside those enclosures and lands in a deeper
    /// layer (kept hint supports are maxed with the new points' scores).
    /// Everything at or past the frontier, plus the batch, is re-peeled
    /// with the build machinery (exact hulls for d <= 2, direction sweeps
    /// otherwise).
    ///
    /// Query answers after an append match a scratch-built index's scan
    /// answers (property-tested); only the stopping layer can differ.
    /// Because enclosure containment does not imply *hull* containment,
    /// the kept prefix can no longer be certified as exact hulls of the
    /// augmented set, so the classical-theorem fast path is conservatively
    /// disabled (`exact_hull_layers = 0`) until the next full rebuild.
    /// The quantized side structure is likewise dropped (the store grew
    /// under it); [`OnionIndex::rebuild`] or
    /// [`OnionIndex::with_quantized`] restores both.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for an empty batch and
    /// [`ModelError::ArityMismatch`] for wrong-width tuples; the index is
    /// unchanged on error.
    pub fn append_points(&mut self, batch: &[Vec<f64>]) -> Result<OnionAppendReport, ModelError> {
        if batch.is_empty() {
            return Err(ModelError::Empty);
        }
        for p in batch {
            if p.len() != self.dims {
                return Err(ModelError::ArityMismatch {
                    expected: self.dims,
                    actual: p.len(),
                });
            }
        }
        // Dirty frontier: deepest kept prefix whose enclosures cover every
        // new point. Clamped so the innermost layer always re-peels (a
        // batch deeper than every enclosure joins the core re-peel).
        let mut dirty = self.layers.len() - 1;
        for p in batch {
            let mut depth = 0usize;
            while depth < dirty && self.remaining_box[depth].contains(p) {
                depth += 1;
            }
            dirty = dirty.min(depth);
        }
        // Kept hint supports must also cover the batch: the new points
        // live in layers >= dirty, i.e. inside every kept remainder.
        for (h, hint) in self.hints.iter().enumerate() {
            let batch_max = batch
                .iter()
                .map(|p| hint.iter().zip(p).map(|(a, v)| a * v).sum::<f64>())
                .fold(f64::NEG_INFINITY, f64::max);
            for support in self.hint_support.iter_mut().take(dirty) {
                support[h] = support[h].max(batch_max);
            }
        }
        // Grow the store and collect the re-peel subset: dirtied layers
        // plus the batch.
        let mut alive = vec![false; self.points.len() + batch.len()];
        let mut remaining = 0usize;
        for layer in &self.layers[dirty..] {
            for &idx in layer {
                alive[idx] = true;
                remaining += 1;
            }
        }
        for p in batch {
            let idx = self.points.push_row(p)?;
            alive[idx] = true;
            remaining += 1;
        }
        let repeeled_from = dirty;
        self.layers.truncate(dirty);
        self.remaining_box.truncate(dirty);
        self.hint_support.truncate(dirty);

        // Re-peel the suffix with the same machinery as the build.
        let n = alive.len();
        let dims = self.dims;
        let store = &self.points;
        let sorted_2d: Option<Vec<usize>> = if dims == 2 {
            let mut order: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            order.sort_by(|&a, &b| {
                store.row(a)[0]
                    .total_cmp(&store.row(b)[0])
                    .then(store.row(a)[1].total_cmp(&store.row(b)[1]))
            });
            Some(order)
        } else {
            None
        };
        let bundle = DirectionBundle::new(dims, 32, 7).with_extra(&self.hints);
        let mut layers = Vec::new();
        let mut remaining_box = Vec::new();
        let mut hint_support = Vec::new();
        while remaining > 0 && repeeled_from + layers.len() < 64 {
            remaining_box.push(
                BoundingBox::of(|i| store.row(i), (0..n).filter(|&i| alive[i]), dims)
                    .expect("remaining > 0"),
            );
            hint_support.push(
                self.hints
                    .iter()
                    .map(|h| kernels::max_score_alive(store.flat(), dims, &alive, h))
                    .collect(),
            );
            let layer = match (&sorted_2d, dims) {
                (_, 1) => extremes_1d(store, &alive),
                (Some(order), 2) => hull_2d(store, &alive, order),
                _ => sweep_layer_flat_threads(store, &alive, &bundle, 1, None),
            };
            debug_assert!(!layer.is_empty(), "peel must remove at least one point");
            for &idx in &layer {
                alive[idx] = false;
            }
            remaining -= layer.len();
            layers.push(layer);
        }
        if remaining > 0 {
            remaining_box.push(
                BoundingBox::of(|i| store.row(i), (0..n).filter(|&i| alive[i]), dims)
                    .expect("remaining > 0"),
            );
            hint_support.push(
                self.hints
                    .iter()
                    .map(|h| kernels::max_score_alive(store.flat(), dims, &alive, h))
                    .collect(),
            );
            layers.push((0..n).filter(|&i| alive[i]).collect());
        }
        let repeeled_layers = layers.len();
        self.layers.extend(layers);
        self.remaining_box.extend(remaining_box);
        self.hint_support.extend(hint_support);
        // Enclosure containment is not hull containment: the kept prefix
        // can no longer be certified exact, so the classical-theorem stop
        // is disabled until the next full rebuild.
        self.exact_hull_layers = 0;
        self.quant = None;
        Ok(OnionAppendReport {
            appended: batch.len(),
            kept_layers: repeeled_from,
            repeeled_layers,
        })
    }

    /// Rebuilds the layer structure from scratch with the same hints and
    /// default limits — amortizes accumulated [`OnionIndex::insert`]s.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for points already
    /// validated by `insert`).
    pub fn rebuild(&mut self) -> Result<(), ModelError> {
        let rebuilt =
            OnionIndex::build_with_hints(self.points.to_rows(), &self.hints.clone(), 64, 32, 7)?;
        // An index that was quantized before (or whose quantization was
        // dropped by inserts) comes back quantized.
        *self = rebuilt.with_quantized();
        Ok(())
    }

    /// Number of tuples indexed.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty (never true once built).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of layers (including the core bucket, if any).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Sizes of each layer, outermost first.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.layers.iter().map(Vec::len).collect()
    }

    /// Top-K tuples maximizing `direction . x`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-length direction
    /// and [`ModelError::InvalidValue`] for `k == 0`.
    pub fn top_k_max(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.top_k_impl(direction, k, kernels::dot)
    }

    /// [`OnionIndex::top_k_max`] scoring through the legacy per-point
    /// `iter().zip()` fold instead of the dispatched kernel. Bit-identical
    /// answers (the kernel preserves the summation order); kept for the
    /// before/after benchmark and bit-identity tests.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_legacy(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.top_k_impl(direction, k, |dir: &[f64], row: &[f64]| {
            dir.iter().zip(row).map(|(a, v)| a * v).sum()
        })
    }

    fn top_k_impl<F: Fn(&[f64], &[f64]) -> f64>(
        &self,
        direction: &[f64],
        k: usize,
        score: F,
    ) -> Result<TopKResult, ModelError> {
        if direction.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: direction.len(),
            });
        }
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        // Is the query positively parallel to a registered hint? Then the
        // stored exact support gives a tight, sound stopping bound.
        let norm: f64 = direction.iter().map(|a| a * a).sum::<f64>().sqrt();
        let hint = if norm > 0.0 {
            self.hints.iter().position(|h| {
                let dot: f64 = h.iter().zip(direction).map(|(a, b)| a * b).sum();
                dot / norm > 1.0 - 1e-9
            })
        } else {
            None
        };

        let mut heap = TopKHeap::new(k);
        let mut stats = QueryStats::new();
        for (l, layer) in self.layers.iter().enumerate() {
            stats.nodes_visited += 1;
            for &idx in layer {
                stats.tuples_examined += 1;
                heap.offer(ScoredItem {
                    index: idx,
                    score: score(direction, self.points.row(idx)),
                });
            }
            // Classical Onion theorem (exact-hull prefix only): the j-th
            // best of any linear query lies within the first j convex
            // layers, so once k layers are processed and the heap is full,
            // nothing deeper can enter the answer.
            if heap.floor().is_some() && l + 1 >= k && l < self.exact_hull_layers {
                break;
            }
            // Sound early stop: nothing deeper can beat the current floor.
            if let (Some(floor), Some(next_box)) = (heap.floor(), self.remaining_box.get(l + 1)) {
                let mut bound = next_box.upper_bound(direction);
                if let Some(h) = hint {
                    bound = bound.min(norm * self.hint_support[l + 1][h]);
                }
                if floor >= bound {
                    break;
                }
            }
        }
        stats.comparisons = heap.comparisons();
        Ok(TopKResult {
            results: heap.into_sorted(),
            stats,
        })
    }

    /// Batched layer walk: **one** outward-in traversal serves every
    /// direction in the batch. Each layer's rows are read from the store
    /// once; every still-active query scores them and offers to its own
    /// heap. A query leaves the walk at exactly the layer its solo run
    /// would have stopped at (its heap sees the same offers in the same
    /// order, so its floor — and therefore both stopping decisions — are
    /// the same bits), and the walk ends when no query remains active.
    ///
    /// `results[q]` (answers *and* stats) is bit-identical to the solo
    /// [`OnionIndex::top_k_max`] run with `directions[q]`: the shared
    /// traversal only amortizes row reads across the batch, it never
    /// shows a query a row its solo walk would not have examined.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for any wrong-length
    /// direction and [`ModelError::InvalidValue`] for `k == 0`.
    pub fn top_k_max_multi(
        &self,
        directions: &[Vec<f64>],
        k: usize,
    ) -> Result<Vec<TopKResult>, ModelError> {
        for direction in directions {
            if direction.len() != self.dims {
                return Err(ModelError::ArityMismatch {
                    expected: self.dims,
                    actual: direction.len(),
                });
            }
        }
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let m = directions.len();
        // Per-query hint detection, identical to the solo walk's.
        let norms: Vec<f64> = directions
            .iter()
            .map(|d| d.iter().map(|a| a * a).sum::<f64>().sqrt())
            .collect();
        let hints: Vec<Option<usize>> = directions
            .iter()
            .zip(&norms)
            .map(|(direction, &norm)| {
                if norm > 0.0 {
                    self.hints.iter().position(|h| {
                        let dot: f64 = h.iter().zip(direction).map(|(a, b)| a * b).sum();
                        dot / norm > 1.0 - 1e-9
                    })
                } else {
                    None
                }
            })
            .collect();

        let mut heaps: Vec<TopKHeap> = (0..m).map(|_| TopKHeap::new(k)).collect();
        let mut stats: Vec<QueryStats> = (0..m).map(|_| QueryStats::new()).collect();
        let mut active = vec![true; m];
        let mut n_active = m;
        for (l, layer) in self.layers.iter().enumerate() {
            if n_active == 0 {
                break;
            }
            for q in 0..m {
                if active[q] {
                    stats[q].nodes_visited += 1;
                }
            }
            for &idx in layer {
                let row = self.points.row(idx);
                for q in 0..m {
                    if !active[q] {
                        continue;
                    }
                    stats[q].tuples_examined += 1;
                    heaps[q].offer(ScoredItem {
                        index: idx,
                        score: kernels::dot(&directions[q], row),
                    });
                }
            }
            for q in 0..m {
                if !active[q] {
                    continue;
                }
                let floor = heaps[q].floor();
                let classical_stop = floor.is_some() && l + 1 >= k && l < self.exact_hull_layers;
                let bound_stop = match (floor, self.remaining_box.get(l + 1)) {
                    (Some(f), Some(next_box)) => {
                        let mut bound = next_box.upper_bound(&directions[q]);
                        if let Some(h) = hints[q] {
                            bound = bound.min(norms[q] * self.hint_support[l + 1][h]);
                        }
                        f >= bound
                    }
                    _ => false,
                };
                if classical_stop || bound_stop {
                    active[q] = false;
                    n_active -= 1;
                }
            }
        }
        Ok(heaps
            .into_iter()
            .zip(stats)
            .map(|(heap, mut st)| {
                st.comparisons = heap.comparisons();
                TopKResult {
                    results: heap.into_sorted(),
                    stats: st,
                }
            })
            .collect())
    }

    /// [`OnionIndex::top_k_max`] through the quantized coarse pass: the
    /// layer walk groups each layer's members by quantized block and
    /// rejects groups whose i8 upper bound is strictly below the current
    /// K-th floor before reading any f64 row. Results are **bit-identical**
    /// to [`OnionIndex::top_k_max`] — a pruned row's offer would have been
    /// rejected by the heap anyway (strict `ub < floor`, and the bound
    /// dominates the exact kernel score). Early-stop decisions are
    /// unchanged. `tuples_examined` counts only exact-scored rows. Falls
    /// back to the exact walk when no quantized structure is attached.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_quant(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.top_k_max_quant_report(direction, k).map(|(r, _)| r)
    }

    /// [`OnionIndex::top_k_max_quant`] with the coarse-pass work report.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_quant_report(
        &self,
        direction: &[f64],
        k: usize,
    ) -> Result<(TopKResult, QuantPruneReport), ModelError> {
        let Some(quant) = &self.quant else {
            let result = self.top_k_impl(direction, k, kernels::dot)?;
            let report = QuantPruneReport {
                rows_exact: result.stats.tuples_examined,
                ..QuantPruneReport::default()
            };
            return Ok((result, report));
        };
        if direction.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: direction.len(),
            });
        }
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let norm: f64 = direction.iter().map(|a| a * a).sum::<f64>().sqrt();
        let hint = if norm > 0.0 {
            self.hints.iter().position(|h| {
                let dot: f64 = h.iter().zip(direction).map(|(a, b)| a * b).sum();
                dot / norm > 1.0 - 1e-9
            })
        } else {
            None
        };

        let qq = quant.prepare(direction);
        let mut heap = TopKHeap::new(k);
        let mut stats = QueryStats::new();
        let mut report = QuantPruneReport::default();
        let mut ubs: Vec<f64> = Vec::new();
        // Cached heap floor, updated whenever an offer is kept (same
        // discipline as the flat scan).
        let mut floor: Option<f64> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            stats.nodes_visited += 1;
            let mut pos = 0usize;
            while pos < layer.len() {
                // Peeled layers are sorted ascending, so each quantized
                // block's members form one contiguous run; taking maximal
                // same-block runs also stays correct for the (1-D) layers
                // that are not sorted — runs just get shorter.
                let b = quant.block_of(layer[pos]);
                let (start, _) = quant.block_range(b);
                let mut end = pos + 1;
                while end < layer.len() && quant.block_of(layer[end]) == b {
                    end += 1;
                }
                let group = &layer[pos..end];
                pos = end;
                report.blocks_total += 1;
                // Snapshot of the floor for this group's prune decisions;
                // the floor only rises, so staleness is only looseness.
                let f0 = floor;
                let mut sub_filter = false;
                if let Some(f) = f0 {
                    if qq.block_upper_bound(b) < f {
                        report.blocks_pruned += 1;
                        report.rows_pruned += group.len() as u64;
                        continue;
                    }
                    // The sub-corner pass costs one O(d) corner per 32
                    // rows of the block; it pays once the group holds at
                    // least that many members. Scattered members are
                    // cheaper to just score exactly.
                    if group.len() >= quant.subs(b) {
                        qq.sub_upper_bounds(quant, b, &mut ubs);
                        sub_filter = true;
                    }
                }
                if sub_filter {
                    // Dense-group fast path. The group is a strictly
                    // increasing index list that is mostly a handful of
                    // long consecutive runs separated by peeled holes
                    // (the core bucket keeps ~97% of rows). Galloping to
                    // each run's end and then stepping the run one
                    // sub-block at a time lets a pruned sub reject
                    // `QUANT_SUB_ROWS` rows with a single compare instead
                    // of one lookup per member — this loop, not the exact
                    // kernel, is what dominates the quantized walk.
                    let mut gi = 0usize;
                    while gi < group.len() {
                        let base = group[gi];
                        // `group` strictly increases, so "prefix is
                        // consecutive" is a monotone predicate: gallop
                        // then binary-search its boundary.
                        let mut last_ok = gi;
                        let mut step = 1usize;
                        while last_ok + step < group.len()
                            && group[last_ok + step] - base == last_ok + step - gi
                        {
                            last_ok += step;
                            step *= 2;
                        }
                        let mut lo = last_ok;
                        let mut hi = (last_ok + step).min(group.len() - 1);
                        while lo < hi {
                            let mid = (lo + hi).div_ceil(2);
                            if group[mid] - base == mid - gi {
                                lo = mid;
                            } else {
                                hi = mid - 1;
                            }
                        }
                        let run_end = lo + 1;
                        let run_stop = base + (run_end - gi);
                        gi = run_end;
                        let mut row = base;
                        while row < run_stop {
                            let s = (row - start) / QUANT_SUB_ROWS;
                            let sub_stop = (start + (s + 1) * QUANT_SUB_ROWS).min(run_stop);
                            // Prune against the *live* floor: it only
                            // rises above the snapshot, and prune-only
                            // soundness holds for any floor the heap has
                            // actually reached.
                            if let Some(f) = floor {
                                if ubs[s] < f {
                                    report.rows_pruned += (sub_stop - row) as u64;
                                    report.subblocks_pruned += 1;
                                    row = sub_stop;
                                    continue;
                                }
                            }
                            for idx in row..sub_stop {
                                report.rows_exact += 1;
                                stats.tuples_examined += 1;
                                if heap.offer(ScoredItem {
                                    index: idx,
                                    score: kernels::dot(direction, self.points.row(idx)),
                                }) {
                                    floor = heap.floor();
                                }
                            }
                            row = sub_stop;
                        }
                    }
                } else {
                    for &idx in group {
                        report.rows_exact += 1;
                        stats.tuples_examined += 1;
                        if heap.offer(ScoredItem {
                            index: idx,
                            score: kernels::dot(direction, self.points.row(idx)),
                        }) {
                            floor = heap.floor();
                        }
                    }
                }
            }
            // Identical early-stop decisions to the exact walk: pruning
            // never changes the heap contents, so the floor and both
            // stopping bounds are the same bits.
            if heap.floor().is_some() && l + 1 >= k && l < self.exact_hull_layers {
                break;
            }
            if let (Some(f), Some(next_box)) = (heap.floor(), self.remaining_box.get(l + 1)) {
                let mut bound = next_box.upper_bound(direction);
                if let Some(h) = hint {
                    bound = bound.min(norm * self.hint_support[l + 1][h]);
                }
                if f >= bound {
                    break;
                }
            }
        }
        stats.comparisons = heap.comparisons();
        Ok((
            TopKResult {
                results: heap.into_sorted(),
                stats,
            },
            report,
        ))
    }

    /// Top-K tuples minimizing `direction . x` (scores reported are the
    /// *minimized* values, ascending).
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_min(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        let negated: Vec<f64> = direction.iter().map(|a| -a).collect();
        let mut result = self.top_k_max(&negated, k)?;
        for item in &mut result.results {
            item.score = -item.score;
        }
        Ok(result)
    }
}

/// Exact support `max dir . x` over the alive rows of the nested legacy
/// representation — the "before" counterpart of
/// [`kernels::max_score_alive`].
fn support_of_rows(alive: &[bool], points: &[Vec<f64>], dir: &[f64]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for (i, p) in points.iter().enumerate() {
        if alive[i] {
            let s: f64 = dir.iter().zip(p).map(|(a, v)| a * v).sum();
            best = best.max(s);
        }
    }
    best
}

/// 1-D "hull": the min and max of the remaining points.
fn extremes_1d(store: &PointStore, alive: &[bool]) -> Vec<usize> {
    let mut lo: Option<usize> = None;
    let mut hi: Option<usize> = None;
    for (i, p) in store.rows().enumerate() {
        if !alive[i] {
            continue;
        }
        if lo.map(|j| p[0] < store.row(j)[0]).unwrap_or(true) {
            lo = Some(i);
        }
        if hi.map(|j| p[0] > store.row(j)[0]).unwrap_or(true) {
            hi = Some(i);
        }
    }
    let mut out = Vec::new();
    if let Some(l) = lo {
        out.push(l);
    }
    if let Some(h) = hi {
        if Some(h) != lo {
            out.push(h);
        }
    }
    out
}

/// Exact 2-D convex hull (monotone chain) over the still-alive points,
/// reusing a global x-then-y sorted order.
fn hull_2d(store: &PointStore, alive: &[bool], order: &[usize]) -> Vec<usize> {
    let live: Vec<usize> = order.iter().copied().filter(|&i| alive[i]).collect();
    if live.len() <= 2 {
        return live;
    }
    let cross = |o: usize, a: usize, b: usize| -> f64 {
        let (po, pa, pb) = (store.row(o), store.row(a), store.row(b));
        (pa[0] - po[0]) * (pb[1] - po[1]) - (pa[1] - po[1]) * (pb[0] - po[0])
    };
    let mut lower: Vec<usize> = Vec::new();
    for &p in &live {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0.0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<usize> = Vec::new();
    for &p in live.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0.0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    // Collinear degenerate inputs can produce duplicates; dedup to keep the
    // peel making progress.
    lower.sort_unstable();
    lower.dedup();
    lower
}

/// Argmax of `dir . x` over the alive points: the *first* strict maximum,
/// which is deterministic regardless of which thread evaluates it.
fn sweep_argmax(points: &[Vec<f64>], alive: &[bool], dir: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        let s: f64 = dir.iter().zip(p).map(|(a, v)| a * v).sum();
        if best.map(|(_, bs)| s > bs).unwrap_or(true) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

/// Legacy direction-sweep extreme set for d >= 3 over nested points: one
/// pass over `Vec<Vec<f64>>` per direction, fanned across `threads` OS
/// threads. Each direction's argmax is independent and the union is
/// sorted + deduplicated, so the result is identical for every thread
/// count — and identical to [`sweep_layer_flat_threads`].
fn sweep_layer_threads(
    points: &[Vec<f64>],
    alive: &[bool],
    bundle: &DirectionBundle,
    threads: usize,
) -> Vec<usize> {
    let dirs = bundle.directions();
    let workers = threads.max(1).min(dirs.len()).max(1);
    let mut layer: Vec<usize> = if workers <= 1 {
        dirs.iter()
            .filter_map(|dir| sweep_argmax(points, alive, dir))
            .collect()
    } else {
        let chunk = dirs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            // Collecting the handles is what makes this parallel: a lazy
            // chain would join each worker before spawning the next.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> = dirs
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .filter_map(|dir| sweep_argmax(points, alive, dir))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    layer.sort_unstable();
    layer.dedup();
    layer
}

/// Direction-sweep extreme set for d >= 3 over the flat store: **one**
/// streaming row-major pass updates every direction's running argmax
/// ([`kernels::sweep_argmax_block`]); with threads, each worker makes one
/// pass for its direction chunk. Per-direction winners match the legacy
/// per-direction sweep exactly (same row order, same strict-max rule), so
/// the sorted + deduplicated union is bit-identical at any thread count.
///
/// With a quantized side structure the pass runs block by block, and a
/// block is skipped when **every** direction in the chunk already has a
/// winner whose score the block's coarse bound cannot strictly exceed
/// (`ub <= best`; a strict improvement is required to replace a winner,
/// and the bound dominates every row's exact score, so the skipped block
/// cannot change any argmax — a NaN running best makes the comparison
/// false and disables the skip). Winners stay bit-identical.
fn sweep_layer_flat_threads(
    store: &PointStore,
    alive: &[bool],
    bundle: &DirectionBundle,
    threads: usize,
    quant: Option<&QuantizedStore>,
) -> Vec<usize> {
    let dirs = bundle.directions();
    let workers = threads.max(1).min(dirs.len()).max(1);
    let dims = store.dims();
    let sweep_chunk = |part: &[Vec<f64>]| -> Vec<usize> {
        let mut best = vec![None; part.len()];
        match quant {
            None => kernels::sweep_argmax_block(store.flat(), dims, alive, part, &mut best),
            Some(q) => {
                let preps: Vec<_> = part.iter().map(|dir| q.prepare(dir)).collect();
                for b in 0..q.blocks() {
                    let (start, m) = q.block_range(b);
                    let skippable = preps.iter().zip(best.iter()).all(|(prep, slot)| {
                        matches!(slot, Some((_, bs)) if prep.block_upper_bound(b) <= *bs)
                    });
                    if skippable {
                        continue;
                    }
                    kernels::sweep_argmax_block_at(
                        &store.flat()[start * dims..(start + m) * dims],
                        dims,
                        &alive[start..start + m],
                        start,
                        part,
                        &mut best,
                    );
                }
            }
        }
        best.into_iter().flatten().map(|(i, _)| i).collect()
    };
    let mut layer: Vec<usize> = if workers <= 1 {
        sweep_chunk(dirs)
    } else {
        let chunk = dirs.len().div_ceil(workers);
        let sweep_chunk = &sweep_chunk;
        std::thread::scope(|scope| {
            // Collecting the handles is what makes this parallel: a lazy
            // chain would join each worker before spawning the next.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> = dirs
                .chunks(chunk)
                .map(|part| scope.spawn(move || sweep_chunk(part)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    layer.sort_unstable();
    layer.dedup();
    layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_top_k;
    use proptest::prelude::*;

    fn gaussian_points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        // Deterministic pseudo-Gaussian points without rand (test helper).
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (0..12).map(|_| next()).sum::<f64>())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn build_validates() {
        assert!(matches!(OnionIndex::build(vec![]), Err(ModelError::Empty)));
        assert!(OnionIndex::build(vec![vec![]]).is_err());
        assert!(OnionIndex::build(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn layers_partition_the_points() {
        let points = gaussian_points(3, 500, 2);
        let onion = OnionIndex::build(points).unwrap();
        let mut all: Vec<usize> = onion.layers.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 500, "every point in exactly one layer");
    }

    #[test]
    fn query_matches_scan_2d() {
        let points = gaussian_points(5, 800, 2);
        let onion = OnionIndex::build(points.clone()).unwrap();
        for (k, dir) in [
            (1usize, vec![1.0, 0.3]),
            (5, vec![-0.7, 1.0]),
            (10, vec![0.0, -1.0]),
        ] {
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert!(
                fast.score_equivalent(&slow, 1e-9),
                "k={k} dir={dir:?}: {:?} vs {:?}",
                fast.results,
                slow.results
            );
            assert!(fast.stats.tuples_examined < slow.stats.tuples_examined);
        }
    }

    #[test]
    fn query_matches_scan_3d_gaussian() {
        // The paper's experimental setting: 3-attribute Gaussian data.
        let points = gaussian_points(11, 2000, 3);
        let onion = OnionIndex::build(points.clone()).unwrap();
        for k in [1usize, 10] {
            let dir = vec![0.5, -1.0, 0.25];
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert!(fast.score_equivalent(&slow, 1e-9));
            // The tuples examined by Onion are roughly N-independent (the
            // layer walk stops once the remaining-set bound falls under the
            // floor), so at this small N the ratio is modest; the paper-
            // scale factors emerge at large N and are measured by the E1
            // bench.
            let speedup = fast.stats.speedup_vs(&slow.stats).unwrap();
            assert!(speedup > 2.0, "expected a real speedup, got {speedup}");
        }
    }

    #[test]
    fn batched_walk_matches_solo_runs_bit_for_bit() {
        for d in [2usize, 3] {
            let points = gaussian_points(21 + d as u64, 1500, d);
            let hints = vec![{
                let mut h = vec![0.0; d];
                h[0] = 1.0;
                h
            }];
            let onion = OnionIndex::build_with_hints(points, &hints, 64, 32, 7).unwrap();
            // A mix of hint-parallel, perturbed, and opposed directions so
            // queries stop at different layers.
            let dirs: Vec<Vec<f64>> = (0..6)
                .map(|q| {
                    (0..d)
                        .map(|j| {
                            if j == 0 {
                                1.0 - q as f64 * 0.4
                            } else {
                                (q * 7 + j) as f64 * 0.1 - 0.3
                            }
                        })
                        .collect()
                })
                .collect();
            for k in [1usize, 5] {
                let batched = onion.top_k_max_multi(&dirs, k).unwrap();
                for (q, dir) in dirs.iter().enumerate() {
                    let solo = onion.top_k_max(dir, k).unwrap();
                    assert_eq!(batched[q], solo, "d={d} k={k} q={q}");
                }
            }
        }
    }

    #[test]
    fn batched_walk_validates_and_handles_empty_batch() {
        let onion = OnionIndex::build(vec![vec![1.0, 2.0], vec![3.0, 0.5]]).unwrap();
        assert!(onion.top_k_max_multi(&[vec![1.0]], 1).is_err());
        assert!(onion.top_k_max_multi(&[vec![1.0, 1.0]], 0).is_err());
        assert!(onion.top_k_max_multi(&[], 1).unwrap().is_empty());
    }

    #[test]
    fn min_query_is_negated_max() {
        let points = gaussian_points(13, 300, 2);
        let onion = OnionIndex::build(points.clone()).unwrap();
        let dir = vec![1.0, 1.0];
        let mins = onion.top_k_min(&dir, 3).unwrap();
        let slow = scan_top_k(&points, 3, |p| -(p[0] + p[1]));
        for (m, s) in mins.results.iter().zip(&slow.results) {
            assert_eq!(m.index, s.index);
            assert!((m.score + s.score).abs() < 1e-12);
        }
        // Min scores ascend.
        assert!(mins.results[0].score <= mins.results[2].score);
    }

    #[test]
    fn query_validates() {
        let onion = OnionIndex::build(vec![vec![1.0, 2.0]]).unwrap();
        assert!(onion.top_k_max(&[1.0], 1).is_err());
        assert!(onion.top_k_max(&[1.0, 1.0], 0).is_err());
    }

    #[test]
    fn degenerate_collinear_points_still_work() {
        let points: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let onion = OnionIndex::build(points).unwrap();
        let fast = onion.top_k_max(&[1.0, 0.0], 3).unwrap();
        assert_eq!(fast.indexes(), vec![19, 18, 17]);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let points = vec![vec![1.0, 1.0]; 10];
        let onion = OnionIndex::build(points).unwrap();
        let r = onion.top_k_max(&[1.0, 0.0], 3).unwrap();
        assert_eq!(r.results.len(), 3);
        assert!(r.results.iter().all(|s| (s.score - 1.0).abs() < 1e-12));
    }

    #[test]
    fn core_bucket_is_reachable_and_exact() {
        // Tiny layer cap forces queries into the core bucket.
        let points = gaussian_points(17, 500, 2);
        let onion = OnionIndex::build_with(points.clone(), 2, 8, 1).unwrap();
        assert!(onion.layer_count() <= 3);
        // k larger than outer layers forces core examination; still exact.
        let k = 50;
        let dir = vec![0.3, 0.7];
        let fast = onion.top_k_max(&dir, k).unwrap();
        let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
        assert!(fast.score_equivalent(&slow, 1e-9));
    }

    #[test]
    fn hinted_queries_stop_earlier_on_hostile_data() {
        // Skewed, high-dimensional data where the generic box/sphere bounds
        // converge slowly: counts and bounded ratios with wildly different
        // query weights.
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Vec<f64>> = (0..20_000)
            .map(|_| {
                vec![
                    (next() * 10.0).floor(),
                    next() * 40.0,
                    next(),
                    next() * 20.0,
                    (next() * 5.0).floor(),
                    (next() * 3.0).floor(),
                ]
            })
            .collect();
        let weights = vec![22.0, -4.0, 120.0, -2.5, 15.0, 70.0];
        let plain = OnionIndex::build(points.clone()).unwrap();
        let hinted =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&weights), 64, 32, 7)
                .unwrap();
        let k = 10;
        let slow = scan_top_k(&points, k, |p| {
            weights.iter().zip(p).map(|(a, v)| a * v).sum()
        });
        let plain_result = plain.top_k_max(&weights, k).unwrap();
        let hinted_result = hinted.top_k_max(&weights, k).unwrap();
        assert!(plain_result.score_equivalent(&slow, 1e-9));
        assert!(hinted_result.score_equivalent(&slow, 1e-9));
        assert!(
            hinted_result.stats.tuples_examined * 5 < plain_result.stats.tuples_examined,
            "hint should slash examined tuples: {} vs {}",
            hinted_result.stats.tuples_examined,
            plain_result.stats.tuples_examined
        );
        // Scaled queries still match the hint.
        let doubled: Vec<f64> = weights.iter().map(|w| w * 2.0).collect();
        let scaled = hinted.top_k_max(&doubled, k).unwrap();
        assert_eq!(scaled.indexes(), hinted_result.indexes());
        assert_eq!(
            scaled.stats.tuples_examined,
            hinted_result.stats.tuples_examined
        );
    }

    #[test]
    fn hull_theorem_stops_2d_queries_without_bounds() {
        // Uniform square data with a diagonal query: the box-corner bound
        // (max_x + max_y) is never attained, so the generic bound is loose;
        // the exact-hull theorem must stop the walk after ~k layers anyway.
        let mut state = 77u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Vec<f64>> = (0..20_000).map(|_| vec![next(), next()]).collect();
        let onion = OnionIndex::build(points.clone()).unwrap();
        let dir = vec![1.0, 1.0];
        for k in [1usize, 5, 10] {
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| p[0] + p[1]);
            assert!(fast.score_equivalent(&slow, 1e-9), "k={k}");
            // The theorem caps the walk at k layers (+ examined members).
            assert!(
                fast.stats.nodes_visited <= k as u64,
                "k={k}: visited {} layers",
                fast.stats.nodes_visited
            );
            assert!(
                fast.stats.tuples_examined < 2_000,
                "k={k}: examined {}",
                fast.stats.tuples_examined
            );
        }
    }

    #[test]
    fn hull_theorem_survives_inserts() {
        let mut state = 5u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut points: Vec<Vec<f64>> = (0..2_000).map(|_| vec![next(), next()]).collect();
        let mut onion = OnionIndex::build(points.clone()).unwrap();
        // Insert points including new global optima.
        for _ in 0..50 {
            let p = vec![next() * 2.0, next() * 2.0];
            onion.insert(p.clone()).unwrap();
            points.push(p);
        }
        let dir = vec![0.7, 0.3];
        for k in [1usize, 4] {
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| 0.7 * p[0] + 0.3 * p[1]);
            assert!(fast.score_equivalent(&slow, 1e-9), "k={k}");
        }
    }

    #[test]
    fn inserts_stay_exact_and_rebuild_restores_speed() {
        let points = gaussian_points(21, 1000, 3);
        let dir = vec![0.5, -0.3, 0.8];
        let mut onion =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&dir), 64, 32, 7)
                .unwrap();
        // Insert 200 new points, some of them new optima.
        let mut all = points;
        let extra = gaussian_points(99, 200, 3);
        for p in extra {
            let scaled: Vec<f64> = p.iter().map(|v| v * 1.5).collect();
            onion.insert(scaled.clone()).unwrap();
            all.push(scaled);
        }
        assert_eq!(onion.len(), 1200);
        let k = 5;
        let slow = scan_top_k(&all, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
        let fast = onion.top_k_max(&dir, k).unwrap();
        assert!(
            fast.score_equivalent(&slow, 1e-9),
            "inserts must stay exact"
        );
        let before_rebuild = fast.stats.tuples_examined;
        onion.rebuild().unwrap();
        let rebuilt = onion.top_k_max(&dir, k).unwrap();
        assert!(rebuilt.score_equivalent(&slow, 1e-9));
        assert!(
            rebuilt.stats.tuples_examined <= before_rebuild,
            "rebuild should not examine more: {} vs {}",
            rebuilt.stats.tuples_examined,
            before_rebuild
        );
        // Wrong arity rejected.
        assert!(onion.insert(vec![1.0]).is_err());
    }

    #[test]
    fn append_points_stays_exact_and_keeps_shallow_layers() {
        for d in [2usize, 3] {
            let points = gaussian_points(41 + d as u64, 1200, d);
            let hint: Vec<f64> = (0..d).map(|i| if i == 0 { 1.0 } else { -0.2 }).collect();
            let mut onion = OnionIndex::build_with_hints(
                points.clone(),
                std::slice::from_ref(&hint),
                64,
                32,
                7,
            )
            .unwrap();
            let layers_before = onion.layer_count();
            // A deep batch: interior points well inside the cloud.
            let deep: Vec<Vec<f64>> = gaussian_points(77, 40, d)
                .into_iter()
                .map(|p| p.iter().map(|v| v * 0.05).collect())
                .collect();
            let report = onion.append_points(&deep).unwrap();
            assert_eq!(report.appended, 40);
            assert!(
                report.kept_layers > 0,
                "d={d}: interior batch must keep shallow layers (of {layers_before})"
            );
            let mut all = points;
            all.extend(deep.iter().cloned());
            // An outlier batch: new optima that dirty the outermost hull.
            let outliers: Vec<Vec<f64>> = gaussian_points(88, 8, d)
                .into_iter()
                .map(|p| p.iter().map(|v| v * 3.0 + 1.0).collect())
                .collect();
            let report = onion.append_points(&outliers).unwrap();
            assert_eq!(report.kept_layers, 0, "d={d}: outliers re-peel everything");
            all.extend(outliers.iter().cloned());
            assert_eq!(onion.len(), all.len());
            // Exactness against a scan of the full augmented set, for the
            // hint direction and a generic one.
            for k in [1usize, 7] {
                for dir in [hint.clone(), (0..d).map(|i| 0.3 * i as f64 - 0.8).collect()] {
                    let fast = onion.top_k_max(&dir, k).unwrap();
                    let slow = scan_top_k(&all, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
                    assert!(
                        fast.score_equivalent(&slow, 1e-9),
                        "d={d} k={k} dir={dir:?} diverged after append"
                    );
                }
            }
        }
    }

    #[test]
    fn append_points_validates_and_drops_quant() {
        let mut onion = OnionIndex::build_quantized(gaussian_points(5, 300, 3)).unwrap();
        assert!(onion.is_quantized());
        assert!(matches!(onion.append_points(&[]), Err(ModelError::Empty)));
        assert!(onion.append_points(&[vec![1.0]]).is_err());
        assert_eq!(onion.len(), 300, "failed appends leave the index intact");
        assert!(
            onion.is_quantized(),
            "failed appends keep the quant structure"
        );
        onion.append_points(&[vec![0.1, 0.2, 0.3]]).unwrap();
        assert!(!onion.is_quantized(), "the store changed under the quant");
        onion.rebuild().unwrap();
        assert!(onion.is_quantized());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // d >= 3 exercises the threaded direction sweep; the private layer
        // structure (not just query answers) must match exactly.
        for d in [3usize, 4] {
            let points = gaussian_points(31 + d as u64, 600, d);
            let baseline = OnionIndex::build(points.clone()).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par = OnionIndex::build_parallel(points.clone(), threads).unwrap();
                assert_eq!(par.layers, baseline.layers, "d={d} threads={threads}");
                assert_eq!(par.remaining_box, baseline.remaining_box);
                assert_eq!(par.exact_hull_layers, baseline.exact_hull_layers);
                let q: Vec<f64> = (0..d).map(|i| 1.0 - 0.4 * i as f64).collect();
                let a = par.top_k_max(&q, 7).unwrap();
                let b = baseline.top_k_max(&q, 7).unwrap();
                assert_eq!(a.results, b.results);
                assert_eq!(a.stats.tuples_examined, b.stats.tuples_examined);
            }
        }
        // Hinted parallel builds match hinted sequential builds too.
        let points = gaussian_points(53, 400, 3);
        let hint = vec![0.5, -0.25, 1.0];
        let seq =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&hint), 16, 16, 3)
                .unwrap();
        let par = OnionIndex::build_with_hints_threads(points, &[hint], 16, 16, 3, 4).unwrap();
        assert_eq!(par.layers, seq.layers);
        assert_eq!(par.hint_support, seq.hint_support);
    }

    #[test]
    fn legacy_build_and_query_are_bit_identical() {
        // The whole point of the kernel rewrite: same bits, fewer cycles.
        // Layer structure, bounds, and query results (values *and* work
        // accounting) must match the nested-representation reference
        // exactly, for the 2-D hull path and the d >= 3 sweep path alike.
        for d in [2usize, 3, 5] {
            let points = gaussian_points(101 + d as u64, 700, d);
            let kernel = OnionIndex::build(points.clone()).unwrap();
            let legacy = OnionIndex::build_legacy(points).unwrap();
            assert_eq!(kernel.layers, legacy.layers, "d={d}");
            assert_eq!(kernel.remaining_box, legacy.remaining_box, "d={d}");
            assert_eq!(kernel.exact_hull_layers, legacy.exact_hull_layers);
            for k in [1usize, 5, 20] {
                let dir: Vec<f64> = (0..d).map(|i| 0.9 - 0.33 * i as f64).collect();
                let a = kernel.top_k_max(&dir, k).unwrap();
                let b = legacy.top_k_max_legacy(&dir, k).unwrap();
                assert_eq!(a, b, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn quantized_build_is_bit_identical_and_queries_match() {
        for d in [1usize, 2, 3, 5] {
            let points = gaussian_points(211 + d as u64, 1500, d);
            let plain = OnionIndex::build_with(points.clone(), 24, 16, 7).unwrap();
            let quant = OnionIndex::build_quantized_with(points, 24, 16, 7, 1).unwrap();
            assert_eq!(quant.layers, plain.layers, "d={d}");
            assert_eq!(quant.remaining_box, plain.remaining_box, "d={d}");
            assert!(quant.is_quantized() && !plain.is_quantized());
            for k in [1usize, 10, 40] {
                let dir: Vec<f64> = (0..d).map(|j| 0.9 - 0.27 * j as f64).collect();
                let exact = plain.top_k_max(&dir, k).unwrap();
                let coarse = quant.top_k_max_quant(&dir, k).unwrap();
                assert_eq!(coarse.results, exact.results, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn quantized_threaded_build_matches_sequential() {
        let points = gaussian_points(77, 900, 3);
        let seq = OnionIndex::build_quantized_with(points.clone(), 16, 16, 3, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let par = OnionIndex::build_quantized_with(points.clone(), 16, 16, 3, threads).unwrap();
            assert_eq!(par.layers, seq.layers, "threads={threads}");
        }
    }

    #[test]
    fn quantized_query_actually_prunes_core_bucket() {
        // Few layers + big core bucket: the walk degenerates to scanning
        // the core, which is exactly where the coarse pass must bite.
        let points = gaussian_points(303, 20_000, 3);
        let onion = OnionIndex::build_quantized_with(points, 8, 16, 7, 1).unwrap();
        let dir = vec![0.443, 0.222, 0.153];
        let (result, report) = onion.top_k_max_quant_report(&dir, 10).unwrap();
        let exact = onion.top_k_max(&dir, 10).unwrap();
        assert_eq!(result.results, exact.results);
        assert!(
            report.prune_rate() > 0.5,
            "core bucket should mostly prune, got {}",
            report.prune_rate()
        );
        assert!(result.stats.tuples_examined < exact.stats.tuples_examined);
    }

    #[test]
    fn insert_drops_quant_and_rebuild_restores_it() {
        let points = gaussian_points(41, 800, 3);
        let mut onion = OnionIndex::build_quantized(points).unwrap();
        assert!(onion.is_quantized());
        onion.insert(vec![9.0, 9.0, 9.0]).unwrap();
        assert!(!onion.is_quantized(), "stale quant must be dropped");
        // Fallback path still answers exactly.
        let dir = vec![1.0, 0.5, 0.25];
        let exact = onion.top_k_max(&dir, 5).unwrap();
        let coarse = onion.top_k_max_quant(&dir, 5).unwrap();
        assert_eq!(coarse.results, exact.results);
        onion.rebuild().unwrap();
        assert!(onion.is_quantized());
        let exact = onion.top_k_max(&dir, 5).unwrap();
        let coarse = onion.top_k_max_quant(&dir, 5).unwrap();
        assert_eq!(coarse.results, exact.results);
    }

    #[test]
    fn hint_validation() {
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert!(OnionIndex::build_with_hints(points.clone(), &[vec![1.0]], 4, 4, 1).is_err());
        assert!(OnionIndex::build_with_hints(points.clone(), &[vec![0.0, 0.0]], 4, 4, 1).is_err());
        assert!(OnionIndex::build_with_hints(points, &[vec![f64::NAN, 1.0]], 4, 4, 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_onion_equals_scan(
            seed in 0u64..1000,
            n in 10usize..300,
            d in 1usize..5,
            k in 1usize..12,
            dir_seed in 0u64..100,
        ) {
            let points = gaussian_points(seed, n, d);
            let onion = OnionIndex::build(points.clone()).unwrap();
            let mut s = dir_seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let dir: Vec<f64> = (0..d).map(|_| next() * 4.0).collect();
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            prop_assert!(fast.score_equivalent(&slow, 1e-9));
        }

        #[test]
        fn prop_batched_walk_bit_identical_to_solo(
            seed in 0u64..500,
            n in 10usize..250,
            d in 1usize..5,
            m in 1usize..6,
            k in 1usize..10,
            dir_seed in 0u64..100,
        ) {
            let points = gaussian_points(seed.wrapping_add(3_000), n, d);
            let onion = OnionIndex::build(points).unwrap();
            let mut s = dir_seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let dirs: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..d).map(|_| next() * 4.0).collect())
                .collect();
            let batched = onion.top_k_max_multi(&dirs, k).unwrap();
            for (q, dir) in dirs.iter().enumerate() {
                prop_assert_eq!(&batched[q], &onion.top_k_max(dir, k).unwrap());
            }
        }

        #[test]
        fn prop_kernel_build_bit_identical_to_legacy(
            seed in 0u64..500,
            n in 10usize..200,
            d in 1usize..5,
            k in 1usize..10,
            dir_seed in 0u64..100,
        ) {
            let points = gaussian_points(seed.wrapping_add(7_000), n, d);
            let kernel = OnionIndex::build(points.clone()).unwrap();
            let legacy = OnionIndex::build_legacy(points).unwrap();
            prop_assert_eq!(&kernel.layers, &legacy.layers);
            prop_assert_eq!(&kernel.remaining_box, &legacy.remaining_box);
            let mut s = dir_seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let dir: Vec<f64> = (0..d).map(|_| next() * 4.0).collect();
            let a = kernel.top_k_max(&dir, k).unwrap();
            let b = legacy.top_k_max_legacy(&dir, k).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_append_points_equals_scan(
            seed in 0u64..500,
            n in 10usize..200,
            extra in 1usize..40,
            d in 1usize..5,
            k in 1usize..10,
            scale in 0usize..3,
            dir_seed in 0u64..100,
        ) {
            // Batches at three scales: deep interior, in-distribution, and
            // outliers — the dirty frontier lands at different depths.
            let mut all = gaussian_points(seed.wrapping_add(11_000), n, d);
            let factor = [0.05, 1.0, 4.0][scale];
            let batch: Vec<Vec<f64>> = gaussian_points(seed.wrapping_add(13_000), extra, d)
                .into_iter()
                .map(|p| p.iter().map(|v| v * factor).collect())
                .collect();
            let mut onion = OnionIndex::build(all.clone()).unwrap();
            onion.append_points(&batch).unwrap();
            all.extend(batch);
            let mut s = dir_seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(29);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let dir: Vec<f64> = (0..d).map(|_| next() * 4.0).collect();
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&all, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            prop_assert!(fast.score_equivalent(&slow, 1e-9));
        }
    }
}
