//! Seeded worlds and request streams. The library only ever sees what
//! these functions generate from the run's `--seed`.

use crate::rng::{derive, SplitMix64};
use crate::trace::{SourceTotals, TimedSource};
use mbir_archive::dem::Dem;
use mbir_archive::error::ArchiveError;
use mbir_archive::grid::Grid2;
use mbir_archive::scene::BandId;
use mbir_archive::scene::SyntheticScene;
use mbir_archive::shard::ShardPlan;
use mbir_archive::stats::AccessStats;
use mbir_archive::synth::GaussianField;
use mbir_archive::tile::TileStore;
use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
use mbir_core::shard::{ArchiveShard, ShardedArchive};
use mbir_core::source::{CachedTileSource, CellSource};
use mbir_models::linear::{LinearModel, HPS_COEFFICIENTS};
use mbir_progressive::pyramid::AggregatePyramid;

/// Seed of the archive every query workload serves. The archive is fixed,
/// like a real one; `--seed` drives the requests sent to it, so runs with
/// different seeds measure the same data under different query streams.
pub const ARCHIVE_SEED: u64 = 2000;

/// Seed streams: each input of a run draws from its own derived seed.
pub const WORLD_STREAM: u64 = 1;
/// Request stream measured by the run.
pub const REQUEST_STREAM: u64 = 2;
/// Requests that warm the caches during set-up.
pub const WARMUP_STREAM: u64 = 3;

/// The attribute fields a world is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The HPS archive: TM4, TM5, TM7 reflectance plus elevation.
    Hps,
    /// A low-coherence four-attribute Gaussian field (roughness 0.85),
    /// whose top cells scatter across the whole grid.
    Rough,
}

/// The four attribute grids of a `rows x cols` world.
pub fn attribute_grids(field: Field, seed: u64, rows: usize, cols: usize) -> Vec<Grid2<f64>> {
    let seed = derive(seed, WORLD_STREAM);
    match field {
        Field::Hps => {
            let scene = SyntheticScene::new(seed, rows, cols).generate();
            let dem = Dem::synthetic(seed.wrapping_add(1), rows, cols, 0.0, 2500.0);
            let band = |id| scene.band(id).expect("scene generates its bands").clone();
            vec![
                band(BandId::TM4),
                band(BandId::TM5),
                band(BandId::TM7),
                dem.grid().clone(),
            ]
        }
        Field::Rough => (0..4u64)
            .map(|i| {
                GaussianField::new(seed.wrapping_add(i))
                    .with_roughness(0.85)
                    .generate(rows, cols)
                    .normalized(0.0, 100.0)
            })
            .collect(),
    }
}

/// One row-band shard: its band pyramids and its replica store groups
/// (each group's stores share one stats handle).
#[derive(Debug)]
pub struct ShardData {
    /// First global row of the band.
    pub row_offset: usize,
    /// Per-attribute pyramids over the band.
    pub pyramids: Vec<AggregatePyramid>,
    /// Replica groups over the band.
    pub groups: Vec<(Vec<TileStore>, AccessStats)>,
}

/// How each shard's pages are served.
#[derive(Debug, Clone, Copy)]
pub enum SourceConfig {
    /// Checksum-verifying replicas behind an LRU of `cache_pages` pages.
    Replicated {
        /// Per-shard LRU capacity in pages.
        cache_pages: usize,
    },
    /// Replica group 0 behind a [`CachedTileSource`] of `capacity` pages.
    Cached {
        /// Per-shard LRU capacity in pages.
        capacity: usize,
    },
}

/// The page source of one shard.
#[derive(Debug)]
pub enum PageSource<'a> {
    /// Replicated, checksum-verifying source.
    Replicated(ReplicatedSource<'a>),
    /// Single-copy cached source.
    Cached(CachedTileSource<'a>),
}

impl CellSource for PageSource<'_> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        match self {
            PageSource::Replicated(s) => s.base_cell(attr, row, col),
            PageSource::Cached(s) => s.base_cell(attr, row, col),
        }
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        match self {
            PageSource::Replicated(s) => s.page_of(row, col),
            PageSource::Cached(s) => s.page_of(row, col),
        }
    }

    fn pages_read(&self) -> u64 {
        match self {
            PageSource::Replicated(s) => s.pages_read(),
            PageSource::Cached(s) => s.pages_read(),
        }
    }

    fn ticks_elapsed(&self) -> u64 {
        match self {
            PageSource::Replicated(s) => s.ticks_elapsed(),
            PageSource::Cached(s) => s.ticks_elapsed(),
        }
    }
}

/// A shard's source as the engines see it: timed at the seam.
pub type Source<'a> = TimedSource<PageSource<'a>>;

/// A sharded, replicated archive built from attribute grids.
#[derive(Debug)]
pub struct Stack {
    /// Shards in band order.
    pub shards: Vec<ShardData>,
}

impl Stack {
    /// Splits `grids` into `shards` tile-aligned row bands, each with its
    /// own band pyramids and `replicas` store groups.
    pub fn build(grids: &[Grid2<f64>], shards: usize, replicas: usize, tile: usize) -> Stack {
        let (rows, cols) = (grids[0].rows(), grids[0].cols());
        let plan = ShardPlan::row_bands(rows, cols, shards, tile).expect("valid shard plan");
        let shards = plan
            .bands()
            .iter()
            .map(|band| {
                let slices: Vec<Grid2<f64>> = grids
                    .iter()
                    .map(|g| plan.extract_band(g, band.shard).expect("band in range"))
                    .collect();
                let pyramids = slices.iter().map(AggregatePyramid::build).collect();
                let groups = (0..replicas)
                    .map(|_| {
                        let stats = AccessStats::new();
                        let stores = slices
                            .iter()
                            .map(|s| {
                                TileStore::new(s.clone(), tile)
                                    .expect("valid tile size")
                                    .with_stats(stats.clone())
                            })
                            .collect();
                        (stores, stats)
                    })
                    .collect();
                ShardData {
                    row_offset: band.row_offset,
                    pyramids,
                    groups,
                }
            })
            .collect();
        Stack { shards }
    }

    /// One timed page source per shard.
    pub fn sources(&self, config: SourceConfig) -> Vec<Source<'_>> {
        self.shards
            .iter()
            .map(|shard| {
                // Both sources count cache traffic on the first store of
                // replica group 0.
                let stats = shard.groups[0].1.clone();
                let inner = match config {
                    SourceConfig::Replicated { cache_pages } => PageSource::Replicated(
                        ReplicatedSource::new(
                            shard.groups.iter().map(|(g, _)| g.as_slice()).collect(),
                            ReplicaConfig::default().with_cache_pages(cache_pages),
                        )
                        .expect("replicas agree"),
                    ),
                    SourceConfig::Cached { capacity } => PageSource::Cached(
                        CachedTileSource::new(&shard.groups[0].0, capacity).expect("stores agree"),
                    ),
                };
                TimedSource::new(inner, stats)
            })
            .collect()
    }

    /// The sharded archive over `sources` (one per shard, in band order).
    pub fn archive<'b, 'a: 'b>(
        &'b self,
        sources: &'b [Source<'a>],
    ) -> ShardedArchive<'b, Source<'a>> {
        let shards = self
            .shards
            .iter()
            .zip(sources)
            .map(|(shard, source)| ArchiveShard::new(&shard.pyramids, source, shard.row_offset))
            .collect();
        ShardedArchive::new(shards).expect("contiguous bands")
    }

    /// Reads one cell of every page through each shard's source, so a
    /// cache that fits its shard ends up holding all of it.
    pub fn preload(&self, sources: &[Source<'_>]) {
        for (shard, source) in self.shards.iter().zip(sources) {
            let store = &shard.groups[0].0[0];
            for page in 0..store.page_count() {
                let (row, col, _, _) = store.page_extent(page).expect("page in range");
                source.base_cell(0, row, col).expect("healthy page");
            }
        }
    }

    /// Pages one shard's band spans.
    pub fn pages_per_shard(&self) -> usize {
        self.shards[0].groups[0].0[0].page_count()
    }

    /// Store-level page reads so far, over every replica group.
    pub fn store_pages_read(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.groups.iter())
            .map(|(_, stats)| stats.pages_read())
            .sum()
    }

    /// Cache hits and misses so far, as counted by the sources.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let stats = &s.groups[0].1;
            (h + stats.cache_hits(), m + stats.cache_misses())
        })
    }
}

/// Summed timed totals over every shard source.
pub fn source_totals(sources: &[Source<'_>]) -> SourceTotals {
    sources
        .iter()
        .fold(SourceTotals::default(), |acc, s| acc.plus(s.totals()))
}

/// One top-K model query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The linear model to rank cells by.
    pub model: LinearModel,
    /// Result size.
    pub k: usize,
}

/// What a request stream asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// HPS coefficients, each perturbed by up to ±25% and sign-flipped
    /// with probability 1/8; k cycles through 1, 5, 10 and 20.
    Interactive,
    /// Mixed-sign rough-field coefficients perturbed by up to ±25%, k=1000.
    Survey,
    /// HPS coefficients perturbed by up to ±25%, k=10.
    Append,
}

/// Models of one calibration sweep.
pub const SWEEP_MODELS: usize = 32;

/// Result size of every sweep model.
pub const SWEEP_K: usize = 10;

/// A seeded, endless stream of distinct requests.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: SplitMix64,
    kind: QueryKind,
    issued: usize,
}

impl QueryStream {
    /// The stream `kind` draws from `seed` on `stream`.
    pub fn new(kind: QueryKind, seed: u64, stream: u64) -> Self {
        QueryStream {
            rng: SplitMix64::new(derive(seed, stream)),
            kind,
            issued: 0,
        }
    }

    fn perturbed(&mut self, base: &[f64], flip_one_in: Option<u64>) -> Vec<f64> {
        base.iter()
            .map(|&c| {
                let scaled = c * (1.0 + 0.25 * self.rng.symmetric());
                match flip_one_in {
                    Some(n) if self.rng.one_in(n) => -scaled,
                    _ => scaled,
                }
            })
            .collect()
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let (coefficients, k) = match self.kind {
            QueryKind::Interactive => {
                let k = [1, 5, 10, 20][self.issued % 4];
                (self.perturbed(&HPS_COEFFICIENTS, Some(8)), k)
            }
            QueryKind::Survey => (self.perturbed(&[1.0, -0.8, 0.6, -0.4], None), 1000),
            QueryKind::Append => (self.perturbed(&HPS_COEFFICIENTS, None), 10),
        };
        self.issued += 1;
        Query {
            model: LinearModel::new(coefficients, 0.0).expect("finite coefficients"),
            k,
        }
    }

    /// The next calibration sweep: a perturbed HPS model and
    /// [`SWEEP_MODELS`] neighbours stepping one coefficient at a time by
    /// ±4%, ±8%, ±12% and ±16% (the Fig. 5 calibrate/revise loop).
    pub fn next_sweep(&mut self) -> Vec<LinearModel> {
        let centre = self.perturbed(&HPS_COEFFICIENTS, None);
        self.issued += 1;
        (0..SWEEP_MODELS)
            .map(|j| {
                let attr = j % centre.len();
                let step = (j / centre.len()) as i32 - 4;
                let step = if step >= 0 { step + 1 } else { step };
                let mut c = centre.clone();
                c[attr] *= 1.0 + 0.04 * f64::from(step);
                LinearModel::new(c, 0.0).expect("finite coefficients")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for field in [Field::Hps, Field::Rough] {
            assert_eq!(
                attribute_grids(field, 11, 24, 40),
                attribute_grids(field, 11, 24, 40)
            );
            assert_ne!(
                attribute_grids(field, 11, 24, 40),
                attribute_grids(field, 12, 24, 40)
            );
        }
        for kind in [QueryKind::Interactive, QueryKind::Survey, QueryKind::Append] {
            let take = |seed| {
                let mut s = QueryStream::new(kind, seed, REQUEST_STREAM);
                (0..16).map(|_| s.next_query()).collect::<Vec<_>>()
            };
            assert_eq!(take(5), take(5));
            assert_ne!(take(5), take(6));
        }
        let sweeps = |seed| {
            let mut s = QueryStream::new(QueryKind::Interactive, seed, REQUEST_STREAM);
            (0..4).map(|_| s.next_sweep()).collect::<Vec<_>>()
        };
        assert_eq!(sweeps(9), sweeps(9));
        assert_ne!(sweeps(9), sweeps(10));
    }

    #[test]
    fn streams_are_distinct_per_request() {
        let mut s = QueryStream::new(QueryKind::Interactive, 3, REQUEST_STREAM);
        let qs: Vec<Query> = (0..64).map(|_| s.next_query()).collect();
        for (i, a) in qs.iter().enumerate() {
            for b in &qs[i + 1..] {
                assert_ne!(a.model, b.model);
            }
        }
        assert_eq!(
            qs.iter().map(|q| q.k).take(5).collect::<Vec<_>>(),
            [1, 5, 10, 20, 1]
        );
        let mut w = QueryStream::new(QueryKind::Interactive, 3, WARMUP_STREAM);
        assert_ne!(w.next_query(), qs[0]);
    }

    #[test]
    fn sweep_steps_one_coefficient_per_model() {
        let mut s = QueryStream::new(QueryKind::Interactive, 1, REQUEST_STREAM);
        let models = s.next_sweep();
        assert_eq!(models.len(), SWEEP_MODELS);
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn stack_shards_cover_the_grid() {
        let grids = attribute_grids(Field::Hps, 2, 64, 32);
        let stack = Stack::build(&grids, 4, 2, 8);
        assert_eq!(stack.shards.len(), 4);
        let sources = stack.sources(SourceConfig::Replicated { cache_pages: 4 });
        let archive = stack.archive(&sources);
        assert_eq!(archive.shape(), (64, 32));
    }
}
