//! Replicated, integrity-checked page access with per-replica circuit
//! breakers and ordered failover.
//!
//! Production archives are redundant and untrusted: every page exists on
//! N replicas, and any single replica can serve it late, corrupted, or
//! not at all. [`ReplicatedSource`] makes that redundancy transparent to
//! the engines:
//!
//! * **Ordered failover.** A page is loaded from the lowest-indexed
//!   healthy replica; a read that faults — or comes back with a payload
//!   failing checksum verification ([`mbir_archive::integrity`]) — is
//!   retried on the next replica *before* any error surfaces. The PR-1
//!   retry/quarantine machinery inside each store never has to fire for a
//!   fault another replica can mask.
//! * **Per-replica health.** Each replica carries an EWMA failure rate
//!   and a consecutive-error count, feeding a three-state circuit breaker
//!   (Closed → Open → HalfOpen): after [`ReplicaConfig::open_after`]
//!   consecutive errors the replica is skipped entirely, and after
//!   [`ReplicaConfig::cooldown_ticks`] on the simulated tick clock a
//!   single HalfOpen trial decides whether it closes again. The cooldown
//!   clock is the replicas' own virtual I/O tick sum, so breaker behavior
//!   is exactly reproducible in tests — no wall time involved.
//! * **A page cache that is not a health signal.** Loaded pages (all
//!   attributes) sit in a small LRU; cache hits never touch replica
//!   health or replica stores — a replica cannot earn health credit for
//!   I/O it never performed. In-flight loads are dedup'd through a
//!   condvar, so concurrent workers materialize each page once.
//! * **Hedged reads against stragglers.** With
//!   [`ReplicaConfig::hedge_after_ticks`] set, a primary load that runs
//!   past the hedge delay on the simulated I/O clock races a duplicate
//!   issued to the next healthy replica; the first success wins and the
//!   loser is cancelled. A cancelled load leaves no health record (no
//!   double counting), a failed hedge is charged to its replica like any
//!   failure, and only verified winners reach the cache — the
//!   never-cache-corrupt invariant is untouched.
//!
//! With every replica healthy and verification on, the source returns
//! exactly the bytes a direct [`TileSource`](crate::source::TileSource)
//! would: the engines' results are bit-identical. Only when *all*
//! replicas fail for a page does an error escape to the engine — which
//! then degrades with sound bounds like any other lost page.

use crate::error::CoreError;
use crate::source::CellSource;
use mbir_archive::error::ArchiveError;
use mbir_archive::tile::TileStore;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Tuning for a [`ReplicatedSource`]: breaker thresholds, health decay,
/// cache size, and whether payloads are checksum-verified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaConfig {
    /// EWMA smoothing factor for the per-replica failure rate, in
    /// `(0, 1]`. Higher reacts faster; 0.2 is a conventional default.
    pub ewma_alpha: f64,
    /// Consecutive failures that flip a replica's breaker Closed → Open.
    pub open_after: u32,
    /// Ticks (on the replicas' simulated I/O clock) an Open breaker waits
    /// before allowing one HalfOpen trial.
    pub cooldown_ticks: u64,
    /// LRU page-cache capacity, in pages (clamped to at least 1).
    pub cache_pages: usize,
    /// Whether page payloads are checksum-verified. Disabling this turns
    /// the source into a trusting reader — corruption flows through
    /// silently — and exists so the chaos benchmark can isolate the cost
    /// of verification itself.
    pub verify: bool,
    /// Hedged-read delay in ticks: when a primary page load runs longer
    /// than this on the simulated I/O clock, the same page is issued to
    /// the next healthy replica and the first success wins (the loser is
    /// cancelled and leaves no health record). `None` disables hedging.
    pub hedge_after_ticks: Option<u64>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            ewma_alpha: 0.2,
            open_after: 3,
            cooldown_ticks: 64,
            cache_pages: 32,
            verify: true,
            hedge_after_ticks: None,
        }
    }
}

impl ReplicaConfig {
    /// Disables checksum verification (builder style); see
    /// [`verify`](Self::verify).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Sets the breaker's open threshold (builder style).
    pub fn with_open_after(mut self, consecutive: u32) -> Self {
        self.open_after = consecutive.max(1);
        self
    }

    /// Sets the breaker cooldown in ticks (builder style).
    pub fn with_cooldown_ticks(mut self, ticks: u64) -> Self {
        self.cooldown_ticks = ticks;
        self
    }

    /// Sets the LRU capacity in pages (builder style).
    pub fn with_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Enables hedged reads after `ticks` on the simulated I/O clock
    /// (builder style); see [`hedge_after_ticks`](Self::hedge_after_ticks).
    pub fn with_hedge_after_ticks(mut self, ticks: u64) -> Self {
        self.hedge_after_ticks = Some(ticks);
        self
    }
}

/// Circuit-breaker state of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the replica is tried in failover order.
    Closed,
    /// Tripped: the replica is skipped until its cooldown elapses.
    Open,
    /// Cooldown elapsed: the next load is a trial — success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

/// Public snapshot of one replica's health.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaHealth {
    /// Current breaker state.
    pub state: BreakerState,
    /// Exponentially weighted failure rate in `[0, 1]` (1 = every recent
    /// load failed).
    pub failure_ewma: f64,
    /// Consecutive failed loads (reset by any success).
    pub consecutive_errors: u32,
    /// Page loads this replica served successfully.
    pub pages_served: u64,
    /// Page loads this replica failed (I/O fault or checksum mismatch).
    pub failures: u64,
}

/// Internal mutable health record for one replica.
#[derive(Debug, Clone, Copy)]
struct ReplicaState {
    state: BreakerState,
    /// Tick-clock reading when the breaker last opened.
    opened_at_ticks: u64,
    ewma: f64,
    consecutive: u32,
    pages_served: u64,
    failures: u64,
}

impl ReplicaState {
    fn new() -> Self {
        ReplicaState {
            state: BreakerState::Closed,
            opened_at_ticks: 0,
            ewma: 0.0,
            consecutive: 0,
            pages_served: 0,
            failures: 0,
        }
    }
}

/// One cached page: every attribute's values over the page's cell extent.
#[derive(Debug)]
struct PageBlock {
    r0: usize,
    c0: usize,
    width: usize,
    /// `values[attr][(row - r0) * width + (col - c0)]`.
    values: Vec<Vec<f64>>,
}

#[derive(Debug)]
enum Slot {
    /// Some reader is loading this page; wait instead of re-loading.
    Loading,
    /// Materialized page with its LRU recency stamp.
    Ready {
        block: std::sync::Arc<PageBlock>,
        recency: u64,
    },
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<usize, Slot>,
    clock: u64,
    /// Bumped by [`ReplicatedSource::advance_epoch`]; loads that straddle
    /// an advance are served but not cached (see
    /// [`crate::source::CachedTileSource`], which shares the protocol).
    epoch: u64,
    /// Smallest `first_dirty_page` across epoch advances — the original
    /// append high-water mark for `appended_pages_seen` accounting.
    appended_from: Option<usize>,
}

/// N-way replicated [`CellSource`] with checksum verification, ordered
/// failover, per-replica circuit breakers, and an LRU page cache.
///
/// Each replica is a full set of per-attribute [`TileStore`]s (the same
/// shape a [`TileSource`](crate::source::TileSource) wraps); replica 0 is
/// the preferred copy. See the module docs for the failover and breaker
/// contract.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::tile::TileStore;
/// use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
/// use mbir_core::source::CellSource;
///
/// let grid = Grid2::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
/// let a = vec![TileStore::new(grid.clone(), 4).unwrap()];
/// let b = vec![TileStore::new(grid, 4).unwrap()];
/// let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
/// assert_eq!(src.base_cell(0, 1, 5).unwrap(), 13.0);
/// ```
#[derive(Debug)]
pub struct ReplicatedSource<'a> {
    replicas: Vec<&'a [TileStore]>,
    config: ReplicaConfig,
    health: Mutex<Vec<ReplicaState>>,
    cache: Mutex<CacheState>,
    loaded: Condvar,
}

impl<'a> ReplicatedSource<'a> {
    /// Wraps N replica store-sets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no replicas are supplied, a
    /// replica is empty, or the replicas disagree on shape, tile size, or
    /// attribute count — a page index must mean the same region on every
    /// copy.
    pub fn new(replicas: Vec<&'a [TileStore]>, config: ReplicaConfig) -> Result<Self, CoreError> {
        let first = replicas
            .first()
            .ok_or_else(|| CoreError::Query("no replicas supplied".into()))?;
        if first.is_empty() {
            return Err(CoreError::Query("replica has no tile stores".into()));
        }
        if !(0.0..=1.0).contains(&config.ewma_alpha) || config.ewma_alpha == 0.0 {
            return Err(CoreError::Query("ewma_alpha must be in (0, 1]".into()));
        }
        let reference = &first[0];
        for (i, replica) in replicas.iter().enumerate() {
            if replica.len() != first.len() {
                return Err(CoreError::Query(format!(
                    "replica {i} has {} attributes, expected {}",
                    replica.len(),
                    first.len()
                )));
            }
            for store in replica.iter() {
                if store.rows() != reference.rows()
                    || store.cols() != reference.cols()
                    || store.tile_size() != reference.tile_size()
                {
                    return Err(CoreError::Query(format!(
                        "replica {i} disagrees on shape or tile size"
                    )));
                }
            }
        }
        let n = replicas.len();
        Ok(ReplicatedSource {
            replicas,
            config,
            health: Mutex::new(vec![ReplicaState::new(); n]),
            cache: Mutex::new(CacheState::default()),
            loaded: Condvar::new(),
        })
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The active configuration.
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// Current health snapshot of every replica, in failover order.
    pub fn replica_health(&self) -> Vec<ReplicaHealth> {
        self.health
            .lock()
            .expect("replica health lock")
            .iter()
            .map(|s| ReplicaHealth {
                state: s.state,
                failure_ewma: s.ewma,
                consecutive_errors: s.consecutive,
                pages_served: s.pages_served,
                failures: s.failures,
            })
            .collect()
    }

    /// Current breaker state of every replica, in failover order — the
    /// lightweight companion to [`replica_health`](Self::replica_health)
    /// for harnesses that only steer on Closed/Open/HalfOpen.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.health
            .lock()
            .expect("replica health lock")
            .iter()
            .map(|s| s.state)
            .collect()
    }

    /// Resets every replica's breaker and health record to the initial
    /// Closed state (EWMA, consecutive-error count, and served/failed
    /// tallies included), so one source can be reused across harness
    /// scenarios without carrying breaker history over.
    pub fn reset_breakers(&self) {
        let mut health = self.health.lock().expect("replica health lock");
        for s in health.iter_mut() {
            *s = ReplicaState::new();
        }
    }

    /// Hedged page reads issued so far, summed across replicas (each
    /// hedge is recorded on the backup replica it was issued to).
    pub fn hedged_reads(&self) -> u64 {
        self.replicas.iter().map(|r| r[0].stats().hedges()).sum()
    }

    /// Pages currently quarantined, summed over every store of every
    /// replica. Feeds the per-shard page ledger that
    /// [`merge_shard_summaries`](crate::metrics::merge_shard_summaries)
    /// conserves across a sharded merge.
    pub fn quarantined_pages(&self) -> u64 {
        self.replicas
            .iter()
            .flat_map(|r| r.iter())
            .map(|s| s.quarantined_pages().count() as u64)
            .sum()
    }

    /// Clears the per-page quarantine of every store of every replica,
    /// so future reads attempt the pages again. Invoked through
    /// [`QuarantineScrub`](crate::source::QuarantineScrub) when a topology change retires this source's
    /// band from its shard: quarantine page ids are only meaningful for
    /// the band layout they were recorded under, and a stale entry would
    /// otherwise suppress reads of healthy data when the stores are
    /// reused. Circuit breakers are a *replica*-level ledger and keep
    /// their state — see [`reset_breakers`](Self::reset_breakers).
    pub fn clear_quarantine(&self) {
        for store in self.replicas.iter().flat_map(|r| r.iter()) {
            store.clear_quarantine();
        }
    }

    /// Publishes a snapshot-epoch advance to the replica cache: cached
    /// pages at or past `first_dirty_page` are dropped and in-flight
    /// loads are demoted to serve-without-caching, exactly like
    /// [`CachedTileSource::advance_epoch`](crate::source::CachedTileSource::advance_epoch).
    /// Returns the number of resident pages dropped; the count is also
    /// recorded on the preferred replica's stats.
    pub fn advance_epoch(&self, first_dirty_page: usize) -> usize {
        let mut state = self.cache.lock().expect("replica cache lock");
        state.epoch += 1;
        state.appended_from = Some(match state.appended_from {
            Some(prev) => prev.min(first_dirty_page),
            None => first_dirty_page,
        });
        let stale: Vec<usize> = state
            .slots
            .iter()
            .filter(|(&page, slot)| page >= first_dirty_page && matches!(slot, Slot::Ready { .. }))
            .map(|(&page, _)| page)
            .collect();
        for &page in &stale {
            state.slots.remove(&page);
        }
        if !stale.is_empty() {
            self.replicas[0][0]
                .stats()
                .record_cache_invalidations(stale.len() as u64);
        }
        stale.len()
    }

    /// Cached pages dropped by epoch advances so far, summed across
    /// replicas. Feeds
    /// [`DegradationSummary::with_append`](crate::metrics::DegradationSummary::with_append)
    /// so append churn shows up on the chaos scorecard next to the
    /// fault-degradation fields.
    pub fn epoch_invalidated_cache_entries(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r[0].stats().cache_invalidations())
            .sum()
    }

    /// Page materializations past the original append high-water mark so
    /// far, summed across replicas — the other half of the
    /// [`with_append`](crate::metrics::DegradationSummary::with_append)
    /// fold.
    pub fn appended_pages_seen(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r[0].stats().appended_pages_seen())
            .sum()
    }

    /// The breaker cooldown clock: total virtual I/O ticks accrued across
    /// all replicas (each replica's first store carries its group's
    /// shared stats). Deterministic under deterministic fault profiles.
    pub fn now_ticks(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r[0].stats().ticks_elapsed())
            .sum()
    }

    /// Whether `replica` may be tried now: Closed and HalfOpen always,
    /// Open only once its cooldown has elapsed (which transitions it to
    /// HalfOpen for a single trial).
    fn replica_eligible(&self, replica: usize, now: u64) -> bool {
        let mut health = self.health.lock().expect("replica health lock");
        let s = &mut health[replica];
        match s.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_sub(s.opened_at_ticks) >= self.config.cooldown_ticks {
                    s.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Feeds one load outcome into `replica`'s health and breaker.
    fn record_outcome(&self, replica: usize, ok: bool, now: u64) {
        let mut health = self.health.lock().expect("replica health lock");
        let s = &mut health[replica];
        let alpha = self.config.ewma_alpha;
        s.ewma = (1.0 - alpha) * s.ewma + alpha * if ok { 0.0 } else { 1.0 };
        if ok {
            s.pages_served += 1;
            s.consecutive = 0;
            s.state = BreakerState::Closed;
        } else {
            s.failures += 1;
            s.consecutive += 1;
            let reopen = s.state == BreakerState::HalfOpen;
            if reopen || s.consecutive >= self.config.open_after {
                s.state = BreakerState::Open;
                s.opened_at_ticks = now;
            }
        }
    }

    /// Loads `page` (every attribute) from one replica, verifying each
    /// attribute's checksum when configured.
    fn load_from(&self, replica: usize, page: usize) -> Result<PageBlock, ArchiveError> {
        let stores = self.replicas[replica];
        let (r0, c0, _r1, c1) = stores[0].page_extent(page)?;
        let width = c1 - c0;
        let mut values = Vec::with_capacity(stores.len());
        for store in stores {
            let env = store.read_page_envelope(page)?;
            if self.config.verify && !env.verify() {
                // Detected silent corruption on this replica: count it on
                // the replica's own stats and fail over.
                store.stats().record_corruptions(1);
                return Err(ArchiveError::PageCorrupt { page });
            }
            values.push(env.into_payload().into_iter().map(|(_, v)| v).collect());
        }
        Ok(PageBlock {
            r0,
            c0,
            width,
            values,
        })
    }

    /// Ordered failover: tries each eligible replica in index order,
    /// recording health outcomes, until one serves the page.
    ///
    /// When *every* breaker is open and cooling down there is no eligible
    /// replica left — but refusing service outright would let one dead
    /// page (whose repeated failures opened all the breakers) take down
    /// pages other replicas could still serve. In that case the source
    /// runs a last-resort pass over all replicas in order: a success
    /// closes that replica's breaker immediately, restoring fail-fast
    /// behavior for the rest of the query.
    fn load_page(&self, page: usize) -> Result<PageBlock, ArchiveError> {
        let eligible: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.replica_eligible(r, self.now_ticks()))
            .collect();
        let order: Vec<usize> = if eligible.is_empty() {
            (0..self.replicas.len()).collect()
        } else {
            eligible
        };
        let mut last_err: Option<ArchiveError> = None;
        for (attempt, &replica) in order.iter().enumerate() {
            let before = self.now_ticks();
            match self.load_from(replica, page) {
                Ok(block) => {
                    // Hedging races only the *primary* attempt: failover
                    // attempts are already a retry and never hedge.
                    if attempt == 0 {
                        if let Some(delay) = self.config.hedge_after_ticks {
                            let elapsed = self.now_ticks().saturating_sub(before);
                            if elapsed > delay {
                                if let Some(&backup) = order.get(1) {
                                    return Ok(self
                                        .hedge_race(page, replica, block, elapsed, backup, delay));
                                }
                            }
                        }
                    }
                    self.record_outcome(replica, true, self.now_ticks());
                    return Ok(block);
                }
                Err(e) => {
                    self.record_outcome(replica, false, self.now_ticks());
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(ArchiveError::PageQuarantined { page }))
    }

    /// Resolves a hedged read: the primary's result arrived after the
    /// hedge delay, so the same page was issued to `backup` and the two
    /// race on the simulated timeline — the primary completing at
    /// `primary_ticks`, the hedge at `delay` (its launch time) plus its
    /// own load cost. First success wins; the loser is cancelled, and a
    /// cancelled load leaves *no* health record, so neither replica is
    /// ever credited or charged twice for one page. A hedge that comes
    /// back failing was not cancelled — it completed, and is charged to
    /// the backup like any failed load. Replicas agree bit-for-bit on
    /// verified payloads, so either winner returns identical data.
    fn hedge_race(
        &self,
        page: usize,
        primary: usize,
        primary_block: PageBlock,
        primary_ticks: u64,
        backup: usize,
        delay: u64,
    ) -> PageBlock {
        self.replicas[backup][0].stats().record_hedges(1);
        let before = self.now_ticks();
        match self.load_from(backup, page) {
            Ok(hedge_block) => {
                let hedge_done = delay + self.now_ticks().saturating_sub(before);
                if hedge_done < primary_ticks {
                    // Hedge wins: the primary's slow result is cancelled.
                    self.record_outcome(backup, true, self.now_ticks());
                    hedge_block
                } else {
                    // Primary wins: the hedge is cancelled.
                    self.record_outcome(primary, true, self.now_ticks());
                    primary_block
                }
            }
            Err(_) => {
                // The hedge completed as a failure; the primary's success
                // stands and the backup's failure feeds its breaker. A
                // corrupt hedge payload lands here (`load_from` verifies
                // before returning), so it can never win the race — and
                // `fetch_page` caches only what this function returns, so
                // a corrupt hedge is never cached either.
                self.record_outcome(backup, false, self.now_ticks());
                self.record_outcome(primary, true, self.now_ticks());
                primary_block
            }
        }
    }

    /// Returns the cached page, materializing it through failover on a
    /// miss. Cache hits touch neither replica health nor replica stores.
    fn fetch_page(&self, page: usize) -> Result<std::sync::Arc<PageBlock>, ArchiveError> {
        let stats = self.replicas[0][0].stats();
        let mut state = self.cache.lock().expect("replica cache lock");
        loop {
            match state.slots.get(&page) {
                Some(Slot::Ready { .. }) => {
                    state.clock += 1;
                    let clock = state.clock;
                    let Some(Slot::Ready { block, recency }) = state.slots.get_mut(&page) else {
                        unreachable!("slot was just observed ready");
                    };
                    *recency = clock;
                    let block = std::sync::Arc::clone(block);
                    stats.record_cache_hits(1);
                    return Ok(block);
                }
                Some(Slot::Loading) => {
                    state = self.loaded.wait(state).expect("replica cache lock");
                }
                None => {
                    state.slots.insert(page, Slot::Loading);
                    stats.record_cache_misses(1);
                    if state.appended_from.is_some_and(|from| page >= from) {
                        stats.record_appended_pages_seen(1);
                    }
                    break;
                }
            }
        }
        let epoch_at_load = state.epoch;
        drop(state);
        // Failover runs without the cache lock: replica loads may retry
        // and back off, and readers of other pages must not wait on that.
        let loaded = self.load_page(page);
        let mut state = self.cache.lock().expect("replica cache lock");
        match loaded {
            Ok(block) => {
                let block = std::sync::Arc::new(block);
                if state.epoch == epoch_at_load {
                    state.clock += 1;
                    let recency = state.clock;
                    state.slots.insert(
                        page,
                        Slot::Ready {
                            block: std::sync::Arc::clone(&block),
                            recency,
                        },
                    );
                    self.evict_excess(&mut state);
                } else {
                    // Epoch advanced mid-load: serve without caching.
                    state.slots.remove(&page);
                }
                self.loaded.notify_all();
                Ok(block)
            }
            Err(e) => {
                // Total failures are not cached: a later read re-runs the
                // failover (replicas heal, breakers cool down).
                state.slots.remove(&page);
                self.loaded.notify_all();
                Err(e)
            }
        }
    }

    /// Drops least-recently-used ready pages down to capacity.
    fn evict_excess(&self, state: &mut CacheState) {
        let capacity = self.config.cache_pages.max(1);
        loop {
            let mut ready = 0usize;
            let mut victim: Option<(u64, usize)> = None;
            for (&page, slot) in &state.slots {
                if let Slot::Ready { recency, .. } = slot {
                    ready += 1;
                    let older = match victim {
                        None => true,
                        Some((r, _)) => *recency < r,
                    };
                    if older {
                        victim = Some((*recency, page));
                    }
                }
            }
            if ready <= capacity {
                return;
            }
            let Some((_, page)) = victim else { return };
            state.slots.remove(&page);
        }
    }
}

impl crate::source::QuarantineScrub for ReplicatedSource<'_> {
    fn clear_quarantine(&self) {
        ReplicatedSource::clear_quarantine(self);
    }

    fn quarantined_pages(&self) -> u64 {
        ReplicatedSource::quarantined_pages(self)
    }
}

impl CellSource for ReplicatedSource<'_> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        let reference = &self.replicas[0][0];
        if row >= reference.rows() || col >= reference.cols() {
            return Err(ArchiveError::OutOfBounds {
                row,
                col,
                rows: reference.rows(),
                cols: reference.cols(),
            });
        }
        let page = reference.page_of(row, col);
        let block = self.fetch_page(page)?;
        Ok(block.values[attr][(row - block.r0) * block.width + (col - block.c0)])
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        Some(self.replicas[0][0].page_of(row, col))
    }

    fn pages_read(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r[0].stats().pages_read())
            .sum()
    }

    fn ticks_elapsed(&self) -> u64 {
        self.now_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;

    fn grid(seed: u64) -> Grid2<f64> {
        Grid2::from_fn(8, 8, |r, c| (seed as f64) + (r * 8 + c) as f64)
    }

    /// One replica group: `arity` stores sharing one stats handle.
    fn replica(arity: usize) -> (Vec<TileStore>, AccessStats) {
        let stats = AccessStats::new();
        let stores = (0..arity as u64)
            .map(|i| {
                TileStore::new(grid(i), 4)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        (stores, stats)
    }

    #[test]
    fn validates_replica_agreement() {
        let (a, _) = replica(2);
        let (b, _) = replica(2);
        assert!(ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).is_ok());
        assert!(ReplicatedSource::new(vec![], ReplicaConfig::default()).is_err());
        let (short, _) = replica(1);
        assert!(ReplicatedSource::new(vec![&a, &short], ReplicaConfig::default()).is_err());
        let odd = vec![
            TileStore::new(grid(0), 2).unwrap(),
            TileStore::new(grid(1), 2).unwrap(),
        ];
        assert!(ReplicatedSource::new(vec![&a, &odd], ReplicaConfig::default()).is_err());
        assert!(ReplicatedSource::new(
            vec![&a],
            ReplicaConfig {
                ewma_alpha: 0.0,
                ..ReplicaConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn epoch_advance_invalidates_and_counts_append_side_reads() {
        let (a, a_stats) = replica(2);
        let (b, _) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        src.base_cell(0, 0, 0).unwrap(); // page 0
        src.base_cell(0, 4, 4).unwrap(); // page 3
        assert_eq!(src.advance_epoch(2), 1, "page 3 dropped, page 0 kept");
        assert_eq!(src.epoch_invalidated_cache_entries(), 1);
        let hits = a_stats.cache_hits();
        src.base_cell(1, 0, 0).unwrap();
        assert_eq!(a_stats.cache_hits(), hits + 1, "page 0 still resident");
        src.base_cell(1, 4, 4).unwrap();
        assert_eq!(src.appended_pages_seen(), 1, "page 3 re-read past the mark");
        // The re-materialized page caches normally again.
        let hits = a_stats.cache_hits();
        src.base_cell(0, 4, 4).unwrap();
        assert_eq!(a_stats.cache_hits(), hits + 1);
    }

    #[test]
    fn healthy_replicas_serve_from_the_first() {
        let (a, a_stats) = replica(2);
        let (b, b_stats) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        assert_eq!(src.base_cell(0, 1, 5).unwrap(), 13.0);
        assert_eq!(src.base_cell(1, 1, 5).unwrap(), 14.0);
        assert_eq!(a_stats.pages_read(), 2, "one per attribute");
        assert_eq!(b_stats.pages_read(), 0, "replica 1 never touched");
        let health = src.replica_health();
        assert_eq!(health[0].state, BreakerState::Closed);
        assert_eq!(health[0].pages_served, 1);
        assert_eq!(health[1].pages_served, 0);
    }

    #[test]
    fn io_fault_fails_over_transparently() {
        let (a, _) = replica(2);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(0)))
            .collect();
        let (b, _) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        // Page 0 faults on replica 0, is served by replica 1 — no error.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        let health = src.replica_health();
        assert_eq!(health[0].failures, 1);
        assert_eq!(health[1].pages_served, 1);
        assert!(health[0].failure_ewma > 0.0);
    }

    #[test]
    fn corruption_fails_over_and_counts_on_the_bad_replica() {
        let (a, a_stats) = replica(2);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(0)))
            .collect();
        let (b, _) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        // The corrupted copy is detected and replica 1's clean copy wins.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(a_stats.corruptions(), 1);
        assert_eq!(src.replica_health()[0].failures, 1);
    }

    #[test]
    fn verification_off_delivers_corrupt_bits() {
        use mbir_archive::integrity::corrupt_value;
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(0)))
            .collect();
        let (b, _) = replica(1);
        let src = ReplicatedSource::new(
            vec![&a, &b],
            ReplicaConfig::default().without_verification(),
        )
        .unwrap();
        // Trusting mode: the corrupted first replica is believed.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), corrupt_value(0.0));
    }

    #[test]
    fn breaker_opens_after_threshold_and_skips_the_replica() {
        let (a, a_stats) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(0).permanent(1).permanent(2)))
            .collect();
        let (b, _) = replica(1);
        let config = ReplicaConfig::default()
            .with_open_after(2)
            .with_cooldown_ticks(u64::MAX) // never cools down in this test
            .with_cache_pages(1); // tiny cache: every new page hits replicas
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();

        // Two failing loads (distinct pages) open replica 0's breaker.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.replica_health()[0].state, BreakerState::Closed);
        assert_eq!(src.base_cell(0, 0, 4).unwrap(), 4.0);
        assert_eq!(src.replica_health()[0].state, BreakerState::Open);
        assert_eq!(src.replica_health()[0].consecutive_errors, 2);

        // Open: replica 0 is skipped entirely — no I/O, no new failures.
        let pages_before = a_stats.pages_read();
        assert_eq!(src.base_cell(0, 4, 0).unwrap(), 32.0);
        assert_eq!(src.replica_health()[0].failures, 2);
        assert_eq!(
            a_stats.pages_read(),
            pages_before,
            "open breaker fails fast"
        );
    }

    #[test]
    fn half_open_trial_success_closes_the_breaker() {
        let (a, _) = replica(1);
        // Page 0 fails exactly once; internal retries disabled so the
        // failure surfaces to the replica layer.
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new(0).transient(0, 1))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::none(), None))
            })
            .collect();
        let (b, _) = replica(1);
        let config = ReplicaConfig::default()
            .with_open_after(1)
            .with_cooldown_ticks(0) // cooldown elapses immediately
            .with_cache_pages(1);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();

        // First load trips the breaker (threshold 1); replica 1 covers.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.replica_health()[0].state, BreakerState::Open);

        // Next load is the HalfOpen trial on a healthy page: it succeeds
        // and the breaker closes.
        assert_eq!(src.base_cell(0, 0, 4).unwrap(), 4.0);
        let health = src.replica_health();
        assert_eq!(health[0].state, BreakerState::Closed);
        assert_eq!(health[0].consecutive_errors, 0);
        assert_eq!(health[0].pages_served, 1);
    }

    #[test]
    fn half_open_trial_failure_reopens_the_breaker() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(0).permanent(1)))
            .collect();
        let (b, _) = replica(1);
        let config = ReplicaConfig::default()
            .with_open_after(1)
            .with_cooldown_ticks(0)
            .with_cache_pages(1);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();

        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.replica_health()[0].state, BreakerState::Open);

        // HalfOpen trial hits another dead page: breaker re-opens even
        // though a single failure would not normally re-trip from Closed.
        assert_eq!(src.base_cell(0, 0, 4).unwrap(), 4.0);
        let health = src.replica_health();
        assert_eq!(health[0].state, BreakerState::Open);
        assert_eq!(health[0].failures, 2);
    }

    #[test]
    fn all_replicas_failing_surfaces_an_error() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(0)))
            .collect();
        let (b, _) = replica(1);
        let b: Vec<TileStore> = b
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(0)))
            .collect();
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        // Replica 0: I/O fault. Replica 1: corruption. Nothing can serve
        // page 0; the last error (corruption) surfaces.
        assert_eq!(
            src.base_cell(0, 0, 0),
            Err(ArchiveError::PageCorrupt { page: 0 })
        );
        // Healthy pages are unaffected.
        assert_eq!(src.base_cell(0, 4, 4).unwrap(), 36.0);
    }

    #[test]
    fn cache_hits_do_not_touch_replica_health_or_stores() {
        let (a, a_stats) = replica(2);
        let (b, _) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        let served = src.replica_health()[0].pages_served;
        let pages = a_stats.pages_read();
        let ticks = src.now_ticks();
        for _ in 0..10 {
            assert_eq!(src.base_cell(1, 1, 1).unwrap(), 10.0);
        }
        assert_eq!(src.replica_health()[0].pages_served, served);
        assert_eq!(a_stats.pages_read(), pages);
        assert_eq!(src.now_ticks(), ticks, "hits are free I/O");
        assert_eq!(a_stats.cache_hits(), 10);
    }

    #[test]
    fn failed_loads_are_not_cached_so_failover_reruns() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new(0).permanent(0))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::none(), None))
            })
            .collect();
        let (b, _) = replica(1);
        let b: Vec<TileStore> = b
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).transient(0, 1)))
            .collect();
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        // Both replicas fail the first time (permanent / transient)...
        assert!(src.base_cell(0, 0, 0).is_err());
        // ...but the failure was not cached and replica 1 healed.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn concurrent_readers_dedup_page_loads() {
        let (a, a_stats) = replica(2);
        let (b, _) = replica(2);
        let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let src = &src;
                scope.spawn(move || {
                    let v = src.base_cell(t % 2, t / 4, t % 4).unwrap();
                    assert!(v.is_finite());
                });
            }
        });
        assert_eq!(a_stats.cache_misses(), 1, "one materialization total");
        assert_eq!(a_stats.cache_hits(), 7);
        assert_eq!(src.replica_health()[0].pages_served, 1);
    }

    #[test]
    fn hedge_fires_on_slow_primary_and_faster_backup_wins() {
        let (a, _) = replica(1);
        // 10 extra ticks of injected latency on page 0: the primary load
        // costs 11 ticks, far past the 2-tick hedge delay.
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).latency(0, 10)))
            .collect();
        let (b, b_stats) = replica(1);
        let config = ReplicaConfig::default().with_hedge_after_ticks(2);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.hedged_reads(), 1);
        assert_eq!(b_stats.hedges(), 1, "the hedge is charged to the backup");
        let health = src.replica_health();
        // Hedge completes at 2 + 1 < 11: the backup wins, the primary's
        // in-flight result is cancelled and leaves no health record.
        assert_eq!(health[1].pages_served, 1);
        assert_eq!(health[0].pages_served, 0, "cancelled loser not credited");
        assert_eq!(health[0].failures, 0, "cancelled loser not charged");
    }

    #[test]
    fn slow_primary_still_wins_when_the_hedge_is_slower() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).latency(0, 3)))
            .collect();
        let (b, _) = replica(1);
        let b: Vec<TileStore> = b
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).latency(0, 10)))
            .collect();
        let config = ReplicaConfig::default().with_hedge_after_ticks(2);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();
        // Primary completes at 4 ticks; the hedge launched at 2 would
        // finish at 2 + 11 = 13. The primary wins, the hedge is cancelled.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.hedged_reads(), 1);
        let health = src.replica_health();
        assert_eq!(health[0].pages_served, 1);
        assert_eq!(health[1].pages_served, 0, "cancelled hedge not credited");
        assert_eq!(health[1].failures, 0, "cancelled hedge not charged");
    }

    #[test]
    fn fast_primary_never_hedges() {
        let (a, _) = replica(1);
        let (b, b_stats) = replica(1);
        let config = ReplicaConfig::default().with_hedge_after_ticks(100);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.hedged_reads(), 0);
        assert_eq!(b_stats.pages_read(), 0, "backup never touched");
        assert_eq!(src.replica_health()[0].pages_served, 1);
    }

    #[test]
    fn failed_hedge_is_charged_and_the_primary_result_stands() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).latency(0, 5)))
            .collect();
        let (b, b_stats) = replica(1);
        // The hedge target serves silent corruption: verification fails,
        // the hedge completes as a failure, and the clean primary result
        // is returned (and is the only thing that can be cached).
        let b: Vec<TileStore> = b
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(0)))
            .collect();
        let config = ReplicaConfig::default().with_hedge_after_ticks(2);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0, "clean bits win");
        assert_eq!(src.hedged_reads(), 1);
        assert_eq!(b_stats.corruptions(), 1);
        let health = src.replica_health();
        assert_eq!(health[0].pages_served, 1);
        assert_eq!(health[1].failures, 1, "completed hedge failure counts");
        // The cached copy is the verified primary payload.
        assert_eq!(src.base_cell(0, 0, 1).unwrap(), 1.0);
    }

    #[test]
    fn breaker_states_snapshot_and_reset() {
        let (a, _) = replica(1);
        let a: Vec<TileStore> = a
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(0).permanent(1)))
            .collect();
        let (b, _) = replica(1);
        let config = ReplicaConfig::default()
            .with_open_after(1)
            .with_cooldown_ticks(u64::MAX)
            .with_cache_pages(1);
        let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();
        assert_eq!(
            src.breaker_states(),
            vec![BreakerState::Closed, BreakerState::Closed]
        );
        // One failing load trips replica 0 (threshold 1).
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(
            src.breaker_states(),
            vec![BreakerState::Open, BreakerState::Closed]
        );
        src.reset_breakers();
        assert_eq!(
            src.breaker_states(),
            vec![BreakerState::Closed, BreakerState::Closed]
        );
        let health = src.replica_health();
        assert_eq!(health[0].failures, 0, "reset clears tallies");
        assert_eq!(health[1].pages_served, 0);
        // The reset source is fully reusable: the next failing load walks
        // the same Closed → Open transition from scratch.
        assert_eq!(src.base_cell(0, 0, 4).unwrap(), 4.0);
        assert_eq!(
            src.breaker_states(),
            vec![BreakerState::Open, BreakerState::Closed]
        );
    }
}
