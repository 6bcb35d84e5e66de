//! Content-keyed artifact cache with a sharded, bounded-memory lifecycle.
//!
//! CVCP model selection evaluates a grid of (parameter × fold × replica)
//! cells, and many expensive intermediates — pairwise distance matrices,
//! per-`MinPts` density hierarchies, transitive closures, seeding
//! neighbourhoods — are *identical* across large parts of that grid.  The
//! [`ArtifactCache`] stores those intermediates behind content-derived keys
//! so that every artifact is computed exactly once per engine, no matter how
//! many folds, trials or concurrent requests ask for it.
//!
//! Long-lived serving engines cannot let the cache grow monotonically, so
//! the store is *size-bounded*: a [`CacheConfig`] caps the resident bytes
//! (measured per artifact via [`ArtifactSize`]) and/or the resident entry
//! count, and artifacts are evicted when a budget is exceeded.  Eviction is
//! purely a time/space trade: an evicted artifact is recomputed on next
//! use, results never change.
//!
//! ## Sharding
//!
//! The store is split into `CacheConfig::shards` independent shards
//! (a power of two), selected by a **deterministic** content hash of the
//! [`ArtifactKey`] — identical across runs, thread counts and processes
//! (see [`ArtifactCache::shard_of`]).  Each shard has its own lock and its
//! own slice of the global byte/entry budgets, so concurrent requests for
//! unrelated keys never contend on one map lock.
//!
//! ## Ordered eviction
//!
//! Each shard keeps its committed entries on an intrusive, index-linked
//! LRU list over a slab (no `unsafe`): lookups and commits splice in O(1),
//! and the eviction victim is the list head — **O(1) per victim**, never a
//! scan over the resident set.  Two policies are available
//! ([`EvictionPolicy`]): plain LRU (the deterministic default) and an
//! opt-in cost-benefit policy that weighs victims by their recompute cost
//! per byte (the BJI-style benefit/space ratio), using per-artifact compute
//! times recorded at commit.
//!
//! ## Adaptive shard budgets
//!
//! Static even budget slices starve hot shards under tight budgets (the
//! routing hash spreads *keys* evenly, not *working sets*).  When more
//! than one shard is bounded, a periodic rebalancer shifts budget toward
//! the shards with the highest observed **miss-cost** — the accumulated
//! smoothed recompute cost of their misses, i.e. miss counts weighted by
//! the per-kind [`CostProfile`] EWMAs — subject to a configurable floor
//! per shard and with hysteresis (slices move at most halfway toward
//! their target per round, and the miss-cost signal decays geometrically)
//! so slices cannot thrash.  The trigger is deterministic: every
//! [`CacheConfig::rebalance_interval`] cache operations, never wall
//! clock.  Rebalancing moves budget, never values — results stay
//! bit-identical under any slice assignment.
//!
//! ## Admission control
//!
//! Under [`AdmissionPolicy::Cost`], an artifact is only admitted at
//! commit time when its smoothed (EWMA) recompute cost clears a
//! store-cost threshold derived from its byte size and the shard's
//! current pressure: cheap-to-recompute bulky artifacts are handed to the
//! caller but never displace residents.  Rejections are counted per shard
//! ([`ShardStats::admission_rejections`]).  Like eviction, admission is a
//! pure time/space trade — the returned `Arc` is identical either way.
//!
//! Concurrency contract: two threads requesting the same key race to a
//! per-key [`OnceLock`]; the loser blocks until the winner's value is ready,
//! so an artifact is never computed twice *while in flight* and concurrent
//! callers always observe the same `Arc` (see the pointer-equality tests).
//! Only fully-committed entries are eviction candidates — an in-flight
//! `get_or_compute` can never have its slot torn out from under it, and
//! callers holding an `Arc` to an evicted artifact keep a valid value (the
//! bytes are merely no longer counted as resident).  If a computation
//! panics, its in-flight slot is removed on unwind, so the key stays
//! retryable and the map never accumulates zombie entries.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cvcp_data::DataMatrix;
use cvcp_obs::lock_rank::{CACHE_PROFILE, CACHE_SHARD};
use cvcp_obs::{Counter, HistogramSnapshot, LogHistogram, RankedCondvar, RankedMutex};

thread_local! {
    /// `(hits, misses)` observed by the *current thread* since the last
    /// reset — the per-job cache attribution used by span tracing.  Jobs
    /// run one at a time per worker thread, so the engine resets the pair
    /// before a traced job and takes it after; the two `Cell` updates per
    /// cache access are free compared to the shard lock either side.
    static THREAD_CACHE_EVENTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Zeroes the calling thread's cache hit/miss attribution counters.
pub(crate) fn reset_thread_cache_events() {
    THREAD_CACHE_EVENTS.with(|c| c.set((0, 0)));
}

/// Returns and zeroes the calling thread's `(hits, misses)` since the last
/// reset.
pub(crate) fn take_thread_cache_events() -> (u64, u64) {
    THREAD_CACHE_EVENTS.with(|c| c.replace((0, 0)))
}

fn note_thread_cache_event(hit: bool) {
    THREAD_CACHE_EVENTS.with(|c| {
        let (hits, misses) = c.get();
        c.set(if hit {
            (hits + 1, misses)
        } else {
            (hits, misses + 1)
        })
    });
}

thread_local! {
    /// Nesting depth of in-flight `compute` closures on this thread.  A
    /// joiner only *helps* (runs other pool tasks while waiting, see
    /// [`crate::pool::help_run_one_task`]) at depth 0: a winner that
    /// recursed into the pool could pick up a task that joins the very
    /// artifact this thread is computing and deadlock on itself.
    static COMPUTE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII bump of [`COMPUTE_DEPTH`] — unwinds correctly when `compute`
/// panics, so a caught panic can never wedge helping off for the thread.
struct ComputeDepthGuard;

impl ComputeDepthGuard {
    fn enter() -> Self {
        COMPUTE_DEPTH.with(|depth| depth.set(depth.get() + 1));
        Self
    }
}

impl Drop for ComputeDepthGuard {
    fn drop(&mut self) {
        COMPUTE_DEPTH.with(|depth| depth.set(depth.get() - 1));
    }
}

/// A 64-bit content fingerprint (FNV-1a over the value's raw bytes).
pub type Fingerprint = u64;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a hasher over `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes one 64-bit word into the fingerprint.
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes an `f64` by bit pattern (so `-0.0` and `0.0` differ — fine for
    /// cache identity, which only needs "same bytes ⇒ same key").
    #[inline]
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// The finished fingerprint.
    pub fn finish(&self) -> Fingerprint {
        self.state
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Content fingerprint of a data matrix (shape + every value's bit pattern).
///
/// The value must depend on the matrix content and nothing else: cache
/// keys are built from it, and persisted cost-profile and warm-up state
/// carry those keys across processes.  A golden test pins it.
pub fn fingerprint_matrix(matrix: &DataMatrix) -> Fingerprint {
    let mut h = FingerprintBuilder::new();
    h.write_u64(matrix.n_rows() as u64);
    h.write_u64(matrix.n_cols() as u64);
    for &v in matrix.as_slice() {
        h.write_f64(v);
    }
    h.finish()
}

/// Content fingerprint of a slice of indices (used for fold membership,
/// labelled subsets, constraint endpoints…).
pub fn fingerprint_indices(indices: &[usize]) -> Fingerprint {
    let mut h = FingerprintBuilder::new();
    h.write_u64(indices.len() as u64);
    for &i in indices {
        h.write_u64(i as u64);
    }
    h.finish()
}

/// Identity of a cached artifact.
///
/// Keys combine the *content* fingerprint of the inputs with the structural
/// parameters of the computation, so equal inputs share work across folds,
/// trials and concurrent requests while different inputs can never collide
/// semantically (fingerprints are 64-bit content hashes; collisions are
/// astronomically unlikely at this workload's cardinalities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// Full pairwise distance matrix of a data set under the default metric.
    PairwiseDistances {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
    },
    /// Per-object core distances for a `MinPts`.
    CoreDistances {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
    },
    /// Mutual-reachability MST for a `MinPts`.
    MutualReachabilityMst {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
    },
    /// Condensed density hierarchy for a (`MinPts`, minimum cluster size).
    DensityHierarchy {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
        /// Minimum cluster size of the condensed tree.
        min_cluster_size: usize,
    },
    /// Transitive closure of one cross-validation fold's training side
    /// information.
    FoldClosure {
        /// Fingerprint of the side information realisation.
        side: Fingerprint,
        /// Fold index.
        fold: usize,
    },
    /// MPCKMeans seeding structures (closed constraint set + must-link
    /// neighbourhood centroid candidates) for one side-information
    /// realisation — invariant in the cluster count `k`, so one artifact
    /// serves the whole parameter sweep of a fold.
    MpckSeeding {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// Fingerprint of the constraint realisation.
        constraints: Fingerprint,
        /// Whether the seeding was computed over the transitive closure of
        /// the constraints (must match the algorithm configuration).
        use_closure: bool,
    },
    /// Escape hatch for downstream crates: a caller-defined domain plus a
    /// caller-computed fingerprint.
    Custom {
        /// Caller-chosen namespace (pick a random constant per use site).
        domain: u64,
        /// Caller-computed content fingerprint.
        key: Fingerprint,
    },
}

impl ArtifactKey {
    /// The artifact-kind names a [`CostProfile`] is keyed by, in canonical
    /// order.
    pub const KIND_NAMES: [&'static str; 7] = [
        "pairwise_distances",
        "core_distances",
        "mutual_reachability_mst",
        "density_hierarchy",
        "fold_closure",
        "mpck_seeding",
        "custom",
    ];

    /// The key's artifact-kind name (the granularity compute-time cost
    /// profiles are learned and persisted at).
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// Index of the key's kind into [`ArtifactKey::KIND_NAMES`] — also the
    /// index of its row in the cache's per-kind latency histograms.
    pub fn kind_index(&self) -> usize {
        match self {
            ArtifactKey::PairwiseDistances { .. } => 0,
            ArtifactKey::CoreDistances { .. } => 1,
            ArtifactKey::MutualReachabilityMst { .. } => 2,
            ArtifactKey::DensityHierarchy { .. } => 3,
            ArtifactKey::FoldClosure { .. } => 4,
            ArtifactKey::MpckSeeding { .. } => 5,
            ArtifactKey::Custom { .. } => 6,
        }
    }

    /// Deterministic routing hash over the key's content — deliberately
    /// *not* `std::hash::Hash` (whose `RandomState` seeds differ per map),
    /// so shard assignment is identical across runs, threads and processes
    /// (the future seam for consistent hashing across serving hosts).
    fn route_hash(&self) -> u64 {
        let mut h = FingerprintBuilder::new();
        match *self {
            ArtifactKey::PairwiseDistances { data } => {
                h.write_u64(1).write_u64(data);
            }
            ArtifactKey::CoreDistances { data, min_pts } => {
                h.write_u64(2).write_u64(data).write_u64(min_pts as u64);
            }
            ArtifactKey::MutualReachabilityMst { data, min_pts } => {
                h.write_u64(3).write_u64(data).write_u64(min_pts as u64);
            }
            ArtifactKey::DensityHierarchy {
                data,
                min_pts,
                min_cluster_size,
            } => {
                h.write_u64(4)
                    .write_u64(data)
                    .write_u64(min_pts as u64)
                    .write_u64(min_cluster_size as u64);
            }
            ArtifactKey::FoldClosure { side, fold } => {
                h.write_u64(5).write_u64(side).write_u64(fold as u64);
            }
            ArtifactKey::MpckSeeding {
                data,
                constraints,
                use_closure,
            } => {
                h.write_u64(6)
                    .write_u64(data)
                    .write_u64(constraints)
                    .write_u64(use_closure as u64);
            }
            ArtifactKey::Custom { domain, key } => {
                h.write_u64(7).write_u64(domain).write_u64(key);
            }
        }
        h.finish()
    }
}

/// Approximate resident size of a cached artifact, in bytes.
///
/// The cache charges every artifact against [`CacheConfig::max_bytes`] using
/// this trait, measured once at insertion.  Implementations should return
/// the artifact's *owned* footprint — stack size plus owned heap — and may
/// approximate (`len` instead of `capacity`, padding ignored); budgets are
/// resource knobs, not exact allocators.
pub trait ArtifactSize {
    /// Approximate owned size in bytes (stack + heap).
    fn artifact_bytes(&self) -> usize;
}

macro_rules! scalar_artifact_size {
    ($($t:ty),* $(,)?) => {
        $(impl ArtifactSize for $t {
            fn artifact_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        })*
    };
}

scalar_artifact_size!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
);

impl<T: ArtifactSize> ArtifactSize for Vec<T> {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(ArtifactSize::artifact_bytes).sum::<usize>()
    }
}

impl ArtifactSize for String {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.len()
    }
}

impl<A: ArtifactSize, B: ArtifactSize> ArtifactSize for (A, B) {
    fn artifact_bytes(&self) -> usize {
        self.0.artifact_bytes() + self.1.artifact_bytes()
    }
}

/// How a shard picks its eviction victim when a budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used committed artifact (the list head) —
    /// deterministic and O(1); the default.
    #[default]
    Lru,
    /// Among a bounded window of the least-recently-used artifacts, evict
    /// the one with the lowest recompute-cost per byte (the BJI-style
    /// benefit/space ratio, using per-artifact compute times recorded at
    /// commit).  Cheap-to-recompute bulky artifacts go first; expensive
    /// dense ones are retained beyond their LRU position.  Still O(1) per
    /// victim (the window is constant-sized), but victim choice depends on
    /// measured wall-clock compute times — cached *values* are unaffected,
    /// results stay bit-identical.
    CostBenefit,
}

impl EvictionPolicy {
    /// Parses a policy name (`lru`, `cost` / `cost_benefit` /
    /// `cost-benefit`); `None` for anything else.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "lru" => Some(Self::Lru),
            "cost" | "cost_benefit" | "cost-benefit" => Some(Self::CostBenefit),
            _ => None,
        }
    }

    /// The canonical name of the policy.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::CostBenefit => "cost_benefit",
        }
    }
}

/// Whether a freshly computed artifact is worth storing at all.
///
/// Admission is decided at commit time, after the value has been computed
/// and handed to the caller — rejecting an artifact can never change a
/// result, it only means the next request recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every artifact that fits its shard's budget slice (the
    /// default).
    #[default]
    Always,
    /// Admit only artifacts whose smoothed (EWMA) recompute cost exceeds
    /// a store-cost threshold derived from the artifact's byte size and
    /// the shard's current fill pressure (`ArtifactCache::admission_threshold`):
    /// caching is a purchase of future recompute time with resident bytes,
    /// and artifacts cheaper to recompute than to keep are declined.
    Cost,
}

impl AdmissionPolicy {
    /// Parses a policy name (`always`, `cost`); `None` for anything else.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "always" => Some(Self::Always),
            "cost" => Some(Self::Cost),
            _ => None,
        }
    }

    /// The canonical name of the policy.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Cost => "cost",
        }
    }
}

/// Hard ceiling on the shard count (itself a power of two).
pub const MAX_SHARDS: usize = 1024;

/// Default number of cache operations between adaptive shard-budget
/// rebalances (see [`CacheConfig::rebalance_interval`]).  Operation
/// counts, not wall clock: the trigger is deterministic for a fixed
/// operation sequence and reads no clocks on the hot path.  The interval
/// is deliberately small — a rebalance is eight uncontended lock
/// acquisitions plus integer arithmetic, and a CVCP selection drives only
/// a few artifact lookups per fold, so waiting hundreds of operations
/// would leave hot shards starved for most of a short workload.
pub const DEFAULT_REBALANCE_INTERVAL: u64 = 32;

/// Default [`CacheConfig::rebalance_floor_percent`]: every shard keeps at
/// least this percentage of its even budget split, so a cold shard can
/// always re-earn residency (a zero-budget shard would never observe the
/// misses that justify growing it back).  Deliberately low: with n
/// shards the floors pin `floor × n` of the budget on shards that may
/// have no demand at all, and a typical artifact is comparable to a
/// whole even slice — budget parked on cold shards is budget that
/// cannot push a hot shard past its artifact size.
pub const DEFAULT_REBALANCE_FLOOR_PERCENT: u32 = 10;

/// Store-cost charged per KiB of artifact at zero shard pressure, in
/// nanoseconds — the exchange rate [`AdmissionPolicy::Cost`] prices
/// resident bytes at.  The threshold doubles as the shard fills (see
/// [`ArtifactCache::admission_threshold`]).
const ADMISSION_NANOS_PER_KIB: u64 = 200;

/// Weight of the newest measurement in the per-kind compute-time EWMA:
/// `ewma' = (1 - w)·ewma + w·measured` (the first sample of a kind sets
/// the EWMA outright).
const COST_EWMA_WEIGHT: f64 = 0.3;

/// One artifact kind's learned compute-time average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfileEntry {
    /// The artifact-kind name (see [`ArtifactKey::kind_name`]).
    pub kind: &'static str,
    /// Exponentially-weighted moving average of the kind's compute time,
    /// in nanoseconds.
    pub ewma_nanos: f64,
    /// Number of measurements folded into the EWMA (including any carried
    /// over from a preloaded profile).
    pub samples: u64,
}

/// Per-artifact-kind compute-time EWMAs — the recompute-cost knowledge the
/// [`EvictionPolicy::CostBenefit`] policy scores victims with.
///
/// The profile is updated at every commit and can be exported
/// ([`ArtifactCache::cost_profile`]) and preloaded into a fresh cache
/// ([`ArtifactCache::preload_cost_profile`]), so a cold serving engine
/// starts with the weights a previous process learned instead of treating
/// its first artifact of each kind as the sole evidence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostProfile {
    /// One entry per observed kind, in [`ArtifactKey::KIND_NAMES`] order.
    pub entries: Vec<CostProfileEntry>,
}

/// In-memory per-kind EWMA state.
#[derive(Debug, Clone, Copy, Default)]
struct KindCost {
    ewma_nanos: f64,
    samples: u64,
}

/// Memory budget and layout of an [`ArtifactCache`].
///
/// `None` means "unbounded" for either budget knob.  Budgets apply to
/// *resident* (fully committed) artifacts: in-flight computations are never
/// evicted, so the map may transiently hold more uninitialized slots than
/// `max_entries`.
///
/// With `shards > 1` the global budgets start split evenly — each shard
/// enforces `max_bytes / shards` and `max_entries / shards` — and, when
/// `rebalance_interval > 0`, the adaptive rebalancer periodically moves
/// slice budget toward the shards with the highest observed miss-cost;
/// the slices always sum to at most the global budgets, so those are
/// never exceeded.  A nonzero `max_entries` smaller than the
/// shard count clamps the shard count down (each shard keeps at least one
/// entry of budget) rather than silently disabling caching.  An artifact
/// larger than its shard's byte slice (or any artifact, when `max_entries`
/// is zero) bypasses residency entirely — it is computed, handed to the
/// caller and immediately counted as evicted, without disturbing the
/// resident set.  Pick `max_bytes` at least `shards ×` the largest
/// artifact you want resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident artifact bytes (as measured by [`ArtifactSize`]).
    pub max_bytes: Option<usize>,
    /// Maximum number of resident artifacts.
    pub max_entries: Option<usize>,
    /// Number of independent shards.  Normalized by the cache to a power of
    /// two in `1..=`[`MAX_SHARDS`].
    pub shards: usize,
    /// Eviction victim selection policy.
    pub policy: EvictionPolicy,
    /// Commit-time admission policy.
    pub admission: AdmissionPolicy,
    /// Cache operations between adaptive shard-budget rebalances; `0`
    /// disables rebalancing (shards keep their even slices).  Only
    /// meaningful with more than one shard and at least one budget.
    pub rebalance_interval: u64,
    /// Percentage of the even budget split every shard keeps as a floor
    /// under rebalancing (clamped to `0..=100` when the cache is built).
    pub rebalance_floor_percent: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_bytes: None,
            max_entries: None,
            shards: 1,
            policy: EvictionPolicy::Lru,
            admission: AdmissionPolicy::Always,
            rebalance_interval: DEFAULT_REBALANCE_INTERVAL,
            rebalance_floor_percent: DEFAULT_REBALANCE_FLOOR_PERCENT,
        }
    }
}

impl CacheConfig {
    /// No budgets: the cache grows until cleared (the pre-eviction default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the resident artifact bytes.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Caps the number of resident artifacts.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries);
        self
    }

    /// Sets the shard count (normalized to a power of two in
    /// `1..=`[`MAX_SHARDS`] when the cache is built).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the eviction policy.
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the commit-time admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the adaptive rebalance trigger: every `interval` cache
    /// operations (`0` disables rebalancing).
    pub fn with_rebalance_interval(mut self, interval: u64) -> Self {
        self.rebalance_interval = interval;
        self
    }

    /// Sets the per-shard budget floor as a percentage of the even split
    /// (clamped to `0..=100` when the cache is built).
    pub fn with_rebalance_floor_percent(mut self, percent: u32) -> Self {
        self.rebalance_floor_percent = percent;
        self
    }

    /// `true` when neither budget is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_entries.is_none()
    }

    /// The shard count the cache will actually use: the next power of two
    /// of `shards`, clamped to `1..=`[`MAX_SHARDS`].
    pub fn normalized_shards(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS).next_power_of_two()
    }
}

/// A stored artifact: the type-erased value plus its measured byte size.
type Stored = (Arc<dyn Any + Send + Sync>, usize);
type Slot = Arc<OnceLock<Stored>>;

/// Sentinel slab index ("null pointer" of the intrusive list).
const NIL: usize = usize::MAX;

/// How many LRU-end candidates [`EvictionPolicy::CostBenefit`] compares per
/// eviction (constant, so eviction stays O(1) per victim).
const COST_BENEFIT_WINDOW: usize = 8;

/// One slab node: the shared slot plus the intrusive LRU links.
#[derive(Debug)]
struct Node {
    key: ArtifactKey,
    slot: Slot,
    /// `Some(bytes)` once the artifact is computed *and* committed to the
    /// resident accounting; `None` while the computation is in flight.
    bytes: Option<usize>,
    /// Estimated recompute cost in nanoseconds, recorded at commit: the
    /// measured wall-clock compute time folded into the artifact kind's
    /// EWMA (see [`CostProfile`]) — what [`EvictionPolicy::CostBenefit`]
    /// scores victims with.
    cost_nanos: u64,
    /// Previous node on the LRU list (towards the LRU head), or [`NIL`].
    prev: usize,
    /// Next node on the LRU list (towards the MRU tail), or [`NIL`].
    next: usize,
    /// Whether the node is linked on the LRU list (committed entries only).
    in_lru: bool,
}

/// The lock-protected part of one shard: a slab of nodes, a key index and
/// an intrusive LRU list threaded through the committed nodes.
#[derive(Debug)]
struct ShardMap {
    index: HashMap<ArtifactKey, usize>,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Least-recently-used committed node, or [`NIL`].
    head: usize,
    /// Most-recently-used committed node, or [`NIL`].
    tail: usize,
    /// Sum of `bytes` over committed entries.
    resident_bytes: usize,
    /// Number of committed entries.
    resident_entries: usize,
    /// High-water mark of `resident_bytes` (after budget enforcement).
    peak_resident_bytes: usize,
}

impl Default for ShardMap {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
            resident_entries: 0,
            peak_resident_bytes: 0,
        }
    }
}

impl ShardMap {
    fn node(&self, i: usize) -> &Node {
        self.nodes[i].as_ref().expect("live slab node")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.nodes[i].as_mut().expect("live slab node")
    }

    /// Places `node` into a free slab slot and returns its index.
    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.nodes[i].is_none(), "free-list slot occupied");
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    /// Removes node `i` from the slab (it must already be off the LRU
    /// list) and recycles its slot.
    fn release(&mut self, i: usize) -> Node {
        let node = self.nodes[i].take().expect("released slab node live");
        debug_assert!(!node.in_lru, "released node still linked");
        self.free.push(i);
        node
    }

    /// Splices node `i` onto the MRU tail of the LRU list.  O(1).
    fn attach_tail(&mut self, i: usize) {
        debug_assert!(!self.node(i).in_lru, "node already linked");
        let old_tail = self.tail;
        {
            let node = self.node_mut(i);
            node.prev = old_tail;
            node.next = NIL;
            node.in_lru = true;
        }
        if old_tail == NIL {
            self.head = i;
        } else {
            self.node_mut(old_tail).next = i;
        }
        self.tail = i;
    }

    /// Unlinks node `i` from the LRU list.  O(1).
    fn detach(&mut self, i: usize) {
        let (prev, next) = {
            let node = self.node_mut(i);
            debug_assert!(node.in_lru, "detaching unlinked node");
            let links = (node.prev, node.next);
            node.prev = NIL;
            node.next = NIL;
            node.in_lru = false;
            links
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }

    /// Re-stamps recency: moves a committed node to the MRU tail (no-op for
    /// in-flight nodes, which are not on the list).
    fn touch(&mut self, i: usize) {
        if self.node(i).in_lru {
            self.detach(i);
            self.attach_tail(i);
        }
    }

    /// The [`EvictionPolicy::CostBenefit`] victim: among the first
    /// [`COST_BENEFIT_WINDOW`] nodes from the LRU head, the one with the
    /// lowest recompute-cost per byte; ties keep the least recent.  The
    /// MRU tail — the just-committed artifact — is never sampled unless it
    /// is the only resident, matching LRU's "the fresh artifact is evicted
    /// last" contract.
    fn cost_benefit_victim(&self) -> usize {
        let mut best = NIL;
        let mut cursor = self.head;
        let mut seen = 0;
        while cursor != NIL && seen < COST_BENEFIT_WINDOW {
            if cursor == self.tail && best != NIL {
                break;
            }
            let candidate = self.node(cursor);
            if best == NIL || cost_ratio_less(candidate, self.node(best)) {
                best = cursor;
            }
            cursor = candidate.next;
            seen += 1;
        }
        best
    }
}

/// One rebalance round's new budget slices: every shard keeps a floor of
/// `floor_percent`% of the even split, and the rest is targeted
/// proportionally to the shards' recompute-demand `weights` (the even
/// split when there is no demand signal at all).
///
/// The steps toward the target are deliberately asymmetric.  Shrinking
/// is gentle — one sixteenth of the gap per round — because shrinking is
/// how residents die: when decay pushes a slice below its residency, the
/// shard's LRU evicts from the cold end, which drains artifacts that
/// will never be requested again (the distributed analogue of the
/// unsharded cache's global LRU) but must not outrun a workload phase
/// and evict residents the next phase re-uses.  (Clamping the shrink at
/// the shard's residency instead freezes the allocation: dead residents
/// are indistinguishable from phase-idle ones, so every slice pins its
/// first-arrival contents and the cache degenerates to static slicing.)
/// Growth takes three quarters of the gap but is funded purely by what
/// this round's shrinks released (scaled down proportionally when
/// over-subscribed), so the slice sum never exceeds `total` — urgent
/// growth does not wait for the periodic round anyway, it goes through
/// the commit-time slice borrower.  The rounding remainder goes to the
/// heaviest shard (first among ties), so when `current` sums to `total`
/// the result does too.
fn rebalanced_slices(
    total: usize,
    current: &[usize],
    weights: &[u64],
    floor_percent: u32,
) -> Vec<usize> {
    let n = current.len();
    debug_assert_eq!(n, weights.len());
    let even = total / n;
    let floor = ((even * floor_percent as usize) / 100).clamp(usize::from(even > 0), even.max(1));
    let sum_w: u128 = weights.iter().map(|&w| w as u128).sum();
    let target: Vec<usize> = if sum_w == 0 {
        vec![even; n]
    } else {
        let spread = total - floor * n;
        weights
            .iter()
            .map(|&w| floor + ((spread as u128 * w as u128) / sum_w) as usize)
            .collect()
    };
    let mut next = current.to_vec();
    let mut released = 0usize;
    let mut wants: Vec<usize> = vec![0; n];
    let mut wanted = 0usize;
    for i in 0..n {
        let (c, t) = (current[i], target[i]);
        if t < c {
            // `div_ceil` guarantees progress on tiny gaps.
            let step = (c - t).div_ceil(16);
            next[i] = c - step;
            released += step;
        } else {
            wants[i] = (3 * (t - c)) / 4;
            wanted += wants[i];
        }
    }
    if wanted > 0 {
        for i in 0..n {
            let grant = if wanted <= released {
                wants[i]
            } else {
                ((wants[i] as u128 * released as u128) / wanted as u128) as usize
            };
            next[i] += grant;
        }
    }
    let assigned: usize = next.iter().sum();
    if let Some(remainder) = total.checked_sub(assigned) {
        if remainder > 0 {
            let hottest = weights
                .iter()
                .enumerate()
                .max_by(|(ai, aw), (bi, bw)| aw.cmp(bw).then(bi.cmp(ai)))
                .map_or(0, |(i, _)| i);
            next[hottest] += remainder;
        }
    }
    next
}

/// `a.cost/a.bytes < b.cost/b.bytes`, exactly, via u128 cross
/// multiplication (no float rounding in victim selection).
fn cost_ratio_less(a: &Node, b: &Node) -> bool {
    let (a_bytes, b_bytes) = (
        a.bytes.expect("LRU node committed"),
        b.bytes.expect("LRU node committed"),
    );
    (a.cost_nanos as u128) * (b_bytes as u128) < (b.cost_nanos as u128) * (a_bytes as u128)
}

/// One independent cache shard: its map plus its lock-free counters.
#[derive(Debug)]
struct Shard {
    /// Rank [`CACHE_SHARD`]: shard locks never nest (neither with each
    /// other nor under the cost-profile lock — see `cvcp_obs::lock_rank`).
    map: RankedMutex<ShardMap>,
    /// Parks joiners of in-flight computations (companion to `map`).
    /// Notified whenever an in-flight entry resolves: the winner committed
    /// a value, its panic guard removed the entry, or `clear` dropped it.
    join_cv: RankedCondvar,
    /// The shard's *current* slice of [`CacheConfig::max_bytes`]
    /// (`usize::MAX` = unbounded).  Starts at the even split; moved by the
    /// adaptive rebalancer.  An atomic rather than map state so the
    /// rebalancer can read every shard's slice without taking (equal-rank)
    /// shard locks together; writers store it under the shard's map lock.
    byte_slice: AtomicUsize,
    /// The shard's current slice of [`CacheConfig::max_entries`]
    /// (`usize::MAX` = unbounded).
    entry_slice: AtomicUsize,
    /// Accumulated smoothed recompute demand on this shard, in
    /// nanoseconds: misses add the recompute cost actually paid, hits add
    /// the cost the resident spared.  (Miss-only weighting is unstable —
    /// a shard serving hits accrues no weight, loses its budget, evicts
    /// its residents, and only re-earns the budget by missing.)  This is
    /// the rebalancer's weight signal, halved (geometric decay) each time
    /// it is read so old pressure fades.  Artifacts too large to ever fit
    /// a slice (see `ArtifactCache::reachable_byte_slice`) contribute
    /// nothing: budget cannot help them.
    demand_nanos: AtomicU64,
    /// Relaxed mirror of the shard map's `resident_bytes`, written under
    /// the shard lock wherever the map field changes.  Lets the
    /// commit-time slice borrower read every other shard's *idle*
    /// headroom (slice − residents) without touching equal-rank shard
    /// locks.  Momentarily stale reads are benign: a victim shrunk
    /// slightly below its residency is re-clamped by `enforce_budget` on
    /// its own next commit.
    resident_bytes_hint: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    admission_rejections: Counter,
}

impl Default for Shard {
    fn default() -> Self {
        Self {
            map: RankedMutex::new(&CACHE_SHARD, ShardMap::default()),
            join_cv: RankedCondvar::new(),
            byte_slice: AtomicUsize::new(usize::MAX),
            entry_slice: AtomicUsize::new(usize::MAX),
            demand_nanos: AtomicU64::new(0),
            resident_bytes_hint: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            admission_rejections: Counter::new(),
        }
    }
}

impl Shard {
    /// The shard's current byte-budget slice (`None` = unbounded).
    fn byte_slice(&self) -> Option<usize> {
        match self.byte_slice.load(Ordering::Relaxed) {
            usize::MAX => None,
            v => Some(v),
        }
    }

    /// The shard's current entry-budget slice (`None` = unbounded).
    fn entry_slice(&self) -> Option<usize> {
        match self.entry_slice.load(Ordering::Relaxed) {
            usize::MAX => None,
            v => Some(v),
        }
    }
}

/// Removes the in-flight entry left behind by a panicked `compute` (the
/// regression this guards: a panic inside `get_or_compute` used to leave a
/// permanently uncommitted entry in the map — never an eviction candidate,
/// invisible to `len()`, accumulating forever).  Disarmed on success; on
/// unwind it removes the entry only if it is still *this* computation's
/// uninitialized slot, so a concurrent retry that won a value is kept.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    key: ArtifactKey,
    slot: &'a Slot,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        {
            let mut map = self.shard.map.lock().expect("artifact cache shard lock");
            if let Some(&i) = map.index.get(&self.key) {
                let node = map.node(i);
                if Arc::ptr_eq(&node.slot, self.slot)
                    && node.bytes.is_none()
                    && node.slot.get().is_none()
                {
                    debug_assert!(!node.in_lru);
                    map.index.remove(&self.key);
                    map.release(i);
                }
            }
        }
        // Joiners parked on this computation must re-claim (and possibly
        // become the new winner) — the value is never coming.
        self.shard.join_cv.notify_all();
    }
}

/// Per-shard counters plus a snapshot of the shard's residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (or found nothing).
    pub misses: u64,
    /// Artifacts evicted to stay within the shard's budget slice.
    pub evictions: u64,
    /// Total bytes released by evictions.
    pub evicted_bytes: u64,
    /// Resident (committed) artifacts at snapshot time.
    pub resident_entries: usize,
    /// Resident artifact bytes at snapshot time.
    pub resident_bytes: usize,
    /// High-water mark of the shard's resident bytes.
    pub peak_resident_bytes: usize,
    /// Commits declined by the admission policy (the artifact was handed
    /// to the caller but never made resident).
    pub admission_rejections: u64,
    /// The shard's *current* byte-budget slice as assigned by the
    /// adaptive rebalancer (`None` = unbounded).
    pub byte_slice: Option<usize>,
    /// The shard's current entry-budget slice (`None` = unbounded).
    pub entry_slice: Option<usize>,
}

/// Cache hit/miss/eviction counters plus a snapshot of residency,
/// aggregated over all shards (see [`ArtifactCache::shard_stats`] for the
/// per-shard breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact (or, for [`ArtifactCache::get`],
    /// found nothing).
    pub misses: u64,
    /// Artifacts evicted to stay within the configured budgets.
    pub evictions: u64,
    /// Total bytes released by evictions.
    pub evicted_bytes: u64,
    /// Resident (committed) artifacts at snapshot time.
    pub resident_entries: usize,
    /// Resident artifact bytes at snapshot time.
    pub resident_bytes: usize,
    /// Sum of the per-shard high-water marks of resident bytes.  With one
    /// shard this is exactly the cache-lifetime peak.  With several
    /// shards under adaptive rebalancing, the marks are reached at
    /// different times under different slice assignments, so their sum
    /// can exceed the global budget even though the *instantaneous*
    /// resident total never does (the live slices always sum to at most
    /// the budget — see [`ArtifactCache::assert_accounting_consistent`]).
    pub peak_resident_bytes: usize,
    /// Number of independent shards.
    pub shards: usize,
    /// Commits declined by the admission policy, summed over shards.
    pub admission_rejections: u64,
    /// Adaptive shard-budget rebalance rounds performed so far.
    pub rebalances: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, content-keyed, size-bounded store of shared computation
/// artifacts — sharded, with ordered O(1) eviction per shard.
#[derive(Debug)]
pub struct ArtifactCache {
    shards: Box<[Shard]>,
    shard_mask: usize,
    policy: EvictionPolicy,
    config: CacheConfig,
    /// Cache operations since creation — the deterministic rebalance
    /// trigger (every [`CacheConfig::rebalance_interval`] operations;
    /// never a clock read).
    ops: AtomicU64,
    /// Single-flight latch for the rebalancer: concurrent triggers skip
    /// rather than queue.
    rebalancing: AtomicBool,
    /// The largest byte slice the rebalancer could ever assign one shard
    /// (the global budget minus every other shard's floor; the even split
    /// when rebalancing is disabled; `usize::MAX` when unbounded).
    /// Artifacts above this can never become resident anywhere, so their
    /// misses are excluded from the demand signal — budget cannot help
    /// them, and letting their recompute cost capture budget starves the
    /// shards budget *could* help.
    reachable_byte_slice: usize,
    /// The byte-slice floor each shard is guaranteed (see
    /// [`CacheConfig::rebalance_floor_percent`]); the commit-time slice
    /// borrower never shrinks a victim below it.  `0` when the byte
    /// budget is unbounded or rebalancing is disabled.
    byte_floor: usize,
    /// Completed rebalance rounds.
    rebalances: Counter,
    /// Per-kind compute-time EWMAs (one global map — commits are rare
    /// relative to lookups, so the extra lock is off the hot hit path).
    /// Rank [`CACHE_PROFILE`], the innermost lock of the workspace.
    profile: RankedMutex<HashMap<&'static str, KindCost>>,
    /// Per-kind get/compute latency histograms, indexed by
    /// [`ArtifactKey::kind_index`].  Always-on: recording is a few relaxed
    /// atomic adds per access.
    latencies: Box<[KindLatency]>,
}

/// Always-on latency histograms for one artifact kind.
#[derive(Debug, Default)]
struct KindLatency {
    /// Duration of lookups that found a value (including any wait for an
    /// in-flight computation to finish — the cache-stall time).
    get: LogHistogram,
    /// Duration of `compute` closures run on misses.
    compute: LogHistogram,
}

/// A plain copy of one kind's latency histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindLatencySnapshot {
    /// The artifact kind, from [`ArtifactKey::KIND_NAMES`].
    pub kind: &'static str,
    /// Hit-path lookup latency (including in-flight waits).
    pub get: HistogramSnapshot,
    /// Miss-path compute latency.
    pub compute: HistogramSnapshot,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

impl ArtifactCache {
    /// An empty, unbounded, single-shard cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given budget/shard configuration.  The
    /// shard count is normalized per [`CacheConfig::normalized_shards`],
    /// then halved (down to 1) while a nonzero `max_entries` would slice
    /// to zero entries per shard — more shards than entry budget would
    /// silently bypass *every* commit, i.e. disable caching.  (A byte
    /// budget cannot be pre-clamped the same way: artifact sizes are only
    /// known at commit time — pick `max_bytes` ≥ `shards ×` the largest
    /// artifact you want resident.)
    pub fn with_config(config: CacheConfig) -> Self {
        let mut n = config.normalized_shards();
        if let Some(e) = config.max_entries {
            while n > 1 && e / n == 0 {
                n /= 2;
            }
        }
        let config = CacheConfig {
            shards: n,
            rebalance_floor_percent: config.rebalance_floor_percent.min(100),
            ..config
        };
        let shards: Box<[Shard]> = (0..n).map(|_| Shard::default()).collect();
        // Every shard starts at the even split; the rebalancer moves the
        // slices from there as miss-cost evidence accumulates.
        let byte_slice = config.max_bytes.map_or(usize::MAX, |b| b / n);
        let entry_slice = config.max_entries.map_or(usize::MAX, |e| e / n);
        for shard in shards.iter() {
            shard.byte_slice.store(byte_slice, Ordering::Relaxed);
            shard.entry_slice.store(entry_slice, Ordering::Relaxed);
        }
        let mut byte_floor = 0;
        let reachable_byte_slice = config.max_bytes.map_or(usize::MAX, |total| {
            let even = total / n;
            if n == 1 {
                total
            } else if config.rebalance_interval == 0 {
                even
            } else {
                let floor = ((even * config.rebalance_floor_percent as usize) / 100)
                    .clamp(usize::from(even > 0), even.max(1));
                byte_floor = floor;
                total - floor * (n - 1)
            }
        });
        Self {
            shards,
            shard_mask: n - 1,
            policy: config.policy,
            config,
            ops: AtomicU64::new(0),
            rebalancing: AtomicBool::new(false),
            reachable_byte_slice,
            byte_floor,
            rebalances: Counter::new(),
            profile: RankedMutex::new(&CACHE_PROFILE, HashMap::new()),
            latencies: ArtifactKey::KIND_NAMES
                .iter()
                .map(|_| KindLatency::default())
                .collect(),
        }
    }

    /// Per-kind get/compute latency histogram snapshots, in
    /// [`ArtifactKey::KIND_NAMES`] order (one row per kind, including
    /// kinds with no samples yet).
    pub fn kind_latency_snapshots(&self) -> Vec<KindLatencySnapshot> {
        ArtifactKey::KIND_NAMES
            .iter()
            .zip(self.latencies.iter())
            .map(|(&kind, lat)| KindLatencySnapshot {
                kind,
                get: lat.get.snapshot(),
                compute: lat.compute.snapshot(),
            })
            .collect()
    }

    /// Snapshot of the per-kind compute-time EWMAs, in
    /// [`ArtifactKey::KIND_NAMES`] order (kinds with no samples omitted).
    pub fn cost_profile(&self) -> CostProfile {
        let profile = self.profile.lock().expect("cost profile lock");
        CostProfile {
            entries: ArtifactKey::KIND_NAMES
                .iter()
                .filter_map(|&kind| {
                    profile.get(kind).map(|c| CostProfileEntry {
                        kind,
                        ewma_nanos: c.ewma_nanos,
                        samples: c.samples,
                    })
                })
                .collect(),
        }
    }

    /// Seeds the per-kind compute-time EWMAs from a previously exported
    /// [`CostProfile`], so a cold cache scores its first
    /// [`EvictionPolicy::CostBenefit`] victims with learned weights
    /// instead of single-sample measurements.  Unknown kind names are
    /// ignored; entries without samples are ignored too.  Victim choice is
    /// a pure time/space trade — preloading can never change cached
    /// values or results.
    pub fn preload_cost_profile(&self, profile: &CostProfile) {
        let mut map = self.profile.lock().expect("cost profile lock");
        for entry in &profile.entries {
            if entry.samples == 0 || !entry.ewma_nanos.is_finite() || entry.ewma_nanos < 0.0 {
                continue;
            }
            if let Some(&kind) = ArtifactKey::KIND_NAMES.iter().find(|&&k| k == entry.kind) {
                map.insert(
                    kind,
                    KindCost {
                        ewma_nanos: entry.ewma_nanos,
                        samples: entry.samples,
                    },
                );
            }
        }
    }

    /// Folds one measured compute time into the key's kind EWMA and
    /// returns the smoothed estimate — the recompute cost recorded on the
    /// committed node.  Smoothing keeps one noisy wall-clock measurement
    /// (a loaded machine, a cold file cache) from dominating victim
    /// selection, and lets a preloaded profile inform the first
    /// evictions of a cold cache.
    fn smoothed_cost(&self, key: &ArtifactKey, measured_nanos: u64) -> u64 {
        let mut map = self.profile.lock().expect("cost profile lock");
        let entry = map.entry(key.kind_name()).or_default();
        entry.samples = entry.samples.saturating_add(1);
        entry.ewma_nanos = if entry.samples == 1 {
            measured_nanos as f64
        } else {
            (1.0 - COST_EWMA_WEIGHT) * entry.ewma_nanos + COST_EWMA_WEIGHT * measured_nanos as f64
        };
        entry.ewma_nanos as u64
    }

    /// The cache's configuration (with the shard count normalized).
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of independent shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to — a pure function of the key's
    /// content and the shard count, identical across runs, thread counts
    /// and processes (the determinism the sharded tests pin).
    pub fn shard_of(&self, key: &ArtifactKey) -> usize {
        // Fibonacci-mix the FNV routing hash and take high bits: FNV's low
        // bits alone distribute poorly for small structured inputs.
        ((key.route_hash().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.shard_mask
    }

    fn shard_for(&self, key: &ArtifactKey) -> &Shard {
        &self.shards[self.shard_of(key)]
    }

    /// Returns the cached artifact for `key`, computing it with `compute` on
    /// first use.  Concurrent callers for the same key **join the in-flight
    /// computation cooperatively** — never computing it twice — and then
    /// share the same `Arc`: a pool worker that would otherwise idle runs
    /// other ready pool tasks while it waits (so a convoy of sibling fold
    /// jobs behind one hierarchy build turns into throughput instead of
    /// blocked threads), and any other thread parks on the shard's condvar
    /// until the winner commits.
    ///
    /// When a budget is configured, committing a new artifact evicts
    /// resident artifacts of the key's shard (victims per the configured
    /// [`EvictionPolicy`], O(1) each) until the shard's budget slice holds
    /// again.  An artifact that alone exceeds the byte slice bypasses
    /// residency — it is counted as immediately evicted and the resident
    /// set is left untouched (the returned `Arc` stays valid either way).
    ///
    /// If `compute` panics, the panic propagates, the in-flight entry is
    /// removed, and the key remains retryable.
    ///
    /// # Panics
    ///
    /// Panics if the same key was previously populated with a different type
    /// (keys are expected to map 1:1 to artifact types).
    pub fn get_or_compute<T, F>(&self, key: ArtifactKey, compute: F) -> Arc<T>
    where
        T: Send + Sync + ArtifactSize + 'static,
        F: FnOnce() -> T,
    {
        let value = self.get_or_compute_unnoted(key, compute);
        // Counted after all shard locks are released: a rebalance
        // triggered here takes shard locks one at a time itself.
        self.note_op();
        value
    }

    fn get_or_compute_unnoted<T, F>(&self, key: ArtifactKey, compute: F) -> Arc<T>
    where
        T: Send + Sync + ArtifactSize + 'static,
        F: FnOnce() -> T,
    {
        // cvcp: allow(D2, reason = "cache lookup-latency histogram; observability only")
        let lookup_from = Instant::now();
        let shard = self.shard_for(&key);
        let mut compute = Some(compute);
        // Claim outcome for one attempt; a `Join` that resolves without a
        // value (winner panicked, cache cleared) loops back to re-claim.
        enum Claim {
            Hit(Stored),
            Winner(Slot),
            Join(Slot),
        }
        loop {
            let claim = {
                let mut map = shard.map.lock().expect("artifact cache shard lock");
                match map.index.get(&key).copied() {
                    Some(i) => {
                        map.touch(i);
                        // A hit's value is the recompute it spared: the
                        // resident keeps attracting the budget that keeps
                        // it resident.  (Uncommitted in-flight nodes carry
                        // cost 0 — joiners add nothing here; the winner's
                        // commit feeds the full cost.)
                        shard
                            .demand_nanos
                            .fetch_add(map.node(i).cost_nanos, Ordering::Relaxed);
                        let slot = map.node(i).slot.clone();
                        match slot.get() {
                            Some(stored) => Claim::Hit(stored.clone()),
                            None => Claim::Join(slot),
                        }
                    }
                    None => {
                        let slot: Slot = Arc::default();
                        let i = map.alloc(Node {
                            key,
                            slot: Arc::clone(&slot),
                            bytes: None,
                            cost_nanos: 0,
                            prev: NIL,
                            next: NIL,
                            in_lru: false,
                        });
                        map.index.insert(key, i);
                        Claim::Winner(slot)
                    }
                }
            };
            let latency = &self.latencies[key.kind_index()];
            let stored = match claim {
                Claim::Hit(stored) => stored,
                Claim::Winner(slot) => {
                    // The shard lock is released before the (potentially
                    // slow) computation, so unrelated keys never serialise
                    // behind each other; the guard cleans up the in-flight
                    // entry — and wakes joiners — on unwind.
                    let mut guard = InFlightGuard {
                        shard,
                        key,
                        slot: &slot,
                        armed: true,
                    };
                    // cvcp: allow(D2, reason = "compute-cost EWMA feeding the cost-benefit evictor; affects only what is cached, never what is computed")
                    let started = Instant::now();
                    let depth = ComputeDepthGuard::enter();
                    let value = Arc::new((compute
                        .take()
                        .expect("only the winner consumes `compute`"))(
                    ));
                    drop(depth);
                    let cost_nanos =
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    let bytes = value.artifact_bytes();
                    let stored: Stored = (Arc::clone(&value) as Arc<dyn Any + Send + Sync>, bytes);
                    let won = slot.set(stored).is_ok();
                    debug_assert!(won, "an in-flight slot is initialised only by its inserter");
                    guard.armed = false;
                    shard.misses.fetch_add(1, Ordering::Relaxed);
                    note_thread_cache_event(false);
                    latency.compute.record(cost_nanos);
                    // `commit` re-takes the shard lock, ordering the slot
                    // publication above against every joiner's under-lock
                    // pre-park check — the notification can never be lost.
                    self.commit(shard, key, &slot, bytes, cost_nanos);
                    shard.join_cv.notify_all();
                    return value;
                }
                Claim::Join(slot) => match self.join_in_flight(shard, &key, &slot) {
                    Some(stored) => stored,
                    None => continue,
                },
            };
            shard.hits.fetch_add(1, Ordering::Relaxed);
            note_thread_cache_event(true);
            latency
                .get
                .record(u64::try_from(lookup_from.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let (value, _) = stored;
            return value
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("artifact type mismatch for cache key {key:?}"));
        }
    }

    /// Waits for another caller's in-flight computation of `key` to publish
    /// a value into `slot`.  A pool worker that is not itself inside a
    /// `compute` closure *helps* — runs ready pool tasks while it waits —
    /// instead of sleeping; any other thread parks on the shard's join
    /// condvar.  Returns `None` when the in-flight entry vanished without a
    /// value (the winner panicked, or the cache was cleared), in which case
    /// the caller must re-claim the key.
    fn join_in_flight(&self, shard: &Shard, key: &ArtifactKey, slot: &Slot) -> Option<Stored> {
        loop {
            if let Some(stored) = slot.get() {
                return Some(stored.clone());
            }
            if COMPUTE_DEPTH.with(Cell::get) == 0 && crate::pool::help_run_one_task() {
                continue;
            }
            // Nothing to help with: park until the winner publishes or the
            // entry vanishes.  Both pre-wait checks run under the shard
            // lock, and every resolution path takes that lock before
            // notifying, so the wake-up cannot be lost.
            let mut map = shard.map.lock().expect("artifact cache shard lock");
            loop {
                if slot.get().is_some() {
                    break;
                }
                let in_flight = map
                    .index
                    .get(key)
                    .copied()
                    .is_some_and(|i| Arc::ptr_eq(&map.node(i).slot, slot));
                if !in_flight {
                    drop(map);
                    return slot.get().cloned();
                }
                map = shard.join_cv.wait(map).expect("artifact cache shard lock");
            }
            drop(map);
        }
    }

    /// Returns the artifact for `key` if it is already cached (a hit when a
    /// computed value is present, a miss otherwise; never computes or
    /// blocks on an in-flight computation).
    pub fn get<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        let value = self.get_unnoted(key);
        self.note_op();
        value
    }

    fn get_unnoted<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        // cvcp: allow(D2, reason = "cache lookup-latency histogram; observability only")
        let lookup_from = Instant::now();
        let shard = self.shard_for(&key);
        let slot = {
            let mut map = shard.map.lock().expect("artifact cache shard lock");
            match map.index.get(&key).copied() {
                Some(i) if map.node(i).slot.get().is_some() => {
                    map.touch(i);
                    // Hits feed the demand signal too — see the
                    // `get_or_compute` hit path.
                    shard
                        .demand_nanos
                        .fetch_add(map.node(i).cost_nanos, Ordering::Relaxed);
                    Some(map.node(i).slot.clone())
                }
                _ => None,
            }
        };
        let Some(slot) = slot else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
            note_thread_cache_event(false);
            return None;
        };
        let (value, _) = slot.get().expect("slot checked initialized").clone();
        shard.hits.fetch_add(1, Ordering::Relaxed);
        note_thread_cache_event(true);
        self.latencies[key.kind_index()]
            .get
            .record(u64::try_from(lookup_from.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Some(
            value
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("artifact type mismatch for cache key {key:?}")),
        )
    }

    /// Books a freshly computed artifact into the shard's resident
    /// accounting and enforces its budget slice.  `slot` identifies the
    /// computation: if the entry was removed (or replaced) concurrently —
    /// e.g. by [`Self::clear`] — the bytes are simply not counted as
    /// resident.
    fn commit(&self, shard: &Shard, key: ArtifactKey, slot: &Slot, bytes: usize, cost_nanos: u64) {
        // The kind EWMA learns from every computation — including ones
        // whose artifact cannot stay resident — and the node records the
        // smoothed estimate rather than the raw one-shot measurement.
        let cost_nanos = self.smoothed_cost(&key, cost_nanos);
        // Every *winnable* commit is a paid miss: feed the shard's demand
        // signal so the rebalancer routes budget to where recompute time
        // is being spent.  An artifact no slice could ever hold is
        // excluded — its recompute cost would otherwise capture budget
        // from shards that could convert the same bytes into hits.
        if bytes <= self.reachable_byte_slice {
            shard.demand_nanos.fetch_add(cost_nanos, Ordering::Relaxed);
        }
        // On-demand slice borrow: budget moves the instant a shard needs
        // it, not at the next periodic round.  (The periodic rebalancer
        // alone always lags the workload: by the time a starved shard's
        // demand wins budget, the trial that needed it has passed.  An
        // unsharded cache never has this problem — its budget is a single
        // pool — so borrowing is what closes the sharded hit-rate gap.)
        // The commit grows this shard's slice to hold its residents plus
        // the new artifact — and one artifact's worth of slack, so the
        // shard is not back at the exact edge (and borrowing again) on
        // its very next commit.  Runs *before* this shard's map lock is
        // taken: the borrower may lock donor shards to evict, and
        // equal-rank shard locks never nest.  (The residency hint it
        // reads may lag a concurrent commit by a moment; the worst case
        // is borrowing slightly short and evicting from our own LRU.)
        if self.config.rebalance_interval != 0 && bytes <= self.reachable_byte_slice {
            if let Some(slice) = shard.byte_slice() {
                let wanted = shard
                    .resident_bytes_hint
                    .load(Ordering::Relaxed)
                    .saturating_add(bytes.saturating_mul(2))
                    .min(self.reachable_byte_slice);
                if wanted > slice {
                    self.borrow_byte_slice(shard, wanted - slice);
                }
            }
        }
        let mut map = shard.map.lock().expect("artifact cache shard lock");
        // Over-budget singleton bypass: an artifact that alone exceeds the
        // shard's byte slice (or any artifact, when the entry slice is 0)
        // can never stay resident — admitting it first would evict *every*
        // other resident (a cache wipe) only to be evicted itself.  Count
        // it as immediately evicted and leave the residents untouched.
        let oversized = shard.byte_slice().is_some_and(|max| bytes > max)
            || shard.entry_slice().is_some_and(|max| max == 0);
        if oversized {
            if let Some(&i) = map.index.get(&key) {
                let node = map.node(i);
                if Arc::ptr_eq(&node.slot, slot) && node.bytes.is_none() {
                    map.index.remove(&key);
                    map.release(i);
                }
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            shard
                .evicted_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            return;
        }
        // Admission control: decline artifacts whose recompute cost does
        // not pay for their residency.  Same bypass shape as the
        // oversized path — the caller's `Arc` stays valid, the resident
        // set is untouched, only the rejection counter moves.
        if self.config.admission == AdmissionPolicy::Cost
            && cost_nanos < Self::admission_threshold(bytes, map.resident_bytes, shard.byte_slice())
        {
            if let Some(&i) = map.index.get(&key) {
                let node = map.node(i);
                if Arc::ptr_eq(&node.slot, slot) && node.bytes.is_none() {
                    map.index.remove(&key);
                    map.release(i);
                }
            }
            shard.admission_rejections.inc();
            return;
        }
        if let Some(&i) = map.index.get(&key) {
            let committed = {
                let node = map.node_mut(i);
                if Arc::ptr_eq(&node.slot, slot) && node.bytes.is_none() {
                    node.bytes = Some(bytes);
                    node.cost_nanos = cost_nanos;
                    true
                } else {
                    false
                }
            };
            if committed {
                // Commit-time recency: the lookup happened before a
                // potentially slow compute, during which other keys may
                // have been touched — without this, the freshly computed
                // artifact could be the immediate LRU victim.
                map.attach_tail(i);
                map.resident_bytes += bytes;
                map.resident_entries += 1;
                shard
                    .resident_bytes_hint
                    .store(map.resident_bytes, Ordering::Relaxed);
            }
        }
        self.enforce_budget(shard, &mut map);
        map.peak_resident_bytes = map.peak_resident_bytes.max(map.resident_bytes);
    }

    /// Moves up to `need` bytes of budget from other shards onto
    /// `needy`, best-effort, in two stages: first *idle* headroom (slice
    /// minus residency hint, lock-free by CAS), then — if that does not
    /// cover the need — *occupied* budget reclaimed from the
    /// coldest-demand shards by shrinking their slices (never below the
    /// floor) and eagerly evicting their LRU tails.  Donors always
    /// shrink *before* `needy` grows, so the slice sum never exceeds the
    /// global budget.  Runs under the single-flight `rebalancing` latch
    /// shared with the periodic rebalancer — two concurrent writers with
    /// independent snapshots could otherwise re-inflate a just-shrunk
    /// slice; a borrow that loses the latch simply skips (the bypass
    /// path still feeds the demand signal, and the periodic round will
    /// route budget here).  Callers must hold no shard lock.
    fn borrow_byte_slice(&self, needy: &Shard, need: usize) {
        if self.rebalancing.swap(true, Ordering::Acquire) {
            return;
        }
        let mut donors: Vec<(usize, &Shard)> = self
            .shards
            .iter()
            .filter(|s| !std::ptr::eq(*s, needy))
            .map(|s| {
                let slice = s.byte_slice.load(Ordering::Relaxed);
                let keep = s
                    .resident_bytes_hint
                    .load(Ordering::Relaxed)
                    .max(self.byte_floor);
                (slice.saturating_sub(keep), s)
            })
            .collect();
        // Most idle headroom first: fewest victims disturbed, and a shard
        // that is actively using its slice is touched last.
        donors.sort_by_key(|&(headroom, _)| std::cmp::Reverse(headroom));
        let mut gained = 0usize;
        for (headroom, donor) in donors {
            if gained >= need {
                break;
            }
            let mut take = headroom.min(need - gained);
            while take > 0 {
                let cur = donor.byte_slice.load(Ordering::Relaxed);
                if cur == usize::MAX {
                    break;
                }
                take = take.min(cur);
                if donor
                    .byte_slice
                    .compare_exchange(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    gained += take;
                    break;
                }
            }
        }
        // Second stage, when idle headroom alone cannot cover the need:
        // reclaim *occupied* budget from the coldest shards — ascending
        // recompute demand, so a shard whose workload phase has passed
        // (and whose residents are likely dead) is raided before one
        // that is actively converting budget into hits.  Each donor's
        // slice is cut (never below the floor) and its LRU tail evicted
        // eagerly under its own lock, taken *after* the slice store so
        // the freed budget is real before `needy` grows.  This is the
        // distributed analogue of the unsharded cache's global LRU: a
        // new artifact displaces the system's coldest bytes, wherever
        // they reside.  The caller holds no shard lock here, and donor
        // locks are taken one at a time — equal-rank locks never nest.
        if gained < need {
            let mut cold: Vec<(u64, &Shard)> = self
                .shards
                .iter()
                .filter(|s| !std::ptr::eq(*s, needy))
                .map(|s| (s.demand_nanos.load(Ordering::Relaxed), s))
                .collect();
            cold.sort_by_key(|&(demand, _)| demand);
            for (_, donor) in cold {
                if gained >= need {
                    break;
                }
                let cur = donor.byte_slice.load(Ordering::Relaxed);
                if cur == usize::MAX {
                    continue;
                }
                let take = cur.saturating_sub(self.byte_floor).min(need - gained);
                if take == 0 {
                    continue;
                }
                let mut map = donor.map.lock().expect("artifact cache shard lock");
                donor.byte_slice.store(cur - take, Ordering::Relaxed);
                self.enforce_budget(donor, &mut map);
                gained += take;
            }
        }
        if gained > 0 {
            needy.byte_slice.fetch_add(gained, Ordering::Relaxed);
        }
        self.rebalancing.store(false, Ordering::Release);
    }

    /// The minimum smoothed recompute cost (nanoseconds) an artifact of
    /// `bytes` must carry to be admitted into a shard currently holding
    /// `resident_bytes` of a `byte_slice` budget: a base store-cost of
    /// [`ADMISSION_NANOS_PER_KIB`] per KiB, plus the same again scaled by
    /// the shard's fill fraction — an empty shard admits anything whose
    /// cost covers the base rate, a full shard demands double.
    fn admission_threshold(bytes: usize, resident_bytes: usize, byte_slice: Option<usize>) -> u64 {
        let kib = (bytes as u64).div_ceil(1024).max(1);
        let base = kib.saturating_mul(ADMISSION_NANOS_PER_KIB);
        let pressure = match byte_slice {
            Some(slice) if slice > 0 => {
                ((base as u128 * resident_bytes as u128) / slice as u128) as u64
            }
            _ => 0,
        };
        base.saturating_add(pressure)
    }

    fn over_budget(&self, shard: &Shard, map: &ShardMap) -> bool {
        shard
            .byte_slice()
            .is_some_and(|max| map.resident_bytes > max)
            || shard
                .entry_slice()
                .is_some_and(|max| map.resident_entries > max)
    }

    /// Evicts committed entries — O(1) per victim, from the ordered LRU
    /// list — until the shard's budget slice holds.  In-flight
    /// (uncommitted) entries are never on the list, so concurrent
    /// `get_or_compute` calls are never torn.
    fn enforce_budget(&self, shard: &Shard, map: &mut ShardMap) {
        while self.over_budget(shard, map) {
            let victim = match self.policy {
                EvictionPolicy::Lru => map.head,
                EvictionPolicy::CostBenefit => map.cost_benefit_victim(),
            };
            if victim == NIL {
                return;
            }
            map.detach(victim);
            let node = map.release(victim);
            map.index.remove(&node.key);
            let bytes = node.bytes.expect("LRU node committed");
            map.resident_bytes -= bytes;
            map.resident_entries -= 1;
            shard
                .resident_bytes_hint
                .store(map.resident_bytes, Ordering::Relaxed);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            shard
                .evicted_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Counts one public cache operation and, every
    /// [`CacheConfig::rebalance_interval`] of them, runs an adaptive
    /// shard-budget rebalance.  Called with no shard lock held.  The
    /// trigger is an operation count, never a clock (D2): for a fixed
    /// operation sequence the rebalance points are deterministic.
    fn note_op(&self) {
        if self.config.rebalance_interval == 0
            || self.shards.len() < 2
            || self.config.is_unbounded()
        {
            return;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.config.rebalance_interval) {
            self.rebalance();
        }
    }

    /// One adaptive rebalance round: reads every shard's accumulated
    /// recompute demand (decaying it geometrically so old pressure
    /// fades), computes new byte/entry budget slices proportional to
    /// that demand above a configured floor, and applies them with
    /// hysteresis — each slice moves three-quarters of the way toward
    /// its target per round.
    /// Shrinking shards are processed before growing ones, so the sum of
    /// the live slices never exceeds the global budget mid-apply (shard
    /// locks are taken one at a time — they never nest).  Slices never
    /// shrink below the shard's residency snapshot, so a rebalance moves
    /// idle budget rather than evicting (commits racing the snapshot are
    /// still clamped by `enforce_budget` under the new slice).
    /// Rebalancing moves budget, never values: results are bit-identical
    /// under any slice assignment.
    fn rebalance(&self) {
        if self.rebalancing.swap(true, Ordering::Acquire) {
            return; // a round is already running; skip, don't queue
        }
        let weights: Vec<u64> = self
            .shards
            .iter()
            .map(|s| {
                let cost = s.demand_nanos.load(Ordering::Relaxed);
                s.demand_nanos.store(cost / 2, Ordering::Relaxed);
                cost
            })
            .collect();
        let floor_percent = self.config.rebalance_floor_percent;
        let next_bytes = self.config.max_bytes.map(|total| {
            let current: Vec<usize> = self
                .shards
                .iter()
                .map(|s| s.byte_slice.load(Ordering::Relaxed))
                .collect();
            rebalanced_slices(total, &current, &weights, floor_percent)
        });
        let next_entries = self.config.max_entries.map(|total| {
            let current: Vec<usize> = self
                .shards
                .iter()
                .map(|s| s.entry_slice.load(Ordering::Relaxed))
                .collect();
            rebalanced_slices(total, &current, &weights, floor_percent)
        });
        // Two passes: shrinks first, then grows, so the global budget is
        // respected at every instant in between.
        for grow_pass in [false, true] {
            for (i, shard) in self.shards.iter().enumerate() {
                let new_bytes = next_bytes.as_ref().map(|v| v[i]);
                let new_entries = next_entries.as_ref().map(|v| v[i]);
                let shrinks = new_bytes
                    .is_some_and(|b| b < shard.byte_slice.load(Ordering::Relaxed))
                    || new_entries.is_some_and(|e| e < shard.entry_slice.load(Ordering::Relaxed));
                if shrinks == grow_pass {
                    continue;
                }
                let mut map = shard.map.lock().expect("artifact cache shard lock");
                if let Some(b) = new_bytes {
                    shard.byte_slice.store(b, Ordering::Relaxed);
                }
                if let Some(e) = new_entries {
                    shard.entry_slice.store(e, Ordering::Relaxed);
                }
                self.enforce_budget(shard, &mut map);
            }
        }
        self.rebalances.inc();
        self.rebalancing.store(false, Ordering::Release);
    }

    /// Number of populated entries (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let map = shard.map.lock().expect("artifact cache shard lock");
                map.nodes
                    .iter()
                    .flatten()
                    .filter(|node| node.slot.get().is_some())
                    .count()
            })
            .sum()
    }

    /// `true` when no entry has been populated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total map entries including uncommitted in-flight slots — the probe
    /// the panic-leak regression test uses (a leaked slot is invisible to
    /// [`Self::len`], which only counts populated entries).
    #[doc(hidden)]
    pub fn raw_entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .map
                    .lock()
                    .expect("artifact cache shard lock")
                    .index
                    .len()
            })
            .sum()
    }

    /// Drops every entry and resets the residency accounting (does not reset
    /// the hit/miss/eviction counters or the peak watermarks).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            {
                let mut map = shard.map.lock().expect("artifact cache shard lock");
                let peak = map.peak_resident_bytes;
                *map = ShardMap {
                    peak_resident_bytes: peak,
                    ..ShardMap::default()
                };
                shard.resident_bytes_hint.store(0, Ordering::Relaxed);
            }
            // Joiners parked on a dropped in-flight entry must re-claim.
            shard.join_cv.notify_all();
        }
    }

    /// Per-shard snapshot of the counters and residency state.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| {
                let map = shard.map.lock().expect("artifact cache shard lock");
                ShardStats {
                    hits: shard.hits.load(Ordering::Relaxed),
                    misses: shard.misses.load(Ordering::Relaxed),
                    evictions: shard.evictions.load(Ordering::Relaxed),
                    evicted_bytes: shard.evicted_bytes.load(Ordering::Relaxed),
                    resident_entries: map.resident_entries,
                    resident_bytes: map.resident_bytes,
                    peak_resident_bytes: map.peak_resident_bytes,
                    admission_rejections: shard.admission_rejections.get(),
                    byte_slice: shard.byte_slice(),
                    entry_slice: shard.entry_slice(),
                }
            })
            .collect()
    }

    /// Snapshot of the counters and residency state, aggregated over all
    /// shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            shards: self.shards.len(),
            rebalances: self.rebalances.get(),
            ..CacheStats::default()
        };
        for s in self.shard_stats() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.evicted_bytes += s.evicted_bytes;
            total.resident_entries += s.resident_entries;
            total.resident_bytes += s.resident_bytes;
            total.peak_resident_bytes += s.peak_resident_bytes;
            total.admission_rejections += s.admission_rejections;
        }
        total
    }

    /// Asserts that every shard's incremental residency accounting matches
    /// its live map exactly, that its budget slice holds, and that the
    /// intrusive LRU list is coherent (test/diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics when `resident_bytes`/`resident_entries` drifted from the sum
    /// over committed entries, a budget slice is exceeded, or the LRU list
    /// is inconsistent with the slab.
    #[doc(hidden)]
    pub fn assert_accounting_consistent(&self) {
        // Adaptive slices may move budget between shards, but the *sum*
        // of the live slices must never exceed the global budgets.
        if let Some(total) = self.config.max_bytes {
            let sum: usize = self.shards.iter().filter_map(Shard::byte_slice).sum();
            assert!(
                sum <= total,
                "per-shard byte slices sum to {sum}, above the global budget {total}"
            );
        }
        if let Some(total) = self.config.max_entries {
            let sum: usize = self.shards.iter().filter_map(Shard::entry_slice).sum();
            assert!(
                sum <= total,
                "per-shard entry slices sum to {sum}, above the global budget {total}"
            );
        }
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let map = shard.map.lock().expect("artifact cache shard lock");
            let (entries, bytes) = map
                .nodes
                .iter()
                .flatten()
                .filter_map(|node| node.bytes)
                .fold((0usize, 0usize), |(n, b), eb| (n + 1, b + eb));
            assert_eq!(
                (map.resident_entries, map.resident_bytes),
                (entries, bytes),
                "shard {shard_idx}: residency accounting drifted from the live map"
            );
            if let Some(max) = shard.byte_slice() {
                assert!(
                    map.resident_bytes <= max,
                    "shard {shard_idx}: resident bytes {} exceed the shard slice {max}",
                    map.resident_bytes
                );
            }
            if let Some(max) = shard.entry_slice() {
                assert!(
                    map.resident_entries <= max,
                    "shard {shard_idx}: resident entries {} exceed the shard slice {max}",
                    map.resident_entries
                );
            }
            // LRU list integrity: exactly the committed nodes, linked both
            // ways, every key indexed back to its node.
            let mut walked = 0usize;
            let mut cursor = map.head;
            let mut prev = NIL;
            while cursor != NIL {
                let node = map.node(cursor);
                assert!(node.in_lru, "shard {shard_idx}: listed node unflagged");
                assert!(
                    node.bytes.is_some(),
                    "shard {shard_idx}: uncommitted node on the LRU list"
                );
                assert_eq!(node.prev, prev, "shard {shard_idx}: broken back-link");
                assert_eq!(
                    map.index.get(&node.key),
                    Some(&cursor),
                    "shard {shard_idx}: listed node not indexed"
                );
                walked += 1;
                assert!(
                    walked <= map.resident_entries,
                    "shard {shard_idx}: LRU list longer than the resident count (cycle?)"
                );
                prev = cursor;
                cursor = node.next;
            }
            assert_eq!(
                walked, map.resident_entries,
                "shard {shard_idx}: LRU list does not cover the committed entries"
            );
            assert_eq!(map.tail, prev, "shard {shard_idx}: stale tail pointer");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn custom(key: u64) -> ArtifactKey {
        ArtifactKey::Custom { domain: 42, key }
    }

    #[test]
    fn computes_once_and_shares_the_arc() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let key = ArtifactKey::PairwiseDistances { data: 42 };
        let a: Arc<Vec<f64>> = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![1.0, 2.0]
        });
        let b: Arc<Vec<f64>> = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![3.0]
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.resident_entries, 1);
        assert_eq!(stats.resident_bytes, a.artifact_bytes());
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let cache = ArtifactCache::new();
        let a: Arc<usize> = cache.get_or_compute(
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 3,
            },
            || 3,
        );
        let b: Arc<usize> = cache.get_or_compute(
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 5,
            },
            || 5,
        );
        assert_eq!((*a, *b), (3, 5));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        let cache = Arc::new(ArtifactCache::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let key = ArtifactKey::Custom { domain: 7, key: 7 };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        99
                    });
                    *v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn parked_joiners_reclaim_after_winner_panic() {
        // The cooperative join must not strand joiners when the winner
        // panics: the panic guard removes the in-flight entry and wakes
        // them, exactly one re-claims as the new winner, and everyone gets
        // the recomputed value.
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 8, key: 8 };
        let calls = Arc::new(AtomicUsize::new(0));
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let winner = {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        started_tx.send(()).unwrap();
                        std::thread::sleep(std::time::Duration::from_millis(40));
                        panic!("winner dies mid-flight")
                    });
                }));
                assert!(result.is_err(), "the winning computation panics");
            })
        };
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("winner claims the key first");
        let joiners: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        77
                    });
                    *v
                })
            })
            .collect();
        winner.join().unwrap();
        for joiner in joiners {
            assert_eq!(joiner.join().unwrap(), 77);
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "one panicked attempt plus exactly one successful recompute"
        );
    }

    #[test]
    fn clear_wakes_parked_joiners() {
        // `clear` drops in-flight entries; a parked joiner must wake and
        // re-claim instead of sleeping forever on a vanished computation.
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 8, key: 9 };
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let winner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let v: Arc<u64> = cache.get_or_compute(key, || {
                    started_tx.send(()).unwrap();
                    gate_rx
                        .recv_timeout(std::time::Duration::from_secs(5))
                        .unwrap();
                    5
                });
                *v
            })
        };
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let joiner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let v: Arc<u64> = cache.get_or_compute(key, || 5);
                *v
            })
        };
        // Give the joiner a moment to park, then drop the entry from under
        // both of them and release the winner.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.clear();
        gate_tx.send(()).unwrap();
        assert_eq!(winner.join().unwrap(), 5);
        assert_eq!(joiner.join().unwrap(), 5);
    }

    #[test]
    fn joining_pool_workers_help_run_ready_tasks() {
        // Two pool workers race to compute one key; the winner blocks until
        // a third queued task has run.  With the old blocking join this
        // deadlocks (both workers wedged on one computation); with the
        // cooperative join the losing worker runs the third task itself.
        use crate::graph::N_LANES;
        use cvcp_obs::EngineMetrics;
        let metrics = Arc::new(EngineMetrics::new(2, N_LANES));
        let pool = crate::pool::ThreadPool::new(2, metrics);
        let handle = pool.handle();
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 9, key: 1 };
        let (helped_tx, helped_rx) = std::sync::mpsc::channel::<()>();
        let helped_rx = Arc::new(std::sync::Mutex::new(helped_rx));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u64>();
        for _ in 0..2 {
            let cache = Arc::clone(&cache);
            let helped_rx = Arc::clone(&helped_rx);
            let done_tx = done_tx.clone();
            handle.spawn(
                Box::new(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        helped_rx
                            .lock()
                            .unwrap()
                            .recv_timeout(std::time::Duration::from_secs(10))
                            .expect("the joining worker must help run the queued task");
                        42
                    });
                    done_tx.send(*v).unwrap();
                }),
                1,
            );
        }
        handle.spawn(Box::new(move || helped_tx.send(()).unwrap()), 1);
        for _ in 0..2 {
            assert_eq!(
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap(),
                42
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn get_counts_misses_symmetrically() {
        let cache = ArtifactCache::new();
        // absent key -> miss
        assert!(cache.get::<u64>(custom(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.hit_rate(), 0.0);
        // populate (one compute miss), then a get hit
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 5);
        assert_eq!(*cache.get::<u64>(custom(1)).unwrap(), 5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_max_entries_and_recency() {
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_entries(2));
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 1);
        let _: Arc<u64> = cache.get_or_compute(custom(2), || 2);
        // touch key 1 so key 2 is the LRU victim
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 11);
        let _: Arc<u64> = cache.get_or_compute(custom(3), || 3);
        assert!(cache.get::<u64>(custom(1)).is_some());
        assert!(cache.get::<u64>(custom(2)).is_none(), "LRU entry evicted");
        assert!(cache.get::<u64>(custom(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_entries, 2);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        // Each Vec<u64> artifact: 24 bytes of Vec header + 8 per element.
        let artifact_bytes = vec![0u64; 10].artifact_bytes();
        let budget = 2 * artifact_bytes + artifact_bytes / 2; // fits 2, not 3
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(budget));
        for k in 0..6u64 {
            let v: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 10]);
            assert_eq!(v.len(), 10);
            let stats = cache.stats();
            assert!(stats.resident_bytes <= budget);
            assert!(stats.peak_resident_bytes <= budget);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 2);
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.evicted_bytes, 4 * artifact_bytes as u64);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn freshly_computed_artifact_is_not_the_first_eviction_victim() {
        // The lookup happens before a potentially slow compute; other keys
        // touched during that compute (here: a nested get_or_compute,
        // exactly the FOSC tree-over-pairwise pattern) must not make the
        // fresh artifact look least-recently-used at commit time.
        let artifact_bytes = vec![0u64; 8].artifact_bytes();
        let cache =
            ArtifactCache::with_config(CacheConfig::default().with_max_bytes(artifact_bytes));
        let outer: Arc<Vec<u64>> = cache.get_or_compute(custom(1), || {
            let inner: Arc<Vec<u64>> = cache.get_or_compute(custom(2), || vec![2; 8]);
            inner.iter().map(|&x| x - 1).collect()
        });
        assert_eq!(outer[0], 1);
        // The nested (older-used) artifact is the victim, not the fresh one.
        assert!(cache.get::<Vec<u64>>(custom(1)).is_some());
        assert!(cache.get::<Vec<u64>>(custom(2)).is_none());
        cache.assert_accounting_consistent();
    }

    #[test]
    fn oversized_artifact_is_computed_then_released() {
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(8));
        let v: Arc<Vec<u64>> = cache.get_or_compute(custom(0), || vec![7; 100]);
        // the caller's Arc is valid even though the artifact cannot stay
        assert_eq!(v[99], 7);
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evictions, 1);
        assert!(stats.peak_resident_bytes <= 8);
        // next request recomputes
        let w: Arc<Vec<u64>> = cache.get_or_compute(custom(0), || vec![8; 100]);
        assert_eq!(w[0], 8);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn oversized_commit_does_not_evict_other_residents() {
        // The thrash regression: committing one artifact larger than the
        // whole byte budget used to evict *every* other resident (and then
        // the oversized artifact itself) — a full cache wipe.  Over-budget
        // singletons must bypass residency without touching their
        // neighbours.
        let artifact_bytes = vec![0u64; 10].artifact_bytes();
        let budget = 3 * artifact_bytes;
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(budget));
        // Warm the cache with three residents that fill the budget exactly.
        for k in 0..3u64 {
            let _: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 10]);
        }
        assert_eq!(cache.stats().resident_entries, 3);
        // Commit a 2×-budget artifact.
        let big: Arc<Vec<u64>> = cache.get_or_compute(custom(99), || vec![9; 2 * budget / 8]);
        assert_eq!(big.len(), 2 * budget / 8);
        let stats = cache.stats();
        assert_eq!(
            stats.resident_entries, 3,
            "prior residents must survive an oversized commit"
        );
        for k in 0..3u64 {
            assert!(
                cache.get::<Vec<u64>>(custom(k)).is_some(),
                "resident {k} was evicted by an oversized artifact"
            );
        }
        assert_eq!(
            stats.evictions, 1,
            "the oversized artifact counts as one immediate eviction"
        );
        assert!(cache.get::<Vec<u64>>(custom(99)).is_none());
        cache.assert_accounting_consistent();
    }

    #[test]
    fn panicking_compute_releases_the_in_flight_slot() {
        // The leak regression: a panic inside `compute` used to leave a
        // permanently uncommitted entry in the map — never an eviction
        // candidate, invisible to `len()`, accumulating per failed key.
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_entries(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<u64> = cache.get_or_compute(custom(1), || panic!("compute exploded"));
        }));
        assert!(result.is_err(), "the compute panic must propagate");
        assert_eq!(
            cache.raw_entry_count(),
            0,
            "a panicked compute must not leak its in-flight entry"
        );
        // The key stays retryable and commits normally afterwards.
        let v: Arc<u64> = cache.get_or_compute(custom(1), || 7);
        assert_eq!(*v, 7);
        assert_eq!(cache.stats().resident_entries, 1);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn shard_assignment_is_deterministic_and_spread() {
        let a = ArtifactCache::with_config(CacheConfig::default().with_shards(8));
        let b = ArtifactCache::with_config(CacheConfig::default().with_shards(8));
        assert_eq!(a.shard_count(), 8);
        let keys: Vec<ArtifactKey> = (0..64)
            .map(|i| ArtifactKey::DensityHierarchy {
                data: 0xD00D + i,
                min_pts: 3 + (i as usize % 8),
                min_cluster_size: 2,
            })
            .chain((0..64).map(custom))
            .collect();
        let mut used = std::collections::BTreeSet::new();
        for key in &keys {
            let shard = a.shard_of(key);
            assert!(shard < 8);
            assert_eq!(
                shard,
                b.shard_of(key),
                "shard assignment must be identical across cache instances"
            );
            used.insert(shard);
        }
        assert!(
            used.len() >= 4,
            "128 distinct keys should spread over most of 8 shards, used {used:?}"
        );
    }

    #[test]
    fn sharded_cache_returns_identical_values_and_respects_budget_slices() {
        let artifact_bytes = vec![0u64; 10].artifact_bytes();
        let unsharded = ArtifactCache::new();
        let sharded =
            ArtifactCache::with_config(CacheConfig::default().with_max_entries(8).with_shards(4));
        for k in 0..40u64 {
            let a: Arc<Vec<u64>> = unsharded.get_or_compute(custom(k), || vec![k; 10]);
            let b: Arc<Vec<u64>> = sharded.get_or_compute(custom(k), || vec![k; 10]);
            assert_eq!(*a, *b, "sharding must never change cached values");
            assert_eq!(a.artifact_bytes(), artifact_bytes);
        }
        let stats = sharded.stats();
        assert_eq!(stats.shards, 4);
        assert!(
            stats.resident_entries <= 8,
            "global entry budget exceeded: {}",
            stats.resident_entries
        );
        assert!(stats.evictions >= 32);
        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            stats.misses,
            "aggregate stats must equal the per-shard sum"
        );
        // The rebalancer may have moved entry budget between shards by
        // now; the invariants are per-shard residency within the *current*
        // slice and the slices summing to the global budget (the latter is
        // also in `assert_accounting_consistent`).
        for s in &per_shard {
            let slice = s.entry_slice.expect("entry-bounded shard");
            assert!(
                s.resident_entries <= slice,
                "shard holds {} entries over its slice {slice}",
                s.resident_entries
            );
        }
        assert_eq!(
            per_shard
                .iter()
                .filter_map(|s| s.entry_slice)
                .sum::<usize>(),
            8,
            "entry slices must sum to the global budget"
        );
        sharded.assert_accounting_consistent();
    }

    #[test]
    fn shard_count_is_normalized_to_a_power_of_two() {
        for (requested, expect) in [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (9, 16)] {
            let cache = ArtifactCache::with_config(CacheConfig::default().with_shards(requested));
            assert_eq!(cache.shard_count(), expect, "requested {requested}");
            assert_eq!(cache.config().shards, expect);
        }
    }

    #[test]
    fn shard_count_is_clamped_so_entry_slices_stay_nonzero() {
        // More shards than entry budget would slice to 0 entries per shard
        // — every commit would bypass and caching would silently turn off.
        // The shard count is halved until each shard keeps ≥ 1 entry.
        let cache =
            ArtifactCache::with_config(CacheConfig::default().with_max_entries(4).with_shards(8));
        assert_eq!(cache.shard_count(), 4);
        for k in 0..8u64 {
            let _: Arc<u64> = cache.get_or_compute(custom(k), || k);
        }
        let stats = cache.stats();
        assert!(
            stats.resident_entries >= 1,
            "a clamped sharded cache must still cache"
        );
        assert!(stats.resident_entries <= 4, "global entry budget holds");
        cache.assert_accounting_consistent();
        // A zero entry budget is honoured as "cache nothing" on one shard.
        let none =
            ArtifactCache::with_config(CacheConfig::default().with_max_entries(0).with_shards(8));
        assert_eq!(none.shard_count(), 1);
        let _: Arc<u64> = none.get_or_compute(custom(1), || 1);
        assert_eq!(none.stats().resident_entries, 0);
        none.assert_accounting_consistent();
    }

    #[test]
    fn rebalanced_slices_respect_floor_hysteresis_and_total() {
        // All demand on shard 0: its slice grows toward the non-floor
        // budget, the cold shards shrink toward the floor, and every
        // round (a) allocates exactly the global total, (b) moves each
        // cold slice only downward, and gently — at most a sixteenth of
        // its gap per round — (c) never dips below the 25% floor.
        let total = 8000usize;
        let even = 2000usize;
        let floor = 500usize;
        let mut slices = vec![even; 4];
        let weights = [1_000_000u64, 0, 0, 0];
        for _ in 0..48 {
            let next = rebalanced_slices(total, &slices, &weights, 25);
            assert_eq!(next.iter().sum::<usize>(), total, "budget fully allocated");
            for (i, (&n, &c)) in next.iter().zip(&slices).enumerate() {
                assert!(n >= floor, "slice {i} fell below the floor: {n}");
                if i > 0 {
                    assert!(n <= c, "cold slice {i} must not grow");
                    assert!(
                        n >= c - (c - floor).div_ceil(16),
                        "cold slice {i} shrank by more than a sixteenth of its gap"
                    );
                }
            }
            slices = next;
        }
        assert!(
            slices[0] > 6000,
            "hot shard must converge toward the whole distributable budget, got {slices:?}"
        );
        for &cold in &slices[1..] {
            assert!((floor..even).contains(&cold), "cold slices near the floor");
        }
        // No demand signal at all: the target is the even split, so an
        // even assignment is a fixed point.
        assert_eq!(
            rebalanced_slices(total, &[even; 4], &[0; 4], 25),
            vec![even; 4]
        );
    }

    #[test]
    fn adaptive_rebalance_grows_the_hot_shard() {
        let artifact_bytes = vec![0u64; 32].artifact_bytes();
        let total = 8 * artifact_bytes;
        let cache = ArtifactCache::with_config(
            CacheConfig::default()
                .with_max_bytes(total)
                .with_shards(2)
                .with_rebalance_interval(16),
        );
        let even = total / 2;
        let hot = cache.shard_of(&custom(0));
        let mut hot_keys = Vec::new();
        let mut cold_key = None;
        for k in 0..10_000u64 {
            if cache.shard_of(&custom(k)) == hot {
                if hot_keys.len() < 12 {
                    hot_keys.push(k);
                }
            } else if cold_key.is_none() {
                cold_key = Some(k);
            }
            if hot_keys.len() == 12 && cold_key.is_some() {
                break;
            }
        }
        let cold_key = cold_key.expect("both shards reachable");
        let _: Arc<Vec<u64>> = cache.get_or_compute(custom(cold_key), || vec![cold_key; 32]);
        // Hammer the hot shard with a working set 3× its even slice: every
        // round misses, accumulating recompute demand that the rebalancer
        // must convert into byte budget.
        for _ in 0..20 {
            for &k in &hot_keys {
                let v: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || {
                    // Guarantee a measurable (nonzero-EWMA) compute cost.
                    std::hint::black_box((0..2000u64).sum::<u64>());
                    vec![k; 32]
                });
                assert_eq!(*v, vec![k; 32], "rebalancing must never change values");
            }
        }
        let stats = cache.stats();
        assert!(stats.rebalances > 0, "the op-count trigger must have fired");
        let per_shard = cache.shard_stats();
        let hot_slice = per_shard[hot].byte_slice.expect("bounded shard");
        let cold_slice = per_shard[1 - hot].byte_slice.expect("bounded shard");
        assert!(
            hot_slice > even,
            "hot shard slice {hot_slice} must grow past the even split {even}"
        );
        assert!(
            cold_slice < even,
            "cold shard slice {cold_slice} must shrink below the even split {even}"
        );
        let floor = (even * DEFAULT_REBALANCE_FLOOR_PERCENT as usize) / 100;
        assert!(
            cold_slice >= floor,
            "cold shard slice {cold_slice} must keep the floor {floor}"
        );
        assert!(hot_slice + cold_slice <= total, "global budget holds");
        cache.assert_accounting_consistent();
    }

    #[test]
    fn admission_cost_policy_rejects_cheap_bulky_artifacts() {
        // A kind with a near-zero recompute EWMA (the closure hands over a
        // pre-built 8 MiB buffer, anchored by a preloaded zero-cost prior
        // so scheduling noise in a loaded test run cannot inflate the
        // estimate past the threshold) must never be admitted under
        // `cost` — the store-cost threshold for 8 MiB dwarfs its compute
        // time — while an expensive resident of another kind stays
        // untouched and the caller's Arc is valid.  The buffers are built
        // outside the measured compute: how long allocating and zeroing
        // 8 MiB takes depends on the allocator's state (a recycled heap
        // chunk is memset, a fresh mapping is not) and can cross the
        // threshold.
        const CHEAP_LEN: usize = 8 << 20;
        let cache = ArtifactCache::with_config(
            CacheConfig::default()
                .with_max_bytes(64 << 20)
                .with_admission(AdmissionPolicy::Cost),
        );
        cache.preload_cost_profile(&CostProfile {
            entries: vec![CostProfileEntry {
                kind: "custom",
                ewma_nanos: 0.0,
                samples: 1,
            }],
        });
        let resident_key = ArtifactKey::PairwiseDistances { data: 7 };
        let _: Arc<Vec<u64>> = cache.get_or_compute(resident_key, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            vec![1; 16]
        });
        assert_eq!(
            cache.stats().resident_entries,
            1,
            "an artifact whose recompute cost clears the threshold is admitted"
        );
        let calls = AtomicUsize::new(0);
        let mut prebuilt: Vec<Vec<u8>> = (0..3).map(|_| vec![0; CHEAP_LEN]).collect();
        for attempt in 0..3 {
            let buffer = prebuilt.pop().expect("one buffer per attempt");
            let v: Arc<Vec<u8>> = cache.get_or_compute(custom(1), || {
                calls.fetch_add(1, Ordering::SeqCst);
                buffer
            });
            assert_eq!(v.len(), CHEAP_LEN, "the caller's Arc is always valid");
            assert_eq!(
                calls.load(Ordering::SeqCst),
                attempt + 1,
                "a rejected artifact is recomputed on every request"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.admission_rejections, 3, "every commit was declined");
        assert_eq!(stats.resident_entries, 1, "residents are untouched");
        assert!(
            cache.get::<Vec<u64>>(resident_key).is_some(),
            "the expensive resident must survive admission rejections"
        );
        assert!(cache.get::<Vec<u8>>(custom(1)).is_none());
        cache.assert_accounting_consistent();
        // Control: the default `always` policy admits the same artifact.
        let always = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(64 << 20));
        let _: Arc<Vec<u8>> = always.get_or_compute(custom(1), || vec![0; CHEAP_LEN]);
        // Overflow guard on the threshold arithmetic itself.
        assert!(ArtifactCache::admission_threshold(usize::MAX, usize::MAX, Some(1)) > 0);
        assert_eq!(always.stats().resident_entries, 1);
        assert_eq!(always.stats().admission_rejections, 0);
    }

    #[test]
    fn admission_policy_parses_names() {
        assert_eq!(
            AdmissionPolicy::parse("always"),
            Some(AdmissionPolicy::Always)
        );
        assert_eq!(
            AdmissionPolicy::parse(" Cost "),
            Some(AdmissionPolicy::Cost)
        );
        assert_eq!(AdmissionPolicy::parse("lfu"), None);
        assert_eq!(AdmissionPolicy::default().name(), "always");
        assert_eq!(AdmissionPolicy::Cost.name(), "cost");
    }

    #[test]
    fn cost_benefit_policy_retains_expensive_artifacts() {
        // Two same-sized artifacts, one ~40 ms to recompute and one ~free:
        // under entry pressure, plain LRU would evict the older (expensive)
        // one; the cost-benefit policy keeps it and drops the cheap one.
        let cache = ArtifactCache::with_config(
            CacheConfig::default()
                .with_max_entries(2)
                .with_policy(EvictionPolicy::CostBenefit),
        );
        let _: Arc<Vec<u64>> = cache.get_or_compute(custom(1), || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            vec![1; 16]
        });
        let _: Arc<Vec<u64>> = cache.get_or_compute(custom(2), || vec![2; 16]);
        let _: Arc<Vec<u64>> = cache.get_or_compute(custom(3), || vec![3; 16]);
        assert!(
            cache.get::<Vec<u64>>(custom(1)).is_some(),
            "the expensive artifact must be retained beyond its LRU position"
        );
        assert!(
            cache.get::<Vec<u64>>(custom(2)).is_none(),
            "the cheap artifact is the cost-benefit victim"
        );
        assert_eq!(cache.stats().evictions, 1);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn cost_profile_learns_per_kind_ewmas() {
        let cache = ArtifactCache::new();
        let _: Arc<u64> = cache.get_or_compute(custom(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            1
        });
        let _: Arc<u64> = cache.get_or_compute(ArtifactKey::PairwiseDistances { data: 9 }, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            2
        });
        // A hit must not add a sample.
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 1);
        let profile = cache.cost_profile();
        assert_eq!(profile.entries.len(), 2);
        // KIND_NAMES order: pairwise before custom.
        assert_eq!(profile.entries[0].kind, "pairwise_distances");
        assert_eq!(profile.entries[0].samples, 1);
        assert!(profile.entries[0].ewma_nanos >= 2e6);
        assert_eq!(profile.entries[1].kind, "custom");
        assert_eq!(profile.entries[1].samples, 1);
        assert!(profile.entries[1].ewma_nanos >= 5e6);
    }

    #[test]
    fn preloaded_cost_profile_seeds_the_kind_ewmas() {
        let warm = ArtifactCache::new();
        let _: Arc<u64> = warm.get_or_compute(custom(1), || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            1
        });
        let exported = warm.cost_profile();

        let cold = ArtifactCache::new();
        cold.preload_cost_profile(&exported);
        let reloaded = cold.cost_profile();
        assert_eq!(reloaded, exported, "preload must round-trip the profile");

        // The first measurement on the cold cache blends with the learned
        // prior instead of replacing it: a ~0 ms compute lands well above
        // zero (at (1 - w)·prior) because the prior was ~20 ms.
        let _: Arc<u64> = cold.get_or_compute(custom(2), || 2);
        let after = cold.cost_profile();
        assert_eq!(after.entries[0].samples, 2);
        assert!(
            after.entries[0].ewma_nanos >= 0.5 * exported.entries[0].ewma_nanos,
            "cold-start estimate {} must be anchored by the preloaded prior {}",
            after.entries[0].ewma_nanos,
            exported.entries[0].ewma_nanos
        );

        // Unknown kinds and empty entries are ignored.
        let fresh = ArtifactCache::new();
        fresh.preload_cost_profile(&CostProfile {
            entries: vec![
                CostProfileEntry {
                    kind: "warp_drive",
                    ewma_nanos: 1e9,
                    samples: 3,
                },
                CostProfileEntry {
                    kind: "custom",
                    ewma_nanos: 1e6,
                    samples: 0,
                },
            ],
        });
        assert!(fresh.cost_profile().entries.is_empty());
    }

    #[test]
    fn kind_names_cover_every_key_variant() {
        let keys = [
            ArtifactKey::PairwiseDistances { data: 1 },
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 2,
            },
            ArtifactKey::MutualReachabilityMst {
                data: 1,
                min_pts: 2,
            },
            ArtifactKey::DensityHierarchy {
                data: 1,
                min_pts: 2,
                min_cluster_size: 2,
            },
            ArtifactKey::FoldClosure { side: 1, fold: 0 },
            ArtifactKey::MpckSeeding {
                data: 1,
                constraints: 2,
                use_closure: true,
            },
            custom(1),
        ];
        for key in keys {
            assert!(
                ArtifactKey::KIND_NAMES.contains(&key.kind_name()),
                "{key:?} has an unlisted kind name"
            );
        }
    }

    #[test]
    fn eviction_policy_parses_names() {
        assert_eq!(EvictionPolicy::parse("lru"), Some(EvictionPolicy::Lru));
        assert_eq!(
            EvictionPolicy::parse(" Cost "),
            Some(EvictionPolicy::CostBenefit)
        );
        assert_eq!(
            EvictionPolicy::parse("cost_benefit"),
            Some(EvictionPolicy::CostBenefit)
        );
        assert_eq!(EvictionPolicy::parse("clock"), None);
        assert_eq!(EvictionPolicy::default().name(), "lru");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ArtifactCache::new();
        assert!(cache.config().is_unbounded());
        for k in 0..100u64 {
            let _: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 50]);
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_entries, 100);
        assert_eq!(stats.peak_resident_bytes, stats.resident_bytes);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn concurrent_eviction_never_tears_or_double_computes_in_flight() {
        // N threads hammer an over-budget cache: artifacts must never be
        // observed torn, a key must never be computed twice concurrently,
        // and the byte/entry accounting must match the live map afterwards.
        // Runs once unsharded and once with 4 shards (per-shard budget
        // slices) — the contract is identical.
        const KEYS: u64 = 16;
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let artifact_bytes = vec![0u64; 32].artifact_bytes();
        for shards in [1usize, 4] {
            // room for ~4 of the 16 artifacts -> constant eviction pressure
            let cache = Arc::new(ArtifactCache::with_config(
                CacheConfig::default()
                    .with_max_bytes(4 * artifact_bytes + 1)
                    .with_shards(shards),
            ));
            let in_flight: Arc<Vec<AtomicUsize>> =
                Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let in_flight = Arc::clone(&in_flight);
                    std::thread::spawn(move || {
                        for round in 0..ROUNDS {
                            let key = ((t + round) as u64 * 7 + round as u64) % KEYS;
                            let v: Arc<Vec<u64>> = cache.get_or_compute(custom(key), || {
                                let running =
                                    in_flight[key as usize].fetch_add(1, Ordering::SeqCst);
                                assert_eq!(running, 0, "key {key} computed twice concurrently");
                                let value = vec![key; 32];
                                in_flight[key as usize].fetch_sub(1, Ordering::SeqCst);
                                value
                            });
                            // a torn artifact would have wrong length or content
                            assert_eq!(v.len(), 32);
                            assert!(v.iter().all(|&x| x == key), "torn artifact for key {key}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            cache.assert_accounting_consistent();
            let stats = cache.stats();
            assert!(stats.evictions > 0, "budget pressure must cause evictions");
            assert!(stats.resident_bytes <= 4 * artifact_bytes + 1);
            assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
        }
    }

    #[test]
    fn matrix_fingerprints_detect_content_changes() {
        let a = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut b = a.clone();
        assert_eq!(fingerprint_matrix(&a), fingerprint_matrix(&b));
        b.set(1, 1, 4.5);
        assert_ne!(fingerprint_matrix(&a), fingerprint_matrix(&b));
        // shape participates in the fingerprint
        let flat = DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 1, 4);
        assert_ne!(fingerprint_matrix(&a), fingerprint_matrix(&flat));
    }

    #[test]
    fn fingerprint_matrix_matches_the_bytewise_fnv_golden_value() {
        // Cache keys, persisted cost profiles and warm-up state are keyed
        // by these values: any faster or memoised fingerprint must
        // reproduce the byte-wise FNV-1a over (rows, cols, value bits)
        // exactly.
        let m = DataMatrix::from_rows(&[vec![1.0, -2.5, 0.0], vec![3.25, 1e-3, -0.0]]);
        assert_eq!(fingerprint_matrix(&m), 0x3048_FE38_B182_588D);
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..4).map(|j| 0.5 * i as f64 - j as f64).collect())
            .collect();
        assert_eq!(
            fingerprint_matrix(&DataMatrix::from_rows(&rows)),
            0xCD51_EE4A_1112_CA70
        );
        assert_eq!(
            fingerprint_matrix(&DataMatrix::zeros(0, 0)),
            0x8820_1FB9_60FF_6465
        );
    }

    #[test]
    fn index_fingerprints_are_order_sensitive() {
        assert_ne!(
            fingerprint_indices(&[1, 2, 3]),
            fingerprint_indices(&[3, 2, 1])
        );
        assert_eq!(
            fingerprint_indices(&[1, 2, 3]),
            fingerprint_indices(&[1, 2, 3])
        );
    }

    #[test]
    fn clear_empties_the_cache_and_resets_residency() {
        let cache = ArtifactCache::new();
        let _: Arc<u8> = cache.get_or_compute(ArtifactKey::Custom { domain: 1, key: 1 }, || 1);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache
            .get::<u8>(ArtifactKey::Custom { domain: 1, key: 1 })
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn artifact_size_measures_nested_heap() {
        assert_eq!(7u64.artifact_bytes(), 8);
        assert_eq!(vec![1.0f64; 4].artifact_bytes(), 24 + 32);
        let nested = vec![vec![1.0f64; 2]; 3];
        assert_eq!(nested.artifact_bytes(), 24 + 3 * (24 + 16));
        assert_eq!("abc".to_string().artifact_bytes(), 24 + 3);
    }
}
