//! The [`SearchBackend`] abstraction: the *physical* evaluation substrate
//! behind the *logical* top-k interface.
//!
//! The paper's estimators only ever observe the interface contract of
//! §2.1 (issue a conjunctive query → underflow / valid / overflow with
//! top-k tuples). How `Sel(q)` is computed — one in-memory table, a
//! hash-partitioned cluster of shards, a slow remote API — is invisible
//! to them. This module captures exactly that split:
//!
//! * [`SearchBackend`] — what a physical substrate must answer: the
//!   schema, the corpus size, a classified top-k [`Evaluation`] of a
//!   query, and exact COUNT/SUM ground truth for scoring experiments;
//! * [`TableBackend`] — the default substrate, a single [`Table`] with a
//!   bitmap [`TableIndex`] (and an optional
//!   linear-scan reference path, [`EvalMode::Scan`]);
//! * [`ShardedDb`](crate::ShardedDb) and
//!   [`LatencyBackend`](crate::LatencyBackend) (sibling modules) — the
//!   distributed and remote-API substrates.
//!
//! [`HiddenDb`](crate::HiddenDb) is generic over the backend; the query
//! accounting ([`QueryCounter`](crate::QueryCounter)), budgets, and the
//! client-side [`CachingInterface`](crate::CachingInterface) therefore
//! work unchanged over every substrate. Backends must agree **bit for
//! bit**: for the same logical corpus, every implementation returns
//! identical [`Evaluation`]s, which is what keeps estimator runs
//! reproducible when the substrate is swapped (pinned by the
//! backend-equivalence property tests).

use std::any::Any;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bitmap::{AndOnesIter, Bitmap, OnesIter};
use crate::error::{HdbError, Result};
use crate::index::TableIndex;
use crate::interface::{QueryOutcome, ReturnedTuple};
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RowIdRanking};
use crate::schema::{AttrId, Schema};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};

/// How a [`TableBackend`] evaluates `Sel(q)` (paper-invisible: outcomes
/// are identical either way, only server CPU time differs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Intersect per-`(attribute, value)` posting bitmaps and popcount —
    /// the fast path, default.
    #[default]
    Bitmap,
    /// Filter the tuple vector per query — the naive reference path,
    /// kept selectable so benches and property tests can compare.
    Scan,
}

/// The classified result of evaluating one query against a backend.
///
/// Invariants (every [`SearchBackend`] must uphold them, the
/// backend-equivalence tests check them):
///
/// * `count` is exactly `|Sel(q)|`;
/// * if `count ≤ k`, `top` holds **all** matches in ascending global
///   tuple-id order;
/// * if `count > k`, `top` holds the `k` top-ranked matches in ascending
///   `(score, id)` order under the ranking function the caller passed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// `|Sel(q)|` — the true number of matching tuples.
    pub count: usize,
    /// The returned tuples (see the ordering invariants above).
    pub top: Vec<ReturnedTuple>,
}

impl Evaluation {
    /// Classifies this evaluation into the paper's three outcomes for an
    /// interface constant `k` (the same `k` the evaluation was computed
    /// with).
    #[must_use]
    pub fn into_outcome(self, k: usize) -> QueryOutcome {
        if self.count == 0 {
            QueryOutcome::Underflow
        } else if self.count <= k {
            QueryOutcome::Valid(Arc::new(self.top))
        } else {
            QueryOutcome::Overflow(Arc::new(self.top))
        }
    }
}

/// Opaque per-node incremental-evaluation state owned by a backend.
///
/// A drill-down walk session ([`WalkSession`](crate::WalkSession)) keeps
/// one `WalkState` per committed level: the backend's materialised match
/// set of that level's query, in whatever representation the backend
/// chooses (a dense bitmap or, for small sets, sorted row ids for
/// [`TableBackend`]; one such set per shard for
/// [`ShardedDb`](crate::ShardedDb)). The payload is type-erased so the
/// session machinery stays backend-agnostic; a state with no payload
/// simply falls back to fresh [`SearchBackend::evaluate`] calls, which is
/// how backends without a fast path participate.
pub struct WalkState {
    payload: Option<Box<dyn Any + Send + Sync>>,
}

impl Default for WalkState {
    fn default() -> Self {
        Self::fallback()
    }
}

impl WalkState {
    /// A state with no incremental payload: every child evaluation falls
    /// back to a fresh [`SearchBackend::evaluate`].
    #[must_use]
    pub fn fallback() -> Self {
        Self { payload: None }
    }

    /// Wraps a backend-specific payload.
    #[must_use]
    pub fn with_payload<T: Any + Send + Sync>(payload: T) -> Self {
        Self { payload: Some(Box::new(payload)) }
    }

    /// Downcasts the payload, if present and of type `T`.
    #[must_use]
    pub fn payload<T: Any>(&self) -> Option<&T> {
        self.payload.as_deref().and_then(<dyn Any + Send + Sync>::downcast_ref)
    }

    /// Reuses this (retired) state's payload allocation for a new `T`
    /// payload: `fill` overwrites the old `T` in place, or a default `T`
    /// when the state carries none (or another type). This is how a
    /// backend's `extend_state` recycles a scratch-arena state without
    /// allocating.
    #[must_use]
    pub fn recycle_into<T>(mut self, fill: impl FnOnce(&mut T)) -> Self
    where
        T: Any + Send + Sync + Default,
    {
        let reusable = self.payload.as_deref_mut().and_then(<dyn Any + Send + Sync>::downcast_mut);
        if let Some(t) = reusable {
            fill(t);
        } else {
            let mut t = T::default();
            fill(&mut t);
            self.payload = Some(Box::new(t));
        }
        self
    }

}

/// Result of the count-only fast path ([`SearchBackend::classify_from`]):
/// the exact match count, plus the full result page exactly when the
/// query is *valid* (`1 ≤ count ≤ k`, all matches in ascending global id
/// order — ranking-independent, so no ranking function is needed). For
/// underflow and overflow the page stays empty: skipping the top-k
/// selection of overflowing probes is the whole point of this path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classified {
    /// `|Sel(q)|` — the true number of matching tuples.
    pub count: usize,
    /// All matches (ascending id) iff `1 ≤ count ≤ k`; empty otherwise.
    pub page: Vec<ReturnedTuple>,
}

impl Classified {
    /// Derives the classification from a full [`Evaluation`] (the
    /// fallback used when no count-only kernel exists).
    #[must_use]
    pub fn from_evaluation(eval: Evaluation, k: usize) -> Self {
        let page = if eval.count <= k { eval.top } else { Vec::new() };
        Self { count: eval.count, page }
    }
}

/// Walk states expected to match at most `rows / SPARSE_DIVISOR` rows
/// hold sorted row ids instead of a dense bitmap.
///
/// A dense probe costs one AND-popcount pass over `rows / 64` words
/// whatever the match count; a sparse probe costs one bit test per id.
/// What decides the crossover is the conversion: reading ids off a dense
/// AND costs several times a plain dense extend, and a state is probed
/// only a few times before the walk moves on, so a conversion made too
/// early is never repaid. Sweep on the 100k×40 `bool_iid` corpus
/// (k = 10), medians of interleaved runs on a shared 2-vCPU Xeon VM:
/// HD estimator probes/s through `HiddenDb` (1,000-pass rounds, memo
/// warm), and mean ns per backend `classify_from`/`extend_state` over
/// random root-to-leaf descents:
///
/// | divisor | sparse at ≤ rows | runs | HD probes/s | classify ns | extend ns |
/// |--------:|-----------------:|-----:|------------:|------------:|----------:|
/// | dense only | — | 13 | 304k | 2,376 | 583 |
/// | 64 | 1,562 | 3 | 512k | 1,306 | 1,101 |
/// | 128 | 781 | 3 | 555k | 1,228 | 711 |
/// | **256** | **390** | 13 | **566k** | **1,326** | **642** |
/// | 512 | 195 | 9 | 584k | 1,530 | 664 |
/// | 1,024 | 97 | 9 | 513k | 1,614 | 662 |
///
/// 256 and 512 are within the host's noise on throughput; 256 keeps the
/// cheaper probes and extends. Its raw extends average ~10% above
/// dense-only, the price of one conversion per descent; measured through
/// `WalkSession` they come out below it, since the session's first
/// extend now borrows a posting instead of copying 12.5 KB.
///
/// The choice only moves time: both representations hold the same row
/// set, so every result is bit-identical whatever the divisor.
pub(crate) const SPARSE_DIVISOR: usize = 256;

/// How a [`SelState`]'s match set is held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Repr {
    /// Every row of the table matches (no buffer in use).
    #[default]
    All,
    /// Exactly the rows of one posting, read from the index on use
    /// (nothing copied).
    Posting(Predicate),
    /// `bits` holds the match set. `est` is the expected number of
    /// matches; it only picks the representation of children.
    Dense { est: usize },
    /// The first `n` entries of `ids` are the matching rows, ascending
    /// (the rest is scratch, kept so refills need no clearing).
    Sparse { n: usize },
}

/// Owned match set of one walk node over a single bitmap-indexed table:
/// `All` until the first predicate commits (the root query of a
/// whole-database walk constrains nothing, so nothing is materialised),
/// then the one posting that predicate selects, then a dense bitmap, and
/// sorted row ids once the set is small (see [`SPARSE_DIVISOR`]). Shared
/// by [`TableBackend`], the per-shard states of
/// [`ShardedDb`](crate::ShardedDb) and
/// [`ShardPartBackend`](crate::ShardPartBackend).
///
/// A state keeps both buffers when it is retired, so the session's
/// scratch arena recycles either kind without allocating.
#[derive(Debug, Default)]
pub(crate) struct SelState {
    repr: Repr,
    bits: Bitmap,
    ids: Vec<u32>,
}

impl SelState {
    /// The state of `q`'s match set.
    pub(crate) fn of_query(index: &TableIndex, q: &Query) -> Self {
        let mut out = Self::default();
        match *q.predicates() {
            [] => {}
            [pred] => out.assign_posting(index, pred),
            _ => {
                out.bits = index.selection(q).into_bitmap();
                out.repr = Repr::Dense { est: out.bits.count() };
            }
        }
        out
    }

    /// Makes `self` exactly the rows of `pred`'s posting.
    fn assign_posting(&mut self, index: &TableIndex, pred: Predicate) {
        let p = index.posting_of(pred);
        if p.count() <= p.bits().len() / SPARSE_DIVISOR {
            self.ids.clear();
            self.ids.extend(p.bits().iter_ones().map(|r| r as u32));
            self.repr = Repr::Sparse { n: p.count() };
        } else {
            self.repr = Repr::Posting(pred);
        }
    }

    /// `|self ∩ posting(pred)|` in one pass, no materialisation.
    pub(crate) fn and_count(&self, index: &TableIndex, pred: Predicate) -> usize {
        let posting = index.posting_of(pred);
        match self.repr {
            Repr::All => posting.count(),
            Repr::Posting(p) => index.posting_of(p).bits().and_count(posting.bits()),
            Repr::Dense { .. } => self.bits.and_count(posting.bits()),
            Repr::Sparse { n } => posting.bits().count_among(&self.ids[..n]),
        }
    }

    /// Makes `out` the state of `self ∩ posting(pred)`, reusing `out`'s
    /// buffers (a retired state from the walk-local scratch arena).
    ///
    /// A dense parent's child goes sparse when its expected size — the
    /// parent's times the posting's share of the rows, as if independent
    /// — is below the crossover: its ids are read straight off the AND,
    /// and if they outgrow one per dense word (the estimate was far off)
    /// the child stays dense after all.
    pub(crate) fn intersect_into(&self, index: &TableIndex, pred: Predicate, out: &mut SelState) {
        let posting = index.posting_of(pred);
        let (bits, est) = match self.repr {
            Repr::All => return out.assign_posting(index, pred),
            Repr::Sparse { n } => {
                if out.ids.len() < n {
                    out.ids.resize(n, 0);
                }
                let n = posting.bits().filter_into(&self.ids[..n], &mut out.ids);
                out.repr = Repr::Sparse { n };
                return;
            }
            Repr::Posting(p) => {
                let parent = index.posting_of(p);
                (parent.bits(), parent.count())
            }
            Repr::Dense { est } => (&self.bits, est),
        };
        let rows = bits.len();
        let est = est.saturating_mul(posting.count()) / rows.max(1);
        if est <= rows / SPARSE_DIVISOR {
            let room = rows / 64 + 64;
            if out.ids.len() < room {
                out.ids.resize(room, 0);
            }
            if let Some(n) = bits.and_ones_into(posting.bits(), &mut out.ids[..room]) {
                out.repr = Repr::Sparse { n };
                return;
            }
        }
        out.bits.assign_and(bits, posting.bits());
        out.repr = Repr::Dense { est };
    }

    /// Iterator over the row ids of `self ∩ posting(pred)`, ascending.
    pub(crate) fn iter_and<'a>(
        &'a self,
        index: &'a TableIndex,
        pred: Predicate,
    ) -> SelStateOnes<'a> {
        let posting = index.posting_of(pred).bits();
        match self.repr {
            Repr::All => SelStateOnes::Posting(posting.iter_ones()),
            Repr::Posting(p) => SelStateOnes::And(index.posting_of(p).bits().iter_and_ones(posting)),
            Repr::Dense { .. } => SelStateOnes::And(self.bits.iter_and_ones(posting)),
            Repr::Sparse { n } => SelStateOnes::Ids(self.ids[..n].iter(), posting),
        }
    }

    /// Whether the state holds row ids (the sparse path).
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse { .. })
    }
}

/// Counts the walk states a backend built on the sparse path: the
/// `hdb_walk_sparse_states_total` series of every backend whose walk
/// states are [`SelState`]s.
#[derive(Debug, Default)]
pub(crate) struct SparseTally(AtomicU64);

impl SparseTally {
    /// Tallies `state` if it holds row ids.
    pub(crate) fn note(&self, state: &SelState) {
        if state.is_sparse() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Contributes the series to `snap`.
    pub(crate) fn fill(&self, snap: &mut crate::obs::MetricsSnapshot) {
        snap.counters
            .insert("hdb_walk_sparse_states_total".into(), self.0.load(Ordering::Relaxed));
    }
}

/// Iterator over the matching rows of a [`SelState`] ∩ posting pair.
pub(crate) enum SelStateOnes<'a> {
    Posting(OnesIter<'a>),
    And(AndOnesIter<'a>),
    Ids(std::slice::Iter<'a, u32>, &'a Bitmap),
}

impl Iterator for SelStateOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::Posting(it) => it.next(),
            Self::And(it) => it.next(),
            Self::Ids(ids, posting) => ids.map(|&r| r as usize).find(|&r| posting.get(r)),
        }
    }
}

/// A physical evaluation substrate behind a top-k interface.
///
/// Implementations answer queries over some corpus of tuples with stable
/// **global** tuple ids (capture–recapture and the determinism guarantees
/// rely on ids being substrate-independent). The trait also carries the
/// owner-side exact aggregates so experiment harnesses can score
/// estimators against ground truth without assuming an in-memory table.
///
/// All methods take `&self` and implementations must be `Sync`: a single
/// backend instance serves every worker of the parallel estimation
/// engine.
///
/// Query-answering methods return a [`Result`] because a backend may live
/// on the other side of a network ([`RemoteBackend`](crate::RemoteBackend)):
/// a dropped connection or a malformed wire frame surfaces as
/// [`HdbError::Transport`] instead of a panic. In-process substrates never
/// fail and always return `Ok`.
///
/// ## The incremental fast path
///
/// Drill-down estimators issue chains of queries where each child extends
/// its parent by exactly one predicate. The `walk_state` /
/// `extend_state` / `evaluate_from` / `classify_from` family lets a
/// backend exploit that: the session keeps the parent's materialised
/// match set and a child costs one AND pass instead of a from-scratch
/// evaluation. The default implementations fall back to
/// [`SearchBackend::evaluate`], so the fast path is strictly optional —
/// and every implementation, fast or fallback, must return results
/// **bit-identical** to `evaluate` on the equivalent child query (pinned
/// by the incremental-equivalence property tests).
pub trait SearchBackend: Send + Sync {
    /// The public schema of the search form.
    fn schema(&self) -> &Schema;

    /// Total number of tuples `m` — the quantity the paper's estimators
    /// target (owner-side ground truth).
    fn len(&self) -> usize;

    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates `q` (already validated against the schema): the exact
    /// match count plus the top-`k` tuples under `ranking`, with the
    /// ordering invariants documented on [`Evaluation`].
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation>;

    /// Invoked by the interface layer once per *issued* query, before any
    /// server-side response caching — the hook where remote-API
    /// simulations ([`LatencyBackend`](crate::LatencyBackend)) charge
    /// their round trip. A query's network cost is paid whether or not
    /// the server answers it from a cache, so this runs even when the
    /// hot-response memo hits and [`SearchBackend::evaluate`] is skipped.
    /// The default substrate is in-process: no cost.
    fn round_trip(&self) {}

    /// Contributes this substrate's metric series into `snap` — the
    /// telemetry leg of [`HiddenDb::metrics`](crate::HiddenDb::metrics)
    /// and of the server's `Stats` response. Wrappers add their own
    /// series and forward to the wrapped backend. Purely additive
    /// observation: implementations must not mutate substrate state, and
    /// the default contributes nothing.
    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        let _ = snap;
    }

    /// Exact `COUNT(*) WHERE q` (owner-side ground truth; never reachable
    /// through the client interface).
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn exact_count(&self, q: &Query) -> Result<usize>;

    /// Exact `SUM(attr) WHERE q` using the attribute's numeric
    /// interpretation, summed in ascending global tuple-id order (so
    /// every backend produces the same floating-point result).
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidQuery`] if `attr` has no numeric
    /// interpretation or is out of range.
    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64>;

    /// Materialises incremental walk state for the (already validated)
    /// query `q` — the root of a drill-down session. The default has no
    /// fast path: every child evaluation falls back to
    /// [`SearchBackend::evaluate`].
    fn walk_state(&self, q: &Query) -> WalkState {
        let _ = q;
        WalkState::fallback()
    }

    /// Extends `parent`'s state by one predicate, producing the state of
    /// `child` (`child` = parent's query ∧ `pred`). `recycled` is a
    /// retired state whose buffers may be reused (the session's scratch
    /// arena); implementations are free to ignore it.
    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let _ = (parent, pred, recycled);
        self.walk_state(child)
    }

    /// Evaluates `child` (= parent's query ∧ `pred`) with full top-k
    /// materialisation, using `parent`'s state when it carries a payload.
    /// Must be bit-identical to `self.evaluate(child, k, ranking)`.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let _ = (parent, pred);
        self.evaluate(child, k, ranking)
    }

    /// Count-only evaluation of `child` (= parent's query ∧ `pred`): the
    /// exact match count, plus the full page only when the query is valid
    /// (`1 ≤ count ≤ k`, ascending id order — ranking-independent). This
    /// is the fast path for drill-down probes, which mostly need
    /// underflow/valid/overflow and never look at an overflow page.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if a networked substrate fails to answer.
    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let _ = (parent, pred);
        Ok(Classified::from_evaluation(self.evaluate(child, k, &RowIdRanking)?, k))
    }
}

/// Shared backends: an `Arc<B>` answers exactly like its pointee, so one
/// physical substrate (e.g. a single pooled [`RemoteBackend`](crate::RemoteBackend)
/// client) can sit behind several [`HiddenDb`](crate::HiddenDb) instances
/// at once.
impl<B: SearchBackend + ?Sized> SearchBackend for Arc<B> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        (**self).evaluate(q, k, ranking)
    }

    fn round_trip(&self) {
        (**self).round_trip();
    }

    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        (**self).fill_metrics(snap);
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        (**self).exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        (**self).exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        (**self).walk_state(q)
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        (**self).extend_state(parent, child, pred, recycled)
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        (**self).evaluate_from(parent, child, pred, k, ranking)
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        (**self).classify_from(parent, child, pred, k)
    }
}

/// A totally ordered wrapper over finite ranking scores (ties broken by
/// the accompanying tuple id in the selection key).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ScoreKey(pub(crate) f64);

impl Eq for ScoreKey {}

impl PartialOrd for ScoreKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoreKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A top-k selection candidate: ordered by `(score, id)` only — the
/// borrowed tuple rides along for materialisation.
struct Candidate<'a> {
    key: (ScoreKey, TupleId),
    tuple: &'a Tuple,
}

impl PartialEq for Candidate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Candidate<'_> {}
impl PartialOrd for Candidate<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Shared tuple-selection kernel for backends: given the `count` matches
/// of a query as an ascending-id iterator of `(global id, tuple)` pairs,
/// returns the `top` vector per the [`Evaluation`] invariants.
///
/// When `count > k` this runs the bounded max-heap top-k selection —
/// O(N log k) over the N matching rows instead of sorting all of them;
/// overflowing queries near the drill-down root can match hundreds of
/// thousands of rows, so this is the simulator's hottest path.
pub(crate) fn select_candidates<'a>(
    matches: impl Iterator<Item = (TupleId, &'a Tuple)>,
    count: usize,
    k: usize,
    schema: &Schema,
    ranking: &dyn RankingFunction,
) -> Vec<ReturnedTuple> {
    if count <= k {
        return matches
            .map(|(id, tuple)| ReturnedTuple { id, tuple: tuple.clone() })
            .collect();
    }
    let mut heap: BinaryHeap<Candidate<'a>> = BinaryHeap::with_capacity(k + 1);
    for (id, tuple) in matches {
        let cand =
            Candidate { key: (ScoreKey(ranking.score(schema, id, tuple)), id), tuple };
        if heap.len() < k {
            heap.push(cand);
        } else if cand.key < heap.peek().expect("heap non-empty at capacity").key {
            heap.pop();
            heap.push(cand);
        }
    }
    let mut top = heap.into_sorted_vec();
    top.truncate(k);
    top.into_iter()
        .map(|c| ReturnedTuple { id: c.key.1, tuple: c.tuple.clone() })
        .collect()
}

/// The default physical substrate: one in-memory [`Table`] answered
/// through its cached bitmap index (or, for reference comparisons, a
/// linear scan).
///
/// Global tuple ids are the table's row indices, so a `TableBackend` over
/// table `T` and a [`ShardedDb`](crate::ShardedDb) over the same `T`
/// return bit-identical evaluations.
#[derive(Debug)]
pub struct TableBackend {
    table: Table,
    mode: EvalMode,
    sparse: SparseTally,
}

impl TableBackend {
    /// Wraps a table with the default (bitmap) evaluation path.
    ///
    /// The bitmap index builds lazily on the first bitmap-mode query
    /// (`OnceLock` serialises concurrent first callers to one build);
    /// scan-mode instances never pay for it.
    #[must_use]
    pub fn new(table: Table) -> Self {
        Self { table, mode: EvalMode::Bitmap, sparse: SparseTally::default() }
    }

    /// Selects the query-evaluation path (bitmap by default).
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Mutably selects the query-evaluation path (used by
    /// [`HiddenDb::with_eval_mode`](crate::HiddenDb::with_eval_mode)).
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// The query-evaluation path in use.
    #[must_use]
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// The underlying table (owner-side ground truth; never used by
    /// estimators).
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Mutable access to the underlying table — the persistent backend's
    /// ingest path. Mutation drops the table's cached index, so walk
    /// states derived from the old corpus must not be reused (the
    /// persistent wrapper enforces this with a generation tag).
    pub(crate) fn table_mut(&mut self) -> &mut Table {
        &mut self.table
    }
}

impl SearchBackend for TableBackend {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn fill_metrics(&self, snap: &mut crate::obs::MetricsSnapshot) {
        self.sparse.fill(snap);
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        let schema = self.table.schema();
        Ok(match self.mode {
            EvalMode::Bitmap => {
                let sel = self.table.index().selection(q);
                let count = sel.count();
                let matches = sel
                    .iter_ones()
                    .map(|row| (row as TupleId, self.table.tuple(row as TupleId)));
                Evaluation { count, top: select_candidates(matches, count, k, schema, ranking) }
            }
            EvalMode::Scan => {
                let ids: Vec<(TupleId, &Tuple)> = self
                    .table
                    .tuples()
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| q.matches(t))
                    .map(|(row, t)| (row as TupleId, t))
                    .collect();
                let count = ids.len();
                Evaluation {
                    count,
                    top: select_candidates(ids.into_iter(), count, k, schema, ranking),
                }
            }
        })
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        Ok(self.table.exact_count(q))
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        self.table.exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        if self.mode != EvalMode::Bitmap {
            // Scan mode is the reference path; keep it a pure per-query
            // scan rather than silently switching it to bitmaps.
            return WalkState::fallback();
        }
        let state = SelState::of_query(self.table.index(), q);
        self.sparse.note(&state);
        WalkState::with_payload(state)
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let Some(sel) = parent.payload::<SelState>() else {
            return self.walk_state(child);
        };
        recycled.recycle_into(|out: &mut SelState| {
            sel.intersect_into(self.table.index(), pred, out);
            self.sparse.note(out);
        })
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let Some(sel) = parent.payload::<SelState>() else {
            return self.evaluate(child, k, ranking);
        };
        let index = self.table.index();
        let count = sel.and_count(index, pred);
        let matches =
            sel.iter_and(index, pred).map(|row| (row as TupleId, self.table.tuple(row as TupleId)));
        Ok(Evaluation {
            count,
            top: select_candidates(matches, count, k, self.table.schema(), ranking),
        })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let Some(sel) = parent.payload::<SelState>() else {
            return Ok(Classified::from_evaluation(self.evaluate(child, k, &RowIdRanking)?, k));
        };
        let index = self.table.index();
        let count = sel.and_count(index, pred);
        let page = if (1..=k).contains(&count) {
            sel.iter_and(index, pred)
                .map(|row| ReturnedTuple {
                    id: row as TupleId,
                    tuple: self.table.tuple(row as TupleId).clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Classified { count, page })
    }
}

/// Validates that `attr` exists in `schema` and carries a numeric
/// interpretation — the shared precondition of every backend's
/// `exact_sum`.
pub(crate) fn checked_numeric(schema: &Schema, attr: AttrId) -> Result<&crate::schema::Attribute> {
    if attr >= schema.len() {
        return Err(HdbError::InvalidQuery(format!("attribute id {attr} out of range")));
    }
    let a = schema.attribute(attr);
    if !a.is_numeric() {
        return Err(HdbError::InvalidQuery(format!(
            "attribute `{}` has no numeric interpretation",
            a.name()
        )));
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{AttributeRanking, RowIdRanking};
    use crate::schema::Attribute;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("c", ["x", "y", "z"])
                .unwrap()
                .with_numeric(vec![10.0, 20.0, 30.0])
                .unwrap(),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Tuple::new(vec![0, 0]),
                Tuple::new(vec![0, 2]),
                Tuple::new(vec![1, 1]),
                Tuple::new(vec![1, 2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn evaluation_classifies_by_count() {
        let empty = Evaluation { count: 0, top: vec![] };
        assert_eq!(empty.into_outcome(3), QueryOutcome::Underflow);
        let t = ReturnedTuple { id: 0, tuple: Tuple::new(vec![0, 0]) };
        let valid = Evaluation { count: 1, top: vec![t.clone()] };
        assert!(valid.into_outcome(3).is_valid());
        let overflow = Evaluation { count: 9, top: vec![t] };
        assert!(overflow.into_outcome(3).is_overflow());
    }

    #[test]
    fn bitmap_and_scan_modes_evaluate_identically() {
        let bitmap = TableBackend::new(table());
        let scan = TableBackend::new(table()).with_eval_mode(EvalMode::Scan);
        assert_eq!(scan.eval_mode(), EvalMode::Scan);
        for q in [
            Query::all(),
            Query::all().and(0, 1).unwrap(),
            Query::all().and(0, 0).unwrap().and(1, 2).unwrap(),
            Query::all().and(1, 1).unwrap(),
        ] {
            for k in [1usize, 2, 10] {
                assert_eq!(
                    bitmap.evaluate(&q, k, &RowIdRanking).unwrap(),
                    scan.evaluate(&q, k, &RowIdRanking).unwrap(),
                    "query {q:?}, k {k}"
                );
            }
        }
    }

    #[test]
    fn valid_evaluations_list_all_matches_in_id_order() {
        let b = TableBackend::new(table());
        let eval = b.evaluate(&Query::all(), 10, &RowIdRanking).unwrap();
        assert_eq!(eval.count, 4);
        let ids: Vec<TupleId> = eval.top.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn overflow_evaluations_respect_the_ranking() {
        let b = TableBackend::new(table());
        // rank by the numeric value of attribute 1 descending: ids 1 and 3
        // hold value z=30; tie broken by id
        let ranking = AttributeRanking { attr: 1, descending: true };
        let eval = b.evaluate(&Query::all(), 2, &ranking).unwrap();
        assert_eq!(eval.count, 4);
        let ids: Vec<TupleId> = eval.top.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn incremental_walk_state_matches_fresh_evaluation() {
        let b = TableBackend::new(table());
        let root = Query::all();
        let state = b.walk_state(&root);
        for attr in 0..2usize {
            for v in 0..b.schema().fanout(attr) {
                let pred = Predicate::new(attr, v as u16);
                let child = root.and(attr, v as u16).unwrap();
                for k in [1usize, 2, 10] {
                    let fresh = b.evaluate(&child, k, &RowIdRanking).unwrap();
                    assert_eq!(b.evaluate_from(&state, &child, pred, k, &RowIdRanking).unwrap(), fresh);
                    let classified = b.classify_from(&state, &child, pred, k).unwrap();
                    assert_eq!(classified.count, fresh.count);
                    if (1..=k).contains(&fresh.count) {
                        assert_eq!(classified.page, fresh.top);
                    } else {
                        assert!(classified.page.is_empty());
                    }
                }
                // a second-level extension keeps agreeing
                let child_state = b.extend_state(&state, &child, pred, WalkState::fallback());
                for v2 in 0..b.schema().fanout(1 - attr) {
                    let pred2 = Predicate::new(1 - attr, v2 as u16);
                    let gchild = child.and(1 - attr, v2 as u16).unwrap();
                    let fresh = b.evaluate(&gchild, 2, &RowIdRanking).unwrap();
                    assert_eq!(
                        b.evaluate_from(&child_state, &gchild, pred2, 2, &RowIdRanking).unwrap(),
                        fresh
                    );
                    assert_eq!(b.classify_from(&child_state, &gchild, pred2, 2).unwrap().count, fresh.count);
                }
            }
        }
    }

    #[test]
    fn scan_mode_walk_state_falls_back() {
        let b = TableBackend::new(table()).with_eval_mode(EvalMode::Scan);
        let state = b.walk_state(&Query::all());
        assert!(state.payload::<SelState>().is_none());
        // fallback still answers correctly
        let pred = Predicate::new(0, 1);
        let child = Query::all().and(0, 1).unwrap();
        assert_eq!(
            b.evaluate_from(&state, &child, pred, 2, &RowIdRanking).unwrap(),
            b.evaluate(&child, 2, &RowIdRanking).unwrap()
        );
        assert_eq!(b.classify_from(&state, &child, pred, 2).unwrap().count, 2);
    }

    #[test]
    fn walk_state_payload_roundtrip_and_recycling() {
        let s = WalkState::with_payload(42u64);
        assert_eq!(s.payload::<u64>(), Some(&42));
        assert_eq!(s.payload::<u32>(), None);
        assert!(WalkState::default().payload::<u64>().is_none());
        // recycling overwrites a payload of the same type in place ...
        let s = s.recycle_into(|v: &mut u64| *v += 1);
        assert_eq!(s.payload::<u64>(), Some(&43));
        // ... and replaces a foreign or missing one with a filled default
        let s = WalkState::with_payload("x").recycle_into(|v: &mut u64| *v += 1);
        assert_eq!(s.payload::<u64>(), Some(&1));
        let s = WalkState::fallback().recycle_into(|v: &mut u64| *v += 2);
        assert_eq!(s.payload::<u64>(), Some(&2));
    }

    #[test]
    fn ground_truth_aggregates_delegate_to_the_table() {
        let b = TableBackend::new(table());
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.exact_count(&Query::all().and(0, 1).unwrap()).unwrap(), 2);
        assert_eq!(b.exact_sum(1, &Query::all()).unwrap(), 10.0 + 30.0 + 20.0 + 30.0);
        assert!(b.exact_sum(9, &Query::all()).is_err());
    }

    /// Rows of the sparse-path tests: not a multiple of 64, so the last
    /// word has tail bits, and large enough that `rows / SPARSE_DIVISOR`
    /// is a real crossover.
    const ROWS: usize = 3_001;
    const CAP: usize = ROWS / SPARSE_DIVISOR;

    /// A `ROWS`-row table. Attribute `c` takes value 1 on exactly `CAP`
    /// rows, 2 on `CAP + 1` rows and 3 on `CAP - 1` rows (the crossover
    /// and its neighbours), 0 elsewhere; twelve boolean attributes spell
    /// out a bijective scramble of the row index, which keeps the rows
    /// distinct and gives postings of every density.
    fn sparse_table() -> Table {
        let mut attrs =
            vec![Attribute::categorical("c", ["0", "1", "2", "3"]).unwrap()];
        attrs.extend((0..12).map(|j| Attribute::boolean(format!("b{j}"))));
        let schema = Schema::new(attrs).unwrap();
        let tuples = (0..ROWS)
            .map(|i| {
                let c = match i {
                    _ if i < CAP => 1,
                    _ if i < 2 * CAP + 1 => 2,
                    _ if i < 3 * CAP => 3,
                    _ => 0,
                };
                let x = (i * 0x9E37) % 4096;
                let mut v = vec![c];
                v.extend((0..12).map(|j| ((x >> j) & 1) as u16));
                Tuple::new(v)
            })
            .collect();
        Table::new(schema, tuples).unwrap()
    }

    fn preds(schema: &Schema) -> Vec<Predicate> {
        (0..schema.len())
            .flat_map(|a| (0..schema.fanout(a)).map(move |v| Predicate::new(a, v as u16)))
            .collect()
    }

    fn dense(rows: &[u32]) -> SelState {
        let mut bits = Bitmap::zeros(ROWS);
        rows.iter().for_each(|&r| bits.set(r as usize));
        SelState { repr: Repr::Dense { est: rows.len() }, bits, ids: Vec::new() }
    }

    fn sparse(rows: &[u32]) -> SelState {
        // scratch past the live prefix must never leak into results
        let mut ids = rows.to_vec();
        ids.extend([ROWS as u32 - 1; 5]);
        SelState { repr: Repr::Sparse { n: rows.len() }, bits: Bitmap::zeros(ROWS), ids }
    }

    fn row_set(s: &SelState, index: &TableIndex) -> Vec<usize> {
        match s.repr {
            Repr::All => (0..index.rows()).collect(),
            Repr::Posting(p) => index.posting(p.attr, p.value as usize).iter_ones().collect(),
            Repr::Dense { .. } => s.bits.iter_ones().collect(),
            Repr::Sparse { n } => s.ids[..n].iter().map(|&r| r as usize).collect(),
        }
    }

    #[test]
    fn dense_and_sparse_states_agree() {
        let t = sparse_table();
        let index = t.index();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut scatter = |n: usize| {
            let mut rows: Vec<u32> = (0..n)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % ROWS as u64) as u32
                })
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        let sets: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![ROWS as u32 - 1],
            vec![63, 64, ROWS as u32 - 2, ROWS as u32 - 1],
            scatter(CAP - 1),
            scatter(CAP),
            scatter(CAP + 1),
            scatter(ROWS / 3),
        ];
        let preds = preds(t.schema());
        for set in &sets {
            let (d, s) = (dense(set), sparse(set));
            for &pred in &preds {
                let posting = index.posting(pred.attr, pred.value as usize);
                let want: Vec<usize> =
                    set.iter().map(|&r| r as usize).filter(|&r| posting.get(r)).collect();
                for state in [&d, &s] {
                    assert_eq!(state.and_count(index, pred), want.len(), "{set:?} {pred:?}");
                    assert_eq!(state.iter_and(index, pred).collect::<Vec<_>>(), want);
                    // into a fresh state and into recycled states of both kinds
                    for mut out in [SelState::default(), dense(&[1, 2]), sparse(&[5; 40])] {
                        state.intersect_into(index, pred, &mut out);
                        assert_eq!(row_set(&out, index), want, "{set:?} {pred:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn postings_switch_representation_at_the_crossover() {
        let t = sparse_table();
        let index = t.index();
        for (value, count) in [(3u16, CAP - 1), (1, CAP), (2, CAP + 1)] {
            let pred = Predicate::new(0, value);
            assert_eq!(index.value_frequency(0, value as usize), count);
            let root = SelState::of_query(index, &Query::all().and(0, value).unwrap());
            let mut child = SelState::default();
            SelState::default().intersect_into(index, pred, &mut child);
            for s in [&root, &child] {
                assert_eq!(s.is_sparse(), count <= CAP, "count {count}");
                let want: Vec<usize> = index.posting(0, value as usize).iter_ones().collect();
                assert_eq!(row_set(s, index), want);
            }
        }
        // a dense one-predicate state is the posting itself, nothing copied
        let root = SelState::of_query(index, &Query::all().and(0, 0).unwrap());
        assert_eq!(root.repr, Repr::Posting(Predicate::new(0, 0)));
        assert!(root.bits.is_empty() && root.ids.is_empty());
    }

    #[test]
    fn dense_parents_go_sparse_by_estimate_and_fall_back_when_it_is_wrong() {
        let t = sparse_table();
        let index = t.index();
        let pred = Predicate::new(1, 1); // about half the rows
        let mut out = SelState::default();
        // small expected and small actual child: sparse
        let few = dense(&(0..2 * CAP as u32).collect::<Vec<_>>());
        few.intersect_into(index, pred, &mut out);
        assert!(out.is_sparse());
        assert_eq!(row_set(&out, index), few.iter_and(index, pred).collect::<Vec<_>>());
        // an estimate far below the truth: the id read-out overflows and
        // the child is dense after all, with the same rows
        let mut many = dense(&(0..ROWS as u32).collect::<Vec<_>>());
        many.repr = Repr::Dense { est: 1 };
        many.intersect_into(index, pred, &mut out);
        assert!(!out.is_sparse());
        assert_eq!(row_set(&out, index), many.iter_and(index, pred).collect::<Vec<_>>());
        // a large expected child stays dense
        let all = dense(&(0..ROWS as u32).collect::<Vec<_>>());
        all.intersect_into(index, pred, &mut out);
        assert!(matches!(out.repr, Repr::Dense { .. }));
    }

    #[test]
    fn sparse_walks_match_fresh_evaluation_and_are_tallied() {
        let b = TableBackend::new(sparse_table());
        let mut q = Query::all();
        let mut state = b.walk_state(&q);
        // drill down the scrambled bits until the match set is tiny
        for attr in 1..=11 {
            let pred = Predicate::new(attr, 1);
            let child = q.and(attr, 1).unwrap();
            for k in [1usize, 10] {
                let fresh = b.evaluate(&child, k, &RowIdRanking).unwrap();
                assert_eq!(b.evaluate_from(&state, &child, pred, k, &RowIdRanking).unwrap(), fresh);
                let c = b.classify_from(&state, &child, pred, k).unwrap();
                assert_eq!(c, Classified::from_evaluation(fresh, k));
            }
            state = b.extend_state(&state, &child, pred, WalkState::fallback());
            q = child;
        }
        assert!(state.payload::<SelState>().unwrap().is_sparse());
        let mut snap = crate::obs::MetricsSnapshot::default();
        b.fill_metrics(&mut snap);
        assert!(snap.counters["hdb_walk_sparse_states_total"] > 0);
    }
}
