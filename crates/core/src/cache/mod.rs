//! Content-addressed fixpoint cache: cross-request reuse of committed
//! analysis answers.
//!
//! The experiment harness (and the `cpsdfa-service` daemon built on this
//! module) re-runs the same three analyses over large program corpora, and
//! real corpora repeat themselves: identical programs recur across
//! requests, and the hash-consed [`TermArena`] already proves how much
//! structure is shared. Before this module every repeat was re-solved from
//! scratch; with it, a repeated request is a lookup.
//!
//! # Content addressing
//!
//! A cache key is `(analysis kind, subtree digest, rung)`:
//!
//! * **kind** — which fixpoint was asked for ([`AnalysisKind`]): source
//!   0CFA, CPS 0CFA, or first-order MFP over `Flat`.
//! * **digest** — a structural 128-bit FNV-1a digest of the hash-consed
//!   [`TermArena`] subtree ([`ArenaDigests`]), memoized per [`TermId`]:
//!   because the arena hash-conses, a repeated program parses to the same
//!   `TermId` and its digest is an `O(1)` memo hit. Identifiers are hashed
//!   by *name*, so the digest is stable across arenas and processes. The
//!   byte stream fed to the hash is prefix-free: every variable-length
//!   field (identifier names) is length-prefixed, so no two distinct trees
//!   fold the same bytes, and the 128-bit width keeps even a
//!   million-program corpus far below birthday-collision territory. (FNV
//!   is not cryptographic; a shared deployment that must resist
//!   *adversarially crafted* collisions should front the service with a
//!   keyed MAC of the program text — see DESIGN.md §11.)
//! * **rung** — the [`DegradationLadder`](crate::govern::DegradationLadder)
//!   rung that produced the answer. Lookups for fresh work use
//!   [`CacheKey::full`] (the finest rung of the kind's canonical ladder);
//!   an answer computed on a *degraded* rung is inserted under its own rung
//!   name ([`CacheKey::for_rung`]) and therefore can never shadow a
//!   full-precision answer — the soundness condition the differential
//!   suite pins down.
//!
//! # Eviction accounting
//!
//! Every cached value carries an `approx_bytes` estimate (same spirit as
//! [`DeltaNodes::approx_bytes`](crate::setpool::DeltaNodes::approx_bytes):
//! a cheap, capacity-aware upper-ish bound, not a malloc census). The cache
//! holds a byte ceiling and evicts least-recently-used entries until an
//! insert fits, so cache growth goes through the same memory-governance
//! discipline as live solves. An entry larger than the whole ceiling is
//! rejected outright rather than flushing the cache for one tenant.
//!
//! # Observability
//!
//! [`CacheStats`] counts hits, misses, inserts, evictions, and rejects, and
//! gauges resident bytes/entries. [`CacheStats::emit_into`] flushes them as
//! `cache.*` trace events and [`CacheStats::from_agg`] inverts that, so a
//! JSONL trace reproduces the cache report byte-for-byte
//! ([`render_cache_stats_from_agg`](crate::report::render_cache_stats_from_agg)).

pub mod persist;

pub use persist::{PersistDir, RecoveryReport};

use crate::absval::AbsClo;
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::Flat;
use crate::fxhash::FxHashMap;
use crate::govern::DegradationReport;
use crate::mfp::DfSummary;
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use crate::solver::SolverMode;
use crate::trace::{AggSink, TraceSink};
use cpsdfa_syntax::arena::{TermArena, TermId, TermNode, ValueId, ValueNode};
use cpsdfa_syntax::Label;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `h`.
#[inline]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// 128-bit FNV-1a: the structural program digests use the wide variant so
// cache-key collisions across a large corpus stay in birthday-bound
// territory (~2^64 programs for a 50% chance) instead of the ~2^32 a
// 64-bit key would give.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a over a byte slice, continuing from `h`.
#[inline]
fn fnv128_bytes(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// 128-bit FNV-1a over a `u64`, continuing from `h` (little-endian bytes —
/// a fixed-width field, so no framing is needed).
#[inline]
fn fnv128_u64(h: u128, v: u64) -> u128 {
    fnv128_bytes(h, &v.to_le_bytes())
}

/// Folds a child subtree digest: fixed-width 16 bytes, little-endian.
#[inline]
fn fnv128_child(h: u128, d: u128) -> u128 {
    fnv128_bytes(h, &d.to_le_bytes())
}

/// Folds an identifier name with a length prefix. The prefix makes the
/// overall byte stream prefix-free: without it, a name's bytes would run
/// into whatever follows (e.g. a child digest), and two different
/// name/child splits could fold identical streams.
#[inline]
fn fnv128_name(h: u128, name: &str) -> u128 {
    let h = fnv128_u64(h, name.len() as u64);
    fnv128_bytes(h, name.as_bytes())
}

/// A stable digest of an answer's canonical `Debug` rendering (`BTreeSet`
/// iterates sorted, `LabelTable` iterates in label order), FNV-1a folded to
/// one `u64`. Two answers digest equal iff their canonical forms
/// coincide.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv_bytes(FNV_OFFSET, format!("{value:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Structural arena digests
// ---------------------------------------------------------------------------

/// Memoized structural digests over a [`TermArena`]. The arena is
/// append-only and hash-consed, so digests are computed once per distinct
/// node id and shared by every request that parses to the same subtree.
#[derive(Debug, Default)]
pub struct ArenaDigests {
    terms: Vec<Option<u128>>,
    values: Vec<Option<u128>>,
}

impl ArenaDigests {
    /// A fresh, empty memo (pair it with exactly one arena).
    pub fn new() -> Self {
        ArenaDigests::default()
    }

    /// The structural digest of term `id`. Identifiers hash by name
    /// (length-prefixed) and node shapes by tag, so the digest is
    /// independent of interner state, arena insertion order, and process,
    /// and the folded byte stream is unambiguous: every node's encoding is
    /// a fixed-arity sequence of fixed-width fields once names carry their
    /// length.
    pub fn term_digest(&mut self, arena: &TermArena, id: TermId) -> u128 {
        if let Some(Some(d)) = self.terms.get(id.index()) {
            return *d;
        }
        let d = match arena.term(id).clone() {
            TermNode::Value(v) => fnv128_child(
                fnv128_bytes(FNV128_OFFSET, b"val"),
                self.value_digest(arena, v),
            ),
            TermNode::App(f, a) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"app");
                let h = fnv128_child(h, self.term_digest(arena, f));
                fnv128_child(h, self.term_digest(arena, a))
            }
            TermNode::Let(x, rhs, body) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"let");
                let h = fnv128_name(h, x.as_str());
                let h = fnv128_child(h, self.term_digest(arena, rhs));
                fnv128_child(h, self.term_digest(arena, body))
            }
            TermNode::If0(c, t, e) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"if0");
                let h = fnv128_child(h, self.term_digest(arena, c));
                let h = fnv128_child(h, self.term_digest(arena, t));
                fnv128_child(h, self.term_digest(arena, e))
            }
            TermNode::Loop => fnv128_bytes(FNV128_OFFSET, b"loop"),
        };
        if self.terms.len() <= id.index() {
            self.terms.resize(id.index() + 1, None);
        }
        self.terms[id.index()] = Some(d);
        d
    }

    fn value_digest(&mut self, arena: &TermArena, id: ValueId) -> u128 {
        if let Some(Some(d)) = self.values.get(id.index()) {
            return *d;
        }
        let d = match arena.value(id).clone() {
            ValueNode::Num(n) => fnv128_u64(fnv128_bytes(FNV128_OFFSET, b"num"), n as u64),
            ValueNode::Var(x) => fnv128_name(fnv128_bytes(FNV128_OFFSET, b"var"), x.as_str()),
            ValueNode::Add1 => fnv128_bytes(FNV128_OFFSET, b"add1"),
            ValueNode::Sub1 => fnv128_bytes(FNV128_OFFSET, b"sub1"),
            ValueNode::Lam(x, body) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"lam");
                let h = fnv128_name(h, x.as_str());
                fnv128_child(h, self.term_digest(arena, body))
            }
        };
        if self.values.len() <= id.index() {
            self.values.resize(id.index() + 1, None);
        }
        self.values[id.index()] = Some(d);
        d
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Which fixpoint a cache entry answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Constraint 0CFA over the ANF source ([`crate::cfa::zero_cfa`]).
    CfaSrc,
    /// Constraint 0CFA over cps(Λ) ([`crate::cfa::zero_cfa_cps`]).
    CfaCps,
    /// Pushdown (summary-based) CFA over cps(Λ)
    /// ([`crate::pushdown::pushdown_cfa`]).
    CfaPushdown,
    /// First-order MFP over the [`Flat`] domain
    /// ([`crate::mfp::Cfg::solve_mfp`]).
    MfpFlat,
}

impl AnalysisKind {
    /// Every kind, for exhaustive sweeps (the wire round-trip test, the
    /// service admission table). The round-trip test pins this list with
    /// an exhaustive `match`, so adding a variant without extending it is
    /// a compile error there, not silent drift.
    pub const ALL: [AnalysisKind; 4] = [
        AnalysisKind::CfaSrc,
        AnalysisKind::CfaCps,
        AnalysisKind::CfaPushdown,
        AnalysisKind::MfpFlat,
    ];

    /// The wire / trace name.
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisKind::CfaSrc => "cfa.src",
            AnalysisKind::CfaCps => "cfa.cps",
            AnalysisKind::CfaPushdown => "cfa.pushdown",
            AnalysisKind::MfpFlat => "mfp.flat",
        }
    }

    /// Parses a wire name (`cfa.src` / `cfa.cps` / `cfa.pushdown` /
    /// `mfp.flat`).
    pub fn parse(s: &str) -> Option<AnalysisKind> {
        match s {
            "cfa.src" => Some(AnalysisKind::CfaSrc),
            "cfa.cps" => Some(AnalysisKind::CfaCps),
            "cfa.pushdown" => Some(AnalysisKind::CfaPushdown),
            "mfp.flat" => Some(AnalysisKind::MfpFlat),
            _ => None,
        }
    }

    /// The finest (full-precision) rung of this kind's canonical ladder —
    /// the rung name cold lookups address.
    pub fn full_rung(self) -> &'static str {
        self.as_str()
    }
}

/// A content address: analysis kind × structural program digest ×
/// producing rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The analysis requested.
    pub kind: AnalysisKind,
    /// Structural digest of the program ([`ArenaDigests::term_digest`]).
    pub digest: u128,
    /// The ladder rung that produced (or is asked for) the answer.
    /// `&'static str` equality/hashing is by content, so rung names from
    /// different ladders unify as expected.
    pub rung: &'static str,
}

impl CacheKey {
    /// The key a fresh request looks up: the kind's full-precision rung.
    /// The [`SolverMode`] argument is ignored (there is one engine); the
    /// `perfbench/` harness is the only caller that needs it.
    pub fn full(kind: AnalysisKind, _mode: SolverMode, digest: u128) -> CacheKey {
        CacheKey {
            kind,
            digest,
            rung: kind.full_rung(),
        }
    }

    /// The key an *answered* request inserts under: the rung that actually
    /// produced the value. For an undegraded run this equals
    /// [`CacheKey::full`]; for a degraded run it is a distinct key, so the
    /// degraded answer can never shadow a full-precision one. The
    /// [`SolverMode`] argument is ignored, as in [`CacheKey::full`].
    pub fn for_rung(
        kind: AnalysisKind,
        _mode: SolverMode,
        digest: u128,
        rung: &'static str,
    ) -> CacheKey {
        CacheKey { kind, digest, rung }
    }
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// Rough per-set bookkeeping overhead charged by the byte estimators: one
/// `BTreeSet` header plus a leaf node. Deliberately coarse — the estimate
/// only has to be monotone in content for eviction accounting to work.
const SET_OVERHEAD: u64 = 64;

fn sets_bytes<T>(sets: impl Iterator<Item = usize>) -> u64 {
    sets.map(|len| SET_OVERHEAD + (len as u64) * std::mem::size_of::<T>() as u64)
        .sum()
}

fn table_bytes<T>(table: &[(Label, BTreeSet<T>)]) -> u64 {
    sets_bytes::<T>(table.iter().map(|(_, s)| s.len()))
}

// perfbench-shim:begin
// The `perfbench/` harness predates the single answer type and still names
// the old cache mirrors. These aliases and the two cloning conversions keep
// it compiling; nothing else may use them (a CI step enforces that), and
// they go with the next change to the benchmark, like
// `cfa::zero_cfa_guarded_mode`.

/// Old name of [`CfaResult`], for `perfbench/` only.
pub type SendCfa = CfaResult;
/// Old name of [`CpsCfaResult`], for `perfbench/` only.
pub type SendCpsCfa = CpsCfaResult;
/// Old name of [`PushdownCfaResult`], for `perfbench/` only.
pub type SendPushdown = PushdownCfaResult;

macro_rules! perfbench_conversions {
    ($($ty:ty),*) => {$(
        impl $ty {
            /// A clone, for `perfbench/` only.
            pub fn from_result(r: &Self) -> Self {
                r.clone()
            }

            /// A clone, for `perfbench/` only.
            pub fn to_result(&self) -> Self {
                self.clone()
            }
        }
    )*};
}
perfbench_conversions!(CfaResult, CpsCfaResult, PushdownCfaResult);
// perfbench-shim:end

/// A committed analysis answer — the value side of the cache, the payload
/// of the disk codec and the claim the certifier checks. Every variant is
/// the analysis's own result type, which is `Send + Sync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Source-level 0CFA.
    CfaSrc(CfaResult),
    /// CPS-level 0CFA.
    CfaCps(CpsCfaResult),
    /// Pushdown CFA over cps(Λ).
    CfaPushdown(PushdownCfaResult),
    /// First-order MFP over [`Flat`].
    MfpFlat(DfSummary<Flat>),
}

impl CachedAnswer {
    /// The kind this answer actually is (may be coarser than the request's
    /// kind when a ladder degraded `cfa.cps → cfa.src`).
    pub fn kind(&self) -> AnalysisKind {
        match self {
            CachedAnswer::CfaSrc(_) => AnalysisKind::CfaSrc,
            CachedAnswer::CfaCps(_) => AnalysisKind::CfaCps,
            CachedAnswer::CfaPushdown(_) => AnalysisKind::CfaPushdown,
            CachedAnswer::MfpFlat(_) => AnalysisKind::MfpFlat,
        }
    }

    /// Fixpoint iterations/firings the producing run performed (0 for MFP,
    /// whose summary carries no work counter).
    pub fn iterations(&self) -> u64 {
        match self {
            CachedAnswer::CfaSrc(r) => r.iterations,
            CachedAnswer::CfaCps(r) => r.iterations,
            CachedAnswer::CfaPushdown(r) => r.iterations,
            CachedAnswer::MfpFlat(_) => 0,
        }
    }

    /// The eviction-accounting estimate for this answer.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            CachedAnswer::CfaSrc(r) => {
                sets_bytes::<AbsClo>(r.vars.iter().map(BTreeSet::len))
                    + table_bytes(&r.terms)
                    + table_bytes(&r.calls)
            }
            CachedAnswer::CfaCps(r) => {
                sets_bytes::<CpsFlow>(r.vars.iter().map(BTreeSet::len))
                    + table_bytes(&r.returns)
                    + table_bytes(&r.calls)
            }
            CachedAnswer::CfaPushdown(r) => {
                sets_bytes::<CpsFlow>(r.vars.iter().map(BTreeSet::len))
                    + table_bytes(&r.returns)
                    + table_bytes(&r.calls)
                    + (r.matched.len() as u64) * std::mem::size_of::<MatchedReturn>() as u64
            }
            CachedAnswer::MfpFlat(s) => {
                SET_OVERHEAD + (s.vars.len() as u64) * std::mem::size_of::<Flat>() as u64
            }
        }
    }

    /// Canonical-form digest of the *solution* — what service responses
    /// carry so clients can assert bit-identity without shipping stores.
    /// Work counters (`iterations`, `summaries`) are excluded: a warm start
    /// and a cold solve differ in them while the solution does not, and
    /// equal answers must digest equal. The pushdown matched-return
    /// witnesses are part of the solution (they are what distinguishes
    /// that rung).
    pub fn digest(&self) -> u64 {
        match self {
            CachedAnswer::CfaSrc(r) => debug_digest(&(&r.vars, &r.terms, &r.calls)),
            CachedAnswer::CfaCps(r) => debug_digest(&(&r.vars, &r.returns, &r.calls)),
            CachedAnswer::CfaPushdown(r) => {
                debug_digest(&(&r.vars, &r.returns, &r.calls, &r.matched))
            }
            CachedAnswer::MfpFlat(s) => debug_digest(s),
        }
    }
}

/// One cached fixpoint: the committed answer, the governance report of the
/// producing run, and the digests/accounting computed once at insert so the
/// warm path never re-renders.
#[derive(Debug, Clone)]
pub struct CachedFixpoint {
    /// The committed answer.
    pub answer: CachedAnswer,
    /// The producing run's [`DegradationReport`].
    pub report: DegradationReport,
    /// [`CachedAnswer::digest`], precomputed.
    pub answer_digest: u64,
    /// [`CachedAnswer::approx_bytes`], precomputed (what eviction charges).
    pub approx_bytes: u64,
}

impl CachedFixpoint {
    /// Packages an answer + report, computing the digest and byte estimate.
    pub fn new(answer: CachedAnswer, report: DegradationReport) -> CachedFixpoint {
        let answer_digest = answer.digest();
        let approx_bytes = answer.approx_bytes();
        CachedFixpoint {
            answer,
            report,
            answer_digest,
            approx_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Cumulative cache counters, emitted as `cache.*` trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused (entry alone exceeds the ceiling, or key collision
    /// with a resident entry).
    pub rejects: u64,
    /// Resident payload bytes (estimate; gauge).
    pub bytes: u64,
    /// Resident entries (gauge).
    pub entries: u64,
    /// The configured ceiling (gauge).
    pub ceiling_bytes: u64,
    /// Served answers that passed a sampled certification check.
    pub certify_ok: u64,
    /// Served answers a certification check *refuted* (each one is an
    /// evicted-and-recomputed wrong answer that was never served).
    pub certify_fail: u64,
    /// Persisted entries re-admitted by startup recovery.
    pub persist_recovered: u64,
    /// Persisted entries dropped by recovery (framing/checksum/decode
    /// failures plus stale-key mismatches).
    pub persist_corrupt: u64,
    /// Bytes of persisted entries evicted after a failed certification.
    pub persist_evicted_bytes: u64,
    /// Watch-session ancestors evicted by the deadline-clock TTL.
    pub session_ttl_evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Flushes the counters into a sink under `prefix` (conventionally
    /// `cache`): `<prefix>.hit/miss/insert/evict/reject` counters and
    /// `<prefix>.bytes/entries/ceiling_bytes` gauges.
    pub fn emit_into(&self, sink: &mut impl TraceSink, prefix: &str) {
        if !sink.enabled() {
            return;
        }
        sink.counter(&format!("{prefix}.hit"), self.hits);
        sink.counter(&format!("{prefix}.miss"), self.misses);
        sink.counter(&format!("{prefix}.insert"), self.inserts);
        sink.counter(&format!("{prefix}.evict"), self.evictions);
        sink.counter(&format!("{prefix}.reject"), self.rejects);
        sink.gauge(&format!("{prefix}.bytes"), self.bytes);
        sink.gauge(&format!("{prefix}.entries"), self.entries);
        sink.gauge(&format!("{prefix}.ceiling_bytes"), self.ceiling_bytes);
        sink.counter(&format!("{prefix}.certify.ok"), self.certify_ok);
        sink.counter(&format!("{prefix}.certify.fail"), self.certify_fail);
        sink.counter(
            &format!("{prefix}.persist.recovered"),
            self.persist_recovered,
        );
        sink.counter(&format!("{prefix}.persist.corrupt"), self.persist_corrupt);
        sink.counter(
            &format!("{prefix}.persist.evicted_bytes"),
            self.persist_evicted_bytes,
        );
        sink.counter(
            &format!("{prefix}.session.ttl_evict"),
            self.session_ttl_evictions,
        );
    }

    /// Inverts [`emit_into`](CacheStats::emit_into) from an aggregated
    /// trace — the replay path `render_cache_stats_from_agg` uses.
    pub fn from_agg(agg: &AggSink, prefix: &str) -> CacheStats {
        let c = |name: &str| agg.counter_value(&format!("{prefix}.{name}"));
        let g = |name: &str| agg.gauge_value(&format!("{prefix}.{name}"));
        CacheStats {
            hits: c("hit"),
            misses: c("miss"),
            inserts: c("insert"),
            evictions: c("evict"),
            rejects: c("reject"),
            bytes: g("bytes"),
            entries: g("entries"),
            ceiling_bytes: g("ceiling_bytes"),
            certify_ok: c("certify.ok"),
            certify_fail: c("certify.fail"),
            persist_recovered: c("persist.recovered"),
            persist_corrupt: c("persist.corrupt"),
            persist_evicted_bytes: c("persist.evicted_bytes"),
            session_ttl_evictions: c("session.ttl_evict"),
        }
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

struct Entry {
    value: Arc<CachedFixpoint>,
    last_used: u64,
}

/// One watch-mode session's most recent fixpoint: the source it was
/// computed over plus the committed answer — the seed the service
/// warm-starts the session's *next* edit from (PR 9).
///
/// Ancestors live beside the content-addressed entries, keyed by session
/// id instead of program digest: an edited program has a *new* digest, so
/// the ordinary lookup can never find its predecessor.
#[derive(Debug, Clone)]
pub struct Ancestor {
    /// The analysis the session is running (the *answer's* kind — a
    /// degraded answer records the rung that actually produced it).
    pub kind: AnalysisKind,
    /// Structural digest of `source`.
    pub digest: u128,
    /// The program source the fixpoint was computed over. Stored as text:
    /// the warm path re-parses it into the worker's own arena, so
    /// ancestors stay `Send` without sharing term graphs across workers.
    pub source: String,
    /// The committed fixpoint.
    pub fixpoint: Arc<CachedFixpoint>,
}

/// Sessions remembered at once. Ancestors are deliberately outside the
/// byte ceiling: they are the live working set of open sessions, and
/// letting bulk cache traffic evict them would silently turn every watch
/// step cold. A small count cap bounds them instead.
const MAX_ANCESTORS: usize = 64;

/// The content-addressed, byte-ceilinged, LRU fixpoint cache.
///
/// Values are handed out as [`Arc`]s, so a warm hit is a pointer clone —
/// no store is copied on the serve path. The struct itself is not
/// synchronized; the service wraps it in a `Mutex` (lookups and inserts
/// are O(1) + eviction, so the critical section is tiny next to a solve).
pub struct FixpointCache {
    entries: FxHashMap<CacheKey, Entry>,
    /// Session id → latest fixpoint slot for watch mode.
    ancestors: FxHashMap<u64, SessionSlot>,
    /// Deadline-clock TTL for ancestors; `None` disables expiry.
    session_ttl: Option<Duration>,
    /// Sessions evicted (TTL or count cap) whose journals the owner has not
    /// yet removed ([`FixpointCache::take_reaped_sessions`]).
    reaped: Vec<u64>,
    ceiling_bytes: u64,
    bytes: u64,
    tick: u64,
    stats: CacheStats,
}

/// One watch session's slot in the ancestor side-table: LRU recency for
/// the count cap, plus a wall-clock deadline for the TTL. Every touch
/// refreshes both; a session whose deadline passes is evicted the next
/// time the table is consulted, so abandoned sessions stop pinning
/// fixpoints even though nothing ever touches them again.
struct SessionSlot {
    last_used: u64,
    deadline: Option<Instant>,
    ancestor: Arc<Ancestor>,
}

impl FixpointCache {
    /// An empty cache with an eviction ceiling of `ceiling_bytes` of
    /// estimated payload.
    pub fn new(ceiling_bytes: u64) -> FixpointCache {
        FixpointCache {
            entries: FxHashMap::default(),
            ancestors: FxHashMap::default(),
            session_ttl: None,
            reaped: Vec::new(),
            ceiling_bytes,
            bytes: 0,
            tick: 0,
            stats: CacheStats {
                ceiling_bytes,
                ..CacheStats::default()
            },
        }
    }

    /// The configured ceiling.
    pub fn ceiling_bytes(&self) -> u64 {
        self.ceiling_bytes
    }

    /// Estimated resident payload bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the counters (gauges refreshed to current residency).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes: self.bytes,
            entries: self.entries.len() as u64,
            ceiling_bytes: self.ceiling_bytes,
            ..self.stats
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing LRU order.
    /// Also reaps expired sessions, so an abandoned session expires on any
    /// request traffic, not only on other sessions'.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Arc<CachedFixpoint>> {
        self.purge_expired_sessions();
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits `value` under `key`, evicting LRU entries until it fits.
    /// Returns `false` (a counted reject) when the value alone exceeds the
    /// ceiling or the key is already resident (first writer wins — two
    /// racing solves of the same program commit identical answers anyway,
    /// and keeping the first preserves its LRU position). Takes an owned
    /// fixpoint or the `Arc` a caller already shares, which is stored
    /// without copying the answer.
    pub fn insert(&mut self, key: CacheKey, value: impl Into<Arc<CachedFixpoint>>) -> bool {
        let value = value.into();
        let cost = value.approx_bytes;
        if cost > self.ceiling_bytes || self.entries.contains_key(&key) {
            self.stats.rejects += 1;
            return false;
        }
        while self.bytes + cost > self.ceiling_bytes {
            if !self.evict_lru() {
                break;
            }
        }
        self.tick += 1;
        self.bytes += cost;
        self.stats.inserts += 1;
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        true
    }

    /// Evicts the least-recently-used entry; `false` if the cache is empty.
    fn evict_lru(&mut self) -> bool {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return false;
        };
        if let Some(entry) = self.entries.remove(&victim) {
            self.bytes = self.bytes.saturating_sub(entry.value.approx_bytes);
            self.stats.evictions += 1;
        }
        true
    }

    /// Flushes the current counter snapshot as `cache.*` events.
    pub fn emit_into(&self, sink: &mut impl TraceSink) {
        self.stats().emit_into(sink, "cache");
    }

    /// Removes the entry under `key` (a certify-failure eviction: the
    /// answer was refuted, so it must not be served again). Counted as an
    /// eviction. Returns the removed fixpoint, if one was resident.
    pub fn remove(&mut self, key: &CacheKey) -> Option<Arc<CachedFixpoint>> {
        let entry = self.entries.remove(key)?;
        self.bytes = self.bytes.saturating_sub(entry.value.approx_bytes);
        self.stats.evictions += 1;
        Some(entry.value)
    }

    /// Configures the ancestor deadline-clock TTL (`None` disables it).
    /// Applies to sessions noted from now on; existing deadlines are
    /// rewritten on their next touch.
    pub fn set_session_ttl(&mut self, ttl: Option<Duration>) {
        self.session_ttl = ttl;
    }

    /// Evicts every ancestor whose deadline has passed, counting each in
    /// `session.ttl_evict` and queueing it for journal removal. Called on
    /// the probe and session-table paths, so expiry needs no background
    /// thread — an abandoned session is reaped the next time any request
    /// consults the cache.
    fn purge_expired_sessions(&mut self) {
        if self.session_ttl.is_none() {
            return;
        }
        let now = Instant::now();
        let before = self.ancestors.len();
        let reaped = &mut self.reaped;
        self.ancestors.retain(|&session, slot| {
            let live = slot.deadline.is_none_or(|d| d > now);
            if !live {
                reaped.push(session);
            }
            live
        });
        self.stats.session_ttl_evictions += (before - self.ancestors.len()) as u64;
    }

    /// Records `session`'s latest fixpoint, replacing any predecessor.
    /// Beyond [`MAX_ANCESTORS`] sessions, the least-recently-touched
    /// session is forgotten (its *content-addressed* entries survive —
    /// only the warm-start shortcut is lost) and queued for journal
    /// removal.
    pub fn note_ancestor(&mut self, session: u64, ancestor: Ancestor) {
        self.purge_expired_sessions();
        self.tick += 1;
        let slot = SessionSlot {
            last_used: self.tick,
            deadline: self.session_ttl.map(|ttl| Instant::now() + ttl),
            ancestor: Arc::new(ancestor),
        };
        if self.ancestors.len() >= MAX_ANCESTORS && !self.ancestors.contains_key(&session) {
            if let Some(victim) = self
                .ancestors
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(s, _)| *s)
            {
                self.ancestors.remove(&victim);
                self.reaped.push(victim);
            }
        }
        self.ancestors.insert(session, slot);
    }

    /// Drains the sessions evicted by TTL or the count cap since the last
    /// call, leaving out any noted again since: the owner deletes their
    /// journals, so a restart does not bring an evicted session back.
    pub fn take_reaped_sessions(&mut self) -> Vec<u64> {
        let mut reaped = std::mem::take(&mut self.reaped);
        reaped.retain(|session| !self.ancestors.contains_key(session));
        reaped
    }

    /// The latest fixpoint noted for `session`, refreshing its recency and
    /// TTL deadline. An expired session reads as absent.
    pub fn ancestor(&mut self, session: u64) -> Option<Arc<Ancestor>> {
        self.purge_expired_sessions();
        self.tick += 1;
        let tick = self.tick;
        let deadline = self.session_ttl.map(|ttl| Instant::now() + ttl);
        self.ancestors.get_mut(&session).map(|slot| {
            slot.last_used = tick;
            slot.deadline = deadline;
            Arc::clone(&slot.ancestor)
        })
    }

    /// Forgets `session`'s ancestor (certify refuted its fixpoint, or the
    /// client closed the session). Returns whether one was present.
    pub fn evict_session(&mut self, session: u64) -> bool {
        self.ancestors.remove(&session).is_some()
    }

    /// Sessions currently remembered.
    pub fn ancestor_count(&self) -> usize {
        self.ancestors.len()
    }

    /// Counts a passed certification check.
    pub fn note_certify_ok(&mut self) {
        self.stats.certify_ok += 1;
    }

    /// Counts a refuted certification check, optionally charging the disk
    /// bytes its eviction freed.
    pub fn note_certify_fail(&mut self, evicted_disk_bytes: u64) {
        self.stats.certify_fail += 1;
        self.stats.persist_evicted_bytes += evicted_disk_bytes;
    }

    /// Folds a startup [`RecoveryReport`] into the persistent-cache
    /// counters.
    pub fn note_recovery(&mut self, report: &RecoveryReport) {
        self.stats.persist_recovered += report.recovered;
        self.stats.persist_corrupt += report.dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::zero_cfa;
    use cpsdfa_anf::AnfProgram;

    fn digest_of(src: &str) -> u128 {
        let mut arena = TermArena::new();
        let id = arena.parse(src).expect("parses");
        ArenaDigests::new().term_digest(&arena, id)
    }

    #[test]
    fn name_framing_is_prefix_free() {
        // Without the length prefix, folding "a" then "b" is byte-for-byte
        // the same stream as folding "ab" — the ambiguity class that let
        // distinct trees collide. The prefix separates them.
        let h = FNV128_OFFSET;
        assert_ne!(fnv128_name(fnv128_name(h, "a"), "b"), fnv128_name(h, "ab"));
        // And names can never be mistaken for the fixed-width fields that
        // follow them: a name whose bytes equal a child-digest prefix still
        // folds differently because its length is folded first.
        let d = fnv128_bytes(h, b"whatever");
        assert_ne!(
            fnv128_child(fnv128_name(h, "x"), d),
            fnv128_name(h, &format!("x{}", "y".repeat(16)))
        );
    }

    #[test]
    fn digests_are_structural_and_arena_independent() {
        let a = digest_of("(let (f (lambda (x) x)) (f 1))");
        let b = digest_of("(let (f (lambda (x) x)) (f 1))");
        let c = digest_of("(let (f (lambda (x) x)) (f 2))");
        assert_eq!(a, b, "same program, different arenas, same digest");
        assert_ne!(a, c, "different constants, different digests");
        // Renamed binder: structural digest distinguishes it (content
        // addressing is syntactic, not alpha-equivalent).
        let d = digest_of("(let (g (lambda (x) x)) (g 1))");
        assert_ne!(a, d);
    }

    #[test]
    fn shared_subtrees_memoize_in_one_arena() {
        let mut arena = TermArena::new();
        let a = arena.parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        let b = arena.parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        assert_eq!(a, b, "hash-consing gives one id");
        let mut memo = ArenaDigests::new();
        let d1 = memo.term_digest(&arena, a);
        let d2 = memo.term_digest(&arena, b);
        assert_eq!(d1, d2);
    }

    #[test]
    fn analysis_kind_wire_names_round_trip_exhaustively() {
        // The match pins exhaustiveness: adding an `AnalysisKind` variant
        // without extending `ALL` (and the wire tables) fails to compile
        // here instead of silently drifting between `as_str` and `parse`.
        for k in AnalysisKind::ALL {
            match k {
                AnalysisKind::CfaSrc
                | AnalysisKind::CfaCps
                | AnalysisKind::CfaPushdown
                | AnalysisKind::MfpFlat => {}
            }
            assert_eq!(AnalysisKind::parse(k.as_str()), Some(k), "{k:?}");
            assert_eq!(k.full_rung(), k.as_str());
        }
        // Names are pairwise distinct.
        let names: std::collections::BTreeSet<&str> =
            AnalysisKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), AnalysisKind::ALL.len());
        // Near-misses do not parse.
        for junk in ["", "cfa", "cfa.pushdown.seq", "cfa.cps ", "CFA.SRC", "mfp"] {
            assert_eq!(AnalysisKind::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn answer_digest_ignores_schedule_dependent_work_counters() {
        // A warm start and a cold solve differ in `iterations` while the
        // solution stays bit-identical; the canonical digest must see
        // through that.
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a (f 1)) (f a)))").unwrap();
        let a = zero_cfa(&p).unwrap();
        let mut b = a.clone();
        b.iterations += 17;
        assert_ne!(a, b, "premise: the answers differ as values");
        let fixpoint = |r: CfaResult| {
            CachedFixpoint::new(CachedAnswer::CfaSrc(r), DegradationReport::default())
        };
        assert_eq!(fixpoint(a).answer_digest, fixpoint(b).answer_digest);
        // The same holds for pushdown's two work counters.
        let cps = cpsdfa_cps::CpsProgram::from_anf(&p);
        let pd = crate::pushdown::pushdown_cfa(&cps).unwrap();
        let mut skewed = pd.clone();
        skewed.iterations += 5;
        skewed.summaries += 5;
        assert_eq!(
            CachedAnswer::CfaPushdown(pd).digest(),
            CachedAnswer::CfaPushdown(skewed).digest()
        );
    }

    #[test]
    fn lru_evicts_oldest_first_and_accounts_bytes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let value = || {
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )
        };
        let one = value().approx_bytes;
        assert!(one > 0);
        // Room for exactly two entries.
        let mut cache = FixpointCache::new(2 * one);
        let key = |d: u128| CacheKey::full(AnalysisKind::CfaSrc, SolverMode::Seq, d);
        assert!(cache.insert(key(1), value()));
        assert!(cache.insert(key(2), value()));
        assert_eq!(cache.len(), 2);
        // Touch key 1 so key 2 is LRU.
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.insert(key(3), value()));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(2)).is_none(), "LRU victim evicted");
        assert!(cache.lookup(&key(1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.bytes, 2 * one);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn oversized_and_duplicate_inserts_are_rejected() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let value = || {
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )
        };
        let one = value().approx_bytes;
        let mut tiny = FixpointCache::new(one / 2);
        let key = CacheKey::full(AnalysisKind::CfaSrc, SolverMode::Seq, 7);
        assert!(!tiny.insert(key, value()), "entry alone exceeds ceiling");
        assert!(tiny.is_empty());
        let mut cache = FixpointCache::new(10 * one);
        assert!(cache.insert(key, value()));
        assert!(!cache.insert(key, value()), "first writer wins");
        assert_eq!(cache.stats().rejects, 1);
    }

    #[test]
    fn degraded_rung_key_never_shadows_the_full_key() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        let degraded = CacheKey::for_rung(AnalysisKind::CfaCps, SolverMode::Seq, 42, "cfa.src");
        assert_ne!(
            degraded,
            CacheKey::full(AnalysisKind::CfaCps, SolverMode::Seq, 42)
        );
        cache.insert(
            degraded,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        );
        assert!(
            cache
                .lookup(&CacheKey::full(AnalysisKind::CfaCps, SolverMode::Seq, 42))
                .is_none(),
            "full-precision lookup must miss a degraded-rung entry"
        );
    }

    #[test]
    fn remove_frees_bytes_and_counts_an_eviction() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        let key = CacheKey::full(AnalysisKind::CfaSrc, SolverMode::Seq, 11);
        cache.insert(
            key,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        );
        assert!(cache.remove(&key).is_some());
        assert!(cache.remove(&key).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().evictions, 1);
        // The key is insertable again — eviction must not poison it.
        assert!(cache.insert(
            key,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        ));
    }

    fn dummy_ancestor(fresh: &crate::cfa::CfaResult) -> Ancestor {
        Ancestor {
            kind: AnalysisKind::CfaSrc,
            digest: 1,
            source: String::new(),
            fixpoint: Arc::new(CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )),
        }
    }

    #[test]
    fn expired_sessions_are_reaped_and_counted() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        cache.set_session_ttl(Some(std::time::Duration::from_millis(20)));
        cache.note_ancestor(1, dummy_ancestor(&fresh));
        assert!(cache.ancestor(1).is_some(), "fresh session is warm");
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert!(cache.ancestor(1).is_none(), "expired session reads cold");
        assert_eq!(cache.ancestor_count(), 0);
        assert_eq!(cache.stats().session_ttl_evictions, 1);
        // A touch within the TTL refreshes the deadline.
        cache.note_ancestor(2, dummy_ancestor(&fresh));
        std::thread::sleep(std::time::Duration::from_millis(12));
        assert!(cache.ancestor(2).is_some());
        std::thread::sleep(std::time::Duration::from_millis(12));
        assert!(cache.ancestor(2).is_some(), "refreshed deadline holds");
    }

    #[test]
    fn evicted_sessions_are_queued_for_journal_removal() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        // Count cap: one session past the cap evicts the oldest.
        for session in 0..=MAX_ANCESTORS as u64 {
            cache.note_ancestor(session, dummy_ancestor(&fresh));
        }
        assert_eq!(cache.take_reaped_sessions(), vec![0]);
        assert!(cache.take_reaped_sessions().is_empty(), "drained once");
        // TTL: an expired session is reaped by the next probe, and one noted
        // again before the drain keeps its journal.
        let mut cache = FixpointCache::new(u64::MAX);
        cache.set_session_ttl(Some(std::time::Duration::from_millis(10)));
        cache.note_ancestor(1, dummy_ancestor(&fresh));
        cache.note_ancestor(2, dummy_ancestor(&fresh));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(cache
            .lookup(&CacheKey::full(AnalysisKind::CfaSrc, SolverMode::Seq, 0))
            .is_none());
        cache.note_ancestor(2, dummy_ancestor(&fresh));
        assert_eq!(cache.take_reaped_sessions(), vec![1]);
    }

    #[test]
    fn without_a_ttl_sessions_never_expire() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        cache.note_ancestor(1, dummy_ancestor(&fresh));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(cache.ancestor(1).is_some());
        assert!(cache.evict_session(1));
        assert!(!cache.evict_session(1));
        assert!(cache.ancestor(1).is_none());
        assert_eq!(cache.stats().session_ttl_evictions, 0);
    }

    #[test]
    fn stats_round_trip_through_a_trace_agg() {
        let mut stats = CacheStats {
            hits: 5,
            misses: 3,
            inserts: 3,
            evictions: 1,
            rejects: 2,
            bytes: 4096,
            entries: 2,
            ceiling_bytes: 1 << 20,
            certify_ok: 9,
            certify_fail: 1,
            persist_recovered: 4,
            persist_corrupt: 2,
            persist_evicted_bytes: 512,
            session_ttl_evictions: 3,
        };
        let mut agg = AggSink::new();
        stats.emit_into(&mut agg, "cache");
        assert_eq!(CacheStats::from_agg(&agg, "cache"), stats);
        stats.hits += 1;
        assert_ne!(CacheStats::from_agg(&agg, "cache"), stats);
    }
}
