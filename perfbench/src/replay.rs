//! The traced side: one round's request stream replayed in-process through
//! the public function of each layer, in the order
//! `AnalysisService::handle` calls them, with the daemon's configuration
//! (persist dir, certify every hit and warm answer, default policy). Each
//! call is one span; spans of a request share its id and have the
//! request's `service.request` span as parent.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, Ancestor, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, FixpointCache,
    PersistDir, SendCfa, SendCpsCfa, SendPushdown,
};
use cpsdfa_core::certify::certify_answer;
use cpsdfa_core::govern::{DegradationReport, RungAttempt};
use cpsdfa_core::incremental::{self, WarmReport, WarmSolve};
use cpsdfa_core::{NoopSink, SolverMode};
use cpsdfa_cps::CpsProgram;
use cpsdfa_service::ServiceConfig;
use cpsdfa_syntax::arena::TermArena;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::solve::{default_policy, governed_solve};
use crate::workload::Plan;

/// `CpsProgram::from_anf` runs inside the governed entry points; the
/// replay times it as an extra call beside them to show its share of a
/// solve, so per-request layer sums leave it out.
const CPS_TRANSFORM: &str = "cps.transform";

/// The request span every layer span of one request hangs off.
const REQUEST_SPAN: &str = "service.request";

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in [`Replay::spans`].
    pub parent: Option<u32>,
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub hits: u64,
    pub probes: u64,
    pub parse_nodes: u64,
    pub lowered: u64,
    pub anf_labels: u64,
    pub solves: u64,
    pub solve_iterations: u64,
    pub solve_charged: u64,
    pub rung_attempts: u64,
    pub warm_attempts: u64,
    pub warm_answers: u64,
    pub warm_fired: u64,
    /// Session requests after each session's first: what a warm start
    /// could have answered.
    pub warm_eligible: u64,
    pub certify_calls: u64,
    pub stores: u64,
    pub recovered: u64,
    pub recover_ns: u64,
    /// Answers whose digest differs from the reference, or requests that
    /// failed.
    pub wrong: u64,
}

/// Replay state: the daemon's cache, persist dir and one worker's arena.
pub struct Replay {
    cache: FixpointCache,
    persist: PersistDir,
    arena: TermArena,
    digests: ArenaDigests,
    epoch: Instant,
    traced: bool,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Per stream request: the sum of its layer self times (ns).
    pub layer_ns: Vec<u64>,
    seen_sessions: std::collections::HashSet<u64>,
}

impl Replay {
    /// Opens `persist_dir` and recovers it into a fresh cache, as daemon
    /// start-up does; the recovery is timed into the counts.
    pub fn open(persist_dir: &Path, traced: bool) -> std::io::Result<Replay> {
        let config = ServiceConfig::default();
        let mut cache = FixpointCache::new(config.cache_bytes);
        cache.set_session_ttl(config.session_ttl);
        let t0 = Instant::now();
        let persist = PersistDir::open(persist_dir)?;
        let report = persist.recover(&mut cache, config.recover_certify);
        let recover_ns = t0.elapsed().as_nanos() as u64;
        cache.note_recovery(&report);
        Ok(Replay {
            cache,
            persist,
            arena: TermArena::new(),
            digests: ArenaDigests::new(),
            epoch: Instant::now(),
            traced,
            spans: Vec::new(),
            counts: Counts {
                recovered: report.recovered,
                recover_ns,
                ..Counts::default()
            },
            layer_ns: Vec::new(),
            seen_sessions: Default::default(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span of `request`, when tracing.
    fn timed<T>(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.traced {
            return f(self);
        }
        let start_ns = self.now();
        let out = f(self);
        let end_ns = self.now();
        self.spans.push(Span {
            request,
            name,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Replays the whole round; returns its wall time.
    pub fn run(&mut self, plan: &Plan, expected: &[u64]) -> Duration {
        let start = Instant::now();
        for (id, req) in plan.stream.iter().enumerate() {
            let program = &plan.programs[req.program];
            let first_span = self.spans.len();
            let parent = self.traced.then_some(first_span as u32);
            if self.traced {
                let now = self.now();
                self.spans.push(Span {
                    request: id as u32,
                    name: REQUEST_SPAN,
                    start_ns: now,
                    end_ns: now,
                    parent: None,
                });
            }
            let answer = self.handle(id as u32, parent, program, req.session);
            if answer != Some(expected[req.program]) {
                self.counts.wrong += 1;
            }
            if self.traced {
                self.spans[first_span].end_ns = self.now();
                let sum = self.spans[first_span + 1..]
                    .iter()
                    .filter(|s| s.name != CPS_TRANSFORM)
                    .map(|s| s.end_ns - s.start_ns)
                    .sum();
                self.layer_ns.push(sum);
            }
        }
        start.elapsed()
    }

    /// One request, layer by layer, in `AnalysisService::handle` order.
    /// Returns the served answer digest, or `None` when the request failed.
    fn handle(
        &mut self,
        id: u32,
        parent: Option<u32>,
        program: &crate::workload::Program,
        session: Option<u64>,
    ) -> Option<u64> {
        self.counts.requests += 1;
        if let Some(s) = session {
            if !self.seen_sessions.insert(s) {
                self.counts.warm_eligible += 1;
            }
        }
        let kind = program.kind;
        let source = program.source.as_str();
        let root = self.timed(id, parent, "syntax.parse", |r| r.arena.parse(source).ok())?;
        self.counts.parse_nodes += self.arena.size(root) as u64;
        let digest = self.timed(id, parent, "cache.digest", |r| {
            r.digests.term_digest(&r.arena, root)
        });
        let key = CacheKey::full(kind, SolverMode::Seq, digest);
        self.counts.probes += 1;
        let cached = self.timed(id, parent, "cache.probe", |r| r.cache.lookup(&key));

        if let Some(hit) = cached {
            let prog = self.lower(id, parent, root);
            self.certify(id, parent, &prog, &hit.answer)?;
            self.counts.hits += 1;
            if let Some(s) = session {
                self.note_session(id, parent, s, digest, source, &hit);
            }
            return Some(hit.answer_digest);
        }

        let prog = self.lower(id, parent, root);
        if let Some(s) = session {
            self.counts.warm_attempts += 1;
            let warm = self.timed(id, parent, "incremental.warm", |r| {
                r.session_warm(s, kind, &prog)
            });
            if let Some((answer, warm, charged)) = warm {
                self.certify(id, parent, &prog, &answer)?;
                self.counts.warm_answers += 1;
                self.counts.warm_fired += warm.fired;
                let report = DegradationReport {
                    attempts: vec![RungAttempt {
                        rung: "warm",
                        error: None,
                        charged,
                    }],
                    resource: None,
                    residual_budget: 0,
                    elapsed_ns: 0,
                };
                let fixpoint = Arc::new(CachedFixpoint::new(answer, report));
                self.commit(id, parent, key, source, &fixpoint);
                self.note_session(id, parent, s, digest, source, &fixpoint);
                return Some(fixpoint.answer_digest);
            }
        }

        if matches!(kind, AnalysisKind::CfaCps | AnalysisKind::CfaPushdown) {
            self.timed(id, parent, CPS_TRANSFORM, |_| {
                std::hint::black_box(CpsProgram::from_anf(&prog));
            });
        }
        let policy = default_policy();
        let (answer, report) = self
            .timed(id, parent, "govern.solve", |_| {
                governed_solve(kind, &prog, &policy, &mut NoopSink)
            })
            .ok()?;
        self.counts.solves += 1;
        self.counts.solve_iterations += answer.iterations();
        self.counts.solve_charged += report.attempts.iter().map(|a| a.charged).sum::<u64>();
        self.counts.rung_attempts += report.attempts.len() as u64;
        let rung = report.answered_by().unwrap_or(kind.full_rung());
        let fixpoint = Arc::new(CachedFixpoint::new(answer, report));
        let commit_key = CacheKey::for_rung(kind, SolverMode::Seq, digest, rung);
        self.commit(id, parent, commit_key, source, &fixpoint);
        if let Some(s) = session {
            self.note_session(id, parent, s, digest, source, &fixpoint);
        }
        Some(fixpoint.answer_digest)
    }

    /// `TermArena::to_term` + `AnfProgram::from_term`: the lowering the
    /// daemon does before certifying a hit or solving a miss.
    fn lower(
        &mut self,
        id: u32,
        parent: Option<u32>,
        root: cpsdfa_syntax::arena::TermId,
    ) -> AnfProgram {
        let prog = self.timed(id, parent, "anf.lower", |r| {
            AnfProgram::from_term(&r.arena.to_term(root))
        });
        self.counts.lowered += 1;
        self.counts.anf_labels += u64::from(prog.label_count());
        prog
    }

    fn certify(
        &mut self,
        id: u32,
        parent: Option<u32>,
        prog: &AnfProgram,
        answer: &CachedAnswer,
    ) -> Option<()> {
        self.counts.certify_calls += 1;
        let ok = self.timed(id, parent, "certify", |_| {
            certify_answer(prog, answer).is_ok()
        });
        if !ok {
            return None;
        }
        self.cache.note_certify_ok();
        Some(())
    }

    fn commit(
        &mut self,
        id: u32,
        parent: Option<u32>,
        key: CacheKey,
        source: &str,
        fixpoint: &Arc<CachedFixpoint>,
    ) {
        self.timed(id, parent, "cache.insert", |r| {
            r.cache.insert(key, (**fixpoint).clone())
        });
        self.counts.stores += 1;
        self.timed(id, parent, "persist.store", |r| {
            let _ = r.persist.store(&key, source, fixpoint, None);
        });
    }

    fn note_session(
        &mut self,
        id: u32,
        parent: Option<u32>,
        session: u64,
        digest: u128,
        source: &str,
        fixpoint: &Arc<CachedFixpoint>,
    ) {
        let ancestor = Ancestor {
            kind: fixpoint.answer.kind(),
            digest,
            source: source.to_owned(),
            fixpoint: Arc::clone(fixpoint),
        };
        self.timed(id, parent, "persist.session", |r| {
            let _ = r.persist.store_session(session, &ancestor, None);
        });
        self.cache.note_ancestor(session, ancestor);
    }

    /// The daemon's warm start: the session's remembered fixpoint seeds
    /// the `incremental::*_incremental` driver for the analysis.
    fn session_warm(
        &mut self,
        session: u64,
        kind: AnalysisKind,
        prog: &AnfProgram,
    ) -> Option<(CachedAnswer, WarmReport, u64)> {
        let anc = self.cache.ancestor(session)?;
        if anc.kind != kind || anc.fixpoint.answer.kind() != kind {
            return None;
        }
        let old = AnfProgram::parse(&anc.source).ok()?;
        let guard = default_policy().guard();
        let sink = &mut NoopSink;
        let warm = match &anc.fixpoint.answer {
            CachedAnswer::CfaSrc(prev) => {
                match incremental::zero_cfa_incremental(&old, &prev.to_result(), prog, &guard, sink)
                {
                    Ok(WarmSolve::Warm(result, report)) => {
                        Some((CachedAnswer::CfaSrc(SendCfa::from_result(&result)), report))
                    }
                    _ => None,
                }
            }
            CachedAnswer::CfaCps(prev) => {
                let (old_cps, new_cps) = (CpsProgram::from_anf(&old), CpsProgram::from_anf(prog));
                match incremental::zero_cfa_cps_incremental(
                    &old_cps,
                    &prev.to_result(),
                    &new_cps,
                    &guard,
                    sink,
                ) {
                    Ok(WarmSolve::Warm(result, report)) => Some((
                        CachedAnswer::CfaCps(SendCpsCfa::from_result(&result)),
                        report,
                    )),
                    _ => None,
                }
            }
            CachedAnswer::CfaPushdown(prev) => {
                let (old_cps, new_cps) = (CpsProgram::from_anf(&old), CpsProgram::from_anf(prog));
                match incremental::pushdown_cfa_incremental(
                    &old_cps,
                    &prev.to_result(),
                    &new_cps,
                    &guard,
                    sink,
                ) {
                    Ok(WarmSolve::Warm(result, report)) => Some((
                        CachedAnswer::CfaPushdown(SendPushdown::from_result(&result)),
                        report,
                    )),
                    _ => None,
                }
            }
            CachedAnswer::MfpFlat(prev) => incremental::solve_mfp_incremental(&old, prev, prog)
                .map(|(summary, report)| (CachedAnswer::MfpFlat(summary), report)),
        };
        warm.map(|(answer, report)| (answer, report, guard.total_spent()))
    }

    /// Total self time (ns) of the layer `name`. A layer span has no
    /// children, so its self time is its duration.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
