//! The governed solve the daemon runs on a miss, reproduced through the
//! same public entry points, and the from-scratch reference answers every
//! served answer is checked against.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, CachedAnswer, CachedFixpoint, SendCfa, SendCpsCfa, SendPushdown,
};
use cpsdfa_core::certify::certify_answer;
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::{
    governed_pushdown_cfa, governed_zero_cfa_cps, CfaAnswer, DegradationLadder, DegradationReport,
    GovernPolicy,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::trace::TraceSink;
use cpsdfa_core::{cfa, AnalysisBudget, NoopSink, RunGuard, SolverMode};
use cpsdfa_service::ServiceConfig;
use std::time::Instant;

use crate::workload::Program;

/// The policy the daemon gives a request that sets no budget, deadline or
/// mode — every benchmark request.
pub fn default_policy() -> GovernPolicy {
    GovernPolicy::new()
        .with_budget(AnalysisBudget::new(ServiceConfig::default().default_budget))
        .with_solver_mode(SolverMode::Seq)
}

/// Runs `kind`'s degradation ladder on `prog`, as `AnalysisService::handle`
/// does on a miss, and packs the answer the way the cache stores it.
pub fn governed_solve(
    kind: AnalysisKind,
    prog: &AnfProgram,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<(CachedAnswer, DegradationReport), String> {
    let pack_cfa = |answer: CfaAnswer| match answer {
        CfaAnswer::Pushdown(r) => CachedAnswer::CfaPushdown(SendPushdown::from_result(&r)),
        CfaAnswer::Cps(r) => CachedAnswer::CfaCps(SendCpsCfa::from_result(&r)),
        CfaAnswer::Direct(r) => CachedAnswer::CfaSrc(SendCfa::from_result(&r)),
    };
    let guard = policy.guard();
    let governed = match kind {
        AnalysisKind::CfaPushdown => {
            governed_pushdown_cfa(prog, policy, sink).map(|g| (pack_cfa(g.value), g.report))
        }
        AnalysisKind::CfaCps => {
            governed_zero_cfa_cps(prog, policy, sink).map(|g| (pack_cfa(g.value), g.report))
        }
        AnalysisKind::CfaSrc => DegradationLadder::new()
            .rung("cfa.src", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                Ok(cfa::zero_cfa_guarded_mode(prog, SolverMode::Seq, g, &mut sink)?.0)
            })
            .run(&guard, sink)
            .map(|g| {
                (
                    CachedAnswer::CfaSrc(SendCfa::from_result(&g.value)),
                    g.report,
                )
            }),
        AnalysisKind::MfpFlat => {
            let cfg = Cfg::from_first_order(prog).map_err(|e| format!("not-first-order: {e}"))?;
            let init = cfg.initial_env::<Flat>(prog);
            DegradationLadder::new()
                .rung("mfp.flat", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                    Ok(cfg
                        .solve_mfp_guarded_mode::<Flat>(
                            init.clone(),
                            SolverMode::Seq,
                            g,
                            &mut sink,
                        )?
                        .0)
                })
                .run(&guard, sink)
                .map(|g| (CachedAnswer::MfpFlat(g.value), g.report))
        }
    };
    governed.map_err(|e| format!("analysis-failed: {e}"))
}

/// A program's reference answer and what it cost to produce and check.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// [`CachedFixpoint::answer_digest`] of the from-scratch solve.
    pub digest: u64,
    pub solve_ns: u64,
    pub certify_ns: u64,
}

/// Solves `program` from scratch and certifies the answer. The reference
/// must come from the full-precision rung and pass the independent
/// checker, or the benchmark refuses to run.
pub fn reference(program: &Program) -> Result<Reference, String> {
    let prog = AnfProgram::parse(&program.source).map_err(|e| format!("parse: {e}"))?;
    let t0 = Instant::now();
    let (answer, report) = governed_solve(program.kind, &prog, &default_policy(), &mut NoopSink)?;
    let solve_ns = t0.elapsed().as_nanos() as u64;
    if report.degraded() {
        return Err(format!(
            "{} reference answered by a degraded rung",
            program.kind.as_str()
        ));
    }
    let t1 = Instant::now();
    certify_answer(&prog, &answer).map_err(|r| format!("reference refuted: {r}"))?;
    let certify_ns = t1.elapsed().as_nanos() as u64;
    Ok(Reference {
        digest: CachedFixpoint::new(answer, report).answer_digest,
        solve_ns,
        certify_ns,
    })
}

/// References for every program, computed on `threads` threads.
pub fn references(programs: &[Program], threads: usize) -> Result<Vec<Reference>, String> {
    let threads = threads.clamp(1, programs.len().max(1));
    let chunk = programs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = programs
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(reference).collect::<Vec<_>>()))
            .collect();
        let mut out = Vec::with_capacity(programs.len());
        for handle in handles {
            for r in handle.join().expect("reference thread panicked") {
                out.push(r?);
            }
        }
        Ok(out)
    })
}
