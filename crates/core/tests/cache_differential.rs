//! Differential acceptance tests for the content-addressed fixpoint cache
//! (`core::cache`): a cache hit must be *bit-identical* to a fresh solve.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Round-trip bit-identity.** For all three analyses (source 0CFA,
//!    CPS 0CFA, MFP over `Flat`), committing a solution into the cache and reading it back yields a
//!    result that is `same_solution`-equal to a second fresh solve, with
//!    an identical canonical digest — on a 300-program random corpus.
//! 2. **Content addressing.** The same program parsed into *different*
//!    arenas (different processes, different workers) produces the same
//!    cache key, so cross-worker reuse is sound; different programs
//!    produce different keys.
//! 3. **Degraded answers never shadow.** An answer produced by a fallback
//!    rung is keyed by that rung, so a full-precision lookup of the same
//!    program can never be served the coarser store.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::budget::AnalysisBudget;
use cpsdfa_core::cache::{
    debug_digest, AnalysisKind, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, FixpointCache,
};
use cpsdfa_core::cfa::{zero_cfa_cps_guarded, zero_cfa_guarded};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::{
    governed_pushdown_cfa, governed_zero_cfa_cps, DegradationReport, GovernPolicy, RunGuard,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::trace::NoopSink;
use cpsdfa_core::SolverMode;
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};

fn digest_in_fresh_arena(src: &str) -> u128 {
    let mut arena = TermArena::new();
    let root = arena.parse(src).expect("corpus programs parse");
    ArenaDigests::new().term_digest(&arena, root)
}

/// Solves `p` with both 0CFA representations, commits each answer through
/// the cache, and checks the reconstructed results against an independent
/// fresh solve. Returns the first divergence.
fn check_cache_round_trip(p: &AnfProgram, src_text: &str) -> Result<(), String> {
    let mode = SolverMode::Seq;
    let digest = digest_in_fresh_arena(src_text);
    let mut cache = FixpointCache::new(u64::MAX);

    // --- source 0CFA ---
    let solve_src = || {
        let guard = RunGuard::new(AnalysisBudget::default());
        zero_cfa_guarded(p, &guard, &mut NoopSink)
            .map(|(r, _)| r)
            .map_err(|e| format!("src 0CFA failed: {e}"))
    };
    let first = solve_src()?;
    let key = CacheKey::full(AnalysisKind::CfaSrc, mode, digest);
    cache.insert(
        key,
        CachedFixpoint::new(CachedAnswer::CfaSrc(first), DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("src entry vanished")?;
    let CachedAnswer::CfaSrc(restored) = &hit.answer else {
        return Err("src entry changed kind".into());
    };
    let fresh = solve_src()?;
    if !restored.same_solution(&fresh) {
        return Err("src hit diverged from fresh solve".into());
    }
    if hit.answer_digest != CachedAnswer::CfaSrc(fresh).digest() {
        return Err("src digest diverged".into());
    }

    // --- CPS 0CFA ---
    let cps = CpsProgram::from_anf(p);
    let solve_cps = || {
        let guard = RunGuard::new(AnalysisBudget::default());
        zero_cfa_cps_guarded(&cps, &guard, &mut NoopSink)
            .map(|(r, _)| r)
            .map_err(|e| format!("cps 0CFA failed: {e}"))
    };
    let first = solve_cps()?;
    let key = CacheKey::full(AnalysisKind::CfaCps, mode, digest);
    cache.insert(
        key,
        CachedFixpoint::new(CachedAnswer::CfaCps(first), DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("cps entry vanished")?;
    let CachedAnswer::CfaCps(restored) = &hit.answer else {
        return Err("cps entry changed kind".into());
    };
    let fresh = solve_cps()?;
    if !restored.same_solution(&fresh) {
        return Err("cps hit diverged from fresh solve".into());
    }
    if hit.answer_digest != CachedAnswer::CfaCps(fresh).digest() {
        return Err("cps digest diverged".into());
    }
    Ok(())
}

#[test]
fn cache_hits_equal_fresh_solves_on_300_program_corpus() {
    let progs = corpus(0xCAC4E, 300, &open_config());
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let text = t.to_string();
        check_cache_round_trip(&p, &text).map_err(|e| format!("program {i}: {e}"))
    });
    assert_eq!(report.completed, progs.len(), "no sweep worker may die");
    let failures: Vec<String> = report
        .results
        .into_iter()
        .filter_map(ParOutcome::done)
        .filter_map(Result::err)
        .collect();
    assert!(failures.is_empty(), "cache/fresh diverged: {failures:?}");
}

#[test]
fn mfp_cache_hits_equal_fresh_solves() {
    for (name, term) in [
        ("cond_chain(24)", families::cond_chain(24)),
        ("agreeing_cond_chain(16)", families::agreeing_cond_chain(16)),
        ("diamond_chain(6)", families::diamond_chain(6)),
    ] {
        let p = AnfProgram::from_term(&term);
        let text = term.to_string();
        let digest = digest_in_fresh_arena(&text);
        let cfg = Cfg::from_first_order(&p)
            .unwrap_or_else(|e| panic!("{name} should lower to a CFG: {e}"));
        let init = cfg.initial_env::<Flat>(&p);
        let solve = || {
            let guard = RunGuard::new(AnalysisBudget::default());
            cfg.solve_mfp_guarded::<Flat>(init.clone(), &guard, &mut NoopSink)
                .unwrap_or_else(|e| panic!("MFP failed on {name}: {e}"))
                .0
        };
        let mut cache = FixpointCache::new(u64::MAX);
        let key = CacheKey::full(AnalysisKind::MfpFlat, SolverMode::Seq, digest);
        cache.insert(
            key,
            CachedFixpoint::new(CachedAnswer::MfpFlat(solve()), DegradationReport::default()),
        );
        let hit = cache.lookup(&key).expect("entry resident");
        let CachedAnswer::MfpFlat(summary) = &hit.answer else {
            panic!("MFP entry changed kind");
        };
        let fresh = solve();
        assert_eq!(summary, &fresh, "MFP hit diverged on {name}");
        assert_eq!(hit.answer_digest, debug_digest(&fresh));
    }
}

#[test]
fn keys_are_arena_and_process_independent_but_program_sensitive() {
    let a = families::dispatch(16).to_string();
    let b = families::dispatch(17).to_string();
    assert_eq!(
        digest_in_fresh_arena(&a),
        digest_in_fresh_arena(&a),
        "two arenas, same program, same digest"
    );
    assert_ne!(
        digest_in_fresh_arena(&a),
        digest_in_fresh_arena(&b),
        "different programs must not collide on the happy path"
    );
}

#[test]
fn degraded_rung_commit_never_shadows_full_precision() {
    // Starve the CPS rung so the ladder answers at cfa.src, then commit
    // the way the service does: under the answering rung.
    let term = families::repeated_calls(64);
    let p = AnfProgram::from_term(&term);
    let text = term.to_string();
    let digest = digest_in_fresh_arena(&text);

    let (_, src_stats) =
        cpsdfa_core::cfa::zero_cfa_instrumented(&p).expect("source 0CFA completes");
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_stats.fired));
    let governed = governed_zero_cfa_cps(&p, &policy, &mut NoopSink)
        .expect("the ladder recovers at the direct rung");
    assert!(governed.report.degraded(), "premise: CPS rung must trip");
    let rung = governed.report.answered_by().expect("a rung answered");
    assert_eq!(rung, "cfa.src");

    let answer = match governed.value {
        cpsdfa_core::govern::CfaAnswer::Direct(r) => CachedAnswer::CfaSrc(r),
        other => panic!("expected the direct fallback, got {other:?}"),
    };
    let mut cache = FixpointCache::new(u64::MAX);
    let mode = SolverMode::Seq;
    let commit_key = CacheKey::for_rung(AnalysisKind::CfaCps, mode, digest, rung);
    assert!(cache.insert(commit_key, CachedFixpoint::new(answer, governed.report)));

    // The full-precision probe misses; the rung-addressed probe hits.
    assert!(
        cache
            .lookup(&CacheKey::full(AnalysisKind::CfaCps, mode, digest))
            .is_none(),
        "a degraded commit must be invisible to full-precision lookups"
    );
    assert!(cache.lookup(&commit_key).is_some());
}

#[test]
fn degraded_pushdown_commit_never_shadows_upper_rungs() {
    // Starve the whole CPS-arena ladder under the pushdown entry point so
    // it answers at cfa.src (dispatch is the family where the direct rung
    // is genuinely the cheapest), then commit the way the service does:
    // under the answering rung. Neither the full-precision pushdown key
    // nor any intermediate rung key may see the coarse answer.
    let term = families::dispatch(64);
    let p = AnfProgram::from_term(&term);
    let text = term.to_string();
    let digest = digest_in_fresh_arena(&text);

    let (_, src_stats) =
        cpsdfa_core::cfa::zero_cfa_instrumented(&p).expect("source 0CFA completes");
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_stats.fired));
    let governed = governed_pushdown_cfa(&p, &policy, &mut NoopSink)
        .expect("the ladder recovers at the direct rung");
    assert!(governed.report.degraded(), "premise: upper rungs must trip");
    let rung = governed.report.answered_by().expect("a rung answered");
    assert_eq!(rung, "cfa.src");

    let answer = match governed.value {
        cpsdfa_core::govern::CfaAnswer::Direct(r) => CachedAnswer::CfaSrc(r),
        other => panic!("expected the direct fallback, got {other:?}"),
    };
    let mut cache = FixpointCache::new(u64::MAX);
    let mode = SolverMode::Seq;
    let commit_key = CacheKey::for_rung(AnalysisKind::CfaPushdown, mode, digest, rung);
    assert!(cache.insert(commit_key, CachedFixpoint::new(answer, governed.report)));

    // The full-precision probe misses, as does the intermediate cfa.cps
    // rung probe; only the rung-addressed probe hits.
    assert!(
        cache
            .lookup(&CacheKey::full(AnalysisKind::CfaPushdown, mode, digest))
            .is_none(),
        "a degraded commit must be invisible to full-precision pushdown lookups"
    );
    assert!(
        cache
            .lookup(&CacheKey::for_rung(
                AnalysisKind::CfaPushdown,
                mode,
                digest,
                "cfa.cps"
            ))
            .is_none(),
        "a cfa.src answer must not surface on the cfa.cps rung key either"
    );
    assert!(cache.lookup(&commit_key).is_some());

    // Kind remains part of the key: a full-precision pushdown answer is
    // never served to a cfa.cps request for the same program.
    assert_ne!(
        CacheKey::full(AnalysisKind::CfaPushdown, mode, digest),
        CacheKey::full(AnalysisKind::CfaCps, mode, digest)
    );
}
