//! Differential acceptance tests for the independent fixpoint checker
//! (`core::certify`): every answer the solvers produce must certify, and
//! no single-element mutation of a valid fixpoint may slip past it.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Completeness on real answers.** Across a 300-program random
//!    corpus, the checker accepts the
//!    answers of all four analyses (source 0CFA, CPS 0CFA, pushdown CFA,
//!    MFP over `Flat`) — both served fresh and after a round trip through
//!    the content-addressed cache (`certify_answer` on the looked-up
//!    entry, exactly the daemon's `--certify` path).
//! 2. **Warm answers certify too.** Incremental re-solves
//!    (`WarmSolve::Warm`) are checked against the *edited* program, the
//!    way the service certifies session warm-starts before serving them.
//! 3. **Soundness against corruption.** Valid fixpoints are mutated one
//!    element at a time — an added or removed flow value, a dropped call
//!    edge, an added or dropped `returns` entry (CPS and pushdown), an
//!    added or dropped pushdown `matched` witness, a raised or lowered MFP
//!    variable — and every mutation must refute while the originals keep
//!    certifying: exhaustively over 24 corpus slots × every mutation kind,
//!    and again under a proptest.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::budget::AnalysisBudget;
use cpsdfa_core::cache::{
    AnalysisKind, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, FixpointCache,
};
use cpsdfa_core::certify::{
    certify_answer, certify_cfa_cps, certify_cfa_src, certify_mfp, certify_pushdown,
};
use cpsdfa_core::cfa::{
    zero_cfa, zero_cfa_cps, zero_cfa_cps_guarded, zero_cfa_guarded, CfaResult, CpsCfaResult,
    CpsFlow,
};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::{DegradationReport, RunGuard};
use cpsdfa_core::incremental::{
    solve_mfp_incremental, zero_cfa_cps_warm, zero_cfa_warm, WarmSolve,
};
use cpsdfa_core::mfp::{Cfg, DfSummary};
use cpsdfa_core::pushdown::{pushdown_cfa, MatchedReturn, PushdownCfaResult};
use cpsdfa_core::trace::NoopSink;
use cpsdfa_core::{AbsClo, AbsKont, SolverMode};
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_syntax::Label;
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn digest_in_fresh_arena(src: &str) -> u128 {
    let mut arena = TermArena::new();
    let root = arena.parse(src).expect("corpus programs parse");
    ArenaDigests::new().term_digest(&arena, root)
}

/// Solves `p` with every analysis and certifies each answer, fresh and
/// (for the slot's rotating pick) after a cache round trip. Returns the
/// first refutation as an error string.
fn check_certify(p: &AnfProgram, src_text: &str, i: usize) -> Result<(), String> {
    let guard = RunGuard::new(AnalysisBudget::default());

    // --- fresh answers, one per analysis ---
    let src = zero_cfa_guarded(p, &guard, &mut NoopSink)
        .map(|(r, _)| r)
        .map_err(|e| format!("src 0CFA failed: {e}"))?;
    certify_cfa_src(p, &src).map_err(|e| format!("fresh src answer refuted: {e}"))?;

    let cps = CpsProgram::from_anf(p);
    let cps_r = zero_cfa_cps_guarded(&cps, &guard, &mut NoopSink)
        .map(|(r, _)| r)
        .map_err(|e| format!("cps 0CFA failed: {e}"))?;
    certify_cfa_cps(&cps, &cps_r).map_err(|e| format!("fresh cps answer refuted: {e}"))?;

    let pd = pushdown_cfa(&cps).map_err(|e| format!("pushdown failed: {e}"))?;
    certify_pushdown(&cps, &pd).map_err(|e| format!("fresh pushdown answer refuted: {e}"))?;

    let mfp = match Cfg::from_first_order(p) {
        Ok(cfg) => {
            let init = cfg.initial_env::<Flat>(p);
            let s = cfg
                .solve_mfp_guarded::<Flat>(init, &guard, &mut NoopSink)
                .map(|(s, _)| s)
                .map_err(|e| format!("MFP failed: {e}"))?;
            certify_mfp(p, &s).map_err(|e| format!("fresh mfp answer refuted: {e}"))?;
            Some(s)
        }
        Err(_) => None, // higher-order program: no CFG, no MFP answer
    };

    // --- cached path: round-trip the slot's pick through the cache and
    // certify the *looked-up* answer, exactly as the daemon does ---
    let (kind, answer) = match i % 4 {
        0 => (AnalysisKind::CfaSrc, CachedAnswer::CfaSrc(src)),
        1 => (AnalysisKind::CfaCps, CachedAnswer::CfaCps(cps_r)),
        2 => (AnalysisKind::CfaPushdown, CachedAnswer::CfaPushdown(pd)),
        _ => match mfp {
            Some(s) => (AnalysisKind::MfpFlat, CachedAnswer::MfpFlat(s)),
            None => (AnalysisKind::CfaSrc, CachedAnswer::CfaSrc(src)),
        },
    };
    let mut cache = FixpointCache::new(u64::MAX);
    let key = CacheKey::full(kind, SolverMode::Seq, digest_in_fresh_arena(src_text));
    cache.insert(
        key,
        CachedFixpoint::new(answer, DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("cached entry vanished")?;
    certify_answer(p, &hit.answer)
        .map_err(|e| format!("cached {kind:?} answer refuted after round trip: {e}"))?;
    Ok(())
}

#[test]
fn every_solver_answer_certifies_on_300_program_corpus() {
    let progs = corpus(0xCE47, 300, &open_config());
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let text = t.to_string();
        check_certify(&p, &text, i).map_err(|e| format!("program {i}: {e}"))
    });
    assert_eq!(report.completed, progs.len(), "no sweep worker may die");
    let failures: Vec<String> = report
        .results
        .into_iter()
        .filter_map(ParOutcome::done)
        .filter_map(Result::err)
        .collect();
    assert!(
        failures.is_empty(),
        "checker refuted real answers: {failures:?}"
    );
}

#[test]
fn warm_answers_certify_against_the_edited_program() {
    // The same edit shape the watch-session tests use: a fresh top-level
    // binding, a pure insertion every incremental rung can warm through.
    for (name, base) in [
        ("dispatch(12)", families::dispatch(12)),
        ("repeated_calls(16)", families::repeated_calls(16)),
        ("cond_chain(8)", families::cond_chain(8)),
    ] {
        let edited = let_("fresh", num(7), base.clone());
        let old_p = AnfProgram::from_term(&base);
        let new_p = AnfProgram::from_term(&edited);

        let prev = zero_cfa(&old_p).expect("cold src solve");
        match zero_cfa_warm(&old_p, &prev, &new_p).expect("warm src driver") {
            WarmSolve::Warm(warm, _) => {
                certify_cfa_src(&new_p, &warm)
                    .unwrap_or_else(|e| panic!("{name}: warm src answer refuted: {e}"));
            }
            WarmSolve::Cold(r) => panic!("{name}: pure insertion fell cold on src: {r:?}"),
        }

        let old_c = CpsProgram::from_anf(&old_p);
        let new_c = CpsProgram::from_anf(&new_p);
        let prev_c = zero_cfa_cps(&old_c).expect("cold cps solve");
        match zero_cfa_cps_warm(&old_c, &prev_c, &new_c).expect("warm cps driver") {
            WarmSolve::Warm(warm, _) => {
                certify_cfa_cps(&new_c, &warm)
                    .unwrap_or_else(|e| panic!("{name}: warm cps answer refuted: {e}"));
            }
            WarmSolve::Cold(r) => panic!("{name}: pure insertion fell cold on cps: {r:?}"),
        }
    }

    // MFP's only warm rung is the α-renaming transport; an identity edit
    // (re-parse of the same text) exercises it, and the transported
    // summary must still certify.
    let term = families::cond_chain(8);
    let p = AnfProgram::from_term(&term);
    let p2 = AnfProgram::parse(&term.to_string()).expect("round-trip parses");
    let cfg = Cfg::from_first_order(&p).expect("first-order family");
    let prev = cfg
        .solve_mfp::<Flat>(cfg.initial_env(&p))
        .expect("cold MFP");
    let (warm, _) = solve_mfp_incremental(&p, &prev, &p2).expect("identity edit transports warm");
    certify_mfp(&p2, &warm).expect("transported MFP summary certifies");
}

// ---------------------------------------------------------------------------
// Mutation helpers: one corrupted element, the smallest lie a bad cache
// entry could tell. Each returns `None` only when the fixpoint has no
// applicable site (e.g. no nonempty call edge to drop).
// ---------------------------------------------------------------------------

fn src_add_fact(r: &CfaResult) -> Option<CfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [AbsClo::Dec, AbsClo::Inc] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i].insert(poison);
                return Some(m);
            }
        }
    }
    None
}

fn src_drop_fact(r: &CfaResult) -> Option<CfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = BTreeSet::new();
    Some(m)
}

/// Empties the first non-empty call entry.
fn drop_call_edge(calls: &mut [(Label, BTreeSet<AbsClo>)]) -> Option<()> {
    let i = calls.iter().position(|(_, s)| !s.is_empty())?;
    calls[i].1 = BTreeSet::new();
    Some(())
}

fn src_drop_call_edge(r: &CfaResult) -> Option<CfaResult> {
    let mut m = r.clone();
    drop_call_edge(&mut m.calls)?;
    Some(m)
}

fn cps_add_fact(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [CpsFlow::Clo(AbsClo::Dec), CpsFlow::Clo(AbsClo::Inc)] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i].insert(poison);
                return Some(m);
            }
        }
    }
    None
}

fn cps_drop_fact(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = BTreeSet::new();
    Some(m)
}

fn cps_drop_call_edge(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let mut m = r.clone();
    drop_call_edge(&mut m.calls)?;
    Some(m)
}

fn pd_add_fact(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [CpsFlow::Clo(AbsClo::Dec), CpsFlow::Clo(AbsClo::Inc)] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i].insert(poison);
                return Some(m);
            }
        }
    }
    None
}

fn pd_drop_fact(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = BTreeSet::new();
    Some(m)
}

fn pd_drop_call_edge(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let mut m = r.clone();
    drop_call_edge(&mut m.calls)?;
    Some(m)
}

/// Adds one continuation to a `returns` entry that lacks it: `stop`, or a
/// continuation some other return site resumes.
type Returns = Vec<(Label, BTreeSet<AbsKont>)>;

fn returns_add(t: &Returns) -> Option<Returns> {
    let pool: BTreeSet<AbsKont> = std::iter::once(AbsKont::Stop)
        .chain(t.iter().flat_map(|(_, s)| s).copied())
        .collect();
    for (i, (_, set)) in t.iter().enumerate() {
        if let Some(&k) = pool.iter().find(|k| !set.contains(k)) {
            let mut m = t.clone();
            m[i].1.insert(k);
            return Some(m);
        }
    }
    None
}

/// Drops one continuation from the first non-empty `returns` entry, and
/// the entry with it when that empties it (the analyzers store no empty
/// entries).
fn returns_drop(t: &Returns) -> Option<Returns> {
    let (site, k) = t
        .iter()
        .find_map(|(l, s)| s.iter().next().map(|&k| (*l, k)))?;
    Some(
        t.iter()
            .filter_map(|(l, s)| {
                let mut s = s.clone();
                if *l == site {
                    s.remove(&k);
                }
                (!s.is_empty()).then_some((*l, s))
            })
            .collect(),
    )
}

fn cps_add_return(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let mut m = r.clone();
    m.returns = returns_add(&r.returns)?;
    Some(m)
}

fn cps_drop_return(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let mut m = r.clone();
    m.returns = returns_drop(&r.returns)?;
    Some(m)
}

fn pd_add_return(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let mut m = r.clone();
    m.returns = returns_add(&r.returns)?;
    Some(m)
}

fn pd_drop_return(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let mut m = r.clone();
    m.returns = returns_drop(&r.returns)?;
    Some(m)
}

/// Adds a forged matched witness: one real witness's return re-wired to
/// another's call, or (with a single witness) to a bogus continuation.
fn pd_add_matched(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let forged = r
        .matched
        .iter()
        .flat_map(|a| {
            r.matched.iter().map(move |b| MatchedReturn {
                call_site: b.call_site,
                cont: b.cont,
                ..*a
            })
        })
        .chain(r.matched.iter().map(|a| MatchedReturn {
            cont: a.ret_site,
            ..*a
        }))
        .find(|w| !r.matched.contains(w))?;
    let mut m = r.clone();
    let at = m.matched.binary_search(&forged).unwrap_err();
    m.matched.insert(at, forged);
    Some(m)
}

fn pd_drop_matched(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    if r.matched.is_empty() {
        return None;
    }
    let mut m = r.clone();
    m.matched.remove(0);
    Some(m)
}

/// Raises the first variable below ⊤ one step: ⊥ to a constant, a constant
/// to ⊤.
fn mfp_raise(s: &DfSummary<Flat>) -> Option<DfSummary<Flat>> {
    let i = s.vars.iter().position(|v| *v != Flat::Top)?;
    let mut m = s.clone();
    m.vars[i] = match s.vars[i] {
        Flat::Bot => Flat::Const(0),
        _ => Flat::Top,
    };
    Some(m)
}

/// Lowers the first variable above ⊥ one step: ⊤ to a constant, a constant
/// to ⊥.
fn mfp_lower(s: &DfSummary<Flat>) -> Option<DfSummary<Flat>> {
    let i = s.vars.iter().position(|v| *v != Flat::Bot)?;
    let mut m = s.clone();
    m.vars[i] = match s.vars[i] {
        Flat::Top => Flat::Const(0),
        _ => Flat::Bot,
    };
    Some(m)
}

/// The mutation kinds: which analyses each applies to is decided in
/// [`check_mutation`].
const MUTATIONS: [&str; 9] = [
    "add flow value",
    "drop flow value",
    "drop call edge",
    "add returns entry",
    "drop returns entry",
    "add matched witness",
    "drop matched witness",
    "raise MFP variable",
    "lower MFP variable",
];

/// Certifies every analysis' original answer on corpus slot `slot`, then
/// applies mutation `mutation` wherever it applies and demands a
/// refutation. Returns how many analyses the mutation was applied to.
fn check_mutation(slot: usize, mutation: usize) -> Result<usize, String> {
    let progs = corpus(0xCE47F, 24, &open_config());
    let p = AnfProgram::from_term(&progs[slot]);
    let name = MUTATIONS[mutation];
    let mut applied = 0;

    let src = zero_cfa(&p).expect("src 0CFA completes");
    certify_cfa_src(&p, &src).map_err(|e| format!("original src answer refuted: {e}"))?;
    let mutated = match mutation {
        0 => src_add_fact(&src),
        1 => src_drop_fact(&src),
        2 => src_drop_call_edge(&src),
        _ => None,
    };
    if let Some(m) = mutated {
        applied += 1;
        if certify_cfa_src(&p, &m).is_ok() {
            return Err(format!("src answer with `{name}` certified"));
        }
    }

    let cps = CpsProgram::from_anf(&p);
    let cps_r = zero_cfa_cps(&cps).expect("cps 0CFA completes");
    certify_cfa_cps(&cps, &cps_r).map_err(|e| format!("original cps answer refuted: {e}"))?;
    let mutated = match mutation {
        0 => cps_add_fact(&cps_r),
        1 => cps_drop_fact(&cps_r),
        2 => cps_drop_call_edge(&cps_r),
        3 => cps_add_return(&cps_r),
        4 => cps_drop_return(&cps_r),
        _ => None,
    };
    if let Some(m) = mutated {
        applied += 1;
        if certify_cfa_cps(&cps, &m).is_ok() {
            return Err(format!("cps answer with `{name}` certified"));
        }
    }

    let pd = pushdown_cfa(&cps).expect("pushdown completes");
    certify_pushdown(&cps, &pd).map_err(|e| format!("original pushdown answer refuted: {e}"))?;
    let mutated = match mutation {
        0 => pd_add_fact(&pd),
        1 => pd_drop_fact(&pd),
        2 => pd_drop_call_edge(&pd),
        3 => pd_add_return(&pd),
        4 => pd_drop_return(&pd),
        5 => pd_add_matched(&pd),
        6 => pd_drop_matched(&pd),
        _ => None,
    };
    if let Some(m) = mutated {
        applied += 1;
        if certify_pushdown(&cps, &m).is_ok() {
            return Err(format!("pushdown answer with `{name}` certified"));
        }
    }

    // MFP needs a first-order program: the slot's own when it lowers, a
    // first-order family of slot-dependent size otherwise.
    let fo = if Cfg::from_first_order(&p).is_ok() {
        p
    } else {
        let family = [families::cond_chain, families::diamond_chain][slot % 2];
        AnfProgram::from_term(&family(slot + 2))
    };
    let cfg = Cfg::from_first_order(&fo).expect("first-order program lowers");
    let s = cfg
        .solve_mfp::<Flat>(cfg.initial_env(&fo))
        .expect("MFP completes");
    certify_mfp(&fo, &s).map_err(|e| format!("original mfp answer refuted: {e}"))?;
    let mutated = match mutation {
        7 => mfp_raise(&s),
        8 => mfp_lower(&s),
        _ => None,
    };
    if let Some(m) = mutated {
        applied += 1;
        if certify_mfp(&fo, &m).is_ok() {
            return Err(format!("mfp answer with `{name}` certified"));
        }
    }
    Ok(applied)
}

#[test]
fn every_mutation_kind_is_refuted_on_every_corpus_slot() {
    for (mutation, name) in MUTATIONS.iter().enumerate() {
        let mut applied = 0;
        for slot in 0..24 {
            applied += check_mutation(slot, mutation)
                .unwrap_or_else(|e| panic!("slot {slot}, `{name}`: {e}"));
        }
        assert!(applied > 0, "`{name}` never applied: the sweep is vacuous");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus slot, random mutation kind: the original fixpoint of
    /// every analysis certifies, and the single-element mutation of it
    /// never does.
    #[test]
    fn prop_single_element_mutations_are_refuted(
        slot in 0usize..24,
        mutation in 0usize..MUTATIONS.len(),
    ) {
        let outcome = check_mutation(slot, mutation);
        prop_assert!(outcome.is_ok(), "slot {}: {:?}", slot, outcome);
    }
}

/// One mutation of each kind, applied to a fixed program per analysis:
/// `(analysis, mutation, refutation text)`. A mutation with no applicable
/// site reports "not applicable", so the pin below cannot go vacuous.
fn pinned_refutations() -> Vec<(&'static str, &'static str, String)> {
    let p = AnfProgram::from_term(&families::polyvariant(3));
    let cps = CpsProgram::from_anf(&p);
    let text = |r: Option<Result<(), String>>| match r {
        Some(Err(e)) => e,
        Some(Ok(())) => "certified".to_string(),
        None => "not applicable".to_string(),
    };
    let mut out = Vec::new();
    let src = zero_cfa(&p).expect("src 0CFA completes");
    let src_check = |m: Option<CfaResult>| {
        m.map(|m| {
            certify_cfa_src(&p, &m)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    };
    out.push(("src", MUTATIONS[0], text(src_check(src_add_fact(&src)))));
    out.push(("src", MUTATIONS[1], text(src_check(src_drop_fact(&src)))));
    out.push((
        "src",
        MUTATIONS[2],
        text(src_check(src_drop_call_edge(&src))),
    ));
    let cps_r = zero_cfa_cps(&cps).expect("cps 0CFA completes");
    let cps_check = |m: Option<CpsCfaResult>| {
        m.map(|m| {
            certify_cfa_cps(&cps, &m)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    };
    out.push(("cps", MUTATIONS[0], text(cps_check(cps_add_fact(&cps_r)))));
    out.push(("cps", MUTATIONS[1], text(cps_check(cps_drop_fact(&cps_r)))));
    out.push((
        "cps",
        MUTATIONS[2],
        text(cps_check(cps_drop_call_edge(&cps_r))),
    ));
    out.push(("cps", MUTATIONS[3], text(cps_check(cps_add_return(&cps_r)))));
    out.push((
        "cps",
        MUTATIONS[4],
        text(cps_check(cps_drop_return(&cps_r))),
    ));
    let pd = pushdown_cfa(&cps).expect("pushdown completes");
    let pd_check = |m: Option<PushdownCfaResult>| {
        m.map(|m| {
            certify_pushdown(&cps, &m)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    };
    out.push(("pushdown", MUTATIONS[0], text(pd_check(pd_add_fact(&pd)))));
    out.push(("pushdown", MUTATIONS[1], text(pd_check(pd_drop_fact(&pd)))));
    out.push((
        "pushdown",
        MUTATIONS[2],
        text(pd_check(pd_drop_call_edge(&pd))),
    ));
    out.push(("pushdown", MUTATIONS[3], text(pd_check(pd_add_return(&pd)))));
    out.push((
        "pushdown",
        MUTATIONS[4],
        text(pd_check(pd_drop_return(&pd))),
    ));
    out.push((
        "pushdown",
        MUTATIONS[5],
        text(pd_check(pd_add_matched(&pd))),
    ));
    out.push((
        "pushdown",
        MUTATIONS[6],
        text(pd_check(pd_drop_matched(&pd))),
    ));
    out
}

/// The exact refutation each mutation kind draws, recorded from the
/// `BTreeSet` checker that preceded the bit-row one: the first missing or
/// extra fact a refutation names is fixed by value order, not by the set
/// representation.
#[test]
fn refutation_text_is_pinned_per_mutation_kind() {
    let expected: [(&str, &str, &str); 15] = [
        ("src", "add flow value", "unclosed: v0 ⊆ tℓ17 does not propagate dec ∈ tℓ17"),
        ("src", "drop flow value", "unclosed: seed ⊆ v0 does not propagate cl@ℓ1 ∈ v0"),
        ("src", "drop call edge", "unclosed: call@ℓ16 does not propagate cl@ℓ1 ∈ calls[ℓ16]"),
        ("cps", "add flow value", "unsupported fact: Clo(dec) ∈ v0"),
        ("cps", "drop flow value", "unclosed: seed ⊆ v0 does not propagate Kont(stop) ∈ v0"),
        ("cps", "drop call edge", "unclosed: call@ℓ32 does not propagate cl@ℓ3 ∈ calls[ℓ32]"),
        ("cps", "add returns entry", "unsupported fact: stop ∈ returns[ℓ2]"),
        ("cps", "drop returns entry", "unclosed: ret@ℓ2 does not propagate co@ℓ14 ∈ returns[ℓ2]"),
        ("pushdown", "add flow value", "unsupported fact: Clo(dec) ∈ v0"),
        ("pushdown", "drop flow value", "unclosed: halt fill ⊆ v0 does not propagate stop ∈ v0"),
        ("pushdown", "drop call edge", "unclosed: call@ℓ32 does not propagate cl@ℓ9 ∈ calls[ℓ32]"),
        ("pushdown", "add returns entry", "unsupported fact: stop ∈ returns[ℓ2]"),
        ("pushdown", "drop returns entry", "unclosed: summary ℓ0@ℓ37 does not propagate co@ℓ14 ∈ returns[ℓ2]"),
        ("pushdown", "add matched witness", "unsupported fact: matched witness MatchedReturn { ret_site: ℓ2, callee: ℓ0, call_site: ℓ34, cont: ℓ23 }"),
        ("pushdown", "drop matched witness", "unclosed: summary ℓ0@ℓ35 does not propagate matched witness MatchedReturn { ret_site: ℓ2, callee: ℓ0, call_site: ℓ35, cont: ℓ20 }"),
    ];
    let got = pinned_refutations();
    assert_eq!(got.len(), expected.len());
    for ((analysis, mutation, text), (ea, em, et)) in got.iter().zip(expected) {
        assert_eq!((*analysis, *mutation), (ea, em));
        assert_eq!(text, et, "{analysis} `{mutation}`");
    }
}
