//! Pins the numbers a served answer is known by, so a change to how the
//! solvers commit their answers cannot move them unnoticed.
//!
//! For each program and analysis kind three numbers are fixed:
//!
//! * `answer_digest` — what every reply carries and clients compare;
//! * `approx_bytes` — what cache eviction charges;
//! * the 64-bit FNV-1a of the entry file [`PersistDir::store`] writes — the
//!   `CPSDFA2` bytes, so `persist_mb` and recovery stay put.
//!
//! The values were recorded from the solvers before the result types and
//! the cache shared one representation.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, PersistDir,
};
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps, CfaResult, CpsCfaResult};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::DegradationReport;
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::pushdown::{pushdown_cfa, PushdownCfaResult};
use cpsdfa_core::SolverMode;
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::Term;
use cpsdfa_workloads::families;
use std::fs;

const fn send_sync<T: Send + Sync>() {}

/// The answers the cache, the disk codec and the certifier share must be
/// movable across the daemon's worker threads: checked at compile time.
const _: () = {
    send_sync::<CfaResult>();
    send_sync::<CpsCfaResult>();
    send_sync::<PushdownCfaResult>();
    send_sync::<CachedFixpoint>();
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `(answer_digest, approx_bytes, fnv1a(entry file))`.
type Pins = (u64, u64, u64);

/// The [`Pins`] of `kind` on `term`.
fn pins(kind: AnalysisKind, term: &Term) -> Pins {
    let source = term.to_string();
    let p = AnfProgram::parse(&source).unwrap();
    let answer = match kind {
        AnalysisKind::CfaSrc => CachedAnswer::CfaSrc(zero_cfa(&p).unwrap()),
        AnalysisKind::CfaCps => {
            CachedAnswer::CfaCps(zero_cfa_cps(&CpsProgram::from_anf(&p)).unwrap())
        }
        AnalysisKind::CfaPushdown => {
            CachedAnswer::CfaPushdown(pushdown_cfa(&CpsProgram::from_anf(&p)).unwrap())
        }
        AnalysisKind::MfpFlat => {
            let cfg = Cfg::from_first_order(&p).unwrap();
            CachedAnswer::MfpFlat(cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap())
        }
    };
    let fixpoint = CachedFixpoint::new(answer, DegradationReport::default());

    let mut arena = TermArena::new();
    let root = arena.parse(&source).unwrap();
    let key = CacheKey::full(
        kind,
        SolverMode::Seq,
        ArenaDigests::new().term_digest(&arena, root),
    );
    let dir = std::env::temp_dir().join(format!(
        "cpsdfa-answer-pins-{}-{}-{:x}",
        std::process::id(),
        kind.as_str(),
        key.digest
    ));
    let _ = fs::remove_dir_all(&dir);
    let persist = PersistDir::open(&dir).unwrap();
    assert!(persist.store(&key, &source, &fixpoint, None).unwrap());
    let entries: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1, "one entry file per store");
    let bytes = fs::read(&entries[0]).unwrap();
    let _ = fs::remove_dir_all(&dir);
    (fixpoint.answer_digest, fixpoint.approx_bytes, fnv1a(&bytes))
}

#[test]
fn digests_bytes_and_entry_files_are_pinned() {
    let cases: [(&str, AnalysisKind, Term, Pins); 10] = [
        (
            "dispatch(40)",
            AnalysisKind::CfaSrc,
            families::dispatch(40),
            (0xa51b_4671_ee08_30e1, 35_736, 0x002b_182b_aba7_0fef),
        ),
        (
            "dispatch(40)",
            AnalysisKind::CfaCps,
            families::dispatch(40),
            (0x4fce_c328_b692_ca8e, 30_180, 0x3002_7537_c808_5e96),
        ),
        (
            "dispatch(40)",
            AnalysisKind::CfaPushdown,
            families::dispatch(40),
            (0xa366_e8e4_3fac_b25e, 30_820, 0x76d3_7f8f_bcb1_52af),
        ),
        (
            "polyvariant(40)",
            AnalysisKind::CfaSrc,
            families::polyvariant(40),
            (0xe794_9c56_adf0_6277, 71_368, 0x51e6_052a_e014_da63),
        ),
        (
            "polyvariant(40)",
            AnalysisKind::CfaCps,
            families::polyvariant(40),
            (0x88cd_c1ed_ec28_3b66, 86_976, 0xd51a_02d6_a692_9f0e),
        ),
        (
            "polyvariant(40)",
            AnalysisKind::CfaPushdown,
            families::polyvariant(40),
            (0x3c74_d819_18bb_cd8e, 25_856, 0x08f8_7d83_b74b_c27d),
        ),
        (
            "repeated_calls(10)",
            AnalysisKind::CfaSrc,
            families::repeated_calls(10),
            (0x51d3_238f_3c57_e7dd, 3_048, 0xdf0a_5d68_dea0_9c91),
        ),
        (
            "repeated_calls(10)",
            AnalysisKind::CfaCps,
            families::repeated_calls(10),
            (0x4969_0e8f_e9cc_4e69, 1_976, 0x13af_c4fd_4b84_ae99),
        ),
        (
            "repeated_calls(10)",
            AnalysisKind::CfaPushdown,
            families::repeated_calls(10),
            (0x7348_bb48_c9ef_31b4, 2_136, 0x0157_d181_fc30_93ba),
        ),
        (
            "cond_chain(20)",
            AnalysisKind::MfpFlat,
            families::cond_chain(20),
            (0x284c_4de7_8de8_6c84, 416, 0x9389_9730_b5d9_fe6f),
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, kind, term, want) in &cases {
        let got = pins(*kind, term);
        if got != *want {
            mismatches.push(format!(
                "{name} {}: got ({:#x}, {}, {:#x}), pinned ({:#x}, {}, {:#x})",
                kind.as_str(),
                got.0,
                got.1,
                got.2,
                want.0,
                want.1,
                want.2
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
