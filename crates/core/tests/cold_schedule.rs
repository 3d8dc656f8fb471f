//! Pins the cold solver schedule of the three CFA analyses.
//!
//! A cold solve is the seeded solve with no seed, so its constraint
//! registration order and its initial posts must not depend on the seed
//! machinery. The numbers below were recorded from the separate cold
//! solver bodies that the seeded bodies replaced; any change to
//! registration order, to the initial posts (including the CPS
//! constant-operator posts) or to the firing discipline moves at least
//! one of them.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cfa::{zero_cfa_cps_instrumented, zero_cfa_instrumented};
use cpsdfa_core::pushdown::pushdown_cfa_instrumented;
use cpsdfa_core::SolverStats;
use cpsdfa_cps::CpsProgram;
use cpsdfa_workloads::families;

/// `(fired, delta_elems, iterations, posted, constraints)` of one run.
type Schedule = (u64, u64, u64, u64, u64);

fn schedule(stats: &SolverStats, iterations: u64) -> Schedule {
    (
        stats.fired,
        stats.delta_elems,
        iterations,
        stats.posted,
        stats.constraints,
    )
}

/// A program whose CPS form calls a λ and `add1` as constant operators.
const CONST_OPERATOR: &str =
    "(let (a ((lambda (x) x) 1)) (let (b (add1 a)) (let (f (lambda (y) y)) (f b))))";

#[test]
fn cold_schedules_match_the_recorded_counts() {
    // (name, program, src 0CFA, CPS 0CFA, pushdown)
    let pinned: [(&str, AnfProgram, Schedule, Schedule, Schedule); 5] = [
        (
            "dispatch(40)",
            AnfProgram::from_term(&families::dispatch(40)),
            (157, 2458, 157, 196, 281),
            (900, 938, 900, 901, 159),
            (781, 819, 781, 782, 40),
        ),
        (
            "polyvariant(40)",
            AnfProgram::from_term(&families::polyvariant(40)),
            (2660, 5000, 2660, 3440, 3603),
            (3361, 4921, 3361, 4141, 202),
            (160, 160, 160, 160, 160),
        ),
        (
            "church(6)",
            AnfProgram::from_term(&families::church(6)),
            (17, 17, 17, 17, 35),
            (11, 10, 11, 11, 12),
            (8, 7, 8, 8, 9),
        ),
        (
            "repeated_calls(10)",
            AnfProgram::from_term(&families::repeated_calls(10)),
            (20, 20, 20, 20, 53),
            (21, 21, 21, 21, 22),
            (10, 10, 10, 10, 10),
        ),
        (
            "const-operator",
            AnfProgram::parse(CONST_OPERATOR).expect("parses"),
            (4, 4, 4, 4, 17),
            (6, 4, 6, 6, 9),
            (3, 1, 3, 3, 5),
        ),
    ];
    for (name, prog, src, cps, pd) in pinned {
        let (r, s) = zero_cfa_instrumented(&prog).expect("src 0CFA");
        assert_eq!(schedule(&s, r.iterations), src, "src 0CFA on {name}");
        let c = CpsProgram::from_anf(&prog);
        let (r, s) = zero_cfa_cps_instrumented(&c).expect("CPS 0CFA");
        assert_eq!(schedule(&s, r.iterations), cps, "CPS 0CFA on {name}");
        let (r, s) = pushdown_cfa_instrumented(&c).expect("pushdown");
        assert_eq!(schedule(&s, r.iterations), pd, "pushdown on {name}");
    }
}
