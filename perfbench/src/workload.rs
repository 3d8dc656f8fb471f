//! The three request mixes, generated from `cpsdfa-workloads` (`families`
//! plus `edits::edit_script`) as a pure function of the seed.
//!
//! | workload | what it stresses |
//! |---|---|
//! | `cold-miss` | every request is a distinct program: parse, lowering, solve and the persist write do the work |
//! | `zipf-hot` | a primed 48-program pool drawn with zipf s = 1: every request is a certified hit |
//! | `watch-edit` | interleaved edit sessions: warm starts, cold fallbacks, certify-on-warm, session journal writes |

use cpsdfa_core::cache::{AnalysisKind, ArenaDigests};
use cpsdfa_service::json::escape;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::Term;
use cpsdfa_workloads::edits::{edit_script, EditKind, ALL_EDIT_KINDS};
use cpsdfa_workloads::families;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashMap, HashSet};

/// The analyses every mix draws over: the paper's direct and CPS answers
/// plus the pushdown (call/return matching) rung, and the first-order MFP.
pub const ANALYSES: [AnalysisKind; 4] = [
    AnalysisKind::CfaSrc,
    AnalysisKind::CfaCps,
    AnalysisKind::CfaPushdown,
    AnalysisKind::MfpFlat,
];

/// Program sizes are drawn from this range of family parameters.
const SIZES: std::ops::Range<usize> = 24..112;
/// Distinct programs in one `cold-miss` round.
const COLD_REQUESTS: usize = 1200;
/// The `zipf-hot` pool and the draws of one round.
const ZIPF_POOL: usize = 48;
const ZIPF_DRAWS: usize = 1000;
/// `watch-edit` sessions and requests per session (base + edits).
const SESSIONS: usize = 40;
const SESSION_STEPS: usize = 16;
/// Closed-loop clients, hence requests in flight.
pub const CLIENTS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMiss,
    ZipfHot,
    WatchEdit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdMiss, Workload::ZipfHot, Workload::WatchEdit];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMiss => "cold-miss",
            Workload::ZipfHot => "zipf-hot",
            Workload::WatchEdit => "watch-edit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round of the workload, generated from `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        match self {
            Workload::ColdMiss => cold_miss(seed),
            Workload::ZipfHot => zipf_hot(seed),
            Workload::WatchEdit => watch_edit(seed),
        }
    }
}

/// A distinct program of a plan, with the analysis asked of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    pub kind: AnalysisKind,
    pub source: String,
}

/// One request of a round: which program, under which watch session, and
/// which closed-loop client sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub program: usize,
    pub session: Option<u64>,
    pub client: usize,
}

/// One round of a workload. Request `i` of `stream` carries id `i`; each
/// client sends its requests in stream order, one at a time.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Distinct `(analysis, source)` pairs; every reference is computed
    /// once per program.
    pub programs: Vec<Program>,
    /// Programs a priming daemon answers into the persist dir before the
    /// timed daemon starts over it.
    pub prime: Vec<usize>,
    pub stream: Vec<Request>,
    index: HashMap<Program, usize>,
}

impl Plan {
    fn intern(&mut self, kind: AnalysisKind, term: &Term) -> usize {
        let program = Program {
            kind,
            source: term.to_string(),
        };
        if let Some(&i) = self.index.get(&program) {
            return i;
        }
        self.programs.push(program.clone());
        self.index.insert(program, self.programs.len() - 1);
        self.programs.len() - 1
    }

    /// Every request line of the round, in stream order.
    pub fn lines(&self) -> Vec<String> {
        self.stream
            .iter()
            .enumerate()
            .map(|(id, req)| request_line(id as u64, &self.programs[req.program], req.session))
            .collect()
    }

    /// The priming requests, as a plan stream of their own lines.
    pub fn prime_lines(&self) -> Vec<String> {
        self.prime
            .iter()
            .enumerate()
            .map(|(i, &p)| request_line(i as u64, &self.programs[p], None))
            .collect()
    }
}

fn request_line(id: u64, program: &Program, session: Option<u64>) -> String {
    let session = session.map_or(String::new(), |s| format!(", \"session\": {s}"));
    format!(
        "{{\"id\": {id}, \"analysis\": \"{}\", \"program\": \"{}\"{session}}}",
        program.kind.as_str(),
        escape(&program.source)
    )
}

/// The program families a kind is drawn over. CFA requests use the
/// higher-order families; `mfp.flat` needs first-order programs.
fn families_for(kind: AnalysisKind) -> &'static [fn(usize) -> Term] {
    match kind {
        AnalysisKind::MfpFlat => &[families::cond_chain, families::diamond_chain],
        _ => &[
            families::dispatch,
            families::repeated_calls,
            families::polyvariant,
        ],
    }
}

/// `base` after the edit script `kinds` (kinds with no applicable site are
/// skipped by the script).
fn edited(base: &Term, kinds: &[EditKind], seed: u64) -> Term {
    edit_script(base, kinds, seed)
        .steps
        .pop()
        .map_or_else(|| base.clone(), |s| s.term)
}

/// Three value-level edits make each drawn program a fresh cache key
/// without changing its control flow.
const VALUE_EDITS: [EditKind; 3] = [EditKind::ReplaceConst; 3];

fn alternate_clients(plan: &mut Plan, programs: impl IntoIterator<Item = usize>) {
    for (i, program) in programs.into_iter().enumerate() {
        plan.stream.push(Request {
            program,
            session: None,
            client: i % CLIENTS,
        });
    }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn cold_miss(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Plan::default();
    let (mut arena, mut digests) = (TermArena::new(), ArenaDigests::new());
    let mut seen = HashSet::new();
    // The round is stratified: every seed asks the same analyses of the
    // same families and sizes, spread evenly over the size range, so the
    // seed moves the figures only through the edits and the order.
    let per_kind = COLD_REQUESTS / ANALYSES.len();
    let mut order: Vec<usize> = (0..COLD_REQUESTS)
        .map(|i| {
            let kind = ANALYSES[i % ANALYSES.len()];
            let j = i / ANALYSES.len();
            let fams = families_for(kind);
            let base = fams[j % fams.len()](SIZES.start + j * SIZES.len() / per_kind);
            // Distinct cache keys, not just distinct text: a repeat would
            // be a hit and the workload promises none.
            loop {
                let term = edited(&base, &VALUE_EDITS, rng.next_u64());
                let root = arena.from_term(&term);
                if seen.insert((kind, digests.term_digest(&arena, root))) {
                    return plan.intern(kind, &term);
                }
            }
        })
        .collect();
    shuffle(&mut order, &mut rng);
    alternate_clients(&mut plan, order);
    plan
}

fn zipf_hot(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Plan::default();
    // The pool is stratified by rank: rank r always has the same analysis,
    // family and size, so the hot head of the distribution costs the same
    // under every seed; the seed picks the edits and the draw order.
    let pool: Vec<usize> = (0..ZIPF_POOL)
        .map(|r| {
            let kind = ANALYSES[r % ANALYSES.len()];
            let fams = families_for(kind);
            let family = fams[(r / ANALYSES.len()) % fams.len()];
            let n = SIZES.start + (r * 37) % SIZES.len();
            plan.intern(kind, &edited(&family(n), &VALUE_EDITS, rng.next_u64()))
        })
        .collect();
    plan.prime = pool.clone();
    // Each rank appears in proportion to 1/rank (zipf s = 1), rounded to
    // whole requests by largest remainder; the seed shuffles the order.
    let weights: Vec<f64> = (1..=pool.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights
        .iter()
        .map(|w| w / total * ZIPF_DRAWS as f64)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| *s as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = ZIPF_DRAWS - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    let mut draws: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &n)| std::iter::repeat_n(pool[rank], n))
        .collect();
    shuffle(&mut draws, &mut rng);
    alternate_clients(&mut plan, draws);
    plan
}

fn watch_edit(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Plan::default();
    let sessions: Vec<Vec<usize>> = (0..SESSIONS)
        .map(|s| {
            let kind = ANALYSES[s % ANALYSES.len()];
            let fams = families_for(kind);
            let family = fams[(s / ANALYSES.len()) % fams.len()];
            // Sizes are spread evenly over the range per analysis; the seed
            // picks the edit sites.
            let strata = SESSIONS / ANALYSES.len();
            let n = SIZES.start + (s / ANALYSES.len()) * SIZES.len() / strata;
            // Edits cycle through every kind; a lambda would make an MFP
            // program higher-order, which `mfp.flat` rejects.
            let kinds: Vec<EditKind> = ALL_EDIT_KINDS
                .iter()
                .copied()
                .filter(|&k| kind != AnalysisKind::MfpFlat || k != EditKind::InsertLambda)
                .cycle()
                .take(SESSION_STEPS - 1)
                .collect();
            let script = edit_script(&family(n), &kinds, rng.next_u64());
            std::iter::once(&script.base)
                .chain(script.steps.iter().map(|s| &s.term))
                .map(|t| plan.intern(kind, t))
                .collect()
        })
        .collect();
    // Sessions interleave step by step; session s belongs to client s % 2,
    // so its next edit goes out only after its previous answer came back.
    for step in 0..SESSION_STEPS {
        for (s, programs) in sessions.iter().enumerate() {
            if let Some(&program) = programs.get(step) {
                plan.stream.push(Request {
                    program,
                    session: Some(s as u64 + 1),
                    client: s % CLIENTS,
                });
            }
        }
    }
    plan
}
