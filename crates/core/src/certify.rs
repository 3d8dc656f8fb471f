//! Independent fixpoint certification — translation validation for served
//! analysis answers.
//!
//! The service hands out fixpoints computed through three increasingly
//! subtle paths: the worklist solver, incremental warm-starts, and the
//! content-addressed cache (now backed by a crash-safe disk spill, [`crate::cache::persist`]). Every one
//! of those paths is *trusted* unless something checks the answer after the
//! fact. This module is that check: given the program and a claimed
//! solution, it **re-derives every constraint from the AST** with its own
//! walk — sharing the front end (parser, ANF/CPS transforms, CFG lowering)
//! but *no solver code* — recomputes the least model with its own
//! semi-naive worklist, and demands exact equality with the claim.
//!
//! Why not just check closure? A closed superset of the least fixpoint is
//! still closed: an extra `λ ∈ x` fact can justify itself through a
//! self-loop edge (`x ⊆ x` via self-application), so a corrupted answer
//! with *additions* passes any local consistency test. Comparing against an
//! independently recomputed least model catches both directions:
//!
//! * **missing** facts refute as [`Refutation::Unclosed`], with the
//!   violated constraint as a counterexample edge (found by a single
//!   O(edges) closure scan of the claim);
//! * **extra** facts refute as [`Refutation::Unsupported`], naming a fact
//!   the least model does not contain;
//! * wrong table dimensions refute as [`Refutation::Shape`].
//!
//! The least model is computed semi-naively ([`Flows`]): flow nodes get
//! dense ids (a variable's index; a source term's `num_vars + label`), each
//! `(node, value)` fact enters the worklist once, when first derived, and is
//! pushed along its node's out-edges once, when popped. A call-discovered
//! edge (argument → parameter, body → result, returned operand → binder) is
//! added once, when its λ or continuation first reaches the call or return,
//! and the source's current set is pushed across it on the spot. The work is
//! one set insertion per fact per out-edge — the same order as the solvers'
//! delta evaluation — instead of one re-application of every edge per
//! Kleene round. MFP runs the same way over CFG nodes: a node is re-visited
//! only when a predecessor's output grew. The checker reads the claim in
//! place (borrowed views over either the analyzer result or the cache
//! mirror), so certifying a cached answer copies no flow set.
//!
//! Work counters (`iterations`, `summaries`) are *not* certified — they are
//! schedule-dependent cost measures, excluded from answer digests for the
//! same reason.
//!
//! The checkers reproduce the exact result-surface conventions of the
//! analyzers (verified by the differential suite in
//! `tests/certify_differential.rs`):
//!
//! * source 0CFA `terms` holds exactly the propagation-*target* labels —
//!   including empty sets — while `calls` holds only non-empty entries;
//! * CPS 0CFA `returns`/`calls` hold only non-empty entries, and variables
//!   commit densely over both namespaces;
//! * pushdown records halt/join returns statically (reachability-blind),
//!   instantiates frame returns per matched call, and back-fills
//!   continuation variables with the *matched* frames after the solve;
//! * MFP summarizes each variable at its defining nodes only.
//!
//! Trust argument: a bug in the shared front end changes *which* constraint
//! system both the solver and the checker see, so it cannot be caught here
//! (nothing short of a second front end could); a bug anywhere downstream —
//! solver scheduling, warm-start seeding, cache storage, disk
//! corruption that slips past checksums — produces an answer that fails
//! this check. The worklist here is the checker's own (plain `BTreeSet`s, a
//! `Vec` stack, dense label tables); it shares no engine, set pool or delta
//! log with the solvers, and the unit tests pin it to a naive Kleene oracle
//! table for table. The daemon's `--certify` mode samples served answers
//! through [`certify_answer`] and evicts + recomputes on refutation instead
//! of serving the bad fixpoint (DESIGN.md §13).

use crate::absval::{AbsClo, AbsKont};
use crate::cache::{AnalysisKind, CachedAnswer, SendCfa, SendPushdown};
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::{Flat, NumDomain};
use crate::fxhash::FxHashSet;
use crate::labtab::{LabelLookup, LabelTable};
use crate::mfp::{Cfg, DfSummary, Stmt};
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A machine-readable witness that a claimed solution *is* the least
/// fixpoint of the constraint system re-derived from the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The analysis whose answer was certified.
    pub kind: AnalysisKind,
    /// Static constraints re-derived and checked.
    pub constraints: usize,
    /// Total facts (set elements + table entries) in the certified answer.
    pub facts: usize,
}

/// A machine-readable refutation: why a claimed solution is *not* the
/// analysis' least fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refutation {
    /// The claim has the wrong dimensions (variable universe, term-table
    /// key set, …) for this program — it cannot be a solution at all.
    Shape {
        /// What dimension disagrees.
        detail: String,
    },
    /// The claim is missing facts: `edge` is a re-derived constraint the
    /// claim violates (the counterexample), `missing` the fact it fails to
    /// propagate.
    Unclosed {
        /// The violated constraint.
        edge: String,
        /// A fact required by `edge` but absent from the claim.
        missing: String,
    },
    /// The claim is closed but *larger* than the least model: it contains
    /// `fact`, which no derivation supports.
    Unsupported {
        /// The unsupported fact.
        fact: String,
    },
}

impl Refutation {
    /// Stable short tag for counters and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            Refutation::Shape { .. } => "shape",
            Refutation::Unclosed { .. } => "unclosed",
            Refutation::Unsupported { .. } => "unsupported",
        }
    }
}

impl fmt::Display for Refutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refutation::Shape { detail } => write!(f, "shape: {detail}"),
            Refutation::Unclosed { edge, missing } => {
                write!(f, "unclosed: {edge} does not propagate {missing}")
            }
            Refutation::Unsupported { fact } => write!(f, "unsupported fact: {fact}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The checker's worklist
// ---------------------------------------------------------------------------

/// The checker's semi-naive propagation engine over dense flow nodes.
///
/// Each `(node, value)` fact enters the worklist exactly once, when
/// [`Flows::add`] first inserts it, and is pushed along every out-edge of
/// its node exactly once, when [`Flows::next`] pops it. An edge added after
/// its source already holds values carries the current set across at once,
/// so a late call-discovered edge misses nothing.
struct Flows<V> {
    sets: Vec<BTreeSet<V>>,
    succ: Vec<Vec<u32>>,
    /// Call-discovered edges already added ([`Flows::link`]).
    linked: FxHashSet<(u32, u32)>,
    work: Vec<(u32, V)>,
}

impl<V: Copy + Ord> Flows<V> {
    fn new(nodes: usize) -> Self {
        Flows {
            sets: (0..nodes).map(|_| BTreeSet::new()).collect(),
            succ: vec![Vec::new(); nodes],
            linked: FxHashSet::default(),
            work: Vec::new(),
        }
    }

    /// Derives `v ∈ n`, queueing the fact if it is new.
    fn add(&mut self, n: usize, v: V) {
        if self.sets[n].insert(v) {
            self.work.push((n as u32, v));
        }
    }

    /// Adds the edge `src ⊆ dst` and pushes `src`'s current set across it.
    fn edge(&mut self, src: usize, dst: usize) {
        self.succ[src].push(dst as u32);
        if src != dst && !self.sets[src].is_empty() {
            let cur = std::mem::take(&mut self.sets[src]);
            for &v in &cur {
                self.add(dst, v);
            }
            self.sets[src] = cur;
        }
    }

    /// [`Flows::edge`] for a call-discovered edge: added at most once, however
    /// many call/callee pairs re-discover it.
    fn link(&mut self, src: usize, dst: usize) {
        if self.linked.insert((src as u32, dst as u32)) {
            self.edge(src, dst);
        }
    }

    /// Pops one fact and pushes it along its node's out-edges; the caller
    /// then fires whatever the fact triggers at that node.
    fn next(&mut self) -> Option<(usize, V)> {
        let (n, v) = self.work.pop()?;
        let n = n as usize;
        for i in 0..self.succ[n].len() {
            let dst = self.succ[n][i] as usize;
            self.add(dst, v);
        }
        Some((n, v))
    }
}

/// What a fact arriving at a flow node triggers: the call (an index into
/// the system's `calls`) whose operator the node is, or the return (an
/// index into `rets`) whose continuation it is.
#[derive(Clone, Copy)]
enum Hook {
    Call(usize),
    Ret(usize),
}

/// A claimed closure or continuation whose label names no λ or
/// continuation of the program: no derivation can produce it, and the
/// closure scan cannot follow it.
fn foreign(value: impl fmt::Debug) -> Refutation {
    Refutation::Unsupported {
        fact: format!("{value:?} names nothing in the program"),
    }
}

// ---------------------------------------------------------------------------
// Source-level 0CFA
// ---------------------------------------------------------------------------

/// A flow node of the re-derived source constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SNode {
    Var(VarId),
    Term(Label),
}

impl SNode {
    /// The node's dense id: variables first, then one node per label.
    fn id(self, num_vars: usize) -> usize {
        match self {
            SNode::Var(v) => v.index(),
            SNode::Term(l) => num_vars + l.index() as usize,
        }
    }
}

impl fmt::Display for SNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SNode::Var(v) => write!(f, "v{}", v.index()),
            SNode::Term(l) => write!(f, "t{l}"),
        }
    }
}

/// The source constraint system, re-derived by an independent AST walk.
struct SrcSystem {
    seeds: Vec<(BTreeSet<AbsClo>, SNode)>,
    subs: Vec<(SNode, SNode)>,
    /// `(f node, arg node, bind var, site)`.
    calls: Vec<(SNode, SNode, VarId, Label)>,
    /// Labels that are propagation targets — exactly the key set the
    /// analyzer's `terms` table must have.
    dst_terms: BTreeSet<Label>,
    /// `λ label → (param, body label)`.
    lam: LabelLookup<(VarId, Label)>,
}

impl SrcSystem {
    fn derive(prog: &AnfProgram) -> SrcSystem {
        let mut sys = SrcSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            calls: Vec::new(),
            dst_terms: BTreeSet::new(),
            lam: LabelLookup::build(
                prog.label_count(),
                prog.lambdas()
                    .into_iter()
                    .map(|(l, r)| (l, (r.param_id, r.body.label))),
            ),
        };
        sys.walk(prog.root(), prog);
        sys
    }

    fn constraints(&self) -> usize {
        self.seeds.len() + self.subs.len() + self.calls.len()
    }

    fn dst(&mut self, n: SNode) {
        if let SNode::Term(l) = n {
            self.dst_terms.insert(l);
        }
    }

    /// The flow of a syntactic value into `dst`: constants seed (empty
    /// constant sets — numbers — generate nothing, so the target is not
    /// marked), variables subset-edge.
    fn val(&mut self, v: &cpsdfa_anf::AVal, dst: SNode, prog: &AnfProgram) {
        match &v.kind {
            AValKind::Num(_) => {}
            AValKind::Add1 => {
                self.dst(dst);
                self.seeds.push((BTreeSet::from([AbsClo::Inc]), dst));
            }
            AValKind::Sub1 => {
                self.dst(dst);
                self.seeds.push((BTreeSet::from([AbsClo::Dec]), dst));
            }
            AValKind::Lam(..) => {
                self.dst(dst);
                self.seeds
                    .push((BTreeSet::from([AbsClo::Lam(v.label)]), dst));
            }
            AValKind::Var(x) => {
                self.dst(dst);
                let y = prog.var_id(x).expect("indexed variable");
                self.subs.push((SNode::Var(y), dst));
            }
        }
    }

    fn walk(&mut self, m: &Anf, prog: &AnfProgram) {
        match &m.kind {
            AnfKind::Value(v) => {
                self.val(v, SNode::Term(m.label), prog);
                if let AValKind::Lam(_, body) = &v.kind {
                    self.walk(body, prog);
                }
            }
            AnfKind::Let { var, bind, body } => {
                let x = prog.var_id(var).expect("indexed variable");
                match bind {
                    Bind::Value(v) => {
                        self.val(v, SNode::Var(x), prog);
                        if let AValKind::Lam(_, lbody) = &v.kind {
                            self.walk(lbody, prog);
                        }
                    }
                    Bind::App(f, a) => {
                        self.val(f, SNode::Term(f.label), prog);
                        self.val(a, SNode::Term(a.label), prog);
                        if let AValKind::Lam(_, b) = &f.kind {
                            self.walk(b, prog);
                        }
                        if let AValKind::Lam(_, b) = &a.kind {
                            self.walk(b, prog);
                        }
                        self.calls
                            .push((SNode::Term(f.label), SNode::Term(a.label), x, m.label));
                    }
                    Bind::If0(c, t, e) => {
                        self.val(c, SNode::Term(c.label), prog);
                        self.walk(t, prog);
                        self.walk(e, prog);
                        self.subs.push((SNode::Term(t.label), SNode::Var(x)));
                        self.subs.push((SNode::Term(e.label), SNode::Var(x)));
                    }
                    Bind::Loop => {}
                }
                self.walk(body, prog);
                self.dst(SNode::Term(m.label));
                self.subs
                    .push((SNode::Term(body.label), SNode::Term(m.label)));
            }
        }
    }
}

/// A borrowed view of a claimed source answer, whichever container it
/// arrived in (an analyzer result or a cache mirror).
struct SrcClaim<'a> {
    vars: Vec<&'a BTreeSet<AbsClo>>,
    terms: LabelTable<&'a BTreeSet<AbsClo>>,
    calls: LabelTable<&'a BTreeSet<AbsClo>>,
}

impl<'a> SrcClaim<'a> {
    fn of_result(r: &'a CfaResult) -> Self {
        SrcClaim {
            vars: r.vars.iter().map(|s| &**s).collect(),
            terms: r.terms.iter().map(|(l, s)| (l, &**s)).collect(),
            calls: r.calls.iter().collect(),
        }
    }

    fn of_send(s: &'a SendCfa) -> Self {
        SrcClaim {
            vars: s.vars.iter().collect(),
            terms: s.terms.iter().map(|(l, s)| (*l, s)).collect(),
            calls: s.calls.iter().map(|(l, s)| (*l, s)).collect(),
        }
    }

    fn get(&self, n: SNode) -> &'a BTreeSet<AbsClo> {
        match n {
            SNode::Var(v) => self.vars.get(v.index()).copied(),
            SNode::Term(l) => self.terms.get(l).copied(),
        }
        .unwrap_or(&EMPTY_CLO)
    }
}

/// The recomputed source least model: one set per dense node
/// ([`SNode::id`]) plus the call table (non-empty entries only).
#[cfg_attr(test, derive(Debug, PartialEq))]
struct SrcModel {
    nodes: Vec<BTreeSet<AbsClo>>,
    calls: LabelTable<BTreeSet<AbsClo>>,
}

static EMPTY_CLO: BTreeSet<AbsClo> = BTreeSet::new();

/// Least model of the re-derived source system, semi-naively: static edges
/// and seeds go in first; each closure that reaches a call's operator node
/// records the call edge and links argument → parameter and body → result
/// once, for that (call, λ) pair.
fn src_least_model(sys: &SrcSystem, num_vars: usize, label_count: u32) -> SrcModel {
    let id = |n: SNode| n.id(num_vars);
    let mut fl = Flows::new(num_vars + label_count as usize);
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(label_count);
    let mut hooks: Vec<Vec<Hook>> = vec![Vec::new(); fl.sets.len()];
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        hooks[id(f)].push(Hook::Call(i));
    }
    for &(src, dst) in &sys.subs {
        fl.edge(id(src), id(dst));
    }
    for (set, dst) in &sys.seeds {
        for &v in set {
            fl.add(id(*dst), v);
        }
    }
    while let Some((n, clo)) = fl.next() {
        for &hook in &hooks[n] {
            let Hook::Call(i) = hook else { continue };
            let (_, arg, bind, site) = sys.calls[i];
            calls.entry_or_default(site).insert(clo);
            if let AbsClo::Lam(l) = clo {
                let (param, body) = sys.lam.expect(l);
                fl.link(id(arg), param.index());
                fl.link(id(SNode::Term(body)), bind.index());
            }
        }
    }
    SrcModel {
        nodes: fl.sets,
        calls,
    }
}

/// One O(edges) closure scan of the claim: returns the first violated
/// constraint as an [`Refutation::Unclosed`] counterexample, or `None` when
/// the claim is closed.
fn src_closure_counterexample(sys: &SrcSystem, claim: &SrcClaim<'_>) -> Option<Refutation> {
    for (set, dst) in &sys.seeds {
        if let Some(v) = set.iter().find(|v| !claim.get(*dst).contains(v)) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ {dst}"),
                missing: format!("{v:?} ∈ {dst}"),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = claim.get(src).iter().find(|v| !claim.get(dst).contains(v)) {
            return Some(Refutation::Unclosed {
                edge: format!("{src} ⊆ {dst}"),
                missing: format!("{v:?} ∈ {dst}"),
            });
        }
    }
    for &(f, arg, bind, site) in &sys.calls {
        for clo in claim.get(f) {
            if !claim.calls.get(site).is_some_and(|s| s.contains(clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            if let AbsClo::Lam(l) = clo {
                let Some((param, body)) = sys.lam.get(*l) else {
                    return Some(foreign(clo));
                };
                if let Some(v) = claim
                    .get(arg)
                    .iter()
                    .find(|v| !claim.get(SNode::Var(param)).contains(v))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} arg ⊆ v{}", param.index()),
                        missing: format!("{v:?} ∈ v{}", param.index()),
                    });
                }
                if let Some(v) = claim
                    .get(SNode::Term(body))
                    .iter()
                    .find(|v| !claim.get(SNode::Var(bind)).contains(v))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} ret ⊆ v{}", bind.index()),
                        missing: format!("{v:?} ∈ v{}", bind.index()),
                    });
                }
            }
        }
    }
    None
}

/// Certifies a source-level 0CFA answer against `prog`.
pub fn certify_cfa_src(prog: &AnfProgram, claimed: &CfaResult) -> Result<Certificate, Refutation> {
    certify_src_claim(prog, &SrcClaim::of_result(claimed))
}

fn certify_src_claim(prog: &AnfProgram, claim: &SrcClaim<'_>) -> Result<Certificate, Refutation> {
    let num_vars = prog.num_vars();
    if claim.vars.len() != num_vars {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                claim.vars.len(),
                num_vars
            ),
        });
    }
    let sys = SrcSystem::derive(prog);
    if !claim.terms.keys().eq(sys.dst_terms.iter().copied()) {
        let claimed_keys: BTreeSet<Label> = claim.terms.keys().collect();
        return Err(Refutation::Shape {
            detail: format!(
                "terms table keyed on {:?}, propagation targets are {:?}",
                claimed_keys, sys.dst_terms
            ),
        });
    }
    if let Some(r) = src_closure_counterexample(&sys, claim) {
        return Err(r);
    }
    // Closed and seeded ⇒ the claim contains the least model; any
    // difference left is an unsupported (extra) fact.
    let lfp = src_least_model(&sys, num_vars, prog.label_count());
    for (i, (c, d)) in claim.vars.iter().zip(&lfp.nodes).enumerate() {
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ v{i}"),
            });
        }
    }
    for (l, c) in claim.terms.iter() {
        let d = lfp
            .nodes
            .get(SNode::Term(l).id(num_vars))
            .unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ t{l}"),
            });
        }
    }
    for (l, c) in claim.calls.iter() {
        let d = lfp.calls.get(l).unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ calls[{l}]"),
            });
        }
        if c.is_empty() {
            return Err(Refutation::Unsupported {
                fact: format!("empty calls[{l}] entry"),
            });
        }
    }
    // The lfp calls table only holds non-empty entries; the claim matching
    // it elementwise plus having no extras means the key sets agree.
    if claim.calls.len() != lfp.calls.len() {
        return Err(Refutation::Shape {
            detail: format!(
                "calls table has {} sites, least model has {}",
                claim.calls.len(),
                lfp.calls.len()
            ),
        });
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaSrc,
        constraints: sys.constraints(),
        facts: claim.vars.iter().map(|s| s.len()).sum::<usize>()
            + claim.terms.values().map(|s| s.len()).sum::<usize>()
            + claim.calls.values().map(|s| s.len()).sum::<usize>(),
    })
}

// ---------------------------------------------------------------------------
// CPS-level 0CFA
// ---------------------------------------------------------------------------

/// A CPS operand, re-derived: nothing (a number), a constant flow, or a
/// variable.
#[derive(Clone, Copy)]
enum Op {
    None,
    Const(CpsFlow),
    Var(CVarId),
}

fn cps_op_of(w: &CVal, prog: &CpsProgram) -> Op {
    match &w.kind {
        CValKind::Num(_) => Op::None,
        CValKind::Add1K => Op::Const(CpsFlow::Clo(AbsClo::Inc)),
        CValKind::Sub1K => Op::Const(CpsFlow::Clo(AbsClo::Dec)),
        CValKind::Lam { .. } => Op::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
        CValKind::Var(x) => Op::Var(prog.user_var_id(x).expect("indexed variable")),
    }
}

/// The flows of an operand in a claimed store, without allocating.
fn op_flows<'s>(vars: &[&'s BTreeSet<CpsFlow>], op: Op) -> impl Iterator<Item = CpsFlow> + 's {
    let (c, set) = match op {
        Op::None => (None, None),
        Op::Const(c) => (Some(c), None),
        Op::Var(v) => (None, Some(vars[v.index()])),
    };
    c.into_iter().chain(set.into_iter().flatten().copied())
}

impl Flows<CpsFlow> {
    /// Flows a CPS operand into `dst`: a constant is derived there, a
    /// variable is linked to it.
    fn flow(&mut self, op: Op, dst: CVarId) {
        match op {
            Op::None => {}
            Op::Const(c) => self.add(dst.index(), c),
            Op::Var(v) => self.link(v.index(), dst.index()),
        }
    }
}

/// Per-variable hooks of a CPS-shaped system: each call fires on closures
/// reaching its operator variable, each return on continuations reaching
/// its `k`.
fn cps_hooks(
    num_vars: usize,
    calls: &[(Op, Op, Label, Label)],
    rets: &[(CVarId, Op, Label)],
) -> Vec<Vec<Hook>> {
    let mut hooks: Vec<Vec<Hook>> = vec![Vec::new(); num_vars];
    for (i, &(f, ..)) in calls.iter().enumerate() {
        if let Op::Var(v) = f {
            hooks[v.index()].push(Hook::Call(i));
        }
    }
    for (i, &(k, ..)) in rets.iter().enumerate() {
        hooks[k.index()].push(Hook::Ret(i));
    }
    hooks
}

/// The CPS constraint system, re-derived by an independent walk.
struct CpsSystem {
    seeds: Vec<(CpsFlow, CVarId)>,
    subs: Vec<(CVarId, CVarId)>,
    /// `(k var, returned operand, site)`.
    rets: Vec<(CVarId, Op, Label)>,
    /// `(operator, argument, literal continuation label, site)`.
    calls: Vec<(Op, Op, Label, Label)>,
    /// `λ label → (param var, k var)`.
    lam: LabelLookup<(CVarId, CVarId)>,
    /// continuation label → binder var.
    cont_var: LabelLookup<CVarId>,
}

/// `λ label → (param var, k var)` and continuation label → binder var, the
/// two lookups every CPS-shaped system needs.
fn cps_tables(prog: &CpsProgram) -> (LabelLookup<(CVarId, CVarId)>, LabelLookup<CVarId>) {
    let n = prog.label_count();
    (
        LabelLookup::build(
            n,
            prog.lambdas()
                .into_iter()
                .map(|(l, r)| (l, (r.param_id, r.k_id))),
        ),
        LabelLookup::build(n, prog.conts().into_iter().map(|(l, r)| (l, r.var_id))),
    )
}

impl CpsSystem {
    fn derive(prog: &CpsProgram) -> CpsSystem {
        let (lam, cont_var) = cps_tables(prog);
        let mut sys = CpsSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            rets: Vec::new(),
            calls: Vec::new(),
            lam,
            cont_var,
        };
        sys.walk(prog.root(), prog);
        let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        sys.seeds.push((CpsFlow::Kont(AbsKont::Stop), k0));
        sys
    }

    fn constraints(&self) -> usize {
        self.seeds.len() + self.subs.len() + self.rets.len() + self.calls.len()
    }

    fn enter_val(&mut self, v: &CVal, prog: &CpsProgram) {
        if let CValKind::Lam { body, .. } = &v.kind {
            self.walk(body, prog);
        }
    }

    fn walk(&mut self, t: &CTerm, prog: &CpsProgram) {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let op = cps_op_of(w, prog);
                self.rets.push((kid, op, t.label));
                self.enter_val(w, prog);
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match cps_op_of(val, prog) {
                    Op::None => {}
                    Op::Const(c) => self.seeds.push((c, x)),
                    Op::Var(y) => self.subs.push((y, x)),
                }
                self.enter_val(val, prog);
                self.walk(body, prog);
            }
            CTermKind::Call { f, arg, cont } => {
                let fo = cps_op_of(f, prog);
                let ao = cps_op_of(arg, prog);
                self.calls.push((fo, ao, cont.label, t.label));
                self.enter_val(f, prog);
                self.enter_val(arg, prog);
                self.walk(&cont.body, prog);
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                self.seeds
                    .push((CpsFlow::Kont(AbsKont::Co(cont.label)), kid));
                self.walk(&cont.body, prog);
                self.walk(then_, prog);
                self.walk(else_, prog);
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, prog),
        }
    }
}

/// A borrowed view of a claimed CPS-shaped answer (CPS 0CFA or pushdown).
struct CpsClaim<'a> {
    vars: Vec<&'a BTreeSet<CpsFlow>>,
    returns: LabelTable<&'a BTreeSet<AbsKont>>,
    calls: LabelTable<&'a BTreeSet<AbsClo>>,
}

impl<'a> CpsClaim<'a> {
    /// Over an analyzer result's tables (CPS 0CFA and pushdown share them).
    fn of_result(
        vars: &'a [Rc<BTreeSet<CpsFlow>>],
        returns: &'a LabelTable<BTreeSet<AbsKont>>,
        calls: &'a LabelTable<BTreeSet<AbsClo>>,
    ) -> Self {
        CpsClaim {
            vars: vars.iter().map(|s| &**s).collect(),
            returns: returns.iter().collect(),
            calls: calls.iter().collect(),
        }
    }

    /// Over a cache mirror's tables.
    fn of_send(
        vars: &'a [BTreeSet<CpsFlow>],
        returns: &'a [(Label, BTreeSet<AbsKont>)],
        calls: &'a [(Label, BTreeSet<AbsClo>)],
    ) -> Self {
        CpsClaim {
            vars: vars.iter().collect(),
            returns: returns.iter().map(|(l, s)| (*l, s)).collect(),
            calls: calls.iter().map(|(l, s)| (*l, s)).collect(),
        }
    }

    fn flows(&self, op: Op) -> impl Iterator<Item = CpsFlow> + 'a {
        op_flows(&self.vars, op)
    }

    fn facts(&self) -> usize {
        self.vars.iter().map(|s| s.len()).sum::<usize>()
            + self.returns.values().map(|s| s.len()).sum::<usize>()
            + self.calls.values().map(|s| s.len()).sum::<usize>()
    }
}

/// The recomputed CPS least model (non-empty table entries only).
#[cfg_attr(test, derive(Debug, PartialEq))]
struct CpsModel {
    vars: Vec<BTreeSet<CpsFlow>>,
    returns: LabelTable<BTreeSet<AbsKont>>,
    calls: LabelTable<BTreeSet<AbsClo>>,
}

/// Least model of the re-derived CPS system, semi-naively: a closure
/// reaching a call's operator records the call edge, links the argument to
/// the parameter and derives the literal continuation in the callee's `k`;
/// a continuation reaching a return's `k` records the return edge and
/// links the returned operand to the continuation's binder.
fn cps_least_model(sys: &CpsSystem, num_vars: usize, label_count: u32) -> CpsModel {
    let mut fl = Flows::new(num_vars);
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(label_count);
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(label_count);
    let hooks = cps_hooks(num_vars, &sys.calls, &sys.rets);
    let call = |fl: &mut Flows<CpsFlow>, calls: &mut LabelTable<BTreeSet<AbsClo>>, i, clo| {
        let (_, arg, cont, site) = sys.calls[i];
        calls.entry_or_default(site).insert(clo);
        if let AbsClo::Lam(l) = clo {
            let (param, kvar) = sys.lam.expect(l);
            fl.flow(arg, param);
            fl.add(kvar.index(), CpsFlow::Kont(AbsKont::Co(cont)));
        }
    };
    for &(src, dst) in &sys.subs {
        fl.edge(src.index(), dst.index());
    }
    for &(c, dst) in &sys.seeds {
        fl.add(dst.index(), c);
    }
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        if let Op::Const(CpsFlow::Clo(clo)) = f {
            call(&mut fl, &mut calls, i, clo);
        }
    }
    while let Some((n, v)) = fl.next() {
        for &hook in &hooks[n] {
            match (hook, v) {
                (Hook::Call(i), CpsFlow::Clo(clo)) => call(&mut fl, &mut calls, i, clo),
                (Hook::Ret(i), CpsFlow::Kont(kk)) => {
                    let (_, w, site) = sys.rets[i];
                    returns.entry_or_default(site).insert(kk);
                    if let AbsKont::Co(l) = kk {
                        fl.flow(w, sys.cont_var.expect(l));
                    }
                }
                _ => {}
            }
        }
    }
    CpsModel {
        vars: fl.sets,
        returns,
        calls,
    }
}

/// Closure scan of a claimed CPS store; first violated constraint, if any.
fn cps_closure_counterexample(sys: &CpsSystem, claim: &CpsClaim<'_>) -> Option<Refutation> {
    for &(c, dst) in &sys.seeds {
        if !claim.vars[dst.index()].contains(&c) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ v{}", dst.index()),
                missing: format!("{c:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = claim.vars[src.index()]
            .difference(claim.vars[dst.index()])
            .next()
        {
            return Some(Refutation::Unclosed {
                edge: format!("v{} ⊆ v{}", src.index(), dst.index()),
                missing: format!("{v:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(k, w, site) in &sys.rets {
        for v in claim.vars[k.index()].iter() {
            let CpsFlow::Kont(kk) = v else { continue };
            if !claim.returns.get(site).is_some_and(|s| s.contains(kk)) {
                return Some(Refutation::Unclosed {
                    edge: format!("ret@{site}"),
                    missing: format!("{kk:?} ∈ returns[{site}]"),
                });
            }
            if let AbsKont::Co(l) = kk {
                let Some(binder) = sys.cont_var.get(*l) else {
                    return Some(foreign(kk));
                };
                for f in claim.flows(w) {
                    if !claim.vars[binder.index()].contains(&f) {
                        return Some(Refutation::Unclosed {
                            edge: format!("ret@{site} ⊆ v{}", binder.index()),
                            missing: format!("{f:?} ∈ v{}", binder.index()),
                        });
                    }
                }
            }
        }
    }
    for &(f, arg, cont, site) in &sys.calls {
        for v in claim.flows(f) {
            let CpsFlow::Clo(clo) = v else { continue };
            if !claim.calls.get(site).is_some_and(|s| s.contains(&clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            if let AbsClo::Lam(l) = clo {
                let Some((param, kvar)) = sys.lam.get(l) else {
                    return Some(foreign(clo));
                };
                for a in claim.flows(arg) {
                    if !claim.vars[param.index()].contains(&a) {
                        return Some(Refutation::Unclosed {
                            edge: format!("call@{site} arg ⊆ v{}", param.index()),
                            missing: format!("{a:?} ∈ v{}", param.index()),
                        });
                    }
                }
                let kc = CpsFlow::Kont(AbsKont::Co(cont));
                if !claim.vars[kvar.index()].contains(&kc) {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} cont ⊆ v{}", kvar.index()),
                        missing: format!("{kc:?} ∈ v{}", kvar.index()),
                    });
                }
            }
        }
    }
    None
}

/// Shared tail of the CPS-shaped certifiers: claim closed, compare against
/// the recomputed least model; any residual difference is unsupported.
fn cps_store_excess(claim: &CpsClaim<'_>, lfp: &CpsModel) -> Option<Refutation> {
    for (i, (c, d)) in claim.vars.iter().zip(&lfp.vars).enumerate() {
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ v{i}"),
            });
        }
    }
    static EMPTY_KONT: BTreeSet<AbsKont> = BTreeSet::new();
    for (l, c) in claim.returns.iter() {
        let d = lfp.returns.get(l).unwrap_or(&EMPTY_KONT);
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ returns[{l}]"),
            });
        }
        if c.is_empty() {
            return Some(Refutation::Unsupported {
                fact: format!("empty returns[{l}] entry"),
            });
        }
    }
    for (l, c) in claim.calls.iter() {
        let d = lfp.calls.get(l).unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ calls[{l}]"),
            });
        }
        if c.is_empty() {
            return Some(Refutation::Unsupported {
                fact: format!("empty calls[{l}] entry"),
            });
        }
    }
    if claim.returns.len() != lfp.returns.len() || claim.calls.len() != lfp.calls.len() {
        return Some(Refutation::Shape {
            detail: format!(
                "{}×{} call/return sites claimed, least model has {}×{}",
                claim.calls.len(),
                claim.returns.len(),
                lfp.calls.len(),
                lfp.returns.len()
            ),
        });
    }
    None
}

fn vars_shape(claimed: usize, prog: &CpsProgram) -> Result<(), Refutation> {
    if claimed != prog.num_vars() {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                claimed,
                prog.num_vars()
            ),
        });
    }
    Ok(())
}

/// Certifies a CPS-level 0CFA answer against `prog`.
pub fn certify_cfa_cps(
    prog: &CpsProgram,
    claimed: &CpsCfaResult,
) -> Result<Certificate, Refutation> {
    certify_cps_claim(
        prog,
        &CpsClaim::of_result(&claimed.vars, &claimed.returns, &claimed.calls),
    )
}

fn certify_cps_claim(prog: &CpsProgram, claim: &CpsClaim<'_>) -> Result<Certificate, Refutation> {
    vars_shape(claim.vars.len(), prog)?;
    let sys = CpsSystem::derive(prog);
    if let Some(r) = cps_closure_counterexample(&sys, claim) {
        return Err(r);
    }
    let lfp = cps_least_model(&sys, prog.num_vars(), prog.label_count());
    if let Some(r) = cps_store_excess(claim, &lfp) {
        return Err(r);
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaCps,
        constraints: sys.constraints(),
        facts: claim.facts(),
    })
}

// ---------------------------------------------------------------------------
// Pushdown CFA
// ---------------------------------------------------------------------------

/// One frame-return site of a user λ, re-derived.
#[derive(Clone, Copy)]
struct RTpl {
    site: Label,
    w: Op,
    own_param: bool,
}

/// The pushdown constraint system: classification of every return site plus
/// the static flow edges, re-derived with an independent frame-carrying
/// walk.
struct PdSystem {
    seeds: Vec<(CpsFlow, CVarId)>,
    subs: Vec<(CVarId, CVarId)>,
    /// `(k W)` under a `letk` join: operand flows to the join binder.
    joins: Vec<(Op, Label)>,
    calls: Vec<(Op, Op, Label, Label)>,
    templates: HashMap<Label, Vec<RTpl>>,
    /// `letk` continuation variable → its join continuation label.
    join_of: HashMap<usize, Label>,
    halt_returns: Vec<Label>,
    join_returns: Vec<(Label, Label)>,
    lam: LabelLookup<(CVarId, CVarId)>,
    cont_var: LabelLookup<CVarId>,
    top_k: CVarId,
}

/// The enclosing user λ during the pushdown walk.
#[derive(Clone, Copy)]
struct PdFrame {
    label: Label,
    param: CVarId,
    k: CVarId,
}

static NO_TPL: Vec<RTpl> = Vec::new();

impl PdSystem {
    fn derive(prog: &CpsProgram) -> Result<PdSystem, Refutation> {
        let top_k = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        let (lam, cont_var) = cps_tables(prog);
        let mut sys = PdSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            joins: Vec::new(),
            calls: Vec::new(),
            templates: HashMap::new(),
            join_of: HashMap::new(),
            halt_returns: Vec::new(),
            join_returns: Vec::new(),
            lam,
            cont_var,
            top_k,
        };
        let frames: HashMap<Label, PdFrame> = prog
            .lambdas()
            .into_iter()
            .map(|(l, r)| {
                let f = PdFrame {
                    label: l,
                    param: r.param_id,
                    k: r.k_id,
                };
                (l, f)
            })
            .collect();
        sys.walk(prog.root(), None, prog, &frames)?;
        Ok(sys)
    }

    fn constraints(&self) -> usize {
        self.seeds.len()
            + self.subs.len()
            + self.joins.len()
            + self.calls.len()
            + self.halt_returns.len()
            + self.join_returns.len()
    }

    fn templates(&self, l: Label) -> &[RTpl] {
        self.templates.get(&l).unwrap_or(&NO_TPL)
    }

    fn walk(
        &mut self,
        t: &CTerm,
        frame: Option<PdFrame>,
        prog: &CpsProgram,
        frames: &HashMap<Label, PdFrame>,
    ) -> Result<(), Refutation> {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let wf = cps_op_of(w, prog);
                match frame {
                    Some(f) if kid == f.k => {
                        self.templates.entry(f.label).or_default().push(RTpl {
                            site: t.label,
                            w: wf,
                            own_param: matches!(wf, Op::Var(v) if v == f.param),
                        });
                    }
                    _ if kid == self.top_k => self.halt_returns.push(t.label),
                    _ => {
                        let cont =
                            *self
                                .join_of
                                .get(&kid.index())
                                .ok_or_else(|| Refutation::Shape {
                                    detail: format!(
                                        "return@{} names a continuation that is neither \
                                     frame, join, nor halt",
                                        t.label
                                    ),
                                })?;
                        self.join_returns.push((t.label, cont));
                        self.joins.push((wf, cont));
                    }
                }
                self.enter_val(w, prog, frames)?;
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match cps_op_of(val, prog) {
                    Op::None => {}
                    Op::Const(c) => self.seeds.push((c, x)),
                    Op::Var(y) => self.subs.push((y, x)),
                }
                self.enter_val(val, prog, frames)?;
                self.walk(body, frame, prog, frames)?;
            }
            CTermKind::Call { f, arg, cont } => {
                let fo = cps_op_of(f, prog);
                let ao = cps_op_of(arg, prog);
                self.calls.push((fo, ao, cont.label, t.label));
                self.enter_val(f, prog, frames)?;
                self.enter_val(arg, prog, frames)?;
                // The literal continuation body runs in the caller's frame.
                self.walk(&cont.body, frame, prog, frames)?;
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                self.join_of.insert(kid.index(), cont.label);
                self.walk(&cont.body, frame, prog, frames)?;
                self.walk(then_, frame, prog, frames)?;
                self.walk(else_, frame, prog, frames)?;
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, frame, prog, frames)?,
        }
        Ok(())
    }

    fn enter_val(
        &mut self,
        v: &CVal,
        prog: &CpsProgram,
        frames: &HashMap<Label, PdFrame>,
    ) -> Result<(), Refutation> {
        if let CValKind::Lam { body, .. } = &v.kind {
            let f = frames[&v.label];
            self.walk(body, Some(f), prog, frames)?;
        }
        Ok(())
    }
}

/// A borrowed view of a claimed pushdown answer. The matched witnesses are
/// borrowed from an analyzer result; a cache mirror stores them as a list,
/// which is collected into a set once (16-byte `Copy` records, no flow
/// sets).
struct PdClaim<'a> {
    st: CpsClaim<'a>,
    matched: Cow<'a, BTreeSet<MatchedReturn>>,
}

impl<'a> PdClaim<'a> {
    fn of_result(r: &'a PushdownCfaResult) -> Self {
        PdClaim {
            st: CpsClaim::of_result(&r.vars, &r.returns, &r.calls),
            matched: Cow::Borrowed(&r.matched),
        }
    }

    fn of_send(s: &'a SendPushdown) -> Self {
        PdClaim {
            st: CpsClaim::of_send(&s.vars, &s.returns, &s.calls),
            matched: Cow::Owned(s.matched.iter().copied().collect()),
        }
    }
}

/// The recomputed pushdown least model: the CPS tables plus the
/// matched-return witnesses.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct PdModel {
    st: CpsModel,
    matched: BTreeSet<MatchedReturn>,
}

/// Least model of the re-derived pushdown system: the same semi-naive
/// propagation over the static edges, with each (call, λ) pair instantiating
/// the callee's return templates once, then the static continuation-variable
/// fill the analyzer performs after its solve.
fn pd_least_model(sys: &PdSystem, num_vars: usize, label_count: u32) -> PdModel {
    let mut fl = Flows::new(num_vars);
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(label_count);
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(label_count);
    let mut matched: BTreeSet<MatchedReturn> = BTreeSet::new();
    // Callee λ → discovered caller continuations (for the post-solve fill).
    let mut callers: BTreeMap<Label, BTreeSet<Label>> = BTreeMap::new();
    let hooks = cps_hooks(num_vars, &sys.calls, &[]);
    // Halt and join returns are static, reachability-blind facts.
    for &site in &sys.halt_returns {
        returns.entry_or_default(site).insert(AbsKont::Stop);
    }
    for &(site, cont) in &sys.join_returns {
        returns.entry_or_default(site).insert(AbsKont::Co(cont));
    }
    for &(src, dst) in &sys.subs {
        fl.edge(src.index(), dst.index());
    }
    for &(w, cont) in &sys.joins {
        fl.flow(w, sys.cont_var.expect(cont));
    }
    for &(c, dst) in &sys.seeds {
        fl.add(dst.index(), c);
    }
    let mut call = |fl: &mut Flows<CpsFlow>, i: usize, clo: AbsClo| {
        let (_, arg, cont, site) = sys.calls[i];
        calls.entry_or_default(site).insert(clo);
        let AbsClo::Lam(l) = clo else { return };
        let (param, _kvar) = sys.lam.expect(l);
        fl.flow(arg, param);
        callers.entry(l).or_default().insert(cont);
        let binder = sys.cont_var.expect(cont);
        for tpl in sys.templates(l) {
            returns.entry_or_default(tpl.site).insert(AbsKont::Co(cont));
            matched.insert(MatchedReturn {
                ret_site: tpl.site,
                callee: l,
                call_site: site,
                cont,
            });
            fl.flow(if tpl.own_param { arg } else { tpl.w }, binder);
        }
    };
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        if let Op::Const(CpsFlow::Clo(clo)) = f {
            call(&mut fl, i, clo);
        }
    }
    while let Some((n, v)) = fl.next() {
        for &hook in &hooks[n] {
            if let (Hook::Call(i), CpsFlow::Clo(clo)) = (hook, v) {
                call(&mut fl, i, clo);
            }
        }
    }
    let mut st = CpsModel {
        vars: fl.sets,
        returns,
        calls,
    };
    pd_fill(sys, &mut st, &callers);
    PdModel { st, matched }
}

/// Post-fixpoint continuation-variable fill, exactly as the analyzer
/// commits it: matched frames into each λ's `k`, the static join
/// continuation into each `letk` binder, `stop` into the top `k`.
fn pd_fill(sys: &PdSystem, st: &mut CpsModel, callers: &BTreeMap<Label, BTreeSet<Label>>) {
    for (l, conts) in callers {
        let (_param, kvar) = sys.lam.expect(*l);
        for &c in conts {
            st.vars[kvar.index()].insert(CpsFlow::Kont(AbsKont::Co(c)));
        }
    }
    for (&kvar, &cont) in &sys.join_of {
        st.vars[kvar].insert(CpsFlow::Kont(AbsKont::Co(cont)));
    }
    st.vars[sys.top_k.index()].insert(CpsFlow::Kont(AbsKont::Stop));
}

/// Closure scan of a claimed pushdown store; first violated constraint.
fn pd_closure_counterexample(sys: &PdSystem, claim: &PdClaim<'_>) -> Option<Refutation> {
    let st = &claim.st;
    for &(c, dst) in &sys.seeds {
        if !st.vars[dst.index()].contains(&c) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ v{}", dst.index()),
                missing: format!("{c:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = st.vars[src.index()].difference(st.vars[dst.index()]).next() {
            return Some(Refutation::Unclosed {
                edge: format!("v{} ⊆ v{}", src.index(), dst.index()),
                missing: format!("{v:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &site in &sys.halt_returns {
        if !st
            .returns
            .get(site)
            .is_some_and(|s| s.contains(&AbsKont::Stop))
        {
            return Some(Refutation::Unclosed {
                edge: format!("halt return@{site}"),
                missing: format!("stop ∈ returns[{site}]"),
            });
        }
    }
    for &(site, cont) in &sys.join_returns {
        if !st
            .returns
            .get(site)
            .is_some_and(|s| s.contains(&AbsKont::Co(cont)))
        {
            return Some(Refutation::Unclosed {
                edge: format!("join return@{site}"),
                missing: format!("co@{cont} ∈ returns[{site}]"),
            });
        }
    }
    for &(w, cont) in &sys.joins {
        let binder = sys.cont_var.expect(cont);
        for v in st.flows(w) {
            if !st.vars[binder.index()].contains(&v) {
                return Some(Refutation::Unclosed {
                    edge: format!("join ⊆ v{}", binder.index()),
                    missing: format!("{v:?} ∈ v{}", binder.index()),
                });
            }
        }
    }
    for &(f, arg, cont, site) in &sys.calls {
        for v in st.flows(f) {
            let CpsFlow::Clo(clo) = v else { continue };
            if !st.calls.get(site).is_some_and(|s| s.contains(&clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            let AbsClo::Lam(l) = clo else { continue };
            let Some((param, kvar)) = sys.lam.get(l) else {
                return Some(foreign(clo));
            };
            for a in st.flows(arg) {
                if !st.vars[param.index()].contains(&a) {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} arg ⊆ v{}", param.index()),
                        missing: format!("{a:?} ∈ v{}", param.index()),
                    });
                }
            }
            // Matched-call fill: the caller's frame must be visible in the
            // callee's k slot.
            let kc = CpsFlow::Kont(AbsKont::Co(cont));
            if !st.vars[kvar.index()].contains(&kc) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} frame ⊆ v{}", kvar.index()),
                    missing: format!("{kc:?} ∈ v{}", kvar.index()),
                });
            }
            let binder = sys.cont_var.expect(cont);
            for tpl in sys.templates(l) {
                if !st
                    .returns
                    .get(tpl.site)
                    .is_some_and(|s| s.contains(&AbsKont::Co(cont)))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site}"),
                        missing: format!("co@{cont} ∈ returns[{}]", tpl.site),
                    });
                }
                let m = MatchedReturn {
                    ret_site: tpl.site,
                    callee: l,
                    call_site: site,
                    cont,
                };
                if !claim.matched.contains(&m) {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site}"),
                        missing: format!("matched witness {m:?}"),
                    });
                }
                let w = if tpl.own_param { arg } else { tpl.w };
                for v in st.flows(w) {
                    if !st.vars[binder.index()].contains(&v) {
                        return Some(Refutation::Unclosed {
                            edge: format!("summary {l}@{site} ⊆ v{}", binder.index()),
                            missing: format!("{v:?} ∈ v{}", binder.index()),
                        });
                    }
                }
            }
        }
    }
    // Static fills.
    for (&kvar, &cont) in &sys.join_of {
        let kc = CpsFlow::Kont(AbsKont::Co(cont));
        if !st.vars[kvar].contains(&kc) {
            return Some(Refutation::Unclosed {
                edge: format!("letk fill ⊆ v{kvar}"),
                missing: format!("{kc:?} ∈ v{kvar}"),
            });
        }
    }
    if !st.vars[sys.top_k.index()].contains(&CpsFlow::Kont(AbsKont::Stop)) {
        return Some(Refutation::Unclosed {
            edge: format!("halt fill ⊆ v{}", sys.top_k.index()),
            missing: format!("stop ∈ v{}", sys.top_k.index()),
        });
    }
    None
}

/// Certifies a pushdown CFA answer against `prog`.
pub fn certify_pushdown(
    prog: &CpsProgram,
    claimed: &PushdownCfaResult,
) -> Result<Certificate, Refutation> {
    certify_pd_claim(prog, &PdClaim::of_result(claimed))
}

fn certify_pd_claim(prog: &CpsProgram, claim: &PdClaim<'_>) -> Result<Certificate, Refutation> {
    vars_shape(claim.st.vars.len(), prog)?;
    let sys = PdSystem::derive(prog)?;
    if let Some(r) = pd_closure_counterexample(&sys, claim) {
        return Err(r);
    }
    let lfp = pd_least_model(&sys, prog.num_vars(), prog.label_count());
    if let Some(m) = claim.matched.difference(&lfp.matched).next() {
        return Err(Refutation::Unsupported {
            fact: format!("matched witness {m:?}"),
        });
    }
    if let Some(r) = cps_store_excess(&claim.st, &lfp.st) {
        return Err(r);
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaPushdown,
        constraints: sys.constraints(),
        facts: claim.st.facts() + claim.matched.len(),
    })
}

// ---------------------------------------------------------------------------
// MFP over the first-order CFG
// ---------------------------------------------------------------------------

/// The checker's own transfer function, applied in place — same abstract
/// semantics as the CFG's, re-implemented here so the solver's transfer is
/// not in the trusted base.
fn flat_transfer(stmt: Stmt, env: &mut [Flat]) {
    match stmt {
        Stmt::Const(x, n) => env[x.index()] = Flat::constant(n),
        Stmt::Copy(x, y) => env[x.index()] = env[y.index()],
        Stmt::Add1(x, y) => env[x.index()] = env[y.index()].add1(),
        Stmt::Sub1(x, y) => env[x.index()] = env[y.index()].sub1(),
        Stmt::Sum(x, y, z) => {
            let a = env[y.index()];
            let b = env[z.index()];
            env[x.index()] = match (a.as_const(), b.as_const()) {
                (Some(p), Some(q)) => Flat::constant(p + q),
                _ if a.is_bot() || b.is_bot() => Flat::bot(),
                _ => Flat::top(),
            };
        }
        Stmt::Havoc(x) => env[x.index()] = Flat::top(),
        Stmt::Nop => {}
    }
}

fn flat_join(a: &mut [Flat], b: &[Flat]) -> bool {
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b) {
        let j = x.join(y);
        if j != *x {
            *x = j;
            changed = true;
        }
    }
    changed
}

/// Predecessor lists of the CFG's nodes.
fn cfg_preds(cfg: &Cfg) -> Vec<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes().len()];
    for (i, node) in cfg.nodes().iter().enumerate() {
        for s in &node.succs {
            preds[s.0].push(i);
        }
    }
    preds
}

/// A node's input: the initial environment at the entry (⊥ elsewhere),
/// joined with every predecessor's output.
fn flat_input(
    inn: &mut [Flat],
    i: usize,
    entry: usize,
    init: &[Flat],
    preds: &[usize],
    outs: &[Vec<Flat>],
) {
    if i == entry {
        inn.copy_from_slice(init);
    } else {
        inn.fill(Flat::bot());
    }
    for &p in preds {
        flat_join(inn, &outs[p]);
    }
}

/// Least per-node outputs of the CFG from `init`, by a FIFO worklist over
/// nodes: every node is visited once, then again only when a predecessor's
/// output grew.
fn mfp_least_outs(cfg: &Cfg, init: &[Flat]) -> Vec<Vec<Flat>> {
    let nodes = cfg.nodes();
    let entry = cfg.entry().0;
    let preds = cfg_preds(cfg);
    let mut outs: Vec<Vec<Flat>> = vec![vec![Flat::bot(); init.len()]; nodes.len()];
    let mut queued = vec![true; nodes.len()];
    let mut work: VecDeque<usize> = (0..nodes.len()).collect();
    let mut inn = vec![Flat::bot(); init.len()];
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        flat_input(&mut inn, i, entry, init, &preds[i], &outs);
        flat_transfer(nodes[i].stmt, &mut inn);
        if flat_join(&mut outs[i], &inn) {
            for s in &nodes[i].succs {
                if !queued[s.0] {
                    queued[s.0] = true;
                    work.push_back(s.0);
                }
            }
        }
    }
    outs
}

/// Certifies an MFP constant-propagation summary against `prog`.
///
/// The CFG lowering is shared front end (like the parser); the transfer,
/// join, fixpoint worklist, and defining-node summarization are
/// re-implemented here.
pub fn certify_mfp(
    prog: &AnfProgram,
    claimed: &DfSummary<Flat>,
) -> Result<Certificate, Refutation> {
    let cfg = Cfg::from_first_order(prog).map_err(|e| Refutation::Shape {
        detail: format!("program does not lower to a first-order CFG: {e:?}"),
    })?;
    let num_vars = cfg.bottom_env::<Flat>().len();
    if claimed.vars.len() != num_vars {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, CFG has {}",
                claimed.vars.len(),
                num_vars
            ),
        });
    }
    let init: Vec<Flat> = cfg.initial_env::<Flat>(prog);
    let outs = mfp_least_outs(&cfg, &init);
    let mut vars = vec![Flat::bot(); num_vars];
    for (node, out) in cfg.nodes().iter().zip(&outs) {
        if let Some(x) = node.stmt.def() {
            vars[x.index()] = vars[x.index()].join(&out[x.index()]);
        }
    }
    for (x, (c, d)) in claimed.vars.iter().zip(&vars).enumerate() {
        if c != d {
            return Err(if c.leq(d) {
                Refutation::Unclosed {
                    edge: format!("defs(v{x})"),
                    missing: format!("v{x} = {d:?} (claimed {c:?})"),
                }
            } else {
                Refutation::Unsupported {
                    fact: format!("v{x} = {c:?} (least model has {d:?})"),
                }
            });
        }
    }
    Ok(Certificate {
        kind: AnalysisKind::MfpFlat,
        constraints: cfg.nodes().len(),
        facts: num_vars,
    })
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Certifies any cached answer against the (already parsed) program it
/// claims to solve. CPS-level answers re-derive the CPS program through the
/// shared transform — the same front end the analyzers used. The cached
/// sets are checked in place, not copied into an analyzer result first.
pub fn certify_answer(prog: &AnfProgram, answer: &CachedAnswer) -> Result<Certificate, Refutation> {
    match answer {
        CachedAnswer::CfaSrc(s) => certify_src_claim(prog, &SrcClaim::of_send(s)),
        CachedAnswer::CfaCps(s) => {
            let cps = CpsProgram::from_anf(prog);
            certify_cps_claim(&cps, &CpsClaim::of_send(&s.vars, &s.returns, &s.calls))
        }
        CachedAnswer::CfaPushdown(s) => {
            let cps = CpsProgram::from_anf(prog);
            certify_pd_claim(&cps, &PdClaim::of_send(s))
        }
        CachedAnswer::MfpFlat(s) => certify_mfp(prog, s),
    }
}

/// [`certify_answer`] from source text: parses, then certifies. A source
/// that no longer parses refutes as [`Refutation::Shape`] — the persisted
/// entry cannot belong to this program.
pub fn certify_source(source: &str, answer: &CachedAnswer) -> Result<Certificate, Refutation> {
    let prog = AnfProgram::parse(source).map_err(|e| Refutation::Shape {
        detail: format!("source does not parse: {e}"),
    })?;
    certify_answer(&prog, answer)
}

/// Naive round-robin Kleene iteration: the reference the worklists above
/// are tested against. Every round re-applies every static and every
/// call-discovered edge until nothing grows. Test-only — not a runtime path.
#[cfg(test)]
mod kleene {
    use super::*;

    fn cps_op_flows(vars: &[BTreeSet<CpsFlow>], op: Op) -> Vec<CpsFlow> {
        match op {
            Op::None => Vec::new(),
            Op::Const(c) => vec![c],
            Op::Var(v) => vars[v.index()].iter().copied().collect(),
        }
    }

    fn add_all(dst: &mut BTreeSet<CpsFlow>, flows: Vec<CpsFlow>) -> bool {
        let mut changed = false;
        for v in flows {
            changed |= dst.insert(v);
        }
        changed
    }

    pub(super) fn src_least_model(sys: &SrcSystem, num_vars: usize, label_count: u32) -> SrcModel {
        let id = |n: SNode| n.id(num_vars);
        let mut st = SrcModel {
            nodes: vec![BTreeSet::new(); num_vars + label_count as usize],
            calls: LabelTable::new(label_count),
        };
        for (set, dst) in &sys.seeds {
            st.nodes[id(*dst)].extend(set.iter().copied());
        }
        loop {
            let mut changed = false;
            for &(src, dst) in &sys.subs {
                let flows: Vec<AbsClo> = st.nodes[id(src)].iter().copied().collect();
                for v in flows {
                    changed |= st.nodes[id(dst)].insert(v);
                }
            }
            for &(f, arg, bind, site) in &sys.calls {
                let callees: Vec<AbsClo> = st.nodes[id(f)].iter().copied().collect();
                for clo in callees {
                    changed |= st.calls.entry_or_default(site).insert(clo);
                    if let AbsClo::Lam(l) = clo {
                        let (param, body) = sys.lam.expect(l);
                        let args: Vec<AbsClo> = st.nodes[id(arg)].iter().copied().collect();
                        for v in args {
                            changed |= st.nodes[param.index()].insert(v);
                        }
                        let rets: Vec<AbsClo> =
                            st.nodes[id(SNode::Term(body))].iter().copied().collect();
                        for v in rets {
                            changed |= st.nodes[bind.index()].insert(v);
                        }
                    }
                }
            }
            if !changed {
                return st;
            }
        }
    }

    pub(super) fn cps_least_model(sys: &CpsSystem, num_vars: usize, label_count: u32) -> CpsModel {
        let mut st = CpsModel {
            vars: vec![BTreeSet::new(); num_vars],
            returns: LabelTable::new(label_count),
            calls: LabelTable::new(label_count),
        };
        for &(c, dst) in &sys.seeds {
            st.vars[dst.index()].insert(c);
        }
        loop {
            let mut changed = false;
            for &(src, dst) in &sys.subs {
                let flows: Vec<CpsFlow> = st.vars[src.index()].iter().copied().collect();
                changed |= add_all(&mut st.vars[dst.index()], flows);
            }
            for &(k, w, site) in &sys.rets {
                let ks: Vec<AbsKont> = st.vars[k.index()]
                    .iter()
                    .filter_map(|v| match v {
                        CpsFlow::Kont(kk) => Some(*kk),
                        CpsFlow::Clo(_) => None,
                    })
                    .collect();
                for kk in ks {
                    changed |= st.returns.entry_or_default(site).insert(kk);
                    if let AbsKont::Co(l) = kk {
                        let binder = sys.cont_var.expect(l);
                        let flows = cps_op_flows(&st.vars, w);
                        changed |= add_all(&mut st.vars[binder.index()], flows);
                    }
                }
            }
            for &(f, arg, cont, site) in &sys.calls {
                for v in cps_op_flows(&st.vars, f) {
                    let CpsFlow::Clo(clo) = v else { continue };
                    changed |= st.calls.entry_or_default(site).insert(clo);
                    if let AbsClo::Lam(l) = clo {
                        let (param, kvar) = sys.lam.expect(l);
                        let flows = cps_op_flows(&st.vars, arg);
                        changed |= add_all(&mut st.vars[param.index()], flows);
                        changed |= st.vars[kvar.index()].insert(CpsFlow::Kont(AbsKont::Co(cont)));
                    }
                }
            }
            if !changed {
                return st;
            }
        }
    }

    pub(super) fn pd_least_model(sys: &PdSystem, num_vars: usize, label_count: u32) -> PdModel {
        let mut st = CpsModel {
            vars: vec![BTreeSet::new(); num_vars],
            returns: LabelTable::new(label_count),
            calls: LabelTable::new(label_count),
        };
        let mut matched: BTreeSet<MatchedReturn> = BTreeSet::new();
        let mut callers: BTreeMap<Label, BTreeSet<Label>> = BTreeMap::new();
        for &(c, dst) in &sys.seeds {
            st.vars[dst.index()].insert(c);
        }
        for &site in &sys.halt_returns {
            st.returns.entry_or_default(site).insert(AbsKont::Stop);
        }
        for &(site, cont) in &sys.join_returns {
            st.returns.entry_or_default(site).insert(AbsKont::Co(cont));
        }
        loop {
            let mut changed = false;
            for &(src, dst) in &sys.subs {
                let flows: Vec<CpsFlow> = st.vars[src.index()].iter().copied().collect();
                changed |= add_all(&mut st.vars[dst.index()], flows);
            }
            for &(w, cont) in &sys.joins {
                let binder = sys.cont_var.expect(cont);
                let flows = cps_op_flows(&st.vars, w);
                changed |= add_all(&mut st.vars[binder.index()], flows);
            }
            for &(f, arg, cont, site) in &sys.calls {
                for v in cps_op_flows(&st.vars, f) {
                    let CpsFlow::Clo(clo) = v else { continue };
                    changed |= st.calls.entry_or_default(site).insert(clo);
                    let AbsClo::Lam(l) = clo else { continue };
                    let (param, _kvar) = sys.lam.expect(l);
                    let flows = cps_op_flows(&st.vars, arg);
                    changed |= add_all(&mut st.vars[param.index()], flows);
                    changed |= callers.entry(l).or_default().insert(cont);
                    let binder = sys.cont_var.expect(cont);
                    for tpl in sys.templates(l) {
                        changed |= st
                            .returns
                            .entry_or_default(tpl.site)
                            .insert(AbsKont::Co(cont));
                        changed |= matched.insert(MatchedReturn {
                            ret_site: tpl.site,
                            callee: l,
                            call_site: site,
                            cont,
                        });
                        let w = if tpl.own_param { arg } else { tpl.w };
                        let flows = cps_op_flows(&st.vars, w);
                        changed |= add_all(&mut st.vars[binder.index()], flows);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        pd_fill(sys, &mut st, &callers);
        PdModel { st, matched }
    }

    /// Round-robin sweeps over every CFG node until no output grows.
    pub(super) fn mfp_least_outs(cfg: &Cfg, init: &[Flat]) -> Vec<Vec<Flat>> {
        let nodes = cfg.nodes();
        let entry = cfg.entry().0;
        let preds = cfg_preds(cfg);
        let mut outs: Vec<Vec<Flat>> = vec![vec![Flat::bot(); init.len()]; nodes.len()];
        let mut inn = vec![Flat::bot(); init.len()];
        loop {
            let mut changed = false;
            for (i, node) in nodes.iter().enumerate() {
                flat_input(&mut inn, i, entry, init, &preds[i], &outs);
                flat_transfer(node.stmt, &mut inn);
                changed |= flat_join(&mut outs[i], &inn);
            }
            if !changed {
                return outs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::{zero_cfa, zero_cfa_cps};
    use crate::pushdown::pushdown_cfa;
    use cpsdfa_workloads::families;
    use cpsdfa_workloads::random::{corpus, open_config};
    use std::rc::Rc;

    const PROGRAMS: &[&str] = &[
        "(let (f (lambda (x) x)) (f f))",
        "(let (id (lambda (x) x)) (let (a (id add1)) (let (b (id 1)) (a b))))",
        "(let (f (lambda (x) (x x))) (f (lambda (y) y)))",
        "(let (c (if0 0 1 2)) (add1 c))",
        "(let (g (lambda (x) (let (h (lambda (y) x)) h))) (let (k (g 1)) (k 2)))",
        "(let (x (loop)) (if0 x (add1 x) (sub1 x)))",
    ];

    #[test]
    fn src_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let r = zero_cfa(&p).unwrap();
            let cert = certify_cfa_src(&p, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(cert.kind, AnalysisKind::CfaSrc);
            assert!(cert.constraints > 0);
        }
    }

    #[test]
    fn cps_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let r = zero_cfa_cps(&c).unwrap();
            certify_cfa_cps(&c, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn pushdown_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let r = pushdown_cfa(&c).unwrap();
            certify_pushdown(&c, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn mfp_answers_certify() {
        for src in ["(let (x 1) (add1 x))", "(let (c (if0 0 1 2)) (add1 c))"] {
            let p = AnfProgram::parse(src).unwrap();
            let cfg = Cfg::from_first_order(&p).unwrap();
            let s = cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap();
            certify_mfp(&p, &s).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn added_fact_refutes_as_unsupported_even_when_self_justified() {
        // `(f f)` wires x ⊆ x via the self-application: an extra closure in
        // x stays closed under every edge, so a pure closure check would
        // accept it. The least-model comparison refutes it.
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let x = p.var_named("x").unwrap();
        let mut poisoned = (*r.vars[x.index()]).clone();
        poisoned.insert(AbsClo::Inc);
        r.vars[x.index()] = Rc::new(poisoned);
        let err = certify_cfa_src(&p, &r).unwrap_err();
        assert!(
            matches!(
                err,
                Refutation::Unclosed { .. } | Refutation::Unsupported { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn removed_fact_refutes_with_counterexample_edge() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let f = p.var_named("f").unwrap();
        r.vars[f.index()] = Rc::new(BTreeSet::new());
        match certify_cfa_src(&p, &r).unwrap_err() {
            Refutation::Unclosed { edge, missing } => {
                assert!(!edge.is_empty() && !missing.is_empty());
            }
            other => panic!("expected Unclosed, got {other}"),
        }
    }

    #[test]
    fn dropped_call_edge_refutes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let mut calls = (*r.calls).clone();
        let site = calls.keys().next().unwrap();
        calls.insert(site, BTreeSet::new());
        r.calls = Rc::new(calls);
        assert!(certify_cfa_src(&p, &r).is_err());
    }

    #[test]
    fn wrong_shape_refutes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        r.vars.pop();
        assert!(matches!(
            certify_cfa_src(&p, &r).unwrap_err(),
            Refutation::Shape { .. }
        ));
    }

    #[test]
    fn forged_labels_refute_instead_of_panicking() {
        // A forged closure or continuation planted everywhere it could be
        // followed: every flow set and every call/return entry. Its label
        // names nothing in the program, so the closure scan must refute it
        // rather than fail a table lookup.
        let bogus = Label::new(9_999);
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let forge = |s: &BTreeSet<AbsClo>| {
            let mut s = s.clone();
            s.insert(AbsClo::Lam(bogus));
            s
        };
        r.vars = r.vars.iter().map(|s| Rc::new(forge(s))).collect();
        r.terms = r
            .terms
            .iter()
            .map(|(l, s)| (l, Rc::new(forge(s))))
            .collect();
        r.calls = Rc::new(r.calls.iter().map(|(l, s)| (l, forge(s))).collect());
        assert!(certify_cfa_src(&p, &r).is_err());

        let c = CpsProgram::from_anf(&p);
        let forged: Vec<Rc<BTreeSet<CpsFlow>>> = zero_cfa_cps(&c)
            .unwrap()
            .vars
            .iter()
            .map(|s| {
                let mut s = (**s).clone();
                s.insert(CpsFlow::Clo(AbsClo::Lam(bogus)));
                s.insert(CpsFlow::Kont(AbsKont::Co(bogus)));
                Rc::new(s)
            })
            .collect();
        let mut r = zero_cfa_cps(&c).unwrap();
        r.vars = forged.clone();
        r.returns = r
            .returns
            .iter()
            .map(|(l, s)| (l, s.iter().copied().chain([AbsKont::Co(bogus)]).collect()))
            .collect();
        r.calls = r.calls.iter().map(|(l, s)| (l, forge(s))).collect();
        assert!(certify_cfa_cps(&c, &r).is_err());

        let mut r = pushdown_cfa(&c).unwrap();
        r.vars = forged;
        r.calls = r.calls.iter().map(|(l, s)| (l, forge(s))).collect();
        assert!(certify_pushdown(&c, &r).is_err());
    }

    #[test]
    fn mutated_mfp_summary_refutes_both_directions() {
        let p = AnfProgram::parse("(let (x 1) (add1 x))").unwrap();
        let cfg = Cfg::from_first_order(&p).unwrap();
        let s = cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap();
        for (i, v) in s.vars.iter().enumerate() {
            let mut up = s.clone();
            up.vars[i] = Flat::top();
            let mut down = s.clone();
            down.vars[i] = Flat::bot();
            if *v != Flat::top() {
                assert!(certify_mfp(&p, &up).is_err(), "⊤ at v{i} accepted");
            }
            if *v != Flat::bot() {
                assert!(certify_mfp(&p, &down).is_err(), "⊥ at v{i} accepted");
            }
        }
    }

    /// The oracle inputs: a random corpus plus the higher-order families
    /// the benchmark serves, across its size range.
    fn oracle_programs() -> Vec<(String, AnfProgram)> {
        let mut out: Vec<(String, AnfProgram)> = corpus(0xC0DE_CE47, 200, &open_config())
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("corpus[{i}]"), AnfProgram::from_term(t)))
            .collect();
        for n in [24, 64, 111] {
            for (name, t) in [
                ("dispatch", families::dispatch(n)),
                ("polyvariant", families::polyvariant(n)),
                ("repeated_calls", families::repeated_calls(n)),
            ] {
                out.push((format!("{name}({n})"), AnfProgram::from_term(&t)));
            }
        }
        out
    }

    #[test]
    fn certify_worklist_src_model_equals_kleene_oracle() {
        let mut calls = 0;
        for (name, p) in oracle_programs() {
            let sys = SrcSystem::derive(&p);
            let (nv, lc) = (p.num_vars(), p.label_count());
            let model = src_least_model(&sys, nv, lc);
            assert_eq!(model, kleene::src_least_model(&sys, nv, lc), "{name}");
            calls += model.calls.len();
        }
        assert!(calls > 0, "the oracle inputs must discover call edges");
    }

    #[test]
    fn certify_worklist_cps_model_equals_kleene_oracle() {
        let mut returns = 0;
        for (name, p) in oracle_programs() {
            let c = CpsProgram::from_anf(&p);
            let sys = CpsSystem::derive(&c);
            let (nv, lc) = (c.num_vars(), c.label_count());
            let model = cps_least_model(&sys, nv, lc);
            assert_eq!(model, kleene::cps_least_model(&sys, nv, lc), "{name}");
            returns += model.returns.len();
        }
        assert!(returns > 0, "the oracle inputs must discover return edges");
    }

    #[test]
    fn certify_worklist_pushdown_model_equals_kleene_oracle() {
        let mut matched = 0;
        for (name, p) in oracle_programs() {
            let c = CpsProgram::from_anf(&p);
            let sys = PdSystem::derive(&c).unwrap_or_else(|e| panic!("{name}: {e}"));
            let (nv, lc) = (c.num_vars(), c.label_count());
            let model = pd_least_model(&sys, nv, lc);
            assert_eq!(model, kleene::pd_least_model(&sys, nv, lc), "{name}");
            matched += model.matched.len();
        }
        assert!(matched > 0, "the oracle inputs must match returns");
    }

    #[test]
    fn certify_worklist_mfp_outs_equal_kleene_oracle() {
        let mut progs: Vec<(String, AnfProgram)> = oracle_programs()
            .into_iter()
            .filter(|(_, p)| Cfg::from_first_order(p).is_ok())
            .collect();
        for n in [24, 64, 111] {
            for (name, t) in [
                ("cond_chain", families::cond_chain(n)),
                ("diamond_chain", families::diamond_chain(n)),
            ] {
                progs.push((format!("{name}({n})"), AnfProgram::from_term(&t)));
            }
        }
        let mut non_bot = 0;
        for (name, p) in &progs {
            let cfg = Cfg::from_first_order(p).unwrap();
            let init = cfg.initial_env::<Flat>(p);
            let outs = mfp_least_outs(&cfg, &init);
            assert_eq!(outs, kleene::mfp_least_outs(&cfg, &init), "{name}");
            non_bot += outs.iter().flatten().filter(|v| !v.is_bot()).count();
        }
        assert!(progs.len() > 6 && non_bot > 0);

        // Lowered programs are acyclic and numbered in flow order, so one
        // sweep settles them. A hand-built loop numbered against the flow
        // (entry last, back edge into the join) needs every re-visit.
        use crate::mfp::{Cond, Node, NodeId};
        let (x, z) = (VarId(0), VarId(1));
        let node = |stmt, succs: Vec<usize>, cond| Node {
            stmt,
            succs: succs.into_iter().map(NodeId).collect(),
            cond,
        };
        let nodes = vec![
            node(Stmt::Nop, vec![], None),                   // 0 exit
            node(Stmt::Add1(x, x), vec![2], None),           // 1 body
            node(Stmt::Nop, vec![1, 0], Some(Cond::Var(z))), // 2 loop head
            node(Stmt::Const(x, 0), vec![2], None),          // 3 entry
        ];
        let cfg = Cfg::from_parts(nodes, NodeId(3), NodeId(0), 2).unwrap();
        let init = cfg.bottom_env::<Flat>();
        let outs = mfp_least_outs(&cfg, &init);
        assert_eq!(outs, kleene::mfp_least_outs(&cfg, &init), "hand-built loop");
        assert_eq!(outs[0][0], Flat::top(), "the loop counter widens to ⊤");
    }

    #[test]
    fn certify_answer_dispatches_all_kinds() {
        let src = "(let (f (lambda (x) x)) (f f))";
        let p = AnfProgram::parse(src).unwrap();
        let r = zero_cfa(&p).unwrap();
        let ans = CachedAnswer::CfaSrc(crate::cache::SendCfa::from_result(&r));
        assert!(certify_answer(&p, &ans).is_ok());
        assert!(certify_source(src, &ans).is_ok());
        assert!(certify_source("(let (y 1) (add1 y))", &ans).is_err());
    }
}
