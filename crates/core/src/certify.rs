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
//! **Representation.** Each checker numbers the program's flow values once,
//! in their `Ord` order ([`Values`]): `inc`, `dec`, every λ by label, and —
//! for the CPS-shaped checkers — `stop` and every continuation by label. A
//! flow set is a row of `u64` words ([`Rows`]); a `calls` or `returns`
//! table is one row per call or return site of the program ([`Sites`]).
//! The claim is converted to rows once, and a value or table key that
//! names nothing in the program refutes there. Because bits follow value
//! order, the lowest bit of `claim & !other` is the first element a
//! set-difference scan would name, so refutations name the same facts a
//! `BTreeSet` checker would.
//!
//! The closure scan is one `src & !dst` per re-derived edge. The least
//! model is computed semi-naively ([`Flows`]): flow nodes get dense ids (a
//! variable's index; a source term's `num_vars + label`), each
//! `(node, value)` fact is queued once — as a bit of its node's delta row —
//! and pushed along each of its node's out-edges once, when the node is
//! popped. A call-discovered edge (argument → parameter, body → result,
//! returned operand → binder) is added once, when its λ or continuation
//! first reaches the call or return, and the source's current row is pushed
//! across it on the spot. Least-model equality is `claim & !lfp == 0` per
//! row; closure already guarantees the other inclusion. MFP runs a FIFO
//! worklist over CFG nodes: a node is re-visited only when a predecessor's
//! output grew.
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
//! this check. The worklist here is the checker's own (its own `u64` rows,
//! a `Vec` stack, dense label tables); it shares no engine, set pool,
//! bitset kernel or delta log with the solvers, and the unit tests pin it
//! to a naive `BTreeSet` Kleene oracle table for table. The daemon's
//! `--certify` mode samples served answers through [`certify_answer`] and
//! evicts + recomputes on refutation instead of serving the bad fixpoint
//! (DESIGN.md §13).

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
use std::collections::{BTreeSet, HashMap, VecDeque};
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
// Bit rows
// ---------------------------------------------------------------------------

/// A program's flow values, numbered once in their `Ord` order: `inc`,
/// `dec`, the λs by label, then — for the CPS-shaped checkers — `stop` and
/// the continuations by label. Bit `b` of a [`Rows`] row stands for one
/// value, so ascending bits enumerate a set in `BTreeSet` order, and a
/// closure has the same bit whether it is a source `AbsClo` or a CPS
/// `CpsFlow::Clo`.
struct Values {
    lams: Vec<Label>,
    conts: Vec<Label>,
    /// λ label → index into `lams`.
    lam_ix: LabelLookup<u32>,
    /// Continuation label → index into `conts`.
    cont_ix: LabelLookup<u32>,
    len: usize,
}

impl Values {
    /// Numbers `lams` (and, for a CPS-shaped checker, `stop` plus `conts`).
    fn new(label_count: u32, lams: Vec<Label>, conts: Option<Vec<Label>>) -> Values {
        let index = |mut ls: Vec<Label>| {
            ls.sort_unstable();
            let ix = LabelLookup::build(
                label_count,
                ls.iter().enumerate().map(|(i, &l)| (l, i as u32)),
            );
            (ls, ix)
        };
        let len = 2 + lams.len() + conts.as_ref().map_or(0, |c| 1 + c.len());
        let (lams, lam_ix) = index(lams);
        let (conts, cont_ix) = index(conts.unwrap_or_default());
        Values {
            lams,
            conts,
            lam_ix,
            cont_ix,
            len,
        }
    }

    /// The number of values (bits per row).
    fn len(&self) -> usize {
        self.len
    }

    /// The bit of `stop`; every continuation bit is at or above it.
    fn stop(&self) -> usize {
        2 + self.lams.len()
    }

    fn is_kont(&self, b: usize) -> bool {
        b >= self.stop()
    }

    fn clo_bit(&self, c: AbsClo) -> Option<usize> {
        match c {
            AbsClo::Inc => Some(0),
            AbsClo::Dec => Some(1),
            AbsClo::Lam(l) => self.lam_ix.get(l).map(|i| 2 + i as usize),
        }
    }

    fn kont_bit(&self, k: AbsKont) -> Option<usize> {
        match k {
            AbsKont::Stop => Some(self.stop()),
            AbsKont::Co(l) => self.cont_ix.get(l).map(|j| self.stop() + 1 + j as usize),
        }
    }

    /// The bit of a claimed value; `None` when it names nothing in the
    /// program.
    fn flow_bit(&self, f: CpsFlow) -> Option<usize> {
        match f {
            CpsFlow::Clo(c) => self.clo_bit(c),
            CpsFlow::Kont(k) => self.kont_bit(k),
        }
    }

    /// The bit of a value the program itself produces.
    fn bit(&self, f: CpsFlow) -> usize {
        self.flow_bit(f)
            .expect("a value the program produces is numbered")
    }

    /// The bit of continuation `co@l`.
    fn co(&self, l: Label) -> usize {
        self.bit(CpsFlow::Kont(AbsKont::Co(l)))
    }

    /// The λ label of closure bit `b`, if it is a user λ.
    fn lam(&self, b: usize) -> Option<Label> {
        self.lams.get(b.checked_sub(2)?).copied()
    }

    /// The closure bit `b` stands for.
    fn clo(&self, b: usize) -> AbsClo {
        match b {
            0 => AbsClo::Inc,
            1 => AbsClo::Dec,
            _ => AbsClo::Lam(self.lams[b - 2]),
        }
    }

    /// The continuation bit `b` stands for.
    fn kont(&self, b: usize) -> AbsKont {
        match b - self.stop() {
            0 => AbsKont::Stop,
            j => AbsKont::Co(self.conts[j - 1]),
        }
    }

    /// The CPS flow value bit `b` stands for.
    fn flow(&self, b: usize) -> CpsFlow {
        if self.is_kont(b) {
            CpsFlow::Kont(self.kont(b))
        } else {
            CpsFlow::Clo(self.clo(b))
        }
    }
}

/// Dense bit rows over a [`Values`] numbering, `width` words each: the
/// checker's flow sets and table entries.
struct Rows {
    width: usize,
    bits: Vec<u64>,
}

impl Rows {
    fn new(rows: usize, values: usize) -> Rows {
        let width = values.div_ceil(64).max(1);
        Rows {
            width,
            bits: vec![0; rows * width],
        }
    }

    fn len(&self) -> usize {
        self.bits.len() / self.width
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.width..(i + 1) * self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.width..(i + 1) * self.width]
    }

    fn has(&self, i: usize, b: usize) -> bool {
        self.bits[i * self.width + b / 64] >> (b % 64) & 1 == 1
    }

    /// Sets bit `b` of row `i`; true if it was clear.
    fn set(&mut self, i: usize, b: usize) -> bool {
        let word = &mut self.bits[i * self.width + b / 64];
        let mask = 1u64 << (b % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Total set bits: the facts the rows hold.
    fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rows with at least one bit set.
    fn occupied(&self) -> usize {
        self.bits
            .chunks(self.width)
            .filter(|r| !is_empty(r))
            .count()
    }
}

fn is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// The lowest bit of `a & !b`: the first value of `a` missing from `b`.
fn first_excess(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter().zip(b).enumerate().find_map(|(i, (&x, &y))| {
        let d = x & !y;
        (d != 0).then(|| i * 64 + d.trailing_zeros() as usize)
    })
}

/// The set bits of `row`, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// The keys a `calls` or `returns` table may have — the program's call or
/// return sites — in label order; each site's slot is its table row.
struct Sites {
    labels: Vec<Label>,
    slot: LabelLookup<u32>,
}

impl Sites {
    fn new(label_count: u32, mut labels: Vec<Label>) -> Sites {
        labels.sort_unstable();
        labels.dedup();
        let slot = LabelLookup::build(
            label_count,
            labels.iter().enumerate().map(|(i, &l)| (l, i as u32)),
        );
        Sites { labels, slot }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    /// The slot of `l`, or `None` when `l` is not one of the sites.
    fn slot(&self, l: Label) -> Option<usize> {
        self.slot.get(l).map(|s| s as usize)
    }

    /// The slot of a site the program itself has.
    fn at(&self, l: Label) -> usize {
        self.slot(l).expect("a site of the program")
    }
}

/// A claimed `calls`/`returns` table: one row per site, and which sites
/// the claim has an entry for (a claimed entry may be empty; a least-model
/// entry exists exactly when its row is non-empty).
struct Table {
    rows: Rows,
    present: Vec<bool>,
}

impl Table {
    fn entries(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }
}

/// A claimed closure or continuation whose label names no λ or
/// continuation of the program: no derivation can produce it, and the
/// closure scan cannot follow it.
fn foreign(value: impl fmt::Debug) -> Refutation {
    Refutation::Unsupported {
        fact: format!("{value:?} names nothing in the program"),
    }
}

/// Overwrites row `i` with a claimed set, so a repeated key keeps its last
/// entry.
fn fill<T: Copy + fmt::Debug>(
    rows: &mut Rows,
    i: usize,
    set: &BTreeSet<T>,
    bit: impl Fn(T) -> Option<usize>,
) -> Result<(), Refutation> {
    rows.row_mut(i).fill(0);
    for &v in set {
        rows.set(i, bit(v).ok_or_else(|| foreign(v))?);
    }
    Ok(())
}

/// Converts a claimed `name` table, looking each key up among `sites`: a
/// key that is no site of the program refutes instead of sizing anything.
fn claim_table<T: Copy + fmt::Debug>(
    name: &str,
    entries: &[(Label, &BTreeSet<T>)],
    sites: &Sites,
    values: usize,
    bit: impl Fn(T) -> Option<usize>,
) -> Result<Table, Refutation> {
    let mut table = Table {
        rows: Rows::new(sites.len(), values),
        present: vec![false; sites.len()],
    };
    for &(l, set) in entries {
        let i = sites.slot(l).ok_or_else(|| Refutation::Shape {
            detail: format!("{name} table keyed on {l}, which is no site of the program"),
        })?;
        fill(&mut table.rows, i, set, &bit)?;
        table.present[i] = true;
    }
    Ok(table)
}

/// The first claimed `name` entry, in label order, that the least model
/// lacks: an extra value, or an empty entry (the analyzers store none).
fn table_excess(
    name: &str,
    sites: &Sites,
    claim: &Table,
    lfp: &Rows,
    show: impl Fn(usize) -> String,
) -> Option<Refutation> {
    for (i, &l) in sites.labels.iter().enumerate() {
        if !claim.present[i] {
            continue;
        }
        let c = claim.rows.row(i);
        if let Some(b) = first_excess(c, lfp.row(i)) {
            return Some(Refutation::Unsupported {
                fact: format!("{} ∈ {name}[{l}]", show(b)),
            });
        }
        if is_empty(c) {
            return Some(Refutation::Unsupported {
                fact: format!("empty {name}[{l}] entry"),
            });
        }
    }
    None
}

// ---------------------------------------------------------------------------
// The checker's worklist
// ---------------------------------------------------------------------------

/// The checker's semi-naive propagation engine over dense flow nodes.
///
/// A fact derived at a node sets its bit in the node's row and in the
/// node's delta row, and queues the node if it is not queued; so each
/// `(node, value)` fact is queued exactly once. [`Flows::next`] pops a
/// node and pushes its delta along every out-edge, so each fact crosses
/// each edge once. An edge added after its source already holds values
/// carries the source's current row across at once, so a late
/// call-discovered edge misses nothing.
struct Flows {
    sets: Rows,
    delta: Rows,
    succ: Vec<Vec<u32>>,
    /// Call-discovered edges already added ([`Flows::link`]).
    linked: FxHashSet<(u32, u32)>,
    queued: Vec<bool>,
    work: Vec<u32>,
}

impl Flows {
    fn new(nodes: usize, values: usize) -> Self {
        Flows {
            sets: Rows::new(nodes, values),
            delta: Rows::new(nodes, values),
            succ: vec![Vec::new(); nodes],
            linked: FxHashSet::default(),
            queued: vec![false; nodes],
            work: Vec::new(),
        }
    }

    fn enqueue(&mut self, n: usize) {
        if !self.queued[n] {
            self.queued[n] = true;
            self.work.push(n as u32);
        }
    }

    /// Derives fact `b ∈ n`, queueing it if it is new.
    fn add(&mut self, n: usize, b: usize) {
        if self.sets.set(n, b) {
            self.delta.set(n, b);
            self.enqueue(n);
        }
    }

    /// Derives at `dst` every bit of `src`'s row — or, when `pending`, of
    /// its delta row — that `dst` lacks.
    fn push(&mut self, src: usize, dst: usize, pending: bool) {
        let w = self.sets.width;
        let mut grew = false;
        for i in 0..w {
            let from = if pending { &self.delta } else { &self.sets };
            let new = from.bits[src * w + i] & !self.sets.bits[dst * w + i];
            if new != 0 {
                self.sets.bits[dst * w + i] |= new;
                self.delta.bits[dst * w + i] |= new;
                grew = true;
            }
        }
        if grew {
            self.enqueue(dst);
        }
    }

    /// Adds the edge `src ⊆ dst` and pushes `src`'s current row across it.
    fn edge(&mut self, src: usize, dst: usize) {
        self.succ[src].push(dst as u32);
        self.push(src, dst, false);
    }

    /// [`Flows::edge`] for a call-discovered edge: added at most once, however
    /// many call/callee pairs re-discover it.
    fn link(&mut self, src: usize, dst: usize) {
        if self.linked.insert((src as u32, dst as u32)) {
            self.edge(src, dst);
        }
    }

    /// Pops a node and pushes its pending facts along its out-edges, then
    /// moves them into `delta`: the caller fires whatever those facts
    /// trigger at the node.
    fn next(&mut self, delta: &mut Vec<u64>) -> Option<usize> {
        let n = self.work.pop()? as usize;
        self.queued[n] = false;
        for i in 0..self.succ[n].len() {
            self.push(n, self.succ[n][i] as usize, true);
        }
        delta.clear();
        delta.extend_from_slice(self.delta.row(n));
        self.delta.row_mut(n).fill(0);
        Some(n)
    }

    /// Flows a CPS operand into `dst`: a constant is derived there, a
    /// variable is linked to it.
    fn flow(&mut self, vals: &Values, op: Op, dst: CVarId) {
        match op {
            Op::None => {}
            Op::Const(c) => self.add(dst.index(), vals.bit(c)),
            Op::Var(v) => self.link(v.index(), dst.index()),
        }
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

// ---------------------------------------------------------------------------
// Source-level 0CFA
// ---------------------------------------------------------------------------

/// A flow node of the re-derived source constraint graph.
#[derive(Clone, Copy, PartialEq, Eq)]
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

/// The source constraint system, re-derived by an independent AST walk,
/// with the program's value numbering and table keys.
struct SrcSystem {
    seeds: Vec<(AbsClo, SNode)>,
    subs: Vec<(SNode, SNode)>,
    /// `(f node, arg node, bind var, site)`.
    calls: Vec<(SNode, SNode, VarId, Label)>,
    /// `λ label → (param, body label)`.
    lam: LabelLookup<(VarId, Label)>,
    vals: Values,
    /// Labels that are propagation targets — exactly the key set the
    /// analyzer's `terms` table must have.
    terms: Sites,
    /// The call sites: the keys the `calls` table may have.
    sites: Sites,
    num_vars: usize,
    /// Flow nodes: every variable, then every label.
    nodes: usize,
}

impl SrcSystem {
    fn derive(prog: &AnfProgram) -> SrcSystem {
        let lc = prog.label_count();
        let lams = prog.lambdas();
        let mut sys = SrcSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            calls: Vec::new(),
            lam: LabelLookup::build(
                lc,
                lams.iter().map(|(&l, r)| (l, (r.param_id, r.body.label))),
            ),
            vals: Values::new(lc, lams.keys().copied().collect(), None),
            terms: Sites::new(lc, Vec::new()),
            sites: Sites::new(lc, Vec::new()),
            num_vars: prog.num_vars(),
            nodes: prog.num_vars() + lc as usize,
        };
        sys.walk(prog.root(), prog);
        sys.terms = Sites::new(lc, std::mem::take(&mut sys.terms.labels));
        sys.sites = Sites::new(lc, sys.calls.iter().map(|c| c.3).collect());
        sys
    }

    fn constraints(&self) -> usize {
        self.seeds.len() + self.subs.len() + self.calls.len()
    }

    fn id(&self, n: SNode) -> usize {
        n.id(self.num_vars)
    }

    /// Marks `n` a propagation target (collected during the walk, indexed
    /// once it ends).
    fn dst(&mut self, n: SNode) {
        if let SNode::Term(l) = n {
            self.terms.labels.push(l);
        }
    }

    /// The flow of a syntactic value into `dst`: constants seed (empty
    /// constant sets — numbers — generate nothing, so the target is not
    /// marked), variables subset-edge.
    fn val(&mut self, v: &cpsdfa_anf::AVal, dst: SNode, prog: &AnfProgram) {
        let seed = match &v.kind {
            AValKind::Num(_) => return,
            AValKind::Add1 => AbsClo::Inc,
            AValKind::Sub1 => AbsClo::Dec,
            AValKind::Lam(..) => AbsClo::Lam(v.label),
            AValKind::Var(x) => {
                self.dst(dst);
                let y = prog.var_id(x).expect("indexed variable");
                self.subs.push((SNode::Var(y), dst));
                return;
            }
        };
        self.dst(dst);
        self.seeds.push((seed, dst));
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

/// A claimed source answer's tables, borrowed from whichever container it
/// arrived in (an analyzer result or a cache mirror).
struct SrcRaw<'a> {
    vars: Vec<&'a BTreeSet<AbsClo>>,
    terms: Vec<(Label, &'a BTreeSet<AbsClo>)>,
    calls: Vec<(Label, &'a BTreeSet<AbsClo>)>,
}

impl<'a> SrcRaw<'a> {
    fn of_result(r: &'a CfaResult) -> Self {
        SrcRaw {
            vars: r.vars.iter().map(|s| &**s).collect(),
            terms: r.terms.iter().map(|(l, s)| (l, &**s)).collect(),
            calls: r.calls.iter().collect(),
        }
    }

    fn of_send(s: &'a SendCfa) -> Self {
        SrcRaw {
            vars: s.vars.iter().collect(),
            terms: s.terms.iter().map(|(l, s)| (*l, s)).collect(),
            calls: s.calls.iter().map(|(l, s)| (*l, s)).collect(),
        }
    }
}

/// A claimed source answer as rows: one per flow node (variables, then
/// term labels; unclaimed terms stay empty) plus the call table.
struct SrcClaim {
    nodes: Rows,
    calls: Table,
}

impl SrcClaim {
    fn convert(sys: &SrcSystem, raw: &SrcRaw<'_>) -> Result<SrcClaim, Refutation> {
        let mut seen = vec![false; sys.terms.len()];
        let keyed = raw.terms.iter().all(|&(l, _)| {
            let slot = sys.terms.slot(l);
            slot.map(|i| seen[i] = true).is_some()
        });
        if !keyed || seen.contains(&false) {
            let claimed: BTreeSet<Label> = raw.terms.iter().map(|&(l, _)| l).collect();
            let targets: BTreeSet<Label> = sys.terms.labels.iter().copied().collect();
            return Err(Refutation::Shape {
                detail: format!(
                    "terms table keyed on {claimed:?}, propagation targets are {targets:?}"
                ),
            });
        }
        let bit = |c| sys.vals.clo_bit(c);
        let mut nodes = Rows::new(sys.nodes, sys.vals.len());
        for (i, set) in raw.vars.iter().enumerate() {
            fill(&mut nodes, i, set, bit)?;
        }
        for &(l, set) in &raw.terms {
            fill(&mut nodes, sys.id(SNode::Term(l)), set, bit)?;
        }
        let calls = claim_table("calls", &raw.calls, &sys.sites, sys.vals.len(), bit)?;
        Ok(SrcClaim { nodes, calls })
    }
}

/// The recomputed source least model: one row per flow node
/// ([`SNode::id`]) and one per call site.
struct SrcModel {
    nodes: Rows,
    calls: Rows,
}

/// Least model of the re-derived source system, semi-naively: static edges
/// and seeds go in first; each closure that reaches a call's operator node
/// records the call edge and links argument → parameter and body → result
/// once, for that (call, λ) pair.
fn src_least_model(sys: &SrcSystem) -> SrcModel {
    let mut fl = Flows::new(sys.nodes, sys.vals.len());
    let mut calls = Rows::new(sys.sites.len(), sys.vals.len());
    let mut hooks: Vec<Vec<Hook>> = vec![Vec::new(); sys.nodes];
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        hooks[sys.id(f)].push(Hook::Call(i));
    }
    for &(src, dst) in &sys.subs {
        fl.edge(sys.id(src), sys.id(dst));
    }
    for &(v, dst) in &sys.seeds {
        fl.add(sys.id(dst), sys.vals.bit(CpsFlow::Clo(v)));
    }
    let mut delta = Vec::new();
    while let Some(n) = fl.next(&mut delta) {
        for &hook in &hooks[n] {
            let Hook::Call(i) = hook else { continue };
            let (_, arg, bind, site) = sys.calls[i];
            for (w, &d) in calls.row_mut(sys.sites.at(site)).iter_mut().zip(&delta) {
                *w |= d;
            }
            for l in bits(&delta).filter_map(|b| sys.vals.lam(b)) {
                let (param, body) = sys.lam.expect(l);
                fl.link(sys.id(arg), param.index());
                fl.link(sys.id(SNode::Term(body)), bind.index());
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
fn src_closure_counterexample(sys: &SrcSystem, claim: &SrcClaim) -> Option<Refutation> {
    let (vals, rows) = (&sys.vals, &claim.nodes);
    let row = |n: SNode| rows.row(sys.id(n));
    for &(v, dst) in &sys.seeds {
        if !rows.has(sys.id(dst), vals.bit(CpsFlow::Clo(v))) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ {dst}"),
                missing: format!("{v:?} ∈ {dst}"),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(b) = first_excess(row(src), row(dst)) {
            return Some(Refutation::Unclosed {
                edge: format!("{src} ⊆ {dst}"),
                missing: format!("{:?} ∈ {dst}", vals.clo(b)),
            });
        }
    }
    for &(f, arg, bind, site) in &sys.calls {
        let slot = sys.sites.at(site);
        for b in bits(row(f)) {
            if !claim.calls.rows.has(slot, b) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{:?} ∈ calls[{site}]", vals.clo(b)),
                });
            }
            let Some(l) = vals.lam(b) else { continue };
            let (param, body) = sys.lam.expect(l);
            if let Some(v) = first_excess(row(arg), row(SNode::Var(param))) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} arg ⊆ v{}", param.index()),
                    missing: format!("{:?} ∈ v{}", vals.clo(v), param.index()),
                });
            }
            if let Some(v) = first_excess(row(SNode::Term(body)), row(SNode::Var(bind))) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} ret ⊆ v{}", bind.index()),
                    missing: format!("{:?} ∈ v{}", vals.clo(v), bind.index()),
                });
            }
        }
    }
    None
}

/// Certifies a source-level 0CFA answer against `prog`.
pub fn certify_cfa_src(prog: &AnfProgram, claimed: &CfaResult) -> Result<Certificate, Refutation> {
    certify_src_claim(prog, &SrcRaw::of_result(claimed))
}

fn certify_src_claim(prog: &AnfProgram, raw: &SrcRaw<'_>) -> Result<Certificate, Refutation> {
    let num_vars = prog.num_vars();
    if raw.vars.len() != num_vars {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                raw.vars.len(),
                num_vars
            ),
        });
    }
    let sys = SrcSystem::derive(prog);
    let claim = SrcClaim::convert(&sys, raw)?;
    if let Some(r) = src_closure_counterexample(&sys, &claim) {
        return Err(r);
    }
    // Closed and seeded ⇒ the claim contains the least model; any
    // difference left is an unsupported (extra) fact.
    let lfp = src_least_model(&sys);
    let vals = &sys.vals;
    for i in 0..num_vars {
        if let Some(b) = first_excess(claim.nodes.row(i), lfp.nodes.row(i)) {
            return Err(Refutation::Unsupported {
                fact: format!("{:?} ∈ v{i}", vals.clo(b)),
            });
        }
    }
    for &l in &sys.terms.labels {
        let n = sys.id(SNode::Term(l));
        if let Some(b) = first_excess(claim.nodes.row(n), lfp.nodes.row(n)) {
            return Err(Refutation::Unsupported {
                fact: format!("{:?} ∈ t{l}", vals.clo(b)),
            });
        }
    }
    if let Some(r) = table_excess("calls", &sys.sites, &claim.calls, &lfp.calls, |b| {
        format!("{:?}", vals.clo(b))
    }) {
        return Err(r);
    }
    // The lfp calls table only holds non-empty entries; the claim matching
    // it elementwise plus having no extras means the key sets agree.
    if claim.calls.entries() != lfp.calls.occupied() {
        return Err(Refutation::Shape {
            detail: format!(
                "calls table has {} sites, least model has {}",
                claim.calls.entries(),
                lfp.calls.occupied()
            ),
        });
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaSrc,
        constraints: sys.constraints(),
        facts: claim.nodes.count() + claim.calls.rows.count(),
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

/// What every CPS-shaped checker knows of the program besides its
/// constraints: the value numbering, the call and return sites, and the λ
/// and continuation tables.
struct CpsIndex {
    vals: Values,
    call_sites: Sites,
    ret_sites: Sites,
    /// `λ label → (param var, k var)`.
    lam: LabelLookup<(CVarId, CVarId)>,
    /// continuation label → binder var.
    cont_var: LabelLookup<CVarId>,
    num_vars: usize,
}

impl CpsIndex {
    /// The numbering and tables of `prog`; the sites are filled in once the
    /// system's walk has found them.
    fn new(prog: &CpsProgram) -> CpsIndex {
        let n = prog.label_count();
        let lams = prog.lambdas();
        let conts = prog.conts();
        CpsIndex {
            vals: Values::new(
                n,
                lams.keys().copied().collect(),
                Some(conts.keys().copied().collect()),
            ),
            call_sites: Sites::new(n, Vec::new()),
            ret_sites: Sites::new(n, Vec::new()),
            lam: LabelLookup::build(n, lams.iter().map(|(&l, r)| (l, (r.param_id, r.k_id)))),
            cont_var: LabelLookup::build(n, conts.iter().map(|(&l, r)| (l, r.var_id))),
            num_vars: prog.num_vars(),
        }
    }
}

/// The CPS constraint system, re-derived by an independent walk.
struct CpsSystem {
    seeds: Vec<(CpsFlow, CVarId)>,
    subs: Vec<(CVarId, CVarId)>,
    /// `(k var, returned operand, site)`.
    rets: Vec<(CVarId, Op, Label)>,
    /// `(operator, argument, literal continuation label, site)`.
    calls: Vec<(Op, Op, Label, Label)>,
    ix: CpsIndex,
}

impl CpsSystem {
    fn derive(prog: &CpsProgram) -> CpsSystem {
        let mut sys = CpsSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            rets: Vec::new(),
            calls: Vec::new(),
            ix: CpsIndex::new(prog),
        };
        sys.walk(prog.root(), prog);
        let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        sys.seeds.push((CpsFlow::Kont(AbsKont::Stop), k0));
        let n = prog.label_count();
        sys.ix.call_sites = Sites::new(n, sys.calls.iter().map(|c| c.3).collect());
        sys.ix.ret_sites = Sites::new(n, sys.rets.iter().map(|r| r.2).collect());
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

/// A claimed CPS-shaped answer's tables, borrowed from whichever container
/// it arrived in (an analyzer result or a cache mirror).
struct CpsRaw<'a> {
    vars: Vec<&'a BTreeSet<CpsFlow>>,
    returns: Vec<(Label, &'a BTreeSet<AbsKont>)>,
    calls: Vec<(Label, &'a BTreeSet<AbsClo>)>,
}

impl<'a> CpsRaw<'a> {
    /// Over an analyzer result's tables (CPS 0CFA and pushdown share them).
    fn of_result(
        vars: &'a [Rc<BTreeSet<CpsFlow>>],
        returns: &'a LabelTable<BTreeSet<AbsKont>>,
        calls: &'a LabelTable<BTreeSet<AbsClo>>,
    ) -> Self {
        CpsRaw {
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
        CpsRaw {
            vars: vars.iter().collect(),
            returns: returns.iter().map(|(l, s)| (*l, s)).collect(),
            calls: calls.iter().map(|(l, s)| (*l, s)).collect(),
        }
    }
}

/// A claimed CPS-shaped answer (CPS 0CFA or pushdown) as rows.
struct CpsClaim {
    vars: Rows,
    returns: Table,
    calls: Table,
}

impl CpsClaim {
    fn convert(ix: &CpsIndex, raw: &CpsRaw<'_>) -> Result<CpsClaim, Refutation> {
        let vals = &ix.vals;
        let mut vars = Rows::new(raw.vars.len(), vals.len());
        for (i, set) in raw.vars.iter().enumerate() {
            fill(&mut vars, i, set, |f| vals.flow_bit(f))?;
        }
        Ok(CpsClaim {
            vars,
            returns: claim_table("returns", &raw.returns, &ix.ret_sites, vals.len(), |k| {
                vals.kont_bit(k)
            })?,
            calls: claim_table("calls", &raw.calls, &ix.call_sites, vals.len(), |c| {
                vals.clo_bit(c)
            })?,
        })
    }

    /// The flow bits of an operand in the claimed store, ascending.
    fn op_bits<'s>(&'s self, vals: &Values, op: Op) -> impl Iterator<Item = usize> + 's {
        let (c, row) = match op {
            Op::None => (None, None),
            Op::Const(c) => (Some(vals.bit(c)), None),
            Op::Var(v) => (None, Some(self.vars.row(v.index()))),
        };
        c.into_iter().chain(row.into_iter().flat_map(bits))
    }

    /// The first flow of `op` that variable `dst` lacks.
    fn op_missing(&self, vals: &Values, op: Op, dst: CVarId) -> Option<CpsFlow> {
        let dst = dst.index();
        match op {
            Op::None => None,
            Op::Const(c) => (!self.vars.has(dst, vals.bit(c))).then_some(c),
            Op::Var(v) => {
                first_excess(self.vars.row(v.index()), self.vars.row(dst)).map(|b| vals.flow(b))
            }
        }
    }

    fn facts(&self) -> usize {
        self.vars.count() + self.returns.rows.count() + self.calls.rows.count()
    }
}

/// The recomputed CPS least model: one row per variable, return site and
/// call site.
struct CpsModel {
    vars: Rows,
    returns: Rows,
    calls: Rows,
}

/// Least model of the re-derived CPS system, semi-naively: a closure
/// reaching a call's operator records the call edge, links the argument to
/// the parameter and derives the literal continuation in the callee's `k`;
/// a continuation reaching a return's `k` records the return edge and
/// links the returned operand to the continuation's binder.
fn cps_least_model(sys: &CpsSystem) -> CpsModel {
    let ix = &sys.ix;
    let vals = &ix.vals;
    let mut fl = Flows::new(ix.num_vars, vals.len());
    let mut returns = Rows::new(ix.ret_sites.len(), vals.len());
    let mut calls = Rows::new(ix.call_sites.len(), vals.len());
    let hooks = cps_hooks(ix.num_vars, &sys.calls, &sys.rets);
    let call = |fl: &mut Flows, calls: &mut Rows, i: usize, b: usize| {
        let (_, arg, cont, site) = sys.calls[i];
        calls.set(ix.call_sites.at(site), b);
        if let Some(l) = vals.lam(b) {
            let (param, kvar) = ix.lam.expect(l);
            fl.flow(vals, arg, param);
            fl.add(kvar.index(), vals.co(cont));
        }
    };
    for &(src, dst) in &sys.subs {
        fl.edge(src.index(), dst.index());
    }
    for &(c, dst) in &sys.seeds {
        fl.add(dst.index(), vals.bit(c));
    }
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        if let Op::Const(c @ CpsFlow::Clo(_)) = f {
            call(&mut fl, &mut calls, i, vals.bit(c));
        }
    }
    let mut delta = Vec::new();
    while let Some(n) = fl.next(&mut delta) {
        for &hook in &hooks[n] {
            match hook {
                Hook::Call(i) => {
                    for b in bits(&delta).take_while(|&b| !vals.is_kont(b)) {
                        call(&mut fl, &mut calls, i, b);
                    }
                }
                Hook::Ret(i) => {
                    let (_, w, site) = sys.rets[i];
                    let slot = ix.ret_sites.at(site);
                    for b in bits(&delta).filter(|&b| vals.is_kont(b)) {
                        returns.set(slot, b);
                        if let AbsKont::Co(l) = vals.kont(b) {
                            fl.flow(vals, w, ix.cont_var.expect(l));
                        }
                    }
                }
            }
        }
    }
    CpsModel {
        vars: fl.sets,
        returns,
        calls,
    }
}

/// The static part of a CPS-shaped closure scan: every seed and every
/// subset edge must hold in the claimed store.
fn static_counterexample(
    seeds: &[(CpsFlow, CVarId)],
    subs: &[(CVarId, CVarId)],
    vals: &Values,
    vars: &Rows,
) -> Option<Refutation> {
    for &(c, dst) in seeds {
        if !vars.has(dst.index(), vals.bit(c)) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ v{}", dst.index()),
                missing: format!("{c:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(src, dst) in subs {
        if let Some(b) = first_excess(vars.row(src.index()), vars.row(dst.index())) {
            return Some(Refutation::Unclosed {
                edge: format!("v{} ⊆ v{}", src.index(), dst.index()),
                missing: format!("{:?} ∈ v{}", vals.flow(b), dst.index()),
            });
        }
    }
    None
}

/// Closure scan of a claimed CPS store; first violated constraint, if any.
fn cps_closure_counterexample(sys: &CpsSystem, claim: &CpsClaim) -> Option<Refutation> {
    let ix = &sys.ix;
    let vals = &ix.vals;
    let vars = &claim.vars;
    if let Some(r) = static_counterexample(&sys.seeds, &sys.subs, vals, vars) {
        return Some(r);
    }
    for &(k, w, site) in &sys.rets {
        let slot = ix.ret_sites.at(site);
        for b in bits(vars.row(k.index())).filter(|&b| vals.is_kont(b)) {
            let kk = vals.kont(b);
            if !claim.returns.rows.has(slot, b) {
                return Some(Refutation::Unclosed {
                    edge: format!("ret@{site}"),
                    missing: format!("{kk:?} ∈ returns[{site}]"),
                });
            }
            if let AbsKont::Co(l) = kk {
                let binder = ix.cont_var.expect(l);
                if let Some(f) = claim.op_missing(vals, w, binder) {
                    return Some(Refutation::Unclosed {
                        edge: format!("ret@{site} ⊆ v{}", binder.index()),
                        missing: format!("{f:?} ∈ v{}", binder.index()),
                    });
                }
            }
        }
    }
    for &(f, arg, cont, site) in &sys.calls {
        let slot = ix.call_sites.at(site);
        for b in claim.op_bits(vals, f).take_while(|&b| !vals.is_kont(b)) {
            if !claim.calls.rows.has(slot, b) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{:?} ∈ calls[{site}]", vals.clo(b)),
                });
            }
            let Some(l) = vals.lam(b) else { continue };
            let (param, kvar) = ix.lam.expect(l);
            if let Some(a) = claim.op_missing(vals, arg, param) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} arg ⊆ v{}", param.index()),
                    missing: format!("{a:?} ∈ v{}", param.index()),
                });
            }
            if !vars.has(kvar.index(), vals.co(cont)) {
                let kc = CpsFlow::Kont(AbsKont::Co(cont));
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} cont ⊆ v{}", kvar.index()),
                    missing: format!("{kc:?} ∈ v{}", kvar.index()),
                });
            }
        }
    }
    None
}

/// Shared tail of the CPS-shaped certifiers: claim closed, compare against
/// the recomputed least model; any residual difference is unsupported.
fn cps_store_excess(ix: &CpsIndex, claim: &CpsClaim, lfp: &CpsModel) -> Option<Refutation> {
    let vals = &ix.vals;
    for i in 0..claim.vars.len() {
        if let Some(b) = first_excess(claim.vars.row(i), lfp.vars.row(i)) {
            return Some(Refutation::Unsupported {
                fact: format!("{:?} ∈ v{i}", vals.flow(b)),
            });
        }
    }
    let excess = table_excess(
        "returns",
        &ix.ret_sites,
        &claim.returns,
        &lfp.returns,
        |b| format!("{:?}", vals.kont(b)),
    );
    if excess.is_some() {
        return excess;
    }
    let excess = table_excess("calls", &ix.call_sites, &claim.calls, &lfp.calls, |b| {
        format!("{:?}", vals.clo(b))
    });
    if excess.is_some() {
        return excess;
    }
    let (calls, returns) = (claim.calls.entries(), claim.returns.entries());
    if returns != lfp.returns.occupied() || calls != lfp.calls.occupied() {
        return Some(Refutation::Shape {
            detail: format!(
                "{calls}×{returns} call/return sites claimed, least model has {}×{}",
                lfp.calls.occupied(),
                lfp.returns.occupied()
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
        &CpsRaw::of_result(&claimed.vars, &claimed.returns, &claimed.calls),
    )
}

fn certify_cps_claim(prog: &CpsProgram, raw: &CpsRaw<'_>) -> Result<Certificate, Refutation> {
    vars_shape(raw.vars.len(), prog)?;
    let sys = CpsSystem::derive(prog);
    let claim = CpsClaim::convert(&sys.ix, raw)?;
    if let Some(r) = cps_closure_counterexample(&sys, &claim) {
        return Err(r);
    }
    let lfp = cps_least_model(&sys);
    if let Some(r) = cps_store_excess(&sys.ix, &claim, &lfp) {
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
    /// Call site → its literal continuation.
    call_cont: LabelLookup<Label>,
    top_k: CVarId,
    ix: CpsIndex,
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
        let mut sys = PdSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            joins: Vec::new(),
            calls: Vec::new(),
            templates: HashMap::new(),
            join_of: HashMap::new(),
            halt_returns: Vec::new(),
            join_returns: Vec::new(),
            call_cont: LabelLookup::build(0, []),
            top_k,
            ix: CpsIndex::new(prog),
        };
        sys.walk(prog.root(), None, prog)?;
        let n = prog.label_count();
        sys.ix.call_sites = Sites::new(n, sys.calls.iter().map(|c| c.3).collect());
        sys.call_cont = LabelLookup::build(n, sys.calls.iter().map(|c| (c.3, c.2)));
        let rets = sys.halt_returns.iter().copied();
        let rets = rets.chain(sys.join_returns.iter().map(|&(site, _)| site));
        let rets = rets.chain(sys.templates.values().flatten().map(|t| t.site));
        sys.ix.ret_sites = Sites::new(n, rets.collect());
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
                self.enter_val(w, prog)?;
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match cps_op_of(val, prog) {
                    Op::None => {}
                    Op::Const(c) => self.seeds.push((c, x)),
                    Op::Var(y) => self.subs.push((y, x)),
                }
                self.enter_val(val, prog)?;
                self.walk(body, frame, prog)?;
            }
            CTermKind::Call { f, arg, cont } => {
                let fo = cps_op_of(f, prog);
                let ao = cps_op_of(arg, prog);
                self.calls.push((fo, ao, cont.label, t.label));
                self.enter_val(f, prog)?;
                self.enter_val(arg, prog)?;
                // The literal continuation body runs in the caller's frame.
                self.walk(&cont.body, frame, prog)?;
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
                self.walk(&cont.body, frame, prog)?;
                self.walk(then_, frame, prog)?;
                self.walk(else_, frame, prog)?;
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, frame, prog)?,
        }
        Ok(())
    }

    fn enter_val(&mut self, v: &CVal, prog: &CpsProgram) -> Result<(), Refutation> {
        if let CValKind::Lam { body, .. } = &v.kind {
            let (param, k) = self.ix.lam.expect(v.label);
            let f = PdFrame {
                label: v.label,
                param,
                k,
            };
            self.walk(body, Some(f), prog)?;
        }
        Ok(())
    }

    /// Whether `m` is a matched-return witness of the least model `lfp`:
    /// its call site applies its callee there and continues with its
    /// continuation, and its return site is one of the callee's frame
    /// returns. The least model's witnesses are exactly these, so they are
    /// read off its call table rather than stored.
    fn matches(&self, lfp: &CpsModel, m: &MatchedReturn) -> bool {
        let ix = &self.ix;
        let (Some(slot), Some(b)) = (
            ix.call_sites.slot(m.call_site),
            ix.vals.clo_bit(AbsClo::Lam(m.callee)),
        ) else {
            return false;
        };
        lfp.calls.has(slot, b)
            && self.call_cont.get(m.call_site) == Some(m.cont)
            && self
                .templates(m.callee)
                .iter()
                .any(|t| t.site == m.ret_site)
    }
}

/// A claimed pushdown answer: the CPS-shaped tables plus the matched
/// witnesses.
struct PdRaw<'a> {
    st: CpsRaw<'a>,
    matched: Vec<MatchedReturn>,
}

impl<'a> PdRaw<'a> {
    fn of_result(r: &'a PushdownCfaResult) -> Self {
        PdRaw {
            st: CpsRaw::of_result(&r.vars, &r.returns, &r.calls),
            matched: r.matched.iter().copied().collect(),
        }
    }

    /// A cache mirror stores the witnesses as a list; they are sorted and
    /// deduplicated once (16-byte `Copy` records, no flow sets).
    fn of_send(s: &'a SendPushdown) -> Self {
        let mut matched = s.matched.clone();
        matched.sort_unstable();
        matched.dedup();
        PdRaw {
            st: CpsRaw::of_send(&s.vars, &s.returns, &s.calls),
            matched,
        }
    }
}

/// Least model of the re-derived pushdown system: the same semi-naive
/// propagation over the static edges, with each (call, λ) pair instantiating
/// the callee's return templates once, then the static continuation-variable
/// fill the analyzer performs after its solve. The matched witnesses are
/// implied by the call table ([`PdSystem::matches`]).
fn pd_least_model(sys: &PdSystem) -> CpsModel {
    let ix = &sys.ix;
    let vals = &ix.vals;
    let mut fl = Flows::new(ix.num_vars, vals.len());
    let mut returns = Rows::new(ix.ret_sites.len(), vals.len());
    let mut calls = Rows::new(ix.call_sites.len(), vals.len());
    let hooks = cps_hooks(ix.num_vars, &sys.calls, &[]);
    // Halt and join returns are static, reachability-blind facts.
    for &site in &sys.halt_returns {
        returns.set(ix.ret_sites.at(site), vals.stop());
    }
    for &(site, cont) in &sys.join_returns {
        returns.set(ix.ret_sites.at(site), vals.co(cont));
    }
    for &(src, dst) in &sys.subs {
        fl.edge(src.index(), dst.index());
    }
    for &(w, cont) in &sys.joins {
        fl.flow(vals, w, ix.cont_var.expect(cont));
    }
    for &(c, dst) in &sys.seeds {
        fl.add(dst.index(), vals.bit(c));
    }
    let mut call = |fl: &mut Flows, i: usize, b: usize| {
        let (_, arg, cont, site) = sys.calls[i];
        calls.set(ix.call_sites.at(site), b);
        let Some(l) = vals.lam(b) else { return };
        let (param, _kvar) = ix.lam.expect(l);
        fl.flow(vals, arg, param);
        let binder = ix.cont_var.expect(cont);
        for tpl in sys.templates(l) {
            returns.set(ix.ret_sites.at(tpl.site), vals.co(cont));
            fl.flow(vals, if tpl.own_param { arg } else { tpl.w }, binder);
        }
    };
    for (i, &(f, ..)) in sys.calls.iter().enumerate() {
        if let Op::Const(c @ CpsFlow::Clo(_)) = f {
            call(&mut fl, i, vals.bit(c));
        }
    }
    let mut delta = Vec::new();
    while let Some(n) = fl.next(&mut delta) {
        for &hook in &hooks[n] {
            if let Hook::Call(i) = hook {
                for b in bits(&delta).take_while(|&b| !vals.is_kont(b)) {
                    call(&mut fl, i, b);
                }
            }
        }
    }
    let mut st = CpsModel {
        vars: fl.sets,
        returns,
        calls,
    };
    pd_fill(sys, &mut st);
    st
}

/// Post-fixpoint continuation-variable fill, exactly as the analyzer
/// commits it: matched frames into each λ's `k`, the static join
/// continuation into each `letk` binder, `stop` into the top `k`.
fn pd_fill(sys: &PdSystem, st: &mut CpsModel) {
    let ix = &sys.ix;
    for &(_, _, cont, site) in &sys.calls {
        let co = ix.vals.co(cont);
        for l in bits(st.calls.row(ix.call_sites.at(site))).filter_map(|b| ix.vals.lam(b)) {
            let (_param, kvar) = ix.lam.expect(l);
            st.vars.set(kvar.index(), co);
        }
    }
    for (&kvar, &cont) in &sys.join_of {
        st.vars.set(kvar, ix.vals.co(cont));
    }
    st.vars.set(sys.top_k.index(), ix.vals.stop());
}

/// Closure scan of a claimed pushdown store; first violated constraint.
fn pd_closure_counterexample(
    sys: &PdSystem,
    st: &CpsClaim,
    matched: &[MatchedReturn],
) -> Option<Refutation> {
    let ix = &sys.ix;
    let vals = &ix.vals;
    if let Some(r) = static_counterexample(&sys.seeds, &sys.subs, vals, &st.vars) {
        return Some(r);
    }
    for &site in &sys.halt_returns {
        if !st.returns.rows.has(ix.ret_sites.at(site), vals.stop()) {
            return Some(Refutation::Unclosed {
                edge: format!("halt return@{site}"),
                missing: format!("stop ∈ returns[{site}]"),
            });
        }
    }
    for &(site, cont) in &sys.join_returns {
        if !st.returns.rows.has(ix.ret_sites.at(site), vals.co(cont)) {
            return Some(Refutation::Unclosed {
                edge: format!("join return@{site}"),
                missing: format!("co@{cont} ∈ returns[{site}]"),
            });
        }
    }
    for &(w, cont) in &sys.joins {
        let binder = ix.cont_var.expect(cont);
        if let Some(v) = st.op_missing(vals, w, binder) {
            return Some(Refutation::Unclosed {
                edge: format!("join ⊆ v{}", binder.index()),
                missing: format!("{v:?} ∈ v{}", binder.index()),
            });
        }
    }
    for &(f, arg, cont, site) in &sys.calls {
        let slot = ix.call_sites.at(site);
        for b in st.op_bits(vals, f).take_while(|&b| !vals.is_kont(b)) {
            if !st.calls.rows.has(slot, b) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{:?} ∈ calls[{site}]", vals.clo(b)),
                });
            }
            let Some(l) = vals.lam(b) else { continue };
            let (param, kvar) = ix.lam.expect(l);
            if let Some(a) = st.op_missing(vals, arg, param) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} arg ⊆ v{}", param.index()),
                    missing: format!("{a:?} ∈ v{}", param.index()),
                });
            }
            // Matched-call fill: the caller's frame must be visible in the
            // callee's k slot.
            let co = vals.co(cont);
            if !st.vars.has(kvar.index(), co) {
                let kc = CpsFlow::Kont(AbsKont::Co(cont));
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} frame ⊆ v{}", kvar.index()),
                    missing: format!("{kc:?} ∈ v{}", kvar.index()),
                });
            }
            let binder = ix.cont_var.expect(cont);
            for tpl in sys.templates(l) {
                if !st.returns.rows.has(ix.ret_sites.at(tpl.site), co) {
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
                if matched.binary_search(&m).is_err() {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site}"),
                        missing: format!("matched witness {m:?}"),
                    });
                }
                let w = if tpl.own_param { arg } else { tpl.w };
                if let Some(v) = st.op_missing(vals, w, binder) {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site} ⊆ v{}", binder.index()),
                        missing: format!("{v:?} ∈ v{}", binder.index()),
                    });
                }
            }
        }
    }
    // Static fills.
    for (&kvar, &cont) in &sys.join_of {
        if !st.vars.has(kvar, vals.co(cont)) {
            let kc = CpsFlow::Kont(AbsKont::Co(cont));
            return Some(Refutation::Unclosed {
                edge: format!("letk fill ⊆ v{kvar}"),
                missing: format!("{kc:?} ∈ v{kvar}"),
            });
        }
    }
    if !st.vars.has(sys.top_k.index(), vals.stop()) {
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
    certify_pd_claim(prog, &PdRaw::of_result(claimed))
}

fn certify_pd_claim(prog: &CpsProgram, raw: &PdRaw<'_>) -> Result<Certificate, Refutation> {
    vars_shape(raw.st.vars.len(), prog)?;
    let sys = PdSystem::derive(prog)?;
    let st = CpsClaim::convert(&sys.ix, &raw.st)?;
    if let Some(r) = pd_closure_counterexample(&sys, &st, &raw.matched) {
        return Err(r);
    }
    let lfp = pd_least_model(&sys);
    if let Some(m) = raw.matched.iter().find(|m| !sys.matches(&lfp, m)) {
        return Err(Refutation::Unsupported {
            fact: format!("matched witness {m:?}"),
        });
    }
    if let Some(r) = cps_store_excess(&sys.ix, &st, &lfp) {
        return Err(r);
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaPushdown,
        constraints: sys.constraints(),
        facts: st.facts() + raw.matched.len(),
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
/// sets are converted to the checker's rows once, not copied into an
/// analyzer result first.
pub fn certify_answer(prog: &AnfProgram, answer: &CachedAnswer) -> Result<Certificate, Refutation> {
    match answer {
        CachedAnswer::CfaSrc(s) => certify_src_claim(prog, &SrcRaw::of_send(s)),
        CachedAnswer::CfaCps(s) => {
            let cps = CpsProgram::from_anf(prog);
            certify_cps_claim(&cps, &CpsRaw::of_send(&s.vars, &s.returns, &s.calls))
        }
        CachedAnswer::CfaPushdown(s) => {
            let cps = CpsProgram::from_anf(prog);
            certify_pd_claim(&cps, &PdRaw::of_send(s))
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

/// Naive round-robin Kleene iteration over plain `BTreeSet`s: the reference
/// the bit-row worklists above are tested against. Every round re-applies
/// every static and every call-discovered edge until nothing grows.
/// Test-only — not a runtime path.
#[cfg(test)]
mod kleene {
    use super::*;
    use std::collections::BTreeMap;

    /// A source least model as sets: one per flow node, plus the call
    /// table (non-empty entries only).
    #[derive(Debug, PartialEq)]
    pub(super) struct SrcSets {
        pub(super) nodes: Vec<BTreeSet<AbsClo>>,
        pub(super) calls: LabelTable<BTreeSet<AbsClo>>,
    }

    /// A CPS least model as sets (non-empty table entries only).
    #[derive(Debug, PartialEq)]
    pub(super) struct CpsSets {
        pub(super) vars: Vec<BTreeSet<CpsFlow>>,
        pub(super) returns: LabelTable<BTreeSet<AbsKont>>,
        pub(super) calls: LabelTable<BTreeSet<AbsClo>>,
    }

    /// A pushdown least model as sets: the CPS tables plus the
    /// matched-return witnesses.
    #[derive(Debug, PartialEq)]
    pub(super) struct PdSets {
        pub(super) st: CpsSets,
        pub(super) matched: BTreeSet<MatchedReturn>,
    }

    fn row_set<T: Ord>(row: &[u64], value: impl Fn(usize) -> T) -> BTreeSet<T> {
        bits(row).map(value).collect()
    }

    fn row_table<T: Ord>(
        sites: &Sites,
        rows: &Rows,
        value: impl Fn(usize) -> T,
    ) -> LabelTable<BTreeSet<T>> {
        sites
            .labels
            .iter()
            .enumerate()
            .filter(|&(i, _)| !is_empty(rows.row(i)))
            .map(|(i, &l)| (l, row_set(rows.row(i), &value)))
            .collect()
    }

    impl SrcSets {
        /// The bit-row model as sets, for table-for-table comparison.
        pub(super) fn of_rows(sys: &SrcSystem, m: &SrcModel) -> SrcSets {
            SrcSets {
                nodes: (0..m.nodes.len())
                    .map(|i| row_set(m.nodes.row(i), |b| sys.vals.clo(b)))
                    .collect(),
                calls: row_table(&sys.sites, &m.calls, |b| sys.vals.clo(b)),
            }
        }
    }

    impl CpsSets {
        /// The bit-row model as sets, for table-for-table comparison.
        pub(super) fn of_rows(ix: &CpsIndex, m: &CpsModel) -> CpsSets {
            CpsSets {
                vars: (0..m.vars.len())
                    .map(|i| row_set(m.vars.row(i), |b| ix.vals.flow(b)))
                    .collect(),
                returns: row_table(&ix.ret_sites, &m.returns, |b| ix.vals.kont(b)),
                calls: row_table(&ix.call_sites, &m.calls, |b| ix.vals.clo(b)),
            }
        }
    }

    impl PdSets {
        /// The bit-row model as sets, with the witnesses its call table
        /// implies spelled out.
        pub(super) fn of_rows(sys: &PdSystem, m: &CpsModel) -> PdSets {
            let ix = &sys.ix;
            let mut matched = BTreeSet::new();
            for &(_, _, cont, site) in &sys.calls {
                for l in bits(m.calls.row(ix.call_sites.at(site))).filter_map(|b| ix.vals.lam(b)) {
                    for tpl in sys.templates(l) {
                        matched.insert(MatchedReturn {
                            ret_site: tpl.site,
                            callee: l,
                            call_site: site,
                            cont,
                        });
                    }
                }
            }
            PdSets {
                st: CpsSets::of_rows(ix, m),
                matched,
            }
        }
    }

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

    pub(super) fn src_least_model(sys: &SrcSystem) -> SrcSets {
        let id = |n: SNode| sys.id(n);
        let mut st = SrcSets {
            nodes: vec![BTreeSet::new(); sys.nodes],
            calls: LabelTable::new(0),
        };
        for &(v, dst) in &sys.seeds {
            st.nodes[id(dst)].insert(v);
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

    pub(super) fn cps_least_model(sys: &CpsSystem) -> CpsSets {
        let ix = &sys.ix;
        let mut st = CpsSets {
            vars: vec![BTreeSet::new(); ix.num_vars],
            returns: LabelTable::new(0),
            calls: LabelTable::new(0),
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
                        let binder = ix.cont_var.expect(l);
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
                        let (param, kvar) = ix.lam.expect(l);
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

    pub(super) fn pd_least_model(sys: &PdSystem) -> PdSets {
        let ix = &sys.ix;
        let mut st = CpsSets {
            vars: vec![BTreeSet::new(); ix.num_vars],
            returns: LabelTable::new(0),
            calls: LabelTable::new(0),
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
                let binder = ix.cont_var.expect(cont);
                let flows = cps_op_flows(&st.vars, w);
                changed |= add_all(&mut st.vars[binder.index()], flows);
            }
            for &(f, arg, cont, site) in &sys.calls {
                for v in cps_op_flows(&st.vars, f) {
                    let CpsFlow::Clo(clo) = v else { continue };
                    changed |= st.calls.entry_or_default(site).insert(clo);
                    let AbsClo::Lam(l) = clo else { continue };
                    let (param, _kvar) = ix.lam.expect(l);
                    let flows = cps_op_flows(&st.vars, arg);
                    changed |= add_all(&mut st.vars[param.index()], flows);
                    changed |= callers.entry(l).or_default().insert(cont);
                    let binder = ix.cont_var.expect(cont);
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
        // The analyzer's post-solve fill.
        for (l, conts) in &callers {
            let (_param, kvar) = ix.lam.expect(*l);
            for &c in conts {
                st.vars[kvar.index()].insert(CpsFlow::Kont(AbsKont::Co(c)));
            }
        }
        for (&kvar, &cont) in &sys.join_of {
            st.vars[kvar].insert(CpsFlow::Kont(AbsKont::Co(cont)));
        }
        st.vars[sys.top_k.index()].insert(CpsFlow::Kont(AbsKont::Stop));
        PdSets { st, matched }
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
    use crate::cache::{SendCfa, SendCpsCfa};
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
    fn forged_table_keys_refute_instead_of_allocating() {
        // A cached or recovered answer whose `calls`/`returns`/`terms` key
        // is near `u32::MAX` must be looked up through the program's site
        // index and refute — not size a table to the key.
        let far = Label::new(u32::MAX - 1);
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let c = CpsProgram::from_anf(&p);
        let src = SendCfa::from_result(&zero_cfa(&p).unwrap());
        let cps = SendCpsCfa::from_result(&zero_cfa_cps(&c).unwrap());
        let pd = SendPushdown::from_result(&pushdown_cfa(&c).unwrap());
        let clos = BTreeSet::from([AbsClo::Inc]);
        let konts = BTreeSet::from([AbsKont::Stop]);
        let mut forged = Vec::new();
        let mut s = src.clone();
        s.terms.push((far, clos.clone()));
        forged.push(("src terms", CachedAnswer::CfaSrc(s)));
        let mut s = src.clone();
        s.calls.push((far, clos.clone()));
        forged.push(("src calls", CachedAnswer::CfaSrc(s)));
        let mut s = cps.clone();
        s.returns.push((far, konts.clone()));
        forged.push(("cps returns", CachedAnswer::CfaCps(s)));
        let mut s = cps.clone();
        s.calls.push((far, clos.clone()));
        forged.push(("cps calls", CachedAnswer::CfaCps(s)));
        let mut s = pd.clone();
        s.returns.push((far, konts));
        forged.push(("pushdown returns", CachedAnswer::CfaPushdown(s)));
        let mut s = pd.clone();
        s.calls.push((far, clos));
        forged.push(("pushdown calls", CachedAnswer::CfaPushdown(s)));
        let mut s = pd.clone();
        s.matched.push(MatchedReturn {
            ret_site: far,
            callee: far,
            call_site: far,
            cont: far,
        });
        forged.push(("pushdown matched", CachedAnswer::CfaPushdown(s)));
        for answer in [
            CachedAnswer::CfaSrc(src),
            CachedAnswer::CfaCps(cps),
            CachedAnswer::CfaPushdown(pd),
        ] {
            certify_answer(&p, &answer).expect("the unforged answers certify");
        }
        for (table, answer) in &forged {
            assert!(
                certify_answer(&p, answer).is_err(),
                "a far {table} key certified"
            );
        }
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
            let model = kleene::SrcSets::of_rows(&sys, &src_least_model(&sys));
            assert_eq!(model, kleene::src_least_model(&sys), "{name}");
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
            let model = kleene::CpsSets::of_rows(&sys.ix, &cps_least_model(&sys));
            assert_eq!(model, kleene::cps_least_model(&sys), "{name}");
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
            let lfp = pd_least_model(&sys);
            let model = kleene::PdSets::of_rows(&sys, &lfp);
            let oracle = kleene::pd_least_model(&sys);
            assert_eq!(model, oracle, "{name}");
            for m in &oracle.matched {
                assert!(
                    sys.matches(&lfp, m),
                    "{name}: {m:?} not read off the call table"
                );
            }
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
