//! The semantic-CPS abstract collecting interpreter `C_e` of **Figure 5**.
//!
//! Derived from the continuation semantics of Figure 2. The continuation is
//! an explicit list of frames `(let (x []) M)`; the analyzer *applies the
//! continuation separately to each value* an expression may have:
//!
//! * at a conditional that may go both ways, each arm's analysis carries the
//!   whole remaining continuation — the continuation is **duplicated** per
//!   path (the source of Theorem 5.4's precision gain and §6.2's
//!   exponential cost);
//! * at a call site, each applicable closure is analyzed with the whole
//!   continuation.
//!
//! Unlike the syntactic-CPS analyzer (Figure 6) there is exactly one
//! current continuation at any point — no continuation *sets* — so the
//! false-return problem of §6.1 cannot arise (Theorem 5.5).
//!
//! With the §6.2 `loop` construct the analysis must apply the continuation
//! to every element of `{0, 1, 2, …}`: the least upper bound is not
//! computable, which here surfaces as budget exhaustion (unless the
//! [`SemCpsAnalyzer::with_loop_widening`] escape hatch is enabled).
//!
//! **Caveat on heavy recursion.** Theorem 5.4 (`C_e ⊑ M_e`) concerns the
//! idealized analyses; the §4.4 termination device interacts with
//! duplication. Because `C_e` analyzes the continuation per path, it visits
//! far more `(M, σ)` goals than `M_e`, so its loop rule fires more often,
//! and every cut injects `(⊤, CL⊤)` into the store. On fixpoint-combinator
//! programs this can leave the *terminating* `C_e` locally less precise
//! than `M_e` (see `tests/recursion.rs::cycle_cuts_can_invert_theorem_5_4_
//! on_heavy_recursion`). On cut-free programs the ordering is verified
//! bounded-exhaustively; soundness holds in all cases.

use crate::absval::{AbsAnswer, AbsClo, AbsStore, AbsVal};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::direct::clo_top_of;
use crate::domain::NumDomain;
use crate::flow::FlowLog;
use crate::stats::AnalysisStats;
use cpsdfa_anf::{AVal, AValKind, Anf, AnfKind, AnfProgram, Bind, LambdaRef, VarId};
use cpsdfa_syntax::Label;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// The result of a semantic-CPS analysis.
#[derive(Debug, Clone)]
pub struct SemCpsResult<D: NumDomain> {
    /// The abstract result value (joined over all analyzed paths).
    pub value: AbsVal<D>,
    /// The final abstract store.
    pub store: AbsStore<D>,
    /// Cost counters; `returns` counts continuation applications, where the
    /// duplication of §6.2 is visible.
    pub stats: AnalysisStats,
    /// Call / branch facts.
    pub flows: FlowLog,
}

/// The semantic-CPS abstract collecting interpreter `C_e` (Figure 5).
///
/// ```
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::domain::{Flat, NumDomain};
/// use cpsdfa_core::SemCpsAnalyzer;
///
/// // Theorem 5.2 case 1: the continuation is re-analyzed per branch, so
/// // the correlation between a1 and the second conditional is kept.
/// let p = AnfProgram::parse(
///     "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))",
/// )?;
/// let r = SemCpsAnalyzer::<Flat>::new(&p).analyze()?;
/// let a2 = p.var_named("a2").unwrap();
/// assert_eq!(r.store.get(a2).num.as_const(), Some(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SemCpsAnalyzer<'p, D: NumDomain> {
    prog: &'p AnfProgram,
    lambdas: HashMap<Label, LambdaRef<'p>>,
    clo_top: BTreeSet<AbsClo>,
    budget: AnalysisBudget,
    seeds: Vec<(VarId, AbsVal<D>)>,
    loop_widening: bool,
}

impl<'p, D: NumDomain> SemCpsAnalyzer<'p, D> {
    /// Creates an analyzer for `prog`; free variables default to `(⊤, ∅)`.
    pub fn new(prog: &'p AnfProgram) -> Self {
        SemCpsAnalyzer {
            prog,
            lambdas: prog.lambdas(),
            clo_top: clo_top_of(prog),
            budget: AnalysisBudget::default(),
            seeds: Vec::new(),
            loop_widening: false,
        }
    }

    /// Replaces the goal budget.
    #[must_use]
    pub fn with_budget(mut self, budget: AnalysisBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the initial abstract value of a (typically free) variable.
    #[must_use]
    pub fn with_seed(mut self, var: VarId, val: AbsVal<D>) -> Self {
        self.seeds.push((var, val));
        self
    }

    /// Replaces the faithful (non-terminating) `loop` rule — apply the
    /// continuation to each `i ∈ {0,1,2,…}` — with a single application to
    /// `(⊤, ∅)`. This is *not* the paper's analyzer; it is the obvious
    /// practical repair, used as a baseline in experiment E8.
    #[must_use]
    pub fn with_loop_widening(mut self, on: bool) -> Self {
        self.loop_widening = on;
        self
    }

    /// The initial store (same convention as the direct analyzer).
    pub fn initial_store(&self) -> AbsStore<D> {
        let mut store = AbsStore::bottom(self.prog.num_vars());
        let seeded: HashSet<VarId> = self.seeds.iter().map(|(v, _)| *v).collect();
        for &v in self.prog.free_vars() {
            if !seeded.contains(&v) {
                store.join_at(v, &AbsVal::new(D::top(), BTreeSet::new()));
            }
        }
        for (v, u) in &self.seeds {
            store.join_at(*v, u);
        }
        store
    }

    /// Runs the analysis with the empty continuation `nil`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BudgetExhausted`] if the goal budget runs out —
    /// expected for `loop`-bearing programs without widening, and for
    /// adversarially branchy programs (§6.2).
    pub fn analyze(&self) -> Result<SemCpsResult<D>, AnalysisError> {
        self.analyze_from(self.initial_store())
    }

    /// Runs the analysis from an explicit initial store.
    ///
    /// # Errors
    ///
    /// As for [`analyze`](SemCpsAnalyzer::analyze).
    pub fn analyze_from(&self, store: AbsStore<D>) -> Result<SemCpsResult<D>, AnalysisError> {
        let mut run = Run {
            a: self,
            path: HashSet::new(),
            depth: 0,
            stats: AnalysisStats::default(),
            flows: FlowLog::default(),
        };
        let AbsAnswer { value, store } = run.eval(self.prog.root(), &KList::nil(), store)?;
        Ok(SemCpsResult {
            value,
            store,
            stats: run.stats,
            flows: run.flows,
        })
    }

    /// `(⊤, CL⊤)` for the §4.4 loop rule.
    pub fn top_value(&self) -> AbsVal<D> {
        AbsVal::new(D::top(), self.clo_top.clone())
    }
}

/// An abstract continuation: a persistent list of frames `(let (x []) M)`
/// (environments are erased by the 0CFA abstraction, §4.1).
#[derive(Clone)]
struct KList<'p>(Option<Rc<KNode<'p>>>);

struct KNode<'p> {
    frame: KFrame<'p>,
    rest: KList<'p>,
}

#[derive(Clone, Copy)]
struct KFrame<'p> {
    var: VarId,
    body: &'p Anf,
}

impl<'p> KList<'p> {
    fn nil() -> Self {
        KList(None)
    }

    fn push(&self, frame: KFrame<'p>) -> Self {
        KList(Some(Rc::new(KNode {
            frame,
            rest: self.clone(),
        })))
    }

    fn pop(&self) -> Option<(KFrame<'p>, KList<'p>)> {
        self.0.as_ref().map(|n| (n.frame, n.rest.clone()))
    }
}

struct Run<'a, 'p, D: NumDomain> {
    a: &'a SemCpsAnalyzer<'p, D>,
    path: HashSet<(Label, AbsStore<D>)>,
    depth: usize,
    stats: AnalysisStats,
    flows: FlowLog,
}

impl<'p, D: NumDomain> Run<'_, 'p, D> {
    fn phi(&self, v: &'p AVal, store: &AbsStore<D>) -> AbsVal<D> {
        match &v.kind {
            AValKind::Num(n) => AbsVal::num(*n),
            AValKind::Var(x) => {
                let id = self.a.prog.var_id(x).expect("validated program variable");
                store.get(id).clone()
            }
            AValKind::Add1 => AbsVal::closure(AbsClo::Inc),
            AValKind::Sub1 => AbsVal::closure(AbsClo::Dec),
            AValKind::Lam(..) => AbsVal::closure(AbsClo::Lam(v.label)),
        }
    }

    fn var_id(&self, x: &cpsdfa_syntax::Ident) -> VarId {
        self.a.prog.var_id(x).expect("validated program variable")
    }

    /// `(M, κ, σ) ⊢Ce A` with §4.4 loop detection: a repeated `(M, σ)` goal
    /// returns `(⊤, CL⊤)` *to the continuation κ*.
    fn eval(
        &mut self,
        m: &'p Anf,
        kont: &KList<'p>,
        store: AbsStore<D>,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        self.depth += 1;
        self.stats.enter_goal(self.depth);
        self.a.budget.check(self.stats.goals)?;

        let key = (m.label, store.clone());
        if self.path.contains(&key) {
            self.stats.cycle_cuts += 1;
            self.depth -= 1;
            let top = self.a.top_value();
            return self.appr(kont, top, store);
        }
        self.path.insert(key.clone());
        let out = self.eval_inner(m, kont, store);
        self.path.remove(&key);
        self.depth -= 1;
        out
    }

    fn eval_inner(
        &mut self,
        m: &'p Anf,
        kont: &KList<'p>,
        store: AbsStore<D>,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        match &m.kind {
            // (V, κ, σ): return φe(V, σ) to κ.
            AnfKind::Value(v) => {
                let u = self.phi(v, &store);
                self.appr(kont, u, store)
            }
            AnfKind::Let { var, bind, body } => {
                let x = self.var_id(var);
                match bind {
                    Bind::Value(v) => {
                        let u = self.phi(v, &store);
                        let mut store = store;
                        store.join_at(x, &u);
                        self.eval(body, kont, store)
                    }
                    Bind::App(vf, va) => {
                        let u1 = self.phi(vf, &store);
                        let u2 = self.phi(va, &store);
                        let kont = kont.push(KFrame { var: x, body });
                        self.appk(m.label, &u1, &u2, &kont, store)
                    }
                    Bind::If0(vc, then_, else_) => {
                        let u0 = self.phi(vc, &store);
                        let kont = kont.push(KFrame { var: x, body });
                        if u0.is_exactly_zero() {
                            self.flows.record_branch(m.label, true, false);
                            self.eval(then_, &kont, store)
                        } else if !u0.may_be_zero() {
                            self.flows.record_branch(m.label, false, true);
                            self.eval(else_, &kont, store)
                        } else {
                            // Both arms, each with the whole continuation:
                            // the continuation's analysis is duplicated.
                            self.flows.record_branch(m.label, true, true);
                            let a1 = self.eval(then_, &kont, store.clone())?;
                            let a2 = self.eval(else_, &kont, store)?;
                            Ok(a1.join(&a2))
                        }
                    }
                    Bind::Loop => {
                        let kont = kont.push(KFrame { var: x, body });
                        if self.a.loop_widening {
                            let u = AbsVal::new(D::top(), BTreeSet::new());
                            return self.appr(&kont, u, store);
                        }
                        // §6.2: ⊔ᵢ appr(κ, ((i, ∅), σ)) over all i — not
                        // computable; the budget eventually stops us.
                        let mut acc: Option<AbsAnswer<D>> = None;
                        let mut i: i64 = 0;
                        loop {
                            let a = self.appr(&kont, AbsVal::num(i), store.clone())?;
                            acc = Some(match acc {
                                None => a,
                                Some(prev) => prev.join(&a),
                            });
                            i += 1;
                            // The budget check inside eval/appr goals is the
                            // only exit; a defensive check here keeps the
                            // loop honest even for continuation-free κ.
                            self.stats.goals += 1;
                            self.a.budget.check(self.stats.goals)?;
                        }
                    }
                }
            }
        }
    }

    /// `appk_e`: apply every closure of `u₁`, each with the whole
    /// continuation.
    fn appk(
        &mut self,
        site: Label,
        u1: &AbsVal<D>,
        u2: &AbsVal<D>,
        kont: &KList<'p>,
        store: AbsStore<D>,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        let elems: Vec<AbsClo> = u1.clos.iter().copied().collect();
        if elems.is_empty() {
            return Ok(AbsAnswer {
                value: AbsVal::bot(),
                store,
            });
        }
        let mut acc: Option<AbsAnswer<D>> = None;
        for clo in elems {
            self.flows.record_call(site, clo);
            let a = match clo {
                AbsClo::Inc => {
                    let u = AbsVal::new(u2.num.add1(), BTreeSet::new());
                    self.appr(kont, u, store.clone())?
                }
                AbsClo::Dec => {
                    let u = AbsVal::new(u2.num.sub1(), BTreeSet::new());
                    self.appr(kont, u, store.clone())?
                }
                AbsClo::Lam(l) => {
                    let lam = self.a.lambdas[&l];
                    let mut s = store.clone();
                    s.join_at(lam.param_id, u2);
                    self.eval(lam.body, kont, s)?
                }
            };
            acc = Some(match acc {
                None => a,
                Some(prev) => prev.join(&a),
            });
        }
        Ok(acc.expect("non-empty callee set"))
    }

    /// `appr_e`: return `u` to the continuation.
    fn appr(
        &mut self,
        kont: &KList<'p>,
        u: AbsVal<D>,
        store: AbsStore<D>,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        self.stats.returns += 1;
        match kont.pop() {
            None => Ok(AbsAnswer { value: u, store }),
            Some((frame, rest)) => {
                let mut store = store;
                store.join_at(frame.var, &u);
                self.eval(frame.body, &rest, store)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectAnalyzer;
    use crate::domain::Flat;

    fn analyze(src: &str) -> (AnfProgram, SemCpsResult<Flat>) {
        let p = AnfProgram::parse(src).unwrap();
        let r = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        (p, r)
    }

    fn num_of(p: &AnfProgram, r: &SemCpsResult<Flat>, x: &str) -> Flat {
        r.store.get(p.var_named(x).unwrap()).num
    }

    #[test]
    fn agrees_with_direct_on_straight_line_code() {
        let src = "(let (a 1) (let (b (add1 a)) (let (c (sub1 b)) c)))";
        let p = AnfProgram::parse(src).unwrap();
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let c = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        assert_eq!(d.value, c.value);
        assert!(d.store.leq(&c.store) && c.store.leq(&d.store));
    }

    #[test]
    fn theorem_52_case_1_duplication_gain() {
        // Direct: a1 = ⊤ ⇒ a2 = ⊤. Semantic-CPS: per-path a1 ∈ {0, 1},
        // both paths give a2 = 3.
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))";
        let (p, r) = analyze(src);
        assert_eq!(num_of(&p, &r, "a2").as_const(), Some(3));
        assert_eq!(r.value.num.as_const(), Some(3));
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        assert!(d.store.get(p.var_named("a2").unwrap()).num.is_top());
        // and the semantic-CPS result is at least as precise everywhere
        assert!(r.store.leq(&d.store));
    }

    #[test]
    fn theorem_52_case_2_callee_duplication_gain() {
        // f is one of two closures returning 0 / 1; the continuation
        // branches on the result. Per-callee duplication keeps a2 = 5.
        let src = "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1))) \
                     (let (a1 (f 3)) \
                       (let (a2 (if0 a1 5 (let (s (sub1 a1)) (if0 s 5 6)))) a2)))";
        let (p, r) = analyze(src);
        assert_eq!(num_of(&p, &r, "a2").as_const(), Some(5));
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        assert!(d.store.get(p.var_named("a2").unwrap()).num.is_top());
    }

    #[test]
    fn returns_count_duplication() {
        // A chain of two unknown conditionals: the tail is analyzed once
        // per path, so strictly more continuation applications than the
        // program has return points.
        let src = "(let (a (if0 z 0 1)) (let (b (if0 z 0 1)) (add1 b)))";
        let (_, r) = analyze(src);
        assert!(r.stats.returns > 4);
    }

    #[test]
    fn omega_terminates_via_cycle_cut() {
        let (_, r) = analyze("(let (w (lambda (x) (x x))) (let (r (w w)) r))");
        assert!(r.stats.cycle_cuts > 0);
        assert!(r.value.num.is_top());
    }

    #[test]
    fn loop_without_widening_exhausts_budget() {
        let p = AnfProgram::parse("(let (x (loop)) x)").unwrap();
        let r = SemCpsAnalyzer::<Flat>::new(&p)
            .with_budget(AnalysisBudget::new(10_000))
            .analyze();
        assert_eq!(
            r.unwrap_err(),
            AnalysisError::BudgetExhausted { budget: 10_000 }
        );
    }

    #[test]
    fn loop_with_widening_converges_to_direct_result() {
        let p = AnfProgram::parse("(let (x (loop)) (let (y (add1 x)) y))").unwrap();
        let r = SemCpsAnalyzer::<Flat>::new(&p)
            .with_loop_widening(true)
            .analyze()
            .unwrap();
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        assert_eq!(r.value, d.value);
        assert!(r.store.get(p.var_named("y").unwrap()).num.is_top());
    }

    #[test]
    fn semantic_cps_is_at_least_as_precise_as_direct() {
        // Theorem 5.4's testable ordering on a few programs.
        for src in [
            "(let (a (if0 z 1 2)) (add1 a))",
            "(let (f (lambda (x) (if0 x 0 1))) (let (a (f z)) a))",
            "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
            "(let (a (if0 z 7 7)) a)",
        ] {
            let p = AnfProgram::parse(src).unwrap();
            let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
            let c = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
            assert!(
                c.store.leq(&d.store) && c.value.leq(&d.value),
                "semantic-CPS less precise than direct on {src}"
            );
        }
    }
}
