//! The syntactic-CPS abstract collecting interpreter `M_s` of **Figure 6**.
//!
//! Analyzes CPS-transformed programs with the direct abstraction. Because
//! the CPS transformation reifies continuations into values, the analyzer
//! must collect, at each continuation variable `k`, the *set* of
//! continuations `k` may denote — and at a return `(k W)` it applies every
//! one of them and merges the results. This is §6.1's **false return**
//! problem (Theorem 5.1: the direct analysis of the source can be strictly
//! more precise). At the same time, each continuation application analyzes
//! the full rest of the program per incoming value, so the analyzer also
//! exhibits the duplication gain of Theorem 5.2.

use crate::absval::{AbsClo, AbsKont, CAbsAnswer, CAbsStore, CAbsVal};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::domain::NumDomain;
use crate::flow::FlowLog;
use crate::stats::AnalysisStats;
#[cfg(test)]
use cpsdfa_cps::VarKey;
use cpsdfa_cps::{CLambdaRef, CTerm, CTermKind, CVal, CValKind, CVarId, ContRef, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The result of a syntactic-CPS analysis.
#[derive(Debug, Clone)]
pub struct SynCpsResult<D: NumDomain> {
    /// What reaches `stop`, joined over all analyzed paths.
    pub value: CAbsVal<D>,
    /// The final abstract store (cells for both namespaces).
    pub store: CAbsStore<D>,
    /// Cost counters.
    pub stats: AnalysisStats,
    /// Call / branch / **return** facts; `flows.false_return_edges()`
    /// quantifies §6.1.
    pub flows: FlowLog,
}

/// The syntactic-CPS abstract collecting interpreter `M_s` (Figure 6).
///
/// ```
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::domain::{Flat, NumDomain};
/// use cpsdfa_core::SynCpsAnalyzer;
/// use cpsdfa_cps::CpsProgram;
///
/// // Theorem 5.1: the CPS analysis confuses the two returns of f, so a1
/// // (constant 1 under the direct analysis) becomes ⊤.
/// let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")?;
/// let c = CpsProgram::from_anf(&p);
/// let r = SynCpsAnalyzer::<Flat>::new(&c).analyze()?;
/// let a1 = c.var_named("a1").unwrap();
/// assert!(r.store.get(a1).num.is_top());
/// assert!(r.flows.false_return_edges() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SynCpsAnalyzer<'p, D: NumDomain> {
    prog: &'p CpsProgram,
    lambdas: HashMap<Label, CLambdaRef<'p>>,
    conts: HashMap<Label, ContRef<'p>>,
    clo_top: BTreeSet<AbsClo>,
    kont_top: BTreeSet<AbsKont>,
    budget: AnalysisBudget,
    seeds: Vec<(CVarId, CAbsVal<D>)>,
    loop_widening: bool,
}

impl<'p, D: NumDomain> SynCpsAnalyzer<'p, D> {
    /// Creates an analyzer for a CPS program; free user variables default
    /// to `(⊤, ∅, ∅)` and the top continuation variable to `{stop}`.
    pub fn new(prog: &'p CpsProgram) -> Self {
        let mut clo_top: BTreeSet<AbsClo> = prog
            .lambda_labels()
            .iter()
            .map(|&l| AbsClo::Lam(l))
            .collect();
        prog.root().visit_parts(
            &mut |v| match v.kind {
                CValKind::Add1K => {
                    clo_top.insert(AbsClo::Inc);
                }
                CValKind::Sub1K => {
                    clo_top.insert(AbsClo::Dec);
                }
                _ => {}
            },
            &mut |_| {},
        );
        // "K⊤ is the set of all abstract continuations (coe x, P) in the
        // program" — stop is not included.
        let kont_top = prog.cont_labels().iter().map(|&l| AbsKont::Co(l)).collect();
        SynCpsAnalyzer {
            prog,
            lambdas: prog.lambdas(),
            conts: prog.conts(),
            clo_top,
            kont_top,
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

    /// Overrides the initial abstract value of a variable (either
    /// namespace).
    #[must_use]
    pub fn with_seed(mut self, var: CVarId, val: CAbsVal<D>) -> Self {
        self.seeds.push((var, val));
        self
    }

    /// Replaces the faithful (non-terminating) `loop` rule with a single
    /// continuation application to `(⊤, ∅, ∅)` — the E8 baseline repair.
    #[must_use]
    pub fn with_loop_widening(mut self, on: bool) -> Self {
        self.loop_widening = on;
        self
    }

    /// The initial store: `σ[k₀ := (⊥, ∅, {stop})]`, free user variables
    /// `(⊤, ∅, ∅)` unless seeded.
    pub fn initial_store(&self) -> CAbsStore<D> {
        let mut store = CAbsStore::bottom(self.prog.num_vars());
        let seeded: HashSet<CVarId> = self.seeds.iter().map(|(v, _)| *v).collect();
        for &v in self.prog.free_vars() {
            if !seeded.contains(&v) {
                store.join_at(v, &CAbsVal::new(D::top(), BTreeSet::new(), BTreeSet::new()));
            }
        }
        let k0 = self
            .prog
            .kont_var_id(self.prog.top_k())
            .expect("top continuation variable is indexed");
        if !seeded.contains(&k0) {
            store.join_at(k0, &CAbsVal::kont(AbsKont::Stop));
        }
        for (v, u) in &self.seeds {
            store.join_at(*v, u);
        }
        store
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BudgetExhausted`] if the goal budget runs out.
    pub fn analyze(&self) -> Result<SynCpsResult<D>, AnalysisError> {
        self.analyze_from(self.initial_store())
    }

    /// Runs the analysis from an explicit initial store.
    ///
    /// # Errors
    ///
    /// As for [`analyze`](SynCpsAnalyzer::analyze).
    pub fn analyze_from(&self, store: CAbsStore<D>) -> Result<SynCpsResult<D>, AnalysisError> {
        let mut run = Run {
            a: self,
            path: HashSet::new(),
            depth: 0,
            stats: AnalysisStats::default(),
            flows: FlowLog::default(),
        };
        let CAbsAnswer { value, store } = run.eval(self.prog.root(), store)?;
        Ok(SynCpsResult {
            value,
            store,
            stats: run.stats,
            flows: run.flows,
        })
    }

    /// `(⊤, CL⊤, K⊤)` for the §4.4 loop rule.
    pub fn top_value(&self) -> CAbsVal<D> {
        CAbsVal::new(D::top(), self.clo_top.clone(), self.kont_top.clone())
    }
}

struct Run<'a, 'p, D: NumDomain> {
    a: &'a SynCpsAnalyzer<'p, D>,
    path: HashSet<(Label, CAbsStore<D>)>,
    depth: usize,
    stats: AnalysisStats,
    flows: FlowLog,
}

impl<'p, D: NumDomain> Run<'_, 'p, D> {
    /// `φ_s : cps(Λ)(W) × Stô → Val̂`.
    fn phi(&self, w: &'p CVal, store: &CAbsStore<D>) -> CAbsVal<D> {
        match &w.kind {
            CValKind::Num(n) => CAbsVal::num(*n),
            CValKind::Var(x) => {
                let id = self.a.prog.user_var_id(x).expect("indexed CPS variable");
                store.get(id).clone()
            }
            CValKind::Add1K => CAbsVal::closure(AbsClo::Inc),
            CValKind::Sub1K => CAbsVal::closure(AbsClo::Dec),
            CValKind::Lam { .. } => CAbsVal::closure(AbsClo::Lam(w.label)),
        }
    }

    /// `(P, σ) ⊢Ms A` with §4.4 loop detection.
    fn eval(&mut self, p: &'p CTerm, store: CAbsStore<D>) -> Result<CAbsAnswer<D>, AnalysisError> {
        self.depth += 1;
        self.stats.enter_goal(self.depth);
        self.a.budget.check(self.stats.goals)?;

        let key = (p.label, store.clone());
        if self.path.contains(&key) {
            self.stats.cycle_cuts += 1;
            self.depth -= 1;
            return Ok(CAbsAnswer {
                value: self.a.top_value(),
                store,
            });
        }
        self.path.insert(key.clone());
        let out = self.eval_inner(p, store);
        self.path.remove(&key);
        self.depth -= 1;
        out
    }

    fn eval_inner(
        &mut self,
        p: &'p CTerm,
        store: CAbsStore<D>,
    ) -> Result<CAbsAnswer<D>, AnalysisError> {
        match &p.kind {
            // (k W): apply every continuation in σ(k) — false returns live
            // here.
            CTermKind::Ret(k, w) => {
                let kid = self
                    .a
                    .prog
                    .kont_var_id(k)
                    .expect("indexed continuation variable");
                let konts: Vec<AbsKont> = store.get(kid).konts.iter().copied().collect();
                let u = self.phi(w, &store);
                for &kk in &konts {
                    self.flows.record_return(p.label, kk);
                }
                let mut acc: Option<CAbsAnswer<D>> = None;
                for kk in konts {
                    let a = self.apprs(kk, u.clone(), store.clone())?;
                    acc = Some(match acc {
                        None => a,
                        Some(prev) => prev.join(&a),
                    });
                }
                Ok(acc.unwrap_or(CAbsAnswer {
                    value: CAbsVal::bot(),
                    store,
                }))
            }
            CTermKind::Let { var, val, body } => {
                let u = self.phi(val, &store);
                let x = self.a.prog.user_var_id(var).expect("indexed CPS variable");
                let mut store = store;
                store.join_at(x, &u);
                self.eval(body, store)
            }
            // (W₁ W₂ (λx.P)): app_s over the closure set of W₁.
            CTermKind::Call { f, arg, cont } => {
                let u1 = self.phi(f, &store);
                let u2 = self.phi(arg, &store);
                let kv = CAbsVal::kont(AbsKont::Co(cont.label));
                let elems: Vec<AbsClo> = u1.clos.iter().copied().collect();
                if elems.is_empty() {
                    return Ok(CAbsAnswer {
                        value: CAbsVal::bot(),
                        store,
                    });
                }
                let mut acc: Option<CAbsAnswer<D>> = None;
                for clo in elems {
                    self.flows.record_call(p.label, clo);
                    let a = match clo {
                        AbsClo::Inc => {
                            let u = CAbsVal::new(u2.num.add1(), BTreeSet::new(), BTreeSet::new());
                            self.apprs(AbsKont::Co(cont.label), u, store.clone())?
                        }
                        AbsClo::Dec => {
                            let u = CAbsVal::new(u2.num.sub1(), BTreeSet::new(), BTreeSet::new());
                            self.apprs(AbsKont::Co(cont.label), u, store.clone())?
                        }
                        AbsClo::Lam(l) => {
                            let lam = self.a.lambdas[&l];
                            let mut s = store.clone();
                            s.join_at(lam.param_id, &u2);
                            s.join_at(lam.k_id, &kv);
                            self.eval(lam.body, s)?
                        }
                    };
                    acc = Some(match acc {
                        None => a,
                        Some(prev) => prev.join(&a),
                    });
                }
                Ok(acc.expect("non-empty callee set"))
            }
            // (let (k λx.P) (if0 W P₁ P₂)).
            CTermKind::LetK {
                k,
                cont,
                test,
                then_,
                else_,
            } => {
                let kid = self
                    .a
                    .prog
                    .kont_var_id(k)
                    .expect("indexed continuation variable");
                let mut store = store;
                store.join_at(kid, &CAbsVal::kont(AbsKont::Co(cont.label)));
                let u0 = self.phi(test, &store);
                if u0.is_exactly_zero() {
                    self.flows.record_branch(p.label, true, false);
                    self.eval(then_, store)
                } else if !u0.may_be_zero() {
                    self.flows.record_branch(p.label, false, true);
                    self.eval(else_, store)
                } else {
                    self.flows.record_branch(p.label, true, true);
                    let a1 = self.eval(then_, store.clone())?;
                    let a2 = self.eval(else_, store)?;
                    Ok(a1.join(&a2))
                }
            }
            CTermKind::Loop { cont } => {
                if self.a.loop_widening {
                    let u = CAbsVal::new(D::top(), BTreeSet::new(), BTreeSet::new());
                    return self.apprs(AbsKont::Co(cont.label), u, store);
                }
                let mut acc: Option<CAbsAnswer<D>> = None;
                let mut i: i64 = 0;
                loop {
                    let a = self.apprs(AbsKont::Co(cont.label), CAbsVal::num(i), store.clone())?;
                    acc = Some(match acc {
                        None => a,
                        Some(prev) => prev.join(&a),
                    });
                    i += 1;
                    self.stats.goals += 1;
                    self.a.budget.check(self.stats.goals)?;
                }
            }
        }
    }

    /// `appr_s`: hand `u` to one abstract continuation.
    fn apprs(
        &mut self,
        kont: AbsKont,
        u: CAbsVal<D>,
        store: CAbsStore<D>,
    ) -> Result<CAbsAnswer<D>, AnalysisError> {
        self.stats.returns += 1;
        match kont {
            AbsKont::Stop => Ok(CAbsAnswer { value: u, store }),
            AbsKont::Co(l) => {
                let cont = self.a.conts[&l];
                let mut store = store;
                store.join_at(cont.var_id, &u);
                self.eval(cont.body, store)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Flat;
    use cpsdfa_anf::AnfProgram;

    fn analyze(src: &str) -> (CpsProgram, SynCpsResult<Flat>) {
        let p = AnfProgram::parse(src).unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        (c, r)
    }

    fn num_of(c: &CpsProgram, r: &SynCpsResult<Flat>, x: &str) -> Flat {
        r.store.get(c.var_named(x).unwrap()).num
    }

    #[test]
    fn straight_line_constants_propagate() {
        let (c, r) = analyze("(let (a 1) (let (b (add1 a)) b))");
        assert_eq!(num_of(&c, &r, "a").as_const(), Some(1));
        assert_eq!(num_of(&c, &r, "b").as_const(), Some(2));
        assert_eq!(r.value.num.as_const(), Some(2));
    }

    #[test]
    fn theorem_51_false_return_loses_a1() {
        // Direct keeps a1 = 1; the CPS analysis binds both continuations to
        // the λ's k and merges the returns, so a1 = a2 = ⊤.
        let (c, r) = analyze("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))");
        assert!(num_of(&c, &r, "a1").is_top());
        assert!(num_of(&c, &r, "a2").is_top());
        assert!(num_of(&c, &r, "x").is_top());
        assert!(r.flows.false_return_edges() > 0);
    }

    #[test]
    fn single_call_keeps_precision() {
        // With one call site there is one continuation: no confusion.
        let (c, r) = analyze("(let (f (lambda (x) x)) (let (a (f 1)) a))");
        assert_eq!(num_of(&c, &r, "a").as_const(), Some(1));
        assert_eq!(r.flows.false_return_edges(), 0);
    }

    #[test]
    fn theorem_52_case_1_duplication_gain_survives_cps() {
        let (c, r) = analyze("(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))");
        assert_eq!(num_of(&c, &r, "a2").as_const(), Some(3));
        assert_eq!(r.value.num.as_const(), Some(3));
    }

    #[test]
    fn branch_selection_prunes_known_tests() {
        let (c, r) = analyze("(let (a (if0 0 10 20)) a)");
        assert_eq!(num_of(&c, &r, "a").as_const(), Some(10));
        let (c2, r2) = analyze("(let (a (if0 5 10 20)) a)");
        assert_eq!(num_of(&c2, &r2, "a").as_const(), Some(20));
    }

    #[test]
    fn omega_terminates_via_cycle_cut() {
        let (_, r) = analyze("(let (w (lambda (x) (x x))) (let (r (w w)) r))");
        assert!(r.stats.cycle_cuts > 0);
        assert!(r.value.num.is_top());
    }

    #[test]
    fn cycle_cut_pollutes_with_kont_top() {
        // After a cut, the answer's continuation set is K⊤ — observable in
        // the result value for a looping program.
        let (c, r) = analyze("(let (w (lambda (x) (x x))) (let (r (w w)) r))");
        assert!(!c.cont_labels().is_empty());
        assert!(!r.value.konts.is_empty());
    }

    #[test]
    fn loop_without_widening_exhausts_budget() {
        let p = AnfProgram::parse("(let (x (loop)) x)").unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = SynCpsAnalyzer::<Flat>::new(&c)
            .with_budget(AnalysisBudget::new(10_000))
            .analyze();
        assert!(matches!(r, Err(AnalysisError::BudgetExhausted { .. })));
    }

    #[test]
    fn loop_with_widening_converges() {
        let p = AnfProgram::parse("(let (x (loop)) (let (y (add1 x)) y))").unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = SynCpsAnalyzer::<Flat>::new(&c)
            .with_loop_widening(true)
            .analyze()
            .unwrap();
        assert!(num_of(&c, &r, "y").is_top());
    }

    #[test]
    fn continuation_sets_accumulate_at_shared_k() {
        // Two calls to f bind two different continuations to f's k.
        let (c, r) = analyze("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))");
        let konts: Vec<usize> = r
            .store
            .iter()
            .filter(|(id, _)| matches!(c.key(*id), VarKey::Kont(_)))
            .map(|(_, v)| v.konts.len())
            .collect();
        assert!(
            konts.iter().any(|&n| n >= 2),
            "some k holds ≥ 2 continuations: {konts:?}"
        );
    }

    #[test]
    fn seeds_override_defaults() {
        let p = AnfProgram::parse("(let (a (add1 z)) a)").unwrap();
        let c = CpsProgram::from_anf(&p);
        let z = c.var_named("z").unwrap();
        let r = SynCpsAnalyzer::<Flat>::new(&c)
            .with_seed(z, CAbsVal::num(4))
            .analyze()
            .unwrap();
        assert_eq!(num_of(&c, &r, "a").as_const(), Some(5));
    }
}
