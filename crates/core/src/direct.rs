//! The direct abstract collecting interpreter `M_e` of **Figure 4**.
//!
//! Derived from the direct interpreter of Figure 1 by the 0CFA abstraction
//! of §4.1 (one location per variable, merged stores) and the numeric
//! abstraction of §4.2. Termination follows §4.4: a goal `(M, σ)` repeated
//! on the derivation path is answered with the least precise value
//! `(⊤, CL⊤)` paired with the current store.
//!
//! The salient property (contrast with Figure 5): at a conditional whose
//! test may go either way, the two arms are analyzed and their stores are
//! *joined before* the continuation is analyzed — the continuation is
//! analyzed **once**. Likewise a call site joins the results of all
//! applicable closures before continuing. This merging is what the
//! semantic-CPS analyzer avoids by duplication (Theorem 5.4), at
//! exponential cost (§6.2).
//!
//! The analyzer also implements the paper's §6.3 conclusion — "a direct
//! data flow analysis that relies on *some amount of duplication* would be
//! as satisfactory as a CPS analysis" — via
//! [`DirectAnalyzer::with_duplication_depth`]: for `d > 0`, conditionals
//! and multi-target call sites analyze their *continuation* once per
//! branch/callee down to nesting depth `d`, interpolating between Figure 4
//! (`d = 0`) and Figure 5 behavior.

use crate::absval::{AbsAnswer, AbsClo, AbsStore, AbsVal};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::domain::NumDomain;
use crate::flow::FlowLog;
use crate::stats::AnalysisStats;
use cpsdfa_anf::{AVal, AValKind, Anf, AnfKind, AnfProgram, Bind, LambdaRef, VarId};
use cpsdfa_syntax::Label;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The result of a direct analysis: the abstract answer of Figure 4 plus
/// cost statistics and the control-flow facts gathered on the way.
#[derive(Debug, Clone)]
pub struct DirectResult<D: NumDomain> {
    /// The abstract result value.
    pub value: AbsVal<D>,
    /// The final abstract store (one cell per variable).
    pub store: AbsStore<D>,
    /// Cost counters.
    pub stats: AnalysisStats,
    /// Call / branch facts (0CFA control-flow graph).
    pub flows: FlowLog,
}

/// The direct abstract collecting interpreter `M_e` (Figure 4),
/// configurable with seeds for free variables, a goal budget, and the §6.3
/// duplication depth.
///
/// ```
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::domain::{Flat, NumDomain};
/// use cpsdfa_core::DirectAnalyzer;
///
/// // Theorem 5.1's Π1 with f bound to the identity.
/// let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")?;
/// let r = DirectAnalyzer::<Flat>::new(&p).analyze()?;
/// // The direct analysis loses x (both 1 and 2 flow there) ...
/// let x = p.var_named("x").unwrap();
/// assert!(r.store.get(x).num.is_top());
/// // ... but keeps a1 = 1.
/// let a1 = p.var_named("a1").unwrap();
/// assert_eq!(r.store.get(a1).num.as_const(), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DirectAnalyzer<'p, D: NumDomain> {
    prog: &'p AnfProgram,
    lambdas: HashMap<Label, LambdaRef<'p>>,
    clo_top: BTreeSet<AbsClo>,
    budget: AnalysisBudget,
    seeds: Vec<(VarId, AbsVal<D>)>,
    dup_depth: u32,
}

impl<'p, D: NumDomain> DirectAnalyzer<'p, D> {
    /// Creates an analyzer for `prog`. Free variables default to the seed
    /// `(⊤, ∅)` ("any number"); override with [`with_seed`].
    ///
    /// [`with_seed`]: DirectAnalyzer::with_seed
    pub fn new(prog: &'p AnfProgram) -> Self {
        DirectAnalyzer {
            prog,
            lambdas: prog.lambdas(),
            clo_top: clo_top_of(prog),
            budget: AnalysisBudget::default(),
            seeds: Vec::new(),
            dup_depth: 0,
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

    /// Enables §6.3 bounded duplication: conditionals and multi-target call
    /// sites duplicate the analysis of their continuation to nesting depth
    /// `d`. `d = 0` is exactly Figure 4.
    #[must_use]
    pub fn with_duplication_depth(mut self, d: u32) -> Self {
        self.dup_depth = d;
        self
    }

    /// The initial store: ⊥ everywhere; free variables get `(⊤, ∅)` unless
    /// an explicit seed replaces the default.
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

    /// Runs the analysis from the initial store.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BudgetExhausted`] if the goal budget runs out.
    pub fn analyze(&self) -> Result<DirectResult<D>, AnalysisError> {
        self.analyze_from(self.initial_store())
    }

    /// Runs the analysis from an explicit initial store (used by the
    /// theorem-checking harness to reproduce the paper's literal σ's).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BudgetExhausted`] if the goal budget runs out.
    pub fn analyze_from(&self, store: AbsStore<D>) -> Result<DirectResult<D>, AnalysisError> {
        let mut run = Run {
            a: self,
            path: HashSet::new(),
            depth: 0,
            stats: AnalysisStats::default(),
            flows: FlowLog::default(),
        };
        let AbsAnswer { value, store } = run.eval(self.prog.root(), store, self.dup_depth)?;
        Ok(DirectResult {
            value,
            store,
            stats: run.stats,
            flows: run.flows,
        })
    }

    /// The least precise value `(⊤, CL⊤)` used by the §4.4 loop rule.
    pub fn top_value(&self) -> AbsVal<D> {
        AbsVal::new(D::top(), self.clo_top.clone())
    }
}

/// `CL⊤`: every λ of the program, plus `inc` / `dec` if the corresponding
/// primitive occurs.
pub(crate) fn clo_top_of(prog: &AnfProgram) -> BTreeSet<AbsClo> {
    let mut set: BTreeSet<AbsClo> = prog
        .lambda_labels()
        .iter()
        .map(|&l| AbsClo::Lam(l))
        .collect();
    prog.root().visit_values(&mut |v| match v.kind {
        AValKind::Add1 => {
            set.insert(AbsClo::Inc);
        }
        AValKind::Sub1 => {
            set.insert(AbsClo::Dec);
        }
        _ => {}
    });
    set
}

struct Run<'a, 'p, D: NumDomain> {
    a: &'a DirectAnalyzer<'p, D>,
    /// Goals on the current derivation path (§4.4 loop detection).
    path: HashSet<(Label, AbsStore<D>)>,
    depth: usize,
    stats: AnalysisStats,
    flows: FlowLog,
}

impl<'p, D: NumDomain> Run<'_, 'p, D> {
    /// `φ_e : Λ(V) × Stô → Val̂`.
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

    /// `(M, σ) ⊢Me A` with §4.4 loop detection.
    fn eval(
        &mut self,
        m: &'p Anf,
        store: AbsStore<D>,
        dup: u32,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        self.depth += 1;
        self.stats.enter_goal(self.depth);
        self.a.budget.check(self.stats.goals)?;

        let key = (m.label, store.clone());
        if self.path.contains(&key) {
            // Loop detected: return the least precise value with the
            // current store (§4.4).
            self.stats.cycle_cuts += 1;
            self.depth -= 1;
            return Ok(AbsAnswer {
                value: self.a.top_value(),
                store,
            });
        }
        self.path.insert(key.clone());
        let out = self.eval_inner(m, store, dup);
        self.path.remove(&key);
        self.depth -= 1;
        out
    }

    fn eval_inner(
        &mut self,
        m: &'p Anf,
        store: AbsStore<D>,
        dup: u32,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        match &m.kind {
            AnfKind::Value(v) => {
                let value = self.phi(v, &store);
                Ok(AbsAnswer { value, store })
            }
            AnfKind::Let { var, bind, body } => {
                let x = self.var_id(var);
                match bind {
                    Bind::Value(v) => {
                        let u = self.phi(v, &store);
                        let mut store = store;
                        store.join_at(x, &u);
                        self.eval(body, store, dup)
                    }
                    Bind::App(vf, va) => {
                        let u1 = self.phi(vf, &store);
                        let u2 = self.phi(va, &store);
                        self.eval_call(m.label, x, &u1, &u2, store, body, dup)
                    }
                    Bind::If0(vc, then_, else_) => {
                        let u0 = self.phi(vc, &store);
                        self.eval_if0(m.label, x, &u0, then_, else_, store, body, dup)
                    }
                    Bind::Loop => {
                        // §6.2 extension: ⊔ᵢ (i, ∅) = (⊤, ∅).
                        let mut store = store;
                        store.join_at(x, &AbsVal::new(D::top(), BTreeSet::new()));
                        self.eval(body, store, dup)
                    }
                }
            }
        }
    }

    /// One closure element applied to `u₂` (a single `appl_e` premise).
    fn apply_one(
        &mut self,
        site: Label,
        clo: AbsClo,
        u2: &AbsVal<D>,
        store: &AbsStore<D>,
        dup: u32,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        self.flows.record_call(site, clo);
        match clo {
            AbsClo::Inc => Ok(AbsAnswer {
                value: AbsVal::new(u2.num.add1(), BTreeSet::new()),
                store: store.clone(),
            }),
            AbsClo::Dec => Ok(AbsAnswer {
                value: AbsVal::new(u2.num.sub1(), BTreeSet::new()),
                store: store.clone(),
            }),
            AbsClo::Lam(l) => {
                let lam = self.a.lambdas[&l];
                let mut store = store.clone();
                store.join_at(lam.param_id, u2);
                self.eval(lam.body, store, dup)
            }
        }
    }

    /// `app_e`: apply every closure in `u₁` and join — then continue with
    /// the `let` body. With duplication budget left and several callees,
    /// the body is analyzed per callee instead (§6.3).
    #[allow(clippy::too_many_arguments)]
    fn eval_call(
        &mut self,
        site: Label,
        x: VarId,
        u1: &AbsVal<D>,
        u2: &AbsVal<D>,
        store: AbsStore<D>,
        body: &'p Anf,
        dup: u32,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        let elems: Vec<AbsClo> = u1.clos.iter().copied().collect();
        if elems.is_empty() {
            // Nothing applicable: the empty join. The continuation is dead.
            return Ok(AbsAnswer {
                value: AbsVal::bot(),
                store,
            });
        }
        if dup > 0 && elems.len() > 1 {
            // §6.3 bounded duplication: continuation analyzed per callee.
            let mut acc: Option<AbsAnswer<D>> = None;
            for clo in elems {
                let a = self.apply_one(site, clo, u2, &store, dup)?;
                let mut s = a.store;
                s.join_at(x, &a.value);
                let full = self.eval(body, s, dup - 1)?;
                acc = Some(match acc {
                    None => full,
                    Some(prev) => prev.join(&full),
                });
            }
            return Ok(acc.expect("non-empty callee set"));
        }
        // Figure 4: join all callee answers, then continue once.
        let mut acc: Option<AbsAnswer<D>> = None;
        for clo in elems {
            let a = self.apply_one(site, clo, u2, &store, dup)?;
            acc = Some(match acc {
                None => a,
                Some(prev) => prev.join(&a),
            });
        }
        let AbsAnswer {
            value: u3,
            store: mut s3,
        } = acc.expect("non-empty callee set");
        s3.join_at(x, &u3);
        self.eval(body, s3, dup)
    }

    /// The three `if0` rules of Figure 4 (plus §6.3 duplication).
    #[allow(clippy::too_many_arguments)]
    fn eval_if0(
        &mut self,
        site: Label,
        x: VarId,
        u0: &AbsVal<D>,
        then_: &'p Anf,
        else_: &'p Anf,
        store: AbsStore<D>,
        body: &'p Anf,
        dup: u32,
    ) -> Result<AbsAnswer<D>, AnalysisError> {
        let exactly_zero = u0.is_exactly_zero();
        let may_zero = u0.may_be_zero();
        if exactly_zero {
            // i = 1: u₀ = (0, ∅).
            self.flows.record_branch(site, true, false);
            let AbsAnswer {
                value: u1,
                store: mut s1,
            } = self.eval(then_, store, dup)?;
            s1.join_at(x, &u1);
            return self.eval(body, s1, dup);
        }
        if !may_zero {
            // i = 2: (0, ∅) ⋢ u₀.
            self.flows.record_branch(site, false, true);
            let AbsAnswer {
                value: u2,
                store: mut s2,
            } = self.eval(else_, store, dup)?;
            s2.join_at(x, &u2);
            return self.eval(body, s2, dup);
        }
        // (0, ∅) ⊏ u₀: both arms.
        self.flows.record_branch(site, true, true);
        if dup > 0 {
            // §6.3 bounded duplication: continuation analyzed per arm.
            let a1 = {
                let AbsAnswer {
                    value: u1,
                    store: mut s1,
                } = self.eval(then_, store.clone(), dup)?;
                s1.join_at(x, &u1);
                self.eval(body, s1, dup - 1)?
            };
            let a2 = {
                let AbsAnswer {
                    value: u2,
                    store: mut s2,
                } = self.eval(else_, store, dup)?;
                s2.join_at(x, &u2);
                self.eval(body, s2, dup - 1)?
            };
            return Ok(a1.join(&a2));
        }
        // Figure 4: join stores and arm values, continue once.
        let AbsAnswer {
            value: u1,
            store: s1,
        } = self.eval(then_, store.clone(), dup)?;
        let AbsAnswer {
            value: u2,
            store: s2,
        } = self.eval(else_, store, dup)?;
        let mut sj = s1.join(&s2);
        sj.join_at(x, &u1.join(&u2));
        self.eval(body, sj, dup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Flat, PowerSet};

    fn analyze(src: &str) -> (AnfProgram, DirectResult<Flat>) {
        let p = AnfProgram::parse(src).unwrap();
        let r = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        (p, r)
    }

    fn num_of(p: &AnfProgram, r: &DirectResult<Flat>, x: &str) -> Flat {
        r.store.get(p.var_named(x).unwrap()).num
    }

    #[test]
    fn constants_propagate_through_lets_and_prims() {
        let (p, r) = analyze("(let (a 1) (let (b (add1 a)) (let (c (sub1 b)) c)))");
        assert_eq!(num_of(&p, &r, "a").as_const(), Some(1));
        assert_eq!(num_of(&p, &r, "b").as_const(), Some(2));
        assert_eq!(num_of(&p, &r, "c").as_const(), Some(1));
        assert_eq!(r.value.num.as_const(), Some(1));
    }

    #[test]
    fn known_zero_prunes_to_then_branch() {
        let (p, r) = analyze("(let (a (if0 0 10 20)) a)");
        assert_eq!(num_of(&p, &r, "a").as_const(), Some(10));
        let b = r.flows.branches.values().next().unwrap();
        assert!(b.then_taken && !b.else_taken);
    }

    #[test]
    fn known_nonzero_prunes_to_else_branch() {
        let (p, r) = analyze("(let (a (if0 3 10 20)) a)");
        assert_eq!(num_of(&p, &r, "a").as_const(), Some(20));
    }

    #[test]
    fn unknown_test_merges_branches() {
        // z is free, hence ⊤.
        let (p, r) = analyze("(let (a (if0 z 10 20)) a)");
        assert!(num_of(&p, &r, "a").is_top());
        let b = r.flows.branches.values().next().unwrap();
        assert!(b.then_taken && b.else_taken);
    }

    #[test]
    fn same_constant_in_both_arms_survives_merge() {
        let (p, r) = analyze("(let (a (if0 z 7 7)) a)");
        assert_eq!(num_of(&p, &r, "a").as_const(), Some(7));
    }

    #[test]
    fn call_merges_all_argument_values_at_the_parameter() {
        // Paper's running observation: x receives 1 and 2, so x = ⊤,
        // but the analysis still sees a1 = 1 because the first application
        // is analyzed with σ where only 1 has reached x... no: Figure 4
        // applies each closure to the *current* store; after (f 1) the
        // store has x = 1, the application returns 1, a1 = 1. Then (f 2)
        // joins 2 at x (⊤) and returns ⊤ — a2 = ⊤.
        let (p, r) = analyze("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))");
        assert_eq!(num_of(&p, &r, "a1").as_const(), Some(1));
        assert!(num_of(&p, &r, "x").is_top());
        assert!(num_of(&p, &r, "a2").is_top());
    }

    #[test]
    fn closures_flow_to_call_sites() {
        let (p, r) = analyze("(let (f (lambda (x) x)) (f 1))");
        let lam = p.lambda_labels()[0];
        let f = p.var_named("f").unwrap();
        assert!(r.store.get(f).clos.contains(&AbsClo::Lam(lam)));
        assert_eq!(r.flows.call_edge_count(), 1);
        assert!(
            r.flows.returns.is_empty(),
            "direct analysis has no return sites"
        );
    }

    #[test]
    fn higher_order_dispatch_joins_callees() {
        let src = "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1))) (let (a (f 9)) a))";
        let (p, r) = analyze(src);
        // both closures applied at the call
        assert_eq!(r.flows.call_edge_count(), 2);
        assert!(num_of(&p, &r, "a").is_top(), "0 ⊔ 1 = ⊤");
    }

    #[test]
    fn omega_terminates_via_cycle_cut() {
        let (_, r) = analyze("(let (w (lambda (x) (x x))) (let (r (w w)) r))");
        assert!(r.stats.cycle_cuts > 0);
        // The cut answers (⊤, CL⊤): the result may be anything.
        assert!(r.value.num.is_top());
    }

    #[test]
    fn loop_extension_is_top_number() {
        let (p, r) = analyze("(let (x (loop)) (let (y (add1 x)) y))");
        assert!(num_of(&p, &r, "x").is_top());
        assert!(num_of(&p, &r, "y").is_top());
        assert!(r.store.get(p.var_named("x").unwrap()).clos.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let p = AnfProgram::parse("(let (w (lambda (x) (x x))) (w w))").unwrap();
        let r = DirectAnalyzer::<Flat>::new(&p)
            .with_budget(AnalysisBudget::new(3))
            .analyze();
        assert_eq!(r.unwrap_err(), AnalysisError::BudgetExhausted { budget: 3 });
    }

    #[test]
    fn seeds_override_free_variable_defaults() {
        let p = AnfProgram::parse("(let (a (add1 z)) a)").unwrap();
        let z = p.var_named("z").unwrap();
        let r = DirectAnalyzer::<Flat>::new(&p)
            .with_seed(z, AbsVal::num(4))
            .analyze()
            .unwrap();
        assert_eq!(
            r.store.get(p.var_named("a").unwrap()).num.as_const(),
            Some(5)
        );
    }

    #[test]
    fn powerset_domain_keeps_small_sets() {
        let p = AnfProgram::parse("(let (a (if0 z 1 2)) a)").unwrap();
        let r = DirectAnalyzer::<PowerSet<8>>::new(&p).analyze().unwrap();
        let a = p.var_named("a").unwrap();
        let n = &r.store.get(a).num;
        assert!(n.contains(1) && n.contains(2) && !n.contains(3));
    }

    #[test]
    fn duplication_depth_recovers_branch_correlation() {
        // Theorem 5.2 case 1's program shape: without duplication a2 = ⊤;
        // with duplication depth 1 the continuation is analyzed per branch
        // and a2 = 3 on both paths.
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))";
        let p = AnfProgram::parse(src).unwrap();
        let plain = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let dup = DirectAnalyzer::<Flat>::new(&p)
            .with_duplication_depth(1)
            .analyze()
            .unwrap();
        let a2 = p.var_named("a2").unwrap();
        assert!(plain.store.get(a2).num.is_top());
        assert_eq!(dup.store.get(a2).num.as_const(), Some(3));
    }

    #[test]
    fn stats_count_goals_and_depth() {
        let (_, r) = analyze("(let (a 1) (let (b (add1 a)) b))");
        assert!(r.stats.goals >= 3);
        assert!(r.stats.max_depth >= 3);
        assert_eq!(r.stats.cycle_cuts, 0);
    }
}
