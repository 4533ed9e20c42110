//! A hash-consed formula and finite-domain term context.
//!
//! This layer plays the role of the SMT solver interface in the original
//! Rehearsal: formulas are boolean combinations (with if-then-else) over
//! boolean variables and equalities of *finite-domain terms*. A finite-domain
//! variable ranges over an explicit, per-variable set of values (`u32` codes
//! whose meaning is assigned by the client — Rehearsal uses them for path
//! states such as "does not exist", "directory", or "file with content c").
//!
//! Solving grounds each finite-domain variable to a one-hot vector of boolean
//! variables (with exactly-one side constraints), Tseitin-transforms the
//! formula DAG to CNF, and runs the CDCL solver from [`crate::sat`].
//!
//! Because Rehearsal's theory is effectively propositional over
//! statically-known finite domains, this grounding is an *exact* decision
//! procedure: SAT/UNSAT verdicts agree with what an SMT solver would report.
//!
//! # Examples
//!
//! ```
//! use rehearsal_solver::Ctx;
//!
//! let mut ctx = Ctx::new();
//! // A variable over the domain {10, 20, 30}.
//! let x = ctx.fd_var(&[10, 20, 30]);
//! let ten = ctx.bit(x, 10);
//! let twenty = ctx.bit(x, 20);
//! let not_ten = ctx.not(ten);
//! let not_twenty = ctx.not(twenty);
//! let f = ctx.and2(not_ten, not_twenty);
//! let model = ctx.solve(f).expect("satisfiable");
//! assert_eq!(model.term_value_in(&ctx, x), 30);
//! ```

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::sat::{Model, SatResult, Solver, SolverStats};
use std::collections::HashMap;
use std::fmt;

/// A hash-consed boolean formula handle.
///
/// Handles are only meaningful together with the [`Ctx`] that created them.
/// Because of hash-consing, structurally identical formulas get identical
/// handles, so `==` on handles is structural equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Formula(u32);

/// A boolean variable in a [`Ctx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BVar(u32);

/// A hash-consed finite-domain term handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term(u32);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FNode {
    True,
    False,
    Var(BVar),
    Not(Formula),
    And(Box<[Formula]>),
    Or(Box<[Formula]>),
    Ite(Formula, Formula, Formula),
    Iff(Formula, Formula),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TNode {
    /// A constant value.
    Val(u32),
    /// A finite-domain variable (index into `Ctx::fd_vars`).
    Var(u32),
    /// `if c then t else e`.
    Ite(Formula, Term, Term),
}

#[derive(Debug)]
struct FdVarInfo {
    values: Vec<u32>,
    /// One boolean indicator per value (one-hot encoding).
    bits: Vec<BVar>,
}

/// Statistics about the size of the encoding, used in benchmark reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Number of distinct formula nodes.
    pub formula_nodes: usize,
    /// Number of distinct finite-domain term nodes.
    pub term_nodes: usize,
    /// Number of boolean variables (including one-hot indicator bits).
    pub bool_vars: usize,
    /// Number of finite-domain variables.
    pub fd_vars: usize,
    /// Formula interning requests answered by an existing (hash-consed)
    /// node instead of allocating a new one.
    pub formula_dedup_hits: u64,
    /// Term interning requests answered by an existing node.
    pub term_dedup_hits: u64,
}

impl CtxStats {
    /// Fraction of interning requests served by sharing (0.0 when nothing
    /// has been interned). High ratios mean the Tseitin transform encodes
    /// proportionally fewer distinct nodes.
    pub fn dedup_ratio(&self) -> f64 {
        let fresh = (self.formula_nodes + self.term_nodes) as u64;
        let hits = self.formula_dedup_hits + self.term_dedup_hits;
        if fresh + hits == 0 {
            return 0.0;
        }
        hits as f64 / (fresh + hits) as f64
    }
}

/// Grounding statistics for the incremental solving path
/// ([`Ctx::solve_assuming`]): how much CNF was emitted exactly once and
/// then reused across queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundingStats {
    /// Formula nodes Tseitin-grounded to CNF (each exactly once).
    pub grounded_nodes: u64,
    /// Grounding requests answered by an already-grounded node.
    pub reused_nodes: u64,
    /// Clauses added to the persistent solver.
    pub grounded_clauses: u64,
}

impl GroundingStats {
    /// Fraction of grounding requests served by reuse (0.0 before any
    /// grounding). High ratios mean later queries ride on CNF — and learnt
    /// clauses — produced for earlier ones.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.grounded_nodes + self.reused_nodes;
        if total == 0 {
            return 0.0;
        }
        self.reused_nodes as f64 / total as f64
    }
}

/// The persistent incremental-solving state: one live CDCL solver whose
/// clause database (including everything it has learnt) survives across
/// queries. Formula nodes are grounded to CNF exactly once; per-query
/// roots are activated via assumption literals.
#[derive(Debug, Default)]
struct Incremental {
    solver: Solver,
    /// CNF literal of every grounded formula node.
    lit_of: HashMap<Formula, Lit>,
    /// A literal asserted true at the top level (grounds the constants).
    lit_true: Option<Lit>,
    /// Prefix of `Ctx::side_constraints` already asserted permanently.
    grounded_side: usize,
    /// Top-level contradiction in the permanent clauses: every query is
    /// UNSAT from here on.
    unsat: bool,
    stats: GroundingStats,
}

/// The formula-building and solving context.
///
/// See the [module documentation](self) for an overview.
#[derive(Debug, Default)]
pub struct Ctx {
    fnodes: Vec<FNode>,
    fhash: HashMap<FNode, Formula>,
    tnodes: Vec<TNode>,
    thash: HashMap<TNode, Term>,
    n_bool_vars: u32,
    fd_vars: Vec<FdVarInfo>,
    /// Exactly-one constraints for finite-domain variables, conjoined with
    /// every query.
    side_constraints: Vec<Formula>,
    /// Memo table for `bit(term, value)`.
    bit_memo: HashMap<(Term, u32), Formula>,
    /// Memo table for the set of values a term can take.
    possible_memo: HashMap<Term, std::rc::Rc<Vec<u32>>>,
    /// Hash-consing hit counters (see [`CtxStats`]).
    formula_hits: u64,
    term_hits: u64,
    /// The persistent solver for [`Ctx::solve_assuming`].
    inc: Incremental,
    /// Search counters summed over every one-shot
    /// [`Ctx::solve_with_budget`] solver, which is dropped after its query.
    oneshot: SolverStats,
}

impl Ctx {
    /// Creates an empty context containing the constants `true` and `false`.
    pub fn new() -> Ctx {
        let mut ctx = Ctx::default();
        ctx.intern_f(FNode::False); // index 0
        ctx.intern_f(FNode::True); // index 1
        ctx
    }

    fn intern_f(&mut self, node: FNode) -> Formula {
        if let Some(&f) = self.fhash.get(&node) {
            self.formula_hits += 1;
            return f;
        }
        let f = Formula(self.fnodes.len() as u32);
        self.fnodes.push(node.clone());
        self.fhash.insert(node, f);
        f
    }

    fn intern_t(&mut self, node: TNode) -> Term {
        if let Some(&t) = self.thash.get(&node) {
            self.term_hits += 1;
            return t;
        }
        let t = Term(self.tnodes.len() as u32);
        self.tnodes.push(node.clone());
        self.thash.insert(node, t);
        t
    }

    /// The constant `false`.
    pub fn ff(&self) -> Formula {
        Formula(0)
    }

    /// The constant `true`.
    pub fn tt(&self) -> Formula {
        Formula(1)
    }

    /// Whether `f` is the constant `true`.
    pub fn is_true(&self, f: Formula) -> bool {
        f == self.tt()
    }

    /// Whether `f` is the constant `false`.
    pub fn is_false(&self, f: Formula) -> bool {
        f == self.ff()
    }

    /// Allocates a fresh boolean variable and returns it as a formula.
    pub fn fresh_bool(&mut self) -> Formula {
        let v = BVar(self.n_bool_vars);
        self.n_bool_vars += 1;
        self.intern_f(FNode::Var(v))
    }

    /// Negation.
    pub fn not(&mut self, f: Formula) -> Formula {
        if f == self.tt() {
            return self.ff();
        }
        if f == self.ff() {
            return self.tt();
        }
        if let FNode::Not(inner) = self.fnodes[f.0 as usize] {
            return inner;
        }
        self.intern_f(FNode::Not(f))
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: Formula, b: Formula) -> Formula {
        self.and([a, b])
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: Formula, b: Formula) -> Formula {
        self.or([a, b])
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: Formula, b: Formula) -> Formula {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// N-ary conjunction with flattening, deduplication, and constant and
    /// complement simplification.
    pub fn and(&mut self, fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut children: Vec<Formula> = Vec::new();
        for f in fs {
            if f == self.ff() {
                return self.ff();
            }
            if f == self.tt() {
                continue;
            }
            if let FNode::And(inner) = &self.fnodes[f.0 as usize] {
                children.extend(inner.iter().copied());
            } else {
                children.push(f);
            }
        }
        children.sort();
        children.dedup();
        // Complement detection: x and ¬x together.
        if self.has_complement(&children) {
            return self.ff();
        }
        match children.len() {
            0 => self.tt(),
            1 => children[0],
            _ => self.intern_f(FNode::And(children.into_boxed_slice())),
        }
    }

    /// N-ary disjunction with flattening, deduplication, and constant and
    /// complement simplification.
    pub fn or(&mut self, fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut children: Vec<Formula> = Vec::new();
        for f in fs {
            if f == self.tt() {
                return self.tt();
            }
            if f == self.ff() {
                continue;
            }
            if let FNode::Or(inner) = &self.fnodes[f.0 as usize] {
                children.extend(inner.iter().copied());
            } else {
                children.push(f);
            }
        }
        children.sort();
        children.dedup();
        if self.has_complement(&children) {
            return self.tt();
        }
        match children.len() {
            0 => self.ff(),
            1 => children[0],
            _ => self.intern_f(FNode::Or(children.into_boxed_slice())),
        }
    }

    /// Whether sorted, deduplicated `children` hold some `x` and `¬x`.
    fn has_complement(&self, children: &[Formula]) -> bool {
        children.iter().any(|&c| match self.fnodes[c.0 as usize] {
            FNode::Not(inner) => children.binary_search(&inner).is_ok(),
            _ => false,
        })
    }

    /// If-then-else on formulas.
    pub fn ite(&mut self, c: Formula, t: Formula, e: Formula) -> Formula {
        if c == self.tt() {
            return t;
        }
        if c == self.ff() {
            return e;
        }
        if t == e {
            return t;
        }
        if t == self.tt() && e == self.ff() {
            return c;
        }
        if t == self.ff() && e == self.tt() {
            return self.not(c);
        }
        if t == self.tt() {
            return self.or2(c, e);
        }
        if t == self.ff() {
            let nc = self.not(c);
            return self.and2(nc, e);
        }
        if e == self.tt() {
            let nc = self.not(c);
            return self.or2(nc, t);
        }
        if e == self.ff() {
            return self.and2(c, t);
        }
        // Common-conjunct factoring: `ite(c, x ∧ R, x) ≡ x ∧ (c → R)` and
        // `ite(c, x, x ∧ R) ≡ x ∧ (¬c → R)`. This is how symbolic `ok`
        // formulas grow (`ite(cond, ok ∧ pre, ok)` per guarded operation);
        // rewriting them into flat conjunctions lets the sorted n-ary
        // `and` canonicalize away evaluation order, so commuting resource
        // orders reconverge to *structurally identical* states — the
        // property the explorer's state cache and output dedup feed on.
        // Children of an `and` are sorted, so membership and the subset
        // test are a binary search and one merge, not a scan per child.
        let factored = |ctx: &Ctx, whole: Formula, part: Formula| -> Option<Vec<Formula>> {
            let FNode::And(cs) = &ctx.fnodes[whole.0 as usize] else {
                return None;
            };
            if cs.binary_search(&part).is_ok() {
                return Some(cs.iter().copied().filter(|&x| x != part).collect());
            }
            // `part` may itself be a conjunction that `whole` extends
            // (n-ary `and` flattens, so the handle of the smaller
            // conjunction never appears verbatim among the children).
            if let FNode::And(ps) = &ctx.fnodes[part.0 as usize] {
                if ps.len() < cs.len() {
                    return sorted_difference(cs, ps);
                }
            }
            None
        };
        if let Some(rest) = factored(self, t, e) {
            let r = self.and(rest);
            let nc = self.not(c);
            let guarded = self.or2(nc, r);
            return self.and2(e, guarded);
        }
        if let Some(rest) = factored(self, e, t) {
            let r = self.and(rest);
            let guarded = self.or2(c, r);
            return self.and2(t, guarded);
        }
        self.intern_f(FNode::Ite(c, t, e))
    }

    /// Biconditional `a ↔ b`.
    pub fn iff(&mut self, a: Formula, b: Formula) -> Formula {
        if a == b {
            return self.tt();
        }
        if a == self.tt() {
            return b;
        }
        if a == self.ff() {
            return self.not(b);
        }
        if b == self.tt() {
            return a;
        }
        if b == self.ff() {
            return self.not(a);
        }
        if self.not(a) == b {
            return self.ff();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern_f(FNode::Iff(a, b))
    }

    /// Registers a background constraint conjoined with every query solved
    /// through this context (like an SMT `assert`).
    pub fn assert_background(&mut self, f: Formula) {
        self.side_constraints.push(f);
    }

    /// Allocates a finite-domain variable over the given (non-empty) set of
    /// values, registering its one-hot exactly-one side constraint.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn fd_var(&mut self, values: &[u32]) -> Term {
        assert!(!values.is_empty(), "finite-domain variable needs values");
        let mut vals: Vec<u32> = values.to_vec();
        vals.sort_unstable();
        vals.dedup();
        let bits: Vec<BVar> = (0..vals.len())
            .map(|_| {
                let v = BVar(self.n_bool_vars);
                self.n_bool_vars += 1;
                v
            })
            .collect();
        let idx = self.fd_vars.len() as u32;
        // Exactly-one constraint: at least one, pairwise at most one.
        let bit_fs: Vec<Formula> = bits.iter().map(|&b| self.intern_f(FNode::Var(b))).collect();
        let alo = self.or(bit_fs.iter().copied());
        self.side_constraints.push(alo);
        for i in 0..bit_fs.len() {
            for j in (i + 1)..bit_fs.len() {
                let ni = self.not(bit_fs[i]);
                let nj = self.not(bit_fs[j]);
                let amo = self.or2(ni, nj);
                self.side_constraints.push(amo);
            }
        }
        self.fd_vars.push(FdVarInfo { values: vals, bits });
        self.intern_t(TNode::Var(idx))
    }

    /// A constant finite-domain term.
    pub fn val(&mut self, v: u32) -> Term {
        self.intern_t(TNode::Val(v))
    }

    /// If-then-else on terms.
    pub fn tite(&mut self, c: Formula, t: Term, e: Term) -> Term {
        if c == self.tt() {
            return t;
        }
        if c == self.ff() {
            return e;
        }
        if t == e {
            return t;
        }
        self.intern_t(TNode::Ite(c, t, e))
    }

    /// The set of values `t` may evaluate to (sorted, deduplicated).
    pub fn possible_values(&mut self, t: Term) -> std::rc::Rc<Vec<u32>> {
        if let Some(vs) = self.possible_memo.get(&t) {
            return vs.clone();
        }
        let vs = match self.tnodes[t.0 as usize].clone() {
            TNode::Val(v) => vec![v],
            TNode::Var(i) => self.fd_vars[i as usize].values.clone(),
            TNode::Ite(_, a, b) => {
                let va = self.possible_values(a);
                let vb = self.possible_values(b);
                let mut out: Vec<u32> = va.iter().chain(vb.iter()).copied().collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        };
        let rc = std::rc::Rc::new(vs);
        self.possible_memo.insert(t, rc.clone());
        rc
    }

    /// The formula "`t` evaluates to `v`".
    pub fn bit(&mut self, t: Term, v: u32) -> Formula {
        if let Some(&f) = self.bit_memo.get(&(t, v)) {
            return f;
        }
        let f = match self.tnodes[t.0 as usize].clone() {
            TNode::Val(c) => {
                if c == v {
                    self.tt()
                } else {
                    self.ff()
                }
            }
            TNode::Var(i) => {
                let info = &self.fd_vars[i as usize];
                match info.values.binary_search(&v) {
                    Ok(pos) => {
                        let b = info.bits[pos];
                        self.intern_f(FNode::Var(b))
                    }
                    Err(_) => self.ff(),
                }
            }
            TNode::Ite(c, a, b) => {
                let ba = self.bit(a, v);
                let bb = self.bit(b, v);
                self.ite(c, ba, bb)
            }
        };
        self.bit_memo.insert((t, v), f);
        f
    }

    /// The formula "`t1` and `t2` evaluate to the same value".
    pub fn eq_terms(&mut self, t1: Term, t2: Term) -> Formula {
        if t1 == t2 {
            return self.tt();
        }
        let v1 = self.possible_values(t1);
        let v2 = self.possible_values(t2);
        let mut disjuncts = Vec::new();
        let mut i = 0;
        let mut j = 0;
        while i < v1.len() && j < v2.len() {
            match v1[i].cmp(&v2[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let v = v1[i];
                    let b1 = self.bit(t1, v);
                    let b2 = self.bit(t2, v);
                    let both = self.and2(b1, b2);
                    disjuncts.push(both);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.or(disjuncts)
    }

    /// The formula "`t1` and `t2` evaluate to different values".
    pub fn neq_terms(&mut self, t1: Term, t2: Term) -> Formula {
        let eq = self.eq_terms(t1, t2);
        self.not(eq)
    }

    /// Encoding-size statistics.
    pub fn stats(&self) -> CtxStats {
        CtxStats {
            formula_nodes: self.fnodes.len(),
            term_nodes: self.tnodes.len(),
            bool_vars: self.n_bool_vars as usize,
            fd_vars: self.fd_vars.len(),
            formula_dedup_hits: self.formula_hits,
            term_dedup_hits: self.term_hits,
        }
    }

    /// Converts `root ∧ side-constraints` to CNF by Tseitin transformation.
    ///
    /// Returns the CNF; boolean variable `BVar(i)` maps to CNF variable `i`.
    pub fn to_cnf(&mut self, root: Formula) -> Cnf {
        let side = self.side_constraints.clone();
        let mut goals = vec![root];
        goals.extend(side);
        let goal = self.and(goals);

        let mut cnf = Cnf::new();
        cnf.reserve_vars(self.n_bool_vars as usize);
        let mut lit_of: HashMap<Formula, Lit> = HashMap::new();

        if goal == self.ff() {
            // Force unsatisfiability explicitly.
            cnf.add_clause(vec![]);
            return cnf;
        }
        if goal == self.tt() {
            return cnf;
        }

        // Iterative post-order traversal of the formula DAG.
        let mut stack: Vec<(Formula, bool)> = vec![(goal, false)];
        while let Some((f, expanded)) = stack.pop() {
            if lit_of.contains_key(&f) {
                continue;
            }
            let node = self.fnodes[f.0 as usize].clone();
            if !expanded {
                stack.push((f, true));
                match &node {
                    FNode::True | FNode::False | FNode::Var(_) => {}
                    FNode::Not(a) => stack.push((*a, false)),
                    FNode::And(cs) | FNode::Or(cs) => {
                        for &c in cs.iter() {
                            stack.push((c, false));
                        }
                    }
                    FNode::Ite(c, t, e) => {
                        stack.push((*c, false));
                        stack.push((*t, false));
                        stack.push((*e, false));
                    }
                    FNode::Iff(a, b) => {
                        stack.push((*a, false));
                        stack.push((*b, false));
                    }
                }
                continue;
            }
            let lit = match node {
                FNode::True => {
                    let v = cnf.new_var();
                    cnf.add_clause(vec![Lit::positive(v)]);
                    Lit::positive(v)
                }
                FNode::False => {
                    let v = cnf.new_var();
                    cnf.add_clause(vec![Lit::negative(v)]);
                    Lit::positive(v)
                }
                FNode::Var(b) => Lit::positive(Var::from_index(b.0 as usize)),
                FNode::Not(a) => !lit_of[&a],
                FNode::And(cs) => {
                    let x = Lit::positive(cnf.new_var());
                    let mut big = vec![x];
                    for c in cs.iter() {
                        let cl = lit_of[c];
                        cnf.add_clause(vec![!x, cl]);
                        big.push(!cl);
                    }
                    cnf.add_clause(big);
                    x
                }
                FNode::Or(cs) => {
                    let x = Lit::positive(cnf.new_var());
                    let mut big = vec![!x];
                    for c in cs.iter() {
                        let cl = lit_of[c];
                        cnf.add_clause(vec![x, !cl]);
                        big.push(cl);
                    }
                    cnf.add_clause(big);
                    x
                }
                FNode::Ite(c, t, e) => {
                    let x = Lit::positive(cnf.new_var());
                    let (lc, lt, le) = (lit_of[&c], lit_of[&t], lit_of[&e]);
                    cnf.add_clause(vec![!x, !lc, lt]);
                    cnf.add_clause(vec![!x, lc, le]);
                    cnf.add_clause(vec![x, !lc, !lt]);
                    cnf.add_clause(vec![x, lc, !le]);
                    x
                }
                FNode::Iff(a, b) => {
                    let x = Lit::positive(cnf.new_var());
                    let (la, lb) = (lit_of[&a], lit_of[&b]);
                    cnf.add_clause(vec![!x, !la, lb]);
                    cnf.add_clause(vec![!x, la, !lb]);
                    cnf.add_clause(vec![x, la, lb]);
                    cnf.add_clause(vec![x, !la, !lb]);
                    x
                }
            };
            lit_of.insert(f, lit);
        }
        cnf.add_clause(vec![lit_of[&goal]]);
        cnf
    }

    /// Decides satisfiability of `root` (conjoined with the finite-domain
    /// side constraints) and returns a model if satisfiable.
    pub fn solve(&mut self, root: Formula) -> Option<ModelView> {
        self.solve_with_deadline(root, None)
            .expect("no deadline was set")
    }

    /// Like [`Ctx::solve`] but gives up at `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveTimeout`] when the deadline is exceeded.
    pub fn solve_with_deadline(
        &mut self,
        root: Formula,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<ModelView>, SolveTimeout> {
        self.solve_with_budget(root, deadline, None)
    }

    /// Like [`Ctx::solve_with_deadline`], additionally polling a
    /// cooperative-cancellation flag *inside* the SAT search loop, so a
    /// scheduler can interrupt a long solve without waiting for the
    /// deadline.
    ///
    /// # Errors
    ///
    /// Returns [`SolveTimeout`] when the deadline is exceeded or the flag
    /// is raised.
    pub fn solve_with_budget(
        &mut self,
        root: Formula,
        deadline: Option<std::time::Instant>,
        interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) -> Result<Option<ModelView>, SolveTimeout> {
        let _span = rehearsal_trace::span_cat("solve", "solver");
        rehearsal_trace::counter_add("sat.queries", 1);
        let cnf = self.to_cnf(root);
        let mut solver = Solver::new();
        solver.set_deadline(deadline);
        solver.set_interrupt(interrupt);
        solver.reserve_vars(cnf.num_vars());
        for c in cnf.clauses() {
            if !solver.add_clause(c.iter().copied()) {
                return Ok(None);
            }
        }
        let result = solver.solve();
        let s = solver.stats();
        self.oneshot.conflicts += s.conflicts;
        self.oneshot.decisions += s.decisions;
        self.oneshot.propagations += s.propagations;
        match result {
            SatResult::Sat(m) => Ok(Some(ModelView { model: m })),
            SatResult::Unsat => Ok(None),
            SatResult::Unknown => Err(SolveTimeout),
        }
    }

    /// Allocates a fresh Tseitin auxiliary variable for the persistent
    /// solver. Auxiliaries draw from the same counter as client booleans
    /// ([`Ctx::fresh_bool`]/[`Ctx::fd_var`] one-hot bits), so the identity
    /// mapping `BVar(i) ↔ solver var i` — which model decoding relies on —
    /// holds for the whole lifetime of the context.
    fn aux_var(&mut self) -> Var {
        let v = Var::from_index(self.n_bool_vars as usize);
        self.n_bool_vars += 1;
        self.inc.solver.reserve_vars(self.n_bool_vars as usize);
        v
    }

    /// Adds a permanent clause to the persistent solver, tracking stats
    /// and top-level contradiction.
    fn inc_add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.inc.stats.grounded_clauses += 1;
        if !self.inc.solver.add_clause(lits) {
            self.inc.unsat = true;
        }
    }

    /// The literal asserted true at the top level (grounds `tt`/`ff`).
    fn inc_lit_true(&mut self) -> Lit {
        if let Some(l) = self.inc.lit_true {
            return l;
        }
        let l = Lit::positive(self.aux_var());
        self.inc_add_clause([l]);
        self.inc.lit_true = Some(l);
        l
    }

    /// Grounds `f` into the persistent solver, emitting Tseitin CNF for
    /// every not-yet-grounded node exactly once, and returns `f`'s
    /// activation literal. Hash-consing makes this a no-op for any node a
    /// previous query already grounded.
    fn ground(&mut self, root: Formula) -> Lit {
        // Client booleans allocated since the last grounding must exist in
        // the solver before clauses mention them.
        self.inc.solver.reserve_vars(self.n_bool_vars as usize);
        // Nodes first encountered during *this* call: sharing within one
        // query's DAG walk is not "reuse" in the cross-query sense the
        // reuse ratio reports, so it must not inflate the counter.
        let mut seen_this_call: std::collections::HashSet<Formula> =
            std::collections::HashSet::new();
        let mut stack: Vec<(Formula, bool)> = vec![(root, false)];
        while let Some((f, expanded)) = stack.pop() {
            if !expanded && !seen_this_call.insert(f) {
                // A duplicate push from another parent in this same walk.
                continue;
            }
            if self.inc.lit_of.contains_key(&f) {
                if !expanded {
                    self.inc.stats.reused_nodes += 1;
                }
                continue;
            }
            let node = self.fnodes[f.0 as usize].clone();
            if !expanded {
                stack.push((f, true));
                match &node {
                    FNode::True | FNode::False | FNode::Var(_) => {}
                    FNode::Not(a) => stack.push((*a, false)),
                    FNode::And(cs) | FNode::Or(cs) => {
                        for &c in cs.iter() {
                            stack.push((c, false));
                        }
                    }
                    FNode::Ite(c, t, e) => {
                        stack.push((*c, false));
                        stack.push((*t, false));
                        stack.push((*e, false));
                    }
                    FNode::Iff(a, b) => {
                        stack.push((*a, false));
                        stack.push((*b, false));
                    }
                }
                continue;
            }
            let lit = match node {
                FNode::True => self.inc_lit_true(),
                FNode::False => !self.inc_lit_true(),
                FNode::Var(b) => Lit::positive(Var::from_index(b.0 as usize)),
                FNode::Not(a) => !self.inc.lit_of[&a],
                FNode::And(cs) => {
                    let x = Lit::positive(self.aux_var());
                    let mut big = vec![x];
                    for c in cs.iter() {
                        let cl = self.inc.lit_of[c];
                        self.inc_add_clause([!x, cl]);
                        big.push(!cl);
                    }
                    self.inc_add_clause(big);
                    x
                }
                FNode::Or(cs) => {
                    let x = Lit::positive(self.aux_var());
                    let mut big = vec![!x];
                    for c in cs.iter() {
                        let cl = self.inc.lit_of[c];
                        self.inc_add_clause([x, !cl]);
                        big.push(cl);
                    }
                    self.inc_add_clause(big);
                    x
                }
                FNode::Ite(c, t, e) => {
                    let x = Lit::positive(self.aux_var());
                    let (lc, lt, le) = (
                        self.inc.lit_of[&c],
                        self.inc.lit_of[&t],
                        self.inc.lit_of[&e],
                    );
                    self.inc_add_clause([!x, !lc, lt]);
                    self.inc_add_clause([!x, lc, le]);
                    self.inc_add_clause([x, !lc, !lt]);
                    self.inc_add_clause([x, lc, !le]);
                    x
                }
                FNode::Iff(a, b) => {
                    let x = Lit::positive(self.aux_var());
                    let (la, lb) = (self.inc.lit_of[&a], self.inc.lit_of[&b]);
                    self.inc_add_clause([!x, !la, lb]);
                    self.inc_add_clause([!x, la, !lb]);
                    self.inc_add_clause([x, la, lb]);
                    self.inc_add_clause([x, !la, !lb]);
                    x
                }
            };
            self.inc.stats.grounded_nodes += 1;
            self.inc.lit_of.insert(f, lit);
        }
        self.inc.lit_of[&root]
    }

    /// Permanently asserts every side constraint not yet grounded (fresh
    /// finite-domain one-hot constraints and [`Ctx::assert_background`]
    /// assertions accumulated since the last query).
    fn ground_side_constraints(&mut self) {
        while self.inc.grounded_side < self.side_constraints.len() {
            let f = self.side_constraints[self.inc.grounded_side];
            self.inc.grounded_side += 1;
            if self.is_true(f) {
                continue;
            }
            if self.is_false(f) {
                self.inc.unsat = true;
                continue;
            }
            let l = self.ground(f);
            self.inc_add_clause([l]);
        }
    }

    /// Decides satisfiability of `root` (under the side constraints) on
    /// the *persistent* solver: formula nodes are grounded to CNF exactly
    /// once across the context's lifetime, the root is activated via an
    /// assumption literal, and everything the solver learns is retained
    /// for subsequent queries. This is the incremental counterpart of
    /// [`Ctx::solve_with_budget`]; both paths decide the same theory, so
    /// their SAT/UNSAT verdicts always agree.
    ///
    /// # Errors
    ///
    /// Returns [`SolveTimeout`] when the deadline passes or the interrupt
    /// flag is raised mid-search.
    pub fn solve_assuming(
        &mut self,
        root: Formula,
        deadline: Option<std::time::Instant>,
        interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) -> Result<Option<ModelView>, SolveTimeout> {
        let _span = rehearsal_trace::span_cat("solve", "solver");
        rehearsal_trace::counter_add("sat.queries_incremental", 1);
        self.ground_side_constraints();
        if self.is_false(root) || self.inc.unsat {
            return Ok(None);
        }
        let lit = self.ground(root);
        if self.inc.unsat {
            return Ok(None);
        }
        self.inc.solver.set_deadline(deadline);
        self.inc.solver.set_interrupt(interrupt);
        let result = self.inc.solver.solve_with_assumptions(&[lit]);
        // Don't let this query's budget poison later ones.
        self.inc.solver.set_deadline(None);
        self.inc.solver.set_interrupt(None);
        match result {
            SatResult::Sat(m) => Ok(Some(ModelView { model: m })),
            SatResult::Unsat => Ok(None),
            SatResult::Unknown => Err(SolveTimeout),
        }
    }

    /// Cumulative statistics of the persistent solver (conflicts,
    /// decisions, propagations across every [`Ctx::solve_assuming`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.inc.solver.stats()
    }

    /// Grounding-reuse statistics for the incremental path.
    pub fn grounding_stats(&self) -> GroundingStats {
        self.inc.stats
    }

    /// Publishes the context's size, sharing, and search counters into the
    /// current trace session's registry (no-op when tracing is inactive).
    /// Called at phase boundaries — solving hot loops never touch the
    /// registry directly.
    pub fn publish_trace_metrics(&self) {
        if !rehearsal_trace::is_active() {
            return;
        }
        let s = self.stats();
        rehearsal_trace::gauge_max("ctx.formula_nodes", s.formula_nodes as i64);
        rehearsal_trace::gauge_max("ctx.term_nodes", s.term_nodes as i64);
        rehearsal_trace::gauge_max(
            "ctx.dedup_hits",
            (s.formula_dedup_hits + s.term_dedup_hits) as i64,
        );
        // Both the persistent solver and the one-shot ones count.
        let (solver, oneshot) = (self.solver_stats(), self.oneshot);
        rehearsal_trace::counter_add("sat.conflicts", solver.conflicts + oneshot.conflicts);
        rehearsal_trace::counter_add("sat.decisions", solver.decisions + oneshot.decisions);
        rehearsal_trace::counter_add(
            "sat.propagations",
            solver.propagations + oneshot.propagations,
        );
        let g = self.grounding_stats();
        rehearsal_trace::counter_add("sat.grounded_nodes", g.grounded_nodes);
        rehearsal_trace::counter_add("sat.grounded_clauses", g.grounded_clauses);
        rehearsal_trace::counter_add("sat.grounding_reused", g.reused_nodes);
    }

    /// Evaluates a formula under a boolean assignment function (testing aid).
    pub fn eval_formula(&self, f: Formula, assign: &dyn Fn(u32) -> bool) -> bool {
        let mut memo: HashMap<Formula, bool> = HashMap::new();
        self.eval_rec(f, assign, &mut memo)
    }

    fn eval_rec(
        &self,
        f: Formula,
        assign: &dyn Fn(u32) -> bool,
        memo: &mut HashMap<Formula, bool>,
    ) -> bool {
        if let Some(&b) = memo.get(&f) {
            return b;
        }
        let v = match &self.fnodes[f.0 as usize] {
            FNode::True => true,
            FNode::False => false,
            FNode::Var(b) => assign(b.0),
            FNode::Not(a) => !self.eval_rec(*a, assign, memo),
            FNode::And(cs) => cs.iter().all(|&c| self.eval_rec(c, assign, memo)),
            FNode::Or(cs) => cs.iter().any(|&c| self.eval_rec(c, assign, memo)),
            FNode::Ite(c, t, e) => {
                if self.eval_rec(*c, assign, memo) {
                    self.eval_rec(*t, assign, memo)
                } else {
                    self.eval_rec(*e, assign, memo)
                }
            }
            FNode::Iff(a, b) => self.eval_rec(*a, assign, memo) == self.eval_rec(*b, assign, memo),
        };
        memo.insert(f, v);
        v
    }

    /// Evaluates a term to its value under a model.
    fn eval_term_in(&self, t: Term, model: &Model) -> u32 {
        match &self.tnodes[t.0 as usize] {
            TNode::Val(v) => *v,
            TNode::Var(i) => {
                let info = &self.fd_vars[*i as usize];
                for (pos, &b) in info.bits.iter().enumerate() {
                    if model.var_value(Var::from_index(b.0 as usize)) {
                        return info.values[pos];
                    }
                }
                // The exactly-one constraint guarantees a set bit in any
                // model that constrains this variable; default to the first
                // value for variables the query never mentioned.
                info.values[0]
            }
            TNode::Ite(c, a, b) => {
                if self.eval_formula_in(*c, model) {
                    self.eval_term_in(*a, model)
                } else {
                    self.eval_term_in(*b, model)
                }
            }
        }
    }

    fn eval_formula_in(&self, f: Formula, model: &Model) -> bool {
        self.eval_formula(f, &|bv| model.var_value(Var::from_index(bv as usize)))
    }
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Ctx({} formulas, {} terms, {} bool vars, {} fd vars)",
            s.formula_nodes, s.term_nodes, s.bool_vars, s.fd_vars
        )
    }
}

/// The solver exceeded its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveTimeout;

impl fmt::Display for SolveTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SAT solving exceeded its deadline")
    }
}

impl std::error::Error for SolveTimeout {}

/// A model of a satisfiable query, for decoding counterexamples.
#[derive(Debug, Clone)]
pub struct ModelView {
    model: Model,
}

impl ModelView {
    /// The value of a finite-domain term in this model.
    pub fn term_value_in(&self, ctx: &Ctx, t: Term) -> u32 {
        ctx.eval_term_in(t, &self.model)
    }

    /// The truth value of a formula in this model.
    pub fn formula_value_in(&self, ctx: &Ctx, f: Formula) -> bool {
        ctx.eval_formula_in(f, &self.model)
    }
}

/// Convenience wrapper so `model.term_value(t)` works when a context is
/// globally threaded; most call sites use the `_in` variants.
impl ModelView {
    /// The raw SAT model.
    pub fn sat_model(&self) -> &Model {
        &self.model
    }
}

/// `whole` minus `part` when sorted `part` is a subset of sorted `whole`,
/// by one merge; `None` otherwise.
fn sorted_difference(whole: &[Formula], part: &[Formula]) -> Option<Vec<Formula>> {
    let mut rest = Vec::with_capacity(whole.len() - part.len());
    let mut wanted = part.iter().peekable();
    for &x in whole {
        match wanted.peek() {
            Some(&&p) if p == x => {
                wanted.next();
            }
            Some(&&p) if p < x => return None,
            _ => rest.push(x),
        }
    }
    wanted.peek().is_none().then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_on_empty_stats() {
        // Both ratio helpers must survive all-zero denominators (a Ctx
        // that never interned or grounded anything).
        assert_eq!(CtxStats::default().dedup_ratio(), 0.0);
        assert_eq!(GroundingStats::default().reuse_ratio(), 0.0);

        let half = CtxStats {
            formula_nodes: 3,
            term_nodes: 1,
            formula_dedup_hits: 2,
            term_dedup_hits: 2,
            ..CtxStats::default()
        };
        assert!((half.dedup_ratio() - 0.5).abs() < 1e-9);
        let reuse = GroundingStats {
            grounded_nodes: 1,
            reused_nodes: 3,
            grounded_clauses: 0,
        };
        assert!((reuse.reuse_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn constants() {
        let mut ctx = Ctx::new();
        let t = ctx.tt();
        let f = ctx.ff();
        assert_ne!(t, f);
        assert_eq!(ctx.not(t), f);
        assert_eq!(ctx.and2(t, f), f);
        assert_eq!(ctx.or2(t, f), t);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let f1 = ctx.and2(a, b);
        let f2 = ctx.and2(b, a);
        assert_eq!(f1, f2, "and is canonicalized by sorting");
        let n1 = ctx.not(a);
        let n2 = ctx.not(a);
        assert_eq!(n1, n2);
        assert_eq!(ctx.not(n1), a, "double negation cancels");
    }

    #[test]
    fn complement_simplification() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let na = ctx.not(a);
        assert_eq!(ctx.and2(a, na), ctx.ff());
        assert_eq!(ctx.or2(a, na), ctx.tt());
    }

    #[test]
    fn ite_simplifications() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let t = ctx.tt();
        let f = ctx.ff();
        assert_eq!(ctx.ite(t, a, b), a);
        assert_eq!(ctx.ite(f, a, b), b);
        assert_eq!(ctx.ite(a, b, b), b);
        assert_eq!(ctx.ite(a, t, f), a);
        let expected_not = ctx.not(a);
        assert_eq!(ctx.ite(a, f, t), expected_not);
    }

    #[test]
    fn solve_simple_sat() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let nb = ctx.not(b);
        let f = ctx.and2(a, nb);
        let m = ctx.solve(f).expect("sat");
        assert!(m.formula_value_in(&ctx, a));
        assert!(!m.formula_value_in(&ctx, b));
    }

    #[test]
    fn solve_with_raised_interrupt_reports_timeout() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let f = ctx.and2(a, b);
        let flag = Arc::new(AtomicBool::new(true));
        assert!(
            matches!(
                ctx.solve_with_budget(f, None, Some(flag)),
                Err(SolveTimeout)
            ),
            "a raised interrupt flag aborts the solve"
        );
        assert!(ctx.solve(f).is_some(), "without the flag it solves fine");
    }

    #[test]
    fn solve_simple_unsat() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let na = ctx.not(a);
        let f = ctx.and2(a, na);
        assert!(ctx.solve(f).is_none());
    }

    #[test]
    fn fd_var_takes_exactly_one_value() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2, 3]);
        let t = ctx.tt();
        let m = ctx.solve(t).expect("sat");
        let v = m.term_value_in(&ctx, x);
        assert!([1, 2, 3].contains(&v));
    }

    #[test]
    fn fd_constraints_narrow_value() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[5, 6, 7]);
        let b5 = ctx.bit(x, 5);
        let b7 = ctx.bit(x, 7);
        let n5 = ctx.not(b5);
        let n7 = ctx.not(b7);
        let f = ctx.and2(n5, n7);
        let m = ctx.solve(f).expect("sat");
        assert_eq!(m.term_value_in(&ctx, x), 6);
    }

    #[test]
    fn bit_of_impossible_value_is_false() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2]);
        assert_eq!(ctx.bit(x, 99), ctx.ff());
    }

    #[test]
    fn eq_terms_on_disjoint_domains_is_false() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2]);
        let y = ctx.fd_var(&[3, 4]);
        assert_eq!(ctx.eq_terms(x, y), ctx.ff());
    }

    #[test]
    fn eq_terms_forces_agreement() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2, 3]);
        let y = ctx.fd_var(&[2, 3, 4]);
        let eq = ctx.eq_terms(x, y);
        let b3x = ctx.bit(x, 3);
        let n3x = ctx.not(b3x);
        let f = ctx.and2(eq, n3x);
        let m = ctx.solve(f).expect("sat");
        assert_eq!(m.term_value_in(&ctx, x), 2);
        assert_eq!(m.term_value_in(&ctx, y), 2);
    }

    #[test]
    fn tite_threads_conditions() {
        let mut ctx = Ctx::new();
        let c = ctx.fresh_bool();
        let one = ctx.val(1);
        let two = ctx.val(2);
        let t = ctx.tite(c, one, two);
        // t == 1 forces c.
        let b1 = ctx.bit(t, 1);
        let m = ctx.solve(b1).expect("sat");
        assert!(m.formula_value_in(&ctx, c));
        assert_eq!(m.term_value_in(&ctx, t), 1);
    }

    #[test]
    fn possible_values_of_ite() {
        let mut ctx = Ctx::new();
        let c = ctx.fresh_bool();
        let x = ctx.fd_var(&[1, 2]);
        let y = ctx.val(7);
        let t = ctx.tite(c, x, y);
        let vs = ctx.possible_values(t);
        assert_eq!(&*vs, &vec![1, 2, 7]);
    }

    #[test]
    fn iff_encoding() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let iff = ctx.iff(a, b);
        let f = ctx.and2(iff, a);
        let m = ctx.solve(f).expect("sat");
        assert!(m.formula_value_in(&ctx, b));
        // a ↔ b with a and ¬b: unsat
        let nb = ctx.not(b);
        let f2 = ctx.and([iff, a, nb]);
        assert!(ctx.solve(f2).is_none());
    }

    #[test]
    fn deep_formula_solves() {
        // Chain of equivalences a0 ↔ a1 ↔ ... ↔ an with a0 true forces all.
        let mut ctx = Ctx::new();
        let vars: Vec<Formula> = (0..200).map(|_| ctx.fresh_bool()).collect();
        let mut conj = vec![vars[0]];
        for i in 0..vars.len() - 1 {
            let e = ctx.iff(vars[i], vars[i + 1]);
            conj.push(e);
        }
        let f = ctx.and(conj);
        let m = ctx.solve(f).expect("sat");
        for &v in &vars {
            assert!(m.formula_value_in(&ctx, v));
        }
    }

    #[test]
    fn to_cnf_of_constant_true() {
        let mut ctx = Ctx::new();
        let t = ctx.tt();
        assert!(ctx.solve(t).is_some());
    }

    #[test]
    fn to_cnf_of_constant_false() {
        let mut ctx = Ctx::new();
        let f = ctx.ff();
        assert!(ctx.solve(f).is_none());
    }

    #[test]
    fn incremental_agrees_with_oneshot() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2, 3]);
        let y = ctx.fd_var(&[2, 3, 4]);
        let eq = ctx.eq_terms(x, y);
        let b1 = ctx.bit(x, 1);
        let queries = {
            let both = ctx.and2(eq, b1);
            let neq = ctx.not(eq);
            vec![eq, both, neq, ctx.tt(), ctx.ff()]
        };
        for q in queries {
            let oneshot = ctx.solve(q).is_some();
            let incremental = ctx.solve_assuming(q, None, None).unwrap().is_some();
            assert_eq!(oneshot, incremental, "paths disagree on query {q:?}");
        }
    }

    #[test]
    fn incremental_grounds_shared_nodes_once() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2, 3]);
        let y = ctx.fd_var(&[1, 2, 3]);
        let eq = ctx.eq_terms(x, y);
        assert!(ctx.solve_assuming(eq, None, None).unwrap().is_some());
        let after_first = ctx.grounding_stats();
        assert!(after_first.grounded_nodes > 0);
        // A second query over the same subformula reuses its grounding.
        let b1 = ctx.bit(x, 1);
        let q2 = ctx.and2(eq, b1);
        assert!(ctx.solve_assuming(q2, None, None).unwrap().is_some());
        let after_second = ctx.grounding_stats();
        assert!(
            after_second.reused_nodes > after_first.reused_nodes,
            "eq was already grounded"
        );
        assert!(after_second.reuse_ratio() > 0.0);
    }

    #[test]
    fn incremental_models_decode_terms() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[5, 6, 7]);
        let b5 = ctx.bit(x, 5);
        let b7 = ctx.bit(x, 7);
        let n5 = ctx.not(b5);
        let n7 = ctx.not(b7);
        let f = ctx.and2(n5, n7);
        let m = ctx.solve_assuming(f, None, None).unwrap().expect("sat");
        assert_eq!(m.term_value_in(&ctx, x), 6);
        // Auxiliary Tseitin variables must not disturb decoding of
        // booleans allocated after a grounded query.
        let fresh = ctx.fresh_bool();
        let q = ctx.and2(f, fresh);
        let m = ctx.solve_assuming(q, None, None).unwrap().expect("sat");
        assert_eq!(m.term_value_in(&ctx, x), 6);
        assert!(m.formula_value_in(&ctx, fresh));
    }

    #[test]
    fn incremental_unsat_then_sat_queries() {
        let mut ctx = Ctx::new();
        let x = ctx.fd_var(&[1, 2]);
        let b1 = ctx.bit(x, 1);
        let b2 = ctx.bit(x, 2);
        let both = ctx.and2(b1, b2);
        assert!(
            ctx.solve_assuming(both, None, None).unwrap().is_none(),
            "one-hot forbids two values"
        );
        // The UNSAT query must not poison the solver for later queries.
        assert!(ctx.solve_assuming(b1, None, None).unwrap().is_some());
        assert!(ctx.solve_assuming(b2, None, None).unwrap().is_some());
        let stats = ctx.solver_stats();
        assert!(stats.propagations > 0);
    }

    #[test]
    fn incremental_respects_raised_interrupt() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let f = ctx.and2(a, b);
        let flag = Arc::new(AtomicBool::new(true));
        assert!(matches!(
            ctx.solve_assuming(f, None, Some(flag)),
            Err(SolveTimeout)
        ));
        // The budget does not stick to the persistent solver.
        assert!(ctx.solve_assuming(f, None, None).unwrap().is_some());
    }

    #[test]
    fn incremental_sees_late_background_assertions() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let t = ctx.tt();
        assert!(ctx.solve_assuming(t, None, None).unwrap().is_some());
        let na = ctx.not(a);
        ctx.assert_background(na);
        let m = ctx.solve_assuming(t, None, None).unwrap().expect("sat");
        assert!(!m.formula_value_in(&ctx, a), "late assertion is enforced");
        assert!(ctx.solve_assuming(a, None, None).unwrap().is_none());
    }

    #[test]
    fn eval_formula_matches_solver() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_bool();
        let b = ctx.fresh_bool();
        let c = ctx.fresh_bool();
        let ab = ctx.and2(a, b);
        let f = ctx.ite(c, ab, a);
        let nf = ctx.not(f);
        // Enumerate all assignments; formula evaluation must agree with a
        // truth-table of the intended function.
        for bits in 0..8u32 {
            let assign = move |v: u32| bits >> v & 1 == 1;
            let (va, vb, vc) = (assign(0), assign(1), assign(2));
            let expected = if vc { va && vb } else { va };
            assert_eq!(ctx.eval_formula(f, &assign), expected);
            assert_eq!(ctx.eval_formula(nf, &assign), !expected);
        }
    }
}
