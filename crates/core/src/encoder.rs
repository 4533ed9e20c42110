//! The symbolic evaluator Φ (paper fig. 7): FS programs to logical states.
//!
//! A logical state `Σ = ⟨ok, fs⟩` pairs an error-freedom formula with a map
//! from modeled paths to finite-domain terms. Expressions update the map
//! unconditionally and accumulate preconditions into `ok`, exactly as in
//! the paper's figure; conditionals merge branches with if-then-else terms.
//!
//! Because expressions are hash-consed ids and formulas/terms are
//! hash-consed handles, a symbolic state is identified exactly by its `ok`
//! handle plus its term vector — so Φ is memoized per encoder on
//! `(expression id, state identity)`. The permutation explorer re-evaluates
//! the same resources from the same intermediate states across branches
//! (and identical embedded subprograms, e.g. shared package-dependency
//! blocks, recur within one sequence); every such repeat is now a map
//! lookup instead of a re-encoding.

use crate::domain::{Domain, MetaTable, PathValue, ValueTable, CODE_DIR, CODE_DNE};
use rehearsal_fs::{
    Content, Expr, ExprNode, FileState, FileSystem, FsPath, Meta, MetaValue, Pred, PredNode,
};
use rehearsal_solver::{Ctx, Formula, ModelView, Term};
use std::collections::{BTreeSet, HashMap};

/// The per-field metadata terms of one path, in [`MetaField::ALL`]
/// (owner, group, mode) order.
///
/// [`MetaField::ALL`]: rehearsal_fs::MetaField::ALL
pub type MetaTerms = [Term; 3];

/// A logical state `Σ` (paper fig. 7), extended with per-path metadata:
/// `path → {File(content, meta), Dir(meta), Absent}` where each of the
/// three `meta` fields is a separate finite-domain term over
/// `{Unmanaged} ∪ mentioned values`.
///
/// Both term vectors are dense, in the encoder's domain order (see
/// [`Encoder::term_of`] for the term of one path).
#[derive(Debug, Clone)]
pub struct SymState {
    /// True iff no operation has failed.
    pub ok: Formula,
    /// The symbolic state of every modeled path, in domain order.
    pub fs: Vec<Term>,
    /// The symbolic metadata of every metadata-tracked path (see
    /// [`Domain::meta_paths`]), in that set's order; empty for
    /// metadata-free programs, which keeps their state keys bit-identical
    /// to the metadata-free model.
    pub meta: Vec<MetaTerms>,
}

/// The canonical identity of a [`SymState`]: the `ok` handle plus the term
/// handle of every path (and every tracked metadata field), in the (fixed)
/// domain order. Exact — because formulas and terms are hash-consed, two
/// states with equal keys are the same logical state, and two states with
/// different keys are structurally different formulas (though possibly
/// still semantically equal).
pub type StateKey = (Formula, Vec<Term>);

impl SymState {
    /// This state's canonical content key. Hashing the key is the cheap
    /// content hash the explorer's output dedup and state cache bucket
    /// on; comparing keys is exact structural identity.
    pub fn key(&self) -> StateKey {
        let mut terms = Vec::with_capacity(self.fs.len() + 3 * self.meta.len());
        terms.extend_from_slice(&self.fs);
        for fields in &self.meta {
            terms.extend_from_slice(fields);
        }
        (self.ok, terms)
    }
}

/// The position of `p` in a sorted path list.
fn position(paths: &[FsPath], p: FsPath) -> usize {
    paths
        .binary_search(&p)
        .unwrap_or_else(|_| panic!("path {p} not in the analysis domain"))
}

/// The symbolic encoder: a solver context plus the value table and domain
/// shared by every formula in one analysis.
#[derive(Debug)]
pub struct Encoder {
    /// The underlying formula/term context.
    pub ctx: Ctx,
    /// Meaning of value codes.
    pub values: ValueTable,
    /// Meaning of metadata value codes (shared by all three fields).
    pub meta_values: MetaTable,
    /// The bounded path domain.
    pub domain: Domain,
    /// `domain.paths` in order: the index of a path's term in a state.
    paths: Vec<FsPath>,
    /// `domain.meta_paths` in order: the index of a path's metadata terms.
    meta_paths: Vec<FsPath>,
    /// Paths encoded as read-only (pruned paths, paper §4.4): their initial
    /// variable is reused and never overwritten.
    read_only: BTreeSet<FsPath>,
    /// Memoized symbolic evaluation of composite nodes: `(e, Σ) → Φ(e)Σ`.
    eval_memo: HashMap<(Expr, StateKey), SymState>,
    /// Memo hits, for stats/diagnostics.
    eval_memo_hits: usize,
    /// The index of every path term written during the current
    /// evaluation, newest last (duplicates allowed): a conditional merges
    /// only what its branches appended here.
    written: Vec<usize>,
    /// Likewise for metadata terms.
    meta_written: Vec<usize>,
}

impl Encoder {
    /// Creates an encoder for the given domain.
    pub fn new(domain: Domain) -> Encoder {
        Encoder {
            ctx: Ctx::new(),
            values: ValueTable::new(),
            meta_values: MetaTable::new(),
            paths: domain.paths.iter().copied().collect(),
            meta_paths: domain.meta_paths.iter().copied().collect(),
            domain,
            read_only: BTreeSet::new(),
            eval_memo: HashMap::new(),
            eval_memo_hits: 0,
            written: Vec::new(),
            meta_written: Vec::new(),
        }
    }

    /// Marks a path as read-only (its writes have been pruned away).
    pub fn mark_read_only(&mut self, p: FsPath) {
        self.read_only.insert(p);
    }

    /// Whether `p` is encoded read-only.
    pub fn is_read_only(&self, p: FsPath) -> bool {
        self.read_only.contains(&p)
    }

    /// Number of read-write (state-tracked) paths.
    pub fn tracked_paths(&self) -> usize {
        self.domain.paths.len() - self.read_only.len()
    }

    /// How many symbolic evaluations were answered from the memo table.
    pub fn eval_memo_hits(&self) -> usize {
        self.eval_memo_hits
    }

    /// Builds the initial symbolic state: one finite-domain variable per
    /// path over `{DNE, Dir, File(init_p)}`, with the root fixed to `Dir`.
    ///
    /// Initial states are constrained to be *tree-consistent*: a path may
    /// only exist when its parent is a directory. Real filesystems satisfy
    /// this, and every FS operation preserves it (`mkdir`/`creat`/`cp`
    /// require the parent directory; `rm` requires emptiness), so
    /// restricting the search is sound and necessary — without it the
    /// checker reports divergences on impossible states such as
    /// `/etc/ntp.conf` existing inside a missing `/etc`.
    pub fn initial_state(&mut self) -> SymState {
        let mut fs = Vec::with_capacity(self.paths.len());
        for &p in &self.paths {
            let term = if p == FsPath::root() {
                let dir = self.values.code(PathValue::Dir);
                self.ctx.val(dir)
            } else {
                let dne = self.values.code(PathValue::Dne);
                let dir = self.values.code(PathValue::Dir);
                let init = self.values.code(PathValue::FileInit(p));
                self.ctx.fd_var(&[dne, dir, init])
            };
            fs.push(term);
        }
        // Tree consistency: exists(p) → dir?(parent(p)).
        for (&p, &t) in self.paths.iter().zip(&fs) {
            let Some(parent) = p.parent() else { continue };
            let Ok(parent_index) = self.paths.binary_search(&parent) else {
                continue;
            };
            let exists = {
                let dne = self.ctx.bit(t, CODE_DNE);
                self.ctx.not(dne)
            };
            let parent_dir = self.ctx.bit(fs[parent_index], CODE_DIR);
            let implication = self.ctx.implies(exists, parent_dir);
            self.ctx.assert_background(implication);
        }
        // Metadata-tracked paths get one free variable per field over
        // `{Unmanaged} ∪ mentioned values` — the initial metadata may be
        // anything the programs could subsequently observe.
        let mut meta = Vec::with_capacity(self.meta_paths.len());
        if !self.meta_paths.is_empty() {
            let mut codes = vec![self.meta_values.code(MetaValue::Unmanaged)];
            for &v in &self.domain.meta_values {
                codes.push(self.meta_values.code(MetaValue::Set(v)));
            }
            for _ in &self.meta_paths {
                meta.push([
                    self.ctx.fd_var(&codes),
                    self.ctx.fd_var(&codes),
                    self.ctx.fd_var(&codes),
                ]);
            }
        }
        SymState {
            ok: self.ctx.tt(),
            fs,
            meta,
        }
    }

    /// Resets a freshly created/removed path's metadata to `Unmanaged`
    /// (a no-op for paths whose metadata is untracked).
    fn reset_meta(&mut self, state: &mut SymState, p: FsPath) {
        if let Ok(i) = self.meta_paths.binary_search(&p) {
            let code = self.meta_values.code(MetaValue::Unmanaged);
            let t = self.ctx.val(code);
            state.meta[i] = [t, t, t];
            self.meta_written.push(i);
        }
    }

    /// The term `state` holds for the domain path `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in the domain.
    pub fn term_of(&self, state: &SymState, p: FsPath) -> Term {
        state.fs[position(&self.paths, p)]
    }

    /// `dir?(p)` as a formula.
    pub fn is_dir(&mut self, state: &SymState, p: FsPath) -> Formula {
        let t = self.term_of(state, p);
        self.ctx.bit(t, CODE_DIR)
    }

    /// `none?(p)` as a formula.
    pub fn is_dne(&mut self, state: &SymState, p: FsPath) -> Formula {
        let t = self.term_of(state, p);
        self.ctx.bit(t, CODE_DNE)
    }

    /// `file?(p)` as a formula (not absent and not a directory).
    pub fn is_file(&mut self, state: &SymState, p: FsPath) -> Formula {
        let dne = self.is_dne(state, p);
        let dir = self.is_dir(state, p);
        let ndne = self.ctx.not(dne);
        let ndir = self.ctx.not(dir);
        self.ctx.and2(ndne, ndir)
    }

    /// `emptydir?(p)`: a directory whose modeled children are all absent.
    ///
    /// Completeness relies on the fresh children added by
    /// [`Domain::of_exprs`] (paper fig. 8).
    pub fn is_empty_dir(&mut self, state: &SymState, p: FsPath) -> Formula {
        let mut conj = vec![self.is_dir(state, p)];
        for &c in self.domain.children_of(p) {
            let t = state.fs[position(&self.paths, c)];
            conj.push(self.ctx.bit(t, CODE_DNE));
        }
        self.ctx.and(conj)
    }

    /// Encodes a predicate against a symbolic state.
    pub fn eval_pred(&mut self, pred: Pred, state: &SymState) -> Formula {
        match pred.node() {
            PredNode::True => self.ctx.tt(),
            PredNode::False => self.ctx.ff(),
            PredNode::DoesNotExist(p) => self.is_dne(state, p),
            PredNode::IsFile(p) => self.is_file(state, p),
            PredNode::IsDir(p) => self.is_dir(state, p),
            PredNode::IsEmptyDir(p) => self.is_empty_dir(state, p),
            PredNode::MetaIs(p, field, v) => {
                // Exists ∧ field managed to exactly v.
                let dne = self.is_dne(state, p);
                let exists = self.ctx.not(dne);
                let term = state.meta[position(&self.meta_paths, p)][field.index()];
                let code = self.meta_values.code(MetaValue::Set(v));
                let matches = self.ctx.bit(term, code);
                self.ctx.and2(exists, matches)
            }
            PredNode::And(a, b) => {
                let fa = self.eval_pred(a, state);
                let fb = self.eval_pred(b, state);
                self.ctx.and2(fa, fb)
            }
            PredNode::Or(a, b) => {
                let fa = self.eval_pred(a, state);
                let fb = self.eval_pred(b, state);
                self.ctx.or2(fa, fb)
            }
            PredNode::Not(a) => {
                let fa = self.eval_pred(a, state);
                self.ctx.not(fa)
            }
        }
    }

    fn set_path(&mut self, state: &mut SymState, p: FsPath, value: Term) {
        debug_assert!(
            !self.read_only.contains(&p),
            "write to pruned (read-only) path {p}"
        );
        let i = position(&self.paths, p);
        state.fs[i] = value;
        self.written.push(i);
    }

    /// Φ(e): evaluates an expression symbolically (paper fig. 7).
    ///
    /// Composite programs are memoized on `(id, state)` at this entry
    /// point only: the permutation explorer re-evaluates whole resources
    /// from recurring intermediate states across branches, and that is
    /// where repeats actually happen. The recursion below this entry is
    /// unmemoized — intermediate states along a `Seq` spine are unique, so
    /// keying every internal node would cost O(paths) per node for no
    /// hits. Below the entry the state is threaded by value: a step
    /// updates only the terms it writes, and an undecided conditional
    /// copies the state once and merges only the terms its branches wrote.
    pub fn eval_expr(&mut self, e: Expr, state: &SymState) -> SymState {
        let key = match e.node() {
            ExprNode::Seq(_, _) | ExprNode::If(_, _, _) => {
                let key = (e, state.key());
                if let Some(cached) = self.eval_memo.get(&key) {
                    self.eval_memo_hits += 1;
                    return cached.clone();
                }
                Some(key)
            }
            _ => None,
        };
        let out = self.eval_owned(e, state.clone());
        self.written.clear();
        self.meta_written.clear();
        if let Some(key) = key {
            self.eval_memo.insert(key, out.clone());
        }
        out
    }

    fn eval_owned(&mut self, e: Expr, mut state: SymState) -> SymState {
        match e.node() {
            ExprNode::Skip => state,
            ExprNode::Error => {
                state.ok = self.ctx.ff();
                state
            }
            ExprNode::Mkdir(p) => {
                let parent = p.parent().expect("mkdir of root is rejected upstream");
                let pre_parent = self.is_dir(&state, parent);
                let pre_self = self.is_dne(&state, p);
                let pre = self.ctx.and2(pre_parent, pre_self);
                state.ok = self.ctx.and2(state.ok, pre);
                let dir = self.values.code(PathValue::Dir);
                let dir_t = self.ctx.val(dir);
                self.set_path(&mut state, p, dir_t);
                self.reset_meta(&mut state, p);
                state
            }
            ExprNode::CreateFile(p, content) => {
                let parent = p.parent().expect("creat at root is rejected upstream");
                let pre_parent = self.is_dir(&state, parent);
                let pre_self = self.is_dne(&state, p);
                let pre = self.ctx.and2(pre_parent, pre_self);
                state.ok = self.ctx.and2(state.ok, pre);
                let code = self.values.code(PathValue::File(content));
                let t = self.ctx.val(code);
                self.set_path(&mut state, p, t);
                self.reset_meta(&mut state, p);
                state
            }
            ExprNode::Rm(p) => {
                let is_f = self.is_file(&state, p);
                let is_ed = self.is_empty_dir(&state, p);
                let pre = self.ctx.or2(is_f, is_ed);
                state.ok = self.ctx.and2(state.ok, pre);
                let dne = self.values.code(PathValue::Dne);
                let t = self.ctx.val(dne);
                self.set_path(&mut state, p, t);
                // An absent path has canonical (Unmanaged) metadata, so
                // create-then-remove reconverges with never-created.
                self.reset_meta(&mut state, p);
                state
            }
            ExprNode::Cp(src, dst) => {
                let dst_parent = dst.parent().expect("cp to root is rejected upstream");
                let pre_src = self.is_file(&state, src);
                let pre_parent = self.is_dir(&state, dst_parent);
                let pre_dst = self.is_dne(&state, dst);
                let pre = self.ctx.and([pre_src, pre_parent, pre_dst]);
                state.ok = self.ctx.and2(state.ok, pre);
                // The destination takes the source's (file) value; non-file
                // cases are excluded by `ok`, so junk values are harmless.
                let src_t = self.term_of(&state, src);
                self.set_path(&mut state, dst, src_t);
                // cp does not copy metadata: the fresh copy is unmanaged.
                self.reset_meta(&mut state, dst);
                state
            }
            ExprNode::ChMeta(p, field, v) => {
                let dne = self.is_dne(&state, p);
                let pre = self.ctx.not(dne);
                state.ok = self.ctx.and2(state.ok, pre);
                let code = self.meta_values.code(MetaValue::Set(v));
                let t = self.ctx.val(code);
                let i = position(&self.meta_paths, p);
                state.meta[i][field.index()] = t;
                self.meta_written.push(i);
                state
            }
            ExprNode::Seq(a, b) => {
                let mid = self.eval_owned(a, state);
                self.eval_owned(b, mid)
            }
            ExprNode::If(pred, then_, else_) => {
                let cond = self.eval_pred(pred, &state);
                if self.ctx.is_true(cond) {
                    return self.eval_owned(then_, state);
                }
                if self.ctx.is_false(cond) {
                    return self.eval_owned(else_, state);
                }
                let (mark, meta_mark) = (self.written.len(), self.meta_written.len());
                let st = self.eval_owned(then_, state.clone());
                let se = self.eval_owned(else_, state);
                let ok = self.ctx.ite(cond, st.ok, se.ok);
                // Only the terms either branch wrote can differ; the
                // entries stay in the logs for any enclosing conditional.
                let mut out = st;
                out.ok = ok;
                for i in sorted_unique(&self.written[mark..]) {
                    let (tt, te) = (out.fs[i], se.fs[i]);
                    if tt != te {
                        out.fs[i] = self.ctx.tite(cond, tt, te);
                    }
                }
                // And likewise for every tracked metadata field.
                for i in sorted_unique(&self.meta_written[meta_mark..]) {
                    let (ft, fe) = (out.meta[i], se.meta[i]);
                    for k in 0..3 {
                        if ft[k] != fe[k] {
                            out.meta[i][k] = self.ctx.tite(cond, ft[k], fe[k]);
                        }
                    }
                }
                out
            }
        }
    }

    /// The formula "states `a` and `b` are observably different": their
    /// error status differs, or both succeed and some path differs — in
    /// kind/content, or (for a path present in both) in managed metadata.
    pub fn states_differ(&mut self, a: &SymState, b: &SymState) -> Formula {
        let ok_differs = {
            let iff = self.ctx.iff(a.ok, b.ok);
            self.ctx.not(iff)
        };
        let mut some_path_differs = Vec::new();
        for (&ta, &tb) in a.fs.iter().zip(&b.fs) {
            if ta != tb {
                some_path_differs.push(self.ctx.neq_terms(ta, tb));
            }
        }
        // Metadata is only observable while the path exists: removal
        // resets the tracked fields to `Unmanaged`, and two absent paths
        // are indistinguishable regardless of stale field terms.
        for (i, (fa, fb)) in a.meta.iter().zip(&b.meta).enumerate() {
            let mut field_diffs = Vec::new();
            for k in 0..3 {
                if fa[k] != fb[k] {
                    field_diffs.push(self.ctx.neq_terms(fa[k], fb[k]));
                }
            }
            if field_diffs.is_empty() {
                continue;
            }
            let any_field = self.ctx.or(field_diffs);
            let p = self.meta_paths[i];
            let dne_a = self.is_dne(a, p);
            let dne_b = self.is_dne(b, p);
            let exists_a = self.ctx.not(dne_a);
            let exists_b = self.ctx.not(dne_b);
            let both_exist = self.ctx.and2(exists_a, exists_b);
            some_path_differs.push(self.ctx.and2(both_exist, any_field));
        }
        let any = self.ctx.or(some_path_differs);
        let both_ok = self.ctx.and2(a.ok, b.ok);
        let diff_ok = self.ctx.and2(both_ok, any);
        self.ctx.or2(ok_differs, diff_ok)
    }

    /// Decodes a model into a concrete filesystem over the domain,
    /// interpreting the given symbolic state (typically the initial one).
    pub fn decode_state(&mut self, model: &ModelView, state: &SymState) -> FileSystem {
        let mut out = FileSystem::new();
        for (&p, &t) in self.paths.iter().zip(&state.fs) {
            let code = model.term_value_in(&self.ctx, t);
            let decoded = match self.values.value(code) {
                PathValue::Dne => None,
                PathValue::Dir => Some(FileState::DIR),
                PathValue::File(c) => Some(FileState::file(c)),
                PathValue::FileInit(q) => {
                    // A provenance tag: materialize a content unique to q.
                    let c = Content::intern(&format!("<initial content of {q}>"));
                    Some(FileState::file(c))
                }
            };
            let Some(file_state) = decoded else { continue };
            let meta = match self.meta_paths.binary_search(&p) {
                Ok(i) => {
                    let mut m = Meta::UNMANAGED;
                    for (k, field) in rehearsal_fs::MetaField::ALL.into_iter().enumerate() {
                        let code = model.term_value_in(&self.ctx, state.meta[i][k]);
                        if let MetaValue::Set(v) = self.meta_values.value(code) {
                            m = m.with(field, v);
                        }
                    }
                    m
                }
                Err(_) => Meta::UNMANAGED,
            };
            out.insert(p, file_state.with_meta(meta));
        }
        out
    }
}

/// The distinct entries of a write log, in ascending (domain) order.
fn sorted_unique(log: &[usize]) -> Vec<usize> {
    let mut out = log.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::eval as concrete_eval;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn encoder_for(exprs: &[Expr]) -> Encoder {
        Encoder::new(Domain::of_exprs(exprs.iter().copied()))
    }

    #[test]
    fn mkdir_success_needs_parent() {
        let e = Expr::mkdir(p("/a/b"));
        let mut enc = encoder_for(&[e]);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(e, &s0);
        // Satisfiable: /a is a dir, /a/b absent.
        let m = enc.ctx.solve(s1.ok).expect("mkdir can succeed");
        let init = enc.decode_state(&m, &s0);
        assert!(init.is_dir(p("/a")));
        assert!(init.not_exists(p("/a/b")));
    }

    #[test]
    fn mkdir_then_mkdir_same_path_always_fails() {
        let e = Expr::mkdir(p("/a")).seq(Expr::mkdir(p("/a")));
        let mut enc = encoder_for(&[e]);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(e, &s0);
        assert!(enc.ctx.solve(s1.ok).is_none(), "second mkdir must fail");
    }

    #[test]
    fn conditional_merges_branches() {
        let a = p("/a");
        let e = Expr::if_(Pred::does_not_exist(a), Expr::mkdir(a), Expr::SKIP);
        let mut enc = encoder_for(&[e]);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(e, &s0);
        // The program fails only when /a exists as a file... actually when
        // /a is absent it creates it (root is a dir), when /a is a dir it
        // skips, when /a is a file it skips. It never fails.
        let nok = enc.ctx.not(s1.ok);
        assert!(enc.ctx.solve(nok).is_none(), "program never errs");
        // But the final state of /a is not always Dir: a file stays a file.
        let t = enc.term_of(&s1, a);
        let dne = enc.ctx.bit(t, CODE_DNE);
        assert!(enc.ctx.solve(dne).is_none(), "/a always exists afterwards");
        let dir = enc.ctx.bit(t, CODE_DIR);
        let ndir = enc.ctx.not(dir);
        assert!(enc.ctx.solve(ndir).is_some(), "/a may remain a file");
    }

    #[test]
    fn repeated_subprograms_hit_the_memo() {
        let a = p("/m");
        let sub = Expr::if_then(Pred::is_dir(a).not(), Expr::mkdir(a))
            .seq(Expr::create_file(p("/m/f"), Content::intern("x")));
        let mut enc = encoder_for(&[sub]);
        let s0 = enc.initial_state();
        let o1 = enc.eval_expr(sub, &s0);
        assert_eq!(enc.eval_memo_hits(), 0, "first evaluation is fresh");
        let o2 = enc.eval_expr(sub, &s0);
        assert!(enc.eval_memo_hits() > 0, "identical (e, Σ) is memoized");
        // The memoized result is the same logical state.
        assert_eq!(o1.ok, o2.ok);
        assert_eq!(o1.fs, o2.fs);
    }

    #[test]
    fn emptydir_distinguishes_from_dir() {
        // Paper §4.1: these two programs differ, but only on a state with a
        // child inside /a — found thanks to the fresh child.
        let a = p("/a");
        let e1 = Expr::if_(Pred::is_empty_dir(a), Expr::SKIP, Expr::ERROR);
        let e2 = Expr::if_(Pred::is_dir(a), Expr::SKIP, Expr::ERROR);
        let mut enc = encoder_for(&[e1, e2]);
        let s0 = enc.initial_state();
        let o1 = enc.eval_expr(e1, &s0);
        let o2 = enc.eval_expr(e2, &s0);
        let diff = enc.states_differ(&o1, &o2);
        let m = enc.ctx.solve(diff).expect("the programs differ");
        let init = enc.decode_state(&m, &s0);
        assert!(init.is_dir(a), "counterexample: /a is a non-empty dir");
        let has_child = init.iter().any(|(q, _)| a.is_parent_of(q));
        assert!(has_child, "counterexample must populate /a: {init}");
    }

    #[test]
    fn equivalent_programs_have_unsat_difference() {
        // Guarded mkdir ≡ its three-way expansion (paper §4.3).
        let a = p("/a");
        let e1 = Expr::if_then(Pred::is_dir(a).not(), Expr::mkdir(a));
        let e2 = Expr::if_(
            Pred::does_not_exist(a),
            Expr::mkdir(a),
            Expr::if_(Pred::is_file(a), Expr::ERROR, Expr::SKIP),
        );
        let mut enc = encoder_for(&[e1, e2]);
        let s0 = enc.initial_state();
        let o1 = enc.eval_expr(e1, &s0);
        let o2 = enc.eval_expr(e2, &s0);
        let diff = enc.states_differ(&o1, &o2);
        assert!(enc.ctx.solve(diff).is_none(), "programs are equivalent");
    }

    #[test]
    fn cp_copies_symbolic_content() {
        let e = Expr::cp(p("/src"), p("/dst"));
        let mut enc = encoder_for(&[e]);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(e, &s0);
        // After success, dst equals src's initial content.
        let (dst, src) = (enc.term_of(&s1, p("/dst")), enc.term_of(&s0, p("/src")));
        let eq = enc.ctx.eq_terms(dst, src);
        let neq = enc.ctx.not(eq);
        let bad = enc.ctx.and2(s1.ok, neq);
        assert!(enc.ctx.solve(bad).is_none());
    }

    /// Cross-validation: on random-ish small programs, the symbolic
    /// encoding's model decodes to an initial state on which the concrete
    /// evaluator reproduces the symbolic verdict.
    #[test]
    fn symbolic_and_concrete_agree_on_error_behavior() {
        let cases = vec![
            Expr::mkdir(p("/a")).seq(Expr::create_file(p("/a/f"), Content::intern("x"))),
            Expr::rm(p("/a")),
            Expr::cp(p("/a"), p("/b")).seq(Expr::rm(p("/a"))),
            Expr::if_(
                Pred::is_file(p("/a")),
                Expr::rm(p("/a")),
                Expr::mkdir(p("/a")),
            ),
        ];
        for &e in &cases {
            let mut enc = encoder_for(&[e]);
            let s0 = enc.initial_state();
            let s1 = enc.eval_expr(e, &s0);
            // If a success state exists, the decoded initial state must make
            // the concrete evaluator succeed.
            if let Some(m) = enc.ctx.solve(s1.ok) {
                let init = enc.decode_state(&m, &s0);
                assert!(
                    concrete_eval(e, &init).is_ok(),
                    "symbolic success must replay concretely: {e} on {init}"
                );
            }
            // If a failure state exists, the decoded initial state must make
            // the concrete evaluator fail.
            let nok = enc.ctx.not(s1.ok);
            if let Some(m) = enc.ctx.solve(nok) {
                let init = enc.decode_state(&m, &s0);
                assert!(
                    concrete_eval(e, &init).is_err(),
                    "symbolic failure must replay concretely: {e} on {init}"
                );
            }
        }
    }

    #[test]
    fn metadata_free_states_have_no_meta_terms() {
        let e = Expr::mkdir(p("/nm"));
        let mut enc = encoder_for(&[e]);
        let s0 = enc.initial_state();
        assert!(s0.meta.is_empty(), "no meta ops → no meta terms");
        let s1 = enc.eval_expr(e, &s0);
        assert!(s1.meta.is_empty());
        // The state key is exactly the metadata-free key shape.
        assert_eq!(s1.key().1.len(), s1.fs.len());
    }

    #[test]
    fn chmod_race_is_symbolically_observable() {
        use rehearsal_fs::eval as concrete_eval;
        let f = p("/mr/f");
        let c = Content::intern("same");
        let mk = Expr::mkdir(p("/mr")).seq(Expr::create_file(f, c));
        let a = mk.seq(Expr::chmod(f, Content::intern("0644")));
        let b = mk.seq(Expr::chmod(f, Content::intern("0755")));
        let mut enc = encoder_for(&[a, b]);
        let s0 = enc.initial_state();
        let oa = enc.eval_expr(a, &s0);
        let ob = enc.eval_expr(b, &s0);
        let diff = enc.states_differ(&oa, &ob);
        let m = enc.ctx.solve(diff).expect("modes differ");
        // The decoded witness replays to genuinely different outcomes.
        let init = enc.decode_state(&m, &s0);
        let ra = concrete_eval(a, &init);
        let rb = concrete_eval(b, &init);
        assert_ne!(ra, rb, "metadata divergence must replay concretely");
    }

    #[test]
    fn remove_then_recreate_clears_metadata() {
        // chown(f, root); rm(f); creat(f, c)  ≡  creat-path without chown:
        // metadata resets on re-creation, so the two end states are equal.
        let f = p("/rc/f");
        let c = Content::intern("v");
        let mk = Expr::mkdir(p("/rc")).seq(Expr::create_file(f, c));
        let with_chown = mk
            .seq(Expr::chown(f, Content::intern("root")))
            .seq(Expr::rm(f))
            .seq(Expr::create_file(f, c));
        let without = mk.seq(Expr::rm(f)).seq(Expr::create_file(f, c));
        let mut enc = encoder_for(&[with_chown, without]);
        let s0 = enc.initial_state();
        let o1 = enc.eval_expr(with_chown, &s0);
        let o2 = enc.eval_expr(without, &s0);
        let diff = enc.states_differ(&o1, &o2);
        assert!(
            enc.ctx.solve(diff).is_none(),
            "re-creation resets metadata to Unmanaged"
        );
    }

    #[test]
    fn meta_is_matches_only_managed_values() {
        use rehearsal_fs::MetaField;
        let f = p("/mi2/f");
        let root = Content::intern("root");
        let mk = Expr::mkdir(p("/mi2")).seq(Expr::create_file(f, Content::intern("x")));
        // After creat (no chown), meta_is(owner=root) must be false on
        // every run that succeeded.
        let probe = Pred::meta_is(f, MetaField::Owner, root);
        let chowned = mk.seq(Expr::chown(f, root));
        let mut enc = encoder_for(&[mk, chowned]);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(mk, &s0);
        let probe_f = enc.eval_pred(probe, &s1);
        let bad = enc.ctx.and2(s1.ok, probe_f);
        assert!(
            enc.ctx.solve(bad).is_none(),
            "fresh files are unmanaged: the probe can never hold"
        );
        // With the chown, the probe holds on every successful run.
        let s2 = enc.eval_expr(chowned, &s0);
        let probe_f2 = enc.eval_pred(probe, &s2);
        let not_probe = enc.ctx.not(probe_f2);
        let bad2 = enc.ctx.and2(s2.ok, not_probe);
        assert!(enc.ctx.solve(bad2).is_none(), "chown establishes the probe");
    }

    #[test]
    fn branch_merge_covers_metadata() {
        use rehearsal_fs::eval as concrete_eval;
        let f = p("/bm/f");
        let c = Content::intern("x");
        let mk = Expr::mkdir(p("/bm")).seq(Expr::create_file(f, c));
        // Conditionally chown depending on an unrelated path.
        let e = mk.seq(Expr::if_(
            Pred::is_file(p("/bm-flag")),
            Expr::chown(f, Content::intern("root")),
            Expr::SKIP,
        ));
        let plain = mk;
        let mut enc = encoder_for(&[e, plain]);
        let s0 = enc.initial_state();
        let o1 = enc.eval_expr(e, &s0);
        let o2 = enc.eval_expr(plain, &s0);
        let diff = enc.states_differ(&o1, &o2);
        let m = enc
            .ctx
            .solve(diff)
            .expect("differs when the flag file exists");
        let init = enc.decode_state(&m, &s0);
        assert!(init.is_file(p("/bm-flag")), "witness must set the flag");
        assert_ne!(concrete_eval(e, &init), concrete_eval(plain, &init));
    }

    #[test]
    fn read_only_paths_are_guarded() {
        let e = Expr::if_(Pred::is_file(p("/ro")), Expr::SKIP, Expr::ERROR);
        let mut enc = encoder_for(&[e]);
        enc.mark_read_only(p("/ro"));
        assert!(enc.is_read_only(p("/ro")));
        assert_eq!(enc.tracked_paths(), enc.domain.len() - 1);
        let s0 = enc.initial_state();
        let s1 = enc.eval_expr(e, &s0);
        assert!(enc.ctx.solve(s1.ok).is_some());
    }
}
