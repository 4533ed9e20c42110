//! The determinacy analysis (paper §4): explore the resource graph's
//! permutations with partial-order reduction, encode the outcomes as
//! formulas, and decide determinism with one SAT query (Theorem 1).

use crate::bitset::Bits;
use crate::commutativity::{accesses, commutes, AccessSummary};
use crate::domain::Domain;
use crate::encoder::{Encoder, StateKey, SymState};
use crate::prune::prune_graph;
use rehearsal_fs::{eval as concrete_eval, Expr, FileSystem};
use rehearsal_solver::ModelView;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-analysis evaluation budget: deadline plus cancellation, threaded
/// down into the SAT solver so a fleet scheduler can interrupt mid-solve.
pub(crate) fn interrupt_flag(options: &AnalysisOptions) -> Option<Arc<AtomicBool>> {
    options.cancel.as_ref().map(|t| Arc::clone(&t.flag))
}

/// The abort reason for a failed solve, distinguishing cooperative
/// cancellation from a plain deadline.
pub(crate) fn solve_abort_reason(options: &AnalysisOptions) -> AnalysisAborted {
    let cancelled = options
        .cancel
        .as_ref()
        .map(CancelToken::is_cancelled)
        .unwrap_or(false);
    AnalysisAborted {
        reason: if cancelled {
            "cancelled during SAT solving".to_string()
        } else {
            "timeout during SAT solving".to_string()
        },
    }
}

/// A shareable cancellation handle for in-flight analyses.
///
/// Cloning the token shares the underlying flag, so a scheduler can hand
/// the same token to an analysis running on another thread and revoke its
/// time budget early (e.g. when a fleet run is aborted). The analysis
/// polls the token at the same points it polls its deadline and returns
/// [`AnalysisAborted`] once cancelled.
///
/// Tokens form a tree: [`CancelToken::child`] derives a token that is
/// cancelled whenever its parent is, while cancelling the child leaves
/// the parent (and its other children) untouched. A request-serving
/// daemon hands each request a child of one global drain token: the
/// request can be cancelled individually (its deadline), and draining
/// the daemon revokes every in-flight request at once.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every analysis sharing this token (and
    /// every descendant token) aborts at its next budget check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested, on this token or any
    /// ancestor. An observed ancestor cancellation is propagated into
    /// this token's own flag so low-level pollers holding only the flag
    /// (the SAT solver's interrupt check) trip on the next poll too.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.parent.as_ref().is_some_and(|p| p.is_cancelled()) {
            self.flag.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Derives a linked child token: cancelling the parent cancels the
    /// child (propagated at the child's next poll), cancelling the child
    /// does not affect the parent.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// Tuning knobs for the analysis; the defaults enable everything the paper
/// describes. Disabling individual reductions reproduces the ablations of
/// fig. 11.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Partial-order reduction via the commutativity check (§4.3).
    pub commutativity: bool,
    /// Resource elimination (§4.4).
    pub elimination: bool,
    /// Path pruning / shrinking (§4.4).
    pub pruning: bool,
    /// Abort the analysis after this much wall-clock time.
    pub timeout: Option<Duration>,
    /// Abort after exploring this many distinct sequences (a memory
    /// safety-valve for the factorial worst case, fig. 13).
    pub max_sequences: usize,
    /// Cooperative cancellation: when set, the analysis aborts as soon as
    /// the token is cancelled, independent of the timeout.
    pub cancel: Option<CancelToken>,
    /// Sound state-reconvergence cache: commuting prefixes that reach the
    /// same `(remaining, symbolic state)` are explored once, and the
    /// skipped subtree's sequence count is accounted from the first visit.
    /// Never changes the verdict (the skipped subtree would reproduce the
    /// exact same output formulas); off is an ablation/debugging mode.
    pub state_cache: bool,
    /// Check each newly discovered distinct output against the first *as
    /// it is found* on the incremental solver, returning NONDET as soon as
    /// one check is satisfiable instead of exploring the full space first.
    /// Never changes the verdict; off restores the single monolithic
    /// post-exploration query.
    pub early_exit: bool,
    /// Honor `owner`/`group`/`mode` attributes when compiling resources
    /// (the metadata-aware FS model). Strictly speaking a *modeling*
    /// option — it changes what the resource compiler emits, not how the
    /// explorer runs — but it rides in `AnalysisOptions` because it
    /// changes verdicts and therefore must reach everything keyed on the
    /// analysis configuration (the fleet verdict cache, the CLI, batch
    /// runs). Off by default: unannotated pipelines stay bit-identical.
    pub model_metadata: bool,
    /// Model `package { ensure => latest }` distinctly from `present`
    /// (the upgrade re-overwrites the package's files with version-bumped
    /// content) instead of aliasing it to the idempotent install. Rides
    /// here for the same reason as [`AnalysisOptions::model_metadata`]:
    /// it changes verdicts, so the fleet engine and the verdict-cache key
    /// must see it. Off by default; a compiler diagnostic is recorded for
    /// every `latest` either way.
    pub model_latest: bool,
    /// Accepted for compatibility and ignored: exploration is always
    /// sequential.
    pub threads: usize,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            commutativity: true,
            elimination: true,
            pruning: true,
            timeout: None,
            max_sequences: 100_000,
            cancel: None,
            state_cache: true,
            early_exit: true,
            model_metadata: false,
            model_latest: false,
            threads: 1,
        }
    }
}

impl AnalysisOptions {
    /// All reductions off (the naive baseline of fig. 11).
    pub fn naive() -> AnalysisOptions {
        AnalysisOptions {
            commutativity: false,
            elimination: false,
            pruning: false,
            ..AnalysisOptions::default()
        }
    }

    /// Sets a timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> AnalysisOptions {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> AnalysisOptions {
        self.cancel = Some(token);
        self
    }
}

/// The analysis gave up (timeout or sequence explosion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisAborted {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for AnalysisAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analysis aborted: {}", self.reason)
    }
}

impl std::error::Error for AnalysisAborted {}

/// Size statistics from a determinism check, reported by the benchmark
/// harness (fig. 11a counts paths per state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeterminismStats {
    /// Resources in the input graph.
    pub resources: usize,
    /// Resources remaining after elimination.
    pub resources_after_elimination: usize,
    /// Paths in the bounded domain.
    pub paths: usize,
    /// Paths still tracked read-write after pruning (fig. 11a's metric).
    pub tracked_paths: usize,
    /// Metadata operations (`chown`/`chgrp`/`chmod`) in the analyzed
    /// programs (post-elimination, pre-pruning). Zero whenever the
    /// metadata model is off or nothing manages metadata.
    pub meta_ops: usize,
    /// Paths whose metadata the encoding tracks (see
    /// [`crate::domain::Domain::meta_paths`]).
    pub meta_tracked_paths: usize,
    /// Distinct sequences covered by ΦG, *including* ones whose suffix was
    /// answered by the state cache (so the figure is comparable across
    /// cache on/off, and `max_sequences` keeps its historical meaning:
    /// the size of the interleaving space the analysis accounted for).
    pub sequences_explored: usize,
    /// Of [`DeterminismStats::sequences_explored`], how many were covered
    /// via state-cache hits rather than evaluated symbolically.
    pub sequences_skipped: usize,
    /// Explorer state-cache hits (reconverged `(remaining, state)` pairs).
    pub state_cache_hits: usize,
    /// Distinct symbolic output states after content-hash dedup (the
    /// number of `states_differ` candidates actually considered).
    pub distinct_outputs: usize,
    /// Formula nodes allocated.
    pub formula_nodes: usize,
    /// CDCL conflicts in the persistent solver across all queries.
    pub solver_conflicts: u64,
    /// Literals propagated by the persistent solver.
    pub solver_propagations: u64,
    /// Clauses grounded into the persistent solver (each exactly once).
    pub grounded_clauses: u64,
    /// Formula nodes Tseitin-grounded (each exactly once).
    pub grounded_nodes: u64,
    /// Grounding requests answered by an already-grounded node.
    pub grounded_reused: u64,
}

impl DeterminismStats {
    /// The check's grounding statistics as the solver-layer type.
    pub fn grounding(&self) -> rehearsal_solver::GroundingStats {
        rehearsal_solver::GroundingStats {
            grounded_nodes: self.grounded_nodes,
            reused_nodes: self.grounded_reused,
            grounded_clauses: self.grounded_clauses,
        }
    }

    /// Fraction of grounding requests served by reuse across the check's
    /// incremental SAT queries (0.0 when nothing was grounded).
    pub fn grounding_reuse_ratio(&self) -> f64 {
        self.grounding().reuse_ratio()
    }

    /// Publishes the check's explorer counters into the current trace
    /// session's registry (no-op when tracing is inactive). The solver's
    /// own counters are published by
    /// [`rehearsal_solver::Ctx::publish_trace_metrics`], not here.
    pub fn publish_trace_metrics(&self) {
        if !rehearsal_trace::is_active() {
            return;
        }
        rehearsal_trace::counter_add("explore.sequences", self.sequences_explored as u64);
        rehearsal_trace::counter_add("explore.sequences_skipped", self.sequences_skipped as u64);
        rehearsal_trace::counter_add("explore.cache_hits", self.state_cache_hits as u64);
        rehearsal_trace::counter_add("explore.distinct_outputs", self.distinct_outputs as u64);
        rehearsal_trace::gauge_max("domain.paths", self.paths as i64);
        rehearsal_trace::gauge_max("domain.tracked_paths", self.tracked_paths as i64);
        rehearsal_trace::gauge_max("graph.resources", self.resources as i64);
        rehearsal_trace::gauge_max(
            "graph.resources_after_elimination",
            self.resources_after_elimination as i64,
        );
    }
}

/// A counterexample to determinism: one initial state, two valid orders,
/// two different outcomes.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The initial filesystem (restricted to the analysis domain).
    pub initial: FileSystem,
    /// The first resource order (indices into the graph's resources).
    pub order_a: Vec<usize>,
    /// The second resource order.
    pub order_b: Vec<usize>,
    /// Concrete outcome of replaying order A.
    pub outcome_a: Result<FileSystem, rehearsal_fs::ExecError>,
    /// Concrete outcome of replaying order B.
    pub outcome_b: Result<FileSystem, rehearsal_fs::ExecError>,
}

/// The verdict of the determinacy analysis.
#[derive(Debug, Clone)]
pub enum DeterminismReport {
    /// Every valid order produces the same outcome on every input.
    Deterministic(DeterminismStats),
    /// Two orders can differ; a replayed counterexample is attached.
    NonDeterministic(Box<Counterexample>, DeterminismStats),
}

impl DeterminismReport {
    /// Whether the verdict is "deterministic".
    pub fn is_deterministic(&self) -> bool {
        matches!(self, DeterminismReport::Deterministic(_))
    }

    /// The statistics either way.
    pub fn stats(&self) -> DeterminismStats {
        match self {
            DeterminismReport::Deterministic(s) => *s,
            DeterminismReport::NonDeterministic(_, s) => *s,
        }
    }
}

/// A resource graph lowered to FS programs: expressions plus dependency
/// edges (`(before, after)` index pairs), display names, and the source
/// span of each resource's declaration (for source-anchored findings).
#[derive(Debug, Clone, Default)]
pub struct FsGraph {
    /// One FS program per resource.
    pub exprs: Vec<Expr>,
    /// Dependency edges between indices.
    pub edges: BTreeSet<(usize, usize)>,
    /// Human-readable resource names (e.g. `Package[vim]`).
    pub names: Vec<String>,
    /// The manifest span each resource was declared at (parallel to
    /// `names`; dummy spans for synthesized graphs).
    pub spans: Vec<rehearsal_diag::Span>,
}

impl FsGraph {
    /// Builds a graph, checking edge bounds. Resources get dummy spans;
    /// use [`FsGraph::with_spans`] to attach declaration sites.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or names/exprs lengths
    /// differ.
    pub fn new(exprs: Vec<Expr>, edges: BTreeSet<(usize, usize)>, names: Vec<String>) -> FsGraph {
        assert_eq!(exprs.len(), names.len());
        for &(a, b) in &edges {
            assert!(a < exprs.len() && b < exprs.len());
        }
        let spans = vec![rehearsal_diag::Span::DUMMY; names.len()];
        FsGraph {
            exprs,
            edges,
            names,
            spans,
        }
    }

    /// Attaches per-resource declaration spans (parallel to `names`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn with_spans(mut self, spans: Vec<rehearsal_diag::Span>) -> FsGraph {
        assert_eq!(spans.len(), self.names.len());
        self.spans = spans;
        self
    }

    /// One resource's declaration span (dummy when unknown).
    pub fn span(&self, i: usize) -> rehearsal_diag::Span {
        self.spans
            .get(i)
            .copied()
            .unwrap_or(rehearsal_diag::Span::DUMMY)
    }

    fn successors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.exprs.len()];
        for &(a, b) in &self.edges {
            out[a].push(b);
        }
        out
    }

    fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.exprs.len()];
        for &(a, b) in &self.edges {
            out[b].push(a);
        }
        out
    }

    fn ancestor_sets(&self) -> Vec<BTreeSet<usize>> {
        let preds = self.predecessors();
        let n = self.exprs.len();
        let mut out = vec![BTreeSet::new(); n];
        // Process in topological order so ancestor sets accumulate.
        let mut indeg: Vec<usize> = (0..n).map(|i| preds[i].len()).collect();
        let succs = self.successors();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::new();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j);
                }
            }
        }
        for &i in &order {
            let mut set = BTreeSet::new();
            for &p in &preds[i] {
                set.insert(p);
                set.extend(out[p].iter().copied());
            }
            out[i] = set;
        }
        out
    }

    /// Descendant sets (everything that must run after each node).
    fn descendant_sets(&self) -> Vec<BTreeSet<usize>> {
        let n = self.exprs.len();
        let anc = self.ancestor_sets();
        let mut out = vec![BTreeSet::new(); n];
        for (i, set) in anc.iter().enumerate() {
            for &a in set {
                out[a].insert(i);
            }
        }
        out
    }

    /// One valid topological order.
    pub fn topological_order(&self) -> Vec<usize> {
        let preds = self.predecessors();
        let succs = self.successors();
        let n = self.exprs.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| preds[i].len()).collect();
        let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::new();
        while let Some(&i) = ready.iter().next() {
            ready.remove(&i);
            order.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.insert(j);
                }
            }
        }
        assert_eq!(order.len(), n, "FsGraph must be acyclic");
        order
    }
}

/// The explorer's state-cache key: which resources remain, plus the exact
/// canonical identity of the symbolic state. Exact — no hash truncation —
/// so a hit is *guaranteed* to denote a previously completed subtree over
/// identical formulas.
#[derive(Clone, PartialEq, Eq, Hash)]
struct VisitKey {
    remaining: Bits,
    state: StateKey,
}

/// One node of the iterative DFS over permutations.
struct Frame {
    remaining: Bits,
    state: SymState,
    /// `state.key()`, computed once by the step that produced the state.
    state_key: StateKey,
    /// Branch choices (the whole fringe, or one element when POR commits).
    candidates: Vec<usize>,
    /// Next candidate to expand.
    next: usize,
    /// Whether this frame's latest candidate is currently on the prefix.
    pushed: bool,
    /// Entry work (budget check, cache probe, fringe computation) done.
    entered: bool,
    /// Sequence counter at entry, for the subtree's leaves-covered count.
    explored_at_entry: u64,
    /// The frame's cache key (None when the cache is disabled).
    key: Option<VisitKey>,
}

impl Frame {
    fn unentered(remaining: Bits, state: SymState, state_key: StateKey) -> Frame {
        Frame {
            remaining,
            state,
            state_key,
            candidates: Vec::new(),
            next: 0,
            pushed: false,
            entered: false,
            explored_at_entry: 0,
            key: None,
        }
    }
}

/// A satisfiable early-exit check: output `which` differs from output 0.
struct EarlyExit {
    which: usize,
    model: ModelView,
}

struct Explorer<'a> {
    graph: &'a FsGraph,
    /// Per-node predecessor mask (for the word-parallel fringe test).
    preds: Vec<Bits>,
    /// Per-node descendant cone.
    descendants: Vec<Bits>,
    /// `commute_mask[e]`: the nodes whose access summaries commute with
    /// `e`'s (empty masks when the commutativity reduction is off).
    commute_mask: Vec<Bits>,
    options: &'a AnalysisOptions,
    deadline: Option<Instant>,
    /// One representative (sequence, final state) per *distinct* symbolic
    /// output state (content-hash dedup: structurally identical outputs
    /// collapse before any `states_differ` disjunct exists).
    outputs: Vec<(Vec<usize>, SymState)>,
    seen_outputs: HashMap<StateKey, usize>,
    /// Completed subtrees: `(remaining, state)` → sequences covered.
    visited: HashMap<VisitKey, u64>,
    /// Sequences covered, including cache-hit skips.
    explored: u64,
    /// Of `explored`, sequences covered via cache hits.
    skipped: u64,
    cache_hits: u64,
}

impl<'a> Explorer<'a> {
    fn new(graph: &'a FsGraph, options: &'a AnalysisOptions, deadline: Option<Instant>) -> Self {
        let n = graph.exprs.len();
        let to_bits = |sets: Vec<BTreeSet<usize>>| -> Vec<Bits> {
            sets.iter()
                .map(|s| {
                    let mut b = Bits::new(n);
                    for &i in s {
                        b.insert(i);
                    }
                    b
                })
                .collect()
        };
        let preds = {
            let mut out = vec![Bits::new(n); n];
            for &(a, b) in &graph.edges {
                out[b].insert(a);
            }
            out
        };
        let commute_span = rehearsal_trace::span_cat("commute", "core");
        let commute_mask = if options.commutativity {
            let summaries: Vec<Arc<AccessSummary>> =
                graph.exprs.iter().map(|&e| accesses(e)).collect();
            let mut masks = vec![Bits::new(n); n];
            for i in 0..n {
                for j in (i + 1)..n {
                    // `commutes` is symmetric (Lemma 4's conditions are).
                    if commutes(&summaries[i], &summaries[j]) {
                        masks[i].insert(j);
                        masks[j].insert(i);
                    }
                }
            }
            masks
        } else {
            vec![Bits::new(n); n]
        };
        drop(commute_span);
        Explorer {
            graph,
            preds,
            descendants: to_bits(graph.descendant_sets()),
            commute_mask,
            options,
            deadline,
            outputs: Vec::new(),
            seen_outputs: HashMap::new(),
            visited: HashMap::new(),
            explored: 0,
            skipped: 0,
            cache_hits: 0,
        }
    }

    /// Whether fringe node `e` commutes with every remaining node that may
    /// run concurrently with it — every remaining node that is not `e`
    /// itself and not one of `e`'s descendants (its ancestors are gone:
    /// `e` is on the fringe). Word-parallel over the bitset words.
    fn all_concurrent_commute(&self, remaining: &Bits, e: usize) -> bool {
        let desc = self.descendants[e].words();
        let comm = self.commute_mask[e].words();
        for (w, &r) in remaining.words().iter().enumerate() {
            let mut concurrent = r & !desc[w] & !comm[w];
            if w == e / 64 {
                concurrent &= !(1u64 << (e % 64));
            }
            if concurrent != 0 {
                return false;
            }
        }
        true
    }

    /// The fringe of `remaining` (fig. 9a), reduced to a single committed
    /// node when partial-order reduction applies.
    fn branch_candidates(&self, remaining: &Bits) -> Vec<usize> {
        let fringe: Vec<usize> = remaining
            .iter()
            .filter(|&i| !self.preds[i].intersects(remaining))
            .collect();
        debug_assert!(!fringe.is_empty(), "acyclic graph always has a fringe");
        if self.options.commutativity {
            for &e in &fringe {
                if self.all_concurrent_commute(remaining, e) {
                    return vec![e];
                }
            }
        }
        fringe
    }

    fn check_budget(&self) -> Result<(), AnalysisAborted> {
        if let Some(token) = &self.options.cancel {
            if token.is_cancelled() {
                return Err(AnalysisAborted {
                    reason: "cancelled during permutation exploration".to_string(),
                });
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(AnalysisAborted {
                    reason: "timeout during permutation exploration".to_string(),
                });
            }
        }
        Ok(())
    }

    fn check_sequence_cap(&self) -> Result<(), AnalysisAborted> {
        if self.explored > self.options.max_sequences as u64 {
            return Err(AnalysisAborted {
                reason: format!(
                    "more than {} sequences explored",
                    self.options.max_sequences
                ),
            });
        }
        Ok(())
    }

    /// Records a completed sequence. New distinct outputs are immediately
    /// checked against the first on the incremental solver (early exit).
    fn record_leaf(
        &mut self,
        enc: &mut Encoder,
        state: SymState,
        key: StateKey,
        prefix: &[usize],
    ) -> Result<Option<EarlyExit>, AnalysisAborted> {
        self.explored += 1;
        self.check_sequence_cap()?;
        if self.seen_outputs.contains_key(&key) {
            return Ok(None);
        }
        let idx = self.outputs.len();
        self.seen_outputs.insert(key, idx);
        self.outputs.push((prefix.to_vec(), state));
        if self.options.early_exit && idx > 0 {
            let d = {
                let (head, tail) = self.outputs.split_at(idx);
                enc.states_differ(&head[0].1, &tail[0].1)
            };
            if !enc.ctx.is_false(d) {
                match enc
                    .ctx
                    .solve_assuming(d, self.deadline, interrupt_flag(self.options))
                {
                    Ok(None) => {}
                    Ok(Some(model)) => return Ok(Some(EarlyExit { which: idx, model })),
                    Err(_) => return Err(solve_abort_reason(self.options)),
                }
            }
        }
        Ok(None)
    }

    /// ΦG with partial-order reduction (fig. 9a) as an explicit-stack DFS:
    /// no recursion (deep graphs cannot overflow the thread stack), bitset
    /// fringe/commute computation, state-cache skipping of reconverged
    /// prefixes, and incremental early-exit NONDET checks at the leaves.
    fn run(
        &mut self,
        enc: &mut Encoder,
        initial: SymState,
    ) -> Result<Option<EarlyExit>, AnalysisAborted> {
        let n = self.graph.exprs.len();
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<Frame> = Vec::with_capacity(n + 1);
        let initial_key = initial.key();
        stack.push(Frame::unentered(Bits::full(n), initial, initial_key));
        // Sampled trace events: one per 4096 loop iterations, so a hot DFS
        // costs a local increment + branch when tracing is off and a
        // bounded number of records when it is on.
        let mut iterations: u64 = 0;

        // One closure-free helper: after popping a child, un-push the
        // parent's prefix element.
        fn return_to_parent(stack: &mut [Frame], prefix: &mut Vec<usize>) {
            if let Some(parent) = stack.last_mut() {
                if parent.pushed {
                    prefix.pop();
                    parent.pushed = false;
                }
            }
        }

        while !stack.is_empty() {
            iterations += 1;
            if iterations & 0xFFF == 0 {
                rehearsal_trace::event("explore.frames.4k", "core");
            }
            // Entry work for a frame seen for the first time.
            let top = stack.last_mut().expect("non-empty stack");
            if !top.entered {
                top.entered = true;
                self.check_budget()?;
                if top.remaining.is_empty() {
                    let frame = stack.pop().expect("frame on stack");
                    if let Some(exit) =
                        self.record_leaf(enc, frame.state, frame.state_key, &prefix)?
                    {
                        return Ok(Some(exit));
                    }
                    return_to_parent(&mut stack, &mut prefix);
                    continue;
                }
                if self.options.state_cache {
                    let key = VisitKey {
                        remaining: top.remaining.clone(),
                        state: (top.state_key.0, std::mem::take(&mut top.state_key.1)),
                    };
                    if let Some(&count) = self.visited.get(&key) {
                        self.cache_hits += 1;
                        self.skipped += count;
                        self.explored += count;
                        self.check_sequence_cap()?;
                        stack.pop();
                        return_to_parent(&mut stack, &mut prefix);
                        continue;
                    }
                    top.key = Some(key);
                }
                top.explored_at_entry = self.explored;
                let candidates = self.branch_candidates(&top.remaining);
                let top = stack.last_mut().expect("non-empty stack");
                top.candidates = candidates;
            }

            // Advance the top frame to its next branch, or retire it.
            let top = stack.last_mut().expect("non-empty stack");
            if top.next < top.candidates.len() {
                let e = top.candidates[top.next];
                top.next += 1;
                // One symbolic step: the resource's effect on the state,
                // and the key the state cache and output dedup probe.
                let (next_state, next_key) = {
                    let _span = rehearsal_trace::span_cat("step", "core");
                    let next = enc.eval_expr(self.graph.exprs[e], &top.state);
                    let key = next.key();
                    (next, key)
                };
                let rest = top.remaining.without(e);
                top.pushed = true;
                prefix.push(e);
                stack.push(Frame::unentered(rest, next_state, next_key));
            } else {
                let frame = stack.pop().expect("frame on stack");
                if let Some(key) = frame.key {
                    self.visited
                        .insert(key, self.explored - frame.explored_at_entry);
                }
                return_to_parent(&mut stack, &mut prefix);
            }
        }
        Ok(None)
    }
}

/// Checks whether an [`FsGraph`] is deterministic (Theorem 1).
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout or sequence explosion.
pub fn check_determinism(
    graph: &FsGraph,
    options: &AnalysisOptions,
) -> Result<DeterminismReport, AnalysisAborted> {
    let deadline = options.timeout.map(|t| Instant::now() + t);
    let n = graph.exprs.len();
    let summaries: Vec<Arc<AccessSummary>> = graph.exprs.iter().map(|&e| accesses(e)).collect();

    // 1. Resource elimination (§4.4). Elimination is justified by the
    //    commutativity check, so disabling commutativity disables it too.
    let alive: BTreeSet<usize> = {
        let _span = rehearsal_trace::span_cat("eliminate", "core");
        if options.elimination && options.commutativity {
            crate::elimination::surviving_nodes(
                &summaries,
                &graph.successors(),
                &graph.ancestor_sets(),
            )
        } else {
            (0..n).collect()
        }
    };
    let sub = subgraph(graph, &alive);

    // 2. Path pruning (§4.4): definitive writes by exactly one resource,
    //    unobserved by the rest, become read-only residues.
    let (pruned, read_only) = {
        let _span = rehearsal_trace::span_cat("prune", "core");
        if options.pruning {
            prune_graph(&sub)
        } else {
            (sub.clone(), BTreeSet::new())
        }
    };

    // 3+4. Encode, explore (bitset POR + state cache + early exit), and
    //    decide. A divergence reduces to a concrete initial filesystem
    //    plus two pruned-graph orders.
    let explore_span = rehearsal_trace::span_cat("explore", "core");
    let domain_span = rehearsal_trace::span_cat("domain", "core");
    let domain = Domain::of_exprs(pruned.exprs.iter().copied());
    let paths = domain.len();
    let meta_tracked_paths = domain.meta_paths.len();
    let mut stats = DeterminismStats {
        resources: n,
        resources_after_elimination: alive.len(),
        paths,
        meta_ops: pruned.exprs.iter().map(|&e| count_meta_ops(e)).sum(),
        meta_tracked_paths,
        ..DeterminismStats::default()
    };

    let mut enc = Encoder::new(domain);
    for &p in &read_only {
        enc.mark_read_only(p);
    }
    let initial = enc.initial_state();
    drop(domain_span);
    let search_span = rehearsal_trace::span_cat("search", "core");
    let mut explorer = Explorer::new(&pruned, options, deadline);
    let early = explorer.run(&mut enc, initial.clone())?;
    let outputs = explorer.outputs;

    stats.tracked_paths = enc.tracked_paths();
    stats.sequences_explored = explorer.explored as usize;
    stats.sequences_skipped = explorer.skipped as usize;
    stats.state_cache_hits = explorer.cache_hits as usize;
    stats.distinct_outputs = outputs.len();

    // All outputs equal to the first ⟺ deterministic. With early exit
    // on, every distinct output was already checked incrementally as
    // it was found; otherwise fall back to one monolithic query.
    let divergence: Option<(usize, ModelView)> = match early {
        Some(exit) => Some((exit.which, exit.model)),
        None if options.early_exit || outputs.len() <= 1 => None,
        None => {
            let _span = rehearsal_trace::span_cat("solve.final", "core");
            let first_state = &outputs[0].1;
            let mut disjuncts = Vec::new();
            for (_, other_state) in &outputs[1..] {
                let d = enc.states_differ(first_state, other_state);
                disjuncts.push(d);
            }
            let any_diff = enc.ctx.or(disjuncts.clone());
            let solved = enc
                .ctx
                .solve_with_budget(any_diff, deadline, interrupt_flag(options))
                .map_err(|_| solve_abort_reason(options))?;
            solved.map(|model| {
                // Find which alternative differed.
                let mut which = 1;
                for (k, d) in disjuncts.iter().enumerate() {
                    if model.formula_value_in(&enc.ctx, *d) {
                        which = k + 1;
                        break;
                    }
                }
                (which, model)
            })
        }
    };

    stats.formula_nodes = enc.ctx.stats().formula_nodes;
    let solver = enc.ctx.solver_stats();
    stats.solver_conflicts = solver.conflicts;
    stats.solver_propagations = solver.propagations;
    let grounding = enc.ctx.grounding_stats();
    stats.grounded_clauses = grounding.grounded_clauses;
    stats.grounded_nodes = grounding.grounded_nodes;
    stats.grounded_reused = grounding.reused_nodes;
    // Phase boundary: the hot loops above kept local counters; the
    // registry sees them exactly once, here.
    enc.ctx.publish_trace_metrics();
    drop(search_span);

    let divergence = divergence.map(|(which, model)| {
        let _span = rehearsal_trace::span_cat("decode", "core");
        let init_fs = enc.decode_state(&model, &initial);
        (init_fs, outputs[0].0.clone(), outputs[which].0.clone())
    });
    drop(explore_span);

    stats.publish_trace_metrics();
    rehearsal_fs::publish_arena_metrics();

    match divergence {
        None => Ok(DeterminismReport::Deterministic(stats)),
        Some((init_fs, seq_a, seq_b)) => {
            // Map pruned-graph indices back to original indices and append
            // the eliminated resources (which form an upward-closed set of
            // sinks) in one fixed topological order. Elimination's
            // `e1; e ≡ e2; e ⟺ e1 ≡ e2` argument can be fooled when `e`
            // errs on every distinguishing state, so a NONDET verdict on
            // the reduced graph must be validated against the full graph.
            let back: Vec<usize> = alive.iter().copied().collect();
            let eliminated: Vec<usize> = eliminated_topo_order(graph, &alive);
            let full_order = |seq: &[usize]| -> Vec<usize> {
                seq.iter()
                    .map(|&i| back[i])
                    .chain(eliminated.iter().copied())
                    .collect()
            };
            let order_a = full_order(&seq_a);
            let order_b = full_order(&seq_b);
            let outcome_a = replay(graph, &order_a, &init_fs);
            let outcome_b = replay(graph, &order_b, &init_fs);
            if outcome_a == outcome_b && alive.len() != n {
                // The divergence was masked by an eliminated resource:
                // re-run exactly, without elimination.
                let mut exact = options.clone();
                exact.elimination = false;
                if let Some(d) = deadline {
                    exact.timeout = Some(d.saturating_duration_since(Instant::now()));
                }
                return check_determinism(graph, &exact);
            }
            let cex = Counterexample {
                initial: init_fs,
                order_a,
                order_b,
                outcome_a,
                outcome_b,
            };
            Ok(DeterminismReport::NonDeterministic(Box::new(cex), stats))
        }
    }
}

/// Counts `chown`/`chgrp`/`chmod` occurrences in an expression's text
/// (each textual occurrence counts, matching how `size()` measures
/// programs).
fn count_meta_ops(e: Expr) -> usize {
    match e.node() {
        rehearsal_fs::ExprNode::ChMeta(_, _, _) => 1,
        rehearsal_fs::ExprNode::Seq(a, b) | rehearsal_fs::ExprNode::If(_, a, b) => {
            count_meta_ops(a) + count_meta_ops(b)
        }
        _ => 0,
    }
}

/// Topological order of the eliminated (non-alive) nodes in the full
/// graph. Elimination only ever removes nodes whose surviving successors
/// are all eliminated too, so appending this order after any valid order
/// of the alive nodes yields a valid full order.
fn eliminated_topo_order(graph: &FsGraph, alive: &BTreeSet<usize>) -> Vec<usize> {
    graph
        .topological_order()
        .into_iter()
        .filter(|i| !alive.contains(i))
        .collect()
}

/// Runs the (pruned) programs concretely in the given order.
fn replay(
    graph: &FsGraph,
    order: &[usize],
    init: &FileSystem,
) -> Result<FileSystem, rehearsal_fs::ExecError> {
    let mut fs = init.clone();
    for &i in order {
        fs = concrete_eval(graph.exprs[i], &fs)?;
    }
    Ok(fs)
}

/// The induced subgraph on `alive`, with indices renumbered.
fn subgraph(graph: &FsGraph, alive: &BTreeSet<usize>) -> FsGraph {
    let index: Vec<usize> = alive.iter().copied().collect();
    let renumber: std::collections::HashMap<usize, usize> = index
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect();
    FsGraph {
        exprs: index.iter().map(|&i| graph.exprs[i]).collect(),
        names: index.iter().map(|&i| graph.names[i].clone()).collect(),
        edges: graph
            .edges
            .iter()
            .filter(|(a, b)| alive.contains(a) && alive.contains(b))
            .map(|&(a, b)| (renumber[&a], renumber[&b]))
            .collect(),
        spans: index.iter().map(|&i| graph.span(i)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::{Content, FsPath, Pred};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn file(path: &str, content: &str) -> Expr {
        Expr::create_file(p(path), Content::intern(content))
    }

    fn graph(exprs: Vec<Expr>, edges: &[(usize, usize)]) -> FsGraph {
        let names = (0..exprs.len()).map(|i| format!("r{i}")).collect();
        FsGraph::new(exprs, edges.iter().copied().collect(), names)
    }

    #[test]
    fn empty_graph_is_deterministic() {
        let g = graph(vec![], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(r.is_deterministic());
    }

    #[test]
    fn single_resource_is_deterministic() {
        let g = graph(vec![file("/a", "x")], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(r.is_deterministic());
    }

    #[test]
    fn unordered_conflicting_writes_are_nondeterministic() {
        // Two unguarded writes to the same file: one errors depending on
        // order... both orders err on every input where either errs; on an
        // input where /f is absent, first succeeds and second always errs.
        // So every order errs — deterministic! Use overwrite-style writes
        // to create a genuine divergence.
        let w = |c: &str| {
            Expr::if_(
                Pred::does_not_exist(p("/f")),
                Expr::create_file(p("/f"), Content::intern(c)),
                Expr::SKIP,
            )
        };
        let g = graph(vec![w("one"), w("two")], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        match r {
            DeterminismReport::NonDeterministic(cex, _) => {
                assert_ne!(cex.outcome_a, cex.outcome_b, "replay confirms divergence");
                assert_ne!(cex.order_a, cex.order_b);
            }
            DeterminismReport::Deterministic(_) => panic!("should be nondeterministic"),
        }
    }

    #[test]
    fn ordering_edge_fixes_nondeterminism() {
        let w = |c: &str| {
            Expr::if_(
                Pred::does_not_exist(p("/f")),
                Expr::create_file(p("/f"), Content::intern(c)),
                Expr::SKIP,
            )
        };
        let g = graph(vec![w("one"), w("two")], &[(0, 1)]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(r.is_deterministic(), "total order leaves one permutation");
    }

    #[test]
    fn error_nondeterminism_is_detected() {
        // Resource A: creates /dir; resource B: creates /dir/f (needs the
        // dir). Unordered: B-first errs, A-first then B succeeds.
        let a = Expr::mkdir(p("/dir"));
        let b = file("/dir/f", "x");
        let g = graph(vec![a, b], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(!r.is_deterministic());
        if let DeterminismReport::NonDeterministic(cex, _) = r {
            assert_ne!(
                cex.outcome_a.is_ok(),
                cex.outcome_b.is_ok(),
                "one order errs, the other succeeds"
            );
        }
    }

    #[test]
    fn commuting_resources_explore_one_sequence() {
        let g = graph(vec![file("/a", "1"), file("/b", "2"), file("/c", "3")], &[]);
        let opts = AnalysisOptions {
            elimination: false, // keep them all so exploration runs
            ..AnalysisOptions::default()
        };
        let r = check_determinism(&g, &opts).unwrap();
        assert!(r.is_deterministic());
        assert_eq!(
            r.stats().sequences_explored,
            1,
            "POR collapses to one order"
        );
    }

    #[test]
    fn naive_mode_explores_all_permutations() {
        let g = graph(vec![file("/a", "1"), file("/b", "2"), file("/c", "3")], &[]);
        let r = check_determinism(&g, &AnalysisOptions::naive()).unwrap();
        assert!(r.is_deterministic());
        assert_eq!(r.stats().sequences_explored, 6, "3! permutations");
    }

    #[test]
    fn elimination_removes_isolated_resources() {
        let g = graph(vec![file("/a", "1"), file("/b", "2")], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(r.is_deterministic());
        assert_eq!(r.stats().resources_after_elimination, 0);
    }

    #[test]
    fn diamond_dependencies_respected() {
        // a -> b, a -> c, b -> d, c -> d; b and c both write /shared with
        // different contents — nondeterministic.
        let a = Expr::mkdir(p("/d"));
        let b = Expr::if_(
            Pred::does_not_exist(p("/d/shared")),
            Expr::create_file(p("/d/shared"), Content::intern("from-b")),
            Expr::SKIP,
        );
        let c = Expr::if_(
            Pred::does_not_exist(p("/d/shared")),
            Expr::create_file(p("/d/shared"), Content::intern("from-c")),
            Expr::SKIP,
        );
        let d = Expr::if_(Pred::is_file(p("/d/shared")), Expr::SKIP, Expr::ERROR);
        let g = graph(vec![a, b, c, d], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        assert!(!r.is_deterministic());
    }

    #[test]
    fn sequence_cap_aborts() {
        let exprs: Vec<Expr> = (0..6)
            .map(|i| {
                Expr::if_(
                    Pred::does_not_exist(p("/f")),
                    Expr::create_file(p("/f"), Content::intern(&format!("w{i}"))),
                    Expr::SKIP,
                )
            })
            .collect();
        let g = graph(exprs, &[]);
        let opts = AnalysisOptions {
            max_sequences: 10,
            ..AnalysisOptions::naive()
        };
        let err = check_determinism(&g, &opts).unwrap_err();
        assert!(err.reason.contains("sequences"));
    }

    #[test]
    fn timeout_aborts() {
        let exprs: Vec<Expr> = (0..7)
            .map(|i| {
                Expr::if_(
                    Pred::does_not_exist(p("/f")),
                    Expr::create_file(p("/f"), Content::intern(&format!("t{i}"))),
                    Expr::SKIP,
                )
            })
            .collect();
        let g = graph(exprs, &[]);
        let opts = AnalysisOptions::naive().with_timeout(Duration::from_millis(1));
        // Either it finishes impossibly fast or it reports a timeout; with
        // 7! = 5040 sequences the timeout fires in practice.
        if let Err(e) = check_determinism(&g, &opts) {
            assert!(e.reason.contains("timeout"));
        } // an Ok on an extremely fast machine is not a failure
    }

    #[test]
    fn metadata_race_is_nondeterministic_and_fixable() {
        // Two resources ensure the same file with the same content but
        // different modes: invisible to the metadata-free model, a genuine
        // race in the metadata-aware one.
        let f = p("/www/index");
        let c = Content::intern("hello");
        let ensure = Expr::if_then(Pred::is_dir(p("/www")).not(), Expr::mkdir(p("/www")));
        let write = Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, c),
            Expr::if_(
                Pred::is_file(f),
                Expr::rm(f).seq(Expr::create_file(f, c)),
                Expr::ERROR,
            ),
        );
        let res = |mode: &str| ensure.seq(write).seq(Expr::chmod(f, Content::intern(mode)));
        let g = graph(vec![res("0644"), res("0755")], &[]);
        let r = check_determinism(&g, &AnalysisOptions::default()).unwrap();
        match r {
            DeterminismReport::NonDeterministic(cex, stats) => {
                assert!(stats.meta_ops >= 2);
                assert_eq!(stats.meta_tracked_paths, 1);
                // Both orders succeed; only the mode differs — and the
                // replay (which compares metadata) confirms it.
                assert!(cex.outcome_a.is_ok() && cex.outcome_b.is_ok());
                assert_ne!(cex.outcome_a, cex.outcome_b);
                let ma = cex.outcome_a.as_ref().unwrap().meta(f).unwrap();
                let mb = cex.outcome_b.as_ref().unwrap().meta(f).unwrap();
                assert_ne!(ma.mode, mb.mode, "the divergence is the mode");
            }
            DeterminismReport::Deterministic(_) => panic!("mode race must be caught"),
        }
        // An ordering edge fixes it.
        let g2 = graph(vec![res("0644"), res("0755")], &[(0, 1)]);
        let r2 = check_determinism(&g2, &AnalysisOptions::default()).unwrap();
        assert!(r2.is_deterministic());
    }

    #[test]
    fn child_tokens_observe_the_parent_but_not_vice_versa() {
        let drain = CancelToken::new();
        let request = drain.child();
        assert!(!request.is_cancelled());
        // Child cancellation stays local: the drain token (and a sibling
        // request) keep running.
        request.cancel();
        assert!(request.is_cancelled());
        assert!(!drain.is_cancelled());
        let sibling = drain.child();
        assert!(!sibling.is_cancelled());
        // Parent cancellation reaches every descendant, and propagates
        // into the child's own flag (the one the solver polls).
        drain.cancel();
        assert!(sibling.is_cancelled());
        assert!(sibling.is_cancelled(), "sticky after propagation");
        let grandchild = sibling.child();
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn counterexample_replay_is_confirmed() {
        let a = Expr::mkdir(p("/dir"));
        let b = file("/dir/f", "x");
        let g = graph(vec![a, b], &[]);
        if let DeterminismReport::NonDeterministic(cex, _) =
            check_determinism(&g, &AnalysisOptions::default()).unwrap()
        {
            // The initial state plus the two orders must genuinely diverge
            // when run through the concrete evaluator.
            assert_ne!(cex.outcome_a, cex.outcome_b);
        } else {
            panic!("expected nondeterminism");
        }
    }
}
