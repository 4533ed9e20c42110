//! A from-scratch SAT/finite-domain solving substrate for Rehearsal.
//!
//! The original Rehearsal (PLDI 2016) discharges its determinacy and
//! idempotency queries with the Z3 SMT solver. The formulas it generates are
//! *effectively propositional*: every FS program manipulates a statically
//! known, finite set of paths, and each path's state ranges over a finite
//! domain. This crate therefore provides an exact replacement built from
//! scratch:
//!
//! * [`sat`] — a CDCL SAT solver (two-watched literals, first-UIP learning,
//!   VSIDS, phase saving, Luby restarts, clause-database reduction);
//! * [`cnf`] — a CNF container with DIMACS import/export and a brute-force
//!   oracle for testing;
//! * [`ctx`] — a hash-consed formula/term context with finite-domain
//!   variables, one-hot grounding, and Tseitin CNF conversion.
//!
//! # Examples
//!
//! ```
//! use rehearsal_solver::Ctx;
//!
//! let mut ctx = Ctx::new();
//! let x = ctx.fd_var(&[0, 1, 2]);
//! let y = ctx.fd_var(&[1, 2, 3]);
//! let eq = ctx.eq_terms(x, y);
//! let model = ctx.solve(eq).expect("x and y can agree on 1 or 2");
//! assert_eq!(model.term_value_in(&ctx, x), model.term_value_in(&ctx, y));
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod ctx;
pub mod lit;
pub mod sat;

pub use cnf::{Cnf, DimacsError};
pub use ctx::{BVar, Ctx, CtxStats, Formula, GroundingStats, ModelView, SolveTimeout, Term};
pub use lit::{LBool, Lit, Var};
pub use sat::{Model, SatResult, Solver, SolverStats};
