//! Discrete potential tables and the four node-level primitives of exact
//! inference: **marginalization**, **extension**, **multiplication** and
//! **division**.
//!
//! This crate is the numerical substrate of the PACT 2009 reproduction
//! ("Parallel Evidence Propagation on Multicore Processors"). Every task
//! scheduled by the parallel engines ultimately executes one of the
//! primitives defined here, either on a whole table or — when the
//! scheduler's Partition module splits a large task — on a *range* of a
//! table via the `*_range` variants.
//!
//! # Model
//!
//! A [`PotentialTable`] is a non-negative real-valued function over the
//! joint state space of an ordered set of discrete variables (its
//! [`Domain`]). Entries are stored in row-major order: the **last**
//! variable of the domain varies fastest. Domains are kept sorted by
//! [`VarId`] so that any two tables over the same variables agree on
//! entry layout.
//!
//! # Example
//!
//! ```
//! use evprop_potential::{Domain, PotentialTable, Variable, VarId};
//!
//! // P(A, B) with A, B binary.
//! let a = Variable::new(VarId(0), 2);
//! let b = Variable::new(VarId(1), 2);
//! let dom = Domain::new(vec![a, b]).unwrap();
//! let p = PotentialTable::from_data(dom, vec![0.3, 0.1, 0.2, 0.4]).unwrap();
//! // Marginalize onto B: sums over A.
//! let pb = p.marginalize(&p.domain().project(&[VarId(1)])).unwrap();
//! assert!((pb.data()[0] - 0.5).abs() < 1e-12);
//! assert!((pb.data()[1] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod domain;
mod error;
mod evidence;
mod index;
mod max_primitives;
pub mod plan;
mod primitives;
pub mod raw;
pub mod simd;
mod table;
mod var;

pub use domain::Domain;
pub use error::PotentialError;
pub use evidence::{Evidence, EvidenceSet, Likelihood};
pub use index::{Assignment, AxisWalker, Odometer};
pub use plan::{KernelPlan, PlanKind};
pub use primitives::{EntryRange, PrimitiveKind};
pub use table::PotentialTable;
pub use var::{VarId, Variable};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, PotentialError>;
