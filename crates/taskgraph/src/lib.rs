//! Task definition and dependency-graph construction (§5 of the paper).
//!
//! Evidence propagation over a junction tree decomposes into *tasks*, one
//! per node-level primitive execution. This crate turns a
//! [`TreeShape`](evprop_jtree::TreeShape) into the global task DAG the
//! schedulers run:
//!
//! 1. the **clique updating graph** (Fig. 2a) — two symmetric phases:
//!    collect (each clique depends on its children) and distribute (each
//!    clique depends on its parent);
//! 2. each clique update expands into a **local task dependency graph**
//!    (Fig. 2b/c): `Marginalize → Divide → Multiply` along every edge,
//!    with multiplications into the same clique serialized. The paper's
//!    fourth primitive, extension, runs inside each multiply: the
//!    multiply's interned extension plan projects every clique entry
//!    onto the separator ratio (`dst[i] *= ratio[project(i)]`), so no
//!    clique-sized extended table is written and read back.
//!
//! Tasks read and write *buffers* (clique potentials plus separator-sized
//! marginals and ratios); the graph carries [`BufferSpec`]s so any
//! engine — real threads or the discrete-event simulator — can allocate
//! and drive them.
//!
//! # Example
//!
//! ```
//! use evprop_bayesnet::networks;
//! use evprop_jtree::JunctionTree;
//! use evprop_taskgraph::{TaskGraph, MESSAGE_TASKS_PER_EDGE};
//!
//! let jt = JunctionTree::from_network(&networks::asia()).unwrap();
//! let g = TaskGraph::from_shape(jt.shape());
//! assert_eq!(g.num_tasks(), MESSAGE_TASKS_PER_EDGE * (jt.num_cliques() - 1));
//! g.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
mod dot;
mod execute;
mod graph;
mod plan_cache;
mod slice;

pub use build::MESSAGE_TASKS_PER_EDGE;
pub use execute::{execute_full, execute_range, write_and_read};
pub use graph::{
    BufferId, BufferInit, BufferSpec, DownBuffers, EdgeBuffers, Phase, PropagationMode, Task,
    TaskGraph, TaskGraphError, TaskId, TaskKind,
};
pub use plan_cache::{PlanCache, PlanCacheStats, PlanId};
pub use slice::{EdgeUpdate, SlicePlan};
