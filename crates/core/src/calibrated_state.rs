//! Resident calibrated state: snapshot and restore of a propagation
//! arena, the building block of incremental evidence sessions.
//!
//! After a full two-phase propagation the [`TableArena`] holds more
//! than the calibrated clique beliefs — it also holds every collect
//! separator (`ψ*_S`, which doubles as the collect message) and every
//! distribute separator (`ψ**_S`). Incremental re-propagation trades
//! on exactly that extra state, so [`CalibratedState`] snapshots the
//! *whole* buffer table, not just the cliques: restoring one into a
//! fresh arena yields a session that can answer its first query
//! without any propagation at all.

use evprop_potential::{EvidenceSet, PotentialTable};
use evprop_sched::TableArena;
use evprop_taskgraph::TaskGraph;

/// An owned snapshot of a fully calibrated propagation arena (every
/// buffer: clique beliefs *and* separator/message scratch) together
/// with the evidence it was calibrated under.
///
/// Capture one after a full propagation with
/// [`CalibratedState::capture`]; restore it into any arena built for
/// the same graph with [`CalibratedState::restore_into`]. Serving
/// runtimes keep a base snapshot (typically under empty evidence) per
/// model so that opening an incremental session costs one buffer copy
/// instead of one propagation.
#[derive(Clone)]
pub struct CalibratedState {
    tables: Vec<PotentialTable>,
    evidence: EvidenceSet,
}

impl CalibratedState {
    /// Snapshots every buffer of `arena`, which must have just executed
    /// a full two-phase job for `graph` under `evidence`.
    ///
    /// # Panics
    ///
    /// Panics if the arena was not built for `graph`.
    pub fn capture(graph: &TaskGraph, arena: &mut TableArena, evidence: EvidenceSet) -> Self {
        assert!(
            arena.matches(graph),
            "arena layout does not match this task graph"
        );
        CalibratedState {
            tables: arena.tables_mut().to_vec(),
            evidence,
        }
    }

    /// Copies the snapshot back into `arena` in place (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `arena` was not built for the same graph (buffer count
    /// or domains differ).
    pub fn restore_into(&self, graph: &TaskGraph, arena: &mut TableArena) {
        assert!(
            arena.matches(graph) && arena.len() == self.tables.len(),
            "arena layout does not match this snapshot"
        );
        for (dst, src) in arena.tables_mut().iter_mut().zip(&self.tables) {
            dst.copy_from(src).expect("matches() verified the domains");
        }
    }

    /// The evidence the snapshot was calibrated under.
    pub fn evidence(&self) -> &EvidenceSet {
        &self.evidence
    }

    /// Number of buffers in the snapshot.
    pub fn num_buffers(&self) -> usize {
        self.tables.len()
    }
}

impl std::fmt::Debug for CalibratedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CalibratedState({} buffers, {} hard items)",
            self.tables.len(),
            self.evidence.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardState;
    use evprop_bayesnet::networks;
    use evprop_jtree::JunctionTree;
    use evprop_potential::VarId;
    use evprop_sched::SchedulerConfig;

    #[test]
    fn capture_restore_roundtrip_preserves_answers() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = evprop_taskgraph::TaskGraph::from_shape(jt.shape());
        let shard = ShardState::new(SchedulerConfig::with_threads(2).without_partitioning());
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);

        let mut arena = TableArena::initialize(&graph, jt.potentials(), &ev);
        shard.run_job(&graph, &arena).unwrap();
        let snap = CalibratedState::capture(&graph, &mut arena, ev.clone());
        assert_eq!(snap.num_buffers(), graph.buffers().len());
        assert_eq!(snap.evidence().len(), 1);

        // Scribble over the arena, restore, and read the same marginal.
        let want = arena.tables_mut()[graph.clique_buffer(evprop_jtree::CliqueId(0)).index()]
            .data()
            .to_vec();
        arena.reset(&graph, jt.potentials(), &EvidenceSet::new());
        snap.restore_into(&graph, &mut arena);
        let got = arena.tables_mut()[graph.clique_buffer(evprop_jtree::CliqueId(0)).index()]
            .data()
            .to_vec();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn restore_rejects_wrong_graph() {
        let jt = JunctionTree::from_network(&networks::asia()).unwrap();
        let graph = evprop_taskgraph::TaskGraph::from_shape(jt.shape());
        let jt2 = JunctionTree::from_network(&networks::sprinkler()).unwrap();
        let graph2 = evprop_taskgraph::TaskGraph::from_shape(jt2.shape());
        let mut arena = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
        let snap = CalibratedState::capture(&graph, &mut arena, EvidenceSet::new());
        let mut arena2 = TableArena::initialize(&graph2, jt2.potentials(), &EvidenceSet::new());
        snap.restore_into(&graph2, &mut arena2);
    }
}
