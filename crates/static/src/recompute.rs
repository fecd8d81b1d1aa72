//! Recompute-from-scratch engines: the crate's static matchers behind the
//! dynamic [`MatchingEngine`] API.
//!
//! The obvious alternative to a dynamic algorithm: maintain the ground-truth
//! graph and, after every batch, throw the old matching away and recompute a
//! maximal matching of the *entire* current graph.  [`Recompute`] does exactly
//! that with a pluggable [`StaticMatcher`], and the two matchers bracket the
//! recompute design space:
//!
//! * [`RecomputeFromScratch`] recomputes with the **parallel Luby matcher** of
//!   Theorem 2.2: `O(log M)` depth per batch, but `Θ(M·r)` work per batch
//!   regardless of how small the batch is — the baseline the dynamic algorithm
//!   must beat in experiment E4;
//! * [`StaticRecompute`] recomputes with the **sequential greedy scan** of
//!   §3.1: work-optimal per recomputation but `Θ(M)` deep — the
//!   work-efficiency yardstick of experiment E1.

use crate::greedy::greedy_maximal_matching;
use crate::luby::luby_maximal_matching;
use pdmm_hypergraph::engine::{
    read_state_counters, read_state_graph, read_state_header, read_state_rng, write_state_counters,
    write_state_graph, write_state_header, write_state_rng, EngineBuilder, EngineMetrics,
    EnginePool, KernelOutcome, MatchingEngine, MatchingIter, RepairError, StateError, StateParser,
    UpdateCounters, ValidatedBatch,
};
use pdmm_hypergraph::graph::DynamicHypergraph;
use pdmm_hypergraph::matching::verify_maximality;
use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
use pdmm_primitives::cost_model::CostTracker;
use pdmm_primitives::random::RandomSource;
use rustc_hash::FxHashSet;

/// A static maximal matcher a [`Recompute`] engine calls after every batch.
pub trait StaticMatcher: Sized {
    /// The engine's stable name ([`MatchingEngine::name`], recorded in state
    /// blobs).
    const NAME: &'static str;

    /// The matcher an [`EngineBuilder`] describes.
    fn from_builder(builder: &EngineBuilder) -> Self;

    /// A maximal matching of `edges` (every live edge, ascending by id),
    /// charging its work and depth to `cost`.
    fn compute(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId>;

    /// Writes the matcher's own state lines (the default: none).
    fn write_state(&self, out: &mut String) {
        let _ = out;
    }

    /// Reads back what [`StaticMatcher::write_state`] wrote, as the restored
    /// matcher.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] on malformed lines.
    fn read_state(&self, p: &mut StateParser<'_>) -> Result<Self, StateError>;
}

/// Luby's parallel matcher (Theorem 2.2), run on the engine's pool with the
/// engine's own random stream.
#[derive(Debug)]
pub struct LubyMatcher {
    rng: RandomSource,
    /// Pool the per-batch recomputation runs on (`EngineBuilder::threads`).
    pool: EnginePool,
}

impl StaticMatcher for LubyMatcher {
    const NAME: &'static str = "recompute-from-scratch";

    fn from_builder(builder: &EngineBuilder) -> Self {
        LubyMatcher {
            rng: RandomSource::from_seed(builder.seed),
            pool: EnginePool::from_builder(builder),
        }
    }

    fn compute(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId> {
        // The update phase is one parallel round ahead of the Luby rounds.
        cost.round();
        let rng = &mut self.rng;
        self.pool
            .install(|| luby_maximal_matching(edges, rng, Some(cost)))
            .edges
    }

    fn write_state(&self, out: &mut String) {
        let (words, index) = self.rng.state();
        write_state_rng(out, words, index);
    }

    fn read_state(&self, p: &mut StateParser<'_>) -> Result<Self, StateError> {
        let (words, index) = read_state_rng(p)?;
        Ok(LubyMatcher {
            rng: RandomSource::from_state(words, index),
            pool: self.pool.clone(),
        })
    }
}

/// The sequential greedy scan (§3.1); deterministic, so the builder's seed is
/// unused and there is no state to save.
#[derive(Debug)]
pub struct GreedyMatcher;

impl StaticMatcher for GreedyMatcher {
    const NAME: &'static str = "static-recompute";

    fn from_builder(_builder: &EngineBuilder) -> Self {
        GreedyMatcher
    }

    fn compute(&mut self, edges: &[HyperEdge], cost: &CostTracker) -> Vec<EdgeId> {
        greedy_maximal_matching(edges, Some(cost))
    }

    fn read_state(&self, _p: &mut StateParser<'_>) -> Result<Self, StateError> {
        Ok(GreedyMatcher)
    }
}

/// Recompute with the parallel Luby matcher after every batch.
pub type RecomputeFromScratch = Recompute<LubyMatcher>;

/// Recompute with the sequential greedy scan after every batch.
pub type StaticRecompute = Recompute<GreedyMatcher>;

/// Engine that recomputes a static maximal matching after every batch.
#[derive(Debug)]
pub struct Recompute<M> {
    graph: DynamicHypergraph,
    matching: Vec<EdgeId>,
    matcher: M,
    cost: CostTracker,
    counters: UpdateCounters,
    max_rank: usize,
}

impl<M: StaticMatcher> Recompute<M> {
    /// Creates the engine from the engine-agnostic builder.
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        Recompute {
            graph: DynamicHypergraph::new(builder.num_vertices),
            matching: Vec::new(),
            matcher: M::from_builder(builder),
            cost: CostTracker::new(),
            counters: UpdateCounters::default(),
            max_rank: builder.max_rank,
        }
    }

    /// The ground-truth graph built from the updates.
    #[must_use]
    pub fn graph(&self) -> &DynamicHypergraph {
        &self.graph
    }

    /// Work/depth counters accumulated so far.
    #[must_use]
    pub fn cost(&self) -> &CostTracker {
        &self.cost
    }

    /// Vertices covered by the current matching (matched edges are always
    /// live: the matching is recomputed over live edges every batch).
    fn covered_vertices(&self) -> FxHashSet<VertexId> {
        let mut covered = FxHashSet::default();
        for id in &self.matching {
            let edge = self.graph.edge(*id).expect("matched edges are live");
            covered.extend(edge.vertices().iter().copied());
        }
        covered
    }
}

impl<M: StaticMatcher> MatchingEngine for Recompute<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn max_rank(&self) -> usize {
        self.max_rank
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.graph.contains_edge(id)
    }

    fn run_kernel(&mut self, batch: ValidatedBatch<'_>) -> KernelOutcome {
        let updates = batch.updates();
        // Hash the previous matching once so per-deletion lookups are O(1)
        // instead of a linear scan per update.
        let matched: FxHashSet<EdgeId> = self.matching.iter().copied().collect();
        let matched_deletions = updates
            .iter()
            .filter(|u| matches!(u, Update::Delete(id) if matched.contains(id)))
            .count();
        self.graph.apply_batch(updates);
        self.cost.work(updates.len() as u64);
        // Canonical input order: the greedy scan is order-dependent, and Luby's
        // result vector follows input order — sorting keeps `self.matching` a
        // pure function of the graph (and the RNG position), which checkpoint
        // recovery relies on.
        let mut edges = self.graph.snapshot_edges();
        edges.sort_unstable_by_key(|e| e.id);
        self.matching = self.matcher.compute(&edges, &self.cost);
        KernelOutcome {
            matched_deletions,
            // The matching is thrown away and recomputed on every batch.
            rebuilt: true,
        }
    }

    fn record_batch(&mut self, delta: &UpdateCounters) {
        self.counters.merge(delta);
    }

    fn matching(&self) -> MatchingIter<'_> {
        MatchingIter::new(self.matching.iter().copied())
    }

    fn matching_size(&self) -> usize {
        self.matching.len()
    }

    fn verify(&mut self) -> Result<(), String> {
        verify_maximality(&self.graph, &self.matching).map_err(|e| format!("{e:?}"))
    }

    fn metrics(&self) -> EngineMetrics {
        let cost = self.cost.snapshot();
        self.counters.into_metrics(cost.work, cost.depth)
    }

    fn free_vertices(&self) -> Option<Vec<VertexId>> {
        let covered = self.covered_vertices();
        Some(
            (0..self.graph.num_vertices() as u32)
                .map(VertexId)
                .filter(|v| !covered.contains(v))
                .collect(),
        )
    }

    fn force_match(&mut self, id: EdgeId) -> Result<(), RepairError> {
        // The next batch recomputes from scratch anyway, so the graft only
        // has to keep the current matching valid (restore_state re-validates
        // exactly that: live ids, pairwise-disjoint endpoints).
        if !self.graph.contains_edge(id) {
            return Err(RepairError::UnknownEdge { id });
        }
        if self.matching.contains(&id) {
            return Err(RepairError::AlreadyMatched { id });
        }
        let covered = self.covered_vertices();
        let edge = self.graph.edge(id).expect("liveness checked above");
        if let Some(&v) = edge.vertices().iter().find(|&&v| covered.contains(&v)) {
            return Err(RepairError::EndpointMatched { id, vertex: v });
        }
        let rank = edge.rank() as u64;
        self.cost.work(rank);
        self.matching.push(id);
        Ok(())
    }

    fn save_state(&self) -> Option<String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cost = self.cost.snapshot();
        write_state_header(&mut out, M::NAME, self.num_vertices(), self.max_rank);
        write_state_counters(&mut out, &self.counters, cost.work, cost.depth);
        self.matcher.write_state(&mut out);
        write_state_graph(&mut out, &self.graph);
        // Verbatim order: after the canonical input sort in `run_kernel` the
        // matching vector is itself a pure function of the saved state.
        out.push_str("matching");
        for id in &self.matching {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
        Some(out)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), StateError> {
        if self.counters.batches != 0 {
            return Err(StateError::NotFresh {
                batches: self.counters.batches,
            });
        }
        let mut p = StateParser::new(blob);
        read_state_header(&mut p, M::NAME, self.num_vertices(), self.max_rank)?;
        let (counters, work, depth) = read_state_counters(&mut p)?;
        let matcher = self.matcher.read_state(&mut p)?;
        let graph = read_state_graph(&mut p, self.num_vertices(), self.max_rank)?;
        let rest = p.tagged("matching")?;
        let mut matching = Vec::new();
        let mut claimed = FxHashSet::default();
        for tok in rest.split_whitespace() {
            let id = EdgeId(p.parse_token(tok, "matched edge id")?);
            let Some(edge) = graph.edge(id) else {
                return Err(p.corrupt(format!("matched edge {id} is not live")));
            };
            for &v in edge.vertices() {
                if !claimed.insert(v) {
                    return Err(p.corrupt(format!("matched edge {id} conflicts with another")));
                }
            }
            matching.push(id);
        }
        p.finish()?;
        self.graph = graph;
        self.matching = matching;
        self.matcher = matcher;
        self.counters = counters;
        self.cost = CostTracker::new();
        self.cost.work(work);
        self.cost.rounds(depth);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm_hypergraph::engine::BatchError;
    use pdmm_hypergraph::generators::gnm_graph;
    use pdmm_hypergraph::streams::{insert_then_teardown, random_churn};

    fn build<M: StaticMatcher>(num_vertices: usize, rank: usize, seed: u64) -> Recompute<M> {
        Recompute::from_builder(&EngineBuilder::new(num_vertices).rank(rank).seed(seed))
    }

    #[test]
    fn maximal_after_every_batch_and_deterministic() {
        fn check<M: StaticMatcher>() {
            let w = random_churn(70, 2, 100, 10, 25, 0.5, 3);
            let mut a = build::<M>(w.num_vertices, 2, 1);
            let mut b = build::<M>(w.num_vertices, 2, 1);
            for batch in &w.batches {
                a.apply_batch(batch).unwrap();
                b.apply_batch(batch).unwrap();
                assert_eq!(verify_maximality(a.graph(), &a.matching_ids()), Ok(()));
                // Same builder, same batches: identical matchings.
                assert_eq!(a.matching_ids(), b.matching_ids());
            }
            a.verify().unwrap();
        }
        check::<LubyMatcher>();
        check::<GreedyMatcher>();
    }

    #[test]
    fn work_scales_with_graph_size_not_batch_size() {
        // Prime a small and a large graph, then apply the same number of
        // single-deletion batches to each: the larger graph must cost far more
        // work per (tiny) batch, because recomputation touches the whole graph.
        fn work_for<M: StaticMatcher>(n: usize, m: usize) -> u64 {
            let edges = gnm_graph(n, m, 1, 0);
            let ids: Vec<_> = edges.iter().map(|e| e.id).collect();
            let mut alg = build::<M>(n, 2, 1);
            let batch: Vec<Update> = edges.into_iter().map(Update::Insert).collect();
            alg.apply_batch(&batch).unwrap();
            let before = alg.cost().snapshot();
            for id in ids.iter().take(10) {
                alg.apply_batch(&[Update::Delete(*id)]).unwrap();
            }
            alg.cost().snapshot().since(&before).work
        }
        fn check<M: StaticMatcher>() {
            let small = work_for::<M>(40, 100);
            let large = work_for::<M>(400, 4000);
            assert!(
                large > small * 5,
                "{}: large-graph recompute work {large} should dwarf small-graph work {small}",
                M::NAME
            );
        }
        check::<LubyMatcher>();
        check::<GreedyMatcher>();
    }

    #[test]
    fn teardown_empties_matching() {
        fn check<M: StaticMatcher>() {
            let edges = gnm_graph(40, 150, 3, 0);
            let w = insert_then_teardown(40, edges, 25, 2);
            let mut alg = build::<M>(w.num_vertices, 2, 0);
            let reports = alg.apply_all(&w.batches).unwrap();
            assert_eq!(alg.matching_size(), 0);
            assert!(reports.iter().any(|r| r.matched_deletions > 0));
            assert_eq!(alg.metrics().updates, w.total_updates() as u64);
        }
        check::<LubyMatcher>();
        check::<GreedyMatcher>();
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            build::<LubyMatcher>(4, 2, 0).name(),
            "recompute-from-scratch"
        );
        assert_eq!(build::<GreedyMatcher>(4, 2, 0).name(), "static-recompute");
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        fn check<M: StaticMatcher>() {
            let w = random_churn(60, 3, 110, 12, 28, 0.5, 31);
            let (prefix, tail) = w.batches.split_at(6);
            let mut a = build::<M>(w.num_vertices, 3, 5);
            a.apply_all(prefix).unwrap();
            let blob = a.save_state().unwrap();
            // Restored twin with a different builder seed: any RNG position
            // comes from the blob, so every future recompute draws the same.
            let mut b = build::<M>(w.num_vertices, 3, 777);
            b.restore_state(&blob).unwrap();
            assert_eq!(b.save_state().unwrap(), blob);
            for batch in tail {
                assert_eq!(a.apply_batch(batch).unwrap(), b.apply_batch(batch).unwrap());
            }
            assert_eq!(a.save_state(), b.save_state());
            assert_eq!(a.matching_ids(), b.matching_ids());
        }
        check::<LubyMatcher>();
        check::<GreedyMatcher>();
    }

    #[test]
    fn invalid_batches_are_typed_errors() {
        fn check<M: StaticMatcher>() {
            let mut alg = build::<M>(4, 2, 0);
            assert_eq!(
                alg.apply_batch(&[Update::Delete(EdgeId(1))]),
                Err(BatchError::UnknownDeletion { id: EdgeId(1) })
            );
            assert!(matches!(
                alg.apply_batch(&[Update::Insert(HyperEdge::pair(
                    EdgeId(0),
                    VertexId(0),
                    VertexId(9),
                ))]),
                Err(BatchError::VertexOutOfRange { .. })
            ));
        }
        check::<LubyMatcher>();
        check::<GreedyMatcher>();
    }
}
