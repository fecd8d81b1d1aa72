//! Pins the serve path's **single-validation** guarantee with the
//! [`validation_checks`] counter hook: from submission to commit, the service
//! runs the [`BatchLedger`] legality check exactly once per update — on the
//! strict drain and on the lossy drain alike.
//!
//! The counter is process-global and `cargo test` runs the tests of one
//! binary on parallel threads, so *everything* that asserts counter deltas
//! lives in this one `#[test]` function, and this file deliberately contains
//! no other tests — integration-test binaries themselves run sequentially.
//!
//! [`validation_checks`]: pdmm::engine::validation_checks
//! [`BatchLedger`]: pdmm::engine::BatchLedger

use pdmm::engine::{self, validate_batch, validation_checks};
use pdmm::prelude::*;
use pdmm::sharding::ShardedService;

const NUM_VERTICES: usize = 64;
const RANK: usize = 3;

fn workload(seed: u64) -> Workload {
    pdmm::hypergraph::streams::random_churn(NUM_VERTICES, RANK, 24, 12, 8, 0.6, seed)
}

/// The workload with dirt after every batch: the batch again verbatim (its
/// insertions are now live ids, its deletions unknown), then an unknown
/// deletion plus a conflicting re-insert of an id the batch made live.  Every
/// batch is context-free valid, so only engine-context checks can refuse it.
fn dirty_stream(workload: &Workload) -> Vec<UpdateBatch> {
    let mut dirty = Vec::new();
    for (i, batch) in workload.batches.iter().enumerate() {
        dirty.push(batch.clone());
        dirty.push(batch.clone());
        let mut extra = vec![Update::Delete(EdgeId(1_000_000 + i as u64))];
        if let Some(Update::Insert(edge)) = batch.iter().find(|u| u.is_insert()) {
            let (a, b) = (VertexId(0), VertexId(NUM_VERTICES as u32 - 1));
            extra.push(Update::Insert(HyperEdge::pair(edge.id, a, b)));
        }
        dirty.push(UpdateBatch::new(extra).expect("context-free valid"));
    }
    dirty
}

#[test]
fn serve_path_validates_each_update_exactly_once() {
    let workload = workload(41);
    let total_updates: u64 = workload.total_updates() as u64;

    // Tier 1 — batch construction is the context-free check: one ledger
    // check per update, paid by the producer, not the serve path.  The
    // workload generator already constructed these batches, so re-sealing
    // the same updates measures construction in isolation.
    let before = validation_checks();
    let rebuilt: Vec<UpdateBatch> = workload
        .batches
        .iter()
        .map(|b| UpdateBatch::new(b.updates().to_vec()).expect("workload batches are valid"))
        .collect();
    assert_eq!(
        validation_checks() - before,
        total_updates,
        "UpdateBatch::new checks each update exactly once"
    );

    // Tier 2 — the serve path: submit + drain on the parallel engine.  The
    // drain mints one engine-context proof per batch (one ledger check per
    // update) and discharges it on the trusted kernel path, which must not
    // re-check anything.
    let builder = EngineBuilder::new(NUM_VERTICES).rank(RANK).seed(7);
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let before = validation_checks();
    for chunk in rebuilt.chunks(16) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        service.drain().expect("valid batches drain");
    }
    assert_eq!(
        validation_checks() - before,
        total_updates,
        "submit + drain runs exactly one legality check per update"
    );
    assert_eq!(
        service.snapshot().committed_batches(),
        workload.batches.len() as u64
    );

    // Tier 3 — the lossy drain (the net drainer's path): one sift per
    // batch against the live engine, then the trusted apply.  Exactly one
    // check per *offered* update, whether it is kept or refused, on a bare
    // service and on a sharded one.
    let dirty = dirty_stream(&workload);
    let offered: u64 = dirty.iter().map(|b| b.len() as u64).sum();
    let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
    let (mut checks, mut rejected) = (0, 0);
    for chunk in dirty.chunks(16) {
        for batch in chunk {
            service.submit(batch.clone());
        }
        let before = validation_checks();
        let reports = service.drain_lossy();
        checks += validation_checks() - before;
        rejected += reports.iter().map(|r| r.rejected.len()).sum::<usize>();
    }
    assert!(rejected > 0, "the dirty stream must exercise rejections");
    assert_eq!(
        checks, offered,
        "EngineService::drain_lossy runs exactly one legality check per offered update"
    );
    let shards = (0..3)
        .map(|_| engine::build(EngineKind::Parallel, &builder))
        .collect();
    let sharded = ShardedService::new(shards);
    let (mut checks, mut rejected) = (0, 0);
    for chunk in dirty.chunks(16) {
        for batch in chunk {
            sharded.submit(batch.clone());
        }
        let before = validation_checks();
        rejected += sharded.drain_lossy().rejected;
        checks += validation_checks() - before;
    }
    assert!(rejected > 0, "the dirty stream must exercise rejections");
    assert_eq!(
        checks, offered,
        "ShardedService::drain_lossy runs exactly one legality check per offered update"
    );

    // The legacy triple-checking ingest shape (construct + standalone
    // validation + validating apply) pays three checks per update — the
    // before/after the single-validation refactor closes.  Pinned here so a
    // regression in either direction is loud.
    let mut engine = engine::build(EngineKind::Parallel, &builder);
    let before = validation_checks();
    for batch in &workload.batches {
        let reconstructed =
            UpdateBatch::new(batch.updates().to_vec()).expect("workload batches are valid");
        validate_batch(
            &reconstructed,
            |id| engine.contains_edge(id),
            engine.max_rank(),
            engine.num_vertices(),
        )
        .expect("valid batches validate");
        engine
            .apply_batch(&reconstructed)
            .expect("valid batches commit");
    }
    assert_eq!(
        validation_checks() - before,
        3 * total_updates,
        "legacy ingest checks each update three times"
    );
}
