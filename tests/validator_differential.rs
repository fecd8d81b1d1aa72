//! Differential test pinning the two batch-validation paths together.
//!
//! The engine layer validates updates in two places: [`validate_batch`]
//! (whole-batch, behind every `MatchingEngine::validate` and so every
//! `apply_batch`) and [`BatchLedger::sift`] (incremental, behind the lossy
//! ingest path).  Both are built on the same `BatchLedger` machine; this test
//! drives random dirty update sequences — duplicates, reinserts, rank and
//! vertex violations, delete-then-insert and insert-then-delete chains —
//! through both paths and asserts they agree exactly:
//!
//! * every update the sift rejects would make the kept batch fail
//!   `validate_batch` with the *same* error;
//! * every update the sift deduplicates is a `Duplicate*` under
//!   `validate_batch`, naming the same edge;
//! * after every kept update, the kept prefix passes `validate_batch`;
//! * the strict path (`apply_batch` of the kept subset) and the lossy path
//!   (`apply_batch_lossy` of everything) commit the same batch and reach the
//!   same matching.

use pdmm::engine::{self, validate_batch, BatchError, BatchLedger, MatchingEngine, Sifted};
use pdmm::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

const NUM_VERTICES: usize = 6;
const MAX_RANK: usize = 2;
/// Ids of the edges every engine is primed with before staging begins.
const LIVE_IDS: [u64; 3] = [0, 1, 2];

fn primed_engine(kind: EngineKind) -> Box<dyn MatchingEngine + Send> {
    let builder = EngineBuilder::new(NUM_VERTICES).rank(MAX_RANK).seed(7);
    let mut engine = engine::build(kind, &builder);
    engine
        .apply_batch(&[
            Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
            Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
            Update::Insert(HyperEdge::pair(EdgeId(2), VertexId(4), VertexId(5))),
        ])
        .unwrap();
    engine
}

/// Decodes one generated tuple into an update.  Small id and vertex spaces
/// make duplicates, reinserts, unknown deletions, out-of-range endpoints
/// (vertices 6..8) and rank violations (op 3) all likely.
fn decode(op: u8, id: u64, a: u32, b: u32, c: u32) -> Update {
    match op {
        0 | 1 => Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b))),
        2 => Update::Delete(EdgeId(id)),
        _ => Update::Insert(HyperEdge::new(
            EdgeId(id),
            vec![VertexId(a), VertexId(b), VertexId(c)],
        )),
    }
}

fn is_live(id: EdgeId) -> bool {
    LIVE_IDS.contains(&id.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sift_and_validate_batch_agree_on_random_dirty_streams(
        raw in proptest::collection::vec(
            (0u8..4, 0u64..8, 0u32..8, 0u32..8, 0u32..8),
            1..40,
        ),
    ) {
        let updates: Vec<Update> = raw
            .into_iter()
            .map(|(op, id, a, b, c)| decode(op, id, a, b, c))
            .collect();
        let sift = |offered: &[Update]| -> Sifted {
            BatchLedger::sift(
                offered.iter().cloned(),
                |u| is_live(u.edge_id()),
                MAX_RANK,
                NUM_VERTICES,
            )
        };

        // Sift every prefix: the bucket that grows classifies the new update.
        let mut before = sift(&[]);
        for (index, update) in updates.iter().enumerate() {
            let after = sift(&updates[..=index]);
            let mut with = before.kept.clone();
            with.push(update.clone());
            if after.kept.len() > before.kept.len() {
                // Kept: the kept prefix passes whole-batch validation.
                prop_assert_eq!(&after.kept, &with);
                prop_assert_eq!(
                    validate_batch(&after.kept, is_live, MAX_RANK, NUM_VERTICES),
                    Ok(())
                );
            } else if after.deduplicated > before.deduplicated {
                // Deduplicated: as a raw batch element it would be a
                // Duplicate* error naming the same edge.
                let err = validate_batch(&with, is_live, MAX_RANK, NUM_VERTICES)
                    .expect_err("a deduplicated update must be a strict duplicate");
                let id = update.edge_id();
                prop_assert!(
                    err == BatchError::DuplicateEdgeId { id }
                        || err == BatchError::DuplicateDeletion { id },
                    "dedup of {:?} maps to non-duplicate error {:?}",
                    update,
                    err
                );
            } else {
                // Rejected: appending it to the kept prefix must fail
                // whole-batch validation with the identical error.
                let rejected = after.rejected.last().expect("one bucket grows");
                prop_assert_eq!(rejected.index, index);
                prop_assert_eq!(&rejected.update, update);
                prop_assert_eq!(
                    validate_batch(&with, is_live, MAX_RANK, NUM_VERTICES),
                    Err(rejected.error.clone())
                );
            }
            before = after;
        }
        let accepted = before.kept;

        // Both commits succeed, and being the same deterministic engine fed
        // the same surviving batch, they agree on the resulting matching.
        let mut strict_engine = primed_engine(EngineKind::StaticRecompute);
        let mut lossy_engine = primed_engine(EngineKind::StaticRecompute);
        let strict_report = strict_engine
            .apply_batch(&accepted)
            .expect("the kept subset must commit");
        let lossy_report = lossy_engine.apply_batch_lossy(&updates);
        prop_assert_eq!(strict_report.batch_size, accepted.len());
        prop_assert_eq!(strict_report, lossy_report.batch);
        prop_assert_eq!(lossy_report.deduplicated, before.deduplicated);
        prop_assert_eq!(lossy_report.rejected, before.rejected);
        let mut a = strict_engine.matching_ids();
        let mut b = lossy_engine.matching_ids();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);

        // Cross-check the live view: ids inserted (and not re-deleted) by the
        // committed batch are live, batch-deleted ids are not.
        let mut live: HashSet<EdgeId> = LIVE_IDS.iter().map(|&id| EdgeId(id)).collect();
        for update in &accepted {
            match update {
                Update::Insert(edge) => {
                    live.insert(edge.id);
                }
                Update::Delete(id) => {
                    live.remove(id);
                }
            }
        }
        for id in (0..8).map(EdgeId) {
            prop_assert_eq!(strict_engine.contains_edge(id), live.contains(&id));
        }
    }
}
