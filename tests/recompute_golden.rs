//! Golden checkpoint pins for the two recompute engines.
//!
//! `RecomputeSequential` (Luby) and `StaticRecompute` (greedy) share one
//! generic engine; these constants were produced by the two separate engines
//! that engine replaced.  A fixed seeded `random_churn` prefix must still
//! serialize to the same `save_state` bytes, restore into a fresh engine, and
//! produce the same `BatchReport`s — work and depth included — over the tail,
//! so checkpoints written before the merge keep restoring after it.

use pdmm::engine::{self, EngineBuilder, EngineKind};
use pdmm::prelude::*;

/// Per kind: (kind, prefix blob length, FNV-64 of the prefix blob, FNV-64 of
/// the tail reports, FNV-64 of the final blob).
const GOLDEN: [(EngineKind, usize, u64, u64, u64); 2] = [
    (
        EngineKind::RecomputeSequential,
        1720,
        0xddec_dd4b_b9b7_dd49,
        0x3e45_248d_c595_62e8,
        0x6cec_bd19_95f1_17bf,
    ),
    (
        EngineKind::StaticRecompute,
        1565,
        0x05b2_a724_c08b_c362,
        0xf163_e74d_49c4_ccbc,
        0x8d6b_c9eb_c26d_b125,
    ),
];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every field of a report, metrics delta included, as one digest line.
fn report_line(r: &BatchReport) -> String {
    let m = &r.metrics;
    format!(
        "{} {} {} {} {} {} | {} {} {} {} {} {} {} {}\n",
        r.batch_size,
        r.depth,
        r.work,
        r.matched_deletions,
        r.matching_size,
        r.rebuilt,
        m.batches,
        m.updates,
        m.insertions,
        m.deletions,
        m.matched_deletions,
        m.work,
        m.depth,
        m.rebuilds
    )
}

#[test]
fn recompute_state_blobs_and_reports_match_the_golden_values() {
    let w = pdmm::hypergraph::streams::random_churn(60, 3, 110, 12, 28, 0.5, 31);
    let (prefix, tail) = w.batches.split_at(6);
    for (kind, prefix_len, prefix_fnv, tail_fnv, final_fnv) in GOLDEN {
        let builder = EngineBuilder::new(w.num_vertices).rank(3).seed(5);
        let mut live = engine::build(kind, &builder);
        live.apply_all(prefix).unwrap();
        let blob = live.save_state().expect("recompute engines serialize");
        assert_eq!(blob.len(), prefix_len, "{kind}: prefix blob length");
        assert_eq!(
            fnv64(blob.as_bytes()),
            prefix_fnv,
            "{kind}: prefix blob bytes"
        );

        // A different builder seed: any RNG position must come from the blob.
        let mut restored = engine::build(kind, &builder.clone().seed(777));
        restored.restore_state(&blob).unwrap();
        assert_eq!(
            restored.save_state().as_deref(),
            Some(blob.as_str()),
            "{kind}"
        );

        let mut digest = String::new();
        for batch in tail {
            let report = live.apply_batch(batch).unwrap();
            assert_eq!(restored.apply_batch(batch).unwrap(), report, "{kind}");
            digest.push_str(&report_line(&report));
        }
        assert_eq!(fnv64(digest.as_bytes()), tail_fnv, "{kind}: tail reports");
        let final_blob = live.save_state().unwrap();
        assert_eq!(
            fnv64(final_blob.as_bytes()),
            final_fnv,
            "{kind}: final blob"
        );
        assert_eq!(restored.save_state(), Some(final_blob), "{kind}");
    }
}
