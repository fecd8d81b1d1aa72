//! Commit markers: how `serve-net` sees a batch become visible.
//!
//! Every batch carries one extra insert, its marker: an edge on a pair of
//! reserved vertices that no generated edge touches, with an id above every
//! generated id.  Maximality forces the marker into its owner shard's
//! matching as soon as the sub-batch holding it commits, so the batch is
//! visible once the owner's `shard_snapshot` (one `Arc` clone, O(1)) matches
//! a reserved vertex to it.  The probe never takes the merged `snapshot()`,
//! which costs O(edges) and would load the system it measures.
//!
//! Markers rotate over `P` pairs: marker `i` sits on pair `i mod P`, and
//! batch `i` also deletes marker `i − P`, which freed the pair.  A refused
//! batch leaves its pair free, and the later delete of its marker is
//! rejected on its own by the lossy drain, so one refusal never wedges the
//! markers behind it.

use pdmm::prelude::*;

/// Marker ids start here, far above any generated edge id.
pub const MARKER_ID_BASE: u64 = 1 << 40;

/// Whether a marker shows in its owner shard's snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Not yet.
    Hidden,
    /// This marker is matched.
    Visible,
    /// A later marker on the same pair is matched: if this marker's batch
    /// was admitted, it has committed too (a shard commits in order).
    Superseded,
}

/// The marker plan of one service.
#[derive(Debug, Clone)]
pub struct Markers {
    /// Reserved vertex pairs, each inside one shard.
    pairs: Vec<[VertexId; 2]>,
    /// Owner shard of each pair.
    owners: Vec<usize>,
}

impl Markers {
    /// Pairs the reserved vertices `first..first + count` within each shard
    /// of `service`, taking the shards in turn so markers land on all of
    /// them.
    pub fn new(service: &ShardedService, first: usize, count: usize) -> Self {
        let mut by_shard = vec![Vec::new(); service.num_shards()];
        for v in first..first + count {
            let v = VertexId(u32::try_from(v).expect("reserved vertex fits a vertex id"));
            by_shard[service.shard_of_vertex(v)].push(v);
        }
        let mut pairs = Vec::new();
        let mut owners = Vec::new();
        for round in 0.. {
            let mut added = false;
            for (shard, vertices) in by_shard.iter().enumerate() {
                if let [a, b] = vertices.get(2 * round..2 * round + 2).unwrap_or(&[]) {
                    pairs.push([*a, *b]);
                    owners.push(shard);
                    added = true;
                }
            }
            if !added {
                break;
            }
        }
        assert!(!pairs.is_empty(), "no shard owns two reserved vertices");
        Markers { pairs, owners }
    }

    /// Number of pairs the markers rotate over.
    #[cfg(test)]
    pub fn pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Edge id of marker `i`.
    pub fn id(i: u64) -> EdgeId {
        EdgeId(MARKER_ID_BASE + i)
    }

    fn pair(&self, i: u64) -> usize {
        (i % self.pairs.len() as u64) as usize
    }

    /// Owner shard of marker `i`.
    pub fn owner(&self, i: u64) -> usize {
        self.owners[self.pair(i)]
    }

    /// Batch `i` with its marker updates appended: the delete of marker
    /// `i − P` (from the second round on) and the insert of marker `i`.
    pub fn stamp(&self, i: u64, batch: &UpdateBatch) -> UpdateBatch {
        let mut updates = batch.updates().to_vec();
        let p = self.pairs.len() as u64;
        if i >= p {
            updates.push(Update::Delete(Self::id(i - p)));
        }
        let [a, b] = self.pairs[self.pair(i)];
        updates.push(Update::Insert(HyperEdge::pair(Self::id(i), a, b)));
        UpdateBatch::new(updates).expect("marker updates keep a batch valid")
    }

    /// Whether marker `i` shows in its owner shard's current snapshot.
    #[cfg(test)]
    pub fn visibility(&self, service: &ShardedService, i: u64) -> Visibility {
        self.visibility_in(&service.shard_snapshot(self.owner(i)), i)
    }

    /// Whether marker `i` shows in `snapshot`, a snapshot of its owner shard.
    pub fn visibility_in(&self, snapshot: &MatchingSnapshot, i: u64) -> Visibility {
        let [a, _] = self.pairs[self.pair(i)];
        match snapshot.matched_edge_of(a) {
            Some(id) if id == Self::id(i) => Visibility::Visible,
            Some(id) if id.0 > Self::id(i).0 && id.0 >= MARKER_ID_BASE => Visibility::Superseded,
            _ => Visibility::Hidden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded;
    use pdmm::hypergraph::streams;
    use pdmm::net::{frame_batch, serve, DrainMode, Response, ServerConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    const SMALL: usize = 64;

    fn small_service() -> ShardedService {
        let builder = EngineBuilder::new(SMALL + sharded::RESERVED).seed(3);
        ShardedService::new(
            (0..sharded::SHARDS)
                .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
                .collect(),
        )
    }

    #[test]
    fn markers_use_only_reserved_vertices_and_ids() {
        let service = small_service();
        let markers = Markers::new(&service, SMALL, sharded::RESERVED);
        assert!(markers.pairs() >= sharded::SHARDS);
        let stream = streams::random_churn(SMALL, 2, 32, 20, 8, 0.5, 9);
        for (i, batch) in stream.batches.iter().enumerate() {
            for update in batch.iter() {
                assert!(update.edge_id().0 < MARKER_ID_BASE);
                if let Update::Insert(edge) = update {
                    assert!(edge.vertices().iter().all(|v| v.index() < SMALL));
                }
            }
            let stamped = markers.stamp(i as u64, batch);
            let marker = stamped.iter().last().expect("the marker insert is last");
            let Update::Insert(edge) = marker else {
                panic!("the marker is an insert");
            };
            assert_eq!(edge.id, Markers::id(i as u64));
            let owner = markers.owner(i as u64);
            for &v in edge.vertices() {
                assert!(v.index() >= SMALL);
                assert_eq!(service.shard_of_vertex(v), owner);
            }
        }
    }

    /// Over the wire, a marker is hidden until its batch is admitted, stays
    /// hidden while the batch waits in the queue, and is visible in its
    /// owner shard right after the drain that commits it.
    #[test]
    fn marker_visible_after_its_drain_and_never_before_admission() {
        let service = Arc::new(small_service());
        let markers = Markers::new(&service, SMALL, sharded::RESERVED);
        let config = ServerConfig {
            drain: DrainMode::Manual,
            ..ServerConfig::default()
        };
        let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).expect("bind localhost");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut responses = BufReader::new(stream.try_clone().expect("clone socket"));
        let churn = streams::random_churn(SMALL, 2, 0, 3 * markers.pairs(), 4, 0.6, 5);
        for (i, batch) in churn.batches.iter().enumerate() {
            let i = i as u64;
            assert_eq!(markers.visibility(&service, i), Visibility::Hidden);
            stream
                .write_all(frame_batch(&markers.stamp(i, batch)).as_bytes())
                .expect("send");
            let mut line = String::new();
            responses.read_line(&mut line).expect("response");
            assert!(
                matches!(Response::parse(&line), Some(Response::Ok { .. })),
                "{line}"
            );
            assert_eq!(markers.visibility(&service, i), Visibility::Hidden);
            handle.drain_now();
            assert_eq!(markers.visibility(&service, i), Visibility::Visible);
        }
        drop(stream);
        let stats = handle.shutdown();
        assert_eq!(stats.rejected_updates, 0);
    }

    /// A refused batch never committed its marker; the batch that later
    /// deletes it loses only that delete, and its own marker still shows.
    #[test]
    fn a_refused_marker_does_not_wedge_later_ones() {
        let service = small_service();
        let markers = Markers::new(&service, SMALL, sharded::RESERVED);
        let p = markers.pairs() as u64;
        let empty = UpdateBatch::new(Vec::new()).expect("empty batch");
        for i in 0..3 * p {
            if i == 1 {
                continue; // refused: never submitted
            }
            service.submit(markers.stamp(i, &empty));
            let report = service.drain_lossy();
            let rejected = report.rejected;
            assert_eq!(rejected, usize::from(i == 1 + p), "batch {i}");
            assert_eq!(markers.visibility(&service, i), Visibility::Visible);
        }
        assert_eq!(markers.visibility(&service, 1), Visibility::Superseded);
    }
}
