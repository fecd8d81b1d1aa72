//! `read-mix`: the standing 2-shard service in library mode, no socket.
//!
//! One writer runs a closed loop of `submit` + `drain` with 16-update
//! batches; a batch is committed once `drain` returns and the owner shards'
//! snapshots cover it.  One reader runs a tight loop: one
//! `ShardedService::snapshot()` plus [`LOOKUPS`] arbitrated
//! `matched_edge_of` lookups at random vertices, each checked against the
//! snapshot it was made on ([`check_read`]).

use crate::report::{self, Outcome, SplitMix};
use crate::sharded::{self, Standing};
use crate::trace::{Tracer, ROOT};
use crate::Run;
use pdmm::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Lookups per read.
const LOOKUPS: usize = 64;
/// Batches generated per measured second: headroom over what the writer
/// commits, so the stream outlasts the phase.  A phase that exhausts it ends
/// early and its throughput is still exact.
const GENERATED_BATCHES_PER_S: f64 = 200.0;

#[derive(Default)]
struct Writer {
    /// `(seconds since the phase began, updates)` per committed batch.
    done: Vec<(f64, f64)>,
    batches: usize,
    updates: usize,
    failed: u64,
    ack_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    /// Sub-batches each drain committed, per shard.
    per_drain: Vec<Vec<usize>>,
    drain_ms: Vec<f64>,
    cover_us: Vec<f64>,
    conflicts: usize,
    evicted: usize,
    repaired: usize,
    queue_depth_max: usize,
    /// Drains with every queue empty, after the loop, reader still running.
    idle_drain_ms: Vec<f64>,
}

#[derive(Default)]
struct Reader {
    reads: usize,
    /// `(seconds since the phase began, 1)` per read.
    done: Vec<(f64, f64)>,
    read_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    /// Reads with a lookup that disagreed with its own snapshot.
    disagreements: u64,
    /// Reads whose lookups could also be checked against the snapshot's
    /// shard views (see [`check_read`]).
    checked_against_shards: u64,
    /// Times a snapshot went back to fewer committed batches.
    regressions: u64,
}

/// The endpoints of every edge the stream inserts, by id: the benchmark's
/// own record of its input, independent of the service.
fn endpoints_by_id<'a>(
    stream: impl IntoIterator<Item = &'a UpdateBatch>,
) -> HashMap<EdgeId, Box<[VertexId]>> {
    stream
        .into_iter()
        .flat_map(UpdateBatch::updates)
        .filter_map(|update| match update {
            Update::Insert(edge) => Some((edge.id, edge.vertices().into())),
            Update::Delete(_) => None,
        })
        .collect()
}

/// Whether a snapshot's shard views are the ones its arbitrated view was
/// built from.  A drain publishes each shard's new view before it
/// arbitrates, so a read that races a drain can pair shard views and an
/// arbitrated view of different drains.  They belong together exactly when
/// the arbitration's kept and evicted edges are the shards' matched edges.
fn same_generation(snapshot: &ShardedSnapshot) -> bool {
    let arbitrated = snapshot.arbitrated_matching();
    if snapshot.size() != arbitrated.report().pre_size {
        return false;
    }
    let repaired = arbitrated.repaired_edges();
    let mut built_from = arbitrated.edge_ids();
    built_from.retain(|edge| repaired.binary_search(edge).is_err());
    built_from.extend_from_slice(arbitrated.evicted_edges());
    // Both are two sorted runs, which the stable sort merges in one pass.
    built_from.sort();
    let mut shards: Vec<EdgeId> = (0..snapshot.num_shards())
        .flat_map(|k| snapshot.shard(k).edges())
        .collect();
    shards.sort();
    built_from == shards
}

/// Checks one read's arbitrated lookups against data other than the
/// arbitrated view's own vertex index.  Every answered edge must be in the
/// arbitrated matching and have the vertex among its endpoints by the
/// stream's record.  When the snapshot's shard views are the ones the
/// arbitrated view was built from, a kept answer must also be matched with
/// that vertex in a shard view (a repaired one is matched in none), and an
/// empty answer must leave every shard edge on the vertex evicted.  Returns
/// the disagreements and whether the shard views were used.
fn check_read(
    snapshot: &ShardedSnapshot,
    lookups: &[(VertexId, Option<EdgeId>)],
    endpoints: &HashMap<EdgeId, Box<[VertexId]>>,
) -> (u64, bool) {
    let arbitrated = snapshot.arbitrated_matching();
    let against_shards = same_generation(snapshot);
    let shards = || (0..snapshot.num_shards()).map(|k| snapshot.shard(k));
    let mut disagreements = 0;
    for &(v, answer) in lookups {
        let agrees = match answer {
            Some(edge) => {
                arbitrated.contains_edge(edge)
                    && endpoints.get(&edge).is_some_and(|ends| ends.contains(&v))
                    && (!against_shards
                        || arbitrated.repaired_edges().binary_search(&edge).is_ok()
                        || shards().any(|shard| {
                            shard
                                .matched_endpoints(edge)
                                .is_some_and(|ends| ends.contains(&v))
                        }))
            }
            None => {
                !against_shards
                    || shards().all(|shard| {
                        shard.matched_edge_of(v).is_none_or(|edge| {
                            arbitrated.evicted_edges().binary_search(&edge).is_ok()
                        })
                    })
            }
        };
        disagreements += u64::from(!agrees);
    }
    (disagreements, against_shards)
}

/// One measured phase: writer on this thread, reader beside it.  After the
/// writer's loop it times `idle_drains` drains with every queue empty while
/// the reader still runs: sharding's fixed cost per drain under the same
/// contention the live drains saw.  Spans go to the writer's and the
/// reader's tracer.
fn phase(
    service: &ShardedService,
    batches: &[UpdateBatch],
    seconds: Duration,
    seed: u64,
    idle_drains: usize,
    endpoints: &HashMap<EdgeId, Box<[VertexId]>>,
    (writer_trace, reader_trace): (&mut Tracer, &mut Tracer),
) -> (Writer, Reader) {
    let stop = AtomicBool::new(false);
    let mut writer = Writer::default();
    let mut reader = Reader::default();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rng = SplitMix::new(seed ^ 0x2EAD);
            let mut lookups = [(VertexId(0), None); LOOKUPS];
            let mut last_committed = 0;
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let snapshot = service.snapshot();
                let t1 = Instant::now();
                let arbitrated = snapshot.arbitrated_matching();
                for lookup in &mut lookups {
                    let v = VertexId(rng.below(sharded::VERTICES as u64) as u32);
                    *lookup = (v, arbitrated.matched_edge_of(v));
                }
                let t2 = Instant::now();
                let (disagreements, against_shards) = check_read(&snapshot, &lookups, endpoints);
                reader.disagreements += u64::from(disagreements > 0);
                reader.checked_against_shards += u64::from(against_shards);
                let committed = snapshot.committed_batches();
                reader.regressions += u64::from(committed < last_committed);
                last_committed = committed;
                let read = reader_trace.record("readmix.read", ROOT, reader.reads as u64, t0, t2);
                reader_trace.record("sharding.snapshot", read, reader.reads as u64, t0, t1);
                reader.read_us.push((t2 - t0).as_secs_f64() * 1e6);
                reader.snapshot_us.push((t1 - t0).as_secs_f64() * 1e6);
                reader.done.push(((t2 - start).as_secs_f64(), 1.0));
                reader.reads += 1;
            }
        });

        let mut expected: u64 = (0..sharded::SHARDS)
            .map(|k| service.shard_snapshot(k).committed_batches())
            .sum();
        for (i, batch) in batches.iter().enumerate() {
            if start.elapsed() >= seconds {
                break;
            }
            let t0 = Instant::now();
            let routed = service.submit(batch.clone());
            let t1 = Instant::now();
            writer.queue_depth_max = writer.queue_depth_max.max(service.queue_len());
            let drained = service.drain();
            let t2 = Instant::now();
            expected += routed.sub_batches() as u64;
            let covered: u64 = (0..sharded::SHARDS)
                .map(|k| service.shard_snapshot(k).committed_batches())
                .sum();
            let t3 = Instant::now();
            let id = i as u64;
            let commit = writer_trace.record("readmix.commit", ROOT, id, t0, t3);
            writer_trace.record("sharding.route", commit, id, t0, t1);
            writer_trace.record("sharding.drain", commit, id, t1, t2);
            writer_trace.record("service.cover", commit, id, t2, t3);
            match drained {
                Ok(report) if covered >= expected => {
                    writer
                        .per_drain
                        .push(report.per_shard.iter().map(Vec::len).collect());
                    writer.conflicts += report.arbitration.stats.conflicted_vertices;
                    writer.evicted += report.arbitration.stats.evicted_edges;
                    writer.repaired += report.arbitration.stats.repaired_edges;
                    writer.ack_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    writer.commit_ms.push((t3 - t0).as_secs_f64() * 1e3);
                    writer.drain_ms.push((t2 - t1).as_secs_f64() * 1e3);
                    writer.cover_us.push((t3 - t2).as_secs_f64() * 1e6);
                    writer
                        .done
                        .push(((t3 - start).as_secs_f64(), batch.len() as f64));
                    writer.batches += 1;
                    writer.updates += batch.len();
                }
                _ => writer.failed += 1,
            }
            // After a refused sub-batch the snapshots are the truth.
            expected = covered;
        }
        for _ in 0..idle_drains {
            let t = Instant::now();
            let _ = service.drain();
            writer.idle_drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        stop.store(true, Ordering::Relaxed);
    });
    (writer, reader)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let generated = (run.seconds.as_secs_f64() * GENERATED_BATCHES_PER_S).ceil() as usize;
    let mut standing: Standing = sharded::set_up(run, generated, &mut out);
    let rss_before = report::rss_mb();
    let endpoints = endpoints_by_id(std::iter::once(&standing.preload).chain(&standing.churn));
    standing.input_mb += report::rss_mb() - rss_before;
    let service = &standing.service;
    let origin = Instant::now();

    let mut off = Tracer::new(origin, false);
    let mut off_reader = Tracer::new(origin, false);
    let (plain, plain_reads) = phase(
        service,
        &standing.churn,
        run.phase(),
        run.seed,
        0,
        &endpoints,
        (&mut off, &mut off_reader),
    );
    sharded::set_peak_rss(&mut out, &standing);
    let blocks_at_trace = sharded::journal_blocks(service);
    let mut tracer = Tracer::new(origin, true);
    let mut reader_tracer = Tracer::new(origin, true);
    let traced = run.trace.then(|| {
        let next = plain.batches + plain.failed as usize;
        phase(
            service,
            &standing.churn[next..],
            run.phase(),
            run.seed.wrapping_add(1),
            16,
            &endpoints,
            (&mut tracer, &mut reader_tracer),
        )
    });
    let writers: Vec<&Writer> = std::iter::once(&plain)
        .chain(traced.as_ref().map(|(w, _)| w))
        .collect();
    let readers: Vec<&Reader> = std::iter::once(&plain_reads)
        .chain(traced.as_ref().map(|(_, r)| r))
        .collect();
    out.attempted = writers
        .iter()
        .map(|w| w.batches as u64 + w.failed)
        .sum::<u64>()
        + readers.iter().map(|r| r.reads as u64).sum::<u64>();
    out.failed += writers.iter().map(|w| w.failed).sum::<u64>()
        + readers.iter().map(|r| r.disagreements).sum::<u64>();
    out.audit(
        "read-mix: every reader lookup agrees with its snapshot",
        readers.iter().all(|r| r.disagreements == 0),
    );
    for (i, reader) in readers.iter().enumerate() {
        println!(
            "# read-mix phase {i}: {} of {} reads also checked against their shard views",
            reader.checked_against_shards, reader.reads
        );
    }
    out.audit(
        "read-mix: some reads were checked against their shard views",
        readers.iter().all(|r| r.checked_against_shards > 0),
    );
    out.audit(
        "read-mix: snapshots never go back in commit order",
        readers.iter().all(|r| r.regressions == 0),
    );

    sharded::audit_arbitrated(service, &mut out);
    let replay = sharded::replay_layers(
        service,
        run.seed,
        if run.trace {
            &blocks_at_trace
        } else {
            &standing.checkpoint_blocks
        },
        run.trace.then_some(run.dir.as_path()),
    );
    out.audit(
        "read-mix: live shards equal an offline replay of their journals",
        replay.identical,
    );
    let recovery = sharded::recover(&standing, run.seed, &mut out);

    let n = plain.batches;
    out.set("updates_per_s", report::rate(&plain.done));
    out.set_timed("commit_p50_ms", report::median(&plain.commit_ms), n);
    out.set_timed(
        "commit_p99_ms",
        report::percentile(&plain.commit_ms, 0.99),
        n,
    );
    out.set_timed("ack_p50_ms", report::median(&plain.ack_ms), n);
    out.set_timed("ack_p99_ms", report::percentile(&plain.ack_ms, 0.99), n);
    let reads = &plain_reads.read_us;
    out.set("reads_per_s", report::rate(&plain_reads.done));
    out.set_timed("read_p50_us", report::median(reads), reads.len());
    out.set_timed("read_p99_us", report::percentile(reads, 0.99), reads.len());
    sharded::set_recovery_metrics(&mut out, &standing, &recovery);

    if let Some((writer, reads)) = traced {
        sharded::set_replayed_engine_metrics(&mut out, &replay);
        let drains = writer.drain_ms.len().max(1) as f64;
        out.set_timed(
            "service.snapshot_us",
            report::median(&writer.cover_us),
            writer.cover_us.len(),
        );
        let route_us: Vec<f64> = writer.ack_ms.iter().map(|ms| ms * 1e3).collect();
        out.set_timed(
            "sharding.route_us",
            report::median(&route_us),
            route_us.len(),
        );
        out.set_timed(
            "sharding.drain_p50_ms",
            report::median(&writer.drain_ms),
            writer.drain_ms.len(),
        );
        out.set_timed(
            "sharding.drain_p99_ms",
            report::percentile(&writer.drain_ms, 0.99),
            writer.drain_ms.len(),
        );
        let self_ms = sharded::sharding_self_ms(&writer.drain_ms, &writer.per_drain, &replay);
        out.set_timed("sharding.self_ms", report::median(&self_ms), self_ms.len());
        let sub_batches: usize = writer.per_drain.iter().flatten().sum();
        out.set("sharding.batches_per_drain", sub_batches as f64 / drains);
        out.set(
            "sharding.arbitration_conflicts",
            writer.conflicts as f64 / drains,
        );
        out.set(
            "sharding.arbitration_evicted",
            writer.evicted as f64 / drains,
        );
        out.set(
            "sharding.arbitration_repaired",
            writer.repaired as f64 / drains,
        );
        out.set("sharding.queue_depth_max", writer.queue_depth_max as f64);
        out.set_timed(
            "sharding.snapshot_us",
            report::median(&reads.snapshot_us),
            reads.snapshot_us.len(),
        );
        // No socket in this workload.
        out.bypassed(&["net."]);
        // A closed loop has no schedule to fall behind.
        out.set("gen.late_p99_ms", 0.0);

        // Stages of one commit, each measured on its own: routing and the
        // snapshot-cover check (spans), sharding's fixed per-drain cost (an
        // idle drain beside the reader) and the slowest shard's replayed service drain of the
        // batch's sub-batch (shards drain concurrently).  Their means
        // reconcile against the untraced commit mean.
        let idle_drain = report::median(&writer.idle_drain_ms);
        let critical = sharded::sharding_self_ms(
            &vec![0.0; writer.per_drain.len()],
            &writer.per_drain,
            &replay,
        );
        let stage_sum = report::mean(&tracer.durations("sharding.route")) + idle_drain
            - report::mean(&critical)
            + report::mean(&tracer.durations("service.cover"));
        println!(
            "# read-mix commit stages (traced means, ms): route={:.3} sharding_idle_drain={idle_drain:.3} shard_service={:.3} cover={:.3}",
            report::mean(&tracer.durations("sharding.route")),
            -report::mean(&critical),
            report::mean(&tracer.durations("service.cover")),
        );
        let untraced = report::mean(&plain.commit_ms);
        out.set("reconcile.stage_sum_ms", stage_sum);
        out.set("reconcile.untraced_ms", untraced);
        out.set("reconcile.error_frac", stage_sum / untraced - 1.0);
        out.set(
            "trace.overhead_frac",
            1.0 - report::rate(&writer.done) / report::rate(&plain.done),
        );
        tracer.absorb(reader_tracer);
        if let Err(e) = tracer.write_jsonl(&run.trace_file) {
            eprintln!("perfbench: cannot write {}: {e}", run.trace_file.display());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmm::hypergraph::streams;

    /// At a drain boundary the shard views belong to the arbitrated view,
    /// the true answers pass, and a kept vertex answered with another
    /// vertex's edge or with none is caught.
    #[test]
    fn reads_are_checked_against_the_stream_and_the_shard_views() {
        const N: usize = 200;
        let builder = EngineBuilder::new(N).seed(3);
        let service = ShardedService::new(
            (0..sharded::SHARDS)
                .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
                .collect(),
        );
        let stream = streams::random_churn(N, 2, 300, 4, 16, 0.5, 7);
        let endpoints = endpoints_by_id(&stream.batches);
        for batch in &stream.batches {
            service.submit(batch.clone());
            service.drain().expect("the stream is valid");
        }
        let snapshot = service.snapshot();
        assert!(same_generation(&snapshot));
        let arbitrated = snapshot.arbitrated_matching();
        assert!(!arbitrated.evicted_edges().is_empty());
        let truth: Vec<(VertexId, Option<EdgeId>)> = (0..N as u32)
            .map(|v| (VertexId(v), arbitrated.matched_edge_of(VertexId(v))))
            .collect();
        assert_eq!(check_read(&snapshot, &truth, &endpoints), (0, true));

        let kept = |&&(_, answer): &&(VertexId, Option<EdgeId>)| {
            answer.is_some_and(|edge| arbitrated.repaired_edges().binary_search(&edge).is_err())
        };
        let &(v, edge) = truth.iter().find(kept).expect("a kept edge");
        let &(_, other) = truth
            .iter()
            .filter(kept)
            .find(|(_, answer)| *answer != edge)
            .expect("a second kept edge");
        assert_eq!(check_read(&snapshot, &[(v, other)], &endpoints).0, 1);
        assert_eq!(check_read(&snapshot, &[(v, None)], &endpoints).0, 1);
    }
}
