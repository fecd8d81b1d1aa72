//! `serve-net`: the whole serving path.
//!
//! An in-process `pdmm::net::serve` (default reactor) over the standing
//! 2-shard service with per-shard `FileJournal`s that sync on every commit.
//! One connection runs an open loop of marker-stamped 16-update batches at
//! [`RATE`] batches per second; latencies are stamped from each batch's due
//! time.  The untraced phase commits through the server's background
//! drainer; the traced phase drives `DrainMode::Manual` with the
//! benchmark's own `drain_now()` loop so drains can be timed.  After the
//! phases the server shuts down and the service is recovered from the set-up
//! checkpoint plus the salvaged journals.

use crate::marker::{Markers, Visibility};
use crate::report::{self, Outcome, SplitMix};
use crate::sharded::{self, Standing};
use crate::trace::{Tracer, ROOT};
use crate::Run;
use pdmm::net::{frame_batch, serve, DrainMode, Response, ServerConfig, ServerStats};
use pdmm::prelude::*;
use pdmm::service::EngineService;
use pdmm::sharding::HashPartitioner;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, batches per second: half of the highest rate the seed code
/// sustained with zero refusals over 20 s on a 2-vCPU host (the sweep is in
/// `README.md`).
pub const RATE: f64 = 100.0;
/// Tick of the probe's reads of the owner shards' snapshots.
const POLL: Duration = Duration::from_micros(200);
/// Random lookups per shard in one probe read.
const LOOKUPS: usize = 16;
/// How long after the last send stragglers may still commit.
const SETTLE: Duration = Duration::from_secs(10);

const PENDING: u8 = 0;
const ADMITTED: u8 = 1;
const REFUSED: u8 = 2;
const ERRORED: u8 = 3;

/// One traced drain.
struct Drain {
    start: Instant,
    end: Instant,
    /// Sub-batches committed, per shard.
    per_shard: Vec<usize>,
    conflicts: usize,
    evicted: usize,
    repaired: usize,
}

/// What one open-loop phase saw.
struct Phase {
    start: Instant,
    due: Vec<Instant>,
    updates: Vec<usize>,
    late_ms: Vec<f64>,
    acked: Vec<Option<Instant>>,
    status: Vec<u8>,
    visible: Vec<Option<Instant>>,
    /// Latency of each probe read.
    read_us: Vec<f64>,
    /// `(seconds since the phase began, 1)` per probe read.
    read_done: Vec<(f64, f64)>,
    /// Latency of each `shard_snapshot` call the probe made.
    snapshot_us: Vec<f64>,
    drains: Vec<Drain>,
    queue_depth_max: usize,
    stats: ServerStats,
}

impl Phase {
    fn sent(&self) -> usize {
        self.due.len()
    }

    /// A refused, errored or never-visible batch misses every latency
    /// limit: it counts as the whole phase plus the settle window.
    fn miss_ms(&self) -> f64 {
        (self.due.last().map_or(Duration::ZERO, |d| *d - self.start) + SETTLE).as_secs_f64() * 1e3
    }

    fn ack_ms(&self) -> Vec<f64> {
        (0..self.sent())
            .map(|j| match (self.status[j], self.acked[j]) {
                (ADMITTED, Some(at)) => (at - self.due[j]).as_secs_f64() * 1e3,
                _ => self.miss_ms(),
            })
            .collect()
    }

    fn commit_ms(&self) -> Vec<f64> {
        (0..self.sent())
            .map(|j| match (self.status[j], self.visible[j]) {
                (ADMITTED, Some(at)) => (at - self.due[j]).as_secs_f64() * 1e3,
                _ => self.miss_ms(),
            })
            .collect()
    }

    fn failed(&self) -> u64 {
        (0..self.sent())
            .filter(|&j| self.status[j] != ADMITTED || self.visible[j].is_none())
            .count() as u64
    }

    /// `(seconds since the phase began, updates)` per committed batch, in
    /// commit order.
    fn committed(&self) -> Vec<(f64, f64)> {
        let mut done: Vec<(f64, f64)> = (0..self.sent())
            .filter_map(|j| {
                let at = self.visible[j]?;
                Some(((at - self.start).as_secs_f64(), self.updates[j] as f64))
            })
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        done
    }
}

/// Runs one open-loop phase of `frames` (batch `first + j` is `frames[j]`).
///
/// This thread sends each batch at its due time and, on a fixed tick of
/// [`POLL`] between sends, makes one read: for every shard, its O(1)
/// `shard_snapshot`, the outstanding markers it owns and [`LOOKUPS`]
/// `matched_edge_of` lookups at random vertices.  A second thread reads the
/// responses; in the traced phase a third one drives the drains.
fn phase(
    service: &Arc<ShardedService>,
    markers: &Markers,
    frames: &[(String, usize)],
    first: u64,
    traced: bool,
    seed: u64,
) -> Phase {
    let config = ServerConfig {
        drain: if traced {
            DrainMode::Manual
        } else {
            DrainMode::Background
        },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(service), "127.0.0.1:0", config).expect("bind localhost");
    let mut socket = TcpStream::connect(handle.local_addr()).expect("connect to the server");
    socket.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = socket.try_clone().expect("clone the socket");
    reader
        .set_read_timeout(Some(SETTLE))
        .expect("set a read timeout");

    let n = frames.len();
    let status: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(PENDING)).collect();
    let acked_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut sent = 0;
    let draining = AtomicBool::new(true);
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..n)
        .map(|j| start + Duration::from_secs_f64(j as f64 / RATE))
        .collect();
    let mut late_ms = Vec::with_capacity(n);
    let mut visible: Vec<Option<Instant>> = vec![None; n];
    let mut read_us = Vec::new();
    let mut read_done = Vec::new();
    let mut snapshot_us = Vec::new();
    let mut drains = Vec::new();
    let mut queue_depth_max = 0;

    std::thread::scope(|s| {
        // Responses arrive in send order, one per batch.  Blocking reads:
        // a sender that stops early leaves this thread to the read timeout.
        s.spawn(|| {
            let mut lines = BufReader::new(reader);
            let mut line = String::new();
            for j in 0..n {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(n) if n > 0 => {}
                    // Closed or timed out: the rest never got an answer.
                    _ => break,
                }
                let at = (Instant::now() - start).as_nanos() as u64;
                let outcome = match Response::parse(&line) {
                    Some(Response::Ok { .. }) => ADMITTED,
                    Some(Response::Retry { .. } | Response::Shed) => REFUSED,
                    _ => ERRORED,
                };
                acked_ns[j].store(at.max(1), Ordering::SeqCst);
                status[j].store(outcome, Ordering::SeqCst);
            }
        });
        if traced {
            s.spawn(|| {
                while draining.load(Ordering::SeqCst) {
                    let depth = service.queue_len();
                    if depth == 0 {
                        std::thread::sleep(Duration::from_micros(100));
                        continue;
                    }
                    queue_depth_max = queue_depth_max.max(depth);
                    let t0 = Instant::now();
                    let report = handle.drain_now();
                    let t1 = Instant::now();
                    let stats = report.arbitration.stats;
                    drains.push(Drain {
                        start: t0,
                        end: t1,
                        per_shard: report.per_shard.iter().map(Vec::len).collect(),
                        conflicts: stats.conflicted_vertices,
                        evicted: stats.evicted_edges,
                        repaired: stats.repaired_edges,
                    });
                }
            });
        }

        let mut rng = SplitMix::new(seed ^ 0x9E7);
        let mut outstanding: Vec<usize> = Vec::new();
        let mut read = |outstanding: &mut Vec<usize>, visible: &mut Vec<Option<Instant>>| {
            let t0 = Instant::now();
            for shard in 0..sharded::SHARDS {
                let t = Instant::now();
                let snapshot = service.shard_snapshot(shard);
                snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
                for _ in 0..LOOKUPS {
                    let v = VertexId(rng.below(sharded::VERTICES as u64) as u32);
                    std::hint::black_box(snapshot.matched_edge_of(v));
                }
                let seen_at = Instant::now();
                outstanding.retain(|&j| {
                    let i = first + j as u64;
                    if markers.owner(i) != shard {
                        return true;
                    }
                    let state = status[j].load(Ordering::SeqCst);
                    if state == REFUSED || state == ERRORED {
                        return false;
                    }
                    let seen = markers.visibility_in(&snapshot, i);
                    let committed = seen == Visibility::Visible
                        || (seen == Visibility::Superseded && state == ADMITTED);
                    if committed {
                        visible[j] = Some(seen_at);
                    }
                    !committed
                });
            }
            let t1 = Instant::now();
            read_us.push((t1 - t0).as_secs_f64() * 1e6);
            read_done.push(((t1 - start).as_secs_f64(), 1.0));
        };
        // Fixed ticks; a tick that is already past is skipped, not made up.
        let mut tick = start;
        let mut stopped = false;
        let mut deadline = None;
        loop {
            let now = Instant::now();
            if now < tick {
                std::thread::sleep(tick - now);
            }
            while !stopped && sent < n && Instant::now() >= due[sent] {
                if socket.write_all(frames[sent].0.as_bytes()).is_err() {
                    stopped = true;
                    break;
                }
                late_ms.push((Instant::now() - due[sent]).as_secs_f64() * 1e3);
                outstanding.push(sent);
                sent += 1;
            }
            if (stopped || sent == n) && deadline.is_none() {
                deadline = Some(Instant::now() + SETTLE);
            }
            read(&mut outstanding, &mut visible);
            if deadline.is_some_and(|d| outstanding.is_empty() || Instant::now() >= d) {
                break;
            }
            tick += POLL;
            let now = Instant::now();
            if tick < now {
                tick = now;
            }
        }
        draining.store(false, Ordering::SeqCst);
    });
    drop(socket);
    let stats = handle.shutdown();
    Phase {
        start,
        due: due[..sent].to_vec(),
        updates: frames[..sent].iter().map(|(_, u)| *u).collect(),
        late_ms,
        acked: acked_ns[..sent]
            .iter()
            .map(|ns| match ns.load(Ordering::SeqCst) {
                0 => None,
                ns => Some(start + Duration::from_nanos(ns)),
            })
            .collect(),
        status: status[..sent]
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .collect(),
        visible: visible[..sent].to_vec(),
        read_us,
        read_done,
        snapshot_us,
        drains,
        queue_depth_max,
        stats,
    }
}

/// Routing cost of the exact admitted batches, replayed in order through a
/// fresh service whose shards publish only at drain ends (a thinner stack:
/// the router is the layer under test).  Returns, for the batches from
/// `timed_from` on, each one's routing time and how many of its updates
/// went to each shard.
fn route(
    seed: u64,
    preload: &UpdateBatch,
    admitted: &[UpdateBatch],
    timed_from: usize,
) -> (Vec<f64>, Vec<Vec<usize>>) {
    let services = sharded::engines(seed)
        .into_iter()
        .map(|engine| EngineService::new(engine).with_snapshot_every(u64::MAX))
        .collect();
    let service = ShardedService::from_services(services, Box::new(HashPartitioner));
    service.submit(preload.clone());
    let _ = service.drain();
    let mut us = Vec::new();
    let mut per_shard = Vec::new();
    for (i, batch) in admitted.iter().enumerate() {
        let t = Instant::now();
        let routed = service.try_submit(batch.clone());
        let elapsed_us = t.elapsed().as_secs_f64() * 1e6;
        let routed = match routed {
            Ok(report) => report,
            Err(batch) => {
                let _ = service.drain_lossy();
                service.submit(batch)
            }
        };
        if i >= timed_from {
            us.push(elapsed_us);
            per_shard.push(routed.per_shard);
        }
        if i % 32 == 31 {
            let _ = service.drain_lossy();
        }
    }
    (us, per_shard)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let phases = if run.trace { 2 } else { 1 };
    let per_phase = (run.phase().as_secs_f64() * RATE).ceil() as usize;
    let mut standing: Standing = sharded::set_up(run, per_phase * phases, &mut out);
    let service = Arc::clone(&standing.service);
    let markers = Markers::new(&service, sharded::VERTICES, sharded::RESERVED);
    let stamped: Vec<UpdateBatch> = std::mem::take(&mut standing.churn)
        .iter()
        .enumerate()
        .map(|(i, batch)| markers.stamp(i as u64, batch))
        .collect();
    let frames: Vec<(String, usize)> = stamped
        .iter()
        .map(|batch| (frame_batch(batch), batch.len()))
        .collect();

    let plain = phase(&service, &markers, &frames[..per_phase], 0, false, run.seed);
    sharded::set_peak_rss(&mut out, &standing);
    let blocks_at_trace = sharded::journal_blocks(&service);
    let traced = run.trace.then(|| {
        phase(
            &service,
            &markers,
            &frames[per_phase..],
            per_phase as u64,
            true,
            run.seed,
        )
    });
    let runs: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    out.attempted = runs.iter().map(|p| p.sent() as u64).sum();
    out.failed += runs.iter().map(|p| p.failed()).sum::<u64>();
    out.audit(
        "serve-net: every offered batch was sent",
        runs.iter().map(|p| p.sent()).sum::<usize>() == per_phase * phases,
    );
    out.audit(
        "serve-net: every batch was admitted and its marker became visible",
        runs.iter().all(|p| p.failed() == 0),
    );
    out.audit(
        "serve-net: no protocol errors",
        runs.iter().all(|p| p.stats.protocol_errors == 0),
    );

    // Audits and recovery, after the server is gone.
    sharded::audit_arbitrated(&service, &mut out);
    let replay = sharded::replay_layers(
        &service,
        run.seed,
        if run.trace {
            &blocks_at_trace
        } else {
            &standing.checkpoint_blocks
        },
        run.trace.then_some(run.dir.as_path()),
    );
    out.audit(
        "serve-net: live shards equal an offline replay of their journals",
        replay.identical,
    );
    let recovery = sharded::recover(&standing, run.seed, &mut out);

    let commit = plain.commit_ms();
    let ack = plain.ack_ms();
    let n = plain.sent();
    out.set("updates_per_s", report::rate(&plain.committed()));
    out.set_timed("commit_p50_ms", report::median(&commit), n);
    out.set_timed("commit_p99_ms", report::percentile(&commit, 0.99), n);
    out.set_timed("ack_p50_ms", report::median(&ack), n);
    out.set_timed("ack_p99_ms", report::percentile(&ack, 0.99), n);
    // The reads of this workload are the probe's: O(1) shard snapshots and
    // lookups on them, on a fixed tick.
    let reads = &plain.read_us;
    out.set("reads_per_s", report::rate(&plain.read_done));
    out.set_timed("read_p50_us", report::median(reads), reads.len());
    out.set_timed("read_p99_us", report::percentile(reads, 0.99), reads.len());
    sharded::set_recovery_metrics(&mut out, &standing, &recovery);

    if let Some(phase) = traced {
        sharded::set_replayed_engine_metrics(&mut out, &replay);
        let n = phase.sent();
        let snapshots = &phase.snapshot_us;
        out.set_timed(
            "service.snapshot_us",
            report::median(snapshots),
            snapshots.len(),
        );
        // Every admitted batch is routed, in order, so the router state
        // matches the live one; the traced phase's batches are timed.
        let untraced_admitted: Vec<UpdateBatch> = (0..plain.sent())
            .filter(|&j| plain.status[j] == ADMITTED)
            .map(|j| stamped[j].clone())
            .collect();
        let timed_from = untraced_admitted.len();
        let admitted: Vec<UpdateBatch> = untraced_admitted
            .into_iter()
            .chain(
                (0..n)
                    .filter(|&j| phase.status[j] == ADMITTED)
                    .map(|j| stamped[per_phase + j].clone()),
            )
            .collect();
        let (route, routed) = route(run.seed, &standing.preload, &admitted, timed_from);
        let route_p50 = report::median(&route);
        out.set_timed("sharding.route_us", route_p50, route.len());
        let drain_ms: Vec<f64> = phase
            .drains
            .iter()
            .map(|d| (d.end - d.start).as_secs_f64() * 1e3)
            .collect();
        let drains = drain_ms.len().max(1) as f64;
        out.set_timed(
            "sharding.drain_p50_ms",
            report::median(&drain_ms),
            drain_ms.len(),
        );
        out.set_timed(
            "sharding.drain_p99_ms",
            report::percentile(&drain_ms, 0.99),
            drain_ms.len(),
        );
        let per_drain: Vec<Vec<usize>> = phase.drains.iter().map(|d| d.per_shard.clone()).collect();
        let self_ms = sharded::sharding_self_ms(&drain_ms, &per_drain, &replay);
        out.set_timed("sharding.self_ms", report::median(&self_ms), self_ms.len());
        let sub_batches: usize = per_drain.iter().flatten().sum();
        out.set("sharding.batches_per_drain", sub_batches as f64 / drains);
        let per =
            |f: fn(&Drain) -> usize| phase.drains.iter().map(f).sum::<usize>() as f64 / drains;
        out.set("sharding.arbitration_conflicts", per(|d| d.conflicts));
        out.set("sharding.arbitration_evicted", per(|d| d.evicted));
        out.set("sharding.arbitration_repaired", per(|d| d.repaired));
        out.set("sharding.queue_depth_max", phase.queue_depth_max as f64);
        let mut merged = Vec::new();
        for _ in 0..16 {
            let t = Instant::now();
            std::hint::black_box(service.snapshot());
            merged.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.set_timed(
            "sharding.snapshot_us",
            report::median(&merged),
            merged.len(),
        );
        out.set("net.admitted", phase.stats.admitted as f64);
        out.set("net.retried", phase.stats.retried as f64);
        out.set("net.shed", phase.stats.shed as f64);
        out.set("net.protocol_errors", phase.stats.protocol_errors as f64);
        out.set(
            "net.peak_buffer_bytes",
            phase.stats.peak_buffer_bytes as f64,
        );
        let traced_ack = phase.ack_ms();
        out.set(
            "net.ack_minus_route_us",
            report::median(&traced_ack) * 1e3 - route_p50,
        );
        out.set("gen.late_p99_ms", report::percentile(&plain.late_ms, 0.99));

        // Stages of one batch's commit, each measured on its own: ack
        // (due → OK, span), queue wait (OK → start of the drain that made it
        // visible, spans) and the owner shard's replayed service drains of
        // that drain's sub-batches up to and including the batch's own.
        // Their means reconcile against the untraced commit mean.
        let mut tracer = Tracer::new(phase.start, true);
        let mut drain_of_block: Vec<Vec<usize>> = vec![Vec::new(); sharded::SHARDS];
        for (d, drain) in phase.drains.iter().enumerate() {
            tracer.record("sharding.drain", ROOT, d as u64, drain.start, drain.end);
            for (k, &count) in drain.per_shard.iter().enumerate() {
                drain_of_block[k].extend(std::iter::repeat_n(d, count));
            }
        }
        let mut block_cursor = [0usize; sharded::SHARDS];
        let mut admitted_index = 0;
        let (mut ack_sum, mut wait_sum, mut service_sum, mut count) = (0.0, 0.0, 0.0, 0u32);
        let ms = |a: Instant, b: Instant| {
            if b >= a {
                (b - a).as_secs_f64() * 1e3
            } else {
                -((a - b).as_secs_f64() * 1e3)
            }
        };
        for j in 0..n {
            if phase.status[j] != ADMITTED {
                continue;
            }
            let counts = &routed[admitted_index];
            admitted_index += 1;
            let owner = markers.owner((per_phase + j) as u64);
            let owner_block = block_cursor[owner];
            for (k, &c) in counts.iter().enumerate() {
                block_cursor[k] += usize::from(c > 0);
            }
            let (Some(acked), Some(seen)) = (phase.acked[j], phase.visible[j]) else {
                continue;
            };
            let batch = (per_phase + j) as u64;
            let root = tracer.open("servenet.commit", ROOT, batch, phase.due[j]);
            tracer.record("net.ack", root, batch, phase.due[j], acked);
            tracer.close(root, seen);
            let Some(&d) = drain_of_block[owner].get(owner_block) else {
                continue;
            };
            let first = drain_of_block[owner]
                .iter()
                .position(|&x| x == d)
                .unwrap_or(owner_block);
            let service: f64 = replay.service_ms[owner]
                .get(first..=owner_block)
                .map_or(0.0, |blocks| blocks.iter().sum());
            ack_sum += ms(phase.due[j], acked);
            wait_sum += ms(acked, phase.drains[d].start);
            service_sum += service;
            count += 1;
        }
        let count = f64::from(count.max(1));
        let stage_sum = (ack_sum + wait_sum + service_sum) / count;
        println!(
            "# serve-net commit stages (traced means, ms): ack={:.3} queue_wait={:.3} owner_service={:.3}",
            ack_sum / count,
            wait_sum / count,
            service_sum / count,
        );
        let untraced = report::mean(&commit);
        out.set("reconcile.stage_sum_ms", stage_sum);
        out.set("reconcile.untraced_ms", untraced);
        out.set("reconcile.error_frac", stage_sum / untraced - 1.0);
        out.set(
            "trace.overhead_frac",
            report::mean(&phase.commit_ms()) / untraced - 1.0,
        );
        if let Err(e) = tracer.write_jsonl(&run.trace_file) {
            eprintln!("perfbench: cannot write {}: {e}", run.trace_file.display());
        }
    }
    out
}
