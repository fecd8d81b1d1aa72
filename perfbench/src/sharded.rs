//! The standing 2-shard service `serve-net` and `read-mix` share, and the
//! thinner stacks that replay its committed batches.
//!
//! Set-up generates rank-2 `random_churn` (n = 100k, about 50k standing
//! edges, 16-update batches, half inserts), builds a `ShardedService` of two
//! one-thread `EngineKind::Parallel` shards under `HashPartitioner`, each with
//! a `FileJournal` that syncs on every commit, preloads the standing graph
//! and stores a checkpoint.  Vertices `VERTICES..VERTICES + RESERVED` exist
//! in every engine but no generated edge touches them: they carry the
//! `serve-net` commit markers.

use crate::report::{self, Outcome};
use crate::{Run, RECOVER_REPS, SETUP_REPS};
use pdmm::checkpoint::{load_checkpoint, store_checkpoint, Checkpoint};
use pdmm::engine;
use pdmm::hypergraph::{io, streams};
use pdmm::prelude::*;
use pdmm::service::{FileJournal, JournalSink, MemoryJournal};
use pdmm::sharding::HashPartitioner;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Vertices the churn generator draws from.
pub const VERTICES: usize = 100_000;
/// Reserved vertices past the churn range (marker pairs).
pub const RESERVED: usize = 64;
const RANK: usize = 2;
const STANDING: usize = 50_000;
/// Updates per churn batch.
pub const BATCH: usize = 16;
const INSERT_FRACTION: f64 = 0.5;
/// Shards of the service.
pub const SHARDS: usize = 2;

/// The engine configuration of shard `k`.  Shard engines own no thread
/// pool: their parallel phases run on the process-wide pool the shards
/// drain on, so a commit never hands off to another thread.
pub fn builder(seed: u64, shard: usize) -> EngineBuilder {
    EngineBuilder::new(VERTICES + RESERVED)
        .rank(RANK)
        .seed(seed.wrapping_add(shard as u64))
}

/// Fresh shard engines, as every twin of the service needs them.
pub fn engines(seed: u64) -> Vec<Box<dyn MatchingEngine + Send>> {
    (0..SHARDS)
        .map(|k| engine::build(EngineKind::Parallel, &builder(seed, k)))
        .collect()
}

fn journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.journal"))
}

/// The preloaded, checkpointed service and the stream that feeds it.
pub struct Standing {
    pub service: Arc<ShardedService>,
    /// The batch that loaded the standing graph.
    pub preload: UpdateBatch,
    /// Churn batches after the preload.
    pub churn: Vec<UpdateBatch>,
    /// Resident size of the generated stream, in MB.
    pub input_mb: f64,
    dir: PathBuf,
    /// Journal blocks per shard covered by the set-up checkpoint.
    pub checkpoint_blocks: Vec<usize>,
    pub checkpoint_bytes: usize,
    pub checkpoint_write_ms: f64,
}

/// Generates the stream of `churn_batches` batches after the preload,
/// outside the set-up timer; then, [`SETUP_REPS`] times, generates the
/// standing graph, builds and preloads the service and stores its
/// checkpoint.  Records the median repetition as `setup_s` and keeps the
/// last one.
pub fn set_up(run: &Run, churn_batches: usize, out: &mut Outcome) -> Standing {
    let rss_before = report::rss_mb();
    let mut stream = streams::random_churn(
        VERTICES,
        RANK,
        STANDING,
        churn_batches,
        BATCH,
        INSERT_FRACTION,
        run.seed,
    );
    let input_mb = report::rss_mb() - rss_before;
    let churn = stream.batches.split_off(1);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut standing = None;
    for rep in 0..SETUP_REPS {
        // Free the previous repetition before building the next.
        drop(standing.take());
        let dir = run.dir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&dir).expect("the run directory is writable");
        let t = Instant::now();
        let mut graph = streams::random_churn(
            VERTICES,
            RANK,
            STANDING,
            0,
            BATCH,
            INSERT_FRACTION,
            run.seed,
        );
        let services = engines(run.seed)
            .into_iter()
            .enumerate()
            .map(|(k, engine)| {
                let journal = FileJournal::create(journal_path(&dir, k))
                    .expect("the run directory is writable")
                    .with_flush_on_commit(true);
                EngineService::new(engine).with_journal(Box::new(journal))
            })
            .collect();
        let service = ShardedService::from_services(services, Box::new(HashPartitioner));
        let preload = graph
            .batches
            .pop()
            .expect("the stream starts with the preload");
        service.submit(preload.clone());
        out.audit("set-up: the preload commits", service.drain().is_ok());
        let tc = Instant::now();
        let text = service
            .checkpoint()
            .expect("the parallel engine checkpoints");
        store_checkpoint(dir.join("checkpoint"), &text).expect("the run directory is writable");
        let checkpoint_write_ms = tc.elapsed().as_secs_f64() * 1e3;
        times.push(t.elapsed().as_secs_f64());
        out.audit(
            "set-up: the preloaded graph is the stream's first batch",
            stream.batches.first() == Some(&preload),
        );
        let checkpoint_blocks = (0..SHARDS)
            .map(|k| io::journal_blocks(&service.shard_journal(k)).len())
            .collect();
        standing = Some(Standing {
            service: Arc::new(service),
            preload,
            churn: Vec::new(),
            input_mb,
            dir,
            checkpoint_blocks,
            checkpoint_bytes: text.len(),
            checkpoint_write_ms,
        });
    }
    out.set("setup_s", report::median(&times));
    let mut standing = standing.expect("at least one set-up");
    standing.churn = churn;
    standing
}

/// Peak resident memory so far, net of the generated stream: sampled at the
/// end of the measured phase, before any audit, twin or recovery allocates.
pub fn set_peak_rss(out: &mut Outcome, standing: &Standing) {
    out.set("peak_rss_mb", report::peak_rss_mb() - standing.input_mb);
}

/// Journal blocks each shard has committed so far.
pub fn journal_blocks(service: &ShardedService) -> Vec<usize> {
    (0..SHARDS)
        .map(|k| io::journal_blocks(&service.shard_journal(k)).len())
        .collect()
}

/// What replaying each shard's committed journal through the thinner stacks
/// measured, for the blocks from a given index on.
#[derive(Debug, Default)]
pub struct LayerReplay {
    /// Per shard, per measured block: bare `EngineService` submit + drain.
    pub service_ms: Vec<Vec<f64>>,
    /// Per shard, per measured block: bare engine `validate`.
    pub validate_ms: Vec<Vec<f64>>,
    /// Per shard, per measured block: bare engine `apply_batch_trusted`.
    pub kernel_ms: Vec<Vec<f64>>,
    pub updates: u64,
    pub batches: u64,
    pub work: u64,
    pub depth: u64,
    pub rebuilds: u64,
    pub journal_bytes: u64,
    pub settle_iterations: u64,
    pub luby_iterations: u64,
    pub temp_deletions: u64,
    pub reinsertions: u64,
    /// Whether both replays reproduced every live shard state exactly.
    pub identical: bool,
}

impl LayerReplay {
    /// Per-block `service − validate − kernel`, all shards.
    pub fn service_self_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for k in 0..self.service_ms.len() {
            let engine = self.validate_ms[k].iter().zip(&self.kernel_ms[k]);
            for (service, (validate, kernel)) in self.service_ms[k].iter().zip(engine) {
                out.push(service - validate - kernel);
            }
        }
        out
    }

    /// Every measured block's value of one per-shard series.
    pub fn flat(series: &[Vec<f64>]) -> Vec<f64> {
        series.iter().flatten().copied().collect()
    }
}

/// Replays every shard's committed journal on fresh twins: when `dir` is
/// given, a bare `EngineService` journaling to its own syncing `FileJournal`
/// there, as the live shard does (one submit + drain per block); then always
/// a bare `ParallelDynamicMatching` (`validate` + `apply_batch_trusted`,
/// whose epoch metrics give the core counters).  Timings and counters cover
/// blocks `from[k]..` of shard `k`; every twin must end in the live shard's
/// state.
pub fn replay_layers(
    live: &ShardedService,
    seed: u64,
    from: &[usize],
    dir: Option<&Path>,
) -> LayerReplay {
    let mut out = LayerReplay {
        identical: true,
        ..LayerReplay::default()
    };
    for k in 0..SHARDS {
        let journal = live.shard_journal(k);
        let live_state = live.shard_state(k);
        let blocks = io::journal_blocks(&journal);
        out.journal_bytes += blocks[from[k].min(blocks.len())..]
            .iter()
            .map(|b| b.len() as u64 + 2)
            .sum::<u64>();
        let batches = io::batches_from_string(&journal).expect("a live journal parses");

        let mut service_ms = Vec::new();
        if let Some(dir) = dir {
            let journal_file = FileJournal::create(dir.join(format!("replay-{k}.journal")))
                .expect("the run directory is writable")
                .with_flush_on_commit(true);
            let engine = engine::build(EngineKind::Parallel, &builder(seed, k));
            let service = EngineService::new(engine).with_journal(Box::new(journal_file));
            for (b, batch) in batches.iter().enumerate() {
                let t = Instant::now();
                service.submit(batch.clone());
                out.identical &= service.drain().is_ok();
                if b >= from[k] {
                    service_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            out.identical &= service.save_state() == live_state;
        }

        let mut bare = ParallelDynamicMatching::from_builder(&builder(seed, k));
        let mut validate_ms = Vec::new();
        let mut kernel_ms = Vec::new();
        let mut before = bare.epoch_metrics().clone();
        for (b, batch) in batches.iter().enumerate() {
            if b == from[k] {
                before = bare.epoch_metrics().clone();
            }
            let t0 = Instant::now();
            let Ok(proof) = bare.validate(batch.updates()) else {
                out.identical = false;
                continue;
            };
            let t1 = Instant::now();
            let batch_report = bare.apply_batch_trusted(proof);
            let t2 = Instant::now();
            if b >= from[k] {
                validate_ms.push((t1 - t0).as_secs_f64() * 1e3);
                kernel_ms.push((t2 - t1).as_secs_f64() * 1e3);
                out.updates += batch.len() as u64;
                out.batches += 1;
                out.work += batch_report.work;
                out.depth += batch_report.depth;
                out.rebuilds += u64::from(batch_report.rebuilt);
            }
        }
        let after = bare.epoch_metrics();
        if from[k] < batches.len() {
            out.settle_iterations += after.settle_iterations - before.settle_iterations;
            out.luby_iterations += after.luby_iterations - before.luby_iterations;
            out.temp_deletions += after.temp_deletions - before.temp_deletions;
            out.reinsertions += after.reinsertions - before.reinsertions;
        }
        out.identical &= bare.save_state() == live_state;
        out.service_ms.push(service_ms);
        out.validate_ms.push(validate_ms);
        out.kernel_ms.push(kernel_ms);
    }
    out
}

/// Records the engine and core metrics a journal replay measured.
pub fn set_replayed_engine_metrics(out: &mut Outcome, replay: &LayerReplay) {
    let kernel = LayerReplay::flat(&replay.kernel_ms);
    let validate = LayerReplay::flat(&replay.validate_ms);
    out.set_timed(
        "engine.kernel_p50_ms",
        report::median(&kernel),
        kernel.len(),
    );
    out.set_timed(
        "engine.kernel_p99_ms",
        report::percentile(&kernel, 0.99),
        kernel.len(),
    );
    out.set_timed(
        "engine.validate_us",
        report::median(&validate) * 1e3,
        validate.len(),
    );
    let updates = replay.updates.max(1) as f64;
    let batches = replay.batches.max(1) as f64;
    out.set("engine.work_per_update", replay.work as f64 / updates);
    out.set("engine.depth_per_batch", replay.depth as f64 / batches);
    out.set("engine.rebuilds", replay.rebuilds as f64);
    out.set(
        "core.settle_iterations_per_batch",
        replay.settle_iterations as f64 / batches,
    );
    out.set("core.luby_iterations", replay.luby_iterations as f64);
    out.set(
        "core.temp_deletions_per_update",
        replay.temp_deletions as f64 / updates,
    );
    out.set(
        "core.reinsertions_per_update",
        replay.reinsertions as f64 / updates,
    );
    // Shard engines run one thread each, so both sides of the ratio are
    // the one-thread kernel.
    out.set("core.speedup_threads", 1.0);
    let service = LayerReplay::flat(&replay.service_ms);
    out.set_timed("service.drain_ms", report::median(&service), service.len());
    let service_self = replay.service_self_ms();
    out.set_timed(
        "service.self_ms",
        report::median(&service_self),
        service_self.len(),
    );
    out.set(
        "service.journal_bytes_per_update",
        replay.journal_bytes as f64 / updates,
    );
}

/// Sharding's own time per drain: the drain minus its critical path, the
/// slowest shard's replayed service drains of the sub-batches it committed
/// (shards drain concurrently).  `per_drain[d][k]` is how many sub-batches
/// drain `d` committed on shard `k`; `replay` must start at the first of
/// them.
pub fn sharding_self_ms(
    drain_ms: &[f64],
    per_drain: &[Vec<usize>],
    replay: &LayerReplay,
) -> Vec<f64> {
    let mut cursor = [0usize; SHARDS];
    let mut out = Vec::with_capacity(drain_ms.len());
    for (ms, counts) in drain_ms.iter().zip(per_drain) {
        let mut critical: f64 = 0.0;
        for (k, &count) in counts.iter().enumerate() {
            let series = &replay.service_ms[k];
            let end = (cursor[k] + count).min(series.len());
            critical = critical.max(series[cursor[k].min(end)..end].iter().sum());
            cursor[k] = end;
        }
        out.push(ms - critical);
    }
    out
}

/// What crash recovery from the set-up checkpoint plus the salvaged
/// journals measured.
#[derive(Debug)]
pub struct Recovery {
    pub recover_s: f64,
    pub parse_ms: f64,
    pub tail_blocks: usize,
}

/// Recovers the service from the stored checkpoint and the salvaged
/// journals, the way a restarted process would, and audits the result
/// against the live service: state blobs, journals and arbitrated edge ids
/// identical.
pub fn recover(standing: &Standing, seed: u64, out: &mut Outcome) -> Recovery {
    let live = &standing.service;
    let text = load_checkpoint(standing.dir.join("checkpoint")).expect("the checkpoint was stored");
    let journals: Vec<String> = (0..SHARDS)
        .map(|k| FileJournal::salvage(journal_path(&standing.dir, k)).expect("journals salvage"))
        .collect();
    let t = Instant::now();
    let parsed = Checkpoint::parse(&text);
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    out.audit("recovery: the checkpoint parses", parsed.is_ok());
    let mut times = Vec::with_capacity(RECOVER_REPS);
    let mut recovered = None;
    for _ in 0..RECOVER_REPS {
        drop(recovered.take());
        let sinks: Vec<Box<dyn JournalSink>> = (0..SHARDS)
            .map(|_| Box::new(MemoryJournal::new()) as Box<dyn JournalSink>)
            .collect();
        let t = Instant::now();
        recovered = Some(ShardedService::recover(
            engines(seed),
            Box::new(HashPartitioner),
            &text,
            &journals,
            sinks,
        ));
        times.push(t.elapsed().as_secs_f64());
    }
    println!("# recover_s repetitions: {times:?}");
    let recover_s = report::fastest(&times);
    let tail_blocks = journals
        .iter()
        .zip(&standing.checkpoint_blocks)
        .map(|(j, covered)| io::journal_blocks(j).len().saturating_sub(*covered))
        .sum();
    match recovered.expect("at least one recovery") {
        Ok(recovered) => {
            for k in 0..SHARDS {
                out.audit(
                    "recovery: shard state equals the live one",
                    recovered.shard_state(k) == live.shard_state(k),
                );
                out.audit(
                    "recovery: shard journal equals the live one",
                    recovered.shard_journal(k) == live.shard_journal(k),
                );
            }
            out.audit(
                "recovery: arbitrated edges equal the live ones",
                recovered.snapshot().arbitrated_matching().edge_ids()
                    == live.snapshot().arbitrated_matching().edge_ids(),
            );
        }
        Err(e) => out.audit(&format!("recovery: recover failed: {e}"), false),
    }
    Recovery {
        recover_s,
        parse_ms,
        tail_blocks,
    }
}

/// Audits the live arbitrated view against the global graph rebuilt from
/// every shard's journal: conflict-free, valid and maximal.
pub fn audit_arbitrated(live: &ShardedService, out: &mut Outcome) {
    let mut graph = DynamicHypergraph::new(VERTICES + RESERVED);
    for k in 0..SHARDS {
        for batch in io::batches_from_string(&live.shard_journal(k)).expect("a live journal parses")
        {
            graph.apply_batch(batch.updates());
        }
    }
    let snapshot = live.snapshot();
    let arbitrated = snapshot.arbitrated_matching();
    let ids = arbitrated.edge_ids();
    out.audit(
        "arbitration: no conflicted vertex remains",
        arbitrated.conflicted_vertices().is_empty(),
    );
    out.audit(
        "arbitration: the arbitrated matching is valid on the global graph",
        verify_validity(&graph, &ids).is_ok(),
    );
    out.audit(
        "arbitration: the arbitrated matching is maximal on the global graph",
        verify_maximality(&graph, &ids).is_ok(),
    );
    out.set("retained", arbitrated.report().retained());
}

/// Records the checkpoint and recovery metrics.
pub fn set_recovery_metrics(out: &mut Outcome, standing: &Standing, recovery: &Recovery) {
    out.set("recover_s", recovery.recover_s);
    out.set("checkpoint.bytes", standing.checkpoint_bytes as f64);
    out.set("checkpoint.write_ms", standing.checkpoint_write_ms);
    out.set("recover.parse_ms", recovery.parse_ms);
    out.set(
        "recover.replay_ms",
        (recovery.recover_s * 1e3 - recovery.parse_ms).max(0.0),
    );
    out.set("recover.tail_blocks", recovery.tail_blocks as f64);
}
