//! `bulk-hyper`: the paper's batch-dynamic API on its own.
//!
//! A closed loop of 2048-update batches of rank-3 `random_churn` (n = 200k,
//! about 100k standing hyperedges, half inserts) through one
//! `EngineKind::Parallel` engine at `threads = nproc`.  Each batch is one
//! `validate` (the engine's legality check: the "ack") and one
//! `apply_batch_trusted` (the kernel: the "commit"); after it the caller
//! reads its result back with 64 `matched_edge_of` lookups.  The service,
//! sharding, net and checkpoint layers are bypassed.

use crate::report::{self, Outcome, SplitMix};
use crate::trace::{Tracer, ROOT};
use crate::{Run, RECOVER_REPS, SETUP_REPS};
use pdmm::hypergraph::streams;
use pdmm::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

const VERTICES: usize = 200_000;
const RANK: usize = 3;
const STANDING: usize = 100_000;
const BATCH: usize = 2048;
const INSERT_FRACTION: f64 = 0.5;
/// Lookups per read.
const LOOKUPS: usize = 64;
/// Batches generated per measured second: headroom over what the engine
/// commits (up to about 220 batches per second seen on a 2-vCPU host), so
/// the stream outlasts the phase.  A phase that exhausts it ends
/// early and its throughput is still exact.
const GENERATED_BATCHES_PER_S: f64 = 250.0;

fn builder(seed: u64, threads: usize) -> EngineBuilder {
    EngineBuilder::new(VERTICES)
        .rank(RANK)
        .seed(seed)
        .threads(threads)
}

/// Per-batch timings of one measured phase.
#[derive(Default)]
struct Phase {
    /// `(seconds since the phase began, updates)` per committed batch.
    done: Vec<(f64, f64)>,
    /// Seconds since the phase began at which each read finished.
    read_done: Vec<(f64, f64)>,
    /// Indices of batches `validate` refused (none on a healthy run).
    refused: Vec<usize>,
    batches: usize,
    updates: usize,
    ack_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    read_us: Vec<f64>,
    failed: u64,
    work: u64,
    depth: u64,
    rebuilds: u64,
}

/// Runs batches from `next` on until `seconds` pass or the stream ends.
/// Returns the phase and the index of the first batch it did not run.
fn measure(
    engine: &mut ParallelDynamicMatching,
    batches: &[UpdateBatch],
    next: usize,
    seconds: Duration,
    tracer: &mut Tracer,
    lookups: &mut SplitMix,
) -> (Phase, usize) {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = next;
    while i < batches.len() && start.elapsed() < seconds {
        let updates = batches[i].updates();
        let t0 = Instant::now();
        let proof = match engine.validate(updates) {
            Ok(proof) => proof,
            Err(_) => {
                phase.failed += 1;
                phase.refused.push(i);
                i += 1;
                continue;
            }
        };
        let t1 = Instant::now();
        let batch_report = engine.apply_batch_trusted(proof);
        let t2 = Instant::now();
        for _ in 0..LOOKUPS {
            let v = VertexId(lookups.below(VERTICES as u64) as u32);
            black_box(engine.matched_edge_of(v));
        }
        let t3 = Instant::now();
        let batch_id = i as u64;
        let apply = tracer.record("bulk.apply", ROOT, batch_id, t0, t2);
        tracer.record("engine.validate", apply, batch_id, t0, t1);
        tracer.record("engine.kernel", apply, batch_id, t1, t2);
        tracer.record("engine.read", ROOT, batch_id, t2, t3);
        phase.ack_ms.push((t1 - t0).as_secs_f64() * 1e3);
        phase.commit_ms.push((t2 - t0).as_secs_f64() * 1e3);
        phase.validate_ms.push((t1 - t0).as_secs_f64() * 1e3);
        phase.kernel_ms.push((t2 - t1).as_secs_f64() * 1e3);
        phase.read_us.push((t3 - t2).as_secs_f64() * 1e6);
        phase
            .done
            .push(((t2 - start).as_secs_f64(), updates.len() as f64));
        phase.read_done.push(((t3 - start).as_secs_f64(), 1.0));
        phase.batches += 1;
        phase.updates += updates.len();
        phase.work += batch_report.work;
        phase.depth += batch_report.depth;
        phase.rebuilds += u64::from(batch_report.rebuilt);
        i += 1;
    }
    (phase, i)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let generated = (run.seconds.as_secs_f64() * GENERATED_BATCHES_PER_S).ceil() as usize;

    // The measured stream is generated once, outside the set-up timer; its
    // resident size is taken off `peak_rss_mb`.
    let rss_before = report::rss_mb();
    let workload = streams::random_churn(
        VERTICES,
        RANK,
        STANDING,
        generated,
        BATCH,
        INSERT_FRACTION,
        run.seed,
    );
    let input_mb = report::rss_mb() - rss_before;
    let batches = &workload.batches;

    // Set-up: generate the standing graph and preload it, repeated.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition before building the next.
        drop(prepared.take());
        let t = Instant::now();
        let standing = streams::random_churn(
            VERTICES,
            RANK,
            STANDING,
            0,
            BATCH,
            INSERT_FRACTION,
            run.seed,
        );
        let mut engine = ParallelDynamicMatching::from_builder(&builder(run.seed, run.nproc));
        let preload = engine.apply_batch(standing.batches[0].updates());
        setup_s.push(t.elapsed().as_secs_f64());
        out.audit("bulk-hyper: preload batch applies", preload.is_ok());
        out.audit(
            "bulk-hyper: the preloaded graph is the stream's first batch",
            standing.batches[0] == batches[0],
        );
        prepared = Some(engine);
    }
    let mut engine = prepared.expect("at least one set-up");
    out.set("setup_s", report::median(&setup_s));

    let origin = Instant::now();
    let mut lookups = SplitMix::new(run.seed ^ 0x5EED);
    let mut untraced = Tracer::new(origin, false);
    let core_before = engine.epoch_metrics().clone();
    let (plain, next) = measure(
        &mut engine,
        batches,
        1,
        run.phase(),
        &mut untraced,
        &mut lookups,
    );
    // Sampled before any audit, twin or restore allocates.
    out.set("peak_rss_mb", report::peak_rss_mb() - input_mb);
    let mut tracer = Tracer::new(origin, true);
    let traced = run.trace.then(|| {
        let (phase, end) = measure(
            &mut engine,
            batches,
            next,
            run.phase(),
            &mut tracer,
            &mut lookups,
        );
        (phase, end)
    });
    let core_after = engine.epoch_metrics().clone();
    let end = traced.as_ref().map_or(next, |(_, end)| *end);
    let runs: Vec<&Phase> = std::iter::once(&plain)
        .chain(traced.as_ref().map(|(p, _)| p))
        .collect();
    let refused: Vec<usize> = runs
        .iter()
        .flat_map(|p| p.refused.iter().copied())
        .collect();
    let committed: Vec<&UpdateBatch> = batches[..end]
        .iter()
        .enumerate()
        .filter(|(i, _)| !refused.contains(i))
        .map(|(_, batch)| batch)
        .collect();
    out.attempted = runs.iter().map(|p| (p.batches as u64) + p.failed).sum();
    out.failed += runs.iter().map(|p| p.failed).sum::<u64>();

    // Audits: valid and maximal on the rebuilt graph, and bit-identical to a
    // one-thread twin fed the same batches (which also times the kernel at
    // one thread for the speed-up figure).
    let ids = {
        let mut ids = engine.matching_ids();
        ids.sort_unstable();
        ids
    };
    let mut graph = DynamicHypergraph::new(VERTICES);
    for batch in &committed {
        graph.apply_batch(batch.updates());
    }
    out.audit(
        "bulk-hyper: matching is valid on the rebuilt graph",
        verify_validity(&graph, &ids).is_ok(),
    );
    out.audit(
        "bulk-hyper: matching is maximal on the rebuilt graph",
        verify_maximality(&graph, &ids).is_ok(),
    );
    drop(graph);
    let mut twin = ParallelDynamicMatching::from_builder(&builder(run.seed, 1));
    let mut twin_kernel_ms = Vec::with_capacity(end);
    let mut twin_ok = twin.apply_batch(committed[0].updates()).is_ok();
    for batch in &committed[1..] {
        let Ok(proof) = twin.validate(batch.updates()) else {
            twin_ok = false;
            break;
        };
        let t = Instant::now();
        twin.apply_batch_trusted(proof);
        twin_kernel_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let live_state = engine.save_state();
    out.audit(
        "bulk-hyper: state is bit-identical to a one-thread twin",
        twin_ok && live_state.is_some() && twin.save_state() == live_state,
    );
    drop(twin);

    // Recovery of a bare engine: serialize its state, restore a fresh one.
    let t = Instant::now();
    let blob = engine
        .save_state()
        .expect("the parallel engine serializes its state");
    let write_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut recover_times = Vec::with_capacity(RECOVER_REPS);
    for _ in 0..RECOVER_REPS {
        let mut restored = ParallelDynamicMatching::from_builder(&builder(run.seed, run.nproc));
        let t = Instant::now();
        let restore = restored.restore_state(&blob);
        recover_times.push(t.elapsed().as_secs_f64());
        out.audit(
            "bulk-hyper: restored engine equals the live one",
            restore.is_ok() && restored.save_state().as_deref() == Some(blob.as_str()),
        );
    }
    println!("# recover_s repetitions: {recover_times:?}");
    let recover_s = report::fastest(&recover_times);

    // End-to-end metrics come from the untraced phase.
    out.set("updates_per_s", report::rate(&plain.done));
    out.set_timed(
        "commit_p50_ms",
        report::median(&plain.commit_ms),
        plain.batches,
    );
    out.set_timed(
        "commit_p99_ms",
        report::percentile(&plain.commit_ms, 0.99),
        plain.batches,
    );
    out.set_timed("ack_p50_ms", report::median(&plain.ack_ms), plain.batches);
    out.set_timed(
        "ack_p99_ms",
        report::percentile(&plain.ack_ms, 0.99),
        plain.batches,
    );
    out.set("reads_per_s", report::rate(&plain.read_done));
    out.set_timed(
        "read_p50_us",
        report::median(&plain.read_us),
        plain.read_us.len(),
    );
    out.set_timed(
        "read_p99_us",
        report::percentile(&plain.read_us, 0.99),
        plain.read_us.len(),
    );
    out.set("recover_s", recover_s);
    // One engine: nothing to arbitrate, the whole matching is kept.
    out.set("retained", 1.0);

    if let Some((phase, _)) = traced {
        let all_kernel: Vec<f64> = plain
            .kernel_ms
            .iter()
            .chain(&phase.kernel_ms)
            .copied()
            .collect();
        out.set_timed(
            "engine.kernel_p50_ms",
            report::median(&phase.kernel_ms),
            phase.batches,
        );
        out.set_timed(
            "engine.kernel_p99_ms",
            report::percentile(&phase.kernel_ms, 0.99),
            phase.batches,
        );
        out.set_timed(
            "engine.validate_us",
            report::median(&phase.validate_ms) * 1e3,
            phase.batches,
        );
        let updates = phase.updates.max(1) as f64;
        out.set("engine.work_per_update", phase.work as f64 / updates);
        out.set(
            "engine.depth_per_batch",
            phase.depth as f64 / phase.batches.max(1) as f64,
        );
        out.set("engine.rebuilds", (plain.rebuilds + phase.rebuilds) as f64);
        let batches_run = (plain.batches + phase.batches).max(1) as f64;
        let updates_run = (plain.updates + phase.updates).max(1) as f64;
        out.set(
            "core.settle_iterations_per_batch",
            (core_after.settle_iterations - core_before.settle_iterations) as f64 / batches_run,
        );
        out.set(
            "core.luby_iterations",
            (core_after.luby_iterations - core_before.luby_iterations) as f64,
        );
        out.set(
            "core.temp_deletions_per_update",
            (core_after.temp_deletions - core_before.temp_deletions) as f64 / updates_run,
        );
        out.set(
            "core.reinsertions_per_update",
            (core_after.reinsertions - core_before.reinsertions) as f64 / updates_run,
        );
        let live_kernel: f64 = all_kernel.iter().sum();
        let twin_kernel: f64 = twin_kernel_ms.iter().sum();
        out.set(
            "core.speedup_threads",
            twin_kernel / live_kernel.max(f64::MIN_POSITIVE),
        );

        // The commit is validate + kernel; their self times plus the residual
        // of the enclosing span reconcile against the untraced commit time.
        let stage_sum = report::mean(&tracer.self_times("engine.validate"))
            + report::mean(&tracer.self_times("engine.kernel"))
            + report::mean(&tracer.self_times("bulk.apply"));
        let untraced = report::mean(&plain.commit_ms);
        out.set("reconcile.stage_sum_ms", stage_sum);
        out.set("reconcile.untraced_ms", untraced);
        out.set("reconcile.error_frac", stage_sum / untraced - 1.0);
        out.set(
            "trace.overhead_frac",
            1.0 - report::rate(&phase.done) / report::rate(&plain.done),
        );
        out.bypassed(&["service.", "sharding.", "net."]);
        out.set("gen.late_p99_ms", 0.0);
        out.set("checkpoint.bytes", blob.len() as f64);
        out.set("checkpoint.write_ms", write_ms);
        // Restoring a bare engine is parsing its state; there is no journal
        // tail to replay.
        out.set("recover.parse_ms", recover_s * 1e3);
        out.set("recover.replay_ms", 0.0);
        out.set("recover.tail_blocks", 0.0);
        if let Err(e) = tracer.write_jsonl(&run.trace_file) {
            eprintln!("perfbench: cannot write {}: {e}", run.trace_file.display());
        }
    }
    out
}
