//! One benchmark for the pdmm matching service, end to end and layer by
//! layer.  See `README.md` in this directory for the workloads, the metrics
//! and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-hyper|serve-net|read-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result.  The exit code is 0
//! when the run completed, whether or not its audits passed (the result line
//! says `"correct": false` then), and 2 on a usage error.

mod bulk;
mod marker;
mod readmix;
mod report;
mod servenet;
mod sharded;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["bulk-hyper", "serve-net", "read-mix"];

/// Set-up is repeated this many times per run; the median is reported.
pub const SETUP_REPS: usize = 5;

/// Recovery is repeated this many times per run; the fastest is reported.
pub const RECOVER_REPS: usize = 5;

impl Run {
    /// Length of each measured phase.  An untraced run measures one phase
    /// of `--seconds`; a traced run splits the same time into an untraced
    /// phase and a traced one, so both kinds of run cost the same.
    pub fn phase(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of one measured phase.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Scratch directory of this run (journals, checkpoints); removed at
    /// the end.
    pub dir: PathBuf,
    /// Where the traced run writes its spans (JSON lines).
    pub trace_file: PathBuf,
}

fn usage(error: &str) -> ExitCode {
    eprintln!("perfbench: {error}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required, with a valid value");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let root = PathBuf::from(".perfbench");
    let dir = root.join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let run = Run {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        nproc,
        dir,
        trace_file: root.join(format!("trace-{workload}-{seed}.jsonl")),
    };
    println!(
        "# perfbench workload={workload} seed={seed} seconds={seconds} trace={} nproc={nproc} rustc=\"{}\" rev={} profile={}",
        u8::from(trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let mut outcome = match workload.as_str() {
        "bulk-hyper" => bulk::run(&run),
        "serve-net" => servenet::run(&run),
        _ => readmix::run(&run),
    };
    // Traces are kept next to the scratch directory; everything else the run
    // wrote is removed.
    let _ = std::fs::remove_dir_all(&run.dir);
    outcome.set("ok_frac", outcome.ok_frac());
    // Untraced runs print the latency tails beside the end-to-end metrics;
    // the result line carries only the catalogue of the run's kind.
    let (human, catalogue) = if trace {
        (outcome.human(report::PER_LAYER), report::PER_LAYER)
    } else {
        let human = outcome.human(report::END_TO_END).and_then(|e2e| {
            outcome
                .human(&report::PER_LAYER[..report::TAILS])
                .map(|tails| e2e + &tails)
        });
        (human, report::END_TO_END)
    };
    let (human, line) = match human.and_then(|human| Ok((human, outcome.json(catalogue)?))) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for failure in &outcome.audit_failures {
        println!("# AUDIT FAILED: {failure}");
    }
    println!(
        "# attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    print!("{human}");
    println!("{line}");
    ExitCode::SUCCESS
}
