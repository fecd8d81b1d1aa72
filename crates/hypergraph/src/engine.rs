//! The engine layer: one API for every dynamic maximal-matching implementation.
//!
//! The experiments of the paper compare the parallel batch-dynamic algorithm
//! against static and sequential baselines under *identical* update streams.  This
//! module is the contract that makes that comparison honest: every implementation
//! in the workspace — the paper's algorithm (`pdmm-core`), the three sequential
//! baselines (`pdmm-seq-dynamic`), and the static-recompute adapter
//! (`pdmm-static`) — is driven through the [`MatchingEngine`] trait and
//! configured through the [`EngineBuilder`], so the harness, the conformance
//! tests, and user code all exercise exactly the same code paths.
//!
//! Design points:
//!
//! * **One batch pipeline** — every ingest path ends in the same two steps:
//!   [`MatchingEngine::validate`] mints a sealed [`ValidatedBatch`] proof, and
//!   [`MatchingEngine::apply_batch_trusted`] discharges it into the engine's
//!   [`MatchingEngine::run_kernel`].  [`MatchingEngine::apply_batch`] is those
//!   two steps back to back; the lossy [`MatchingEngine::apply_batch_lossy`]
//!   is one [`BatchLedger::sift`] followed by the same trusted apply.
//! * **Typed errors** — invalid batches (duplicate ids, rank violations, unknown
//!   deletions, out-of-range endpoints) return a [`BatchError`] instead of
//!   panicking, and an engine rejects the *whole* batch before mutating anything.
//! * **Zero-copy queries** — [`MatchingEngine::matching`] iterates the current
//!   matching straight out of the engine's internal tables ([`MatchingIter`]
//!   borrows the engine; no `Vec` is materialised unless the caller asks with
//!   [`MatchingEngine::matching_ids`]).

use crate::types::{EdgeId, Update, UpdateBatch, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A structurally invalid batch, rejected before any state was mutated.
///
/// The update model of §2 requires ids to be unique among live edges, deletions
/// to name pre-batch live edges, and every hyperedge to respect the configured
/// maximum rank and vertex range.  A batch violating any of these is refused as a
/// whole with the first violation found.
///
/// ```
/// use pdmm::engine::{self, BatchError, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// // Deleting an edge that was never inserted is a typed error, not a panic —
/// // and the engine is untouched (rejection is atomic).
/// let err = engine.apply_batch(&[Update::Delete(EdgeId(7))]).unwrap_err();
/// assert_eq!(err, BatchError::UnknownDeletion { id: EdgeId(7) });
/// assert_eq!(err.to_string(), "deletion of unknown edge e7");
/// assert_eq!(engine.matching_size(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// An insertion reuses the id of a live edge (or of an earlier insertion in
    /// the same batch).
    DuplicateEdgeId {
        /// The conflicting edge id.
        id: EdgeId,
    },
    /// An inserted hyperedge has more endpoints than the engine's configured
    /// maximum rank.
    RankExceeded {
        /// The offending edge id.
        id: EdgeId,
        /// Its rank.
        rank: usize,
        /// The configured maximum.
        max_rank: usize,
    },
    /// A deletion names an edge that was not live before the batch (deletions are
    /// processed before insertions, so an id inserted in the same batch does not
    /// count).
    UnknownDeletion {
        /// The unknown edge id.
        id: EdgeId,
    },
    /// The same edge id is deleted twice in one batch.
    DuplicateDeletion {
        /// The doubly-deleted edge id.
        id: EdgeId,
    },
    /// An inserted hyperedge has an endpoint outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending edge id.
        id: EdgeId,
        /// The out-of-range endpoint.
        vertex: VertexId,
        /// The engine's vertex-set size.
        num_vertices: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::DuplicateEdgeId { id } => {
                write!(f, "insertion reuses live edge id {id}")
            }
            BatchError::RankExceeded { id, rank, max_rank } => {
                write!(
                    f,
                    "edge {id} has rank {rank} > configured maximum {max_rank}"
                )
            }
            BatchError::UnknownDeletion { id } => {
                write!(f, "deletion of unknown edge {id}")
            }
            BatchError::DuplicateDeletion { id } => {
                write!(f, "edge {id} deleted twice in one batch")
            }
            BatchError::VertexOutOfRange {
                id,
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "edge {id} endpoint {vertex} out of range (n = {num_vertices})"
                )
            }
        }
    }
}

impl std::error::Error for BatchError {}

// ---------------------------------------------------------------------------
// Engine state serialization
// ---------------------------------------------------------------------------

/// Failure to restore an engine from a serialized state blob.
///
/// Produced by [`MatchingEngine::restore_state`].  The variants separate "this
/// blob belongs to a different world" (engine kind or configuration mismatch —
/// the checkpoint-staleness hazard) from "this blob is damaged" (corruption),
/// so recovery code can decide whether to refuse or to fall back to a full
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The engine does not implement state serialization.
    Unsupported {
        /// Name of the engine that refused.
        engine: &'static str,
    },
    /// The blob was saved by a different engine kind.
    EngineMismatch {
        /// Name of the engine asked to restore.
        expected: String,
        /// Engine name recorded in the blob.
        found: String,
    },
    /// The blob was saved under a different configuration (vertex count, rank
    /// bound, …) than the engine being restored.
    ConfigMismatch {
        /// Which configuration field disagrees.
        field: &'static str,
        /// The restoring engine's value.
        expected: String,
        /// The value recorded in the blob.
        found: String,
    },
    /// The engine has already applied batches; restore requires a freshly
    /// built one.
    NotFresh {
        /// Batches the engine has already applied.
        batches: u64,
    },
    /// The blob is malformed: truncated, un-parseable, or internally
    /// inconsistent.
    Corrupt {
        /// 1-based line number of the problem (0 when it concerns the blob as
        /// a whole, e.g. a failed post-restore invariant check).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Unsupported { engine } => {
                write!(f, "engine `{engine}` does not support state serialization")
            }
            StateError::EngineMismatch { expected, found } => {
                write!(
                    f,
                    "state blob was saved by engine `{found}`, not `{expected}`"
                )
            }
            StateError::ConfigMismatch {
                field,
                expected,
                found,
            } => {
                write!(
                    f,
                    "state blob disagrees on {field}: engine has {expected}, blob has {found}"
                )
            }
            StateError::NotFresh { batches } => {
                write!(
                    f,
                    "restore target must be freshly built, but it already applied {batches} batches"
                )
            }
            StateError::Corrupt { line, message } => {
                if *line == 0 {
                    write!(f, "corrupt state blob: {message}")
                } else {
                    write!(f, "corrupt state blob at line {line}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Why a repair-hook [`MatchingEngine::force_match`] call was refused.
///
/// The repair hook is the narrow write-half used by embedders (such as the
/// sharded boundary-arbitration layer's tests) to graft a single validated
/// edge into an engine's matching.  Every refusal is typed so callers can
/// distinguish "this engine cannot do that" from "that edge is not eligible
/// right now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// The engine does not implement the repair hook (the trait default).
    Unsupported {
        /// [`MatchingEngine::name`] of the refusing engine.
        engine: &'static str,
    },
    /// The edge id is not live in the engine's view of the graph.
    UnknownEdge {
        /// The unknown id.
        id: EdgeId,
    },
    /// The edge is already in the engine's matching.
    AlreadyMatched {
        /// The already-matched id.
        id: EdgeId,
    },
    /// An endpoint of the edge is already covered by a matched edge, so
    /// force-matching it would produce an invalid matching.
    EndpointMatched {
        /// The refused edge.
        id: EdgeId,
        /// The first already-covered endpoint.
        vertex: VertexId,
    },
    /// The engine is holding the edge aside (the parallel engine's
    /// temporarily-deleted `D(·)` parking of §3.3) and cannot force-match it
    /// without breaking its internal invariants.
    Parked {
        /// The parked id.
        id: EdgeId,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Unsupported { engine } => {
                write!(f, "engine `{engine}` does not support force-matching")
            }
            RepairError::UnknownEdge { id } => write!(f, "edge {id} is not live"),
            RepairError::AlreadyMatched { id } => write!(f, "edge {id} is already matched"),
            RepairError::EndpointMatched { id, vertex } => {
                write!(f, "endpoint {vertex} of edge {id} is already matched")
            }
            RepairError::Parked { id } => {
                write!(
                    f,
                    "edge {id} is temporarily deleted (parked) and cannot be matched"
                )
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Line-oriented cursor over a state blob.
///
/// Tracks 1-based line numbers so every parse failure names the offending
/// line in its [`StateError::Corrupt`].  All engine `restore_state`
/// implementations (and the checkpoint loader) parse through this, so
/// truncated or garbled blobs fail with a typed error instead of a panic.
#[derive(Debug)]
pub struct StateParser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> StateParser<'a> {
    /// Starts parsing `blob` from its first line.
    #[must_use]
    pub fn new(blob: &'a str) -> Self {
        StateParser {
            lines: blob.lines(),
            line_no: 0,
        }
    }

    /// A [`StateError::Corrupt`] pointing at the line most recently read.
    #[must_use]
    pub fn corrupt(&self, message: impl Into<String>) -> StateError {
        StateError::Corrupt {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The next line, or a corruption error if the blob ends early.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] at end of input.
    pub fn next_line(&mut self) -> Result<&'a str, StateError> {
        self.line_no += 1;
        self.lines.next().ok_or(StateError::Corrupt {
            line: self.line_no,
            message: "unexpected end of state".to_string(),
        })
    }

    /// The next line, which must be `tag` alone or `tag` followed by fields;
    /// returns the fields (trimmed, empty for a bare tag).
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if the blob ends or the line has another tag.
    pub fn tagged(&mut self, tag: &str) -> Result<&'a str, StateError> {
        let line = self.next_line()?;
        match line.strip_prefix(tag) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(rest.trim()),
            _ => Err(self.corrupt(format!("expected `{tag}` line, found `{line}`"))),
        }
    }

    /// Parses one whitespace-free token, naming `what` in the error.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if the token does not parse as `T`.
    pub fn parse_token<T: std::str::FromStr>(
        &self,
        token: &str,
        what: &str,
    ) -> Result<T, StateError> {
        token
            .parse()
            .map_err(|_| self.corrupt(format!("invalid {what} `{token}`")))
    }

    /// Splits `rest` into exactly `N` whitespace-separated tokens.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] on too few or too many fields.
    pub fn tokens<const N: usize>(&self, rest: &'a str) -> Result<[&'a str; N], StateError> {
        let mut it = rest.split_whitespace();
        let mut out = [""; N];
        for slot in &mut out {
            *slot = it
                .next()
                .ok_or_else(|| self.corrupt(format!("expected {N} fields")))?;
        }
        if it.next().is_some() {
            return Err(self.corrupt(format!("expected exactly {N} fields")));
        }
        Ok(out)
    }

    /// Asserts the blob is exhausted.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if any line remains.
    pub fn finish(mut self) -> Result<(), StateError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => {
                self.line_no += 1;
                Err(self.corrupt(format!("trailing data `{line}`")))
            }
        }
    }
}

/// Writes the `engine`/`n`/`rank` header every state blob starts with.
pub fn write_state_header(out: &mut String, name: &str, num_vertices: usize, max_rank: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "engine {name}");
    let _ = writeln!(out, "n {num_vertices}");
    let _ = writeln!(out, "rank {max_rank}");
}

/// Checks the common header against the restoring engine's identity.
///
/// # Errors
///
/// [`StateError::EngineMismatch`] on a foreign engine name,
/// [`StateError::ConfigMismatch`] on a different vertex count or rank bound,
/// [`StateError::Corrupt`] on a malformed header.
pub fn read_state_header(
    p: &mut StateParser<'_>,
    name: &str,
    num_vertices: usize,
    max_rank: usize,
) -> Result<(), StateError> {
    let found = p.tagged("engine")?;
    if found != name {
        return Err(StateError::EngineMismatch {
            expected: name.to_string(),
            found: found.to_string(),
        });
    }
    let n: usize = {
        let rest = p.tagged("n")?;
        p.parse_token(rest, "vertex count")?
    };
    if n != num_vertices {
        return Err(StateError::ConfigMismatch {
            field: "num_vertices",
            expected: num_vertices.to_string(),
            found: n.to_string(),
        });
    }
    let r: usize = {
        let rest = p.tagged("rank")?;
        p.parse_token(rest, "max rank")?
    };
    if r != max_rank {
        return Err(StateError::ConfigMismatch {
            field: "max_rank",
            expected: max_rank.to_string(),
            found: r.to_string(),
        });
    }
    Ok(())
}

/// Writes the uniform lifetime counters and the work/depth cost totals.
pub fn write_state_counters(out: &mut String, c: &UpdateCounters, work: u64, depth: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "counters {} {} {} {} {} {}",
        c.batches, c.updates, c.insertions, c.deletions, c.matched_deletions, c.rebuilds
    );
    let _ = writeln!(out, "cost {work} {depth}");
}

/// Reads back what [`write_state_counters`] wrote: `(counters, work, depth)`.
///
/// # Errors
///
/// [`StateError::Corrupt`] on malformed lines.
pub fn read_state_counters(
    p: &mut StateParser<'_>,
) -> Result<(UpdateCounters, u64, u64), StateError> {
    let rest = p.tagged("counters")?;
    let [b, u, i, d, m, r] = p.tokens(rest)?;
    let counters = UpdateCounters {
        batches: p.parse_token(b, "batch count")?,
        updates: p.parse_token(u, "update count")?,
        insertions: p.parse_token(i, "insertion count")?,
        deletions: p.parse_token(d, "deletion count")?,
        matched_deletions: p.parse_token(m, "matched-deletion count")?,
        rebuilds: p.parse_token(r, "rebuild count")?,
    };
    let rest = p.tagged("cost")?;
    let [w, dep] = p.tokens(rest)?;
    Ok((
        counters,
        p.parse_token(w, "work total")?,
        p.parse_token(dep, "depth total")?,
    ))
}

/// Writes an RNG stream position (16 ChaCha words plus the word index) as one
/// `rng` line.
pub fn write_state_rng(out: &mut String, words: [u32; 16], index: usize) {
    use std::fmt::Write as _;
    out.push_str("rng");
    for w in words {
        let _ = write!(out, " {w}");
    }
    let _ = writeln!(out, " {index}");
}

/// Reads back what [`write_state_rng`] wrote.
///
/// # Errors
///
/// [`StateError::Corrupt`] on a malformed line or an index above 16.
pub fn read_state_rng(p: &mut StateParser<'_>) -> Result<([u32; 16], usize), StateError> {
    let rest = p.tagged("rng")?;
    let toks: [&str; 17] = p.tokens(rest)?;
    let mut words = [0u32; 16];
    for (w, tok) in words.iter_mut().zip(&toks) {
        *w = p.parse_token(tok, "rng word")?;
    }
    let index: usize = p.parse_token(toks[16], "rng word index")?;
    if index > 16 {
        return Err(p.corrupt(format!("rng word index {index} out of range")));
    }
    Ok((words, index))
}

/// Writes the live edge set of `graph` in canonical (ascending id) order: an
/// `edges <count>` line followed by one `e <id> <endpoints…>` line per edge.
pub fn write_state_graph(out: &mut String, graph: &crate::graph::DynamicHypergraph) {
    use std::fmt::Write as _;
    let mut edges = graph.snapshot_edges();
    edges.sort_unstable_by_key(|e| e.id);
    let _ = writeln!(out, "edges {}", edges.len());
    for e in &edges {
        let _ = write!(out, "e {}", e.id.0);
        for v in e.vertices() {
            let _ = write!(out, " {}", v.0);
        }
        out.push('\n');
    }
}

/// Reads back what [`write_state_graph`] wrote, validating ids, ranks, and
/// vertex ranges so a damaged blob cannot panic the graph constructors.
///
/// # Errors
///
/// [`StateError::Corrupt`] on malformed or out-of-range edge lines.
pub fn read_state_graph(
    p: &mut StateParser<'_>,
    num_vertices: usize,
    max_rank: usize,
) -> Result<crate::graph::DynamicHypergraph, StateError> {
    let count: usize = {
        let rest = p.tagged("edges")?;
        p.parse_token(rest, "edge count")?
    };
    let mut graph = crate::graph::DynamicHypergraph::new(num_vertices);
    for _ in 0..count {
        let rest = p.tagged("e")?;
        let mut it = rest.split_whitespace();
        let id_tok = it.next().ok_or_else(|| p.corrupt("edge line without id"))?;
        let id = EdgeId(p.parse_token(id_tok, "edge id")?);
        if graph.contains_edge(id) {
            return Err(p.corrupt(format!("duplicate edge id {id}")));
        }
        let mut vertices = Vec::new();
        for tok in it {
            let v = VertexId(p.parse_token(tok, "vertex id")?);
            if v.index() >= num_vertices {
                return Err(p.corrupt(format!("vertex {v} out of range (n = {num_vertices})")));
            }
            vertices.push(v);
        }
        if vertices.is_empty() {
            return Err(p.corrupt(format!("edge {id} has no endpoints")));
        }
        if vertices.len() > max_rank {
            return Err(p.corrupt(format!(
                "edge {id} has rank {} > configured maximum {max_rank}",
                vertices.len()
            )));
        }
        graph.insert_edge(crate::types::HyperEdge::new(id, vertices));
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Reports and metrics
// ---------------------------------------------------------------------------

/// Summary of one successfully applied batch.
///
/// Every engine produces one through the shared
/// [`MatchingEngine::apply_batch_trusted`] pipeline, so the fields mean the
/// same thing regardless of which engine filled them in.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// let report = engine
///     .apply_batch(&[Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))])
///     .unwrap();
/// assert_eq!(report.batch_size, 1);
/// assert_eq!(report.matching_size, 1);
/// assert!(!report.rebuilt);
/// // The per-batch metrics delta is reported uniformly by every engine:
/// assert_eq!(report.metrics.batches, 1);
/// assert_eq!(report.metrics.insertions, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Number of updates in the batch.
    pub batch_size: usize,
    /// Parallel rounds (depth) spent on this batch.
    pub depth: u64,
    /// Work units spent on this batch.
    pub work: u64,
    /// How many of the deletions hit matched edges.
    pub matched_deletions: usize,
    /// Size of the matching after the batch.
    pub matching_size: usize,
    /// Whether this batch rebuilt the matching from scratch: an `N`-doubling
    /// rebuild for the parallel algorithm, every batch for the recompute
    /// engines, never for the incremental-repair baselines.
    pub rebuilt: bool,
    /// The exact [`EngineMetrics`] delta of this batch (lifetime metrics after
    /// the batch minus before).  `metrics.work`/`metrics.depth` equal the
    /// flat [`BatchReport::work`]/[`BatchReport::depth`] fields; the delta
    /// additionally carries the per-batch update/insertion/deletion/rebuild
    /// counts so all engines report uniformly.
    pub metrics: EngineMetrics,
}

/// Lifetime counters every engine can report uniformly.
///
/// Engine-specific metrics (the epoch statistics of §4.2, say) stay on the
/// concrete type; these are the fields the harness tables need from *any* engine.
///
/// ```
/// use pdmm_hypergraph::engine::EngineMetrics;
///
/// let metrics = EngineMetrics { updates: 100, work: 450, ..EngineMetrics::default() };
/// assert_eq!(metrics.work_per_update(), 4.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Batches applied.
    pub batches: u64,
    /// Individual updates applied.
    pub updates: u64,
    /// Insertions applied.
    pub insertions: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Deletions that hit a matched edge (the expensive case).
    pub matched_deletions: u64,
    /// Total work units (cost model).
    pub work: u64,
    /// Total depth in parallel rounds (cost model).
    pub depth: u64,
    /// Full matching rebuilds: `N`-doubling rebuilds for the parallel
    /// algorithm, one per batch for the recompute engines, always zero for
    /// the incremental-repair baselines.
    pub rebuilds: u64,
}

impl EngineMetrics {
    /// Amortized work per update.
    #[must_use]
    pub fn work_per_update(&self) -> f64 {
        self.work as f64 / self.updates.max(1) as f64
    }

    /// Field-wise difference between two metric snapshots (`self` taken after
    /// `earlier`).  [`MatchingEngine::apply_batch_trusted`] uses this to derive
    /// the per-batch delta reported in [`BatchReport::metrics`].
    ///
    /// ```
    /// use pdmm_hypergraph::engine::EngineMetrics;
    ///
    /// let before = EngineMetrics { batches: 2, work: 10, ..EngineMetrics::default() };
    /// let after = EngineMetrics { batches: 3, work: 45, ..EngineMetrics::default() };
    /// let delta = after.since(&before);
    /// assert_eq!(delta.batches, 1);
    /// assert_eq!(delta.work, 35);
    /// ```
    #[must_use]
    pub fn since(&self, earlier: &EngineMetrics) -> EngineMetrics {
        EngineMetrics {
            batches: self.batches.saturating_sub(earlier.batches),
            updates: self.updates.saturating_sub(earlier.updates),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            deletions: self.deletions.saturating_sub(earlier.deletions),
            matched_deletions: self
                .matched_deletions
                .saturating_sub(earlier.matched_deletions),
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
        }
    }

    /// Field-wise sum — the inverse of [`EngineMetrics::since`], for
    /// accumulating per-batch deltas back into totals.
    ///
    /// ```
    /// use pdmm_hypergraph::engine::EngineMetrics;
    ///
    /// let mut total = EngineMetrics { batches: 2, work: 10, ..EngineMetrics::default() };
    /// total.merge(&EngineMetrics { batches: 1, work: 35, ..EngineMetrics::default() });
    /// assert_eq!(total.batches, 3);
    /// assert_eq!(total.work, 45);
    /// ```
    pub fn merge(&mut self, delta: &EngineMetrics) {
        self.batches += delta.batches;
        self.updates += delta.updates;
        self.insertions += delta.insertions;
        self.deletions += delta.deletions;
        self.matched_deletions += delta.matched_deletions;
        self.work += delta.work;
        self.depth += delta.depth;
        self.rebuilds += delta.rebuilds;
    }
}

/// Per-batch update counters shared by the baseline engines, and the shape of
/// the per-batch delta [`MatchingEngine::apply_batch_trusted`] hands to
/// [`MatchingEngine::record_batch`].
///
/// (`pdmm-core` derives the same numbers from its richer §4.2 metrics.)
///
/// ```
/// use pdmm_hypergraph::engine::UpdateCounters;
///
/// let counters = UpdateCounters { batches: 2, updates: 10, ..UpdateCounters::default() };
/// let metrics = counters.into_metrics(40, 2);
/// assert_eq!(metrics.updates, 10);
/// assert_eq!(metrics.work, 40);
/// assert_eq!(metrics.rebuilds, 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateCounters {
    /// Batches applied.
    pub batches: u64,
    /// Individual updates applied.
    pub updates: u64,
    /// Insertions applied.
    pub insertions: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Deletions that hit a matched edge.
    pub matched_deletions: u64,
    /// Full matching rebuilds (every batch for the recompute engines, zero for
    /// the incremental-repair baselines).
    pub rebuilds: u64,
}

impl UpdateCounters {
    /// Folds the counters into an [`EngineMetrics`] with the given cost totals.
    #[must_use]
    pub fn into_metrics(self, work: u64, depth: u64) -> EngineMetrics {
        EngineMetrics {
            batches: self.batches,
            updates: self.updates,
            insertions: self.insertions,
            deletions: self.deletions,
            matched_deletions: self.matched_deletions,
            work,
            depth,
            rebuilds: self.rebuilds,
        }
    }

    /// Adds a per-batch delta (produced by
    /// [`MatchingEngine::apply_batch_trusted`]) into these lifetime counters.
    ///
    /// ```
    /// use pdmm_hypergraph::engine::UpdateCounters;
    ///
    /// let mut lifetime = UpdateCounters { batches: 1, updates: 4, ..UpdateCounters::default() };
    /// lifetime.merge(&UpdateCounters { batches: 1, updates: 3, rebuilds: 1, ..UpdateCounters::default() });
    /// assert_eq!(lifetime.batches, 2);
    /// assert_eq!(lifetime.updates, 7);
    /// assert_eq!(lifetime.rebuilds, 1);
    /// ```
    pub fn merge(&mut self, delta: &UpdateCounters) {
        self.batches += delta.batches;
        self.updates += delta.updates;
        self.insertions += delta.insertions;
        self.deletions += delta.deletions;
        self.matched_deletions += delta.matched_deletions;
        self.rebuilds += delta.rebuilds;
    }
}

/// One update refused by a skip-and-report (lossy) ingest, together with the
/// typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedUpdate {
    /// Position of the update in the submission order (counting every update
    /// offered, including deduplicated and rejected ones).
    pub index: usize,
    /// The refused update.
    pub update: Update,
    /// Why it was refused.
    pub error: BatchError,
}

/// Report of one skip-and-report (lossy) ingest: what was committed, what was
/// silently deduplicated, and what was rejected with which error.
///
/// Produced by [`MatchingEngine::apply_batch_lossy`] and the serve path's
/// lossy drains — the ingest-pipeline recovery path where a dirty stream must
/// not poison the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Report of the committed batch (the surviving subset of the updates).
    pub batch: BatchReport,
    /// Exact duplicates silently dropped by the sift (not errors).
    pub deduplicated: usize,
    /// Per-update rejections, in submission order.
    pub rejected: Vec<RejectedUpdate>,
}

impl IngestReport {
    /// Total updates offered: committed plus deduplicated plus rejected.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.batch.batch_size + self.deduplicated + self.rejected.len()
    }
}

// ---------------------------------------------------------------------------
// Zero-copy matching view
// ---------------------------------------------------------------------------

/// Borrowing iterator over the ids of the current matching.
///
/// Engines build it straight over their internal tables: the matching itself is
/// never copied into a `Vec`.  The one cost per `matching()` call is the small
/// `Box` holding the iterator — required because [`MatchingEngine`] must stay
/// usable as a trait object.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// engine
///     .apply_batch(&[Update::Insert(HyperEdge::pair(EdgeId(3), VertexId(0), VertexId(1)))])
///     .unwrap();
/// // Iterate without materialising a Vec:
/// assert_eq!(engine.matching().count(), 1);
/// assert!(engine.matching().all(|id| id == EdgeId(3)));
/// ```
pub struct MatchingIter<'a> {
    inner: Box<dyn Iterator<Item = EdgeId> + 'a>,
}

impl<'a> MatchingIter<'a> {
    /// Wraps an engine-internal iterator.
    pub fn new(inner: impl Iterator<Item = EdgeId> + 'a) -> Self {
        MatchingIter {
            inner: Box::new(inner),
        }
    }
}

impl Iterator for MatchingIter<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl fmt::Debug for MatchingIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MatchingIter")
    }
}

// ---------------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------------

/// A fully dynamic maximal-matching engine driven by update batches.
///
/// Implemented by the paper's parallel algorithm, all sequential baselines, and
/// the static-recompute adapter; the bench runner, the conformance suite, and the
/// examples are written against this trait only.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let builder = EngineBuilder::new(6).rank(2).seed(42);
/// let mut engine = engine::build(EngineKind::Parallel, &builder);
/// engine
///     .apply_batch(&[
///         Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
///         Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
///     ])
///     .unwrap();
/// engine.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
/// assert_eq!(engine.matching_size(), 1);
/// assert!(engine.contains_edge(EdgeId(1)));
/// assert_eq!(engine.metrics().updates, 3);
/// engine.verify().unwrap();
/// ```
pub trait MatchingEngine {
    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Number of vertices of the underlying hypergraph.
    fn num_vertices(&self) -> usize;

    /// Whether `v` belongs to this engine's vertex space (`0..num_vertices`).
    ///
    /// O(1).  This is the ownership query a routing layer asks per endpoint
    /// when deciding where an update belongs — e.g. the sharded serving
    /// layer's merge side ([`crate::sharding`]) bounds-checks vertices against
    /// a shard's engine through it without touching any engine table.
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.num_vertices()
    }

    /// Maximum rank accepted by [`MatchingEngine::apply_batch`].
    fn max_rank(&self) -> usize;

    /// Whether an edge with this id is currently live (from the adversary's point
    /// of view — edges the algorithm has only *temporarily* deleted are live).
    fn contains_edge(&self, id: EdgeId) -> bool;

    /// The engine's kernel: applies one validated, non-empty batch and
    /// restores maximality.
    ///
    /// The proof guarantees deletions name live edges and insertions carry
    /// fresh ids, so kernels never re-check legality.  Callers go through
    /// [`MatchingEngine::apply_batch_trusted`], which owns the bookkeeping
    /// around this call (empty-batch no-op, counters, [`BatchReport`]).
    fn run_kernel(&mut self, batch: ValidatedBatch<'_>) -> KernelOutcome;

    /// Folds a per-batch counter delta into the engine's lifetime counters
    /// (baselines: [`UpdateCounters::merge`]; the parallel algorithm updates
    /// its richer §4.2 metrics).
    fn record_batch(&mut self, delta: &UpdateCounters);

    /// Validates `updates` against this engine's live state and mints the
    /// [`ValidatedBatch`] proof — the one legality pass of the batch
    /// pipeline.  Discharge the proof with
    /// [`MatchingEngine::apply_batch_trusted`] before the engine changes.
    ///
    /// # Errors
    ///
    /// Returns the first violation in batch order; nothing was applied.
    fn validate<'u>(&self, updates: &'u [Update]) -> Result<ValidatedBatch<'u>, BatchError> {
        ValidatedBatch::new(
            updates,
            |id| self.contains_edge(id),
            self.max_rank(),
            self.num_vertices(),
        )
    }

    /// Applies one batch of simultaneous updates and restores maximality:
    /// [`MatchingEngine::validate`], then
    /// [`MatchingEngine::apply_batch_trusted`].
    ///
    /// Invalid batches are refused **atomically** with the first
    /// [`BatchError`] in batch order; the kernel only ever sees valid batches.
    ///
    /// # Errors
    ///
    /// Returns the first [`BatchError`] found in the batch; nothing was
    /// applied.
    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, BatchError> {
        let proven = self.validate(updates)?;
        Ok(self.apply_batch_trusted(proven))
    }

    /// Discharges a [`ValidatedBatch`] proof into the engine's kernel with
    /// **no** validation pass — the trusted half of the pipeline, and where
    /// every ingest path lands.
    ///
    /// * The empty batch is a true no-op: a report with `batch_size == 0`,
    ///   the current matching size, and a zeroed metrics delta, and **no**
    ///   lifetime counter is mutated.
    /// * [`BatchReport::metrics`] is the exact [`EngineMetrics`] delta of this
    ///   batch, so every engine reports its per-batch costs uniformly.
    ///
    /// Infallible by construction: the proof certifies the batch.  It is
    /// consumed, so one proof is discharged at most once.
    fn apply_batch_trusted(&mut self, batch: ValidatedBatch<'_>) -> BatchReport {
        let updates = batch.updates();
        if updates.is_empty() {
            return BatchReport {
                matching_size: self.matching_size(),
                ..BatchReport::default()
            };
        }
        let before = self.metrics();
        let outcome = self.run_kernel(batch);
        let insertions = updates.iter().filter(|u| u.is_insert()).count() as u64;
        self.record_batch(&UpdateCounters {
            batches: 1,
            updates: updates.len() as u64,
            insertions,
            deletions: updates.len() as u64 - insertions,
            matched_deletions: outcome.matched_deletions as u64,
            rebuilds: u64::from(outcome.rebuilt),
        });
        let metrics = self.metrics().since(&before);
        BatchReport {
            batch_size: updates.len(),
            depth: metrics.depth,
            work: metrics.work,
            matched_deletions: outcome.matched_deletions,
            matching_size: self.matching_size(),
            rebuilt: outcome.rebuilt,
            metrics,
        }
    }

    /// Applies the valid subset of `updates` as one batch, skipping (and
    /// reporting) invalid or duplicate updates instead of rejecting the whole
    /// batch — the ingest-pipeline recovery path.
    ///
    /// One [`BatchLedger::sift`] against the live engine splits the updates
    /// into kept, deduplicated (exact repeats) and rejected; the kept subset
    /// then goes through [`MatchingEngine::apply_batch_trusted`].  An input
    /// with no surviving updates commits the empty batch, which is a
    /// counter-neutral no-op.
    ///
    /// ```
    /// use pdmm::engine::{self, BatchError, EngineBuilder, EngineKind};
    /// use pdmm::prelude::*;
    ///
    /// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
    /// let report = engine.apply_batch_lossy(&[
    ///     Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
    ///     Update::Delete(EdgeId(7)), // unknown: skipped, not fatal
    /// ]);
    /// assert_eq!(report.batch.batch_size, 1);
    /// assert_eq!(report.rejected.len(), 1);
    /// assert_eq!(report.rejected[0].error, BatchError::UnknownDeletion { id: EdgeId(7) });
    /// assert_eq!(engine.matching_size(), 1);
    /// ```
    fn apply_batch_lossy(&mut self, updates: &[Update]) -> IngestReport {
        let sifted = BatchLedger::sift(
            updates.iter().cloned(),
            |u| self.contains_edge(u.edge_id()),
            self.max_rank(),
            self.num_vertices(),
        );
        let batch = self.apply_batch_trusted(ValidatedBatch::presealed(&sifted.kept));
        IngestReport {
            batch,
            deduplicated: sifted.deduplicated,
            rejected: sifted.rejected,
        }
    }

    /// Applies every batch of a workload in order.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first invalid batch.
    fn apply_all(&mut self, batches: &[UpdateBatch]) -> Result<Vec<BatchReport>, BatchError> {
        let mut reports = Vec::with_capacity(batches.len());
        for batch in batches {
            reports.push(self.apply_batch(batch)?);
        }
        Ok(reports)
    }

    /// The current matching, iterated zero-copy out of the engine's state.
    fn matching(&self) -> MatchingIter<'_>;

    /// Current matching size.
    fn matching_size(&self) -> usize {
        self.matching().count()
    }

    /// The current matching collected into a vector (allocating convenience).
    fn matching_ids(&self) -> Vec<EdgeId> {
        self.matching().collect()
    }

    /// Verifies the engine's internal invariants (at minimum: the matching is
    /// valid and maximal on the engine's view of the graph).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    fn verify(&mut self) -> Result<(), String>;

    /// Uniform lifetime counters.
    fn metrics(&self) -> EngineMetrics;

    /// Repair hook, read half: the engine's currently *free* (unmatched)
    /// vertices, sorted ascending — or `None` for engines that do not expose
    /// their free set (the default), in which case callers fall back to
    /// recomputing it from a matching snapshot.
    ///
    /// All five in-tree engines implement this; the default exists so narrow
    /// test engines keep compiling unchanged.
    fn free_vertices(&self) -> Option<Vec<VertexId>> {
        None
    }

    /// Repair hook, write half: grafts the live, currently-unmatched edge
    /// `id` into the matching, provided every endpoint is free.
    ///
    /// This is the narrow mutation used by embedders (e.g. boundary-
    /// arbitration tooling) to apply an externally validated repair without
    /// re-running a batch.  Engines must keep all internal invariants intact:
    /// after a successful call, [`MatchingEngine::verify`] still passes and
    /// the edge shows up in [`MatchingEngine::matching`].
    ///
    /// # Errors
    ///
    /// [`RepairError::Unsupported`] for engines without the hook (the
    /// default); otherwise a typed refusal naming exactly why `id` is not
    /// eligible ([`RepairError::UnknownEdge`], [`RepairError::AlreadyMatched`],
    /// [`RepairError::EndpointMatched`], or [`RepairError::Parked`]).  On
    /// error the engine is untouched.
    fn force_match(&mut self, id: EdgeId) -> Result<(), RepairError> {
        let _ = id;
        Err(RepairError::Unsupported {
            engine: self.name(),
        })
    }

    /// Serializes the engine's complete dynamic state as a canonical text
    /// blob, or `None` for engines without state serialization (the default).
    ///
    /// "Canonical" is a strong promise: the blob is a pure function of the
    /// engine's logical state, so two engines that reached the same state
    /// along different code paths — say, one recovered from a checkpoint and
    /// a clean twin that replayed the full history — produce *byte-identical*
    /// blobs.  The recovery tests lean on this to prove bit-exact recovery.
    fn save_state(&self) -> Option<String> {
        None
    }

    /// Restores state saved by [`MatchingEngine::save_state`] into this
    /// freshly built engine.
    ///
    /// The engine must have been built with the same configuration the blob
    /// was saved under and must not have applied any batches yet.  After a
    /// successful restore it behaves exactly as the saved engine would,
    /// including all future random draws.
    ///
    /// # Errors
    ///
    /// [`StateError::Unsupported`] for engines without state serialization
    /// (the default), [`StateError::NotFresh`] if this engine already applied
    /// batches, [`StateError::EngineMismatch`] / [`StateError::ConfigMismatch`]
    /// if the blob belongs to a different engine kind or configuration, and
    /// [`StateError::Corrupt`] if the blob is truncated, garbled, or
    /// internally inconsistent.  On error the engine is left untouched only
    /// for the mismatch/freshness variants; after `Corrupt` it must be
    /// discarded.
    fn restore_state(&mut self, blob: &str) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported {
            engine: self.name(),
        })
    }
}

// ---------------------------------------------------------------------------
// The shared batch pipeline
// ---------------------------------------------------------------------------

/// Process-lifetime count of per-update legality checks (see
/// [`validation_checks`]).
static VALIDATION_CHECKS: AtomicU64 = AtomicU64::new(0);

/// How many per-update legality checks this process has performed, lifetime.
///
/// Every legality decision in the workspace — [`validate_batch`], lossy
/// [`BatchLedger::sift`]s, [`crate::types::UpdateBatch`] construction, the
/// `io` parser, `net` admission — flows through the one
/// [`BatchLedger::check`] machine, which bumps this counter once per update
/// checked.  The counter is the observability hook behind the
/// single-validation guarantee: the serve path
/// ([`crate::service::EngineService::submit`] → `drain` or `drain_lossy`)
/// performs **exactly one** check per update, which the hot-path test suite
/// and the `hot_path` bench assert by differencing this counter around a run.
///
/// The counter is global and monotone (relaxed atomics; reads may interleave
/// with concurrent checks), so measure on a quiescent process or difference
/// within one thread of control.
#[must_use]
pub fn validation_checks() -> u64 {
    VALIDATION_CHECKS.load(AtomicOrdering::Relaxed)
}

/// Proof that a run of updates passed the full engine-context legality check
/// — the sealed handoff between the validation layer and the kernels.
///
/// A `ValidatedBatch` can only be minted by paying exactly one
/// [`BatchLedger`] pass: either through [`ValidatedBatch::new`] /
/// [`MatchingEngine::validate`] (whole-batch validation against a live
/// predicate) or — crate-internally — from the kept updates of a
/// [`BatchLedger::sift`] against the live engine.  The token inside is a
/// zero-sized sealed witness with a private constructor, so the *type
/// system*, not reviewer discipline, guarantees
/// [`MatchingEngine::run_kernel`] never sees an unvalidated update: there is
/// no way to construct the proof without running the validator.
///
/// The proof certifies validity **against the engine state at mint time**.
/// Discharge it before the engine changes (the in-tree callers mint and
/// discharge under one commit lock, with nothing in between).
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// let updates = vec![Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))];
/// let proof = engine.validate(&updates).unwrap();
/// assert_eq!(proof.len(), 1);
/// let report = engine.apply_batch_trusted(proof);
/// assert_eq!(report.matching_size, 1);
/// ```
///
/// The seal cannot be worked around — neither the struct nor its token can be
/// built by hand:
///
/// ```compile_fail
/// use pdmm_hypergraph::engine::ValidatedBatch;
/// use pdmm_hypergraph::types::Update;
/// let updates: Vec<Update> = Vec::new();
/// // ERROR: the proof field is private; validation cannot be skipped.
/// let forged = ValidatedBatch { updates: &updates[..] };
/// ```
///
/// … and a proof is consumed by its one discharge, so it cannot be replayed
/// into a kernel whose state it no longer describes:
///
/// ```compile_fail,E0382
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// let updates = vec![Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))];
/// let proof = engine.validate(&updates).unwrap();
/// engine.apply_batch_trusted(proof);
/// // ERROR: use of moved value — the proof was discharged above.
/// engine.apply_batch_trusted(proof);
/// ```
#[derive(Debug)]
pub struct ValidatedBatch<'a> {
    updates: &'a [Update],
    /// The sealed witness: only this module can produce one.
    _proof: ValidationToken,
}

/// Zero-sized sealed witness that a [`BatchLedger`] pass ran.  Its one field
/// is private, so no code outside `pdmm_hypergraph::engine` can construct it
/// — forging a [`ValidatedBatch`] is a compile error, not a code-review item.
///
/// ```compile_fail
/// use pdmm_hypergraph::engine::ValidationToken;
/// // ERROR: the field is private — proofs are minted, never forged.
/// let forged = ValidationToken { _sealed: () };
/// ```
#[derive(Debug)]
pub struct ValidationToken {
    _sealed: (),
}

impl<'a> ValidatedBatch<'a> {
    /// Mints the proof by running the one whole-batch validator
    /// ([`validate_batch`]) — the single legality pass the batch ever needs.
    ///
    /// # Errors
    ///
    /// Returns the first violation in batch order; no proof is minted.
    pub fn new(
        updates: &'a [Update],
        is_live: impl Fn(EdgeId) -> bool,
        max_rank: usize,
        num_vertices: usize,
    ) -> Result<Self, BatchError> {
        validate_batch(updates, is_live, max_rank, num_vertices)?;
        Ok(ValidatedBatch::presealed(updates))
    }

    /// Crate-internal mint for updates whose per-update checks already ran
    /// through the same [`BatchLedger`] machine against the live engine — the
    /// kept updates of a [`BatchLedger::sift`].  Callers must hold the
    /// invariant that a whole-batch [`validate_batch`] of `updates` would
    /// succeed (a sift's kept updates do: each was checked against the live
    /// engine and the ledger of the updates kept before it).
    pub(crate) fn presealed(updates: &'a [Update]) -> Self {
        ValidatedBatch {
            updates,
            _proof: ValidationToken { _sealed: () },
        }
    }

    /// The proven updates.
    #[must_use]
    pub fn updates(&self) -> &'a [Update] {
        self.updates
    }

    /// Number of updates in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// What an engine's kernel ([`MatchingEngine::run_kernel`]) reports back to
/// the batch pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelOutcome {
    /// Deletions in this batch that removed a matched edge.
    pub matched_deletions: usize,
    /// Whether the kernel rebuilt the matching from scratch (every batch for
    /// the recompute engines, `N`-doubling batches for the parallel
    /// algorithm, never for the incremental-repair baselines).
    pub rebuilt: bool,
}

/// Verdict of [`BatchLedger::check`] for an update that passed the shared
/// legality checks but repeats content the batch already contains.
///
/// Strict whole-batch validation ([`validate_batch`]) treats both variants as
/// errors; a lossy [`BatchLedger::sift`] deduplicates exact copies instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateCheck {
    /// Fresh and legal: record it and include it in the batch.
    Fresh,
    /// An insertion whose id was already inserted in this batch.  Strict
    /// validation turns this into [`BatchError::DuplicateEdgeId`]; a sift
    /// compares the two edges structurally and deduplicates exact copies.
    RepeatedInsert {
        /// The position passed to [`BatchLedger::record`] for the earlier
        /// insertion of this id.
        at: usize,
    },
    /// A deletion of an id this batch already deletes.  Strict validation
    /// turns this into [`BatchError::DuplicateDeletion`]; a sift
    /// deduplicates.
    RepeatedDelete,
}

/// The id-tracking state of one in-flight batch plus the per-update legality
/// rules of the §2 update model — the **single** validation machine behind
/// both [`validate_batch`] and the lossy [`BatchLedger::sift`], so the two
/// paths cannot drift (a differential property test pins them together).
///
/// The rules, per update kind:
///
/// * an insertion must respect the rank and vertex-range limits, and its id
///   must be fresh: not live before the batch (unless deleted earlier in the
///   batch) and not already inserted by the batch;
/// * a deletion must name a pre-batch live edge that the batch has not
///   already deleted; ids inserted by the batch itself cannot be deleted
///   (deletions are processed before insertions, §3.3), and a second
///   deletion of a delete-then-reinserted id is refused because one batch
///   cannot express delete/insert/delete.
///
/// ```
/// use pdmm_hypergraph::engine::{BatchLedger, UpdateCheck};
/// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
///
/// let live = |id: EdgeId| id == EdgeId(0);
/// let mut ledger = BatchLedger::new();
/// let delete = Update::Delete(EdgeId(0));
/// assert_eq!(ledger.check(&delete, live, 2, 10), Ok(UpdateCheck::Fresh));
/// ledger.record(&delete, 0);
/// // Deleting the same pre-batch edge again repeats batch content …
/// assert_eq!(ledger.check(&delete, live, 2, 10), Ok(UpdateCheck::RepeatedDelete));
/// // … while re-inserting its id after the deletion is fresh and legal (§3.3).
/// let reinsert = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(1), VertexId(2)));
/// assert_eq!(ledger.check(&reinsert, live, 2, 10), Ok(UpdateCheck::Fresh));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchLedger {
    /// Ids inserted so far, mapped to the position the caller recorded.
    inserted: FxHashMap<EdgeId, usize>,
    /// Ids deleted so far.
    deleted: FxHashSet<EdgeId>,
}

impl BatchLedger {
    /// An empty ledger: no updates recorded yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one update against the engine-level live predicate and
    /// everything recorded so far, without recording it.
    ///
    /// # Errors
    ///
    /// Returns the [`BatchError`] this update would trigger in a batch made of
    /// the recorded updates.
    pub fn check(
        &self,
        update: &Update,
        is_live: impl Fn(EdgeId) -> bool,
        max_rank: usize,
        num_vertices: usize,
    ) -> Result<UpdateCheck, BatchError> {
        // Every per-update legality decision in the workspace lands here, so
        // one relaxed bump gives an exact global check count — the hook the
        // single-validation tests and the `hot_path` bench difference.
        VALIDATION_CHECKS.fetch_add(1, AtomicOrdering::Relaxed);
        match update {
            Update::Insert(edge) => {
                if edge.rank() > max_rank {
                    return Err(BatchError::RankExceeded {
                        id: edge.id,
                        rank: edge.rank(),
                        max_rank,
                    });
                }
                if let Some(&v) = edge.vertices().iter().find(|v| v.index() >= num_vertices) {
                    return Err(BatchError::VertexOutOfRange {
                        id: edge.id,
                        vertex: v,
                        num_vertices,
                    });
                }
                if let Some(&at) = self.inserted.get(&edge.id) {
                    return Ok(UpdateCheck::RepeatedInsert { at });
                }
                if is_live(edge.id) && !self.deleted.contains(&edge.id) {
                    return Err(BatchError::DuplicateEdgeId { id: edge.id });
                }
                Ok(UpdateCheck::Fresh)
            }
            Update::Delete(id) => {
                if self.deleted.contains(id) {
                    // A second deletion of the same pre-batch edge.  If the id
                    // was re-inserted after the recorded deletion, this targets
                    // the *new* edge, which a single batch cannot express
                    // (deletions run first, §3.3) — a hard error either way
                    // for strict validation, and an error even for a sift.
                    return if self.inserted.contains_key(id) {
                        Err(BatchError::DuplicateDeletion { id: *id })
                    } else {
                        Ok(UpdateCheck::RepeatedDelete)
                    };
                }
                if self.inserted.contains_key(id) || !is_live(*id) {
                    return Err(BatchError::UnknownDeletion { id: *id });
                }
                Ok(UpdateCheck::Fresh)
            }
        }
    }

    /// Records a [`UpdateCheck::Fresh`] update at position `at` (a sift passes
    /// the kept index, whole-batch validation the batch index; the value is
    /// only echoed back through [`UpdateCheck::RepeatedInsert`]).
    pub fn record(&mut self, update: &Update, at: usize) {
        match update {
            Update::Insert(edge) => {
                self.inserted.insert(edge.id, at);
            }
            Update::Delete(id) => {
                self.deleted.insert(*id);
            }
        }
    }

    /// The lossy ledger pass: splits offered updates into kept, deduplicated
    /// and rejected with one [`BatchLedger::check`] per update.
    ///
    /// * a fresh, legal update is kept;
    /// * an exact repeat (the same deletion id, or an insertion structurally
    ///   equal to a kept one) is counted in [`Sifted::deduplicated`];
    /// * a conflicting repeat (two different edges under one id) or an
    ///   otherwise invalid update becomes a [`RejectedUpdate`] carrying the
    ///   error strict validation would report for it.
    ///
    /// `is_live(update)` answers whether the update's edge id is live before
    /// the batch: `|u| engine.contains_edge(u.edge_id())` against an engine,
    /// or [`Update::is_delete`] for the context-free rule (a deletion is
    /// assumed to name a live edge, an insertion a fresh id).  The kept
    /// updates pass [`validate_batch`] under the same predicate and limits.
    ///
    /// ```
    /// use pdmm_hypergraph::engine::{BatchError, BatchLedger};
    /// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
    ///
    /// let edge = |a, b| Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(a), VertexId(b)));
    /// let sifted = BatchLedger::sift(
    ///     vec![edge(0, 1), edge(0, 1), edge(2, 3), Update::Delete(EdgeId(9))],
    ///     |u| u.edge_id() == EdgeId(9),
    ///     2,
    ///     10,
    /// );
    /// assert_eq!(sifted.kept, vec![edge(0, 1), Update::Delete(EdgeId(9))]);
    /// assert_eq!(sifted.deduplicated, 1);
    /// assert_eq!(sifted.rejected[0].index, 2);
    /// assert_eq!(sifted.rejected[0].error, BatchError::DuplicateEdgeId { id: EdgeId(1) });
    /// ```
    #[must_use]
    pub fn sift(
        updates: impl IntoIterator<Item = Update>,
        is_live: impl Fn(&Update) -> bool,
        max_rank: usize,
        num_vertices: usize,
    ) -> Sifted {
        let mut ledger = BatchLedger::new();
        let mut sifted = Sifted::default();
        for (index, update) in updates.into_iter().enumerate() {
            let live = is_live(&update);
            let error = match ledger.check(&update, |_| live, max_rank, num_vertices) {
                Ok(UpdateCheck::Fresh) => {
                    ledger.record(&update, sifted.kept.len());
                    sifted.kept.push(update);
                    continue;
                }
                Ok(UpdateCheck::RepeatedInsert { at }) if sifted.kept[at] == update => {
                    sifted.deduplicated += 1;
                    continue;
                }
                Ok(UpdateCheck::RepeatedInsert { .. }) => BatchError::DuplicateEdgeId {
                    id: update.edge_id(),
                },
                Ok(UpdateCheck::RepeatedDelete) => {
                    sifted.deduplicated += 1;
                    continue;
                }
                Err(error) => error,
            };
            sifted.rejected.push(RejectedUpdate {
                index,
                update,
                error,
            });
        }
        sifted
    }
}

/// The three-way split a [`BatchLedger::sift`] produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sifted {
    /// The surviving updates, in submission order; together they form one
    /// valid batch.
    pub kept: Vec<Update>,
    /// Exact repeats dropped silently (not errors).
    pub deduplicated: usize,
    /// Per-update rejections, in submission order.
    pub rejected: Vec<RejectedUpdate>,
}

/// Validates a batch against the live-edge predicate of an engine.
///
/// Behind every [`MatchingEngine::validate`] (so all engines reject exactly
/// the same batches with exactly the same errors), and built on the same
/// [`BatchLedger`] machine as [`BatchLedger::sift`] so the strict and lossy
/// paths cannot drift.  `delete X` followed by `insert X` in one batch is
/// legal (deletions are processed first, §3.3); `insert X` followed by
/// `delete X` is not.
///
/// ```
/// use pdmm_hypergraph::engine::{validate_batch, BatchError};
/// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
///
/// let live = |id: EdgeId| id == EdgeId(0); // pretend edge 0 is live
/// let reinsert = vec![
///     Update::Delete(EdgeId(0)),
///     Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(1), VertexId(2))),
/// ];
/// assert_eq!(validate_batch(&reinsert, live, 2, 10), Ok(()));
/// assert_eq!(
///     validate_batch(&[Update::Delete(EdgeId(9))], live, 2, 10),
///     Err(BatchError::UnknownDeletion { id: EdgeId(9) })
/// );
/// ```
///
/// # Errors
///
/// Returns the first violation in batch order.
pub fn validate_batch(
    updates: &[Update],
    is_live: impl Fn(EdgeId) -> bool,
    max_rank: usize,
    num_vertices: usize,
) -> Result<(), BatchError> {
    let mut ledger = BatchLedger::new();
    for (at, update) in updates.iter().enumerate() {
        match ledger.check(update, &is_live, max_rank, num_vertices)? {
            UpdateCheck::Fresh => ledger.record(update, at),
            // A raw batch slice has no dedup pass: repeats are hard errors.
            UpdateCheck::RepeatedInsert { .. } => {
                return Err(BatchError::DuplicateEdgeId {
                    id: update.edge_id(),
                })
            }
            UpdateCheck::RepeatedDelete => {
                return Err(BatchError::DuplicateDeletion {
                    id: update.edge_id(),
                })
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Builder and engine registry
// ---------------------------------------------------------------------------

/// Uniform configuration for every engine, replacing the per-engine `Config`
/// constructors (`Config::for_graphs`, `with_defaults`, bare seeds, …).
///
/// ```
/// use pdmm_hypergraph::engine::EngineBuilder;
///
/// let builder = EngineBuilder::new(1_000)
///     .rank(3)
///     .seed(42)
///     .threads(8)
///     .capacity_hint(100_000)
///     .check_invariants(false);
/// assert_eq!(builder.max_rank, 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    /// Number of vertices of the hypergraph.
    pub num_vertices: usize,
    /// Maximum rank any inserted hyperedge may have (`α = 4·max_rank`).
    pub max_rank: usize,
    /// Seed for all engine randomness (oblivious-adversary model: streams must be
    /// generated independently of it).
    pub seed: u64,
    /// Thread budget for parallel engines (`None`: use the global pool).
    ///
    /// Engines with parallel phases turn this into an owned [`EnginePool`] at
    /// construction and run every batch on it, so the worker count is bounded
    /// end to end — this is what the E9 thread-scaling experiment varies.
    pub threads: Option<usize>,
    /// Expected total number of updates; sizes the `N` bound so early batches do
    /// not trigger rebuilds.
    pub capacity_hint: usize,
    /// Verify the full invariant set after every batch (expensive; tests only).
    pub check_invariants: bool,
}

impl EngineBuilder {
    /// A rank-2, seed-0 configuration on `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        EngineBuilder {
            num_vertices,
            max_rank: 2,
            seed: 0,
            threads: None,
            capacity_hint: 0,
            check_invariants: false,
        }
    }

    /// Sets the maximum hyperedge rank (must be ≥ 1).
    #[must_use]
    pub fn rank(mut self, max_rank: usize) -> Self {
        assert!(max_rank >= 1, "rank must be at least 1");
        self.max_rank = max_rank;
        self
    }

    /// Sets the randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread budget (the worker count of the engine's [`EnginePool`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the expected total number of updates.
    #[must_use]
    pub fn capacity_hint(mut self, updates: usize) -> Self {
        self.capacity_hint = updates;
        self
    }

    /// Enables or disables per-batch invariant checking.
    #[must_use]
    pub fn check_invariants(mut self, enabled: bool) -> Self {
        self.check_invariants = enabled;
        self
    }
}

// ---------------------------------------------------------------------------
// Engine-owned thread pools
// ---------------------------------------------------------------------------

/// The worker pool an engine runs its parallel phases on.
///
/// Built from [`EngineBuilder::threads`]: `Some(t)` owns a dedicated
/// work-stealing pool of `t` workers (shared by clones of this handle), `None`
/// delegates to the process-global pool.  Engines wrap each
/// [`MatchingEngine::run_kernel`] in [`EnginePool::install`], which makes the
/// bounded pool ambient for every
/// parallel primitive beneath it (prefix sums, compaction, the parallel
/// dictionary, Luby matching, …).
///
/// ```
/// use pdmm_hypergraph::engine::{EngineBuilder, EnginePool};
///
/// let pool = EnginePool::from_builder(&EngineBuilder::new(10).threads(2));
/// assert_eq!(pool.num_threads(), Some(2));
/// // Parallel work inside `install` runs on (at most) the 2 bounded workers.
/// let sum = pool.install(|| (0..100u64).sum::<u64>());
/// assert_eq!(sum, 4950);
///
/// // Without a thread budget the global pool is used.
/// let ambient = EnginePool::from_builder(&EngineBuilder::new(10));
/// assert_eq!(ambient.num_threads(), None);
/// assert_eq!(ambient.install(|| 7), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnginePool {
    pool: Option<Arc<rayon::ThreadPool>>,
}

impl EnginePool {
    /// The pool an [`EngineBuilder`] describes.
    ///
    /// # Panics
    ///
    /// Panics if the underlying thread pool cannot be constructed (the
    /// in-tree pool never fails to build).
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        EnginePool {
            pool: builder.threads.map(|threads| {
                Arc::new(
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads.max(1))
                        .build()
                        .expect("engine thread pool construction failed"),
                )
            }),
        }
    }

    /// The bounded worker count, or `None` when delegating to the global pool.
    #[must_use]
    pub fn num_threads(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.current_num_threads())
    }

    /// Runs `op` with this pool ambient: on the bounded pool's workers if one
    /// was configured, else in place (global pool for any parallel calls).
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }
}

/// The engines the workspace ships; the facade's `pdmm::engine::build` turns a
/// kind plus an [`EngineBuilder`] into a boxed [`MatchingEngine`].
///
/// ```
/// use pdmm_hypergraph::engine::EngineKind;
///
/// assert_eq!(EngineKind::ALL.len(), 5);
/// assert_eq!(EngineKind::Parallel.to_string(), "parallel-dynamic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's parallel batch-dynamic algorithm (`pdmm-core`).
    Parallel,
    /// One-update-at-a-time greedy repair (§3.1 strawman).
    NaiveSequential,
    /// Sequential repair with uniformly random replacement choices.
    RandomReplace,
    /// Recompute with the parallel static matcher after every batch.
    RecomputeSequential,
    /// Recompute with the sequential greedy scan after every batch
    /// (the static adapter over `pdmm-static`).
    StaticRecompute,
}

impl EngineKind {
    /// Every engine kind, in the order the experiment tables list them.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Parallel,
        EngineKind::NaiveSequential,
        EngineKind::RandomReplace,
        EngineKind::RecomputeSequential,
        EngineKind::StaticRecompute,
    ];

    /// The engine's stable display name (matches [`MatchingEngine::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Parallel => "parallel-dynamic",
            EngineKind::NaiveSequential => "naive-sequential",
            EngineKind::RandomReplace => "random-replace-sequential",
            EngineKind::RecomputeSequential => "recompute-from-scratch",
            EngineKind::StaticRecompute => "static-recompute",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DynamicHypergraph;
    use crate::matching::{greedy_maximal_matching, verify_maximality};
    use crate::types::HyperEdge;

    /// Minimal reference engine: replay the graph, recompute greedily.  Exercises
    /// the trait's provided pipeline methods without pulling in the real
    /// engines (which live in downstream crates).
    struct ToyEngine {
        graph: DynamicHypergraph,
        matching: Vec<EdgeId>,
        counters: UpdateCounters,
    }

    impl ToyEngine {
        fn new(num_vertices: usize) -> Self {
            ToyEngine {
                graph: DynamicHypergraph::new(num_vertices),
                matching: Vec::new(),
                counters: UpdateCounters::default(),
            }
        }
    }

    impl MatchingEngine for ToyEngine {
        fn name(&self) -> &'static str {
            "toy-recompute"
        }

        fn num_vertices(&self) -> usize {
            self.graph.num_vertices()
        }

        fn max_rank(&self) -> usize {
            3
        }

        fn contains_edge(&self, id: EdgeId) -> bool {
            self.graph.contains_edge(id)
        }

        fn run_kernel(&mut self, batch: ValidatedBatch<'_>) -> KernelOutcome {
            let updates = batch.updates();
            let matched: FxHashSet<EdgeId> = self.matching.iter().copied().collect();
            let matched_deletions = updates
                .iter()
                .filter(|u| matches!(u, Update::Delete(id) if matched.contains(id)))
                .count();
            self.graph.apply_batch(updates);
            self.matching = greedy_maximal_matching(&self.graph);
            KernelOutcome {
                matched_deletions,
                rebuilt: true,
            }
        }

        fn record_batch(&mut self, delta: &UpdateCounters) {
            self.counters.merge(delta);
        }

        fn matching(&self) -> MatchingIter<'_> {
            MatchingIter::new(self.matching.iter().copied())
        }

        fn verify(&mut self) -> Result<(), String> {
            verify_maximality(&self.graph, &self.matching).map_err(|e| format!("{e:?}"))
        }

        fn metrics(&self) -> EngineMetrics {
            self.counters.into_metrics(0, 0)
        }
    }

    fn pair(id: u64, a: u32, b: u32) -> HyperEdge {
        HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b))
    }

    #[test]
    fn apply_all_and_matching_defaults_work() {
        let mut engine = ToyEngine::new(6);
        let batches: Vec<UpdateBatch> = vec![
            UpdateBatch::new(vec![
                Update::Insert(pair(0, 0, 1)),
                Update::Insert(pair(1, 2, 3)),
            ])
            .unwrap(),
            UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap(),
            UpdateBatch::new(vec![Update::Insert(pair(2, 1, 4))]).unwrap(),
        ];
        let reports = engine.apply_all(&batches).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(engine.name(), "toy-recompute");
        assert_eq!(engine.matching_size(), engine.matching_ids().len());
        assert_eq!(engine.metrics().batches, 3);
        engine.verify().unwrap();
    }

    #[test]
    fn validate_batch_catches_every_error_kind() {
        let live = |id: EdgeId| id == EdgeId(7);
        let ok = validate_batch(&[Update::Delete(EdgeId(7))], live, 2, 10);
        assert_eq!(ok, Ok(()));

        assert_eq!(
            validate_batch(&[Update::Delete(EdgeId(9))], live, 2, 10),
            Err(BatchError::UnknownDeletion { id: EdgeId(9) })
        );
        assert_eq!(
            validate_batch(
                &[Update::Delete(EdgeId(7)), Update::Delete(EdgeId(7))],
                live,
                2,
                10
            ),
            Err(BatchError::DuplicateDeletion { id: EdgeId(7) })
        );
        assert_eq!(
            validate_batch(&[Update::Insert(pair(7, 0, 1))], live, 2, 10),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(7) })
        );
        assert_eq!(
            validate_batch(
                &[Update::Insert(pair(1, 0, 1)), Update::Insert(pair(1, 2, 3)),],
                live,
                2,
                10
            ),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(1) })
        );
        assert_eq!(
            validate_batch(
                &[Update::Insert(HyperEdge::new(
                    EdgeId(1),
                    vec![VertexId(0), VertexId(1), VertexId(2)]
                ))],
                live,
                2,
                10
            ),
            Err(BatchError::RankExceeded {
                id: EdgeId(1),
                rank: 3,
                max_rank: 2
            })
        );
        assert_eq!(
            validate_batch(&[Update::Insert(pair(1, 0, 99))], live, 2, 10),
            Err(BatchError::VertexOutOfRange {
                id: EdgeId(1),
                vertex: VertexId(99),
                num_vertices: 10
            })
        );
        // delete X then insert X in one batch is legal (§3.3 ordering) …
        assert_eq!(
            validate_batch(
                &[Update::Delete(EdgeId(7)), Update::Insert(pair(7, 0, 1))],
                live,
                2,
                10
            ),
            Ok(())
        );
        // … but insert X then delete X is not.
        assert_eq!(
            validate_batch(
                &[Update::Insert(pair(1, 0, 1)), Update::Delete(EdgeId(1))],
                live,
                2,
                10
            ),
            Err(BatchError::UnknownDeletion { id: EdgeId(1) })
        );
    }

    #[test]
    fn sift_keeps_dedups_and_rejects() {
        let mut engine = ToyEngine::new(6);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();

        let report = engine.apply_batch_lossy(&[
            Update::Insert(pair(1, 2, 3)), // kept
            Update::Insert(pair(1, 2, 3)), // exact duplicate insertion: dropped
            Update::Insert(pair(1, 4, 5)), // conflicting insertion under the same id
            Update::Delete(EdgeId(0)),     // deleting the live edge works …
            Update::Delete(EdgeId(0)),     // … and deleting it again dedups
            // Deleting an edge only inserted by this batch: refused (§3.3).
            Update::Delete(EdgeId(1)),
            // Oversized and out-of-range edges: refused before the kernel.
            Update::Insert(HyperEdge::new(EdgeId(9), (0..4).map(VertexId).collect())),
            Update::Insert(pair(9, 0, 77)),
        ]);
        let errors: Vec<(usize, BatchError)> = report
            .rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(
            errors[0],
            (2, BatchError::DuplicateEdgeId { id: EdgeId(1) })
        );
        assert_eq!(
            errors[1],
            (5, BatchError::UnknownDeletion { id: EdgeId(1) })
        );
        assert!(matches!(errors[2], (6, BatchError::RankExceeded { .. })));
        assert!(matches!(
            errors[3],
            (7, BatchError::VertexOutOfRange { .. })
        ));
        assert_eq!(errors.len(), 4);
        assert_eq!(report.deduplicated, 2);
        assert_eq!(report.batch.batch_size, 2);
        assert_eq!(engine.matching_ids(), vec![EdgeId(1)]);
        engine.verify().unwrap();
    }

    #[test]
    fn sift_rejects_delete_of_a_reinserted_id() {
        let mut engine = ToyEngine::new(4);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();
        let report = engine.apply_batch_lossy(&[
            Update::Delete(EdgeId(0)),
            // Legal delete-then-reinsert of the same id.
            Update::Insert(pair(0, 2, 3)),
            // Deleting id 0 again targets the re-inserted edge; one batch cannot
            // express delete/insert/delete, so this must be an error — not a
            // silent dedup that would drop the caller's request.
            Update::Delete(EdgeId(0)),
        ]);
        assert_eq!(report.batch.batch_size, 2);
        assert_eq!(report.deduplicated, 0);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(
            report.rejected[0].error,
            BatchError::DuplicateDeletion { id: EdgeId(0) }
        );
        assert!(engine.contains_edge(EdgeId(0)));
    }

    #[test]
    fn successive_lossy_applies_validate_against_the_new_state() {
        let mut engine = ToyEngine::new(6);
        // Deleting an id inserted by the same batch: refused.
        let first = engine.apply_batch_lossy(&[
            Update::Insert(pair(0, 0, 1)),
            Update::Insert(pair(1, 2, 3)),
            Update::Delete(EdgeId(0)),
        ]);
        assert_eq!(first.batch.batch_size, 2);
        assert_eq!(
            first.rejected[0].error,
            BatchError::UnknownDeletion { id: EdgeId(0) }
        );

        // After the commit the edges are live: re-offering a committed id is a
        // rejection (not a dedup), the deletion now survives, an exact dup of
        // a newly kept update still dedups, and indexes count every offer of
        // this call.
        let second = engine.apply_batch_lossy(&[
            Update::Insert(pair(1, 2, 3)), // 0: live id now
            Update::Delete(EdgeId(0)),     // 1: kept
            Update::Insert(pair(2, 4, 5)), // 2: kept
            Update::Insert(pair(2, 4, 5)), // 3: exact dup
            Update::Delete(EdgeId(9)),     // 4: unknown
        ]);
        let got: Vec<(usize, BatchError)> = second
            .rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, BatchError::DuplicateEdgeId { id: EdgeId(1) }),
                (4, BatchError::UnknownDeletion { id: EdgeId(9) }),
            ]
        );
        assert_eq!(second.deduplicated, 1);
        assert_eq!(second.batch.batch_size, 2);

        // Nothing surviving is the empty-batch no-op.
        let metrics_before = engine.metrics();
        let empty = engine.apply_batch_lossy(&[Update::Delete(EdgeId(0))]);
        assert_eq!(empty.batch.batch_size, 0);
        assert_eq!(empty.batch.matching_size, 2);
        assert_eq!(engine.metrics(), metrics_before);
        assert_eq!(engine.metrics().batches, 2, "empty commit was a no-op");
        engine.verify().unwrap();
    }

    #[test]
    fn lossy_apply_of_clean_chunks_matches_apply_batch() {
        let chunks: Vec<Vec<Update>> = vec![
            vec![Update::Insert(pair(0, 0, 1)), Update::Insert(pair(1, 2, 3))],
            vec![Update::Delete(EdgeId(0)), Update::Insert(pair(2, 1, 4))],
            vec![Update::Delete(EdgeId(2))],
        ];
        let mut via_lossy = ToyEngine::new(6);
        let lossy_reports: Vec<BatchReport> = chunks
            .iter()
            .map(|chunk| via_lossy.apply_batch_lossy(chunk).batch)
            .collect();

        let mut via_apply = ToyEngine::new(6);
        let mut apply_reports = Vec::new();
        for chunk in &chunks {
            apply_reports.push(via_apply.apply_batch(chunk).unwrap());
        }
        assert_eq!(lossy_reports, apply_reports);
        assert_eq!(via_lossy.matching_ids(), via_apply.matching_ids());
        assert_eq!(via_lossy.metrics(), via_apply.metrics());
    }

    #[test]
    fn undischarged_proof_leaves_engine_untouched() {
        let mut engine = ToyEngine::new(4);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();
        // Mint a proof and let it go without discharging it.
        let updates = [Update::Delete(EdgeId(0))];
        assert_eq!(engine.validate(&updates).map(|proof| proof.len()), Ok(1));
        assert!(engine.contains_edge(EdgeId(0)));
        assert_eq!(engine.matching_size(), 1);
    }

    #[test]
    fn pipeline_works_through_a_trait_object() {
        let mut boxed: Box<dyn MatchingEngine> = Box::new(ToyEngine::new(4));
        let updates = [Update::Insert(pair(0, 0, 1)), Update::Insert(pair(1, 2, 3))];
        let proof = boxed.validate(&updates).unwrap();
        let report = boxed.apply_batch_trusted(proof);
        assert_eq!(report.matching_size, 2);
        let lossy = boxed.apply_batch_lossy(&[Update::Delete(EdgeId(0))]);
        assert_eq!(lossy.batch.matching_size, 1);
    }

    #[test]
    fn builder_defaults_and_setters() {
        let b = EngineBuilder::new(100);
        assert_eq!(b.num_vertices, 100);
        assert_eq!(b.max_rank, 2);
        assert_eq!(b.seed, 0);
        assert_eq!(b.threads, None);
        assert!(!b.check_invariants);
        let b = b
            .rank(4)
            .seed(9)
            .threads(2)
            .capacity_hint(50)
            .check_invariants(true);
        assert_eq!(b.max_rank, 4);
        assert_eq!(b.seed, 9);
        assert_eq!(b.threads, Some(2));
        assert_eq!(b.capacity_hint, 50);
        assert!(b.check_invariants);
    }

    #[test]
    fn engine_kinds_have_stable_names() {
        assert_eq!(EngineKind::ALL.len(), 5);
        let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "parallel-dynamic",
                "naive-sequential",
                "random-replace-sequential",
                "recompute-from-scratch",
                "static-recompute",
            ]
        );
        assert_eq!(EngineKind::Parallel.to_string(), "parallel-dynamic");
    }

    #[test]
    fn empty_batch_is_a_counter_neutral_noop() {
        let mut engine = ToyEngine::new(4);
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report, BatchReport::default());
        assert_eq!(engine.metrics(), EngineMetrics::default());

        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();
        let before = engine.metrics();
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report.batch_size, 0);
        assert_eq!(report.matching_size, 1, "reports the current matching");
        assert_eq!(report.metrics, EngineMetrics::default());
        assert_eq!(engine.metrics(), before, "empty batch mutated counters");
    }

    #[test]
    fn scaffold_reports_per_batch_metric_deltas() {
        let mut engine = ToyEngine::new(6);
        let r1 = engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1)), Update::Insert(pair(1, 2, 3))])
            .unwrap();
        assert_eq!(r1.metrics.batches, 1);
        assert_eq!(r1.metrics.updates, 2);
        assert_eq!(r1.metrics.insertions, 2);
        assert_eq!(r1.metrics.deletions, 0);
        assert_eq!(r1.metrics.rebuilds, 1, "the toy engine rebuilds per batch");
        assert!(r1.rebuilt);
        let r2 = engine.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
        assert_eq!(r2.metrics.deletions, 1);
        assert_eq!(r2.metrics.matched_deletions, 1);
        assert_eq!(r2.matched_deletions, 1);
        // Deltas sum to the lifetime metrics.
        let m = engine.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.updates, 3);
        assert_eq!(m.matched_deletions, 1);
        assert_eq!(m.rebuilds, 2);
    }

    #[test]
    fn lossy_apply_skips_and_reports_instead_of_failing() {
        let mut engine = ToyEngine::new(6);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();

        let report = engine.apply_batch_lossy(&[
            Update::Insert(pair(1, 2, 3)),  // 0: kept
            Update::Insert(pair(1, 2, 3)),  // 1: exact dup, dropped
            Update::Insert(pair(1, 4, 5)),  // 2: conflicting id, rejected
            Update::Insert(pair(0, 4, 5)),  // 3: live id, rejected
            Update::Delete(EdgeId(42)),     // 4: unknown, rejected
            Update::Delete(EdgeId(0)),      // 5: kept
            Update::Insert(pair(9, 0, 77)), // 6: out of range, rejected
            Update::Insert(HyperEdge::new(EdgeId(9), (0..4).map(VertexId).collect())), // 7: rank > 3, rejected
        ]);

        assert_eq!(report.batch.batch_size, 2);
        assert_eq!(report.deduplicated, 1);
        assert_eq!(report.offered(), 8);
        let expected: Vec<(usize, BatchError)> = vec![
            (2, BatchError::DuplicateEdgeId { id: EdgeId(1) }),
            (3, BatchError::DuplicateEdgeId { id: EdgeId(0) }),
            (4, BatchError::UnknownDeletion { id: EdgeId(42) }),
            (
                6,
                BatchError::VertexOutOfRange {
                    id: EdgeId(9),
                    vertex: VertexId(77),
                    num_vertices: 6,
                },
            ),
            (
                7,
                BatchError::RankExceeded {
                    id: EdgeId(9),
                    rank: 4,
                    max_rank: 3,
                },
            ),
        ];
        let got: Vec<(usize, BatchError)> = report
            .rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(got, expected);
        // The surviving subset was committed: edge 0 replaced by edge 1.
        assert!(!engine.contains_edge(EdgeId(0)));
        assert!(engine.contains_edge(EdgeId(1)));
        engine.verify().unwrap();
    }

    #[test]
    fn lossy_commit_of_nothing_is_a_noop() {
        let mut engine = ToyEngine::new(4);
        let report = engine.apply_batch_lossy(&[Update::Delete(EdgeId(3))]);
        assert_eq!(report.batch.batch_size, 0);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(engine.metrics(), EngineMetrics::default());
    }

    #[test]
    fn strict_validation_and_sift_agree() {
        let dirty = vec![
            Update::Insert(pair(0, 0, 1)),
            Update::Insert(pair(0, 2, 3)), // conflict
            Update::Delete(EdgeId(5)),     // unknown
            Update::Insert(pair(1, 2, 3)),
            Update::Insert(pair(1, 2, 3)), // exact dup
            Update::Delete(EdgeId(0)),     // §3.3: cannot delete an id inserted by this batch
        ];
        let live = |_: EdgeId| false;
        let sifted = BatchLedger::sift(dirty.clone(), |u| live(u.edge_id()), 3, 6);
        assert_eq!(sifted.kept, vec![dirty[0].clone(), dirty[3].clone()]);
        assert_eq!(sifted.deduplicated, 1);
        assert_eq!(validate_batch(&sifted.kept, live, 3, 6), Ok(()));
        // Each rejection carries exactly the error strict validation reports
        // for the update appended to the updates kept before it.
        let kept_at = [0, 3];
        assert_eq!(sifted.rejected.len(), 3);
        for r in &sifted.rejected {
            let mut batch: Vec<Update> = kept_at
                .iter()
                .filter(|&&k| k < r.index)
                .map(|&k| dirty[k].clone())
                .collect();
            batch.push(r.update.clone());
            assert_eq!(validate_batch(&batch, live, 3, 6), Err(r.error.clone()));
        }
    }

    #[test]
    fn ledger_and_validate_batch_agree_on_every_error_kind() {
        // Every BatchError kind, checked through both entry points.
        let live = |id: EdgeId| id == EdgeId(7);
        let cases: Vec<(Update, BatchError)> = vec![
            (
                Update::Delete(EdgeId(9)),
                BatchError::UnknownDeletion { id: EdgeId(9) },
            ),
            (
                Update::Insert(pair(7, 0, 1)),
                BatchError::DuplicateEdgeId { id: EdgeId(7) },
            ),
            (
                Update::Insert(HyperEdge::new(
                    EdgeId(1),
                    vec![VertexId(0), VertexId(1), VertexId(2)],
                )),
                BatchError::RankExceeded {
                    id: EdgeId(1),
                    rank: 3,
                    max_rank: 2,
                },
            ),
            (
                Update::Insert(pair(1, 0, 99)),
                BatchError::VertexOutOfRange {
                    id: EdgeId(1),
                    vertex: VertexId(99),
                    num_vertices: 10,
                },
            ),
        ];
        for (update, expected) in cases {
            let ledger = BatchLedger::new();
            assert_eq!(
                ledger.check(&update, live, 2, 10),
                Err(expected.clone()),
                "{update:?}"
            );
            assert_eq!(
                validate_batch(std::slice::from_ref(&update), live, 2, 10),
                Err(expected),
                "{update:?}"
            );
        }
    }

    #[test]
    fn batch_error_messages_name_the_edge() {
        let msg = BatchError::UnknownDeletion { id: EdgeId(3) }.to_string();
        assert!(msg.contains("e3"), "message should name the edge: {msg}");
        let msg = BatchError::RankExceeded {
            id: EdgeId(1),
            rank: 5,
            max_rank: 2,
        }
        .to_string();
        assert!(msg.contains("rank 5"));
    }
}
