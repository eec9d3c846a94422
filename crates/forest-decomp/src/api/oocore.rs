//! Out-of-core sharded decomposition: [`Decomposer::run_out_of_core`]
//! decomposes an on-disk CSR file under a configurable memory budget.
//!
//! This is the back half of the out-of-core pipeline
//! (`forest_graph::extsort` builds the file, this module decomposes it) and
//! the paper's locality claim made operational: Harris–Su–Vu forest
//! decomposition is local, so the driver never needs the whole graph
//! resident. The run composes three bounded phases:
//!
//! 1. **Plan.** The file is demand-page mapped
//!    ([`MmapCsr::load_mmap`](forest_graph::MmapCsr)) and split with a
//!    [`ShardPlan`](forest_graph::ShardPlan) — the `O(k)`-resident twin of
//!    `CsrPartition` that cuts in exactly the same places — with `k` either
//!    given or derived from the budget so one shard's working set fits.
//!    The plan supports only the identity order: a BFS/RCM reorder needs
//!    the `O(n)` permutation the plan exists to avoid, so a request asking
//!    for one fails with [`FdError::ReorderUnsupported`].
//! 2. **Walk.** Shards are decomposed *sequentially* through the same
//!    thaw-free `decompose_shard` path `run_sharded` fans out in parallel:
//!    one shard's CSR is extracted, decomposed, its coloring **spilled to
//!    disk**, and — before everything is dropped — the shared stitch
//!    records the per-color component representatives of its *boundary*
//!    vertices (a few words per boundary endpoint). Per-shard seeds,
//!    ledgers and outcomes are identical to the in-memory run because the
//!    extracted shard bytes are.
//! 3. **Stitch.** The boundary edges go through the one two-phase stitch
//!    both sharded drivers share (the private `stitch` module), over
//!    sparse union-finds keyed by the recorded representatives —
//!    `O(boundary)` resident — followed by the same report tail.
//!
//! The returned [`DecompositionReport`] is **byte-identical**
//! ([`canonical_bytes`](DecompositionReport::canonical_bytes)) to
//! `run_sharded` with the same request and shard count — same colors, same
//! ledger charges, same arboricity — pinned by the `oocore` tests. The
//! report itself carries the full per-edge coloring, so materializing it
//! (reading the spilled colorings back) is an `O(m)` step *after* the
//! bounded phases release their working set; [`OocStats`] reports that
//! assembly cost separately from [`OocStats::peak_resident_bytes`], which
//! tracks the driver-allocated working set of the bounded phases (engine
//! scratch is proportional to one shard and rides inside the same budget
//! headroom; mapped file pages are the kernel's to evict and are not heap).

use super::stitch::{self, Stitch};
use super::{derive_seed, Decomposer, DecompositionReport};
use crate::error::FdError;
use forest_graph::{Color, CsrGraph, EdgeId, GraphView, ReorderKind, ShardPlan};
use forest_obs::{clock::Stopwatch, LazyCounter, LazyGauge, Span};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Phase timings and [`OocStats`] residency accounting in the `forest-obs`
/// registry. Counters are cumulative across runs; the gauges report the
/// latest run's plan and the high-watermark residency.
static OOC_RUNS: LazyCounter = LazyCounter::new("ooc.runs_total");
static OOC_PLAN_NANOS: LazyCounter = LazyCounter::new("ooc.plan_nanos_total");
static OOC_DECOMPOSE_NANOS: LazyCounter = LazyCounter::new("ooc.decompose_nanos_total");
static OOC_STITCH_NANOS: LazyCounter = LazyCounter::new("ooc.stitch_nanos_total");
static OOC_ASSEMBLE_NANOS: LazyCounter = LazyCounter::new("ooc.assemble_nanos_total");
static OOC_NUM_SHARDS: LazyGauge = LazyGauge::new("ooc.num_shards");
static OOC_BOUNDARY_EDGES: LazyGauge = LazyGauge::new("ooc.boundary_edges");
static OOC_PEAK_RESIDENT: LazyGauge = LazyGauge::new("ooc.peak_resident_bytes");

/// Distinguishes concurrent drivers' spill directories within one process.
static SPILL_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Configuration of one out-of-core run: the memory budget and its knobs.
#[derive(Clone, Debug)]
pub struct OocConfig {
    /// Target ceiling, in bytes, for the driver's resident working set
    /// during the bounded phases (plan, per-shard walk, stitch).
    pub memory_budget_bytes: usize,
    /// Explicit shard count; `None` derives one from the budget so a single
    /// shard's working set fits. Use an explicit count to compare against
    /// `run_sharded` with the same `k`.
    pub num_shards: Option<usize>,
    /// Directory for the coloring spill file; `None` uses a fresh directory
    /// next to the input file.
    pub spill_dir: Option<PathBuf>,
}

impl OocConfig {
    /// A config with the given budget and everything else defaulted.
    pub fn with_budget(memory_budget_bytes: usize) -> Self {
        OocConfig {
            memory_budget_bytes,
            num_shards: None,
            spill_dir: None,
        }
    }

    /// Fixes the shard count instead of deriving it from the budget.
    pub fn num_shards(mut self, k: usize) -> Self {
        self.num_shards = Some(k);
        self
    }

    /// Sets the spill directory.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// What one out-of-core run measured: the budget and residency accounting.
/// Phase wall-clock lives in the `ooc.*` spans and registry counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct OocStats {
    /// Shards the run walked.
    pub num_shards: usize,
    /// The configured budget.
    pub memory_budget_bytes: usize,
    /// Peak driver-tracked resident bytes across the bounded phases (shard
    /// extraction, decomposition outputs, boundary state, stitch).
    pub peak_resident_bytes: usize,
    /// Estimated bytes of the final report materialization (full coloring +
    /// decomposition artifact), incurred after the bounded phases.
    pub report_assembly_bytes: usize,
    /// Size of the input CSR file.
    pub csr_file_bytes: u64,
    /// Whether the file was truly demand-paged (`false` on the portable
    /// eager fallback, where the mapping itself is `O(file)` heap).
    pub demand_paged: bool,
    /// Boundary edges the stitch streamed over.
    pub boundary_edges: usize,
    /// Bytes of per-shard colorings spilled to disk.
    pub spilled_coloring_bytes: u64,
}

/// An out-of-core run's result: the (byte-identical-to-`run_sharded`)
/// report plus the run's memory/phase accounting.
#[derive(Clone, Debug)]
pub struct OocOutcome {
    /// The decomposition report, indistinguishable from the in-memory
    /// sharded run's.
    pub report: DecompositionReport,
    /// Budget and residency accounting.
    pub stats: OocStats,
}

/// Tracks the driver's allocation high-water mark.
#[derive(Default)]
struct ResidentMeter {
    current: usize,
    peak: usize,
}

impl ResidentMeter {
    fn alloc(&mut self, bytes: usize) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    fn free(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }
}

/// Derives a shard count whose per-shard working set fits inside two fifths
/// of the budget (the rest covers the plan, boundary state, spill buffers
/// and engine scratch). Per-shard transients: the extracted CSR
/// (`≈ 24m/k + 4n/k` bytes), its edge map and coloring (`8m/k`), and the
/// per-color connectivity (`≈ 16·span·n/k`).
fn shards_for_budget(n: usize, m: usize, budget: usize) -> usize {
    let per_shard_total = 40 * m + 72 * n;
    let avail = (2 * budget / 5).max(1);
    per_shard_total.div_ceil(avail).max(1)
}

fn io_err(context: String) -> FdError {
    FdError::Io { context }
}

/// Writes one `(global edge, color)` pair to the spill stream.
fn spill_pair(w: &mut BufWriter<File>, edge: u32, color: u32) -> io::Result<()> {
    w.write_all(&edge.to_le_bytes())?;
    w.write_all(&color.to_le_bytes())
}

/// Best-effort removal of the spill directory, including on error paths.
struct SpillDirGuard {
    dir: PathBuf,
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Decomposer {
    /// Decomposes the on-disk CSR file at `path` without ever holding the
    /// whole graph resident: demand-paged input, sequential bounded-memory
    /// shard walk with colorings spilled to disk, boundary-only stitch. See
    /// the [module docs](self) for the phase breakdown; the report is
    /// byte-identical to [`run_sharded`](Decomposer::run_sharded) with the
    /// same request and shard count. The split is always the identity
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::Io`] for I/O failures (loading the file, spilling
    /// colorings), [`FdError::ShardingUnsupported`] for problems other than
    /// [`ProblemKind::Forest`](super::ProblemKind::Forest),
    /// [`FdError::UnsupportedCombination`] for an engine that cannot solve
    /// forests, [`FdError::InvalidShardCount`] for an explicit shard count
    /// of 0, [`FdError::ReorderUnsupported`] for a request whose
    /// [`ShardingSpec`](super::ShardingSpec) asks for a BFS or RCM order,
    /// and propagates per-shard failures.
    pub fn run_out_of_core<P: AsRef<Path>>(
        &self,
        path: P,
        config: &OocConfig,
    ) -> Result<OocOutcome, FdError> {
        let path = path.as_ref();
        let _run_span = Span::enter("ooc.run");
        let start = Stopwatch::start();
        let request = self.request();
        let engine = stitch::sharded_engine(request)?;
        if config.num_shards == Some(0) {
            return Err(FdError::InvalidShardCount { requested: 0 });
        }
        // The plan cuts contiguous id ranges; a reordered cut needs the
        // O(n) permutation the bounded plan exists to avoid.
        let reorder = request.sharding.reorder;
        if reorder != ReorderKind::Identity {
            return Err(FdError::ReorderUnsupported { reorder });
        }

        let mut stats = OocStats {
            memory_budget_bytes: config.memory_budget_bytes,
            ..OocStats::default()
        };
        let mut meter = ResidentMeter::default();

        // --- phase 1: plan -------------------------------------------------
        let plan_span = Span::enter("ooc.plan");
        let plan_start = Stopwatch::start();
        let mapped = CsrGraph::load_mmap(path)
            .map_err(|err| io_err(format!("loading CSR file {}: {err}", path.display())))?;
        stats.demand_paged = mapped.is_demand_paged();
        stats.csr_file_bytes = std::fs::metadata(path)
            .map_err(|err| io_err(format!("stat of CSR file {}: {err}", path.display())))?
            .len();
        let csr = mapped.view();
        let n = csr.num_vertices();
        let m = csr.num_edges();
        let k = config
            .num_shards
            .unwrap_or_else(|| shards_for_budget(n, m, config.memory_budget_bytes));
        let plan = ShardPlan::new(&mapped, k);
        let k = plan.num_shards();
        stats.num_shards = k;
        meter.alloc(plan.resident_bytes());
        let boundary_list = plan.boundary_edges(&mapped);
        let boundary = boundary_list.len();
        stats.boundary_edges = boundary;
        meter.alloc(boundary_list.len() * std::mem::size_of::<EdgeId>());
        let boundary_verts =
            stitch::boundary_vertices(&csr, &boundary_list, k, |v| plan.shard_of(v));
        meter.alloc(boundary_verts.iter().map(|v| 4 * v.len() + 32).sum());
        OOC_PLAN_NANOS.add(plan_start.elapsed_nanos());
        drop(plan_span);
        OOC_NUM_SHARDS.set(k as u64);
        OOC_BOUNDARY_EDGES.set(boundary as u64);

        // Spill stream for the per-shard colorings.
        let spill_root = config
            .spill_dir
            .clone()
            .or_else(|| path.parent().map(Path::to_path_buf))
            .unwrap_or_else(std::env::temp_dir);
        let spill_dir = spill_root.join(format!(
            "oocore-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&spill_dir)
            .map_err(|err| io_err(format!("creating spill dir {}: {err}", spill_dir.display())))?;
        let _guard = SpillDirGuard {
            dir: spill_dir.clone(),
        };
        let spill_path = spill_dir.join("colors.spill");
        let mut spill = BufWriter::new(File::create(&spill_path).map_err(|err| {
            io_err(format!(
                "creating spill file {}: {err}",
                spill_path.display()
            ))
        })?);

        // --- phase 2: sequential shard walk --------------------------------
        // Mirrors run_sharded's parallel fan-out: per-shard derived seeds
        // over byte-identical shard CSRs give identical outcomes, and
        // walking in index order reproduces the merge/ledger order.
        let walk_span = Span::enter("ooc.shard_walk");
        let walk_start = Stopwatch::start();
        let mut stitch = Stitch::default();
        let mut written = 0usize;
        for (s, shard_boundary) in boundary_verts.iter().enumerate() {
            let _shard_span = Span::enter("ooc.shard");
            let extracted = plan.extract_shard(&mapped, s);
            let shard_n = extracted.csr.num_vertices();
            let shard_m = extracted.csr.num_edges();
            let extracted_bytes =
                4 * ((shard_n + 1) + 6 * shard_m) + 4 * extracted.global_edges.len();
            meter.alloc(extracted_bytes);
            let mut rng = SmallRng::seed_from_u64(derive_seed(request.seed, s as u64));
            let outcome = engine.decompose_shard(extracted.csr.view(), request, &mut rng)?;
            // Outcome working set: the shard coloring plus the per-color
            // union-finds (estimated; dropped at the end of this iteration).
            let outcome_bytes = 4 * shard_m + 16 * outcome.color_span * shard_n;
            meter.alloc(outcome_bytes);
            for (&global, &color) in extracted
                .global_edges
                .iter()
                .zip(outcome.decomposition.colors())
            {
                spill_pair(&mut spill, global, color.raw())
                    .map_err(|err| io_err(format!("spilling shard {s} coloring: {err}")))?;
                written += 1;
            }
            stats.spilled_coloring_bytes += 8 * extracted.global_edges.len() as u64;
            // The recorded representatives outlive the shard: one entry per
            // boundary vertex, one word per shard color.
            meter.alloc(shard_boundary.len() * (48 + 4 * outcome.color_span));
            stitch.absorb(
                s,
                outcome,
                shard_boundary,
                |v| plan.local_vertex(v),
                |local| plan.global_vertex(s, local),
            );
            meter.free(extracted_bytes + outcome_bytes);
        }
        spill
            .flush()
            .map_err(|err| io_err(format!("flushing coloring spill: {err}")))?;
        drop(spill);
        OOC_DECOMPOSE_NANOS.add(walk_start.elapsed_nanos());
        drop(walk_span);

        // --- phase 3: boundary stitch --------------------------------------
        let stitch_span = Span::enter("ooc.stitch");
        let stitch_start = Stopwatch::start();
        let boundary_colors = stitch.stitch(&csr, &boundary_list);
        written += boundary_colors.len();
        meter.alloc(stitch.forest_bytes() + 8 * boundary_colors.len());
        debug_assert_eq!(written, m, "every edge colored exactly once");
        OOC_STITCH_NANOS.add(stitch_start.elapsed_nanos());
        drop(stitch_span);
        stats.peak_resident_bytes = meter.peak;
        OOC_PEAK_RESIDENT.set_max(meter.peak as u64);

        // --- report assembly (after the bounded phases) --------------------
        let assemble_span = Span::enter("ooc.assemble");
        let assemble_start = Stopwatch::start();
        let mut colors = vec![Color::new(0); m];
        let mut spill_in = BufReader::new(File::open(&spill_path).map_err(|err| {
            io_err(format!(
                "reopening spill file {}: {err}",
                spill_path.display()
            ))
        })?);
        let mut pair = [0u8; 8];
        while read_exact_or_eof(&mut spill_in, &mut pair)
            .map_err(|err| io_err(format!("reading coloring spill: {err}")))?
        {
            let edge = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
            let color = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            colors[edge as usize] = Color::new(color as usize);
        }
        for (&e, &c) in boundary_list.iter().zip(&boundary_colors) {
            colors[e.index()] = c;
        }
        stats.report_assembly_bytes = 12 * m;
        let report = stitch.finish(request, &csr, colors, &start)?;
        OOC_ASSEMBLE_NANOS.add(assemble_start.elapsed_nanos());
        drop(assemble_span);
        OOC_RUNS.inc();
        Ok(OocOutcome { report, stats })
    }
}

/// Reads exactly `buf.len()` bytes, or returns `Ok(false)` at clean EOF;
/// a torn tail is an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let read = r.read(&mut buf[filled..])?;
        if read == 0 {
            break;
        }
        filled += read;
    }
    match filled {
        0 => Ok(false),
        f if f == buf.len() => Ok(true),
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "torn record in coloring spill",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DecompositionRequest, Engine, ProblemKind, StitchPolicy};
    use forest_graph::generators;
    use rand::rngs::StdRng;

    fn temp_csr(tag: &str, g: &forest_graph::MultiGraph) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "forest-decomp-oocore-{tag}-{}-{}.csr",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        CsrGraph::from_multigraph(g).save(&path).unwrap();
        path
    }

    #[test]
    fn out_of_core_matches_run_sharded_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = generators::planted_forest_union(150, 3, &mut rng);
        let path = temp_csr("parity", &g);
        for engine in [Engine::HarrisSuVu, Engine::ExactMatroid] {
            let decomposer = Decomposer::new(
                DecompositionRequest::new(ProblemKind::Forest)
                    .with_engine(engine)
                    .with_alpha(3)
                    .with_seed(13),
            );
            let sharded = decomposer.run_sharded(&g, 5).unwrap();
            let ooc = decomposer
                .run_out_of_core(&path, &OocConfig::with_budget(1 << 20).num_shards(5))
                .unwrap();
            assert_eq!(
                ooc.report.canonical_bytes(),
                sharded.canonical_bytes(),
                "engine {engine:?}"
            );
            assert_eq!(ooc.stats.num_shards, 5);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exact_alpha_stitch_parity_holds_out_of_core() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_forest_union(80, 2, &mut rng);
        let path = temp_csr("exact", &g);
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_alpha(2)
                .with_seed(3)
                .with_stitch_policy(StitchPolicy::ExactAlpha),
        );
        let sharded = decomposer.run_sharded(&g, 3).unwrap();
        let ooc = decomposer
            .run_out_of_core(&path, &OocConfig::with_budget(1 << 20).num_shards(3))
            .unwrap();
        assert_eq!(ooc.report.canonical_bytes(), sharded.canonical_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn budget_derived_shard_count_stays_under_budget() {
        // A banded graph: contiguous-id shards cut only O(k) edges, so the
        // boundary state stays tiny and the budget binds the shard walk.
        // (On a random-id graph nearly every edge is boundary and no
        // sharding discipline can keep the stitch state below O(m).)
        let g = generators::fat_path(2000, 4);
        let path = temp_csr("budget", &g);
        let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;
        let budget = file_bytes / 8;
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::HarrisSuVu)
                .with_alpha(4)
                .with_seed(9),
        );
        let ooc = decomposer
            .run_out_of_core(&path, &OocConfig::with_budget(budget))
            .unwrap();
        assert!(ooc.stats.num_shards > 1, "budget must force sharding");
        assert!(
            ooc.stats.peak_resident_bytes <= budget,
            "peak {} exceeds budget {budget}",
            ooc.stats.peak_resident_bytes
        );
        // And the derived-k run still matches run_sharded with the same k.
        let sharded = decomposer.run_sharded(&g, ooc.stats.num_shards).unwrap();
        assert_eq!(ooc.report.canonical_bytes(), sharded.canonical_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_configurations() {
        let g = generators::path(8);
        let path = temp_csr("reject", &g);
        let forest = Decomposer::new(DecompositionRequest::new(ProblemKind::Forest));
        assert!(matches!(
            forest.run_out_of_core(&path, &OocConfig::with_budget(1024).num_shards(0)),
            Err(FdError::InvalidShardCount { requested: 0 })
        ));
        // The plan cuts the identity order only; a reordered request is
        // refused instead of silently cutting a different split than
        // run_sharded would.
        for reorder in [ReorderKind::Bfs, ReorderKind::Rcm] {
            let reordered = Decomposer::new(
                DecompositionRequest::new(ProblemKind::Forest).with_shard_reorder(reorder),
            );
            assert_eq!(
                reordered
                    .run_out_of_core(&path, &OocConfig::with_budget(1024))
                    .unwrap_err(),
                FdError::ReorderUnsupported { reorder }
            );
        }
        let star = Decomposer::new(DecompositionRequest::new(ProblemKind::StarForest));
        assert!(matches!(
            star.run_out_of_core(&path, &OocConfig::with_budget(1024)),
            Err(FdError::ShardingUnsupported { .. })
        ));
        assert!(matches!(
            forest.run_out_of_core("/definitely/not/a/file.csr", &OocConfig::with_budget(1024)),
            Err(FdError::Io { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
