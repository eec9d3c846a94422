//! External-sort construction of the on-disk CSR format from raw edge files:
//! the front half of the out-of-core pipeline.
//!
//! [`build_csr_from_edge_file`] reads a binary or text edge list in
//! fixed-size chunks, never holding more than a configurable number of bytes
//! of incidence records in memory, and writes the exact bytes
//! `CsrGraph::from_multigraph(&g).save(path)` would produce — without ever
//! constructing a [`MultiGraph`](crate::MultiGraph) (or any other `O(n + m)`
//! in-memory structure beyond the sort buffer). The pipeline is the classic
//! external merge sort, specialized to CSR assembly:
//!
//! 1. **Chunked read + run spill.** Every edge `i = (u, v)` becomes two
//!    12-byte incidence records `(u, i, v)` and `(v, i, u)`; the interleaved
//!    `endpoints` section is streamed to a temp file in edge order as a side
//!    effect of the same pass. When the record buffer reaches the memory
//!    ceiling it is sorted by `(endpoint, edge id)` — exactly the incidence
//!    order `MultiGraph` insertion produces — and spilled to a run file.
//! 2. **K-way merge.** The sorted runs are heap-merged straight into the
//!    `offsets` / `neighbors` / `edge_ids` section files; no two records
//!    share a `(endpoint, edge id)` key (self-loops are rejected), so the
//!    merge order — and therefore the output — is deterministic.
//! 3. **Concatenate.** The 32-byte versioned header and the four section
//!    files are streamed into the destination file.
//!
//! The merge also computes the **degree/density watermark** in the same
//! pass: the maximum degree falls out of the per-vertex run lengths, and the
//! Nash-Williams lower bound `⌈m/(n−1)⌉` from the edge and vertex counts —
//! the simple counting argument of Reiher–Sauermann, which needs nothing
//! beyond `m` and `n` and is therefore free in a streaming build. The
//! resulting [`BuildStats`] is the out-of-core driver's first estimate of
//! how many forests the file will need before any decomposition runs.
//!
//! Peak memory is `memory_budget_bytes` for the sort buffer plus a fixed
//! small number of buffered file handles (one per run during the merge);
//! [`BuildStats::peak_buffer_bytes`] reports what the buffer actually
//! reached so callers can assert their ceiling held.

use crate::csr::{FORMAT_MAGIC, FORMAT_VERSION, HEADER_BYTES};
use forest_obs::Span;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes of one incidence record `(endpoint, edge_id, other)` on disk and in
/// the sort buffer.
const RECORD_BYTES: usize = 12;

/// Floor on the sort-buffer capacity in records: below this, run files
/// degenerate to a handful of edges each and the merge heap dominates.
const MIN_BUFFER_RECORDS: usize = 64;

/// Buffered-reader capacity per run during the merge (not part of the
/// configurable sort budget; a fixed per-run cost like the file handle).
const RUN_READER_BYTES: usize = 64 * 1024;

/// Distinguishes concurrent builders' temp directories within one process.
static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Input encodings [`build_csr_from_edge_file`] understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeListFormat {
    /// Interleaved little-endian `u32` pairs, one `(u, v)` per edge; the
    /// file length must be a multiple of 8. [`write_binary_edge_file`]
    /// produces this.
    BinaryU32,
    /// One `u v` pair per line (any ASCII whitespace between them); blank
    /// lines and lines starting with `#` are skipped.
    Text,
}

/// Configuration of one external-sort build.
#[derive(Clone, Debug)]
pub struct ExtsortConfig {
    /// Hard ceiling on the in-memory sort buffer, in bytes. The buffer is
    /// spilled to a sorted run file whenever it would exceed this.
    pub memory_budget_bytes: usize,
    /// Explicit vertex count (needed when trailing vertices are isolated);
    /// `None` infers `max endpoint + 1`.
    pub num_vertices: Option<usize>,
    /// Directory for spill files; `None` uses a fresh directory next to the
    /// output file (same filesystem, so no cross-device copies).
    pub temp_dir: Option<PathBuf>,
}

impl ExtsortConfig {
    /// A config with the given sort-buffer ceiling and everything else
    /// defaulted.
    pub fn with_budget(memory_budget_bytes: usize) -> Self {
        ExtsortConfig {
            memory_budget_bytes,
            num_vertices: None,
            temp_dir: None,
        }
    }

    /// Sets the explicit vertex count.
    pub fn num_vertices(mut self, n: usize) -> Self {
        self.num_vertices = Some(n);
        self
    }

    /// Sets the spill directory.
    pub fn temp_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.temp_dir = Some(dir.into());
        self
    }
}

/// What one external-sort build measured: the degree/density watermark and
/// the buffer and spill accounting. Phase wall-clock lives in the
/// `extsort.read_spill` / `extsort.merge` spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Vertices in the output CSR.
    pub num_vertices: usize,
    /// Edges in the output CSR.
    pub num_edges: usize,
    /// Sorted runs spilled to disk (0 when everything fit the buffer).
    pub spilled_runs: usize,
    /// Maximum vertex degree, computed from the merge's per-vertex run
    /// lengths.
    pub max_degree: usize,
    /// The Nash-Williams arboricity lower bound `⌈m/(n−1)⌉` — the
    /// Reiher–Sauermann counting watermark, free in one streaming pass.
    pub nash_williams_watermark: usize,
    /// Largest size the sort buffer reached, in bytes (≤ the configured
    /// ceiling, except that the buffer never holds fewer than 64 records).
    pub peak_buffer_bytes: usize,
    /// Size of the finished CSR file in bytes.
    pub output_bytes: u64,
}

/// One incidence record: the sort key is `(endpoint, edge)`.
#[derive(Clone, Copy, Debug)]
struct Record {
    endpoint: u32,
    edge: u32,
    other: u32,
}

impl Record {
    #[inline]
    fn key(&self) -> u64 {
        (u64::from(self.endpoint) << 32) | u64::from(self.edge)
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes `edges` as a [`EdgeListFormat::BinaryU32`] file and returns the
/// number of edges written — the generator side of the pipeline, used by
/// tests and benchmarks to fabricate inputs without a `MultiGraph`.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn write_binary_edge_file<P, I>(path: P, edges: I) -> io::Result<u64>
where
    P: AsRef<Path>,
    I: IntoIterator<Item = (u32, u32)>,
{
    let mut w = BufWriter::new(File::create(path)?);
    let mut count = 0u64;
    for (u, v) in edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
        count += 1;
    }
    w.flush()?;
    Ok(count)
}

/// Streaming edge-pair source over either input format.
enum EdgeSource {
    Binary(BufReader<File>),
    Text {
        reader: BufReader<File>,
        line: String,
        lineno: usize,
    },
}

impl EdgeSource {
    fn open(path: &Path, format: EdgeListFormat) -> io::Result<Self> {
        let reader = BufReader::with_capacity(256 * 1024, File::open(path)?);
        Ok(match format {
            EdgeListFormat::BinaryU32 => EdgeSource::Binary(reader),
            EdgeListFormat::Text => EdgeSource::Text {
                reader,
                line: String::new(),
                lineno: 0,
            },
        })
    }

    /// The next `(u, v)` pair, or `None` at end of input.
    fn next_edge(&mut self) -> io::Result<Option<(u32, u32)>> {
        match self {
            EdgeSource::Binary(reader) => {
                let mut pair = [0u8; 8];
                let mut filled = 0;
                while filled < 8 {
                    let read = reader.read(&mut pair[filled..])?;
                    if read == 0 {
                        break;
                    }
                    filled += read;
                }
                match filled {
                    0 => Ok(None),
                    8 => Ok(Some((
                        u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]),
                        u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]),
                    ))),
                    _ => Err(invalid(
                        "binary edge file length is not a multiple of 8 bytes",
                    )),
                }
            }
            EdgeSource::Text {
                reader,
                line,
                lineno,
            } => loop {
                line.clear();
                if reader.read_line(line)? == 0 {
                    return Ok(None);
                }
                *lineno += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                let mut parts = trimmed.split_whitespace();
                let parse = |tok: Option<&str>, lineno: usize| -> io::Result<u32> {
                    tok.and_then(|t| t.parse::<u32>().ok()).ok_or_else(|| {
                        invalid(format!(
                            "edge file line {lineno}: expected two u32 endpoints"
                        ))
                    })
                };
                let u = parse(parts.next(), *lineno)?;
                let v = parse(parts.next(), *lineno)?;
                if parts.next().is_some() {
                    return Err(invalid(format!(
                        "edge file line {lineno}: trailing tokens after the endpoint pair"
                    )));
                }
                return Ok(Some((u, v)));
            },
        }
    }
}

/// A sorted run the merge consumes: a spilled file or the final in-memory
/// buffer (which never needs to touch disk).
enum RunSource {
    Disk(BufReader<File>),
    Mem(std::vec::IntoIter<Record>),
}

impl RunSource {
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        match self {
            RunSource::Disk(reader) => {
                let mut raw = [0u8; RECORD_BYTES];
                let mut filled = 0;
                while filled < RECORD_BYTES {
                    let read = reader.read(&mut raw[filled..])?;
                    if read == 0 {
                        break;
                    }
                    filled += read;
                }
                match filled {
                    0 => Ok(None),
                    RECORD_BYTES => Ok(Some(Record {
                        endpoint: u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]),
                        edge: u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]),
                        other: u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]),
                    })),
                    _ => Err(invalid("truncated spill run (torn record)")),
                }
            }
            RunSource::Mem(iter) => Ok(iter.next()),
        }
    }
}

/// Best-effort removal of the spill directory, including on error paths.
struct TempDirGuard {
    dir: PathBuf,
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Streams an edge file into the versioned on-disk CSR format at `output`
/// under the configured memory ceiling, returning the build's
/// [`BuildStats`]. The output is byte-identical to freezing the same edge
/// list through `CsrGraph::from_multigraph(&g).save(output)` (same header,
/// same section bytes) — pinned by the `extsort` proptests.
///
/// # Errors
///
/// Propagates I/O errors; returns [`io::ErrorKind::InvalidData`] for
/// malformed input (torn binary pairs, unparsable text lines), self-loops
/// (a forest decomposition input never contains them, matching
/// `MultiGraph`), an explicit `num_vertices` smaller than `max endpoint +
/// 1`, or a graph whose incidence count overflows the format's 32-bit
/// offsets.
pub fn build_csr_from_edge_file<P, Q>(
    input: P,
    format: EdgeListFormat,
    output: Q,
    config: &ExtsortConfig,
) -> io::Result<BuildStats>
where
    P: AsRef<Path>,
    Q: AsRef<Path>,
{
    let input = input.as_ref();
    let output = output.as_ref();
    let mut stats = BuildStats::default();

    // Spill directory: same filesystem as the output unless overridden.
    let temp_root = config
        .temp_dir
        .clone()
        .or_else(|| output.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    let temp_dir = temp_root.join(format!(
        "extsort-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&temp_dir)?;
    let guard = TempDirGuard {
        dir: temp_dir.clone(),
    };

    let buffer_records = (config.memory_budget_bytes / RECORD_BYTES).max(MIN_BUFFER_RECORDS);

    // --- pass 1: chunked read, run spill, endpoints side-stream ---------
    let read_span = Span::enter("extsort.read_spill");
    let mut source = EdgeSource::open(input, format)?;
    let endpoints_path = temp_dir.join("endpoints.sec");
    let mut endpoints_out = BufWriter::new(File::create(&endpoints_path)?);
    let mut buffer: Vec<Record> = Vec::new();
    let mut run_paths: Vec<PathBuf> = Vec::new();
    let mut num_edges = 0u64;
    let mut max_endpoint: Option<u32> = None;

    let spill = |buffer: &mut Vec<Record>,
                 run_paths: &mut Vec<PathBuf>,
                 temp_dir: &Path|
     -> io::Result<()> {
        buffer.sort_unstable_by_key(Record::key);
        let path = temp_dir.join(format!("run-{}.bin", run_paths.len()));
        let mut w = BufWriter::with_capacity(RUN_READER_BYTES, File::create(&path)?);
        for r in buffer.iter() {
            w.write_all(&r.endpoint.to_le_bytes())?;
            w.write_all(&r.edge.to_le_bytes())?;
            w.write_all(&r.other.to_le_bytes())?;
        }
        w.flush()?;
        run_paths.push(path);
        buffer.clear();
        Ok(())
    };

    while let Some((u, v)) = source.next_edge()? {
        if u == v {
            return Err(invalid(format!(
                "edge {num_edges} is a self-loop at vertex {u}"
            )));
        }
        if num_edges >= u64::from(u32::MAX) {
            return Err(invalid("edge count exceeds the format's u32 edge ids"));
        }
        let id = u32::try_from(num_edges).expect("checked against u32::MAX above");
        num_edges += 1;
        max_endpoint = Some(max_endpoint.map_or(u.max(v), |m| m.max(u).max(v)));
        endpoints_out.write_all(&u.to_le_bytes())?;
        endpoints_out.write_all(&v.to_le_bytes())?;
        for (endpoint, other) in [(u, v), (v, u)] {
            buffer.push(Record {
                endpoint,
                edge: id,
                other,
            });
            if buffer.len() >= buffer_records {
                stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(buffer.len() * RECORD_BYTES);
                spill(&mut buffer, &mut run_paths, &temp_dir)?;
            }
        }
    }
    endpoints_out.flush()?;
    drop(endpoints_out);
    stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(buffer.len() * RECORD_BYTES);
    stats.spilled_runs = run_paths.len();
    drop(read_span);

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the read loop stops at u32::MAX edges"
    )]
    let m = num_edges as usize;
    if 2 * (m as u64) > u64::from(u32::MAX) {
        return Err(invalid(
            "incidence count exceeds the format's 32-bit offsets",
        ));
    }
    let observed_n = max_endpoint.map_or(0, |m| m as usize + 1);
    let n = match config.num_vertices {
        Some(n) if n < observed_n => {
            return Err(invalid(format!(
                "explicit num_vertices {n} is smaller than max endpoint + 1 = {observed_n}"
            )))
        }
        Some(n) => n,
        None => observed_n,
    };
    stats.num_vertices = n;
    stats.num_edges = m;
    stats.nash_williams_watermark = if m == 0 || n < 2 {
        0
    } else {
        m.div_ceil(n - 1)
    };

    // --- pass 2: k-way merge into the section files ----------------------
    let merge_span = Span::enter("extsort.merge");
    // Sort the last buffer in place; it participates as the in-memory run.
    buffer.sort_unstable_by_key(Record::key);
    let mut runs: Vec<RunSource> = Vec::with_capacity(run_paths.len() + 1);
    for path in &run_paths {
        runs.push(RunSource::Disk(BufReader::with_capacity(
            RUN_READER_BYTES,
            File::open(path)?,
        )));
    }
    runs.push(RunSource::Mem(std::mem::take(&mut buffer).into_iter()));

    // Min-heap over (key, run index); keys are unique across records (a
    // non-loop edge meets each endpoint once), so the merge is a total
    // deterministic order.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(runs.len());
    let mut heads: Vec<Option<Record>> = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter_mut().enumerate() {
        let head = run.next_record()?;
        if let Some(r) = head {
            heap.push(Reverse((r.key(), i)));
        }
        heads.push(head);
    }

    let offsets_path = temp_dir.join("offsets.sec");
    let neighbors_path = temp_dir.join("neighbors.sec");
    let edge_ids_path = temp_dir.join("edge_ids.sec");
    let mut offsets_out = BufWriter::new(File::create(&offsets_path)?);
    let mut neighbors_out = BufWriter::new(File::create(&neighbors_path)?);
    let mut edge_ids_out = BufWriter::new(File::create(&edge_ids_path)?);

    offsets_out.write_all(&0u32.to_le_bytes())?; // offsets[0]
    let mut next_vertex = 0usize; // offsets written so far: next_vertex + 1
    let mut incidences = 0u32;
    let mut current_degree = 0usize;
    while let Some(Reverse((_, run_idx))) = heap.pop() {
        let record = heads[run_idx].take().expect("heap entry has a head record");
        let replacement = runs[run_idx].next_record()?;
        if let Some(r) = replacement {
            heap.push(Reverse((r.key(), run_idx)));
        }
        heads[run_idx] = replacement;

        let w = record.endpoint as usize;
        while next_vertex < w {
            // Vertices up to `w` are finished (records arrive in ascending
            // endpoint order); their closing offsets are all `incidences`.
            offsets_out.write_all(&incidences.to_le_bytes())?;
            next_vertex += 1;
            current_degree = 0;
        }
        neighbors_out.write_all(&record.other.to_le_bytes())?;
        edge_ids_out.write_all(&record.edge.to_le_bytes())?;
        incidences += 1;
        current_degree += 1;
        stats.max_degree = stats.max_degree.max(current_degree);
    }
    while next_vertex < n {
        offsets_out.write_all(&incidences.to_le_bytes())?;
        next_vertex += 1;
    }
    debug_assert_eq!(incidences as usize, 2 * m);
    offsets_out.flush()?;
    neighbors_out.flush()?;
    edge_ids_out.flush()?;
    drop((offsets_out, neighbors_out, edge_ids_out));

    // --- concatenate: header + offsets + neighbors + edge_ids + endpoints
    let mut out = BufWriter::with_capacity(256 * 1024, File::create(output)?);
    for header_word in [FORMAT_MAGIC, FORMAT_VERSION, n as u64, m as u64] {
        out.write_all(&header_word.to_le_bytes())?;
    }
    for section in [
        &offsets_path,
        &neighbors_path,
        &edge_ids_path,
        &endpoints_path,
    ] {
        let mut reader = File::open(section)?;
        io::copy(&mut reader, &mut out)?;
    }
    out.flush()?;
    drop(merge_span);
    stats.output_bytes = (HEADER_BYTES + 4 * ((n + 1) + 6 * m)) as u64;
    debug_assert_eq!(stats.output_bytes, std::fs::metadata(output)?.len());
    drop(guard);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::multigraph::MultiGraph;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "forest-graph-extsort-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn build_and_compare(pairs: &[(u32, u32)], n: usize, budget: usize) -> BuildStats {
        let edge_path = temp_path("edges");
        let out_path = temp_path("out");
        write_binary_edge_file(&edge_path, pairs.iter().copied()).unwrap();
        let stats = build_csr_from_edge_file(
            &edge_path,
            EdgeListFormat::BinaryU32,
            &out_path,
            &ExtsortConfig::with_budget(budget).num_vertices(n),
        )
        .unwrap();
        let g = MultiGraph::from_pairs(
            n,
            &pairs
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let expect = CsrGraph::from_multigraph(&g).to_bytes();
        let got = std::fs::read(&out_path).unwrap();
        assert_eq!(got, expect, "extsort bytes must match from_multigraph");
        assert_eq!(stats.num_vertices, n);
        assert_eq!(stats.num_edges, pairs.len());
        assert_eq!(stats.max_degree, g.max_degree());
        assert_eq!(stats.output_bytes, got.len() as u64);
        std::fs::remove_file(&edge_path).unwrap();
        std::fs::remove_file(&out_path).unwrap();
        stats
    }

    #[test]
    fn small_graph_is_byte_identical() {
        let stats = build_and_compare(&[(0, 1), (1, 2), (0, 1), (3, 4), (2, 0)], 5, 1 << 20);
        assert_eq!(stats.spilled_runs, 0, "five edges fit any sane buffer");
        assert_eq!(stats.nash_williams_watermark, 2); // ceil(5/4)
    }

    #[test]
    fn tiny_budget_forces_spills_and_stays_identical() {
        // 400 edges -> 800 records; the 64-record floor forces ~12 runs.
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 97, (i * 7 + 1) % 101)).collect();
        let pairs: Vec<(u32, u32)> = pairs
            .into_iter()
            .map(|(u, v)| if u == v { (u, v + 1) } else { (u, v) })
            .collect();
        let stats = build_and_compare(&pairs, 102, 1);
        assert!(
            stats.spilled_runs >= 2,
            "a 1-byte budget must spill: got {} runs",
            stats.spilled_runs
        );
        assert!(stats.peak_buffer_bytes <= MIN_BUFFER_RECORDS * RECORD_BYTES);
    }

    #[test]
    fn text_format_parses_comments_and_blank_lines() {
        let edge_path = temp_path("text");
        let out_path = temp_path("text-out");
        std::fs::write(&edge_path, "# a comment\n0 1\n\n  2 3 \n1 2\n").unwrap();
        build_csr_from_edge_file(
            &edge_path,
            EdgeListFormat::Text,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16),
        )
        .unwrap();
        let g = MultiGraph::from_pairs(4, &[(0, 1), (2, 3), (1, 2)]).unwrap();
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            CsrGraph::from_multigraph(&g).to_bytes()
        );
        std::fs::remove_file(&edge_path).unwrap();
        std::fs::remove_file(&out_path).unwrap();
    }

    #[test]
    fn empty_input_builds_the_empty_graph() {
        let edge_path = temp_path("empty");
        let out_path = temp_path("empty-out");
        write_binary_edge_file(&edge_path, std::iter::empty()).unwrap();
        let stats = build_csr_from_edge_file(
            &edge_path,
            EdgeListFormat::BinaryU32,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16),
        )
        .unwrap();
        assert_eq!(stats.num_vertices, 0);
        assert_eq!(stats.num_edges, 0);
        assert_eq!(stats.nash_williams_watermark, 0);
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            CsrGraph::from_multigraph(&MultiGraph::new(0)).to_bytes()
        );
        std::fs::remove_file(&edge_path).unwrap();
        std::fs::remove_file(&out_path).unwrap();
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let out_path = temp_path("err-out");
        // Self-loop.
        let loop_path = temp_path("err-loop");
        write_binary_edge_file(&loop_path, [(3u32, 3u32)]).unwrap();
        let err = build_csr_from_edge_file(
            &loop_path,
            EdgeListFormat::BinaryU32,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Torn binary pair.
        let torn_path = temp_path("err-torn");
        std::fs::write(&torn_path, [1u8, 0, 0, 0, 2, 0]).unwrap();
        assert!(build_csr_from_edge_file(
            &torn_path,
            EdgeListFormat::BinaryU32,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16),
        )
        .is_err());
        // Unparsable text.
        let bad_text = temp_path("err-text");
        std::fs::write(&bad_text, "0 one\n").unwrap();
        assert!(build_csr_from_edge_file(
            &bad_text,
            EdgeListFormat::Text,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16),
        )
        .is_err());
        // num_vertices too small.
        let small_path = temp_path("err-small");
        write_binary_edge_file(&small_path, [(0u32, 9u32)]).unwrap();
        assert!(build_csr_from_edge_file(
            &small_path,
            EdgeListFormat::BinaryU32,
            &out_path,
            &ExtsortConfig::with_budget(1 << 16).num_vertices(4),
        )
        .is_err());
        for p in [loop_path, torn_path, bad_text, small_path] {
            std::fs::remove_file(p).unwrap();
        }
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn isolated_trailing_vertices_survive() {
        build_and_compare(&[(0, 1)], 6, 1 << 16);
    }
}
