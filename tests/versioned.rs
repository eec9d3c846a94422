//! Concurrency contract of the versioned layer, loom-free: K reader
//! threads hammer [`SnapshotReader::current`] while the single writer
//! churns edges and publishes epochs. Every answer a reader gets must be
//! internally consistent with exactly **one** published epoch — the
//! snapshot's fingerprint verifies, its watermark, coloring, roots and
//! orientation all describe the same state, and epochs only move
//! forward. Every reader completes reads while the writer runs: the
//! writer takes the shared lock only to swap a finished snapshot in. A
//! golden pins every answer a churned snapshot gives.

use forest_decomp::api::{
    ColoringSnapshot, DecompositionRequest, EdgeUpdate, Engine, ProblemKind, SnapshotReader,
    VersionedDecomposer,
};
use forest_graph::{generators, Color, EdgeId, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const N: usize = 48;
const READERS: usize = 4;
const ROUNDS: usize = 200;

/// One reader's hammer loop: returns how many snapshots it checked.
fn hammer(reader: SnapshotReader, stop: Arc<AtomicBool>) -> usize {
    let mut reads = 0usize;
    let mut last_epoch = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let snap = reader.current();
        // No torn reads: the fingerprint stamped at publish time still
        // covers every queryable field.
        assert!(snap.verify(), "torn snapshot at epoch {}", snap.epoch());
        // Epochs only move forward for any single reader.
        assert!(
            snap.epoch() >= last_epoch,
            "epoch went backwards: {} after {}",
            snap.epoch(),
            last_epoch
        );
        last_epoch = snap.epoch();
        // Every field describes the *same* epoch.
        let wm = snap.watermark();
        assert_eq!(wm.epoch, snap.epoch());
        assert_eq!(wm.live_edges, snap.live_edges());
        assert_eq!(wm.color_budget, snap.color_budget());
        assert_eq!(wm.num_vertices, snap.num_vertices());
        assert!(wm.lower_bound <= wm.color_budget.max(1));
        // The stable-id list and the coloring agree on what is alive.
        let (compact, stable_ids) = snap.compact_graph();
        assert_eq!(stable_ids.len(), snap.live_edges());
        assert_eq!(compact.num_edges(), snap.live_edges());
        for &e in stable_ids {
            let c = snap
                .color_of_edge(e)
                .unwrap_or_else(|| panic!("live edge {e:?} uncolored at epoch {}", snap.epoch()));
            assert!(c.index() < snap.color_budget().max(1));
        }
        // The orientation honors the epoch's budget (Corollary 1.1 shape).
        assert!(snap.max_out_degree() <= snap.color_budget());
        reads += 1;
    }
    reads
}

#[test]
fn concurrent_readers_never_observe_torn_state() {
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(13);
    let mut writer = VersionedDecomposer::new(request, N).expect("writer");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = writer.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || hammer(reader, stop))
        })
        .collect();

    // The writer churns and publishes while the readers hammer.
    let mut rng = StdRng::seed_from_u64(99);
    let mut live: Vec<EdgeId> = Vec::new();
    for _ in 0..ROUNDS {
        let mut batch = Vec::new();
        let mut dropped = Vec::new();
        for (slot, &e) in live.iter().enumerate() {
            if batch.len() < 4 && rng.gen_bool(0.3) {
                batch.push(EdgeUpdate::delete(e));
                dropped.push(slot);
            }
        }
        while batch.len() < 10 {
            let u = rng.gen_range(0..N);
            let v = rng.gen_range(0..N);
            if u != v {
                batch.push(EdgeUpdate::insert(u, v));
            }
        }
        let report = writer.apply_batch(&batch).expect("batch");
        for slot in dropped.into_iter().rev() {
            live.swap_remove(slot);
        }
        live.extend(report.inserted_edges.iter().copied());
        let snap = writer.publish();
        assert_eq!(snap.live_edges(), live.len());
    }

    stop.store(true, Ordering::SeqCst);
    let reads: Vec<usize> = readers
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .collect();
    // Readers genuinely ran concurrently with the writer (a publish holds
    // the lock only for one pointer swap, so even a slow machine gets
    // plenty of reads per thread).
    for (i, &r) in reads.iter().enumerate() {
        assert!(r > 0, "reader {i} never completed a read");
    }
    assert_eq!(writer.published_epoch(), ROUNDS as u64);
    // After the writer quiesces, readers converge on the final epoch.
    let final_snap = writer.reader().current();
    assert_eq!(final_snap.epoch(), ROUNDS as u64);
    assert_eq!(final_snap.live_edges(), live.len());
    assert!(final_snap.verify());
}

/// A detached reader observes each epoch as soon as `publish()` returns
/// on the writer's thread, and never earlier.
#[test]
fn readers_see_each_epoch_once_published() {
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(5);
    let mut writer = VersionedDecomposer::new(request, 8).expect("writer");
    let reader = writer.reader();
    assert_eq!(reader.current().epoch(), 0);
    for round in 1..=5u64 {
        writer
            .apply(EdgeUpdate::insert(0, round as usize))
            .expect("insert");
        // Not yet published: readers still see the previous epoch.
        assert_eq!(reader.current().epoch(), round - 1);
        writer.publish();
        assert_eq!(reader.current().epoch(), round);
    }
}

/// FNV-1a over bytes: the golden's own hash, independent of the
/// snapshot's fingerprint.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Appends every answer `snap` gives: the colour of each id below `span`
/// (plus one past it), every in-budget forest root, every out list, the
/// out-degree, the watermark and the compact graph with its stable ids.
/// Absent answers encode as `u64::MAX`.
fn answers(snap: &ColoringSnapshot, span: usize, bytes: &mut Vec<u8>) {
    let mut word = |w: u64| bytes.extend(w.to_le_bytes());
    for e in 0..=span {
        word(
            snap.color_of_edge(EdgeId::new(e))
                .map_or(u64::MAX, |c| c.index() as u64),
        );
    }
    for c in 0..snap.color_budget() {
        for v in 0..snap.num_vertices() {
            let root = snap.forest_of_vertex(Color::new(c), VertexId::new(v));
            word(root.map_or(u64::MAX, |r| r.index() as u64));
        }
    }
    for v in 0..snap.num_vertices() {
        let out = snap.orientation_out(VertexId::new(v)).unwrap();
        word(out.len() as u64);
        for e in out {
            word(e.index() as u64);
        }
    }
    word(snap.max_out_degree() as u64);
    let w = snap.watermark();
    for field in [
        w.epoch,
        w.lower_bound as u64,
        w.color_budget as u64,
        w.live_edges as u64,
        w.num_vertices as u64,
    ] {
        word(field);
    }
    let (compact, ids) = snap.compact_graph();
    for ((e, u, v), stable) in compact.edges().zip(ids) {
        for x in [e.index(), u.index(), v.index(), stable.index()] {
            word(x as u64);
        }
    }
}

/// Golden: every query answer of the last epochs of a seeded churn on
/// `grid(12, 12)`. Each batch deletes live edges and inserts random
/// pairs, then publishes; the id space is compacted mid-script, so the
/// hashed epochs see compact ids with fresh holes. Any change to how a
/// snapshot is frozen that alters one answer moves the hash.
#[test]
fn golden_snapshot_answers_after_churn() {
    let g = generators::grid(12, 12);
    let n = g.num_vertices();
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(8);
    let mut vd = VersionedDecomposer::from_graph(request, &g).unwrap();
    let mut live: Vec<EdgeId> = (0..g.num_edges()).map(EdgeId::new).collect();
    let mut rng = StdRng::seed_from_u64(18);
    let mut bytes = Vec::new();
    const BATCHES: usize = 40;
    for batch_no in 0..BATCHES {
        if batch_no == BATCHES / 2 {
            vd.compact_ids();
            live = vd
                .inner()
                .live_graph()
                .live_edges()
                .map(|(e, _, _)| e)
                .collect();
        }
        let mut batch = Vec::new();
        for _ in 0..6 {
            if !live.is_empty() {
                let slot = rng.gen_range(0..live.len());
                batch.push(EdgeUpdate::delete(live.swap_remove(slot)));
            }
        }
        while batch.len() < 16 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                batch.push(EdgeUpdate::insert(u, v));
            }
        }
        let report = vd.apply_batch(&batch).unwrap();
        live.extend(report.inserted_edges);
        let snap = vd.publish();
        assert!(snap.verify());
        if batch_no + 3 >= BATCHES {
            answers(&snap, vd.inner().live_graph().edge_id_span(), &mut bytes);
        }
    }
    let stats = vd.current().stats();
    assert!(stats.exchanges > 0, "the script must exercise exchanges");
    assert!(stats.fast_deletes > 0, "the script must delete");
    assert_eq!(fnv(&bytes), 0x46ee0201e9a80075);
}
