//! `read_frame` never sizes an allocation by an unvalidated length prefix:
//! a peer that declares the maximum frame length and then sends only a few
//! bytes costs the reader no more than those bytes (plus a small fixed
//! reservation), and the read fails with `UnexpectedEof`.
//!
//! A counting global allocator records the largest single request made
//! while the read runs. This file holds one test, so no other test's
//! allocations race the measurement.

use forest_serve::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Forwards to the system allocator, remembering the largest request made
/// while [`TRACKING`] is set.
struct LargestAllocation;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if TRACKING.load(Ordering::SeqCst) {
        LARGEST.fetch_max(size, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System.realloc`; `ptr` came from this allocator,
    // which is `System` underneath.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` were produced by `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System.dealloc`; `ptr` came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` were produced by `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` with allocation tracking on; returns its result and the largest
/// single allocation it made.
fn tracked<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let out = f();
    TRACKING.store(false, Ordering::SeqCst);
    (out, LARGEST.load(Ordering::SeqCst))
}

#[test]
fn a_lying_length_prefix_costs_only_the_bytes_sent() {
    // Declares 64 MiB, carries 16 bytes, then the stream ends.
    let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xA5; 16]);
    let (result, largest) = tracked(|| read_frame(&mut wire.as_slice()));
    let err = result.expect_err("a frame missing its payload must not read");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest <= 1 << 20,
        "read_frame made a {largest}-byte allocation for a 16-byte payload"
    );

    // An honest frame still reads back whole.
    let payload: Vec<u8> = (0..200_000u32).map(|i| i.to_le_bytes()[0]).collect();
    let mut honest = Vec::new();
    write_frame(&mut honest, &payload).unwrap();
    assert_eq!(read_frame(&mut honest.as_slice()).unwrap(), payload);
}
