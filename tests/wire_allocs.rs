//! Allocation counts of the wire codec, under a counting global
//! allocator.
//!
//! The codec's cost rule (DESIGN §12): decoding makes one allocation per
//! sequence, and encoding makes one per frame, sized by
//! `Frame::encoded_len`.  A stage frame of the `cluster2_tcp` shape —
//! 32 records of 14 words, 4148 bytes — therefore decodes in 33
//! allocations (the record vector and each record's words) and encodes
//! in one.  A decoder that grows its vectors element by element, or an
//! encoder that grows its buffer, fails here on the count, whatever the
//! machine's speed.
//!
//! The counter is per thread, so the test harness's own threads do not
//! disturb it; this binary holds one test all the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grape6::net::{Frame, JRecord};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller's guarantees on
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn stage_frames_cost_one_allocation_per_sequence() {
    const RECORDS: u64 = 32;
    const WORDS: u64 = 14;
    let records: Vec<JRecord> = (0..RECORDS)
        .map(|i| JRecord {
            index: i,
            words: (0..WORDS)
                .map(|w| (i * WORDS + w).wrapping_mul(0x9e37))
                .collect(),
        })
        .collect();
    let frame = Frame::Stage {
        gen: 1,
        step: 7,
        stage: 0,
        t_min: 0.125,
        ckpt: 0,
        records: records.clone(),
        pad: 0,
    };

    let (bytes, encode) = allocs(|| frame.encode());
    assert_eq!(bytes.len(), 4148, "the cluster2_tcp stage frame");
    let (back, decode) = allocs(|| Frame::decode(&bytes));
    assert_eq!(back.as_ref(), Ok(&frame));
    let seq = JRecord::encode_seq(&records);
    let (back, decode_seq) = allocs(|| JRecord::decode_seq(&seq));
    assert_eq!(back.as_ref(), Ok(&records));

    let one_per_sequence = 1 + RECORDS as usize;
    assert_eq!(
        (encode, decode, decode_seq),
        (1, one_per_sequence, one_per_sequence),
        "allocations of (Frame::encode, Frame::decode, JRecord::decode_seq)"
    );
}
