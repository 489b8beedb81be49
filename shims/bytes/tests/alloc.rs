//! An empty `Bytes` allocates nothing: control packets, FIN segments and
//! NAK_ERR hole fillers build one per packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;

/// Counts this thread's allocations, so parallel tests cannot interfere.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn empty_buffers_and_their_clones_allocate_nothing() {
    let empty = Vec::new();
    let n = allocations(|| {
        let a = Bytes::new();
        let b = Bytes::from(empty);
        let c = Bytes::copy_from_slice(&[]);
        let clones = [a.clone(), b.clone(), c.clone()];
        assert!(clones.iter().all(Bytes::is_empty));
    });
    assert_eq!(n, 0);
}

#[test]
fn a_non_empty_buffer_allocates_once_and_clones_share_it() {
    let n = allocations(|| {
        let a = Bytes::copy_from_slice(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
    });
    assert_eq!(n, 1);
}
