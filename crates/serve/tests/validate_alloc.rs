//! `Query::validate` formats (and allocates) only to report an error. A
//! routed `partial` carries ~170 terms and every one of them used to cost a
//! `format!("terms[{k}]")` on the success path. The counting allocator is
//! process-wide, so this file holds exactly one test.

use ss_core::reconstruct::Contributions;
use ss_serve::Query;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread (const-initialised and
    /// destructor-free, so touching it from the allocator cannot recurse).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A rank-2 `partial` over `terms`.
fn partial(terms: impl IntoIterator<Item = [usize; 2]>) -> Query {
    let mut plan = Contributions::with_capacity(2, 0);
    for idx in terms {
        plan.push(&idx, 0.5);
    }
    Query::Partial { plan }
}

#[test]
fn valid_requests_validate_without_allocating() {
    let dims = [64usize, 64];
    let requests = [
        Query::Point { pos: vec![3, 9] },
        Query::RangeSum {
            lo: vec![0, 5],
            hi: vec![63, 40],
        },
        partial((0..170).map(|k| [k % 64, k / 3])),
    ];
    for q in &requests {
        let before = ALLOCATIONS.with(Cell::get);
        let verdict = q.validate(&dims);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert!(verdict.is_ok());
        assert_eq!(allocated, 0, "{} validated with allocations", q.op());
    }
    // The error path still names the term.
    let bad = partial([[1, 1], [1, 64]]);
    assert_eq!(
        bad.validate(&dims).unwrap_err(),
        "terms[1][1] = 64 out of range (axis size 64)"
    );
}
