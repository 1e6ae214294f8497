//! An empty `DeltaBuffer` drain emits no flush metrics. `maintain.flushes`
//! lives in the process-global registry, so this file holds exactly one
//! test: nothing else in the process flushes a buffer.

use ss_core::StandardTiling;
use ss_maintain::{DeltaBuffer, FlushReport};
use ss_storage::{wstore::mem_store, IoStats};

#[test]
fn empty_flush_leaves_the_flush_counter_alone() {
    let flushes = ss_obs::global().counter("maintain.flushes");
    let map = StandardTiling::cube(2, 4, 2);
    let mut buf = DeltaBuffer::new();

    let mut cs = mem_store(map.clone(), 8, IoStats::default());
    assert_eq!(buf.flush_into(&mut cs), FlushReport::default());
    assert_eq!(flushes.get(), 0, "empty drains must not count as flushes");

    // The counter is live: one real delta, one flush, one count.
    buf.add(0, 0, 1.0);
    assert_eq!(buf.flush_into(&mut cs).boxes, 1);
    assert_eq!(flushes.get(), 1);
}
