//! Fixed heap thresholds for the process allocator.
//!
//! A query allocates its column buffers afresh and frees them when it
//! ends; a 32,768-row Int64 column alone is 256 KiB. glibc's malloc
//! adapts two thresholds to the sizes it has seen freed: the size from
//! which a request is served by its own `mmap` (and `munmap`ed on free),
//! and the free space at the top of a heap beyond which the heap is
//! returned to the kernel. Both start low (128 KiB) and only rise, so a
//! query's cost depended on what ran before it: until some large buffer
//! had been freed, every query mapped, faulted in and unmapped its
//! buffers, and per-query worker threads spread that history over several
//! arenas in an order set by scheduling. Wall times then moved by tens of
//! percent between identical runs.
//!
//! [`pin_thresholds`] sets both thresholds once, to the ceiling glibc's
//! own adaptation stops at, which turns the adaptation off: freed query
//! buffers stay in the heap and serve the next query, whatever ran
//! before. Only the wall clock changes; simulated results do not depend
//! on the allocator.

/// Pins the allocator's thresholds (once per process; later calls do
/// nothing). A no-op where the allocator is not glibc's.
pub fn pin_thresholds() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(imp::pin);
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod imp {
    use std::os::raw::c_int;

    // <malloc.h>
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;

    /// Largest buffer served from the heap rather than its own mapping:
    /// the ceiling of glibc's dynamic mmap threshold on 64-bit targets.
    const MMAP_THRESHOLD: c_int = 32 << 20;

    /// Free bytes a heap keeps at its top before it is trimmed: twice the
    /// mmap threshold, as glibc's adaptation sets it.
    const TRIM_THRESHOLD: c_int = 2 * MMAP_THRESHOLD;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    pub(super) fn pin() {
        // SAFETY: `mallopt` only updates allocator parameters under the
        // allocator's own lock; both values are in range for glibc.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod imp {
    pub(super) fn pin() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn query_sized_buffers_come_from_the_heap() {
        /// `struct mallinfo2` from <malloc.h>.
        #[repr(C)]
        #[allow(dead_code)]
        struct MallInfo2 {
            arena: usize,
            ordblks: usize,
            smblks: usize,
            hblks: usize,
            hblkhd: usize,
            usmblks: usize,
            fsmblks: usize,
            uordblks: usize,
            fordblks: usize,
            keepcost: usize,
        }
        extern "C" {
            fn mallinfo2() -> MallInfo2;
        }
        pin_thresholds();
        // SAFETY: `mallinfo2` only reads allocator statistics.
        let mapped = || unsafe { mallinfo2() }.hblkhd;
        let before = mapped();
        // A 256 KiB column and a 4 MiB batch: both above glibc's initial
        // 128 KiB mmap threshold, both below the pinned one. (Other tests
        // may free a mapping meanwhile, never add one this large.)
        let column = vec![1i64; 32 << 10];
        let batch = vec![2u8; 4 << 20];
        assert!(mapped() <= before, "query-sized buffers were mmapped");
        assert_eq!(column.len() * 8 + batch.len(), (256 << 10) + (4 << 20));
    }
}
