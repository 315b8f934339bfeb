//! A counting allocator: the system allocator plus a tally of every
//! `alloc`/`realloc` made while armed. A binary or test installs it as
//! its `#[global_allocator]` and reads the tally through [`counted`] —
//! the `alloc_gate` binary for its marginal-allocation gates, the
//! decoder fuzz suites for their allocation ceilings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while armed; forwards everything to [`System`].
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics and the traced
// path disarms itself before it allocates for the backtrace.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            let n = ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            if n.is_multiple_of(997) && TRACE.load(Ordering::Relaxed) {
                ARMED.store(false, Ordering::SeqCst);
                eprintln!(
                    "--- sampled alloc of {} bytes ---\n{}",
                    layout.size(),
                    std::backtrace::Backtrace::force_capture()
                );
                ARMED.store(true, Ordering::SeqCst);
            }
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Prints a sampled backtrace for one in every 997 counted allocations.
pub fn set_trace(on: bool) {
    TRACE.store(on, Ordering::SeqCst);
}

/// Runs `f` with the counter armed; returns `(allocs, bytes, result)`.
/// Counts every thread of the process, so callers keep the others quiet.
pub fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), ALLOC_BYTES.load(Ordering::SeqCst), out)
}
