//! The benchmark's own arithmetic: medians, time to the final hypervolume,
//! CPU utilisation, and the process resource counters they read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Median of `values` (the mean of the middle two for an even count); `0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Given an anytime trace of `(seconds since start, hypervolume so far)`
/// samples in time order, returns the index and time of the first sample
/// whose hypervolume equals the end-of-run value. `None` for an empty trace.
pub fn time_to_final(trace: &[(f64, f64)]) -> Option<(usize, f64)> {
    let &(_, last) = trace.last()?;
    trace
        .iter()
        .position(|&(_, hv)| hv >= last)
        .map(|i| (i, trace[i].0))
}

/// Process CPU time over the capacity the wall clock offered: `cpu / (wall
/// × threads)`, in `[0, 1]` when the process used at most `threads` cores.
pub fn cpu_util(cpu_s: f64, wall_s: f64, threads: usize) -> f64 {
    if wall_s <= 0.0 || threads == 0 {
        return 0.0;
    }
    cpu_s / (wall_s * threads as f64)
}

/// The process allocator: the system allocator, counting live heap bytes
/// and their peak so each timed iteration can report the heap it reached.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters have no effect on memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` meets `realloc`'s
        // contract by the caller's guarantee.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Restarts the heap peak from the heap in use now.
pub fn reset_heap_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_heap_peak`], in megabytes.
pub fn heap_peak_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage_self() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes only within it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let usage = rusage_self();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// Peak resident memory of this process so far, in megabytes.
pub fn peak_rss_mb() -> f64 {
    rusage_self().ru_maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn time_to_final_finds_the_first_sample_at_the_final_value() {
        // The hypervolume grows, plateaus below its final value, then
        // reaches it at t = 0.7 and stays there through later evaluations.
        let trace = [
            (0.1, 0.0),
            (0.2, 0.40),
            (0.3, 0.40),
            (0.5, 0.55),
            (0.7, 0.61),
            (0.9, 0.61),
            (1.2, 0.61),
        ];
        assert_eq!(time_to_final(&trace), Some((4, 0.7)));
        assert_eq!(time_to_final(&[]), None);
        // A run whose very first point is already the best.
        assert_eq!(time_to_final(&[(0.05, 0.3), (0.4, 0.3)]), Some((0, 0.05)));
    }

    #[test]
    fn cpu_util_is_cpu_over_wall_times_threads() {
        assert!((cpu_util(3.0, 2.0, 2) - 0.75).abs() < 1e-12);
        assert_eq!(cpu_util(1.0, 0.0, 2), 0.0);
    }

    #[test]
    fn process_counters_are_live() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn heap_peak_sees_a_large_allocation() {
        reset_heap_peak();
        let block = std::hint::black_box(vec![0u8; 8 << 20]);
        assert!(heap_peak_mb() >= 8.0, "peak {} MB", heap_peak_mb());
        drop(block);
    }
}
