//! The benchmark's global allocator: the system allocator plus two
//! counters the program cannot see — allocations per thread (for
//! `modules.allocs_per_lookup`) and live heap bytes (for
//! `memory.heap_peak_mb`). Live bytes are kept per thread slot, so counting
//! never contends, and summed when read; a block freed on another
//! thread than the one that allocated it just moves bytes between
//! slots.
//!
//! Counting is off until [`start_counting`]: untraced runs, whose CPU
//! figures are gated, pay one relaxed load per call and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::time::Duration;

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot(AtomicI64);

static LIVE: [Slot; SLOTS] = [const { Slot(AtomicI64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Count allocations and live bytes from now on.
pub fn start_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Whether allocations are being counted.
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn slot() -> &'static AtomicI64 {
    let i = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    });
    &LIVE[i].0
}

fn allocated(bytes: usize) {
    if counting() {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        slot().fetch_add(bytes as i64, Ordering::Relaxed);
    }
}

fn freed(bytes: usize) {
    if counting() {
        slot().fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

/// The system allocator, counted.
pub struct HeapMeter;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for HeapMeter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh reservation from the counted region's point
        // of view; count it like an allocation.
        allocated(new_size);
        freed(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes currently allocated by the whole process.
pub fn live_bytes() -> i64 {
    LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Samples [`live_bytes`] every few milliseconds on a thread of its own,
/// while allocations are counted.
pub struct HeapSampler {
    stop: std::sync::Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Vec<i64>>>,
}

impl HeapSampler {
    /// Start sampling. Read the baseline after this: the sampler's own
    /// buffer is then part of it.
    pub fn start() -> HeapSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        if !counting() {
            return HeapSampler { stop, thread: None };
        }
        let flag = std::sync::Arc::clone(&stop);
        let mut samples = Vec::with_capacity(1 << 16);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) && samples.len() < samples.capacity() {
                samples.push(live_bytes());
                std::thread::sleep(Duration::from_millis(2));
            }
            samples
        });
        HeapSampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop sampling; the highest and the median live-byte reading.
    pub fn finish(self) -> (i64, i64) {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self
            .thread
            .map(|t| t.join().expect("heap sampler panicked"))
            .unwrap_or_default();
        samples.push(live_bytes());
        samples.sort_unstable();
        (samples[samples.len() - 1], samples[samples.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_follow_allocations() {
        // Other tests allocate concurrently, so compare against a block
        // far larger than anything they hold.
        const BLOCK: i64 = 64 << 20;
        const SLACK: i64 = 8 << 20;
        start_counting();
        let before = live_bytes();
        let allocs = thread_allocations();
        let block = vec![0u8; BLOCK as usize];
        let held = live_bytes();
        assert!(held - before >= BLOCK - SLACK);
        assert!(thread_allocations() > allocs);
        drop(block);
        assert!(held - live_bytes() >= BLOCK - SLACK);
    }
}
