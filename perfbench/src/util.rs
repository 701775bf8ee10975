//! Small measurement helpers: seeded hashing, CPU clocks, thread
//! inventories, memory readings and percentiles.

use std::net::Ipv4Addr;
use std::time::Instant;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a seed and two coordinates.
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed) ^ a) ^ b.rotate_left(17))
}

/// FNV-1a over the ASCII-lowercased bytes of `name` (a trailing dot is
/// ignored), so the answering side and the oracle agree on any spelling.
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.trim_end_matches('.').bytes() {
        h ^= u64::from(b.to_ascii_lowercase());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The address every loopback answerer gives for `name`'s `A` record
/// (inside 10.0.0.0/8). `k` selects one member of a larger RRset.
pub fn addr_for(name: &str, k: u32) -> Ipv4Addr {
    let h = name_hash(name).wrapping_add(u64::from(k).wrapping_mul(0x9e37_79b9));
    Ipv4Addr::new(10, (h >> 16) as u8, (h >> 8) as u8, h as u8)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn gettid() -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out `struct timespec` for the
    // duration of the call; an invalid clock id only returns an error.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (live and exited threads), in ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of another live thread of this process, in ns (0 once it
/// has exited). Linux encodes a per-thread CPU clock as
/// `(!tid << 3) | CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD`.
pub fn tid_cpu_ns(tid: i32) -> u64 {
    read_clock((!tid << 3) | 6)
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> i32 {
    // SAFETY: gettid has no preconditions and cannot fail.
    unsafe { gettid() }
}

/// Thread ids of every live thread of this process.
pub fn live_tids() -> Vec<i32> {
    let mut tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    tids.sort_unstable();
    tids
}

/// Summed CPU time of `tids`, in ns.
pub fn tids_cpu_ns(tids: &[i32]) -> u64 {
    tids.iter().map(|&t| tid_cpu_ns(t)).sum()
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest standard percentile with at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Median of a list of values (the list is sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nanoseconds per call of `f`, the median of `rounds` timed rounds of
/// `iters` calls each.
pub fn time_ns_per_call(rounds: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / iters.max(1) as f64
        })
        .collect();
    median(&mut per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_hash_ignores_case_and_trailing_dot() {
        assert_eq!(name_hash("WWW.Example.com."), name_hash("www.example.com"));
        assert_ne!(name_hash("a.test"), name_hash("b.test"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(tail_percentile(100_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
    }

    #[test]
    fn thread_clocks_advance() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(mix(i)));
        }
        assert!(thread_cpu_ns() > before);
        assert!(tid_cpu_ns(current_tid()) > 0);
        assert!(live_tids().contains(&current_tid()));
    }
}
