//! # zdns-pacing
//!
//! Rate-budgeting primitives shared by every layer that schedules packet
//! sends: the discrete-event simulator's resolver models (the *server*
//! side of rate limiting — Google Public DNS's per-client-IP buckets cost
//! the paper's /32 scans a ~6× success drop) and the real-socket drivers'
//! client-side pacer (the *polite scanning* countermeasure). One
//! [`TokenBucket`] implementation serves both, so the simulated limiter
//! and the client pacer can never drift apart semantically.
//!
//! Time is plain nanoseconds (`u64`) — the same representation as
//! `zdns_netsim::SimTime` — so the types work identically under virtual
//! and wall-clock time.
//!
//! # Example
//!
//! ```
//! use zdns_pacing::{TokenBucket, SECONDS};
//!
//! let mut bucket = TokenBucket::new(2.0, 1.0); // 2 tokens/s, burst of 1
//! assert!(bucket.try_take(0));
//! assert!(!bucket.try_take(0)); // burst exhausted, rejected now...
//! assert!(bucket.try_take(SECONDS)); // ...but refilled a second later
//! ```

#![warn(missing_docs)]

mod atomic_bucket;
mod credit;

pub use atomic_bucket::{AtomicBucket, SlotLease};
pub use credit::CreditPool;

use std::net::Ipv4Addr;

/// Nanoseconds — wall-clock or virtual, callers decide.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;

/// A token bucket: `rate` tokens/second, capacity `burst`.
///
/// Two consumption styles:
///
/// * [`TokenBucket::try_take`] — classic server-side limiting: take a
///   token if one is available *now*, else reject. Never goes negative.
/// * [`TokenBucket::reserve`] — client-side pacing: always succeeds,
///   debiting the bucket (possibly into debt) and returning the earliest
///   instant the caller may act. Consecutive reservations get distinct,
///   `1/rate`-spaced release times, so a queue of deferred sends drains
///   at exactly the configured rate with no thundering herd.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: Nanos,
}

impl TokenBucket {
    /// New bucket, initially full.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_refill: 0,
        }
    }

    fn refill(&mut self, now: Nanos) {
        if now > self.last_refill {
            let dt = (now - self.last_refill) as f64 / SECONDS as f64;
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last_refill = now;
        }
    }

    /// Take one token if available.
    pub fn try_take(&mut self, now: Nanos) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Debit one token unconditionally and return the earliest instant
    /// the debited send may go on the wire: `now` when a token was
    /// available, otherwise the future time at which the accumulated debt
    /// is repaid by refill.
    pub fn reserve(&mut self, now: Nanos) -> Nanos {
        self.refill(now);
        self.tokens -= 1.0;
        if self.tokens >= 0.0 {
            return now;
        }
        // tokens is negative: the bucket owes |tokens| tokens of refill
        // before this reservation is covered.
        let wait_secs = -self.tokens / self.rate;
        now + (wait_secs * SECONDS as f64).ceil() as Nanos
    }

    /// Current token count (after refill), for tests and introspection.
    pub fn available(&mut self, now: Nanos) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// The configured fill rate in tokens/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// How many arbitrary entries a full [`ClientBuckets`] table probes when
/// it must make room: the victim is the stalest of the probed set. Keeps
/// eviction O(1) per packet even under a spoofed-source flood, where every
/// datagram is a table miss.
const EVICT_PROBES: usize = 16;

/// A bounded per-client token-bucket table — the server side's
/// response-rate-limiting gate (the same mechanism Google Public DNS
/// applies to the paper's /32 scans, now pointed at *our* clients).
///
/// Differences from the scanning pacer's host table:
///
/// * **`try_take` flavor**: over-budget clients are *refused* (the
///   datagram is dropped), never deferred — a server must shed load, not
///   queue it for an unauthenticated source.
/// * **Hard capacity bound**: a spoofed-source flood can mint one entry
///   per forged /32, so the table refuses to grow past `capacity`.
///   Admitting a new client at capacity evicts the stalest of
///   `EVICT_PROBES` arbitrary entries (idle entries go first) and
///   counts the eviction, so memory stays bounded and the pressure is
///   observable.
#[derive(Debug)]
pub struct ClientBuckets {
    rate: f64,
    burst: f64,
    capacity: usize,
    idle_after: Nanos,
    clients: std::collections::HashMap<Ipv4Addr, ClientEntry>,
    evictions: u64,
    refusals: u64,
}

#[derive(Debug)]
struct ClientEntry {
    bucket: TokenBucket,
    last_seen: Nanos,
}

impl ClientBuckets {
    /// Table for `rate_pps` responses/second per client IP, holding at
    /// most `capacity` client entries. `rate_pps <= 0` disables the gate
    /// (every admit succeeds, nothing is tracked). Burst is one second's
    /// budget, clamped to `[1, 32]` — enough to absorb a stub resolver's
    /// retry burst without letting a quiet client save up an attack.
    pub fn new(rate_pps: f64, capacity: usize) -> ClientBuckets {
        ClientBuckets {
            rate: rate_pps,
            burst: rate_pps.clamp(1.0, 32.0),
            capacity: capacity.max(1),
            idle_after: 10 * SECONDS,
            clients: std::collections::HashMap::new(),
            evictions: 0,
            refusals: 0,
        }
    }

    /// True when a positive per-client rate was configured.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Admit one response to `client` at `now`. Returns false when the
    /// client is over budget — the caller drops the query silently (UDP;
    /// TCP is the client's escape hatch, as in classic DNS RRL).
    pub fn admit(&mut self, client: Ipv4Addr, now: Nanos) -> bool {
        if !self.enabled() {
            return true;
        }
        if !self.clients.contains_key(&client) && self.clients.len() >= self.capacity {
            self.evict_one(now);
        }
        let (rate, burst) = (self.rate, self.burst);
        let entry = self.clients.entry(client).or_insert_with(|| ClientEntry {
            bucket: TokenBucket::new(rate, burst),
            last_seen: now,
        });
        entry.last_seen = now;
        let ok = entry.bucket.try_take(now);
        if !ok {
            self.refusals += 1;
        }
        ok
    }

    /// Evict the stalest of up to [`EVICT_PROBES`] arbitrary entries,
    /// preferring one idle past `idle_after`. HashMap iteration order is
    /// effectively random, so repeated probes cover the table without a
    /// full O(n) sweep per packet.
    fn evict_one(&mut self, now: Nanos) {
        let mut victim: Option<(Ipv4Addr, Nanos)> = None;
        for (ip, entry) in self.clients.iter().take(EVICT_PROBES) {
            if victim.is_none_or(|(_, seen)| entry.last_seen < seen) {
                victim = Some((*ip, entry.last_seen));
            }
            if entry.last_seen.saturating_add(self.idle_after) <= now {
                victim = Some((*ip, entry.last_seen));
                break;
            }
        }
        if let Some((ip, _)) = victim {
            self.clients.remove(&ip);
            self.evictions += 1;
        }
    }

    /// Number of client IPs currently tracked (bounded by capacity).
    pub fn tracked(&self) -> usize {
        self.clients.len()
    }

    /// Entries evicted to keep the table within its capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Admissions refused because the client was over budget.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }
}

/// Verdict of a send-gate admission check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaceDecision {
    /// Send immediately.
    Ready,
    /// Hold the send until `until`; the gate has already accounted for
    /// it, so the caller must send at that time *without* re-admitting.
    Defer {
        /// Absolute release time in the caller's clock domain.
        until: Nanos,
        /// True when the binding constraint was per-destination (host
        /// bucket or backoff penalty) rather than the global budget —
        /// what drivers report as a per-destination throttle event.
        host_limited: bool,
    },
}

/// The client-side pacing interface a send path consults before putting
/// a query on the wire. Implemented by `zdns_core::pacer::Pacer`, a
/// driver's handle on the lock-free `ConcurrentPacer`; accepted by the
/// simulation engine as a pluggable hook so the same pacer closes the
/// loop under virtual time.
pub trait SendGate {
    /// Admit one send to `dest` at `now`. A [`PaceDecision::Defer`]
    /// reserves the send's budget — the caller must perform it at the
    /// returned release time without calling `admit` again.
    fn admit(&mut self, dest: Ipv4Addr, now: Nanos) -> PaceDecision;

    /// Feedback: a response from `dest` was delivered to its lookup.
    fn on_success(&mut self, dest: Ipv4Addr, now: Nanos);

    /// Feedback: a query to `dest` timed out or failed in transport —
    /// the real-socket stand-in for ICMP backpressure signals.
    fn on_failure(&mut self, dest: Ipv4Addr, now: Nanos);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_limits() {
        let mut tb = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            assert!(tb.try_take(0));
        }
        assert!(!tb.try_take(0));
        // After 100ms, one token has refilled.
        assert!(tb.try_take(SECONDS / 10));
        assert!(!tb.try_take(SECONDS / 10));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut tb = TokenBucket::new(1000.0, 10.0);
        assert!((tb.available(100 * SECONDS) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut tb = TokenBucket::new(100.0, 10.0);
        let mut granted = 0;
        // Offer 10x the rate for 10 simulated seconds.
        for i in 0..10_000u64 {
            let now = i * SECONDS / 1000;
            if tb.try_take(now) {
                granted += 1;
            }
        }
        // ~100/s for 10s plus the initial burst.
        assert!((1000..=1050).contains(&granted), "{granted}");
    }

    #[test]
    fn reserve_spaces_releases_at_exact_rate() {
        let mut tb = TokenBucket::new(100.0, 1.0);
        let first = tb.reserve(0);
        assert_eq!(first, 0, "burst token covers the first send");
        let mut prev = first;
        for _ in 0..50 {
            let next = tb.reserve(0);
            let gap = next - prev;
            // 1/rate = 10ms, ±1ns of ceil slack per reservation.
            assert!((gap as i64 - (SECONDS / 100) as i64).abs() <= 2, "{gap}");
            prev = next;
        }
    }

    #[test]
    fn client_buckets_limit_per_client() {
        let mut cb = ClientBuckets::new(2.0, 128);
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        assert!(cb.admit(a, 0));
        assert!(cb.admit(a, 0));
        assert!(!cb.admit(a, 0), "burst spent");
        assert!(cb.admit(b, 0), "clients are independent");
        assert!(cb.admit(a, SECONDS), "refilled after a second");
        assert_eq!(cb.refusals(), 1);
    }

    #[test]
    fn client_buckets_enforce_hard_cap() {
        let mut cb = ClientBuckets::new(100.0, 64);
        // A spoofed-source flood: every packet a fresh /32.
        for i in 0..10_000u32 {
            let ip = Ipv4Addr::from(0x0a00_0000 + i);
            cb.admit(ip, u64::from(i) * MILLIS);
        }
        assert!(cb.tracked() <= 64, "tracked {}", cb.tracked());
        assert_eq!(cb.evictions(), 10_000 - 64);
    }

    #[test]
    fn client_buckets_evict_idle_first() {
        let mut cb = ClientBuckets::new(100.0, 4);
        let idle = Ipv4Addr::new(10, 0, 0, 1);
        cb.admit(idle, 0);
        for i in 2..=4u8 {
            cb.admit(Ipv4Addr::new(10, 0, 0, i), 20 * SECONDS);
        }
        // Table full; the entry idle past the threshold goes first.
        cb.admit(Ipv4Addr::new(10, 0, 0, 5), 20 * SECONDS);
        assert_eq!(cb.evictions(), 1);
        assert_eq!(cb.tracked(), 4);
        assert!(
            cb.admit(idle, 20 * SECONDS),
            "idle entry was evicted, so this re-admits at full burst"
        );
        assert_eq!(cb.evictions(), 2, "re-adding at capacity evicts again");
    }

    #[test]
    fn client_buckets_disabled_at_zero_rate() {
        let mut cb = ClientBuckets::new(0.0, 4);
        assert!(!cb.enabled());
        for i in 0..100u8 {
            assert!(cb.admit(Ipv4Addr::new(10, 1, 0, i), 0));
        }
        assert_eq!(cb.tracked(), 0, "disabled gate tracks nothing");
        assert_eq!(cb.evictions(), 0);
    }

    #[test]
    fn reserve_debt_is_repaid_by_waiting() {
        let mut tb = TokenBucket::new(10.0, 1.0);
        let t1 = tb.reserve(0);
        let t2 = tb.reserve(0);
        assert_eq!(t1, 0);
        assert!(t2 >= SECONDS / 10);
        // By t2 the debt is exactly repaid: the next reservation lands
        // one more interval out.
        let t3 = tb.reserve(t2);
        assert!(t3 >= t2 + SECONDS / 10 - 2, "{t3} vs {t2}");
    }
}
