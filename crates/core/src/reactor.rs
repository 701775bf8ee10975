//! The event-driven real-socket engine.
//!
//! One [`Reactor`] owns one long-lived non-blocking UDP socket (the
//! paper's §3.4 socket-reuse trick) and multiplexes hundreds-to-thousands
//! of in-flight lookup machines over it:
//!
//! * a **demux table** keyed by `(peer address, wire transaction id)`
//!   routes each incoming datagram to the machine that owns it — wire ids
//!   are reallocated per query so concurrent machines can never collide;
//! * a **hashed timer wheel** arms one entry per in-flight query and
//!   delivers [`ClientEvent::Timeout`] when it fires, which is what makes
//!   the machines' own retry logic run without any blocking waits;
//! * a small **blocking TCP side-pool** absorbs truncation-fallback
//!   exchanges so the UDP loop never stalls on a TCP handshake;
//! * a **pacer** ([`Pacer`]) gates every UDP send against
//!   global and per-destination budgets: deferred sends are parked on a
//!   queue whose release times are armed on the same timer wheel — no
//!   extra threads, no busy-wait — and timeout/error streaks feed
//!   per-destination adaptive backoff;
//! * a **batched syscall layer** ([`BatchIo`]) amortizes per-datagram
//!   syscall cost: sends emitted in the same event-loop tick — admission
//!   bursts, same-tick retries, and pacer deferred-queue releases that
//!   mature on the same wheel tick — are staged and flushed through one
//!   `sendmmsg(2)`, and receives drain through a reusable
//!   `recvmmsg(2)` arena of [`ReactorConfig::batch_size`] buffers;
//! * an optional **shared admission credit pool**
//!   ([`zdns_pacing::CreditPool`], via [`Reactor::set_credit_pool`]):
//!   instead of a fixed private window, the reactor leases one credit
//!   per active lookup from a scan-wide pool, and *parks* lookups whose
//!   every outstanding send is waiting out a backoff penalty — returning
//!   their credits so sibling workers absorb the stranded window. With
//!   [`Reactor::set_concurrent_pacer`] the pacing budgets are likewise
//!   one scan-wide pool shared with the sibling workers.
//!
//! The lookup machines are unchanged — the same [`SimClient`] state
//! machines the discrete-event simulator drives. The reactor is just the
//! third driver for them (after the simulator and [`drive_blocking`]),
//! and is what `run_real_scan` uses so that real-I/O throughput scales
//! with in-flight lookups instead of OS threads.
//!
//! [`drive_blocking`]: crate::resolver::drive_blocking

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zdns_netsim::{ClientEvent, JobOutcome, OutQuery, Protocol, SimClient, SimTime, MILLIS};
use zdns_pacing::{CreditPool, PaceDecision, SendGate};
use zdns_wire::{encode_query_into, MessageView, MsgRef, ScratchBuf};

use crate::driver::{Admission, Driver, DriverReport};
use crate::pacer::{ConcurrentPacer, Pacer, PacerConfig};
use crate::resolver::AddrMap;
use crate::serve::{ServeStats, ServerRole};
use crate::transport::readiness;
use crate::transport::{
    blocking_tcp_exchange, BatchIo, BatchSendStatus, IoBackend, SendSlot, TransportError,
};

/// Tunables for one reactor.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Admission window: how many lookup machines may be in flight at
    /// once on this reactor's socket.
    pub max_in_flight: usize,
    /// Source address the UDP socket binds to.
    pub source: Ipv4Addr,
    /// Threads in the blocking TCP side-pool (truncation fallback).
    pub tcp_pool: usize,
    /// Timer-wheel slot count (rounded up to a power of two).
    pub wheel_slots: usize,
    /// Timer-wheel slot width in nanoseconds.
    pub wheel_granularity: SimTime,
    /// Pacing + backoff budgets for this reactor's own pacer (disabled
    /// by default). Scans sharing one budget across several workers
    /// leave this disabled and join every reactor to one scan-wide
    /// pacer with [`Reactor::set_concurrent_pacer`].
    pub pacer: PacerConfig,
    /// Datagrams per syscall on the hot path: same-tick sends coalesce
    /// into one `sendmmsg` of up to this many datagrams, and the receive
    /// arena pre-allocates this many buffers for `recvmmsg`. `1` forces
    /// the per-datagram `send_to`/`recv_from` path.
    pub batch_size: usize,
    /// Which syscall strategy drives the hot path: per-datagram, vectored
    /// `sendmmsg`/`recvmmsg`, or io_uring rings. The default ([`IoBackend::Auto`])
    /// takes the best one the running kernel supports; unavailable
    /// choices degrade cleanly (uring → mmsg → per-datagram).
    pub io_backend: IoBackend,
    /// Extra machines this reactor may host *beyond* `max_in_flight`
    /// while they sit parked in backoff (credit-pool scans only; parking
    /// never happens without one). Parked lookups cost no window — their
    /// credits are back in the pool — but they do cost slots, so this
    /// bounds the memory a pathological all-destinations-dead scan can
    /// pin. `0` (the default) keeps the classic behaviour: hosted
    /// machines never exceed `max_in_flight`.
    pub max_parked: usize,
    /// The instant this reactor's clock counts nanoseconds from.
    /// Workers sharing one pacer ([`Reactor::set_concurrent_pacer`]) MUST
    /// share one epoch too: the pacer stores absolute release/penalty
    /// times, so callers on different epochs would mis-read each
    /// other's backoff state by their spawn skew. `None` = this
    /// reactor's construction time (fine for a private pacer).
    pub epoch: Option<Instant>,
}

/// Default [`ReactorConfig::batch_size`]: deep enough to amortize
/// syscall cost, shallow enough that the arena stays ~2 MB per worker.
pub const DEFAULT_BATCH_SIZE: usize = 32;

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_in_flight: 1_024,
            source: Ipv4Addr::UNSPECIFIED,
            tcp_pool: 2,
            wheel_slots: 1_024,
            wheel_granularity: 4 * MILLIS,
            pacer: PacerConfig::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            io_backend: IoBackend::default(),
            max_parked: 0,
            epoch: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

type DemuxKey = (SocketAddr, u16);

/// Slab sentinel: end of a slot's chain / no entry.
const NIL: u32 = u32::MAX;

struct TimerEntry {
    deadline: SimTime,
    token: u64,
    key: DemuxKey,
    /// Next entry in the owning slot's chain (slab index).
    next: u32,
}

/// A hashed timer wheel with lazy cancellation: cancelled tokens are
/// dropped when their slot next drains, and the `armed` set tracks the
/// armed, not-yet-cancelled population exactly — so cancelling a token
/// that already fired (or was already cancelled) is a harmless no-op.
///
/// Entries live in one slab with intrusive per-slot chains (a `u32` head
/// per slot) instead of a `Vec` per slot: wall-clock keeps marching the
/// cursor into fresh slot indices, and per-slot buffers would regrow from
/// zero every lap. The slab grows to the peak concurrent entry count once
/// and is recycled through a free list from then on — arming a timer in
/// the steady state performs zero heap allocations, which the
/// `zero_alloc` integration test enforces.
struct TimerWheel {
    entries: Vec<TimerEntry>,
    free: Vec<u32>,
    heads: Vec<u32>,
    granularity: SimTime,
    cursor: usize,
    cursor_time: SimTime,
    armed: std::collections::HashSet<u64>,
    cancelled: std::collections::HashSet<u64>,
}

impl TimerWheel {
    fn new(slots: usize, granularity: SimTime) -> TimerWheel {
        let n = slots.next_power_of_two().max(2);
        TimerWheel {
            entries: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; n],
            granularity: granularity.max(1),
            cursor: 0,
            cursor_time: 0,
            armed: std::collections::HashSet::new(),
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// The slot a deadline routes to from the current cursor position.
    fn slot_for(&self, deadline: SimTime) -> usize {
        let horizon = self.granularity * self.heads.len() as SimTime;
        let offset = deadline.saturating_sub(self.cursor_time).min(horizon - 1);
        let ticks = offset / self.granularity;
        (self.cursor + ticks as usize) % self.heads.len()
    }

    /// Arm a timer. Deadlines beyond the wheel horizon are parked in the
    /// furthest slot and re-inserted as the wheel turns.
    fn arm(&mut self, deadline: SimTime, token: u64, key: DemuxKey) {
        let idx = self.slot_for(deadline);
        let entry = TimerEntry {
            deadline,
            token,
            key,
            next: self.heads[idx],
        };
        let slab_idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.heads[idx] = slab_idx;
        self.armed.insert(token);
    }

    /// Cancel an armed timer by token (lazy: the entry is purged when its
    /// slot drains). Tokens that already fired or were already cancelled
    /// are ignored.
    fn cancel(&mut self, token: u64) {
        if self.armed.remove(&token) {
            self.cancelled.insert(token);
        }
    }

    /// Advance to `now`, collecting every fired `(token, key)`.
    fn expire(&mut self, now: SimTime, fired: &mut Vec<(u64, DemuxKey)>) {
        while self.cursor_time + self.granularity <= now {
            // Detach the whole chain first: re-arms of parked entries can
            // only target *other* slots (a parked deadline is ≥ one tick
            // away), so walking the detached chain stays sound.
            let mut next = std::mem::replace(&mut self.heads[self.cursor], NIL);
            let slot_end = self.cursor_time + self.granularity;
            while next != NIL {
                let i = next as usize;
                next = self.entries[i].next;
                let (deadline, token, key) = {
                    let e = &self.entries[i];
                    (e.deadline, e.token, e.key)
                };
                self.free.push(i as u32);
                if self.cancelled.remove(&token) {
                    continue;
                }
                if deadline >= slot_end {
                    // Parked from beyond the horizon: re-insert relative to
                    // the advanced cursor (stays armed). The slab node just
                    // freed is immediately reused — no allocation.
                    self.arm(deadline, token, key);
                } else {
                    self.armed.remove(&token);
                    fired.push((token, key));
                }
            }
            self.cursor = (self.cursor + 1) % self.heads.len();
            self.cursor_time = slot_end;
        }
    }

    /// Nanoseconds until the next tick that could fire something, if any
    /// timer is armed.
    fn ns_until_next_tick(&self, now: SimTime) -> Option<SimTime> {
        if self.armed.is_empty() {
            return None;
        }
        Some((self.cursor_time + self.granularity).saturating_sub(now))
    }

    /// Armed, not-cancelled timers.
    fn live(&self) -> usize {
        self.armed.len()
    }

    /// Physically stored entries (live + lazily-cancelled).
    fn stored(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Drop every lazily-cancelled entry now (end-of-run sweep).
    fn sweep_cancelled(&mut self) {
        for slot in 0..self.heads.len() {
            let mut idx = self.heads[slot];
            let mut prev = NIL;
            while idx != NIL {
                let next = self.entries[idx as usize].next;
                if self.cancelled.remove(&self.entries[idx as usize].token) {
                    // Unlink and free.
                    if prev == NIL {
                        self.heads[slot] = next;
                    } else {
                        self.entries[prev as usize].next = next;
                    }
                    self.free.push(idx);
                } else {
                    prev = idx;
                }
                idx = next;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TCP side-pool
// ---------------------------------------------------------------------------

struct TcpJob {
    slot: usize,
    generation: u64,
    tag: u64,
    sim_ip: Ipv4Addr,
    query: zdns_wire::Message,
    to: SocketAddr,
    timeout: Duration,
}

struct TcpDone {
    slot: usize,
    generation: u64,
    tag: u64,
    sim_ip: Ipv4Addr,
    result: Result<zdns_wire::Message, TransportError>,
}

struct TcpPool {
    tx: Option<mpsc::Sender<TcpJob>>,
    rx: mpsc::Receiver<TcpDone>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl TcpPool {
    fn start(workers: usize) -> TcpPool {
        let (job_tx, job_rx) = mpsc::channel::<TcpJob>();
        let (done_tx, done_rx) = mpsc::channel::<TcpDone>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut threads = Vec::new();
        for _ in 0..workers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            threads.push(std::thread::spawn(move || loop {
                let job = match job_rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                    Ok(job) => job,
                    Err(_) => return,
                };
                let result = blocking_tcp_exchange(&job.query, job.to, job.timeout);
                let done = TcpDone {
                    slot: job.slot,
                    generation: job.generation,
                    tag: job.tag,
                    sim_ip: job.sim_ip,
                    result,
                };
                if done_tx.send(done).is_err() {
                    return;
                }
            }));
        }
        TcpPool {
            tx: Some(job_tx),
            rx: done_rx,
            threads,
        }
    }
}

impl Drop for TcpPool {
    fn drop(&mut self) {
        self.tx.take(); // close the job queue so workers exit
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

struct Pending {
    slot: usize,
    tag: u64,
    sim_ip: Ipv4Addr,
    orig_id: u16,
    timer_token: u64,
}

struct Slot {
    machine: Box<dyn SimClient>,
    /// Demux keys of this machine's in-flight UDP queries.
    keys: Vec<DemuxKey>,
    /// Exchanges parked in the TCP side-pool.
    tcp_pending: usize,
    /// Sends held on the pacer's deferred queue.
    deferred: usize,
    /// Sends staged for the next batch flush (same-tick coalescing).
    staged: usize,
    /// The machine's admission credit has been returned to the shared
    /// pool because *every* outstanding send is waiting on the pacer's
    /// deferred queue (typically a backoff penalty): the lookup is alive
    /// but costs the scan no window. The credit is re-leased before its
    /// next send goes to the wire.
    parked: bool,
}

/// A UDP send the pacer is holding back. Its budget was reserved at
/// admission, so when the wheel fires it goes straight to the wire.
struct DeferredSend {
    slot: usize,
    generation: u64,
    /// Backpressure requeues this send has already been through.
    attempts: u32,
    oq: OutQuery,
}

/// Wheel key for deferred-send releases. Never collides with demux
/// lookups: releases are resolved by token (globally unique) before the
/// demux path is consulted.
fn pace_key() -> DemuxKey {
    (
        SocketAddr::new(std::net::IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0),
        0,
    )
}

/// A UDP send admitted by the pacer and waiting for the next batch
/// flush. Staging is what lets every send emitted in one event-loop tick
/// share a single `sendmmsg`.
struct StagedSend {
    slot: usize,
    generation: u64,
    /// Backpressure requeues this send has already been through.
    attempts: u32,
    oq: OutQuery,
}

/// A staged send that has its wire id, demux entry, and timeout armed,
/// and is about to go through the batched syscall. Registration happens
/// at prep time (before the syscall) so two same-tick sends to one peer
/// can never pick the same wire id; non-`Sent` outcomes roll it back.
/// The encoded bytes live in the flush's shared scratch arena (the slot
/// range rides in the parallel [`SendSlot`] vector), so preparing a send
/// touches the allocator zero times in the steady state.
struct PreparedSend {
    slot: usize,
    attempts: u32,
    key: DemuxKey,
    oq: OutQuery,
}

/// This reactor's stake in the scan-wide [`CreditPool`].
struct CreditShare {
    pool: Arc<CreditPool>,
    /// Credits currently held: one per active (unparked) machine, plus
    /// the pre-leased spare.
    held: usize,
    /// One credit leased ahead of the next admission and kept across
    /// `Admission::Later` polls, so an idle loop does not churn the
    /// pool's counters.
    spare: bool,
    /// The static per-worker share of the window (total / workers), for
    /// steal telemetry; 0 disables the steal counter.
    fair_share: usize,
}

/// Delay before re-checking the credit pool when a matured deferred send
/// finds it empty (its owner was parked and the window is fully used).
const CREDIT_RETRY_DELAY: SimTime = 2 * MILLIS;

/// Ceiling on consecutive receive errors absorbed in one drain pass, so
/// a repeating error cannot spin the loop while still letting queued
/// datagrams behind an error be drained (not stranded until next poll).
const MAX_DRAIN_ERRORS: u32 = 64;

/// Delay before retrying a send that hit send-buffer backpressure.
const BACKPRESSURE_DELAY: SimTime = 2 * MILLIS;

/// Backpressure requeues one send may consume before it fails the
/// lookup. A bounded retry keeps WouldBlock from looping a query on the
/// deferred queue forever with no timeout armed (the per-query timer
/// only starts at an actual send).
const MAX_BACKPRESSURE_RETRIES: u32 = 8;

/// The event-driven driver: one non-blocking UDP socket, a demux table,
/// a timer wheel, and up to [`ReactorConfig::max_in_flight`] concurrent
/// lookup machines.
pub struct Reactor {
    socket: UdpSocket,
    addr_map: Arc<AddrMap>,
    config: ReactorConfig,
    slots: Vec<Option<Slot>>,
    /// Bumped each time a slot retires, so completions addressed to a
    /// previous occupant of a recycled slot are recognizably stale.
    generations: Vec<u64>,
    free_slots: Vec<usize>,
    in_flight: usize,
    demux: HashMap<DemuxKey, Pending>,
    wheel: TimerWheel,
    pacer: Pacer,
    /// Shared admission credits (`None` = the classic static window).
    credits: Option<CreditShare>,
    /// Machines alive but holding no credit (all sends in backoff).
    parked_count: usize,
    deferred: HashMap<u64, DeferredSend>,
    next_token: u64,
    txid_cursor: u16,
    started: Instant,
    tcp: TcpPool,
    tcp_inflight: usize,
    report: DriverReport,
    /// `Option` so [`Reactor::drain_datagrams`] can move the arena out
    /// while borrowed views over it are delivered to machines (which need
    /// `&mut self`); always `Some` between method calls.
    batch: Option<BatchIo>,
    staged: Vec<StagedSend>,
    // -- steady-state allocation pools -------------------------------------
    /// Shared encode arena for one flush's datagrams.
    send_scratch: ScratchBuf,
    /// `(offset, len, dest)` per prepared datagram, parallel to `prepared`.
    send_slots: Vec<SendSlot>,
    /// Prepared sends of the current flush (reused across flushes).
    prepared: Vec<PreparedSend>,
    /// Per-datagram outcomes of the current flush (reused).
    statuses: Vec<BatchSendStatus>,
    /// Recycled machine-output buffers: stepping a machine pops one,
    /// finishing the step pushes it back, so per-lookup stepping never
    /// allocates. A small pool (not one buffer) because event delivery
    /// re-enters: a step can synchronously trigger another step.
    out_pool: Vec<Vec<OutQuery>>,
    /// Recycled per-slot demux-key vectors (admit pops, retire pushes).
    keys_pool: Vec<Vec<DemuxKey>>,
    /// Recycled buffer for expired timers (so timeout storms stay
    /// allocation-free too).
    fired: Vec<(u64, DemuxKey)>,
    /// Recycled queue of slots whose sends were just deferred and that
    /// may therefore be parkable (checked at safe points, not mid-step).
    park_checks: Vec<usize>,
    /// The optional server half: installed via
    /// [`Reactor::set_server_role`], it receives inbound queries (QR=0
    /// demux misses) and queues forwarding machines for admission.
    /// `Option` (like `batch`) so role methods taking `&mut` can run
    /// while the reactor is borrowed; boxed to keep the scan-only
    /// reactor layout lean.
    server: Option<Box<ServerRole>>,
}

impl Reactor {
    /// Bind the long-lived socket and start the TCP side-pool.
    pub fn new(config: ReactorConfig, addr_map: Arc<AddrMap>) -> std::io::Result<Reactor> {
        let socket = UdpSocket::bind((config.source, 0))?;
        Reactor::from_socket(socket, config, addr_map)
    }

    /// Build around an already-bound socket. Lets callers bind (and surface
    /// bind failures) on one thread, then construct the reactor on the
    /// worker thread that will drive it — the reactor itself is not `Send`
    /// because the machines it owns are not.
    pub fn from_socket(
        socket: UdpSocket,
        config: ReactorConfig,
        addr_map: Arc<AddrMap>,
    ) -> std::io::Result<Reactor> {
        socket.set_nonblocking(true)?;
        // A reactor keeps hundreds of queries in flight on one socket;
        // responses arrive in bursts the default buffer would drop.
        zdns_netsim::set_recv_buffer(&socket, 8 << 20);
        let wheel = TimerWheel::new(config.wheel_slots, config.wheel_granularity);
        let tcp = TcpPool::start(config.tcp_pool);
        let pacer = Pacer::new(config.pacer.clone());
        let batch = BatchIo::with_backend(config.io_backend, config.batch_size);
        let started = config.epoch.unwrap_or_else(Instant::now);
        Ok(Reactor {
            socket,
            addr_map,
            config,
            slots: Vec::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            in_flight: 0,
            demux: HashMap::new(),
            wheel,
            pacer,
            credits: None,
            parked_count: 0,
            deferred: HashMap::new(),
            next_token: 0,
            txid_cursor: 1,
            started,
            tcp,
            tcp_inflight: 0,
            report: DriverReport::default(),
            batch: Some(batch),
            staged: Vec::new(),
            send_scratch: ScratchBuf::new(),
            send_slots: Vec::new(),
            prepared: Vec::new(),
            statuses: Vec::new(),
            out_pool: Vec::new(),
            keys_pool: Vec::new(),
            fired: Vec::new(),
            park_checks: Vec::new(),
            server: None,
        })
    }

    /// Install a server role: from here on, inbound QR=0 datagrams on the
    /// reactor socket dispatch to it instead of counting as stale, and
    /// [`Reactor::serve_tick`] / [`Reactor::run_serve`] drive its
    /// listener, TCP table, and forwarded-answer queue.
    pub fn set_server_role(&mut self, role: ServerRole) {
        self.server = Some(Box::new(role));
    }

    /// The installed server role's shared counters, if any.
    pub fn server_stats(&self) -> Option<Arc<ServeStats>> {
        self.server.as_ref().map(|r| r.stats())
    }

    /// Join the scan-wide admission [`CreditPool`]: instead of a fixed
    /// private window, this reactor leases one credit per *active*
    /// lookup (and returns it while a lookup's every send is held in
    /// backoff). [`ReactorConfig::max_in_flight`] remains the hard cap
    /// on machines this worker will host — shared-queue scans set it to
    /// the whole window so any one worker can absorb capacity its
    /// siblings are not using. `fair_share` (the static per-worker
    /// split, usually `total / workers`) only feeds the
    /// [`DriverReport::inputs_stolen`] counter; pass 0 to disable it.
    pub fn set_credit_pool(&mut self, pool: Arc<CreditPool>, fair_share: usize) {
        self.credits = Some(CreditShare {
            pool,
            held: 0,
            spare: false,
            fair_share,
        });
    }

    /// Replace this reactor's private pacer with a handle on `pacer`,
    /// shared scan-wide with the sibling workers: reserving from the
    /// shared budget is the lease, so idle workers leave the whole budget
    /// to the active ones, and backoff knowledge is common property.
    /// Workers sharing a pacer MUST share a [`ReactorConfig::epoch`].
    pub fn set_concurrent_pacer(&mut self, pacer: Arc<ConcurrentPacer>) {
        self.pacer = Pacer::join(pacer);
    }

    /// The bound local address (one reused source port for every lookup).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Machines currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The syscall strategy the batch layer resolved to — what the
    /// requested [`ReactorConfig::io_backend`] actually got on this
    /// kernel (`"syscall"`, `"mmsg"`, or `"uring"`).
    pub fn io_backend(&self) -> &'static str {
        self.batch
            .as_ref()
            .map(BatchIo::backend_name)
            .unwrap_or("syscall")
    }

    /// Armed (not cancelled, not fired) timer entries.
    pub fn live_timers(&self) -> usize {
        self.wheel.live()
    }

    /// Timer entries physically stored in the wheel (live plus entries
    /// cancelled but not yet swept).
    pub fn stored_timers(&self) -> usize {
        self.wheel.stored()
    }

    /// In-flight UDP queries awaiting demux.
    pub fn pending_queries(&self) -> usize {
        self.demux.len()
    }

    /// Sends currently held on the pacer's deferred queue.
    pub fn deferred_sends(&self) -> usize {
        self.deferred.len()
    }

    /// Machines alive but holding no admission credit because every send
    /// they own is waiting out a backoff penalty (shared-queue scans).
    pub fn parked_machines(&self) -> usize {
        self.parked_count
    }

    fn now(&self) -> SimTime {
        self.started.elapsed().as_nanos() as u64
    }

    /// Pop a recycled machine-output buffer (or make a fresh one — only
    /// before the pool has warmed up).
    fn take_out_buf(&mut self) -> Vec<OutQuery> {
        self.out_pool.pop().unwrap_or_default()
    }

    /// Return a machine-output buffer to the pool.
    fn put_out_buf(&mut self, mut out: Vec<OutQuery>) {
        out.clear();
        if self.out_pool.len() < 64 {
            self.out_pool.push(out);
        }
    }

    /// Admit one machine, starting it immediately.
    fn admit(&mut self, machine: Box<dyn SimClient>, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        let keys = self.keys_pool.pop().unwrap_or_default();
        self.slots[idx] = Some(Slot {
            machine,
            keys,
            tcp_pending: 0,
            deferred: 0,
            staged: 0,
            parked: false,
        });
        self.in_flight += 1;
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.in_flight);
        if let Some(credits) = &self.credits {
            // Steal telemetry: an admission while this worker already
            // hosts its static fair share is an input a statically-split
            // worker could not have accepted — capacity absorbed from a
            // sibling's stranded slice. Hosted count (parked included)
            // is the right comparison: a static split has no parking, so
            // its backed-off lookups occupy window slots and a worker at
            // fair_share hosted machines is full, whatever their state.
            if credits.fair_share > 0 && self.in_flight > credits.fair_share {
                self.report.inputs_stolen += 1;
            }
        }

        let mut slot = self.slots[idx].take().expect("fresh slot");
        let mut out = self.take_out_buf();
        let status = slot.machine.start(self.now(), &mut out);
        self.after_step(idx, slot, status, out, on_done);
    }

    /// Common post-step handling: either the machine finished, or its new
    /// queries go on the wire (which may synchronously produce failure
    /// events that feed straight back into the machine).
    fn after_step(
        &mut self,
        idx: usize,
        slot: Slot,
        status: zdns_netsim::StepStatus,
        mut out: Vec<OutQuery>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        use zdns_netsim::StepStatus;
        match status {
            StepStatus::Done(outcome) => {
                self.put_out_buf(out);
                self.retire(idx, slot);
                self.report.completed += 1;
                if outcome.success {
                    self.report.successes += 1;
                }
                on_done(Some(outcome));
            }
            StepStatus::Running => {
                self.slots[idx] = Some(slot);
                let mut immediate = Vec::new();
                self.register_out(idx, &mut out, &mut immediate);
                self.put_out_buf(out);
                for event in immediate {
                    self.deliver(idx, event, on_done);
                }
                self.reap_if_wedged(idx, on_done);
                if self.credits.is_some() {
                    // This step may have retired the machine's last
                    // on-wire query while an older send still sits on
                    // the deferred queue — the machine is now fully in
                    // backoff even though nothing was deferred *in this
                    // step* (defer_send queues its own checks).
                    self.park_checks.push(idx);
                }
            }
        }
        // Machines whose sends were just deferred (or whose last live
        // query just retired) may now be fully in backoff; park them
        // (returning their credits) while no machine is mid-step.
        self.process_park_checks();
    }

    /// A running machine with nothing in flight would hang the scan; fail
    /// it closed, mirroring `drive_blocking`. A machine whose sends are
    /// merely held by the pacer — or staged for the next batch flush —
    /// is waiting, not wedged.
    fn reap_if_wedged(&mut self, idx: usize, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let wedged = match &self.slots[idx] {
            Some(slot) => {
                slot.keys.is_empty()
                    && slot.tcp_pending == 0
                    && slot.deferred == 0
                    && slot.staged == 0
            }
            None => false,
        };
        if wedged {
            let slot = self.slots[idx].take().expect("checked above");
            self.retire(idx, slot);
            self.report.completed += 1;
            on_done(None);
        }
    }

    /// Release a finished machine's slot and cancel anything it left in
    /// the demux table or timer wheel.
    fn retire(&mut self, idx: usize, slot: Slot) {
        let mut keys = slot.keys;
        for key in keys.drain(..) {
            if let Some(pending) = self.demux.remove(&key) {
                self.wheel.cancel(pending.timer_token);
            }
        }
        if self.keys_pool.len() < 4_096 {
            self.keys_pool.push(keys);
        }
        if let Some(credits) = self.credits.as_mut() {
            if slot.parked {
                // A parked machine retired without re-leasing (its credit
                // was already back in the pool).
                self.parked_count -= 1;
            } else {
                credits.pool.release(1);
                credits.held -= 1;
                self.report.credit_returns += 1;
            }
        }
        self.slots[idx] = None;
        self.generations[idx] += 1;
        self.free_slots.push(idx);
        self.in_flight -= 1;
    }

    /// Park `idx` if every outstanding send it owns is sitting on the
    /// pacer's deferred queue: the lookup is alive but off the wire, so
    /// its admission credit goes back to the shared pool for a sibling
    /// (or this worker's next admission) to use. No-op without a credit
    /// pool, for already-parked slots, and for slots with live work.
    fn maybe_park(&mut self, idx: usize) {
        let Some(credits) = self.credits.as_mut() else {
            return;
        };
        let Some(slot) = self.slots[idx].as_mut() else {
            return;
        };
        let idle = !slot.parked
            && slot.deferred > 0
            && slot.keys.is_empty()
            && slot.tcp_pending == 0
            && slot.staged == 0;
        if idle {
            slot.parked = true;
            self.parked_count += 1;
            credits.pool.release(1);
            credits.held -= 1;
            self.report.credit_returns += 1;
            self.report.idle_credit_returns += 1;
            // A park means pacing is the bottleneck here: unused global
            // token-block slots go back with the credit, so siblings
            // (and this worker's own deferred queue) drain the budget.
            self.pacer.return_tokens();
        }
    }

    /// Whether admission may host one more machine: *active* machines
    /// (in flight minus parked) stay under the window, and total hosted
    /// machines stay under window + parked allowance.
    fn admittable(&self) -> bool {
        let active = self.in_flight - self.parked_count;
        active < self.config.max_in_flight
            && self.in_flight
                < self
                    .config
                    .max_in_flight
                    .saturating_add(if self.credits.is_some() {
                        self.config.max_parked
                    } else {
                        0
                    })
    }

    /// Run the queued park checks (slots whose sends were just deferred).
    /// Safe to call at any point where no machine is mid-step.
    fn process_park_checks(&mut self) {
        while let Some(idx) = self.park_checks.pop() {
            self.maybe_park(idx);
        }
    }

    /// Allocate a wire transaction id that is unique for `peer`,
    /// preferring the machine's own deterministic id.
    fn allocate_txid(&mut self, peer: SocketAddr, preferred: u16) -> Option<u16> {
        if !self.demux.contains_key(&(peer, preferred)) {
            return Some(preferred);
        }
        for _ in 0..=u16::MAX {
            let candidate = self.txid_cursor;
            self.txid_cursor = self.txid_cursor.wrapping_add(1);
            if !self.demux.contains_key(&(peer, candidate)) {
                return Some(candidate);
            }
        }
        None
    }

    /// Route a machine's emitted queries: UDP through the pacer (then
    /// the shared socket + demux table + timer wheel), TCP through the
    /// side-pool.
    fn register_out(
        &mut self,
        idx: usize,
        out: &mut Vec<OutQuery>,
        immediate: &mut Vec<ClientEvent<'static>>,
    ) {
        for oq in out.drain(..) {
            match oq.protocol {
                Protocol::Tcp => {
                    let dest = (self.addr_map)(oq.to);
                    let job = TcpJob {
                        slot: idx,
                        generation: self.generations[idx],
                        tag: oq.tag,
                        sim_ip: oq.to,
                        query: oq.to_message(),
                        to: dest,
                        timeout: Duration::from_nanos(oq.timeout),
                    };
                    if let Some(tx) = &self.tcp.tx {
                        if tx.send(job).is_ok() {
                            if let Some(slot) = self.slots[idx].as_mut() {
                                slot.tcp_pending += 1;
                            }
                            self.tcp_inflight += 1;
                            self.report.tcp_fallbacks += 1;
                            continue;
                        }
                    }
                    immediate.push(ClientEvent::TransportFailed { tag: oq.tag });
                }
                Protocol::Udp => match self.pacer.admit(oq.to, self.now()) {
                    PaceDecision::Ready => self.stage_send(idx, oq, 0),
                    PaceDecision::Defer {
                        until,
                        host_limited,
                    } => {
                        if host_limited {
                            self.report.per_host_throttles += 1;
                        }
                        self.report.queries_deferred += 1;
                        self.defer_send(idx, oq, 0, until);
                    }
                },
            }
        }
    }

    /// Park a UDP send on the deferred queue, armed on the timer wheel
    /// for its pacer-assigned release time.
    fn defer_send(&mut self, idx: usize, oq: OutQuery, attempts: u32, release: SimTime) {
        let token = self.next_token;
        self.next_token += 1;
        self.wheel.arm(release, token, pace_key());
        self.deferred.insert(
            token,
            DeferredSend {
                slot: idx,
                generation: self.generations[idx],
                attempts,
                oq,
            },
        );
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.deferred += 1;
        }
        if self.credits.is_some() {
            // The owner may now be fully in backoff; check at the next
            // safe point (never mid-step).
            self.park_checks.push(idx);
        }
        self.report.max_deferred_depth = self.report.max_deferred_depth.max(self.deferred.len());
    }

    /// A deferred send's release time arrived: its budget is already
    /// reserved, so it goes into the next batch flush (unless its owner
    /// retired while it was held). Releases that mature on the same wheel
    /// tick therefore coalesce into one `sendmmsg`.
    ///
    /// A *parked* owner gave its admission credit back when it went into
    /// backoff, so its send must re-lease one before touching the wire.
    /// If the pool is momentarily empty (the window is fully active
    /// elsewhere), the send is re-parked for [`CREDIT_RETRY_DELAY`] — a
    /// bounded-rate retry, counted as a credit stall.
    fn release_deferred(&mut self, sent: DeferredSend) {
        if self.generations[sent.slot] != sent.generation {
            return; // owner finished while the send was held
        }
        let parked = self.slots[sent.slot]
            .as_ref()
            .map(|slot| slot.parked)
            .unwrap_or(false);
        if parked {
            let credits = self.credits.as_mut().expect("parked implies a pool");
            if credits.pool.try_lease(1) {
                credits.held += 1;
                self.report.credit_leases += 1;
                self.parked_count -= 1;
                if let Some(slot) = self.slots[sent.slot].as_mut() {
                    slot.parked = false;
                }
            } else {
                self.report.credit_stalls += 1;
                let token = self.next_token;
                self.next_token += 1;
                self.wheel
                    .arm(self.now() + CREDIT_RETRY_DELAY, token, pace_key());
                self.deferred.insert(token, sent);
                return;
            }
        }
        if let Some(slot) = self.slots[sent.slot].as_mut() {
            slot.deferred -= 1;
        }
        self.stage_send(sent.slot, sent.oq, sent.attempts);
    }

    /// Queue one pacer-admitted UDP send for the next batch flush.
    fn stage_send(&mut self, idx: usize, oq: OutQuery, attempts: u32) {
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.staged += 1;
        }
        self.staged.push(StagedSend {
            slot: idx,
            generation: self.generations[idx],
            attempts,
            oq,
        });
    }

    /// Flush every staged send through the batched syscall layer, looping
    /// until the stage is empty (a `TransportFailed` delivered here can
    /// make its machine emit a retry, which stages again).
    ///
    /// Each flush is three phases so no machine code runs while the batch
    /// is being assembled:
    /// 1. **prep** — per send: allocate a wire id, encode, arm the
    ///    timeout, and register the demux entry (registering *before* the
    ///    syscall is what keeps two same-tick sends to one peer from
    ///    colliding on a wire id);
    /// 2. **syscall** — one `sendmmsg` per `batch_size` datagrams (or
    ///    per-datagram sends on the fallback path);
    /// 3. **settle** — non-`Sent` datagrams roll their registration back:
    ///    backpressure requeues on the deferred queue, errors fail the
    ///    lookup.
    fn flush_staged(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        while !self.staged.is_empty() {
            // Working storage is owned by the reactor and recycled every
            // flush: the encode arena, the slot list, the prepared list,
            // and the status list all keep their capacity, so a
            // steady-state flush performs zero heap allocations.
            let mut staged = std::mem::take(&mut self.staged);
            let mut prepared = std::mem::take(&mut self.prepared);
            let mut send_slots = std::mem::take(&mut self.send_slots);
            let mut statuses = std::mem::take(&mut self.statuses);
            let mut scratch = std::mem::take(&mut self.send_scratch);
            prepared.clear();
            send_slots.clear();
            statuses.clear();
            scratch.reset();
            let mut events: Vec<(usize, u64)> = Vec::new();
            for send in staged.drain(..) {
                if self.generations[send.slot] != send.generation {
                    continue; // owner retired while the send was staged
                }
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.staged -= 1;
                }
                let oq = send.oq;
                let dest = (self.addr_map)(oq.to);
                // The machine's own id is never mutated: the wire carries
                // `txid`, the demux entry remembers the original.
                let Some(txid) = self.allocate_txid(dest, oq.id) else {
                    events.push((send.slot, oq.tag));
                    continue;
                };
                let start = scratch.len();
                if encode_query_into(
                    &mut scratch,
                    txid,
                    &oq.question,
                    oq.recursion_desired,
                    oq.cookie.as_ref(),
                )
                .is_err()
                {
                    events.push((send.slot, oq.tag));
                    continue;
                }
                let len = scratch.len() - start;
                let token = self.next_token;
                self.next_token += 1;
                let key = (dest, txid);
                self.wheel.arm(self.now() + oq.timeout, token, key);
                self.demux.insert(
                    key,
                    Pending {
                        slot: send.slot,
                        tag: oq.tag,
                        sim_ip: oq.to,
                        orig_id: oq.id,
                        timer_token: token,
                    },
                );
                if let Some(slot) = self.slots[send.slot].as_mut() {
                    slot.keys.push(key);
                }
                send_slots.push((start as u32, len as u32, dest));
                prepared.push(PreparedSend {
                    slot: send.slot,
                    attempts: send.attempts,
                    key,
                    oq,
                });
            }

            if !prepared.is_empty() {
                let (batch, report) = (
                    self.batch.as_mut().expect("batch io present"),
                    &mut self.report,
                );
                let stats = batch.send_slots(
                    &self.socket,
                    scratch.as_slice(),
                    &send_slots,
                    &mut statuses,
                    &mut |fill| report.send_batch_fill.record(fill),
                );
                self.report.send_syscalls += stats.syscalls;
                self.report.datagrams_sent += stats.sent;

                for (p, status) in prepared.drain(..).zip(statuses.iter()) {
                    if matches!(status, BatchSendStatus::Sent) {
                        continue; // registration done at prep time
                    }
                    // Roll the registration back: the datagram never made
                    // it onto the wire.
                    if let Some(pending) = self.demux.remove(&p.key) {
                        self.wheel.cancel(pending.timer_token);
                    }
                    if let Some(slot) = self.slots[p.slot].as_mut() {
                        if let Some(pos) = slot.keys.iter().position(|k| *k == p.key) {
                            slot.keys.swap_remove(pos);
                        }
                    }
                    match status {
                        BatchSendStatus::Backpressure if p.attempts < MAX_BACKPRESSURE_RETRIES => {
                            // Retry shortly; a bounded retry keeps
                            // WouldBlock from cycling a query on the
                            // deferred queue forever with no timeout
                            // armed.
                            self.report.backpressure_requeues += 1;
                            self.defer_send(
                                p.slot,
                                p.oq,
                                p.attempts + 1,
                                self.now() + BACKPRESSURE_DELAY,
                            );
                        }
                        _ => {
                            // Sustained backpressure or a hard socket
                            // error: fail the lookup.
                            events.push((p.slot, p.oq.tag));
                        }
                    }
                }
            }

            // Restore the recycled storage *before* delivering failure
            // events: a machine reacting to one may stage a retry, which
            // must land in the capacity-retaining `staged` vector.
            self.staged = staged;
            self.prepared = prepared;
            self.send_slots = send_slots;
            self.statuses = statuses;
            self.send_scratch = scratch;
            for (idx, tag) in events {
                self.deliver(idx, ClientEvent::TransportFailed { tag }, on_done);
            }
        }
        self.process_park_checks();
    }

    /// Feed one event to the machine in `idx` and process the aftermath.
    fn deliver(
        &mut self,
        idx: usize,
        event: ClientEvent<'_>,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) {
        let Some(mut slot) = self.slots[idx].take() else {
            return; // machine already retired (e.g. late TCP completion)
        };
        let mut out = self.take_out_buf();
        let status = slot.machine.on_event(event, self.now(), &mut out);
        self.after_step(idx, slot, status, out, on_done);
    }

    /// Drain every datagram currently queued on the socket, one arena
    /// batch at a time.
    ///
    /// Hard socket errors (e.g. ICMP unreachable surfaced as
    /// ECONNREFUSED) are skipped — the per-query timer still guards the
    /// lookup — and draining continues so one error doesn't strand
    /// already-queued datagrams until the next poll round; the
    /// [`MAX_DRAIN_ERRORS`] cap stops a repeating error from spinning the
    /// loop. A *short batch* (fewer datagrams than the arena holds) is a
    /// normal drain — the queue simply emptied — and is counted in
    /// `recv_partial_batches`, never against the error cap.
    fn drain_datagrams(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        // Move the arena out so machines (stepped via `&mut self`) can be
        // handed borrowed views straight over its buffers — the zero-copy
        // receive path: no `to_vec`, no owned decode per datagram.
        let mut io = self.batch.take().expect("batch io present");
        // The server role is moved out the same way: its dispatch method
        // needs `&mut` while `self` stays borrowed for the socket and
        // report counters.
        let mut server = self.server.take();
        let mut errors = 0u32;
        'drain: loop {
            let batch = io.recv_into_arena(&self.socket);
            self.report.recv_syscalls += batch.syscalls;
            if batch.count > 0 {
                self.report.datagrams_received += batch.count as u64;
                self.report.recv_batch_fill.record(batch.count);
                if batch.count < io.batch_size() {
                    self.report.recv_partial_batches += 1;
                }
            }
            for i in 0..batch.count {
                let peer = io.arena_peer(i);
                let bytes = io.arena_bytes(i);
                // Parse up front, but touch the demux table only after the
                // datagram proves to be a well-formed response.
                let Ok(view) = MessageView::parse(bytes) else {
                    self.report.decode_errors += 1;
                    continue;
                };
                if !view.flags().response {
                    // QR=0: with a server role installed this is a client
                    // query for the serve path — the dual-role socket's
                    // inbound half. Without one, an echoed query from a
                    // reflecting server or middlebox must not complete a
                    // lookup as a response.
                    match server.as_deref_mut() {
                        Some(role) => {
                            let now = self.now();
                            role.on_udp_datagram(&self.socket, bytes, peer, now);
                        }
                        None => self.report.stale_datagrams += 1,
                    }
                    continue;
                }
                let key = (peer, view.id());
                let Some(pending) = self.demux.remove(&key) else {
                    // Late, stale, or unsolicited: exactly the datagrams
                    // the demux table exists to reject.
                    self.report.stale_datagrams += 1;
                    continue;
                };
                self.wheel.cancel(pending.timer_token);
                if let Some(slot) = self.slots[pending.slot].as_mut() {
                    if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                        slot.keys.swap_remove(pos);
                    }
                }
                // The machine sees its own transaction id: the view
                // overrides it without touching the arena.
                let message = MsgRef::View(view.with_id(pending.orig_id));
                self.report.datagrams_delivered += 1;
                self.pacer.on_success(pending.sim_ip, self.now());
                let event = ClientEvent::Response {
                    tag: pending.tag,
                    from: pending.sim_ip,
                    message,
                    protocol: Protocol::Udp,
                };
                self.deliver(pending.slot, event, on_done);
            }
            match batch.err {
                None if batch.count == 0 => break 'drain, // socket drained
                None => {}                                // keep draining
                Some(_) => {
                    self.report.socket_errors += 1;
                    errors += 1;
                    if errors >= MAX_DRAIN_ERRORS {
                        break 'drain;
                    }
                }
            }
        }
        self.batch = Some(io);
        self.server = server;
    }

    /// Collect finished TCP side-pool exchanges.
    fn drain_tcp(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        while let Ok(done) = self.tcp.rx.try_recv() {
            self.tcp_inflight -= 1;
            if self.generations[done.slot] != done.generation {
                // The owning machine retired while this exchange was in the
                // side-pool; the slot may already belong to someone else.
                // These are completions, not datagrams — they get their own
                // counter so demux telemetry stays honest.
                self.report.stale_tcp_completions += 1;
                continue;
            }
            if let Some(slot) = self.slots[done.slot].as_mut() {
                slot.tcp_pending -= 1;
            }
            let event = match done.result {
                Ok(message) => {
                    self.pacer.on_success(done.sim_ip, self.now());
                    ClientEvent::Response {
                        tag: done.tag,
                        from: done.sim_ip,
                        message: MsgRef::Owned(message),
                        protocol: Protocol::Tcp,
                    }
                }
                Err(TransportError::Timeout) => {
                    self.pacer.on_failure(done.sim_ip, self.now());
                    ClientEvent::Timeout { tag: done.tag }
                }
                Err(_) => {
                    self.pacer.on_failure(done.sim_ip, self.now());
                    ClientEvent::TransportFailed { tag: done.tag }
                }
            };
            self.deliver(done.slot, event, on_done);
        }
    }

    /// Fire every expired timer: deferred-send releases go to the wire,
    /// per-query timeouts go to their machines (and feed backoff).
    fn fire_timers(&mut self, on_done: &mut dyn FnMut(Option<JobOutcome>)) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.expire(self.now(), &mut fired);
        for (token, key) in fired.drain(..) {
            if let Some(sent) = self.deferred.remove(&token) {
                // Staged, not sent: every deferred release maturing on
                // this tick lands in the same upcoming batch flush.
                self.release_deferred(sent);
                continue;
            }
            let stale = match self.demux.get(&key) {
                Some(pending) => pending.timer_token != token,
                None => true,
            };
            if stale {
                continue;
            }
            let pending = self.demux.remove(&key).expect("checked above");
            if let Some(slot) = self.slots[pending.slot].as_mut() {
                if let Some(pos) = slot.keys.iter().position(|k| *k == key) {
                    slot.keys.swap_remove(pos);
                }
            }
            self.report.timeouts_fired += 1;
            self.pacer.on_failure(pending.sim_ip, self.now());
            self.deliver(
                pending.slot,
                ClientEvent::Timeout { tag: pending.tag },
                on_done,
            );
        }
        self.fired = fired;
    }

    /// One iteration of the serve loop: drain inbound datagrams (client
    /// queries dispatch to the server role, upstream responses to their
    /// lookup machines), collect TCP completions and timers, run the
    /// role's own listener/TCP/answer work, admit the forwarding machines
    /// that cache misses queued, and flush staged upstream sends in one
    /// batch.
    ///
    /// Public — rather than only reachable through [`Reactor::run_serve`]
    /// — so the zero-allocation suite can tick the loop on the measuring
    /// thread (allocation counters are per-thread) and benches can drive
    /// it without a stop flag.
    pub fn serve_tick(&mut self) {
        let mut on_done = |_outcome: Option<JobOutcome>| {};
        self.drain_datagrams(&mut on_done);
        self.drain_tcp(&mut on_done);
        self.fire_timers(&mut on_done);
        if let Some(mut role) = self.server.take() {
            let now = self.now();
            role.poll(&self.socket, now);
            self.server = Some(role);
        }
        // Admit the forwarding machines queued by cache misses. When the
        // hosting window is full the machine is dropped instead — it has
        // not started, so there is nothing to unwind, and the client
        // retries against a cache its sibling queries are busy filling.
        while let Some(machine) = self.server.as_mut().and_then(|r| r.pop_admission()) {
            if self.admittable() {
                self.admit(machine, &mut on_done);
            } else if let Some(role) = self.server.as_ref() {
                role.note_overload();
            }
        }
        self.flush_staged(&mut on_done);
    }

    /// Drive the serve loop until `stop` is raised: the blocking
    /// counterpart to [`Driver::run_scan`] for a reactor with a server
    /// role installed. Sleeps between ticks on the same readiness/timer
    /// logic as a scan, capped tighter while the role has work the
    /// reactor's own socket cannot signal (a dedicated `SO_REUSEPORT`
    /// listener, live TCP connections, queued answers).
    pub fn run_serve(&mut self, stop: &AtomicBool) -> DriverReport {
        #[cfg(unix)]
        use std::os::fd::AsRawFd;

        self.report = DriverReport::default();
        let ring_stats_start = if let Some(batch) = self.batch.as_mut() {
            batch.prime_recv(&self.socket);
            batch.ring_stats()
        } else {
            None
        };
        while !stop.load(Ordering::Relaxed) {
            self.serve_tick();

            let now = self.now();
            let mut wait_ns = self.wheel.ns_until_next_tick(now).unwrap_or(5 * MILLIS);
            if self.tcp_inflight > 0 {
                wait_ns = wait_ns.min(2 * MILLIS);
            }
            if self.server.as_ref().is_some_and(|r| r.wants_fast_tick()) {
                wait_ns = wait_ns.min(MILLIS);
            }
            // Floor of 1ms (a scan may spin at 0; a server must bound its
            // idle wakeup rate), ceiling of 50ms so the stop flag is
            // honored promptly.
            let wait_ms = wait_ns.div_ceil(MILLIS).clamp(1, 50) as i32;
            #[cfg(unix)]
            let fd = self
                .batch
                .as_ref()
                .map(|b| b.poll_fd(&self.socket))
                .unwrap_or_else(|| self.socket.as_raw_fd());
            #[cfg(not(unix))]
            let fd = 0;
            let buffered = self.batch.as_ref().is_some_and(BatchIo::has_buffered_recv);
            if !buffered {
                readiness::wait_readable(fd, wait_ms);
            }
        }

        // Same end-of-run hygiene as a scan: machines still forwarding
        // are abandoned (their clients will retry), deferred sends are
        // dropped with their wheel entries, and cancelled timers are
        // swept so the reactor can be reused.
        for (token, _) in self.deferred.drain() {
            self.wheel.cancel(token);
        }
        self.wheel.sweep_cancelled();

        self.report.io_backend = self.io_backend();
        if let (Some(end), Some(start)) = (
            self.batch.as_ref().and_then(BatchIo::ring_stats),
            ring_stats_start,
        ) {
            self.report.ring_sqes = end.sqes - start.sqes;
            self.report.ring_enters = end.enters - start.enters;
            self.report.cqe_batches = end.cqe_batches - start.cqe_batches;
            self.report.sq_full_stalls = end.sq_full_stalls - start.sq_full_stalls;
        }
        self.report.clone()
    }
}

impl Driver for Reactor {
    fn run_scan(
        &mut self,
        source: &mut dyn FnMut() -> Admission,
        on_done: &mut dyn FnMut(Option<JobOutcome>),
    ) -> DriverReport {
        #[cfg(unix)]
        use std::os::fd::AsRawFd;

        // A reactor is reusable; each scan reports its own counts.
        self.report = DriverReport::default();
        // The io_uring backend's standing RECVMSG pool must be armed
        // before the first sleep, or the opening tick would wait on a
        // ring with nothing in flight. Ring counters are reported as
        // this scan's delta off the cumulative backend stats.
        let ring_stats_start = if let Some(batch) = self.batch.as_mut() {
            batch.prime_recv(&self.socket);
            batch.ring_stats()
        } else {
            None
        };
        let mut exhausted = false;
        loop {
            // Admission: top the window up from the source. With a
            // shared credit pool, every admission also needs one leased
            // credit; a spare is leased ahead of the source pull (a
            // machine cannot be pushed back) and kept across empty
            // polls. Parked machines cost slots but no window, so the
            // hosting cap is `max_in_flight` *active* machines plus up
            // to `max_parked` parked ones.
            while !exhausted && self.admittable() {
                if let Some(credits) = self.credits.as_mut() {
                    if !credits.spare {
                        if !credits.pool.try_lease(1) {
                            break; // window fully active elsewhere
                        }
                        credits.spare = true;
                        credits.held += 1;
                        self.report.credit_leases += 1;
                    }
                }
                match source() {
                    Admission::Admit(machine) => {
                        if let Some(credits) = self.credits.as_mut() {
                            credits.spare = false; // the machine carries it now
                        }
                        self.admit(machine, on_done);
                    }
                    Admission::Later => break,
                    Admission::Exhausted => exhausted = true,
                }
            }
            if exhausted {
                // No more inputs will ever need the pre-leased spare.
                if let Some(credits) = self.credits.as_mut() {
                    if credits.spare {
                        credits.spare = false;
                        credits.held -= 1;
                        credits.pool.release(1);
                        self.report.credit_returns += 1;
                    }
                }
                // Nor will fresh admissions need the token block: the
                // drain phase re-leases on demand if retries crop up.
                self.pacer.return_tokens();
            }
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Flush the admission burst in one batch before sleeping —
            // nothing would ever answer an unsent query.
            self.flush_staged(on_done);
            if self.in_flight == 0 && exhausted {
                break;
            }

            // Sleep until the next timer tick could fire, capped so TCP
            // completions and a refilling source are noticed promptly.
            let now = self.now();
            let mut wait_ns = self.wheel.ns_until_next_tick(now).unwrap_or(5 * MILLIS);
            if self.tcp_inflight > 0 || !exhausted {
                wait_ns = wait_ns.min(2 * MILLIS);
            }
            let wait_ms = wait_ns.div_ceil(MILLIS).clamp(0, 50) as i32;
            // Under io_uring the wake signal is the *ring* fd (armed
            // receives complete into the CQ without making the socket
            // readable), and datagrams already reaped into backend
            // memory would never wake a poll at all — skip the sleep
            // and drain them instead.
            #[cfg(unix)]
            let fd = self
                .batch
                .as_ref()
                .map(|b| b.poll_fd(&self.socket))
                .unwrap_or_else(|| self.socket.as_raw_fd());
            #[cfg(not(unix))]
            let fd = 0;
            let buffered = self.batch.as_ref().is_some_and(BatchIo::has_buffered_recv);
            if !buffered && (self.in_flight > 0 || !exhausted) {
                readiness::wait_readable(fd, wait_ms);
            }

            self.drain_datagrams(on_done);
            self.drain_tcp(on_done);
            self.fire_timers(on_done);
            // Same-tick coalescing: retries emitted by responses and
            // timeouts above, plus deferred releases that just matured,
            // all go out in one sendmmsg.
            self.flush_staged(on_done);
        }
        debug_assert!(self.staged.is_empty(), "staged sends leaked past the scan");
        debug_assert!(
            self.credits.as_ref().map_or(0, |c| c.held) == 0 && self.parked_count == 0,
            "credits leaked past the scan"
        );

        // End-of-run hygiene: every slot is free, the demux table is empty,
        // deferred sends whose owners retired are dropped with their wheel
        // entries, and lazily-cancelled timers get swept so nothing leaks
        // into the next scan on this reactor.
        for (token, _) in self.deferred.drain() {
            self.wheel.cancel(token);
        }
        self.wheel.sweep_cancelled();
        self.pacer.return_tokens();

        // Ring telemetry: this scan's delta, plus which backend ran.
        self.report.io_backend = self.io_backend();
        if let (Some(end), Some(start)) = (
            self.batch.as_ref().and_then(BatchIo::ring_stats),
            ring_stats_start,
        ) {
            self.report.ring_sqes = end.sqes - start.sqes;
            self.report.ring_enters = end.enters - start.enters;
            self.report.cqe_batches = end.cqe_batches - start.cqe_batches;
            self.report.sq_full_stalls = end.sq_full_stalls - start.sq_full_stalls;
        }
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> DemuxKey {
        ("127.0.0.1:53".parse().unwrap(), n)
    }

    #[test]
    fn wheel_fires_in_deadline_order_windows() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(5 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(3 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1]);
        wheel.expire(6 * MILLIS, &mut fired);
        assert_eq!(
            fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancellation_is_exact_and_sweepable() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(2 * MILLIS, 2, key(2));
        wheel.cancel(1);
        assert_eq!(wheel.live(), 1);
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![2]);
        assert_eq!(wheel.live(), 0);
        wheel.sweep_cancelled();
        assert_eq!(wheel.stored(), 0);
    }

    #[test]
    fn wheel_parks_beyond_horizon_and_still_fires() {
        let mut wheel = TimerWheel::new(4, MILLIS); // horizon = 4ms
        wheel.arm(11 * MILLIS, 7, key(7));
        let mut fired = Vec::new();
        wheel.expire(10 * MILLIS, &mut fired);
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(wheel.live(), 1);
        wheel.expire(12 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![7]);
        assert_eq!(wheel.live(), 0);
    }

    #[test]
    fn wheel_cancel_after_fire_is_a_noop() {
        let mut wheel = TimerWheel::new(8, MILLIS);
        wheel.arm(2 * MILLIS, 1, key(1));
        wheel.arm(2 * MILLIS, 2, key(2));
        let mut fired = Vec::new();
        wheel.expire(4 * MILLIS, &mut fired);
        assert_eq!(fired.len(), 2);
        assert_eq!(wheel.live(), 0);
        // A machine retiring right after its timers fired in the same batch
        // cancels tokens that are no longer armed: must not corrupt counts.
        wheel.cancel(1);
        wheel.cancel(2);
        assert_eq!(wheel.live(), 0);
        wheel.arm(6 * MILLIS, 3, key(3));
        assert_eq!(wheel.live(), 1);
        fired.clear();
        wheel.expire(8 * MILLIS, &mut fired);
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![3]);
        wheel.sweep_cancelled();
        assert_eq!(wheel.stored(), 0);
    }

    #[test]
    fn txid_allocation_avoids_collisions() {
        let addr_map: Arc<AddrMap> = Arc::new(|ip| SocketAddr::new(std::net::IpAddr::V4(ip), 53));
        let mut reactor = Reactor::new(
            ReactorConfig {
                source: Ipv4Addr::LOCALHOST,
                ..ReactorConfig::default()
            },
            addr_map,
        )
        .unwrap();
        let peer: SocketAddr = "127.0.0.1:5300".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer, 42), Some(42));
        reactor.demux.insert(
            (peer, 42),
            Pending {
                slot: 0,
                tag: 1,
                sim_ip: Ipv4Addr::LOCALHOST,
                orig_id: 42,
                timer_token: 0,
            },
        );
        let other = reactor.allocate_txid(peer, 42).unwrap();
        assert_ne!(other, 42);
        // A different peer can reuse the same wire id freely.
        let peer2: SocketAddr = "127.0.0.1:5301".parse().unwrap();
        assert_eq!(reactor.allocate_txid(peer2, 42), Some(42));
    }
}
