//! `serve_zipf`: `zdns serve` with one shard, driven open-loop by one
//! generator thread on one UDP socket at fixed offered rates. Each
//! query is timed from when it was due to be sent, so a stall delays
//! every query queued behind it, and the generator's own lateness is
//! reported.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zdns_core::{BatchIo, BatchSendStatus};
use zdns_core::{DriverReport, Resolver, ResolverConfig, ServeConfig, ServerRole};
use zdns_framework::serve::{start, ServeHandle, ServeOptions};
use zdns_netsim::{set_recv_buffer, RecvArena};
use zdns_wire::{
    encode_query_into, Cookie, Message, MessageView, Question, Rcode, RecordType, ScratchBuf,
};

use crate::answer::{a_records, Fleet};
use crate::gen::{
    serve_name, serve_pick, serve_query, zipf_cdf, ClientKind, Workload, SERVE_NAMES,
};
use crate::layers::Layers;
use crate::report::{Outcome, Report};
use crate::trace::{Boundary, Tracer};
use crate::util::{
    addr_for, current_tid, live_tids, median, percentile, status_kb, tail_percentile,
    thread_cpu_ns, tid_cpu_ns, tids_cpu_ns,
};

/// Offered rate well under the knee (queries/s).
pub const LOW_QPS: f64 = 5_000.0;
/// The higher fixed rung, queries/s.
pub const HIGH_QPS: f64 = 40_000.0;
/// The knee search starts above the high rung and raises the offered
/// rate by `PROBE_GROWTH` per rung until a rung fails.
const PROBE_START_QPS: f64 = 50_000.0;
const PROBE_GROWTH: f64 = 1.2;
/// A ceiling no loopback server reaches, so the search always ends.
const PROBE_MAX_QPS: f64 = 10_000_000.0;
/// Bisection rungs between the last passing and the first failing
/// rate: four halve the 20% bracket (in log space) to about 1.1%.
const BISECT_RUNGS: usize = 4;
/// The knee's latency limit, on a rung's median, µs. A median (not a
/// p99) because a shared 2-core VM stalls a thread for 5-50 ms every
/// few seconds: one stall decides a short rung's p99 but not its
/// median, while a saturated server's queue drives the median past any
/// limit.
pub const P50_LIMIT_US: u32 = 1_000;
/// Lost queries a passing rung may have, per million offered.
const LOSS_LIMIT_PPM: u64 = 1_000;
/// Queries the closed-loop saturation rung keeps outstanding.
const SATURATION_WINDOW: u64 = 2048;
/// The saturation rung's answer rate is a median over slices this long.
const SATURATION_SLICE: Duration = Duration::from_millis(100);
/// How long after a rung's last send its answers may still arrive.
const GRACE: Duration = Duration::from_millis(300);
/// Setup probes (`serve::start` calls) per run.
const SETUP_PROBES: usize = 31;
/// Queries the generator sends per `sendmmsg` at most.
const SEND_BATCH: usize = 64;
/// The client cookie of the cookie-sending clients.
const CLIENT_COOKIE: [u8; 8] = *b"perfbnch";

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Block until `socket` is readable or `wait` passes; true if readable.
fn wait_readable(socket: &UdpSocket, wait: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the call, the count matches the
    // single entry, and a null signal mask is allowed.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0 && fd.revents & 1 != 0
}

/// An empty vector whose capacity is already resident.
fn presized(capacity: usize) -> Vec<u32> {
    let mut v = vec![u32::MAX; capacity];
    v.clear();
    v
}

/// Where the query that owns a DNS ID stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No query has used the ID yet.
    Unused,
    /// Sent, not yet answered.
    Pending,
    /// Answered once.
    Answered,
    /// Counted lost: its rung ended, or its ID was needed again.
    Lost,
}

/// One slot per DNS ID: the query that currently owns it.
#[derive(Clone, Copy)]
struct Slot {
    idx: u64,
    due_ns: u64,
    state: SlotState,
}

/// Encode a query for `name` the way a `kind` client sends it.
fn encode_query(scratch: &mut ScratchBuf, name: &str, kind: ClientKind, id: u16) {
    let question = Question::new(name.parse().expect("generated names parse"), RecordType::A);
    scratch.reset();
    match kind {
        ClientKind::Cookie => {
            let cookie = Cookie::client(CLIENT_COOKIE);
            encode_query_into(scratch, id, &question, true, Some(&cookie)).expect("query encodes");
        }
        ClientKind::Edns => {
            encode_query_into(scratch, id, &question, true, None).expect("query encodes")
        }
        ClientKind::Plain => {
            let mut m = Message::query(id, question);
            m.edns = None;
            m.flags.recursion_desired = true;
            m.encode_into(scratch).expect("query encodes");
        }
    }
}

/// Every popular name's query, encoded once per client kind with ID 0,
/// and the address its answer must carry, so the generator's per-query
/// work is a copy and an ID patch.
struct Popular {
    bytes: Vec<u8>,
    /// Where entry `rank * 3 + kind` starts in `bytes`; one more than
    /// there are entries.
    starts: Vec<usize>,
    addrs: Vec<Ipv4Addr>,
}

const KINDS: [ClientKind; 3] = [ClientKind::Cookie, ClientKind::Edns, ClientKind::Plain];

impl Popular {
    fn new(seed: u64) -> Popular {
        let mut scratch = ScratchBuf::new();
        let mut table = Popular {
            bytes: Vec::new(),
            starts: vec![0],
            addrs: Vec::with_capacity(SERVE_NAMES as usize),
        };
        for rank in 0..SERVE_NAMES {
            let name = serve_name(seed, rank);
            for kind in KINDS {
                encode_query(&mut scratch, &name, kind, 0);
                table.bytes.extend_from_slice(scratch.message_bytes());
                table.starts.push(table.bytes.len());
            }
            table.addrs.push(addr_for(&name, 0));
        }
        table
    }

    /// The encoded query for `rank` from a `kind` client, ID 0.
    fn query(&self, rank: u64, kind: ClientKind) -> &[u8] {
        let entry =
            rank as usize * KINDS.len() + KINDS.iter().position(|k| *k == kind).unwrap_or(0);
        &self.bytes[self.starts[entry]..self.starts[entry + 1]]
    }
}

/// The generator: one thread, one socket.
struct Generator<'a> {
    seed: u64,
    cdf: &'a [f64],
    popular: Popular,
    socket: UdpSocket,
    server: SocketAddr,
    epoch: Instant,
    slots: Vec<Slot>,
    scratch: ScratchBuf,
    recv_buf: Vec<u8>,
    arena: RecvArena,
    batch_io: BatchIo,
    send_pool: Vec<Vec<u8>>,
    statuses: Vec<BatchSendStatus>,
    next_idx: u64,
    latencies_ns: Vec<u32>,
    lateness_us: Vec<u32>,
    tracer: Option<&'a Tracer>,
}

/// What one rung measured.
#[derive(Default)]
pub struct Rung {
    /// Offered rate, queries/s.
    pub qps: f64,
    /// Queries sent.
    pub sent: u64,
    /// Correct answers.
    pub ok: u64,
    /// Queries with no answer within the grace period.
    pub lost: u64,
    /// Correct answers that came after their query was counted lost or
    /// answered.
    pub stale: u64,
    /// Latency percentiles of correct answers (p50, p99, the tail
    /// percentile, its value), µs from due time.
    pub latency_us: (f64, f64, f64, f64),
    /// Median over the rung's ten time windows of each window's p50 and
    /// p99, µs.
    pub window_us: (f64, f64),
    /// p99 of the generator's lateness, µs.
    pub lateness_p99_us: u32,
    /// Mean lateness of the first and last tenth of sends, µs.
    pub lateness_drift_us: (f64, f64),
    /// Wall time from first due send to the end of the grace period.
    pub wall_s: f64,
}

impl Rung {
    /// Lost queries per million sent.
    pub fn lost_ppm(&self) -> u64 {
        self.lost * 1_000_000 / self.sent.max(1)
    }

    /// The first limit the rung breaks, if any: the server's latency or
    /// loss, or the generator falling behind its schedule.
    pub fn failure(&self) -> Option<&'static str> {
        let (early, late) = self.lateness_drift_us;
        if self.lost_ppm() > LOSS_LIMIT_PPM {
            Some("loss")
        } else if self.latency_us.0 > f64::from(P50_LIMIT_US) {
            Some("latency")
        } else if late > early + 1_000.0 {
            Some("generator lag")
        } else {
            None
        }
    }

    /// Whether the rung meets the latency, loss and lateness limits.
    pub fn passes(&self) -> bool {
        self.failure().is_none()
    }
}

impl<'a> Generator<'a> {
    fn new(seed: u64, cdf: &'a [f64], tracer: Option<&'a Tracer>) -> Generator<'a> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind generator socket");
        set_recv_buffer(&socket, 8 << 20);
        socket
            .set_nonblocking(true)
            .expect("nonblocking generator socket");
        Generator {
            seed,
            cdf,
            popular: Popular::new(seed),
            socket,
            server: (Ipv4Addr::LOCALHOST, 0).into(),
            epoch: Instant::now(),
            slots: vec![
                Slot {
                    idx: 0,
                    due_ns: 0,
                    state: SlotState::Unused,
                };
                1 << 16
            ],
            scratch: ScratchBuf::new(),
            recv_buf: vec![0u8; 4096],
            arena: RecvArena::new(64),
            batch_io: BatchIo::new(SEND_BATCH),
            send_pool: (0..SEND_BATCH).map(|_| Vec::with_capacity(512)).collect(),
            statuses: Vec::with_capacity(SEND_BATCH),
            next_idx: 0,
            // Sized for the busiest rung and touched now, so the run
            // never grows them after the memory baseline.
            latencies_ns: presized(1 << 21),
            lateness_us: presized(1 << 21),
            tracer,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Check one response against the oracle for query `idx`.
    /// `Ok(false)`: the response answers another question, so it says
    /// nothing about `idx`. `Err` describes a wrong answer.
    fn check(&self, idx: u64, raw: &[u8]) -> Result<bool, String> {
        let (rank, kind) = serve_pick(self.seed, idx, self.cdf);
        let name = || serve_query(self.seed, idx, self.cdf).name;
        if let Some(rank) = rank {
            // The server echoes the question as sent: compare its wire
            // bytes with the query's.
            let question = &self.popular.query(rank, ClientKind::Plain)[12..];
            if raw.get(12..12 + question.len()) != Some(question) {
                return Ok(false);
            }
        }
        let view =
            MessageView::parse(raw).map_err(|e| format!("{}: unparseable: {e:?}", name()))?;
        let want = match rank {
            Some(rank) => self.popular.addrs[rank as usize],
            None => {
                let name = name();
                let asked = view
                    .question()
                    .map(|qv| qv.to_question().name.to_ascii_lower());
                if asked.as_deref().map(|a| a.trim_end_matches('.')) != Some(name.as_str()) {
                    return Ok(false);
                }
                addr_for(&name, 0)
            }
        };
        if view.rcode() != Rcode::NoError || view.flags().truncated {
            return Err(format!(
                "{}: rcode {:?}, tc {}",
                name(),
                view.rcode(),
                view.flags().truncated
            ));
        }
        let mut got = view.answers().filter_map(|r| r.a_addr());
        let (first, more) = (got.next(), got.next().is_some());
        if first != Some(want) || more {
            return Err(format!(
                "{}: answers {first:?}{}, expected [{want}]",
                name(),
                if more { " and more" } else { "" }
            ));
        }
        match (kind, view.has_edns(), view.cookie()) {
            (ClientKind::Plain, false, _) | (ClientKind::Edns, true, None) => Ok(true),
            (ClientKind::Cookie, true, Some(c))
                if c.client_part() == CLIENT_COOKIE && !c.server_part().is_empty() =>
            {
                Ok(true)
            }
            (kind, edns, cookie) => Err(format!(
                "{}: {kind:?} client got edns={edns} cookie={}",
                name(),
                cookie.is_some()
            )),
        }
    }

    /// Check a response whose ID query `owner` holds against `owner`
    /// and then every earlier query that had the ID: `Ok(true)` if it is
    /// a correct answer to `owner`, `Ok(false)` if to an earlier query,
    /// `Err` if it answers none of them correctly.
    fn match_answer(&self, owner: u64, raw: &[u8]) -> Result<bool, String> {
        let mut first_err = None;
        let mut idx = Some(owner);
        while let Some(i) = idx {
            match self.check(i, raw) {
                Ok(true) => return Ok(i == owner),
                Ok(false) => {}
                // Another query with the same question may be the one
                // answered; keep looking.
                Err(why) => {
                    first_err.get_or_insert(why);
                }
            }
            idx = i.checked_sub(1 << 16);
        }
        Err(first_err.unwrap_or_else(|| {
            format!(
                "ID {}: the answer's question was asked under no query with that ID",
                owner & 0xffff
            )
        }))
    }

    /// Drain every answer waiting on the socket. A wrong answer, or an
    /// answer to no query sent, ends the run.
    fn receive(&mut self, rung: &mut Rung) {
        loop {
            let count = self.arena.recv_batch(&self.socket);
            if count == 0 {
                return;
            }
            let now = self.now_ns();
            for i in 0..count {
                let start = self.tracer.map(Tracer::start);
                let (raw, _) = self.arena.datagram(i);
                if raw.len() < 2 {
                    continue;
                }
                let id = usize::from(u16::from_be_bytes([raw[0], raw[1]]));
                let slot = self.slots[id];
                let verdict = match slot.state {
                    SlotState::Unused => Err(format!("ID {id}: answer before any query")),
                    _ => self.match_answer(slot.idx, raw),
                };
                match verdict {
                    Ok(true) if slot.state == SlotState::Pending => {}
                    // A late answer, or a repeated one, to this ID's
                    // current or an earlier query.
                    Ok(_) => {
                        rung.stale += 1;
                        continue;
                    }
                    Err(why) => {
                        eprintln!("perfbench: serve_zipf: wrong answer: {why}");
                        std::process::exit(3);
                    }
                }
                self.slots[id].state = SlotState::Answered;
                rung.ok += 1;
                self.latencies_ns
                    .push((now - slot.due_ns).min(u64::from(u32::MAX)) as u32);
                if let (Some(t), Some(start)) = (self.tracer, start) {
                    t.record(Boundary::GenRecv, None, slot.idx, start);
                    if slot.idx.is_multiple_of(crate::trace::SPAN_SAMPLE) {
                        // The root span of a query runs from its due time.
                        let end = t.now_ns();
                        let due = end.saturating_sub(self.now_ns() - slot.due_ns);
                        t.span("query", "", slot.idx, due, end);
                    }
                }
            }
        }
    }

    /// Encode and send one batch: a query for each due time in `dues`
    /// (at most `SEND_BATCH`), each with the next index and its ID.
    fn send_queries(&mut self, dues: &[u64], rung: &mut Rung) {
        let first_idx = self.next_idx;
        for (k, &due_ns) in dues.iter().enumerate() {
            let idx = self.next_idx;
            self.next_idx += 1;
            let id = (idx & 0xffff) as u16;
            if self.slots[usize::from(id)].state == SlotState::Pending {
                rung.lost += 1; // its slot is needed again: never answered
            }
            let buf = &mut self.send_pool[k];
            buf.clear();
            match serve_pick(self.seed, idx, self.cdf) {
                (Some(rank), kind) => {
                    buf.extend_from_slice(self.popular.query(rank, kind));
                    buf[..2].copy_from_slice(&id.to_be_bytes());
                }
                (None, kind) => {
                    let name = serve_query(self.seed, idx, self.cdf).name;
                    encode_query(&mut self.scratch, &name, kind, id);
                    buf.extend_from_slice(self.scratch.message_bytes());
                }
            }
            self.slots[usize::from(id)] = Slot {
                idx,
                due_ns,
                state: SlotState::Pending,
            };
        }
        let start = self.tracer.map(Tracer::start);
        let msgs: Vec<(&[u8], SocketAddr)> = self.send_pool[..dues.len()]
            .iter()
            .map(|b| (b.as_slice(), self.server))
            .collect();
        self.statuses.clear();
        self.batch_io
            .send_batch(&self.socket, &msgs, &mut self.statuses, &mut |_| {});
        let sent_at = self.now_ns();
        if let (Some(t), Some(start)) = (self.tracer, start) {
            t.record(Boundary::GenSend, None, first_idx, start);
        }
        for &due in dues {
            self.lateness_us
                .push(((sent_at.saturating_sub(due)) / 1_000) as u32);
        }
        rung.sent += dues.len() as u64;
    }

    /// Offer `qps` for `secs` seconds, open loop.
    fn rung(&mut self, qps: f64, secs: f64) -> Rung {
        let mut rung = Rung {
            qps,
            ..Rung::default()
        };
        self.latencies_ns.clear();
        self.lateness_us.clear();
        let gap_ns = 1e9 / qps;
        let t0 = self.now_ns();
        let count = (qps * secs) as u64;
        let due_of = |i: u64| t0 + (i as f64 * gap_ns) as u64;
        let mut dues = Vec::with_capacity(SEND_BATCH);
        while rung.sent < count {
            // Send everything due, in one batch.
            let now = self.now_ns();
            dues.clear();
            let mut next = rung.sent;
            while next < count && due_of(next) <= now && dues.len() < SEND_BATCH {
                dues.push(due_of(next));
                next += 1;
            }
            if !dues.is_empty() {
                self.send_queries(&dues, &mut rung);
            }
            self.receive(&mut rung);
            if rung.sent >= count {
                break;
            }
            // Sleep until the next send is due, waking early for answers.
            let wait = due_of(rung.sent).saturating_sub(self.now_ns());
            if wait > 5_000 && wait_readable(&self.socket, Duration::from_nanos(wait)) {
                self.receive(&mut rung);
            }
        }
        self.finish(rung, t0)
    }

    /// Closed loop: keep `SATURATION_WINDOW` queries outstanding for
    /// `secs`, so the server never waits for work. Returns the rung and
    /// the correct answers per second of each `SATURATION_SLICE` after
    /// the first.
    fn saturate(&mut self, secs: f64) -> (Rung, Vec<f64>) {
        let mut rung = Rung::default();
        self.latencies_ns.clear();
        self.lateness_us.clear();
        let t0 = self.now_ns();
        let end = t0 + (secs * 1e9) as u64;
        let slice = SATURATION_SLICE.as_nanos() as u64;
        let mut marks = vec![(t0, 0u64)];
        let mut dues = Vec::with_capacity(SEND_BATCH);
        loop {
            let now = self.now_ns();
            if now >= end {
                break;
            }
            if now >= marks[marks.len() - 1].0 + slice {
                marks.push((now, rung.ok));
            }
            // Refill a whole batch at a time, so sends stay batched.
            let outstanding = rung.sent - rung.ok - rung.lost;
            if outstanding + SEND_BATCH as u64 <= SATURATION_WINDOW {
                dues.clear();
                dues.extend(std::iter::repeat_n(now, SEND_BATCH));
                self.send_queries(&dues, &mut rung);
            } else {
                wait_readable(&self.socket, Duration::from_millis(1));
            }
            self.receive(&mut rung);
        }
        let rates = marks
            .windows(2)
            .skip(1)
            .map(|w| (w[1].1 - w[0].1) as f64 / ((w[1].0 - w[0].0) as f64 / 1e9))
            .collect();
        (self.finish(rung, t0), rates)
    }

    /// Wait out the grace period for the rung's last answers, count the
    /// rest lost, and work out the rung's latency and lateness figures.
    fn finish(&mut self, mut rung: Rung, t0: u64) -> Rung {
        let grace_end = self.now_ns() + GRACE.as_nanos() as u64;
        while self.now_ns() < grace_end {
            self.receive(&mut rung);
            if self.slots.iter().all(|s| s.state != SlotState::Pending) {
                break;
            }
            wait_readable(&self.socket, Duration::from_millis(1));
        }
        for slot in self.slots.iter_mut() {
            if slot.state == SlotState::Pending {
                slot.state = SlotState::Lost;
                rung.lost += 1;
            }
        }
        rung.wall_s = (self.now_ns() - t0) as f64 / 1e9;
        let tenth = (self.lateness_us.len() / 10).max(1);
        let mean = |s: &[u32]| s.iter().map(|&v| f64::from(v)).sum::<f64>() / s.len().max(1) as f64;
        rung.lateness_drift_us = (
            mean(&self.lateness_us[..tenth.min(self.lateness_us.len())]),
            mean(&self.lateness_us[self.lateness_us.len().saturating_sub(tenth)..]),
        );
        // Per-window percentiles first (answers arrive in time order),
        // then the whole rung's, sorting the buffer in place.
        let window = (self.latencies_ns.len() / 10).max(1);
        let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = self
            .latencies_ns
            .chunks_mut(window)
            .map(|w| {
                w.sort_unstable();
                (
                    f64::from(percentile(w, 50.0)),
                    f64::from(percentile(w, 99.0)),
                )
            })
            .unzip();
        rung.window_us = (median(&mut p50s) / 1e3, median(&mut p99s) / 1e3);
        self.latencies_ns.sort_unstable();
        let us = |p: f64| f64::from(percentile(&self.latencies_ns, p)) / 1e3;
        let tail = tail_percentile(self.latencies_ns.len());
        rung.latency_us = (us(50.0), us(99.0), tail, us(tail));
        self.lateness_us.sort_unstable();
        rung.lateness_p99_us = percentile(&self.lateness_us, 99.0);
        rung
    }

    /// Ask for every popular name once, a window at a time, so the
    /// server's record cache holds the whole working set. The warm-up has
    /// a socket of its own, so none of its answers reach the rungs.
    fn warm_records(&mut self) {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind warm-up socket");
        set_recv_buffer(&socket, 8 << 20);
        socket
            .set_nonblocking(true)
            .expect("nonblocking warm-up socket");
        let names: Vec<String> = (0..SERVE_NAMES).map(|r| serve_name(self.seed, r)).collect();
        let mut pending: Vec<usize> = (0..names.len()).collect();
        for _round in 0..5 {
            let mut missed = Vec::new();
            for chunk in pending.chunks(256) {
                for (k, &i) in chunk.iter().enumerate() {
                    let question =
                        Question::new(names[i].parse().expect("name parses"), RecordType::A);
                    self.scratch.reset();
                    encode_query_into(&mut self.scratch, k as u16, &question, true, None)
                        .expect("query encodes");
                    let _ = socket.send_to(self.scratch.message_bytes(), self.server);
                }
                let mut answered = vec![false; chunk.len()];
                let deadline = Instant::now() + Duration::from_millis(500);
                while answered.iter().any(|a| !a) && Instant::now() < deadline {
                    match socket.recv_from(&mut self.recv_buf) {
                        Ok((n, _)) if n >= 2 => {
                            let k = usize::from(u16::from_be_bytes([
                                self.recv_buf[0],
                                self.recv_buf[1],
                            ]));
                            if k >= chunk.len() {
                                continue;
                            }
                            let name = &names[chunk[k]];
                            let Ok(view) = MessageView::parse(&self.recv_buf[..n]) else {
                                eprintln!("perfbench: serve_zipf: unparseable warm-up answer");
                                std::process::exit(3);
                            };
                            let asked = view
                                .question()
                                .map(|qv| qv.to_question().name.to_ascii_lower());
                            if asked.as_deref().map(|a| a.trim_end_matches('.'))
                                != Some(name.as_str())
                            {
                                // A late answer from an earlier window: its
                                // name is asked again if it stays missing.
                                continue;
                            }
                            let got: Vec<Ipv4Addr> =
                                view.answers().filter_map(|r| r.a_addr()).collect();
                            if got != [addr_for(name, 0)] {
                                eprintln!(
                                    "perfbench: serve_zipf: wrong warm-up answer for {name}: {got:?}"
                                );
                                std::process::exit(3);
                            }
                            answered[k] = true;
                        }
                        Ok(_) => {}
                        Err(_) => {
                            wait_readable(&socket, Duration::from_millis(1));
                        }
                    }
                }
                missed.extend(
                    chunk
                        .iter()
                        .zip(&answered)
                        .filter(|(_, a)| !**a)
                        .map(|(i, _)| *i),
                );
            }
            pending = missed;
            if pending.is_empty() {
                return;
            }
        }
        panic!("serve warm-up: {} names never answered", pending.len());
    }
}

fn serve_options(upstream: SocketAddr) -> ServeOptions {
    ServeOptions {
        listen: (Ipv4Addr::LOCALHOST, 0).into(),
        upstreams: vec![upstream],
        shards: 1,
        ..ServeOptions::default()
    }
}

/// Everything one serve phase measured.
pub struct ServePhase {
    /// The low and high rungs.
    pub low: Rung,
    /// The high rung.
    pub high: Rung,
    /// The closed-loop saturation rung.
    pub saturation: Rung,
    /// Correct answers per second in each slice of the saturation rung.
    pub saturation_rates: Vec<f64>,
    /// Share of a core the server's threads and the generator used
    /// during the saturation rung.
    pub saturation_cores: (f64, f64),
    /// Serve counters over the saturation rung.
    pub saturation_stats: ServeDelta,
    /// The knee search rungs, in order.
    pub probes: Vec<Rung>,
    /// The knee: the geometric mean of the highest passing and the
    /// lowest failing offered rate, queries/s.
    pub knee_qps: f64,
    /// Whether every rung up to `PROBE_MAX_QPS` passed, so the knee is
    /// only a lower bound.
    pub knee_capped: bool,
    /// Setup times, seconds.
    pub setups: Vec<f64>,
    /// Peak live heap above the baseline, MiB.
    pub heap_peak_mb: f64,
    /// Median live heap above the baseline, MiB.
    pub heap_median_mb: f64,
    /// Peak resident memory above the baseline, MiB.
    pub rss_peak_mb: f64,
    /// Program CPU during the low and high rungs, ns.
    pub program_cpu_ns: u64,
    /// Generator CPU during the low and high rungs, ns.
    pub gen_cpu_ns: u64,
    /// Upstream answering CPU and queries during the low and high rungs.
    pub answer: (u64, u64),
    /// Busiest harness thread's share of a core during the high rung.
    pub harness_peak_core: f64,
    /// Serve counters over the low and high rungs.
    pub stats: ServeDelta,
    /// The server's driver report.
    pub driver: DriverReport,
}

/// Serve counters over an interval.
#[derive(Default, Clone, Copy)]
pub struct ServeDelta {
    /// Queries received.
    pub queries: u64,
    /// Cache hits (packet or record path).
    pub cache_hits: u64,
    /// Packet-cache hits.
    pub packet_hits: u64,
    /// Forwarded lookups.
    pub forwarded: u64,
    /// Dropped for a full forwarding window.
    pub overloaded: u64,
    /// TC responses.
    pub truncated: u64,
    /// Packet-cache fills.
    pub packet_fills: u64,
    /// Packet-cache expiries.
    pub packet_expired: u64,
    /// Packet-cache invalidations.
    pub packet_invalidations: u64,
}

fn serve_counters(h: &ServeHandle) -> ServeDelta {
    let stats = h.stats();
    let sum = |f: fn(&zdns_core::ServeStats) -> u64| stats.iter().map(|s| f(s)).sum();
    ServeDelta {
        queries: h.queries(),
        cache_hits: h.cache_hits(),
        packet_hits: h.packet_hits(),
        forwarded: h.forwarded(),
        overloaded: sum(|s| s.overloaded()),
        truncated: h.truncated(),
        packet_fills: h.packet_fills(),
        packet_expired: h.packet_expired(),
        packet_invalidations: h.packet_invalidations(),
    }
}

impl ServeDelta {
    fn minus(self, b: ServeDelta) -> ServeDelta {
        ServeDelta {
            queries: self.queries - b.queries,
            cache_hits: self.cache_hits - b.cache_hits,
            packet_hits: self.packet_hits - b.packet_hits,
            forwarded: self.forwarded - b.forwarded,
            overloaded: self.overloaded - b.overloaded,
            truncated: self.truncated - b.truncated,
            packet_fills: self.packet_fills - b.packet_fills,
            packet_expired: self.packet_expired - b.packet_expired,
            packet_invalidations: self.packet_invalidations - b.packet_invalidations,
        }
    }
}

/// Run one serve phase: setup probes, warm-up, the fixed rungs, then
/// the knee search.
pub fn run_phase(seed: u64, secs: f64, tracer: Option<Arc<Tracer>>) -> ServePhase {
    let fleet = Fleet::start(Workload::ServeZipf, tracer.clone()).expect("upstream starts");
    let cdf = zipf_cdf();
    let mut gen = Generator::new(seed, &cdf, tracer.as_deref());
    let baseline_kb = status_kb("VmRSS");
    let heap = crate::heap::HeapSampler::start();
    let baseline_heap = crate::heap::live_bytes();
    let mut setups = Vec::new();
    let opts = serve_options(fleet.resolver_addr);
    for _ in 0..SETUP_PROBES - 1 {
        let started = Instant::now();
        let handle = start(&opts).expect("serve starts");
        setups.push(started.elapsed().as_secs_f64());
        handle.stop();
    }
    // Threads alive before the measured fleet starts are harness (the
    // upstream's and this generator thread); the ones `start` adds are
    // the program's.
    let me = current_tid();
    let harness_tids: Vec<i32> = live_tids().into_iter().filter(|t| *t != me).collect();
    let started = Instant::now();
    let handle = start(&opts).expect("serve starts");
    setups.push(started.elapsed().as_secs_f64());
    let server_tids: Vec<i32> = live_tids()
        .into_iter()
        .filter(|t| *t != me && !harness_tids.contains(t))
        .collect();
    gen.server = handle.local_addr();
    gen.warm_records();
    // Fill the packet cache with the popular names at the low rate.
    gen.rung(LOW_QPS * 4.0, 0.5);

    let fixed_secs = secs * 0.3;
    let counters_before = serve_counters(&handle);
    let answer_before = fleet.answerer.stats.queries.load(Ordering::Relaxed);
    let harness_before: Vec<u64> = harness_tids.iter().map(|&t| tid_cpu_ns(t)).collect();
    let server_before = tids_cpu_ns(&server_tids);
    let gen_before = thread_cpu_ns();
    let low = gen.rung(LOW_QPS, fixed_secs);
    let high_harness_before: Vec<u64> = harness_tids.iter().map(|&t| tid_cpu_ns(t)).collect();
    let high_gen_before = thread_cpu_ns();
    let high = gen.rung(HIGH_QPS, fixed_secs);
    // The fixed rungs are far below the knee: a query lost there is a
    // failure of the server, not a sign of load.
    for rung in [&low, &high] {
        if rung.lost_ppm() > LOSS_LIMIT_PPM {
            eprintln!(
                "perfbench: serve_zipf: {} of {} queries lost at the fixed {} qps rung (limit {LOSS_LIMIT_PPM} ppm)",
                rung.lost, rung.sent, rung.qps
            );
            std::process::exit(3);
        }
    }
    let gen_cpu_ns = thread_cpu_ns() - gen_before;
    let program_cpu_ns = tids_cpu_ns(&server_tids) - server_before;
    let harness_after: Vec<u64> = harness_tids.iter().map(|&t| tid_cpu_ns(t)).collect();
    let answer_cpu: u64 = harness_after
        .iter()
        .zip(&harness_before)
        .map(|(a, b)| a.saturating_sub(*b))
        .sum();
    let high_peak = harness_after
        .iter()
        .zip(&high_harness_before)
        .map(|(a, b)| a.saturating_sub(*b))
        .chain(std::iter::once(thread_cpu_ns() - high_gen_before))
        .max()
        .unwrap_or(0) as f64
        / 1e9
        / high.wall_s;
    let (heap_peak, heap_median) = heap.finish();
    let rss_peak_kb = status_kb("VmHWM");
    let stats = serve_counters(&handle).minus(counters_before);
    let answered = fleet.answerer.stats.queries.load(Ordering::Relaxed) - answer_before;

    let server_before = tids_cpu_ns(&server_tids);
    let gen_before = thread_cpu_ns();
    let saturation_before = serve_counters(&handle);
    let (saturation, saturation_rates) = gen.saturate(secs * 0.25);
    let saturation_stats = serve_counters(&handle).minus(saturation_before);
    let saturation_cores = (
        (tids_cpu_ns(&server_tids) - server_before) as f64 / 1e9 / saturation.wall_s,
        (thread_cpu_ns() - gen_before) as f64 / 1e9 / saturation.wall_s,
    );
    let (probes, knee_qps, knee_capped) = find_knee(&mut gen, &low, &high, (secs * 0.04).max(0.2));
    let driver = handle
        .stop()
        .into_iter()
        .fold(DriverReport::default(), |mut acc, r| {
            acc.merge(&r);
            acc
        });
    ServePhase {
        low,
        high,
        saturation,
        saturation_rates,
        saturation_cores,
        saturation_stats,
        probes,
        knee_qps,
        knee_capped,
        setups,
        heap_peak_mb: (heap_peak - baseline_heap) as f64 / (1 << 20) as f64,
        heap_median_mb: (heap_median - baseline_heap) as f64 / (1 << 20) as f64,
        rss_peak_mb: rss_peak_kb.saturating_sub(baseline_kb) as f64 / 1024.0,
        program_cpu_ns,
        gen_cpu_ns,
        answer: (answer_cpu, answered),
        harness_peak_core: high_peak,
        stats,
        driver,
    }
}

/// The highest offered rate that meets every limit. Rungs of
/// `probe_secs` rise by `PROBE_GROWTH` from `PROBE_START_QPS` until one
/// fails; `BISECT_RUNGS` more then narrow the bracket. Returns the
/// rungs, the knee and whether the search ran out of rates to try.
fn find_knee(
    gen: &mut Generator<'_>,
    low: &Rung,
    high: &Rung,
    probe_secs: f64,
) -> (Vec<Rung>, f64, bool) {
    let mut pass_qps = [high, low]
        .into_iter()
        .find(|r| r.passes())
        .map_or(0.0, |r| r.qps);
    let mut fail_qps = None;
    let mut probes = Vec::new();
    let mut qps = PROBE_START_QPS;
    while qps <= PROBE_MAX_QPS && fail_qps.is_none() {
        let rung = gen.rung(qps, probe_secs);
        if rung.passes() {
            pass_qps = qps;
        } else {
            fail_qps = Some(qps);
        }
        probes.push(rung);
        qps *= PROBE_GROWTH;
    }
    let Some(mut fail_qps) = fail_qps else {
        return (probes, pass_qps, true);
    };
    for _ in 0..BISECT_RUNGS {
        let mid = (pass_qps.max(1.0) * fail_qps).sqrt();
        let rung = gen.rung(mid, probe_secs);
        if rung.passes() {
            pass_qps = mid;
        } else {
            fail_qps = mid;
        }
        probes.push(rung);
    }
    (probes, (pass_qps.max(1.0) * fail_qps).sqrt(), false)
}

/// End-to-end metrics of a serve phase.
pub fn end_to_end(phase: &ServePhase, report: &mut Report) {
    let queries = (phase.low.sent + phase.high.sent).max(1) as f64;
    let answers = phase.low.ok + phase.high.ok;
    // Serving capacity: correct answers per second while the server
    // always has queries waiting.
    let mut rates = phase.saturation_rates.clone();
    report.metric(
        "successes_per_s",
        median(&mut rates),
        "1/s",
        phase.saturation.ok as usize,
    );
    report.metric(
        "cpu_us_per_op",
        phase.program_cpu_ns as f64 / 1e3 / answers.max(1) as f64,
        "us",
        answers as usize,
    );
    report.metric(
        "queries_per_lookup",
        phase.answer.1 as f64 / queries,
        "count",
        queries as usize,
    );
    // The low rung's median: at the high rung the median moves between
    // about 47 and 62 us from run to run with how answers batch, while
    // the low rung's (the idle-to-awake path) holds within a few percent.
    let low = &phase.low;
    report.metric(
        "lookup_p50_ms",
        low.window_us.0 / 1e3,
        "ms",
        low.ok as usize,
    );
    let mut setups = phase.setups.clone();
    report.metric("setup_s", median(&mut setups), "s", setups.len());
    if crate::heap::counting() {
        report.info(format!(
            "memory above baseline: live heap peak {:.3} MiB, median {:.3} MiB; resident peak {:.3} MiB",
            phase.heap_peak_mb, phase.heap_median_mb, phase.rss_peak_mb
        ));
    } else {
        report.info(format!(
            "memory above baseline: resident peak {:.3} MiB (live heap is counted in traced runs)",
            phase.rss_peak_mb
        ));
    }
    let (server_core, gen_core) = phase.saturation_cores;
    report.info(format!(
        "saturation: {} queries kept outstanding for {:.1} s, {} correct answers, {} lost ({} dropped by the server for a full forwarding window, {} late answers); server threads at {:.0}% of a core, generator at {:.0}%",
        SATURATION_WINDOW,
        phase.saturation.wall_s,
        phase.saturation.ok,
        phase.saturation.lost,
        phase.saturation_stats.overloaded,
        phase.saturation.stale,
        server_core * 100.0,
        gen_core * 100.0
    ));
    report.info(format!(
        "serve_max_qps = {}{:.0} 1/s (median limit {P50_LIMIT_US} us, loss limit {LOSS_LIMIT_PPM} ppm, {} rungs)",
        if phase.knee_capped { ">= " } else { "" },
        phase.knee_qps,
        phase.probes.len()
    ));
    for (label, rung) in [("low", &phase.low), ("high", &phase.high)] {
        let (p50, p99, tail, tail_us) = rung.latency_us;
        report.info(format!(
            "serve_p50_us.{label} = {p50:.1} us, serve_p99_us.{label} = {p99:.1} us (window medians {:.1} / {:.1} us), p{tail} = {tail_us:.1} us (n={}, offered {} qps, {} lost)",
            rung.window_us.0, rung.window_us.1, rung.ok, rung.qps, rung.lost
        ));
    }
    for rung in &phase.probes {
        report.info(format!(
            "knee probe {} qps: p50 {:.1} us, p99 {:.1} us, {} lost of {} ({} late answers), lateness p99 {} us, {}",
            rung.qps,
            rung.latency_us.0,
            rung.latency_us.1,
            rung.lost,
            rung.sent,
            rung.stale,
            rung.lateness_p99_us,
            rung.failure().map_or("pass".into(), |why| format!("FAIL ({why})"))
        ));
    }
    report.info(format!(
        "fail_frac = {:.6} ({} lost of {} at the fixed rungs)",
        (phase.low.lost + phase.high.lost) as f64 / queries,
        phase.low.lost + phase.high.lost,
        queries
    ));
    report.info(format!(
        "harness: answer_cpu_us_per_query = {:.3} ({} upstream queries), gen_cpu_us_per_query = {:.3}, gen_late_us_p99 = {} (high rung)",
        phase.answer.0 as f64 / 1e3 / phase.answer.1.max(1) as f64,
        phase.answer.1,
        phase.gen_cpu_ns as f64 / 1e3 / queries,
        phase.high.lateness_p99_us
    ));
    report.harness_saturation(phase.harness_peak_core);
    if gen_core > server_core {
        report.invalid.push(format!(
            "the generator ({:.0}% of a core) was busier than the server ({:.0}%) at saturation",
            gen_core * 100.0,
            server_core * 100.0
        ));
    }
    report.io_backend = phase.driver.io_backend;
}

/// The outcome of an untraced serve run.
pub fn run_untraced(seed: u64, secs: f64) -> Outcome {
    let phase = run_phase(seed, secs, None);
    let mut report = Report::default();
    end_to_end(&phase, &mut report);
    Outcome {
        attempted: phase.low.sent + phase.high.sent,
        failed: phase.low.lost + phase.high.lost,
        report,
    }
}

/// A server role whose record cache holds every popular name of `seed`.
fn warmed_role(seed: u64) -> ServerRole {
    let resolver = Resolver::new(ResolverConfig::external(vec![Ipv4Addr::new(192, 0, 2, 53)]));
    for rank in 0..SERVE_NAMES {
        let name = serve_name(seed, rank);
        let name: zdns_wire::Name = name.parse().expect("name parses");
        resolver.core().cache.put(
            zdns_core::CacheKey {
                name: name.clone(),
                rtype: RecordType::A,
            },
            a_records(&name, 1),
            0,
        );
    }
    ServerRole::new(resolver, zdns_core::Clock::new(), ServeConfig::default())
}

/// Replay the workload's queries through `ServerRole::handle_datagram`
/// on a role warmed like the benchmark's fleet: the median ns and count
/// of packet-path and of record-path queries.
pub fn replay_handle_datagram(seed: u64) -> ((f64, usize), (f64, usize)) {
    let cdf = zipf_cdf();
    let mut role = warmed_role(seed);
    let mut gen_scratch = ScratchBuf::new();
    let mut encode = |i: u64| {
        let q = serve_query(seed, i, &cdf);
        encode_query(&mut gen_scratch, &q.name, q.kind, 7);
        (!q.fresh).then(|| gen_scratch.message_bytes().to_vec())
    };
    // The measured fleet's packet cache is warmed by a short Zipf pass
    // over a record cache that holds every name; so is this role.
    let warm: Vec<Vec<u8>> = (1_000_000..1_010_000).filter_map(&mut encode).collect();
    let queries: Vec<Vec<u8>> = (0..20_000).filter_map(&mut encode).collect();
    let peer: SocketAddr = (Ipv4Addr::LOCALHOST, 40_000).into();
    for q in &warm {
        std::hint::black_box(role.handle_datagram(q, peer, 1));
    }
    // Split by outcome: a query whose packet-hit counter moves took the
    // packet path; the rest took the record path (and memoized).
    let stats = role.stats();
    let (mut packet, mut record) = (Vec::new(), Vec::new());
    for q in &queries {
        let before = stats.packet_hits();
        let started = Instant::now();
        std::hint::black_box(role.handle_datagram(q, peer, 1));
        let ns = started.elapsed().as_nanos() as f64;
        if stats.packet_hits() > before {
            packet.push(ns);
        } else {
            record.push(ns);
        }
    }
    let (packets, records) = (packet.len(), record.len());
    (
        (median(&mut packet), packets),
        (median(&mut record), records),
    )
}

/// The outcome of a traced serve run: half the time untraced, half
/// traced, then the per-layer metrics.
pub fn run_traced(seed: u64, secs: f64) -> Outcome {
    let half = (secs / 2.0).max(1.0);
    let untraced = run_phase(seed, half, None);
    let tracer = Arc::new(Tracer::new());
    let phase = run_phase(seed, half, Some(Arc::clone(&tracer)));
    let ((packet_ns, packet_n), (record_ns, record_n)) = replay_handle_datagram(seed);

    let st = &phase.stats;
    let q = st.queries.max(1) as f64;
    let sent = (phase.low.sent + phase.high.sent).max(1) as f64;
    let mut layers = Layers::default();
    let mut report = Report::default();
    layers.set(
        "serve.packet_hit_frac",
        st.packet_hits as f64 / q,
        st.queries as usize,
    );
    layers.set(
        "serve.record_hit_frac",
        st.cache_hits.saturating_sub(st.packet_hits) as f64 / q,
        st.queries as usize,
    );
    layers.set(
        "serve.forwarded_frac",
        st.forwarded as f64 / q,
        st.queries as usize,
    );
    layers.set("serve.overloaded", st.overloaded as f64, 1);
    layers.set("serve.truncated", st.truncated as f64, 1);
    layers.set("serve.packet_fills", st.packet_fills as f64, 1);
    layers.set("serve.packet_expired", st.packet_expired as f64, 1);
    layers.set(
        "serve.packet_invalidations",
        st.packet_invalidations as f64,
        1,
    );
    layers.set(
        "serve.server_cpu_us_per_query",
        phase.program_cpu_ns as f64 / 1e3 / q,
        st.queries as usize,
    );
    layers.set("serve.handle_datagram_ns.packet", packet_ns, packet_n);
    layers.set("serve.handle_datagram_ns.record", record_ns, record_n);
    layers.set("serve.max_qps", untraced.knee_qps, untraced.probes.len());
    layers.set(
        "harness.answer_cpu_us_per_query",
        phase.answer.0 as f64 / 1e3 / phase.answer.1.max(1) as f64,
        phase.answer.1 as usize,
    );
    layers.set(
        "harness.gen_cpu_us_per_query",
        phase.gen_cpu_ns as f64 / 1e3 / sent,
        sent as usize,
    );
    layers.set(
        "harness.gen_late_us_p99",
        f64::from(phase.high.lateness_p99_us),
        phase.high.sent as usize,
    );
    layers.set("memory.heap_peak_mb", phase.heap_peak_mb, 1);
    layers.set("memory.rss_peak_mb", phase.rss_peak_mb, 1);
    layers.set("harness.peak_core_frac", phase.harness_peak_core, 1);
    layers.set(
        "trace.overhead_frac",
        phase.high.window_us.0 / untraced.high.window_us.0.max(1e-3) - 1.0,
        2,
    );
    layers.set(
        "reactor.peak_in_flight",
        phase.driver.peak_in_flight as f64,
        1,
    );
    layers.set("wire.decode_errors", phase.driver.decode_errors as f64, 1);
    let (send_ns, _, sends) = tracer.total(Boundary::GenSend);
    let (recv_ns, _, recvs) = tracer.total(Boundary::GenRecv);
    let (respond_ns, _, responds) = tracer.total(Boundary::Respond);
    report.info(format!(
        "self time per call: generator send batch {:.0} ns, generator receive+check {:.0} ns, upstream respond {:.0} ns",
        send_ns as f64 / sends.max(1) as f64,
        recv_ns as f64 / recvs.max(1) as f64,
        respond_ns as f64 / responds.max(1) as f64,
    ));
    let path_mix = st.packet_hits as f64 * packet_ns
        + st.cache_hits.saturating_sub(st.packet_hits) as f64 * record_ns;
    report.info(format!(
        "reconciliation (us/query): replayed handle_datagram mix {:.2} of server CPU {:.2}; residual {:.2} (socket I/O, forwarding, reactor loop)",
        path_mix / 1e3 / q,
        phase.program_cpu_ns as f64 / 1e3 / q,
        phase.program_cpu_ns as f64 / 1e3 / q - path_mix / 1e3 / q,
    ));
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-serve_zipf-{seed}.jsonl"));
    match tracer.write_spans(&path) {
        Ok(count) => report.info(format!("{count} spans written to {}", path.display())),
        Err(e) => report.info(format!("spans not written to {}: {e}", path.display())),
    }
    report.harness_saturation(phase.harness_peak_core);
    report.io_backend = phase.driver.io_backend;
    layers.emit(&mut report);
    Outcome {
        attempted: untraced.low.sent + untraced.high.sent + phase.low.sent + phase.high.sent,
        failed: untraced.low.lost + untraced.high.lost + phase.low.lost + phase.high.lost,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator accepts the program's answer to each client kind's
    /// query, takes it as a late answer when a later query holds the ID,
    /// and rejects it with a wrong address.
    #[test]
    fn generator_checks_answers_from_the_server_role() {
        let seed = 3;
        let cdf = zipf_cdf();
        let gen = Generator::new(seed, &cdf, None);
        let mut role = warmed_role(seed);
        let peer: SocketAddr = (Ipv4Addr::LOCALHOST, 40_000).into();
        let mut kinds = Vec::new();
        for idx in 0..1_000 {
            let (Some(rank), kind) = serve_pick(seed, idx, &cdf) else {
                continue;
            };
            if kinds.contains(&kind) {
                continue;
            }
            kinds.push(kind);
            let mut query = gen.popular.query(rank, kind).to_vec();
            query[..2].copy_from_slice(&(idx as u16).to_be_bytes());
            let answer = role
                .handle_datagram(&query, peer, 1)
                .expect("a cached name is answered")
                .to_vec();
            assert_eq!(gen.check(idx, &answer), Ok(true), "{kind:?}");
            let later = (1..)
                .map(|k| idx + (k << 16))
                .find(|&i| serve_pick(seed, i, &cdf).0 != Some(rank))
                .expect("a later query asks another name");
            assert_eq!(gen.match_answer(later, &answer), Ok(false), "{kind:?}");
            let addr = gen.popular.addrs[rank as usize].octets();
            let at = answer
                .windows(4)
                .position(|w| w == addr)
                .expect("the answer carries the address");
            let mut wrong = answer.clone();
            wrong[at + 3] ^= 1;
            assert!(gen.check(idx, &wrong).is_err(), "{kind:?}");
            assert!(gen.match_answer(later, &wrong).is_err(), "{kind:?}");
        }
        assert_eq!(kinds.len(), 3);
    }
}
