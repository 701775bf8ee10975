//! In-memory tracing for the traced run.
//!
//! The benchmark wraps the calls it makes into the program's public
//! entry points (`InputSource::next_name`, `LookupModule::make_machine`,
//! each `SimClient` call, `OutputSink::write_output`, `Universe::respond`
//! on the answering side, and the serve generator's send and receive).
//! Every wrapped call adds its wall and thread-CPU duration to a
//! per-boundary accumulator and, for one operation in [`SPAN_SAMPLE`],
//! records a span. The same thread-CPU readings attribute CPU to the
//! feeder, worker, writer and harness threads without touching the
//! program. Spans stay in memory and are written
//! out when the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{current_tid, thread_cpu_ns};

/// One operation in this many gets its spans recorded.
pub const SPAN_SAMPLE: u64 = 64;
/// A thread's CPU total is refreshed on one wrapped call in this many.
const CPU_SAMPLE: u64 = 16;

/// A wrapped boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// `InputSource::next_name`.
    NextName,
    /// `LookupModule::make_machine`.
    MakeMachine,
    /// `SimClient::start` and `SimClient::on_event`.
    Machine,
    /// `OutputSink::write_output` around `JsonlSink`.
    WriteOutput,
    /// The benchmark's own output check (harness work on the writer).
    OracleCheck,
    /// `Universe::respond` on the answering side.
    Respond,
    /// Generator sends (serve).
    GenSend,
    /// Generator receives and checks (serve).
    GenRecv,
}

impl Boundary {
    const ALL: [Boundary; 8] = [
        Boundary::NextName,
        Boundary::MakeMachine,
        Boundary::Machine,
        Boundary::WriteOutput,
        Boundary::OracleCheck,
        Boundary::Respond,
        Boundary::GenSend,
        Boundary::GenRecv,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::NextName => "InputSource::next_name",
            Boundary::MakeMachine => "LookupModule::make_machine",
            Boundary::Machine => "SimClient",
            Boundary::WriteOutput => "OutputSink::write_output",
            Boundary::OracleCheck => "oracle.check",
            Boundary::Respond => "Universe::respond",
            Boundary::GenSend => "generator.send",
            Boundary::GenRecv => "generator.recv",
        }
    }
}

/// The thread roles CPU is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// The pipeline's input feeder.
    Feeder,
    /// A reactor worker.
    Worker,
    /// The output writer.
    Writer,
    /// A loopback answering server (harness).
    Answer,
}

#[derive(Default)]
struct Acc {
    ns: AtomicU64,
    cpu_ns: AtomicU64,
    calls: AtomicU64,
}

/// When a wrapped call started, on the wall clock and on its thread's
/// CPU clock.
#[derive(Clone, Copy)]
pub struct Start {
    wall_ns: u64,
    cpu_ns: u64,
}

/// One recorded span.
struct Span {
    name: &'static str,
    parent: &'static str,
    op: u64,
    tid: i32,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Per-run trace state, shared by every wrapper.
pub struct Tracer {
    epoch: Instant,
    accs: HashMap<Boundary, Acc>,
    /// Allocations made inside `SimClient` calls.
    pub machine_allocs: AtomicU64,
    threads: Mutex<HashMap<i32, (Role, u64, u64)>>,
    spans: Mutex<Vec<Span>>,
    /// Microseconds each lookup waited between its pull and its
    /// `make_machine` (the shared input queue).
    pub input_waits: Mutex<Vec<u32>>,
    /// When each lookup in flight got its machine (µs on the run's
    /// clock), by input index.
    pub admitted_us: Mutex<HashMap<u64, u32>>,
    /// (class code, µs from `make_machine` to checked output) per lookup.
    pub in_flight_us: Mutex<Vec<(u8, u32)>>,
}

impl Tracer {
    /// A fresh tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            accs: Boundary::ALL.iter().map(|b| (*b, Acc::default())).collect(),
            machine_allocs: AtomicU64::new(0),
            threads: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            input_waits: Mutex::new(Vec::new()),
            admitted_us: Mutex::new(HashMap::new()),
            in_flight_us: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark the start of a wrapped call.
    pub fn start(&self) -> Start {
        Start {
            wall_ns: self.now_ns(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Account one call at `boundary` that began at `start`, on behalf
    /// of operation `op`, from a thread playing `role`.
    pub fn record(&self, boundary: Boundary, role: Option<Role>, op: u64, start: Start) {
        let end_ns = self.now_ns();
        let end_cpu = thread_cpu_ns();
        let acc = &self.accs[&boundary];
        acc.ns.fetch_add(end_ns - start.wall_ns, Ordering::Relaxed);
        acc.cpu_ns
            .fetch_add(end_cpu.saturating_sub(start.cpu_ns), Ordering::Relaxed);
        acc.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(role) = role {
            self.sample_cpu(role, end_cpu);
        }
        if op.is_multiple_of(SPAN_SAMPLE) {
            self.span(boundary.name(), "lookup", op, start.wall_ns, end_ns);
        }
    }

    /// Record a span directly.
    pub fn span(&self, name: &'static str, parent: &'static str, op: u64, start: u64, end: u64) {
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            parent,
            op,
            tid: current_tid(),
            start_ns: start,
            end_ns: end,
        });
    }

    fn sample_cpu(&self, role: Role, cpu: u64) {
        let n = CALLS.with(|c| {
            let n = c.get();
            c.set(n + 1);
            n
        });
        if !n.is_multiple_of(CPU_SAMPLE) {
            return;
        }
        let mut threads = self.threads.lock().expect("thread table poisoned");
        let entry = threads.entry(current_tid()).or_insert((role, cpu, cpu));
        entry.2 = cpu;
    }

    /// Wall nanoseconds, thread-CPU nanoseconds and calls recorded at
    /// `boundary`.
    pub fn total(&self, boundary: Boundary) -> (u64, u64, u64) {
        let acc = &self.accs[&boundary];
        (
            acc.ns.load(Ordering::Relaxed),
            acc.cpu_ns.load(Ordering::Relaxed),
            acc.calls.load(Ordering::Relaxed),
        )
    }

    /// CPU nanoseconds observed on threads playing `role` (from each
    /// thread's first to its last sampled call).
    pub fn role_cpu_ns(&self, role: Role) -> u64 {
        self.threads
            .lock()
            .expect("thread table poisoned")
            .values()
            .filter(|(r, _, _)| *r == role)
            .map(|(_, first, last)| last - first)
            .sum()
    }

    /// Write every recorded span as JSON lines into `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"op\":{},\"tid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.parent, s.op, s.tid, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
