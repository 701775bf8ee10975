//! The three scan workloads: `run_scan_pipeline` against loopback
//! answerers, with every output checked by the oracle.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zdns_core::{DriverReport, Resolver};
use zdns_framework::{resolver_for, run_scan_pipeline, Conf, JsonlSink, OutputGroup, OutputSink};
use zdns_modules::{LookupModule, ModuleOutput, ModuleRegistry, ModuleSink};
use zdns_netsim::{ClientEvent, InputSource, OutQuery, SimClient, SimTime, StepStatus};

use crate::answer::Fleet;
use crate::gen::{expect, input_index, scan_input, Answer, DestClass, Workload};
use crate::heap::{thread_allocations, HeapSampler};
use crate::report::{Outcome, Report};
use crate::trace::{Boundary, Role, Tracer};
use crate::util::{
    current_tid, live_tids, median, percentile, process_cpu_ns, status_kb, tail_percentile,
    thread_cpu_ns, tid_cpu_ns,
};

/// Setup probes per run; `setup_s` is their median.
const SETUP_PROBES: u64 = 31;
/// Warm-up scan before timing: fills the resolver's cache with the
/// root and TLD delegations and the hot SLDs, and settles the
/// allocator and socket buffers.
const WARM_SECS: f64 = 0.5;
/// Lookups a run can track per second of measurement (inputs past
/// this are not pulled, which would show as a throughput ceiling far
/// above what the program reaches on loopback).
const MAX_LOOKUPS_PER_S: f64 = 250_000.0;
/// Input indices of the warm-up and setup probes start here, far from
/// the measured stream's.
const WARM_BASE: u64 = 1 << 40;
const PROBE_BASE: u64 = 1 << 41;

/// One in this many input pulls and output checks has its thread CPU
/// read before and after, to estimate the harness work that runs on the
/// program's feeder and writer threads.
const HARNESS_SAMPLE: u64 = 16;

/// `pulled_at` slot values: never pulled, and already output.
const NOT_PULLED: u32 = u32::MAX;
const DONE: u32 = u32::MAX - 1;

/// The flags `workload` runs the program with.
pub fn scan_args(workload: Workload) -> Vec<&'static str> {
    match workload {
        // One worker, a 1000-lookup window and a global budget far above
        // what the run reaches, so every send pays the pacer's admit.
        Workload::ScanExternal => vec![
            "A",
            "--name-servers",
            "192.0.2.53",
            "--threads",
            "1",
            "--max-in-flight",
            "1000",
            "--rate-pps",
            "50000000",
            "--timeout",
            "2",
            "--retries",
            "2",
        ],
        // Unpaced and one worker. The cache keeps its default size, which
        // holds every delegation a run visits: with eviction the program
        // fails lookups (see `eviction_probe`).
        Workload::ScanIterative => vec![
            "A",
            "--iterative",
            "--threads",
            "1",
            "--max-in-flight",
            "1000",
            "--timeout",
            "2",
            "--iteration-timeout",
            "2",
            "--retries",
            "2",
        ],
        // Two workers share the credit pool, the pacer's backoff table
        // and the TCP side pools; short timeouts keep blackholed lookups
        // from dominating the run.
        Workload::ScanHostile => vec![
            "PROBE",
            "--threads",
            "2",
            "--max-in-flight",
            "1000",
            "--backoff",
            "--backoff-base",
            "0.05",
            "--backoff-cap",
            "0.4",
            "--timeout",
            "0.25",
            "--retries",
            "1",
        ],
        Workload::ServeZipf => unreachable!("serve_zipf is not a scan"),
    }
}

fn parse_conf(workload: Workload) -> Conf {
    Conf::parse(scan_args(workload)).expect("benchmark flags parse")
}

fn module_for(conf: &Conf) -> Arc<dyn LookupModule> {
    ModuleRegistry::standard()
        .get(&conf.module)
        .expect("module exists")
}

/// Inputs in flight: when each was pulled, so outputs can be timed and
/// de-duplicated. Allocated once per phase, before the memory baseline
/// is read, and reset between passes.
pub struct Shared {
    epoch: Instant,
    base: AtomicU64,
    pulled_at: Vec<AtomicU32>,
    /// Slots the last pass pulled (the ones a reset must clear).
    used: AtomicU64,
    /// Outputs that matched the oracle so far.
    correct: AtomicU64,
    /// Estimated CPU the harness spent generating inputs on the
    /// program's feeder thread, and checking outputs on its writer
    /// thread, ns.
    input_cpu_ns: AtomicU64,
    check_cpu_ns: AtomicU64,
    /// What reading the thread CPU clock twice costs with nothing in
    /// between, ns.
    clock_floor_ns: u64,
}

impl Shared {
    fn new(capacity: usize) -> Shared {
        // Filled with a non-zero sentinel so the pages are resident
        // before the memory baseline is read.
        Shared {
            epoch: Instant::now(),
            base: AtomicU64::new(0),
            pulled_at: (0..capacity).map(|_| AtomicU32::new(NOT_PULLED)).collect(),
            used: AtomicU64::new(0),
            correct: AtomicU64::new(0),
            input_cpu_ns: AtomicU64::new(0),
            check_cpu_ns: AtomicU64::new(0),
            clock_floor_ns: {
                let mut gaps: Vec<f64> = (0..101)
                    .map(|_| {
                        let t = thread_cpu_ns();
                        (thread_cpu_ns() - t) as f64
                    })
                    .collect();
                median(&mut gaps) as u64
            },
        }
    }

    /// Add one sampled section's CPU, which stands for `HARNESS_SAMPLE`
    /// sections, to `total`.
    fn add_sampled(&self, total: &AtomicU64, started_cpu_ns: u64) {
        let ns = (thread_cpu_ns() - started_cpu_ns).saturating_sub(self.clock_floor_ns);
        total.fetch_add(ns * HARNESS_SAMPLE, Ordering::Relaxed);
    }

    /// Estimated harness CPU on the program's threads so far, ns.
    fn harness_on_program_ns(&self) -> u64 {
        self.input_cpu_ns.load(Ordering::Relaxed) + self.check_cpu_ns.load(Ordering::Relaxed)
    }

    fn reset(&self, base: u64) {
        self.base.store(base, Ordering::Relaxed);
        self.correct.store(0, Ordering::Relaxed);
        self.input_cpu_ns.store(0, Ordering::Relaxed);
        self.check_cpu_ns.store(0, Ordering::Relaxed);
        // Clearing only what the last pass used keeps a reset from
        // sweeping the whole table (and the caches) before a set-up
        // probe.
        let used = self.used.swap(0, Ordering::Relaxed) as usize;
        for slot in &self.pulled_at[..used.min(self.pulled_at.len())] {
            slot.store(NOT_PULLED, Ordering::Relaxed);
        }
    }

    fn base(&self) -> u64 {
        self.base.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> u32 {
        self.epoch.elapsed().as_micros() as u32
    }

    fn slot(&self, idx: u64) -> Option<&AtomicU32> {
        self.pulled_at.get(idx.checked_sub(self.base())? as usize)
    }
}

/// The input stream of one scan: seeded names until the deadline.
struct GenSource<'a> {
    workload: Workload,
    seed: u64,
    next: u64,
    secs: f64,
    deadline: Option<Instant>,
    first_pull: Option<Instant>,
    shared: &'a Shared,
    tracer: Option<&'a Tracer>,
}

impl InputSource for GenSource<'_> {
    fn next_name(&mut self) -> Option<String> {
        let sampled = self.next.is_multiple_of(HARNESS_SAMPLE).then(thread_cpu_ns);
        let start = self.tracer.map(Tracer::start);
        let now = Instant::now();
        let deadline = *self
            .deadline
            .get_or_insert_with(|| now + Duration::from_secs_f64(self.secs));
        self.first_pull.get_or_insert(now);
        let idx = self.shared.base() + self.next;
        let slot = self.shared.slot(idx)?;
        if now >= deadline {
            return None;
        }
        self.next += 1;
        let name = scan_input(self.workload, self.seed, idx);
        slot.store(self.shared.now_us(), Ordering::Relaxed);
        if let (Some(t), Some(start)) = (self.tracer, start) {
            t.record(Boundary::NextName, Some(Role::Feeder), idx, start);
        }
        if let Some(cpu) = sampled {
            self.shared.add_sampled(&self.shared.input_cpu_ns, cpu);
        }
        Some(name)
    }
}

/// Counts what the JSON-lines writer produces.
#[derive(Default)]
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The output side: checks each output against the oracle, times it
/// from its pull, then hands it to the program's `JsonlSink`.
pub struct CheckSink<'a> {
    workload: Workload,
    inner: JsonlSink<ByteCount>,
    shared: &'a Shared,
    tracer: Option<&'a Tracer>,
    latencies_us: &'a mut [u32],
    classes: &'a mut [u8],
    calls: u64,
    outputs: usize,
    tally: BTreeMap<&'static str, (u64, u64)>,
    wrong_examples: Vec<String>,
    last_output: Option<Instant>,
}

impl<'a> CheckSink<'a> {
    fn new(
        workload: Workload,
        buffers: &'a mut Buffers,
        tracer: Option<&'a Tracer>,
    ) -> CheckSink<'a> {
        CheckSink {
            workload,
            inner: JsonlSink::new(ByteCount::default(), OutputGroup::Normal),
            shared: &buffers.shared,
            tracer,
            latencies_us: &mut buffers.latencies_us,
            classes: &mut buffers.classes,
            calls: 0,
            outputs: 0,
            tally: BTreeMap::new(),
            wrong_examples: Vec::new(),
            last_output: None,
        }
    }

    fn check(&self, output: &ModuleOutput) -> Result<&'static str, (&'static str, String)> {
        let exp = expect(self.workload, &output.name);
        let status = output.status.as_str();
        if status != exp.status {
            return Err((
                exp.class,
                format!("{}: status {status}, expected {}", output.name, exp.status),
            ));
        }
        let mut got: Vec<Ipv4Addr> = output
            .data
            .get("answers")
            .and_then(|a| a.as_array())
            .map(|answers| {
                answers
                    .iter()
                    .filter(|r| r.get("type").and_then(|t| t.as_str()) == Some("A"))
                    .filter_map(|r| r.get("answer")?.as_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        got.sort_unstable();
        let want = match exp.answer {
            Answer::None => Vec::new(),
            Answer::A(mut ips) => {
                ips.sort_unstable();
                ips
            }
        };
        if got != want {
            return Err((
                exp.class,
                format!(
                    "{}: {} A records, expected {} ({:?} vs {:?})",
                    output.name,
                    got.len(),
                    want.len(),
                    got.first(),
                    want.first()
                ),
            ));
        }
        Ok(exp.class)
    }

    /// A compact code for a destination class label.
    pub fn class_code(class: &str) -> u8 {
        DestClass::ALL
            .iter()
            .position(|c| c.label() == class)
            .unwrap_or(0) as u8
    }
}

impl OutputSink for CheckSink<'_> {
    fn write_output(&mut self, output: ModuleOutput) -> std::io::Result<()> {
        let sampled = self
            .calls
            .is_multiple_of(HARNESS_SAMPLE)
            .then(thread_cpu_ns);
        self.calls += 1;
        let check_start = self.tracer.map(Tracer::start);
        let idx = input_index(&output.name);
        let pulled = idx
            .and_then(|i| self.shared.slot(i))
            .map(|s| s.swap(DONE, Ordering::Relaxed));
        let verdict = match pulled {
            Some(DONE) => Err(("duplicate", format!("{}: output twice", output.name))),
            Some(NOT_PULLED) | None => Err(("unknown", format!("{}: never input", output.name))),
            Some(t) => {
                let verdict = self.check(&output);
                let now = self.shared.now_us();
                let class = Self::class_code(match &verdict {
                    Ok(c) | Err((c, _)) => c,
                });
                if self.outputs < self.latencies_us.len() {
                    self.latencies_us[self.outputs] = now.saturating_sub(t);
                    self.classes[self.outputs] = class;
                    self.outputs += 1;
                }
                if let (Some(tracer), Some(op)) = (self.tracer, idx) {
                    let admitted = tracer
                        .admitted_us
                        .lock()
                        .expect("admission table poisoned")
                        .remove(&op);
                    if let Some(admitted) = admitted {
                        tracer
                            .in_flight_us
                            .lock()
                            .expect("in-flight list poisoned")
                            .push((class, now.saturating_sub(admitted)));
                    }
                }
                verdict
            }
        };
        match verdict {
            Ok(class) => {
                self.tally.entry(class).or_default().0 += 1;
                self.shared.correct.fetch_add(1, Ordering::Relaxed);
            }
            Err((class, why)) => {
                self.tally.entry(class).or_default().1 += 1;
                if self.wrong_examples.len() < 5 {
                    self.wrong_examples.push(why);
                }
            }
        }
        let op = idx.unwrap_or(1);
        if let (Some(t), Some(start)) = (self.tracer, check_start) {
            t.record(Boundary::OracleCheck, None, op, start);
        }
        if let Some(cpu) = sampled {
            self.shared.add_sampled(&self.shared.check_cpu_ns, cpu);
        }
        let write_start = self.tracer.map(Tracer::start);
        let result = self.inner.write_output(output);
        if let (Some(t), Some(start)) = (self.tracer, write_start) {
            t.record(Boundary::WriteOutput, Some(Role::Writer), op, start);
        }
        self.last_output = Some(Instant::now());
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn outputs_written(&self) -> u64 {
        self.inner.outputs_written()
    }
}

/// Times every call the pipeline makes into the module and its
/// machines.
struct TracedModule {
    inner: Arc<dyn LookupModule>,
    tracer: Arc<Tracer>,
    shared: Arc<Shared>,
}

impl LookupModule for TracedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn input_addressed(&self) -> bool {
        self.inner.input_addressed()
    }

    fn make_machine(
        &self,
        input: &str,
        resolver: &Resolver,
        sink: ModuleSink,
    ) -> Box<dyn SimClient> {
        let start = self.tracer.start();
        let op = input_index(input).unwrap_or(1);
        let now = self.shared.now_us();
        if let Some(pulled) = self.shared.slot(op).map(|s| s.load(Ordering::Relaxed)) {
            if pulled < DONE {
                self.tracer
                    .input_waits
                    .lock()
                    .expect("wait list poisoned")
                    .push(now.saturating_sub(pulled));
            }
        }
        self.tracer
            .admitted_us
            .lock()
            .expect("admission table poisoned")
            .insert(op, now);
        let machine = self.inner.make_machine(input, resolver, sink);
        self.tracer
            .record(Boundary::MakeMachine, Some(Role::Worker), op, start);
        Box::new(TracedMachine {
            inner: machine,
            tracer: Arc::clone(&self.tracer),
            op,
        })
    }
}

struct TracedMachine {
    inner: Box<dyn SimClient>,
    tracer: Arc<Tracer>,
    op: u64,
}

impl TracedMachine {
    fn timed(&mut self, f: impl FnOnce(&mut dyn SimClient) -> StepStatus) -> StepStatus {
        let allocs = thread_allocations();
        let start = self.tracer.start();
        let status = f(self.inner.as_mut());
        self.tracer
            .machine_allocs
            .fetch_add(thread_allocations() - allocs, Ordering::Relaxed);
        self.tracer
            .record(Boundary::Machine, Some(Role::Worker), self.op, start);
        status
    }
}

impl SimClient for TracedMachine {
    fn start(&mut self, now: SimTime, out: &mut Vec<OutQuery>) -> StepStatus {
        self.timed(|m| m.start(now, out))
    }

    fn on_event(
        &mut self,
        event: ClientEvent<'_>,
        now: SimTime,
        out: &mut Vec<OutQuery>,
    ) -> StepStatus {
        self.timed(|m| m.on_event(event, now, out))
    }
}

/// Everything one timed scan measured.
pub struct ScanRun {
    /// Inputs pulled.
    pub attempted: u64,
    /// Outputs that matched the oracle.
    pub correct: u64,
    /// Per class: (correct, wrong).
    pub tally: BTreeMap<&'static str, (u64, u64)>,
    /// Up to five wrong outputs, described.
    pub wrong_examples: Vec<String>,
    /// First pull to last output, seconds.
    pub wall_s: f64,
    /// CPU of the program's threads, ns, less the estimated harness
    /// work on them.
    pub program_cpu_ns: u64,
    /// Estimated harness CPU on the program's threads, ns: input
    /// generation on the feeder and output checks on the writer.
    pub harness_on_program_ns: (u64, u64),
    /// What one thread CPU clock read costs, ns.
    pub clock_read_ns: u64,
    /// CPU of the answering side's threads, ns.
    pub harness_cpu_ns: u64,
    /// Highest share of one core a single harness thread used.
    pub harness_peak_core: f64,
    /// Queries the answering side answered.
    pub answered: u64,
    /// Sorted lookup latencies, µs, with their class codes.
    pub latencies_us: Vec<u32>,
    /// The pipeline's own report.
    pub driver: DriverReport,
    /// Scan-level report fields.
    pub lookups: u64,
    /// Peak output queue depth.
    pub peak_output_queue: usize,
    /// Cache hits and misses during the run.
    pub cache_hits: u64,
    /// Cache misses during the run.
    pub cache_misses: u64,
    /// Bytes the JSON-lines writer produced.
    pub output_bytes: u64,
    /// Feeder (calling) thread CPU, ns.
    pub feeder_cpu_ns: u64,
    /// Answering-side TLD referrals and redundant ones.
    pub referrals: (u64, u64),
    /// Peak resident memory when the pipeline returned, kB.
    pub hwm_kb: u64,
    /// Median over `WINDOWS` equal slices of the outputs (in output
    /// order) of each slice's median latency, µs.
    pub window_p50_us: f64,
    /// Per measurement window: (correct outputs per second, program CPU
    /// µs per correct output).
    pub windows: Vec<(f64, f64)>,
}

impl ScanRun {
    /// Outputs that were missing or wrong.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }
}

/// The harness's per-lookup bookkeeping, sized for the longest pass.
pub struct Buffers {
    shared: Arc<Shared>,
    latencies_us: Vec<u32>,
    classes: Vec<u8>,
}

impl Buffers {
    fn new(secs: f64) -> Buffers {
        let capacity = (secs.max(WARM_SECS) * MAX_LOOKUPS_PER_S) as usize + 16;
        Buffers {
            shared: Arc::new(Shared::new(capacity)),
            latencies_us: vec![u32::MAX; capacity],
            classes: vec![u8::MAX; capacity],
        }
    }
}

/// One scan pass through the pipeline.
struct Pass<'a> {
    workload: Workload,
    seed: u64,
    secs: f64,
    base: u64,
    conf: &'a Conf,
    resolver: &'a Resolver,
    fleet: &'a Fleet,
    tracer: Option<Arc<Tracer>>,
}

impl Pass<'_> {
    /// Run it. `build_s` is how long building the program's
    /// configuration and resolver took; the returned set-up time adds
    /// the pipeline's own start (call to first pull).
    fn run(&self, buffers: &mut Buffers, build_s: f64) -> (ScanRun, f64) {
        buffers.shared.reset(self.base);
        let shared = Arc::clone(&buffers.shared);
        let tracer = self.tracer.as_deref();
        let mut source = GenSource {
            workload: self.workload,
            seed: self.seed,
            next: 0,
            secs: self.secs,
            deadline: None,
            first_pull: None,
            shared: &shared,
            tracer,
        };
        let mut sink = CheckSink::new(self.workload, buffers, tracer);
        let module = module_for(self.conf);
        let module: Arc<dyn LookupModule> = match &self.tracer {
            Some(t) => Arc::new(TracedModule {
                inner: module,
                tracer: Arc::clone(t),
                shared: Arc::clone(&shared),
            }),
            None => module,
        };
        let harness: Vec<i32> = {
            let me = current_tid();
            live_tids().into_iter().filter(|&t| t != me).collect()
        };
        let per_harness_before: Vec<u64> = harness.iter().map(|&t| tid_cpu_ns(t)).collect();
        let answered_before = self.fleet.answerer.stats.queries.load(Ordering::Relaxed);
        let referrals_before = (
            self.fleet
                .answerer
                .stats
                .tld_referrals
                .load(Ordering::Relaxed),
            self.fleet
                .answerer
                .stats
                .redundant_referrals
                .load(Ordering::Relaxed),
        );
        let cache = &self.resolver.core().cache.stats;
        let hits_before = cache.hits.load(Ordering::Relaxed);
        let misses_before = cache.misses.load(Ordering::Relaxed);
        let stop = AtomicBool::new(false);
        let window = Duration::from_secs_f64((self.secs / WINDOWS as f64).max(0.05));
        let process_before = process_cpu_ns();
        let feeder_before = thread_cpu_ns();
        let call_started = Instant::now();
        let (report, samples) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| sample_windows(&stop, window, &harness, &shared));
            let report = run_scan_pipeline(
                self.conf,
                self.resolver,
                module,
                Arc::clone(&self.fleet.addr_map),
                &mut source,
                &mut sink,
            );
            stop.store(true, Ordering::Relaxed);
            (report, sampler.join().expect("sampler thread panicked"))
        });
        let hwm_kb = status_kb("VmHWM");
        let feeder_cpu_ns = thread_cpu_ns() - feeder_before;
        let process_cpu = process_cpu_ns() - process_before;
        let first_pull = source.first_pull.unwrap_or(call_started);
        let wall = sink
            .last_output
            .map(|t| t.duration_since(first_pull).as_secs_f64())
            .unwrap_or(0.0)
            .max(1e-9);
        let per_harness: Vec<u64> = harness
            .iter()
            .zip(&per_harness_before)
            .map(|(&t, &b)| tid_cpu_ns(t).saturating_sub(b))
            .collect();
        let harness_cpu_ns: u64 = per_harness.iter().sum();
        let harness_peak_core = per_harness.iter().copied().max().unwrap_or(0) as f64 / 1e9 / wall;
        assert!(
            report.worker_errors.is_empty(),
            "scan workers failed: {:?}",
            report.worker_errors
        );
        let attempted = source.next;
        shared.used.store(attempted, Ordering::Relaxed);
        let mut lat = sink.latencies_us[..sink.outputs].to_vec();
        // Outputs arrive in time order: the median of each of `WINDOWS`
        // equal slices, then the median of those.
        let chunk = (lat.len() / WINDOWS).max(1);
        let mut window_p50: Vec<f64> = lat
            .chunks(chunk)
            .filter(|c| c.len() * 2 >= chunk)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                f64::from(percentile(&c, 50.0))
            })
            .collect();
        let window_p50_us = median(&mut window_p50);
        lat.sort_unstable();
        let correct: u64 = sink.tally.values().map(|(ok, _)| ok).sum();
        let stats = &self.fleet.answerer.stats;
        let run = ScanRun {
            attempted,
            correct,
            tally: sink.tally.clone(),
            wrong_examples: sink.wrong_examples.clone(),
            wall_s: wall,
            program_cpu_ns: process_cpu
                .saturating_sub(harness_cpu_ns)
                .saturating_sub(shared.harness_on_program_ns()),
            harness_on_program_ns: (
                shared.input_cpu_ns.load(Ordering::Relaxed),
                shared.check_cpu_ns.load(Ordering::Relaxed),
            ),
            clock_read_ns: shared.clock_floor_ns,
            harness_cpu_ns,
            harness_peak_core,
            answered: stats.queries.load(Ordering::Relaxed) - answered_before,
            latencies_us: lat,
            lookups: report.lookups,
            peak_output_queue: report.peak_output_queue,
            driver: report.driver,
            cache_hits: cache.hits.load(Ordering::Relaxed) - hits_before,
            cache_misses: cache.misses.load(Ordering::Relaxed) - misses_before,
            output_bytes: sink.inner.into_inner().0,
            feeder_cpu_ns,
            referrals: (
                stats.tld_referrals.load(Ordering::Relaxed) - referrals_before.0,
                stats.redundant_referrals.load(Ordering::Relaxed) - referrals_before.1,
            ),
            hwm_kb,
            window_p50_us,
            windows: window_rates(&samples, self.secs),
        };
        let setup = build_s + first_pull.duration_since(call_started).as_secs_f64();
        (run, setup)
    }
}

/// Measurement windows per timed scan; the scan-level figures are
/// medians over them, so one stall of the VM moves one window, not the
/// result.
const WINDOWS: usize = 20;

/// One sampler reading: time, program CPU so far, correct outputs.
type Sample = (Instant, u64, u64);

/// Read the program's CPU (process CPU minus the harness threads', the
/// sampler's own and the estimated harness work on the program's
/// threads) and the correct-output count every `window`.
fn sample_windows(
    stop: &AtomicBool,
    window: Duration,
    harness: &[i32],
    shared: &Shared,
) -> Vec<Sample> {
    let read = || {
        let cpu = process_cpu_ns()
            .saturating_sub(harness.iter().map(|&t| tid_cpu_ns(t)).sum::<u64>())
            .saturating_sub(thread_cpu_ns())
            .saturating_sub(shared.harness_on_program_ns());
        (Instant::now(), cpu, shared.correct.load(Ordering::Relaxed))
    };
    let mut samples = vec![read()];
    let mut next = Instant::now() + window;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= next {
            samples.push(read());
            next += window;
        } else {
            std::thread::sleep((next - now).min(Duration::from_millis(5)));
        }
    }
    samples
}

/// Rates of the full windows inside the measured interval (the drain
/// after the deadline is left out).
fn window_rates(samples: &[Sample], secs: f64) -> Vec<(f64, f64)> {
    let Some(&(t0, ..)) = samples.first() else {
        return Vec::new();
    };
    samples
        .windows(2)
        .filter(|w| w[1].0.duration_since(t0).as_secs_f64() <= secs + 0.01)
        .filter(|w| w[1].2 > w[0].2)
        .map(|w| {
            let dt = w[1].0.duration_since(w[0].0).as_secs_f64();
            let ops = (w[1].2 - w[0].2) as f64;
            (ops / dt, w[1].1.saturating_sub(w[0].1) as f64 / 1e3 / ops)
        })
        .collect()
}

/// A fresh program instance for `workload`: configuration, resolver
/// (with an empty cache) and the time it took to build them.
fn fresh_program(workload: Workload, fleet: &Fleet) -> (Conf, Resolver) {
    let conf = parse_conf(workload);
    let resolver = resolver_for(&conf, fleet.answerer.as_ref());
    (conf, resolver)
}

/// A measured phase: setup probes, warm-up, then the timed scan.
pub struct Phase {
    /// The timed scan.
    pub run: ScanRun,
    /// Setup times of the fresh program instances, seconds.
    pub setups: Vec<f64>,
    /// Peak live heap above the pre-program baseline, MiB.
    pub heap_peak_mb: f64,
    /// Median live heap above the baseline, MiB.
    pub heap_median_mb: f64,
    /// Peak resident memory above the pre-program baseline, MiB.
    pub rss_peak_mb: f64,
    /// The resolver the timed scan used (its cache at the final fill).
    pub resolver: Resolver,
    /// The program configuration.
    pub conf: Conf,
}

/// Run one phase of `workload` for `secs` seconds.
pub fn run_phase(
    workload: Workload,
    seed: u64,
    secs: f64,
    fleet: &Fleet,
    tracer: Option<Arc<Tracer>>,
) -> Phase {
    let mut buffers = Buffers::new(secs);
    let baseline_kb = status_kb("VmRSS");
    let heap = HeapSampler::start();
    let baseline_heap = crate::heap::live_bytes();
    let mut setups = Vec::new();
    for k in 0..SETUP_PROBES {
        let started = Instant::now();
        let (conf, resolver) = fresh_program(workload, fleet);
        let build_s = started.elapsed().as_secs_f64();
        let pass = Pass {
            workload,
            seed,
            secs: 0.0,
            base: PROBE_BASE + k,
            conf: &conf,
            resolver: &resolver,
            fleet,
            tracer: None,
        };
        // A zero-second pass asks for its first input and gets none:
        // that first pull is where workload work would begin, so the
        // pass times set-up alone.
        let (_, setup) = pass.run(&mut buffers, build_s);
        setups.push(setup);
    }
    let started = Instant::now();
    let (conf, resolver) = fresh_program(workload, fleet);
    let build_s = started.elapsed().as_secs_f64();
    let warm = Pass {
        workload,
        seed,
        secs: WARM_SECS,
        base: WARM_BASE,
        conf: &conf,
        resolver: &resolver,
        fleet,
        tracer: None,
    };
    let (warm_run, setup) = warm.run(&mut buffers, build_s);
    setups.push(setup);
    check_correct(workload, "warm-up", &warm_run);
    let timed = Pass {
        workload,
        seed,
        secs,
        base: 0,
        conf: &conf,
        resolver: &resolver,
        fleet,
        tracer,
    };
    let (run, _) = timed.run(&mut buffers, 0.0);
    check_correct(workload, "timed", &run);
    let (heap_peak, heap_median) = heap.finish();
    Phase {
        heap_peak_mb: (heap_peak - baseline_heap) as f64 / (1 << 20) as f64,
        heap_median_mb: (heap_median - baseline_heap) as f64 / (1 << 20) as f64,
        rss_peak_mb: run.hwm_kb.saturating_sub(baseline_kb) as f64 / 1024.0,
        run,
        setups,
        resolver,
        conf,
    }
}

/// Cache entries in the eviction probe: fewer than the delegations and
/// answers one second of `scan_iterative` puts in the cache.
pub const EVICTION_CACHE_SIZE: &str = "8192";

/// `scan_iterative` for `secs` with a cache small enough that eviction
/// runs. When the cache evicts an SLD's glue but keeps its NS RRset,
/// the iterative machine sees an in-bailiwick NS without an address,
/// refuses it as a resolution cycle and ends the lookup in SERVFAIL
/// (`core::machine`). Returns (lookups, lookups that failed).
pub fn eviction_probe(seed: u64, secs: f64, fleet: &Fleet) -> (u64, u64) {
    let mut args = scan_args(Workload::ScanIterative);
    args.extend(["--cache-size", EVICTION_CACHE_SIZE]);
    let conf = Conf::parse(args).expect("benchmark flags parse");
    let resolver = resolver_for(&conf, fleet.answerer.as_ref());
    let mut buffers = Buffers::new(secs);
    let pass = Pass {
        workload: Workload::ScanIterative,
        seed,
        secs,
        base: PROBE_BASE + (1 << 30),
        conf: &conf,
        resolver: &resolver,
        fleet,
        tracer: None,
    };
    let (run, _) = pass.run(&mut buffers, 0.0);
    (run.attempted, run.failed())
}

/// Fail loudly on any wrong output.
fn check_correct(workload: Workload, what: &str, run: &ScanRun) {
    let wrong: u64 = run.tally.values().map(|(_, w)| w).sum();
    let missing = run
        .attempted
        .saturating_sub(run.tally.values().map(|(o, w)| o + w).sum());
    if wrong > 0 || missing > 0 {
        eprintln!(
            "perfbench: {} {what}: {wrong} wrong and {missing} missing outputs of {}",
            workload.name(),
            run.attempted
        );
        for (class, (ok, bad)) in &run.tally {
            eprintln!("  class {class}: {ok} correct, {bad} wrong");
        }
        for example in &run.wrong_examples {
            eprintln!("  wrong: {example}");
        }
        std::process::exit(3);
    }
}

/// The end-to-end metrics of a scan phase.
pub fn end_to_end(phase: &Phase, report: &mut Report) {
    let run = &phase.run;
    let lookups = run.lookups.max(1) as f64;
    let n = run.latencies_us.len();
    let tail = tail_percentile(n);
    let mut rates: Vec<f64> = run.windows.iter().map(|w| w.0).collect();
    let mut cpus: Vec<f64> = run.windows.iter().map(|w| w.1).collect();
    report.metric(
        "successes_per_s",
        median(&mut rates),
        "1/s",
        run.correct as usize,
    );
    report.metric(
        "cpu_us_per_op",
        median(&mut cpus),
        "us",
        run.correct as usize,
    );
    let (input_ns, check_ns) = run.harness_on_program_ns;
    report.info(format!(
        "cpu_us_per_op leaves out harness work on the program's threads, estimated from 1-in-{HARNESS_SAMPLE} thread CPU samples: input generation {:.3} us and output check {:.3} us per lookup; still in it: those samples' clock reads (about {:.3} us per lookup) and the sink's byte counter",
        input_ns as f64 / 1e3 / lookups,
        check_ns as f64 / 1e3 / lookups,
        // Two reads per sampled pull and two per sampled check.
        4.0 * run.clock_read_ns as f64 / 1e3 / HARNESS_SAMPLE as f64,
    ));
    report.metric(
        "queries_per_lookup",
        (run.driver.datagrams_sent + run.driver.tcp_fallbacks) as f64 / lookups,
        "count",
        run.lookups as usize,
    );
    report.metric("lookup_p50_ms", run.window_p50_us / 1e3, "ms", n);
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
    report.info(format!(
        "whole run: {:.1} correct outputs/s, {:.3} us program CPU per lookup, p50 {:.3} ms, over {} windows",
        run.correct as f64 / run.wall_s,
        run.program_cpu_ns as f64 / 1e3 / lookups,
        f64::from(percentile(&run.latencies_us, 50.0)) / 1e3,
        run.windows.len()
    ));
    report.info(format!(
        "fail_frac = {:.6} ({} of {} attempted); lookup_p99_ms = {:.3} ms, lookup_p{tail}_ms = {:.3} ms (n={n})",
        run.failed() as f64 / run.attempted.max(1) as f64,
        run.failed(),
        run.attempted,
        f64::from(percentile(&run.latencies_us, 99.0)) / 1e3,
        f64::from(percentile(&run.latencies_us, tail)) / 1e3,
    ));
    for (class, (ok, wrong)) in &run.tally {
        report.info(format!("class {class}: {ok} correct, {wrong} wrong"));
    }
    report.info(format!(
        "harness: answer_cpu_us_per_query = {:.3} ({} queries), busiest harness thread at {:.0}% of a core",
        run.harness_cpu_ns as f64 / 1e3 / run.answered.max(1) as f64,
        run.answered,
        run.harness_peak_core * 100.0
    ));
    report.harness_saturation(run.harness_peak_core);
    report.io_backend = run.driver.io_backend;
}

/// The outcome of an untraced scan run.
pub fn run_untraced(workload: Workload, seed: u64, secs: f64) -> Outcome {
    let fleet = Fleet::start(workload, None).expect("loopback servers start");
    let phase = run_phase(workload, seed, secs, &fleet, None);
    let mut report = Report::default();
    end_to_end(&phase, &mut report);
    Outcome {
        attempted: phase.run.attempted,
        failed: phase.run.failed(),
        report,
    }
}
