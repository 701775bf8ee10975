//! The traced run: per-layer metrics, the replayed layer costs and the
//! reconciliation line.
//!
//! A traced run first measures the workload untraced for half its
//! time, then traced for the other half (fresh servers and program
//! each), so the gap between the two is the tracing overhead. Layer
//! costs come from three sources: the self time of the wrapped calls
//! (see `trace.rs`), the program's own counters (`DriverReport`,
//! `CacheStats`, `ServeStats`), and replays of the same workload's data
//! through each layer's public entry points.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;

use zdns_core::{BatchIo, ConcurrentPacer, TokenBlock, DEFAULT_BATCH_SIZE};
use zdns_netsim::set_recv_buffer;
use zdns_wire::{encode_query_into, Cookie, MessageView, Name, Question, RecordType, ScratchBuf};
use zdns_zones::Universe;

use crate::answer::{sld_ns_addr, Answerer, Fleet, RESOLVER_IP, ROOT_IP, TLD_IP};
use crate::gen::{scan_input, DestClass, Workload};
use crate::report::{Outcome, Report};
use crate::scan::{self, Phase};
use crate::trace::{Boundary, Role, Tracer};
use crate::util::{median, percentile, time_ns_per_call};

/// The per-layer metrics every traced run reports, as listed in
/// `BENCHMARK.json`, with their units. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER_UNITS: [(&str, &str); 58] = [
    ("pipeline.feeder_cpu_us_per_op", "us"),
    ("pipeline.input_wait_us_p50", "us"),
    ("pipeline.credit_stalls_per_lookup", "count"),
    ("pipeline.inputs_stolen_frac", "frac"),
    ("pipeline.idle_credit_returns_per_lookup", "count"),
    ("pipeline.peak_output_queue", "count"),
    ("modules.make_machine_ns", "ns"),
    ("modules.machine_us_per_lookup", "us"),
    ("modules.steps_per_lookup", "count"),
    ("modules.allocs_per_lookup", "count"),
    ("cache.hits_per_lookup", "count"),
    ("cache.misses_per_lookup", "count"),
    ("cache.redundant_referral_frac", "frac"),
    ("cache.probe_ns", "ns"),
    ("cache.eviction_servfail_frac", "frac"),
    ("pacer.admit_ns", "ns"),
    ("pacer.deferred_per_lookup", "count"),
    ("pacer.per_host_throttles_per_lookup", "count"),
    ("pacer.sends_per_token_block", "count"),
    ("pacer.cas_retries", "count"),
    ("pacer.stripe_waits", "count"),
    ("reactor.worker_cpu_us_per_lookup", "us"),
    ("reactor.residual_us_per_lookup", "us"),
    ("reactor.timeouts_per_lookup", "count"),
    ("reactor.stale_datagrams_per_lookup", "count"),
    ("reactor.backpressure_requeues", "count"),
    ("reactor.peak_in_flight", "count"),
    ("transport.dg_per_send_syscall", "count"),
    ("transport.dg_per_recv_syscall", "count"),
    ("transport.ring_enters_per_lookup", "count"),
    ("transport.send_ns_per_dg", "ns"),
    ("transport.tcp_fallbacks_per_lookup", "count"),
    ("transport.tcp_lookup_ms_p50", "ms"),
    ("wire.view_parse_ns", "ns"),
    ("wire.encode_query_ns", "ns"),
    ("wire.decode_errors", "count"),
    ("output.writer_cpu_us_per_lookup", "us"),
    ("output.write_ns", "ns"),
    ("output.bytes_per_line", "count"),
    ("serve.packet_hit_frac", "frac"),
    ("serve.record_hit_frac", "frac"),
    ("serve.forwarded_frac", "frac"),
    ("serve.overloaded", "count"),
    ("serve.truncated", "count"),
    ("serve.packet_fills", "count"),
    ("serve.packet_expired", "count"),
    ("serve.packet_invalidations", "count"),
    ("serve.server_cpu_us_per_query", "us"),
    ("serve.handle_datagram_ns.packet", "ns"),
    ("serve.handle_datagram_ns.record", "ns"),
    ("serve.max_qps", "1/s"),
    ("memory.heap_peak_mb", "MiB"),
    ("memory.rss_peak_mb", "MiB"),
    ("harness.answer_cpu_us_per_query", "us"),
    ("harness.gen_cpu_us_per_query", "us"),
    ("harness.gen_late_us_p99", "us"),
    ("harness.peak_core_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The per-layer metric names, in report order.
pub const PER_LAYER: [&str; 58] = {
    let mut names = [""; 58];
    let mut i = 0;
    while i < names.len() {
        names[i] = PER_LAYER_UNITS[i].0;
        i += 1;
    }
    names
};

/// Collected per-layer values; unset ones read 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    /// Set one value with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.contains(&name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, (value, samples));
    }

    /// Emit every per-layer metric into `report`, in order.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER_UNITS {
            let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
            report.metric(name, value, unit, samples);
        }
    }
}

/// The questions a scan input sends first (what the program encodes).
fn first_question(input: &str) -> Question {
    let name = input.split('@').next().unwrap_or(input);
    Question::new(name.parse().expect("generated names parse"), RecordType::A)
}

/// The servers a scan input's lookup talks to, in order.
fn destinations(workload: Workload, input: &str) -> Vec<Ipv4Addr> {
    match workload {
        Workload::ScanExternal | Workload::ServeZipf => vec![RESOLVER_IP],
        Workload::ScanIterative => {
            let labels: Vec<&str> = input.split('.').collect();
            let key = labels[labels.len().saturating_sub(2)..].join(".");
            vec![ROOT_IP, TLD_IP, sld_ns_addr(&key)]
        }
        Workload::ScanHostile => input
            .split_once('@')
            .and_then(|(_, ip)| ip.parse().ok())
            .into_iter()
            .collect(),
    }
}

/// Replayed per-call costs of the layers a lookup crosses, on the
/// workload's own data.
struct Replays {
    parse_ns: f64,
    encode_ns: f64,
    send_ns: f64,
    admit_ns: f64,
    probe_ns: f64,
}

fn replay(workload: Workload, seed: u64, phase: &Phase) -> Replays {
    const SAMPLE: u64 = 4_000;
    let inputs: Vec<String> = (0..SAMPLE).map(|i| scan_input(workload, seed, i)).collect();
    let questions: Vec<Question> = inputs.iter().map(|i| first_question(i)).collect();
    let cookie = Cookie::client(*b"replay01");

    // wire: encode_query_into for every first query.
    let mut scratch = ScratchBuf::new();
    let encode_ns = time_ns_per_call(5, questions.len(), |i| {
        scratch.reset();
        encode_query_into(&mut scratch, i as u16, &questions[i], true, Some(&cookie))
            .expect("query encodes");
        std::hint::black_box(scratch.message_bytes());
    });

    // wire: the answering side's responses to those queries, parsed and
    // walked the way the machines read them.
    let answerer = Answerer::new(None);
    let mut responses: Vec<Vec<u8>> = Vec::new();
    let mut query_bytes: Vec<Vec<u8>> = Vec::new();
    for (input, q) in inputs.iter().zip(&questions) {
        scratch.reset();
        encode_query_into(&mut scratch, 1, q, true, Some(&cookie)).expect("query encodes");
        let raw = scratch.message_bytes().to_vec();
        for dest in destinations(workload, input) {
            let view = MessageView::parse(&raw).expect("own query parses");
            if let Some(auth) = answerer.respond(dest, q) {
                let mut out = ScratchBuf::new();
                if auth
                    .to_message_for(&view)
                    .encode_udp_into(&mut out, 1232)
                    .is_ok()
                {
                    responses.push(out.message_bytes().to_vec());
                }
            }
        }
        query_bytes.push(raw);
    }
    let parse_ns = time_ns_per_call(5, responses.len(), |i| {
        let view = MessageView::parse(&responses[i]).expect("response parses");
        for r in view
            .answers()
            .chain(view.authorities())
            .chain(view.additionals())
        {
            std::hint::black_box(r.a_addr());
        }
        std::hint::black_box(view.cookie());
    });

    // transport: BatchIo::send_batch at the workload's query sizes, to a
    // loopback socket nobody reads.
    let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind replay sink");
    set_recv_buffer(&sink, 1 << 16);
    let to: SocketAddr = sink.local_addr().expect("sink address");
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind replay sender");
    tx.set_nonblocking(true).expect("nonblocking sender");
    let mut io = BatchIo::new(DEFAULT_BATCH_SIZE);
    let mut statuses = Vec::new();
    let batches: Vec<Vec<(&[u8], SocketAddr)>> = query_bytes
        .chunks(DEFAULT_BATCH_SIZE)
        .map(|c| c.iter().map(|q| (q.as_slice(), to)).collect())
        .collect();
    let send_ns = time_ns_per_call(5, batches.len(), |i| {
        statuses.clear();
        io.send_batch(&tx, &batches[i], &mut statuses, &mut |_| {});
    }) / DEFAULT_BATCH_SIZE as f64;

    // pacer: ConcurrentPacer::admit over the destination sequence, when
    // the workload paces at all.
    let config = phase.conf.pacer_config();
    let admit_ns = if config.enabled() {
        let pacer = ConcurrentPacer::new(config);
        let mut block = TokenBlock::default();
        let dests: Vec<Ipv4Addr> = inputs
            .iter()
            .flat_map(|i| destinations(workload, i))
            .collect();
        let mut now = 0u64;
        time_ns_per_call(5, dests.len(), |i| {
            now += 1_000;
            std::hint::black_box(pacer.admit(&mut block, dests[i], now));
        })
    } else {
        0.0
    };

    // cache: deepest_cut + get over the workload's names at the run's
    // final fill level.
    let cache = &phase.resolver.core().cache;
    let names: Vec<Name> = questions.iter().map(|q| q.name.clone()).collect();
    let probe_ns = time_ns_per_call(5, names.len(), |i| {
        std::hint::black_box(cache.deepest_cut(&names[i], 1_000_000_000));
        std::hint::black_box(cache.get(&names[i], RecordType::A, 1_000_000_000));
    });

    Replays {
        parse_ns,
        encode_ns,
        send_ns,
        admit_ns,
        probe_ns,
    }
}

/// A traced scan run.
pub fn run_traced_scan(workload: Workload, seed: u64, secs: f64) -> Outcome {
    let half = (secs / 2.0).max(0.5);
    let untraced = {
        let fleet = Fleet::start(workload, None).expect("loopback servers start");
        scan::run_phase(workload, seed, half, &fleet, None)
    };
    let tracer = Arc::new(Tracer::new());
    let fleet = Fleet::start(workload, Some(Arc::clone(&tracer))).expect("loopback servers start");
    let phase = scan::run_phase(workload, seed, half, &fleet, Some(Arc::clone(&tracer)));
    let eviction = (workload == Workload::ScanIterative).then(|| {
        scan::eviction_probe(
            seed,
            1.0,
            &Fleet::start(workload, None).expect("servers start"),
        )
    });
    let replays = replay(workload, seed, &phase);

    let run = &phase.run;
    let d = &run.driver;
    let n = run.lookups.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let samples = run.lookups as usize;
    let mut layers = Layers::default();
    let mut report = Report::default();

    layers.set(
        "pipeline.feeder_cpu_us_per_op",
        run.feeder_cpu_ns as f64 / 1e3 / n,
        samples,
    );
    let mut waits = tracer
        .input_waits
        .lock()
        .expect("wait list poisoned")
        .clone();
    waits.sort_unstable();
    layers.set(
        "pipeline.input_wait_us_p50",
        f64::from(percentile(&waits, 50.0)),
        waits.len(),
    );
    layers.set(
        "pipeline.credit_stalls_per_lookup",
        per(d.credit_stalls),
        samples,
    );
    layers.set("pipeline.inputs_stolen_frac", per(d.inputs_stolen), samples);
    layers.set(
        "pipeline.idle_credit_returns_per_lookup",
        per(d.idle_credit_returns),
        samples,
    );
    layers.set(
        "pipeline.peak_output_queue",
        run.peak_output_queue as f64,
        1,
    );

    // Self times below are thread-CPU time, so they reconcile with the
    // threads' CPU; wall time adds preemption on a busy 2-core box.
    let (make_wall, make_ns, make_calls) = tracer.total(Boundary::MakeMachine);
    let (machine_wall, machine_ns, machine_calls) = tracer.total(Boundary::Machine);
    layers.set(
        "modules.make_machine_ns",
        make_ns as f64 / make_calls.max(1) as f64,
        make_calls as usize,
    );
    layers.set(
        "modules.machine_us_per_lookup",
        machine_ns as f64 / 1e3 / n,
        machine_calls as usize,
    );
    layers.set("modules.steps_per_lookup", per(machine_calls), samples);
    let allocs = tracer
        .machine_allocs
        .load(std::sync::atomic::Ordering::Relaxed);
    layers.set("modules.allocs_per_lookup", per(allocs), samples);

    layers.set("cache.hits_per_lookup", per(run.cache_hits), samples);
    layers.set("cache.misses_per_lookup", per(run.cache_misses), samples);
    let (referrals, redundant) = run.referrals;
    layers.set(
        "cache.redundant_referral_frac",
        redundant as f64 / referrals.max(1) as f64,
        referrals as usize,
    );
    layers.set("cache.probe_ns", replays.probe_ns, 4_000);
    if let Some((lookups, failed)) = eviction {
        layers.set(
            "cache.eviction_servfail_frac",
            failed as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        report.info(format!(
            "eviction probe: --cache-size {}: {failed} of {lookups} lookups failed (SERVFAIL when glue is evicted before its NS RRset)",
            scan::EVICTION_CACHE_SIZE
        ));
    }

    layers.set("pacer.admit_ns", replays.admit_ns, 4_000);
    layers.set(
        "pacer.deferred_per_lookup",
        per(d.queries_deferred),
        samples,
    );
    layers.set(
        "pacer.per_host_throttles_per_lookup",
        per(d.per_host_throttles),
        samples,
    );
    layers.set(
        "pacer.sends_per_token_block",
        if d.token_blocks_leased > 0 {
            d.datagrams_sent as f64 / d.token_blocks_leased as f64
        } else {
            0.0
        },
        d.token_blocks_leased as usize,
    );
    layers.set("pacer.cas_retries", d.pacer_cas_retries as f64, 1);
    layers.set("pacer.stripe_waits", d.pacer_stripe_waits as f64, 1);

    let worker_cpu = tracer.role_cpu_ns(Role::Worker) as f64 / 1e3 / n;
    let writer_cpu = tracer.role_cpu_ns(Role::Writer) as f64 / 1e3 / n;
    let machine_us = machine_ns as f64 / 1e3 / n;
    let make_us = make_ns as f64 / 1e3 / n;
    let sent = per(d.datagrams_sent);
    let received = per(d.datagrams_received);
    let parse_us = replays.parse_ns * received / 1e3;
    let encode_us = replays.encode_ns * sent / 1e3;
    let send_us = replays.send_ns * sent / 1e3;
    let admit_us = replays.admit_ns * sent / 1e3;
    let residual = worker_cpu - machine_us - make_us - parse_us - encode_us - send_us - admit_us;
    layers.set("reactor.worker_cpu_us_per_lookup", worker_cpu, samples);
    layers.set("reactor.residual_us_per_lookup", residual, samples);
    layers.set(
        "reactor.timeouts_per_lookup",
        per(d.timeouts_fired),
        samples,
    );
    layers.set(
        "reactor.stale_datagrams_per_lookup",
        per(d.stale_datagrams),
        samples,
    );
    layers.set(
        "reactor.backpressure_requeues",
        d.backpressure_requeues as f64,
        1,
    );
    layers.set("reactor.peak_in_flight", d.peak_in_flight as f64, 1);

    layers.set(
        "transport.dg_per_send_syscall",
        d.datagrams_sent as f64 / d.send_syscalls.max(1) as f64,
        d.send_syscalls as usize,
    );
    layers.set(
        "transport.dg_per_recv_syscall",
        d.datagrams_received as f64 / d.recv_syscalls.max(1) as f64,
        d.recv_syscalls as usize,
    );
    layers.set(
        "transport.ring_enters_per_lookup",
        per(d.ring_enters),
        samples,
    );
    layers.set("transport.send_ns_per_dg", replays.send_ns, 4_000);
    layers.set(
        "transport.tcp_fallbacks_per_lookup",
        per(d.tcp_fallbacks),
        samples,
    );
    // In-flight time (machine to checked output) of the lookups that
    // fell back to TCP: those aimed at truncating destinations.
    let trunc = scan::CheckSink::class_code(DestClass::Truncated.label());
    let mut tcp: Vec<u32> = tracer
        .in_flight_us
        .lock()
        .expect("in-flight list poisoned")
        .iter()
        .filter(|(c, _)| workload == Workload::ScanHostile && *c == trunc)
        .map(|(_, us)| *us)
        .collect();
    tcp.sort_unstable();
    let tcp = &tcp;
    layers.set(
        "transport.tcp_lookup_ms_p50",
        f64::from(percentile(tcp, 50.0)) / 1e3,
        tcp.len(),
    );

    layers.set("wire.view_parse_ns", replays.parse_ns, 4_000);
    layers.set("wire.encode_query_ns", replays.encode_ns, 4_000);
    layers.set("wire.decode_errors", d.decode_errors as f64, 1);

    let (write_wall, write_ns, write_calls) = tracer.total(Boundary::WriteOutput);
    layers.set("output.writer_cpu_us_per_lookup", writer_cpu, samples);
    layers.set(
        "output.write_ns",
        write_ns as f64 / write_calls.max(1) as f64,
        write_calls as usize,
    );
    layers.set(
        "output.bytes_per_line",
        run.output_bytes as f64 / write_calls.max(1) as f64,
        write_calls as usize,
    );

    layers.set(
        "harness.answer_cpu_us_per_query",
        run.harness_cpu_ns as f64 / 1e3 / run.answered.max(1) as f64,
        run.answered as usize,
    );
    layers.set("memory.heap_peak_mb", phase.heap_peak_mb, 1);
    layers.set("memory.rss_peak_mb", phase.rss_peak_mb, 1);
    layers.set("harness.peak_core_frac", run.harness_peak_core, 1);
    let rate = |p: &Phase| p.run.correct as f64 / p.run.wall_s;
    layers.set(
        "trace.overhead_frac",
        1.0 - rate(&phase) / rate(&untraced),
        2,
    );

    let (_, check_ns, check_calls) = tracer.total(Boundary::OracleCheck);
    let (_, respond_ns, respond_calls) = tracer.total(Boundary::Respond);
    let (_, pull_ns, pull_calls) = tracer.total(Boundary::NextName);
    let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    report.info(format!(
        "self CPU per call: next_name {:.0} ns, make_machine {:.0} ns, SimClient {:.0} ns, write_output {:.0} ns, oracle check {:.0} ns (writer thread, harness), respond {:.0} ns (answering side)",
        per_call(pull_ns, pull_calls),
        per_call(make_ns, make_calls),
        per_call(machine_ns, machine_calls),
        per_call(write_ns, write_calls),
        per_call(check_ns, check_calls),
        per_call(respond_ns, respond_calls),
    ));
    report.info(format!(
        "self wall time per call: make_machine {:.0} ns, SimClient {:.0} ns, write_output {:.0} ns",
        per_call(make_wall, make_calls),
        per_call(machine_wall, machine_calls),
        per_call(write_wall, write_calls),
    ));
    report.info(format!(
        "replayed per call: view parse {:.0} ns, encode_query_into {:.0} ns, send_batch {:.0} ns/dg, pacer admit {:.0} ns, cache probe {:.0} ns",
        replays.parse_ns, replays.encode_ns, replays.send_ns, replays.admit_ns, replays.probe_ns
    ));
    let writer_layers = write_ns as f64 / 1e3 / n;
    let sum = machine_us + make_us + parse_us + encode_us + send_us + admit_us + writer_layers;
    report.info(format!(
        "reconciliation (us/lookup): machine {machine_us:.2} + make_machine {make_us:.2} + parse {parse_us:.2} + encode {encode_us:.2} + send {send_us:.2} + admit {admit_us:.2} + write_output {writer_layers:.2} = {sum:.2} of worker+writer CPU {:.2} ({worker_cpu:.2} + {writer_cpu:.2}); residual {:.2} (worker residual {residual:.2})",
        worker_cpu + writer_cpu,
        worker_cpu + writer_cpu - sum
    ));
    report.info(format!(
        "cache cross-check: {:.3} hits and {:.3} misses per lookup, {:.3} queries per lookup, {:.3} of TLD referrals redundant ({redundant} of {referrals})",
        per(run.cache_hits),
        per(run.cache_misses),
        per(d.datagrams_sent + d.tcp_fallbacks),
        redundant as f64 / referrals.max(1) as f64
    ));
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{seed}.jsonl",
        workload.name()
    ));
    match tracer.write_spans(&path) {
        Ok(count) => report.info(format!("{count} spans written to {}", path.display())),
        Err(e) => report.info(format!("spans not written to {}: {e}", path.display())),
    }
    let mut setups = phase.setups.clone();
    report.info(format!(
        "untraced setup_s median {:.6}",
        median(&mut setups)
    ));
    report.harness_saturation(run.harness_peak_core);
    report.io_backend = d.io_backend;
    layers.emit(&mut report);
    Outcome {
        attempted: untraced.run.attempted + run.attempted,
        failed: untraced.run.failed() + run.failed(),
        report,
    }
}
