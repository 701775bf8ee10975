//! The shared-queue scan pipeline, end to end (companion to
//! `tests/polite_scan.rs`):
//!
//! * **Work stealing / stranded-window recovery** — a loopback scan
//!   where most destinations are blackholes serving long backoff
//!   penalties. Lookups to them *park* (returning their credits to the
//!   shared pool) and the healthy part of the scan absorbs the stranded
//!   capacity: every healthy probe must finish before the first backoff
//!   penalty expires.
//! * **CT-corpus workload** — `--workload ct-corpus` streamed through a
//!   `--real` scan against a loopback server, never materializing the
//!   name set.
//! * **Bounded output backpressure** — a slow sink throttles the scan
//!   instead of growing an unbounded backlog.
//! * **Sim/real convergence** — the simulator drains the same
//!   `InputSource` stream the real pipeline uses.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zdns::core::AddrMap;
use zdns::framework::{
    run_scan_pipeline, run_sim_scan, Conf, JsonlSink, OutputSink, RealScanReport,
};
use zdns::modules::ModuleRegistry;
use zdns::netsim::{WireServer, MILLIS};
use zdns::wire::Name;
use zdns::workloads::CtCorpus;
use zdns::zones::{ExplicitUniverse, SynthConfig, SyntheticUniverse, Universe, Zone};

/// A loopback server whose root-apex zone authoritatively answers every
/// name (NXDOMAIN counts as a successful lookup).
fn catch_all_server(sim_ip: Ipv4Addr) -> WireServer {
    let zone = Zone::new(Name::root(), "ns1.rootish.test".parse().unwrap(), 300);
    let mut universe = ExplicitUniverse::new();
    universe.host(sim_ip, zone);
    WireServer::start(Arc::new(universe) as Arc<dyn Universe>, sim_ip).unwrap()
}

const HEALTHY_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

/// Sim addresses for destinations that swallow every packet.
fn dead_ips(n: usize) -> Vec<Ipv4Addr> {
    (0..n)
        .map(|i| Ipv4Addr::new(203, 0, 113, 100 + i as u8))
        .collect()
}

/// Per-query timeout at every destination in the backed-off scenario.
const PROBE_TIMEOUT: Duration = Duration::from_millis(120);
/// Constant backoff penalty (base == cap) in the backed-off scenario.
const PENALTY: Duration = Duration::from_secs(1);

/// One run of the backed-off scenario. Returns the report and, for every
/// healthy probe, when its output reached the sink relative to the
/// scan's start.
fn run_half_dead_scan() -> (RealScanReport, Vec<Duration>) {
    let healthy = catch_all_server(HEALTHY_IP);
    let dead = dead_ips(5);
    // Blackholes: bound sockets nobody ever reads — sends succeed, no
    // ICMP error comes back, every query to them times out.
    let blackholes: Vec<UdpSocket> = dead
        .iter()
        .map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap())
        .collect();
    let mut mapping: Vec<(Ipv4Addr, SocketAddr)> = vec![(HEALTHY_IP, healthy.addr())];
    for (sim, sock) in dead.iter().zip(&blackholes) {
        mapping.push((*sim, sock.local_addr().unwrap()));
    }
    let addr_map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .expect("every probe targets a mapped server")
    });

    // 60 lookups at destinations in deep backoff, 20 healthy, over a
    // 16-credit window and (up to) 2 workers. A constant 1s penalty
    // (base == cap) keeps the scenario deterministic: every dead retry
    // parks for exactly 1s while holding the wire for only ~240ms total.
    let args = vec![
        "PROBE".to_string(),
        "--threads".into(),
        "2".into(),
        "--max-in-flight".into(),
        "16".into(),
        "--retries".into(),
        "1".into(),
        "--backoff-base".into(),
        "1".into(),
        "--backoff-cap".into(),
        PENALTY.as_secs().to_string(),
    ];
    let mut conf = Conf::parse(args).unwrap();
    conf.resolver.timeout = PROBE_TIMEOUT.as_millis() as u64 * MILLIS;
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("PROBE").unwrap();

    let inputs: Vec<String> = (0..80)
        .map(|i| {
            if i % 4 == 3 {
                format!("ok{i}.pipeline.test@{HEALTHY_IP}")
            } else {
                format!("dead{i}.pipeline.test@{}", dead[i % dead.len()])
            }
        })
        .collect();

    let started = Instant::now();
    let healthy_done = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&healthy_done);
    let mut source = inputs.into_iter();
    let mut sink = zdns::framework::CallbackSink::new(move |output| {
        if output.name.starts_with("ok") {
            record.lock().unwrap().push(started.elapsed());
        }
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);
    drop(healthy);
    let healthy_done = std::mem::take(&mut *healthy_done.lock().unwrap());
    (report, healthy_done)
}

#[test]
fn shared_queue_absorbs_stranded_window_from_backed_off_destinations() {
    let (report, healthy_done) = run_half_dead_scan();

    // The whole scan completes: healthy probes answer (NXDOMAIN from the
    // catch-all zone = success), dead destinations time out.
    assert_eq!(report.lookups, 80, "{:?}", report.worker_errors);
    assert_eq!(
        report.status_counts.get("TIMEOUT").copied().unwrap_or(0),
        60,
        "{:?}",
        report.status_counts
    );
    assert_eq!(report.successes, 20);
    assert!(
        report.driver.queries_deferred > 0,
        "backoff must defer retries"
    );

    // Backed-off lookups park instead of holding the window. Telemetry
    // first:
    assert!(
        report.driver.credit_leases > 0,
        "workers lease admission credits"
    );
    assert!(
        report.driver.idle_credit_returns > 0,
        "fully-backed-off lookups must park and return their credits: {:?}",
        report.driver
    );
    if report.workers >= 2 {
        assert!(
            report.driver.inputs_stolen > 0,
            "some worker must admit beyond its static fair share"
        );
    }
    let line = report.summary_line();
    assert!(
        line.contains("credit leases"),
        "the --real summary must print the lease telemetry: {line}"
    );

    // The stranded window is absorbed while the penalties still run: no
    // penalty can expire before the first timeout plus one penalty, and
    // a window held by backed-off lookups would keep some healthy probe
    // waiting at least that long.
    assert_eq!(
        healthy_done.len(),
        20,
        "every healthy output reached the sink"
    );
    let first_expiry = PROBE_TIMEOUT + PENALTY;
    let last_healthy = *healthy_done.iter().max().unwrap();
    assert!(
        last_healthy < first_expiry,
        "healthy probes must finish before the first backoff penalty \
         expires: last at {last_healthy:?}, earliest expiry {first_expiry:?}"
    );
}

#[test]
fn ct_corpus_workload_streams_through_real_scan_on_loopback() {
    let server_ip = Ipv4Addr::new(203, 0, 113, 42);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);

    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.42",
        "--threads",
        "2",
        "--max-in-flight",
        "64",
        "--workload",
        "ct-corpus",
        "--max-names",
        "300",
        "--retries",
        "2",
    ])
    .unwrap();
    assert_eq!(conf.workload, zdns::framework::Workload::CtCorpus);
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();

    // The exact source the CLI builds for `--workload ct-corpus`:
    // generated, streaming, never materialized.
    let mut source = CtCorpus::new(conf.seed, 486, 1211).into_stream(conf.max_names as u64);
    let mut sink = JsonlSink::new(Vec::new(), conf.output);
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    assert_eq!(report.lookups, 300, "{:?}", report.worker_errors);
    assert_eq!(
        report.status_counts.get("NXDOMAIN").copied().unwrap_or(0),
        300,
        "the catch-all zone answers every corpus name authoritatively: {:?}",
        report.status_counts
    );
    assert_eq!(sink.outputs_written(), 300);
    assert_eq!(report.sink_errors, 0);
    let bytes = sink.into_inner();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 300);
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        assert_eq!(v["status"], "NXDOMAIN");
        assert!(v["name"].is_string());
    }
    drop(server);
}

#[test]
fn slow_sink_backpressure_bounds_the_output_queue() {
    let server_ip = Ipv4Addr::new(203, 0, 113, 43);
    let server = catch_all_server(server_ip);
    let real = server.addr();
    let addr_map: Arc<AddrMap> = Arc::new(move |_| real);

    let conf = Conf::parse([
        "A",
        "--name-servers",
        "203.0.113.43",
        "--threads",
        "2",
        "--max-in-flight",
        "32",
        "--retries",
        "2",
    ])
    .unwrap();
    let resolver = zdns::core::Resolver::new(conf.resolver.clone());
    let module = ModuleRegistry::standard().get("A").unwrap();

    let mut source = (0..200).map(|i| format!("slow{i}.sink.test"));
    // A sink an order of magnitude slower than the lookups.
    let mut sink = zdns::framework::CallbackSink::new(|_| {
        std::thread::sleep(std::time::Duration::from_micros(500));
    });
    let report = run_scan_pipeline(&conf, &resolver, module, addr_map, &mut source, &mut sink);

    assert_eq!(report.lookups, 200, "{:?}", report.worker_errors);
    // The queue is bounded at (2 * window).max(64) = 64: however slow
    // the sink, outstanding outputs (queued + the one in the writer's
    // hand) can never exceed the cap + 1.
    assert!(
        report.peak_output_queue <= 65,
        "bounded queue violated: peak {}",
        report.peak_output_queue
    );
    assert!(report.peak_output_queue > 0);
    drop(server);
}

#[test]
fn sim_scan_drains_the_same_input_source_stream() {
    let conf = Conf::parse(["A", "--name-servers", "8.8.8.8", "--threads", "64"]).unwrap();
    let universe = Arc::new(SyntheticUniverse::new(SynthConfig::default()));
    let module = ModuleRegistry::standard().get("A").unwrap();
    // The identical generator type the real pipeline consumed above.
    let source = CtCorpus::new(7, 486, 1211).into_stream(250);
    let outputs = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let o2 = Arc::clone(&outputs);
    let report = run_sim_scan(&conf, universe, module, source, move |_| {
        o2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(report.jobs, 250);
    assert_eq!(outputs.load(std::sync::atomic::Ordering::Relaxed), 250);
}
