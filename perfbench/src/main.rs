//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan_external|scan_iterative|scan_hostile|serve_zipf|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs the real program (`run_scan_pipeline` or
//! `zdns serve`) against loopback answerers, checks every output
//! against the oracle, and prints its metrics; the last line of
//! standard output is one JSON object. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for what each workload and metric is for.

mod answer;
mod gen;
mod heap;
mod layers;
mod report;
mod scan;
mod serve;
mod trace;
mod util;

use gen::Workload;
use report::{result_json, run_record, Outcome};

#[global_allocator]
static ALLOC: heap::HeapMeter = heap::HeapMeter;

/// The end-to-end metrics every untraced run reports, as listed in
/// `BENCHMARK.json`.
pub const END_TO_END: [&str; 5] = [
    "successes_per_s",
    "cpu_us_per_op",
    "queries_per_lookup",
    "lookup_p50_ms",
    "setup_s",
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut named = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                named = true;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let secs = seconds as f64;
    match (workload, trace) {
        (Workload::ServeZipf, false) => serve::run_untraced(seed, secs),
        (Workload::ServeZipf, true) => serve::run_traced(seed, secs),
        (w, false) => scan::run_untraced(w, seed, secs),
        (w, true) => layers::run_traced_scan(w, seed, secs),
    }
}

fn print_outcome(workload: Workload, args: &Args, outcome: &Outcome) {
    let report = &outcome.report;
    println!(
        "run {}",
        run_record(
            workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            report.io_backend
        )
    );
    for line in &report.info {
        println!("{}: {line}", workload.name());
    }
    for (name, value, unit, samples) in &report.metrics {
        println!(
            "{}: metric {name} = {value:.6} {unit} (n={samples})",
            workload.name()
        );
    }
    for why in &report.invalid {
        println!("{}: INVALID RUN: {why}", workload.name());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if args.trace {
        heap::start_counting();
    }
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = report::Report::default();
    for workload in &workloads {
        let ticks_before = report::cpu_ticks();
        let mut outcome = run(*workload, args.seed, args.seconds, args.trace);
        let ticks_after = report::cpu_ticks();
        let total = ticks_after.0.saturating_sub(ticks_before.0).max(1);
        let stolen = ticks_after.1.saturating_sub(ticks_before.1);
        outcome.report.info(format!(
            "host: {:.1}% of the machine's CPU time was stolen by the hypervisor during the run",
            stolen as f64 * 100.0 / total as f64
        ));
        print_outcome(*workload, &args, &outcome);
        let expected: Vec<&str> = if args.trace {
            layers::PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        let got: Vec<&str> = outcome
            .report
            .metrics
            .iter()
            .map(|m| m.0.as_str())
            .collect();
        assert_eq!(
            got,
            expected,
            "{} reported the wrong metric set",
            workload.name()
        );
        attempted += outcome.attempted;
        failed += outcome.failed;
        if workloads.len() == 1 {
            combined = outcome.report;
        } else {
            for (name, value, unit, samples) in outcome.report.metrics {
                combined.metric(&format!("{}/{name}", workload.name()), value, unit, samples);
            }
        }
    }
    // Every output was checked: a wrong one has already ended the run
    // with a non-zero exit, so reaching here means all were correct.
    println!("{}", result_json(true, attempted, failed, &combined));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the binary reports are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), layers::PER_LAYER);
        let units: Vec<String> = json["per_layer"]
            .as_array()
            .expect("per_layer")
            .iter()
            .map(|m| m["unit"].as_str().expect("unit").to_string())
            .collect();
        let want: Vec<&str> = layers::PER_LAYER_UNITS.iter().map(|(_, u)| *u).collect();
        assert_eq!(units, want);
        let workloads = names("workloads");
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
