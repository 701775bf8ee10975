//! Table 1 — ZDNS performance at scale: 50M A lookups and the full public
//! IPv4 PTR sweep, for Google / Cloudflare / iterative resolution.
//!
//! Paper rows:
//! ```text
//! A    Google      50M        96.4%   10.6m
//! A    Cloudflare  50M        97.0%   10.3m
//! A    Iterative   50M        96.7%   46.3m
//! PTR  Google      100% IPv4  93.0%   12.1h
//! PTR  Cloudflare  100% IPv4  93.5%   12.9h
//! PTR  Iterative   100% IPv4  88.5%   116.7h
//! ```
//!
//! The harness measures a steady-state sample at the paper's operating
//! point (50K threads, /28) and extrapolates wall time to the full
//! workload from the measured rate — the same arithmetic the paper's
//! durations imply.
//!
//! Run: `cargo run --release -p zdns-bench --bin table1_scale`

use zdns_bench::*;
use zdns_workloads::public_ipv4_count;

fn main() {
    let quick = quick_mode();
    let universe = bench_universe();
    let threads = if quick { 10_000 } else { 50_000 };
    let full_a = 50_000_000.0;
    let full_ptr = public_ipv4_count() as f64;

    println!("Table 1: ZDNS performance (measured sample + full-scale extrapolation)\n");
    let table = TablePrinter::new(&[
        "lookup",
        "resolver",
        "workload",
        "succ_%",
        "succ/s",
        "time(full)",
        "paper",
    ]);
    let rows: [(Workload, TargetResolver, f64, &str, &str); 6] = [
        (
            Workload::A,
            TargetResolver::Google,
            full_a,
            "50M",
            "10.6m / 96.4%",
        ),
        (
            Workload::A,
            TargetResolver::Cloudflare,
            full_a,
            "50M",
            "10.3m / 97.0%",
        ),
        (
            Workload::A,
            TargetResolver::Iterative,
            full_a,
            "50M",
            "46.3m / 96.7%",
        ),
        (
            Workload::Ptr,
            TargetResolver::Google,
            full_ptr,
            "100% IPv4",
            "12.1h / 93.0%",
        ),
        (
            Workload::Ptr,
            TargetResolver::Cloudflare,
            full_ptr,
            "100% IPv4",
            "12.9h / 93.5%",
        ),
        (
            Workload::Ptr,
            TargetResolver::Iterative,
            full_ptr,
            "100% IPv4",
            "116.7h / 88.5%",
        ),
    ];
    // (workload, resolver, successes/s, success rate) per row, for the
    // shape checks below.
    let mut measured = Vec::new();
    for (workload, resolver, total, label, paper) in rows {
        let spec = ScanSpec {
            resolver,
            workload,
            threads,
            source_ips: 16,
            jobs: jobs_for(threads, quick),
            ..ScanSpec::default()
        };
        let o = run_scan(&universe, &spec);
        let full_time = extrapolate_time(total, o.successes_per_sec / o.success_rate.max(1e-9));
        table.row(&[
            workload.label().to_string(),
            resolver.label().to_string(),
            label.to_string(),
            format!("{:.1}", o.success_rate * 100.0),
            format!("{:.0}", o.successes_per_sec),
            human_time(full_time),
            paper.to_string(),
        ]);
        measured.push((workload, resolver, o.successes_per_sec, o.success_rate));
    }

    // Shape check 1: iterative A lookups run several times (>= 2x)
    // slower than external mode (the paper: 46.3m vs ~10.5m, ~4.4x).
    let a_rate = |want: TargetResolver| {
        measured
            .iter()
            .find(|(w, r, _, _)| *w == Workload::A && *r == want)
            .map(|(_, _, rate, _)| *rate)
            .expect("every A row measured")
    };
    let external = (a_rate(TargetResolver::Google) + a_rate(TargetResolver::Cloudflare)) / 2.0;
    let slowdown = external / a_rate(TargetResolver::Iterative).max(1e-9);
    let verdict = if quick {
        // Two lookups per thread: every mode finishes as fast as its
        // threads ramp up, so the rows cannot show per-lookup cost.
        "not expressible at --quick scale (thread-bound)"
    } else if slowdown >= 2.0 {
        "PASS"
    } else {
        "FAIL"
    };
    println!(
        "\nshape check: iterative is several times (>= 2x) slower than external mode: \
         {slowdown:.2}x — {verdict}"
    );

    // Shape check 2: success drops only a few (<= 10) points from the A
    // scan to the full PTR sweep, per resolver.
    let worst_drop = measured
        .iter()
        .filter(|(w, _, _, _)| *w == Workload::A)
        .filter_map(|(_, r, _, a_success)| {
            measured
                .iter()
                .find(|(w, pr, _, _)| *w == Workload::Ptr && pr == r)
                .map(|(_, _, _, ptr_success)| (a_success - ptr_success) * 100.0)
        })
        .fold(0.0, |worst, drop| if drop > worst { drop } else { worst });
    let verdict = if worst_drop <= 10.0 { "PASS" } else { "FAIL" };
    println!(
        "shape check: success drops only a few (<= 10) points from A to PTR: \
         worst {worst_drop:.1} points — {verdict}"
    );
}
