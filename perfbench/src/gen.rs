//! Seeded workload inputs and the oracle that knows each input's
//! expected output.
//!
//! Every input is a pure function of `(seed, index)`, so a run streams
//! its inputs without materializing them, and the oracle recomputes the
//! expected status and answer from the input text alone (the loopback
//! answerers derive their answers from the query name the same way, see
//! `answer.rs`).

use std::net::Ipv4Addr;

use crate::util::{addr_for, mix3};

/// Host labels, so names look like the certificate-transparency corpus
/// (service prefixes over registered domains) rather than counters.
const HOSTS: [&str; 12] = [
    "www", "mail", "api", "cdn", "shop", "blog", "dev", "static", "portal", "app", "vpn", "m",
];
/// Top-level domains the synthetic names are spread over.
pub const TLDS: [&str; 8] = ["com", "net", "org", "io", "de", "uk", "info", "xyz"];

/// Hot second-level domains in `scan_iterative`: a minority that a
/// fixed share of all names live under.
pub const HOT_SLDS: u64 = 256;
/// Cold second-level domains are visited in blocks of this many: each
/// is looked up three times, once per shuffled pass over its block, so
/// its visits are about `COLD_BLOCK` cold lookups apart.
pub const COLD_BLOCK: u64 = 4096;
/// Visits per cold second-level domain.
pub const COLD_VISITS: u64 = 3;

/// Records in the answer a truncating destination gives: large enough
/// that it cannot fit the 1232-byte EDNS payload the client offers.
pub const TRUNC_RRSET: u32 = 100;

/// Distinct names `serve_zipf` draws its Zipf-distributed queries
/// from: more than the default packet-cache capacity (65 536), so the
/// packet cache cannot hold the whole working set.
pub const SERVE_NAMES: u64 = 80_000;
/// Zipf exponent of the serve name popularity.
pub const SERVE_ZIPF_S: f64 = 1.0;
/// Queries per thousand that ask for a never-seen name, which the
/// server must forward upstream.
pub const SERVE_NEW_PER_MILLE: u64 = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// External-mode `A` lookups of unique names against one recursive
    /// resolver.
    ScanExternal,
    /// Iterative `A` lookups over a root → TLD → SLD hierarchy.
    ScanIterative,
    /// `PROBE name@ip` lookups against healthy and misbehaving
    /// destinations.
    ScanHostile,
    /// `zdns serve` driven open-loop by a query generator.
    ServeZipf,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ScanExternal,
        Workload::ScanIterative,
        Workload::ScanHostile,
        Workload::ServeZipf,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanExternal => "scan_external",
            Workload::ScanIterative => "scan_iterative",
            Workload::ScanHostile => "scan_hostile",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How a `scan_hostile` destination behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DestClass {
    /// Answers every query.
    Healthy,
    /// Never answers.
    Blackhole,
    /// Answers over UDP with TC set; the full answer needs TCP.
    Truncated,
    /// Answers REFUSED.
    Refused,
    /// Answers SERVFAIL.
    ServFail,
}

impl DestClass {
    /// Every class, in report order.
    pub const ALL: [DestClass; 5] = [
        DestClass::Healthy,
        DestClass::Blackhole,
        DestClass::Truncated,
        DestClass::Refused,
        DestClass::ServFail,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            DestClass::Healthy => "healthy",
            DestClass::Blackhole => "blackhole",
            DestClass::Truncated => "truncated",
            DestClass::Refused => "refused",
            DestClass::ServFail => "servfail",
        }
    }

    /// Third octet of the class's destination addresses (198.18.X.k).
    fn octet(self) -> u8 {
        self as u8 + 1
    }

    /// Destinations in the class.
    pub fn dest_count(self) -> u64 {
        match self {
            DestClass::Healthy => 64,
            DestClass::Blackhole => 8,
            _ => 4,
        }
    }

    /// Share of lookups aimed at the class, per hundred.
    fn share(self) -> u64 {
        match self {
            DestClass::Healthy => 80,
            DestClass::Blackhole => 8,
            _ => 4,
        }
    }

    /// Destination `k` of the class.
    pub fn dest(self, k: u64) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, self.octet(), (k % self.dest_count()) as u8 + 1)
    }

    /// The class a destination address belongs to.
    pub fn of(ip: Ipv4Addr) -> Option<DestClass> {
        let [a, b, c, _] = ip.octets();
        if (a, b) != (198, 18) {
            return None;
        }
        DestClass::ALL.into_iter().find(|class| class.octet() == c)
    }
}

/// The expected answer section of one output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// No answer records.
    None,
    /// Exactly these `A` records, in any order.
    A(Vec<Ipv4Addr>),
}

/// What the oracle expects one input to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Expected lookup status (`NOERROR`, `TIMEOUT`, ...).
    pub status: &'static str,
    /// Expected answers.
    pub answer: Answer,
    /// Destination class the input exercises (report grouping).
    pub class: &'static str,
}

fn host(seed: u64, idx: u64) -> &'static str {
    HOSTS[(mix3(seed, 4, idx) % HOSTS.len() as u64) as usize]
}

/// The `scan_iterative` second-level domain of input `idx`: its label
/// and its TLD. Three of every ten names fall under a hot SLD; the rest
/// walk the cold blocks.
pub fn iterative_sld(seed: u64, idx: u64) -> (String, &'static str) {
    let (label, key) = if idx % 10 < 3 {
        let hot = mix3(seed, 2, idx) % HOT_SLDS;
        (format!("h{hot}"), hot)
    } else {
        let j = idx / 10 * 7 + (idx % 10 - 3);
        let per_block = COLD_BLOCK * COLD_VISITS;
        let block = j / per_block;
        let pass = (j % per_block) / COLD_BLOCK;
        let pos = j % COLD_BLOCK;
        // An odd multiplier makes `a * pos + b` a permutation of the block.
        let a = mix3(seed, block, pass) | 1;
        let b = mix3(seed, pass, block);
        let sld = block * COLD_BLOCK + (a.wrapping_mul(pos).wrapping_add(b) % COLD_BLOCK);
        (format!("c{sld:x}"), sld + HOT_SLDS)
    };
    let tld = TLDS[(mix3(seed, 3, key) % TLDS.len() as u64) as usize];
    (label, tld)
}

/// Input `idx` of a scan workload. Names carry their index (`-q<hex>`
/// in the first label) so outputs map back to inputs without a table.
pub fn scan_input(workload: Workload, seed: u64, idx: u64) -> String {
    let host = host(seed, idx);
    match workload {
        Workload::ScanExternal => {
            let h = mix3(seed, 1, idx);
            let tld = TLDS[(h % TLDS.len() as u64) as usize];
            format!("{host}-q{idx:x}.d{:x}.{tld}", (h >> 8) % 1_000_000)
        }
        Workload::ScanIterative => {
            let (sld, tld) = iterative_sld(seed, idx);
            format!("{host}-q{idx:x}.{sld}.{tld}")
        }
        Workload::ScanHostile => {
            let roll = mix3(seed, 5, idx) % 100;
            let mut acc = 0;
            let class = DestClass::ALL
                .into_iter()
                .find(|c| {
                    acc += c.share();
                    roll < acc
                })
                .unwrap_or(DestClass::Healthy);
            let dest = class.dest(mix3(seed, 6, idx));
            let tld = TLDS[(mix3(seed, 1, idx) % TLDS.len() as u64) as usize];
            format!("{host}-q{idx:x}.probe.{tld}@{dest}")
        }
        Workload::ServeZipf => unreachable!("serve queries come from serve_query"),
    }
}

/// The index an input (or output name) carries, if any.
pub fn input_index(input: &str) -> Option<u64> {
    let first = input.split(['.', '@']).next()?;
    let (_, hex) = first.rsplit_once("-q")?;
    u64::from_str_radix(hex, 16).ok()
}

/// What a scan input must produce.
pub fn expect(workload: Workload, input: &str) -> Expected {
    let ok = |name: &str| Expected {
        status: "NOERROR",
        answer: Answer::A(vec![addr_for(name, 0)]),
        class: "healthy",
    };
    match workload {
        Workload::ScanExternal | Workload::ScanIterative | Workload::ServeZipf => ok(input),
        Workload::ScanHostile => {
            let (name, dest) = input.split_once('@').unwrap_or((input, ""));
            let class = dest
                .parse()
                .ok()
                .and_then(DestClass::of)
                .unwrap_or(DestClass::Healthy);
            let (status, answer) = match class {
                DestClass::Healthy => return ok(name),
                DestClass::Truncated => (
                    "NOERROR",
                    Answer::A((0..TRUNC_RRSET).map(|k| addr_for(name, k)).collect()),
                ),
                DestClass::Blackhole => ("TIMEOUT", Answer::None),
                DestClass::Refused => ("REFUSED", Answer::None),
                DestClass::ServFail => ("SERVFAIL", Answer::None),
            };
            Expected {
                status,
                answer,
                class: class.label(),
            }
        }
    }
}

/// The kind of client a serve query comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// EDNS with a client cookie.
    Cookie,
    /// EDNS without a cookie.
    Edns,
    /// No OPT record at all.
    Plain,
}

/// One `serve_zipf` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeQuery {
    /// The question name.
    pub name: String,
    /// Which client shape sends it.
    pub kind: ClientKind,
    /// True for a never-seen name the server must forward.
    pub fresh: bool,
}

/// Cumulative Zipf weights over `SERVE_NAMES` ranks, normalized to 1.
pub fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=SERVE_NAMES)
        .map(|rank| {
            acc += 1.0 / (rank as f64).powf(SERVE_ZIPF_S);
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

/// The name of popularity rank `rank` (0-based) under `seed`.
pub fn serve_name(seed: u64, rank: u64) -> String {
    format!("r{rank}-{:x}.zipf.test", mix3(seed, 7, rank) & 0xffff)
}

/// The popularity rank of query `idx` of `serve_zipf` (`None` for a
/// never-seen name) and the client kind that sends it, without building
/// its name. `cdf` is [`zipf_cdf`].
pub fn serve_pick(seed: u64, idx: u64, cdf: &[f64]) -> (Option<u64>, ClientKind) {
    let h = mix3(seed, 8, idx);
    let kind = match h % 10 {
        0..=4 => ClientKind::Cookie,
        5..=7 => ClientKind::Edns,
        _ => ClientKind::Plain,
    };
    if (h >> 8) % 1000 < SERVE_NEW_PER_MILLE {
        return (None, kind);
    }
    let u = (mix3(seed, 9, idx) >> 11) as f64 / (1u64 << 53) as f64;
    let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
    (Some(rank), kind)
}

/// Query `idx` of `serve_zipf`. `cdf` is [`zipf_cdf`].
pub fn serve_query(seed: u64, idx: u64, cdf: &[f64]) -> ServeQuery {
    match serve_pick(seed, idx, cdf) {
        (Some(rank), kind) => ServeQuery {
            name: serve_name(seed, rank),
            kind,
            fresh: false,
        },
        (None, kind) => ServeQuery {
            name: format!("{}-q{idx:x}.fresh.zipf.test", host(seed, idx)),
            kind,
            fresh: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_expectations() {
        for w in [
            Workload::ScanExternal,
            Workload::ScanIterative,
            Workload::ScanHostile,
        ] {
            for idx in 0..2_000 {
                let a = scan_input(w, 7, idx);
                assert_eq!(a, scan_input(w, 7, idx));
                assert_eq!(expect(w, &a), expect(w, &scan_input(w, 7, idx)));
                assert_eq!(input_index(&a), Some(idx), "{a}");
            }
        }
        let cdf = zipf_cdf();
        for idx in 0..2_000 {
            assert_eq!(serve_query(7, idx, &cdf), serve_query(7, idx, &cdf));
        }
    }

    #[test]
    fn different_seed_different_stream() {
        for w in [
            Workload::ScanExternal,
            Workload::ScanIterative,
            Workload::ScanHostile,
        ] {
            let differ = (0..1_000)
                .filter(|&i| scan_input(w, 1, i) != scan_input(w, 2, i))
                .count();
            assert!(differ > 900, "{w:?}: only {differ} of 1000 differ");
        }
        let cdf = zipf_cdf();
        let differ = (0..1_000)
            .filter(|&i| serve_query(1, i, &cdf) != serve_query(2, i, &cdf))
            .count();
        assert!(differ > 900, "serve: only {differ} of 1000 differ");
    }

    #[test]
    fn scan_inputs_are_unique_within_a_run() {
        for w in [
            Workload::ScanExternal,
            Workload::ScanIterative,
            Workload::ScanHostile,
        ] {
            let names: HashSet<String> = (0..20_000).map(|i| scan_input(w, 3, i)).collect();
            assert_eq!(names.len(), 20_000);
        }
    }

    #[test]
    fn hostile_class_shares_match_the_design() {
        let mut counts = std::collections::BTreeMap::new();
        for idx in 0..100_000 {
            let e = expect(
                Workload::ScanHostile,
                &scan_input(Workload::ScanHostile, 11, idx),
            );
            *counts.entry(e.class).or_insert(0u64) += 1;
        }
        let share = |c: &str| counts[c] as f64 / 100_000.0;
        assert!((share("healthy") - 0.80).abs() < 0.01);
        assert!((share("blackhole") - 0.08).abs() < 0.01);
        for c in ["truncated", "refused", "servfail"] {
            assert!((share(c) - 0.04).abs() < 0.01, "{c}");
        }
    }

    #[test]
    fn cold_slds_are_visited_three_times_spread_apart() {
        let mut seen: std::collections::HashMap<String, Vec<u64>> = Default::default();
        let cold_per_block = COLD_BLOCK * COLD_VISITS;
        // Enough inputs to cover two full cold blocks.
        let n = cold_per_block * 2 * 10 / 7 + 10;
        for idx in 0..n {
            let (sld, _) = iterative_sld(5, idx);
            if sld.starts_with('c') {
                seen.entry(sld).or_default().push(idx);
            }
        }
        let complete: Vec<&Vec<u64>> = seen.values().filter(|v| v.len() == 3).collect();
        assert!(complete.len() as u64 >= COLD_BLOCK, "{}", complete.len());
        assert!(seen.values().all(|v| v.len() <= 3));
        let adjacent = complete
            .iter()
            .filter(|v| v.windows(2).any(|w| w[1] - w[0] < 10))
            .count();
        assert!(adjacent * 100 < complete.len(), "visits must be spread");
    }

    #[test]
    fn serve_mix_has_fresh_names_and_all_client_kinds() {
        let cdf = zipf_cdf();
        let queries: Vec<ServeQuery> = (0..50_000).map(|i| serve_query(4, i, &cdf)).collect();
        let fresh = queries.iter().filter(|q| q.fresh).count() as f64 / 50_000.0;
        assert!((fresh - 0.02).abs() < 0.005, "{fresh}");
        for kind in [ClientKind::Cookie, ClientKind::Edns, ClientKind::Plain] {
            assert!(queries.iter().any(|q| q.kind == kind));
        }
        let distinct: HashSet<&str> = queries.iter().map(|q| q.name.as_str()).collect();
        assert!(distinct.len() > 10_000);
    }
}
