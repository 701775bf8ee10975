//! The answering side: loopback DNS servers for each workload.
//!
//! Every server is a `zdns_netsim::WireServer` over a `Universe` written
//! here. Each `respond` finds its answer in O(1) from the query name
//! (`ExplicitUniverse` scans a server's zones linearly, which makes the
//! harness the bottleneck once thousands of SLD zones share an
//! address). Answers are derived from the name with [`addr_for`], the
//! same function the oracle uses.

use std::collections::HashSet;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zdns_core::AddrMap;
use zdns_netsim::WireServer;
use zdns_wire::{Name, Question, RData, Record};
use zdns_zones::{AuthResponse, ServerProfile, Universe};

use crate::gen::{input_index, DestClass, Workload, TRUNC_RRSET};
use crate::trace::{Boundary, Role, Tracer};
use crate::util::addr_for;

/// Simulated address of the root server.
pub const ROOT_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
/// Simulated address of the server hosting every TLD.
pub const TLD_IP: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
/// Simulated address the recursive resolver / upstream answers on.
pub const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
/// Name-server addresses of second-level domains are drawn from
/// 100.64.0.0/16; all of them reach the one SLD server.
const SLD_NS_NET: [u8; 2] = [100, 64];

/// Answering-side counters, read by the report.
#[derive(Default)]
pub struct AnswerStats {
    /// Queries answered (all servers).
    pub queries: AtomicU64,
    /// TLD referrals handed out.
    pub tld_referrals: AtomicU64,
    /// TLD referrals for an SLD whose server had already answered a
    /// name under it: delegations the resolver could have cached.
    pub redundant_referrals: AtomicU64,
}

fn lower_labels(name: &Name) -> Vec<String> {
    name.to_ascii_lower()
        .trim_end_matches('.')
        .split('.')
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

fn answer(records: Vec<Record>) -> AuthResponse {
    AuthResponse {
        answers: records,
        ..AuthResponse::empty()
    }
}

fn referral(zone: &str, ns: &str, glue: Ipv4Addr, ttl: u32) -> Option<AuthResponse> {
    let zone: Name = zone.parse().ok()?;
    let ns: Name = ns.parse().ok()?;
    Some(AuthResponse {
        authoritative: false,
        authorities: vec![Record::new(zone, ttl, RData::Ns(ns.clone()))],
        additionals: vec![Record::new(ns, ttl, RData::A(glue))],
        ..AuthResponse::empty()
    })
}

/// The `A` RRset any answerer gives for `name`: `count` records.
pub fn a_records(name: &Name, count: u32) -> Vec<Record> {
    let text = name.to_ascii_lower();
    (0..count)
        .map(|k| Record::new(name.clone(), 3600, RData::A(addr_for(&text, k))))
        .collect()
}

/// Name-server address of second-level domain `sld.tld`.
pub fn sld_ns_addr(sld_key: &str) -> Ipv4Addr {
    let h = crate::util::name_hash(sld_key);
    Ipv4Addr::new(SLD_NS_NET[0], SLD_NS_NET[1], (h >> 8) as u8 & 3, h as u8)
}

/// Every workload's answering logic in one `Universe`: the simulated
/// server address the `WireServer` impersonates selects the behaviour.
pub struct Answerer {
    /// Counters shared with the report.
    pub stats: Arc<AnswerStats>,
    /// SLDs (`sld.tld`) whose server has answered at least once.
    answered: Mutex<HashSet<String>>,
    tracer: Option<Arc<Tracer>>,
}

impl Answerer {
    /// A fresh answerer; with a tracer, every `respond` is timed.
    pub fn new(tracer: Option<Arc<Tracer>>) -> Answerer {
        Answerer {
            stats: Arc::new(AnswerStats::default()),
            answered: Mutex::new(HashSet::new()),
            tracer,
        }
    }

    fn is_answered(&self, key: &str) -> bool {
        self.answered
            .lock()
            .expect("answered set poisoned")
            .contains(key)
    }

    fn mark_answered(&self, key: &str) {
        let mut set = self.answered.lock().expect("answered set poisoned");
        if !set.contains(key) {
            set.insert(key.to_string());
        }
    }
}

impl Universe for Answerer {
    fn respond(&self, server: Ipv4Addr, question: &Question) -> Option<AuthResponse> {
        let Some(tracer) = &self.tracer else {
            return self.answer(server, question);
        };
        let start = tracer.start();
        let response = self.answer(server, question);
        let op = input_index(&question.name.to_ascii_lower()).unwrap_or(1);
        tracer.record(Boundary::Respond, Some(Role::Answer), op, start);
        response
    }

    fn server_profile(&self, _server: Ipv4Addr) -> ServerProfile {
        ServerProfile::default()
    }

    fn root_hints(&self) -> Vec<(Name, Ipv4Addr)> {
        vec![("a.root.test".parse().expect("static name"), ROOT_IP)]
    }
}

impl Answerer {
    fn answer(&self, server: Ipv4Addr, question: &Question) -> Option<AuthResponse> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let name = &question.name;
        if server == RESOLVER_IP {
            return Some(answer(a_records(name, 1)));
        }
        if server == ROOT_IP || server == TLD_IP {
            let labels = lower_labels(name);
            let tld = labels.last()?;
            if server == ROOT_IP {
                return referral(tld, &format!("ns1.nic.{tld}"), TLD_IP, 172_800);
            }
            let [.., sld, tld] = labels.as_slice() else {
                return Some(AuthResponse::refused());
            };
            let key = format!("{sld}.{tld}");
            self.stats.tld_referrals.fetch_add(1, Ordering::Relaxed);
            if self.is_answered(&key) {
                self.stats
                    .redundant_referrals
                    .fetch_add(1, Ordering::Relaxed);
            }
            return referral(&key, &format!("ns1.{key}"), sld_ns_addr(&key), 3_600);
        }
        if server.octets()[..2] == SLD_NS_NET {
            let labels = lower_labels(name);
            if let [.., sld, tld] = labels.as_slice() {
                self.mark_answered(&format!("{sld}.{tld}"));
            }
            return Some(answer(a_records(name, 1)));
        }
        match DestClass::of(server)? {
            DestClass::Healthy => Some(answer(a_records(name, 1))),
            DestClass::Truncated => Some(answer(a_records(name, TRUNC_RRSET))),
            DestClass::Refused => Some(AuthResponse::refused()),
            DestClass::ServFail => Some(AuthResponse::servfail()),
            DestClass::Blackhole => None,
        }
    }
}

/// The loopback servers one workload talks to, and how simulated
/// destination addresses reach them.
pub struct Fleet {
    /// The shared answering logic.
    pub answerer: Arc<Answerer>,
    /// Maps simulated addresses to loopback sockets.
    pub addr_map: Arc<AddrMap>,
    /// The address the serve workload's upstream listens on.
    pub resolver_addr: SocketAddr,
    _servers: Vec<WireServer>,
    /// Blackhole destination: bound, never read.
    _silent: Option<UdpSocket>,
}

impl Fleet {
    /// Start the servers `workload` needs.
    pub fn start(workload: Workload, tracer: Option<Arc<Tracer>>) -> std::io::Result<Fleet> {
        let answerer = Arc::new(Answerer::new(tracer));
        let universe = Arc::clone(&answerer) as Arc<dyn Universe>;
        let mut servers = Vec::new();
        let mut start = |ip: Ipv4Addr| -> std::io::Result<SocketAddr> {
            let server = WireServer::start(Arc::clone(&universe), ip)?;
            let addr = server.addr();
            servers.push(server);
            Ok(addr)
        };
        let mut silent = None;
        let mut resolver_addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let addr_map: Arc<AddrMap> = match workload {
            Workload::ScanExternal | Workload::ServeZipf => {
                let addr = start(RESOLVER_IP)?;
                resolver_addr = addr;
                Arc::new(move |_| addr)
            }
            Workload::ScanIterative => {
                let root = start(ROOT_IP)?;
                let tld = start(TLD_IP)?;
                let sld = start(Ipv4Addr::new(SLD_NS_NET[0], SLD_NS_NET[1], 0, 0))?;
                Arc::new(move |ip: Ipv4Addr| match ip {
                    ROOT_IP => root,
                    TLD_IP => tld,
                    _ => sld,
                })
            }
            Workload::ScanHostile => {
                let mut by_class = Vec::new();
                for class in DestClass::ALL {
                    let addr = if class == DestClass::Blackhole {
                        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
                        let addr = socket.local_addr()?;
                        silent = Some(socket);
                        addr
                    } else {
                        start(class.dest(0))?
                    };
                    by_class.push((class, addr));
                }
                Arc::new(move |ip: Ipv4Addr| {
                    let class = DestClass::of(ip).unwrap_or(DestClass::Blackhole);
                    by_class
                        .iter()
                        .find(|(c, _)| *c == class)
                        .map(|(_, a)| *a)
                        .expect("every class has a server")
                })
            }
        };
        Ok(Fleet {
            answerer,
            addr_map,
            resolver_addr,
            _servers: servers,
            _silent: silent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{expect, scan_input, Answer};
    use zdns_wire::{Rcode, RecordType};

    fn question(name: &str) -> Question {
        Question::new(name.parse().unwrap(), RecordType::A)
    }

    fn a_of(resp: &AuthResponse) -> Vec<Ipv4Addr> {
        resp.answers
            .iter()
            .filter_map(|r| match r.rdata {
                RData::A(ip) => Some(ip),
                _ => None,
            })
            .collect()
    }

    /// The oracle's expected answer is what the answering side serves.
    #[test]
    fn oracle_agrees_with_the_answering_side() {
        let u = Answerer::new(None);
        for idx in 0..500 {
            let input = scan_input(Workload::ScanExternal, 9, idx);
            let resp = u.respond(RESOLVER_IP, &question(&input)).unwrap();
            let exp = expect(Workload::ScanExternal, &input);
            assert_eq!(Answer::A(a_of(&resp)), exp.answer);

            let input = scan_input(Workload::ScanIterative, 9, idx);
            let labels: Vec<&str> = input.split('.').collect();
            let key = labels[labels.len() - 2..].join(".");
            let resp = u
                .respond(sld_ns_addr(&key), &question(&input))
                .expect("sld server answers");
            assert_eq!(
                Answer::A(a_of(&resp)),
                expect(Workload::ScanIterative, &input).answer
            );

            let input = scan_input(Workload::ScanHostile, 9, idx);
            let (name, dest) = input.split_once('@').unwrap();
            let dest: Ipv4Addr = dest.parse().unwrap();
            let exp = expect(Workload::ScanHostile, &input);
            match u.respond(dest, &question(name)) {
                None => assert_eq!(exp.status, "TIMEOUT"),
                Some(resp) => match resp.rcode {
                    Rcode::NoError => assert_eq!(Answer::A(a_of(&resp)), exp.answer),
                    Rcode::Refused => assert_eq!(exp.status, "REFUSED"),
                    Rcode::ServFail => assert_eq!(exp.status, "SERVFAIL"),
                    other => panic!("unexpected rcode {other:?}"),
                },
            }
        }
    }

    #[test]
    fn hierarchy_refers_down_and_counts_redundant_referrals() {
        let u = Answerer::new(None);
        let q = question("www.c1f.com");
        let root = u.respond(ROOT_IP, &q).unwrap();
        assert_eq!(root.additionals[0].rdata, RData::A(TLD_IP));
        let tld = u.respond(TLD_IP, &q).unwrap();
        let RData::A(ns) = tld.additionals[0].rdata else {
            panic!("glue")
        };
        assert_eq!(u.stats.redundant_referrals.load(Ordering::Relaxed), 0);
        u.respond(ns, &q).unwrap();
        u.respond(TLD_IP, &question("mail.c1f.com")).unwrap();
        assert_eq!(u.stats.redundant_referrals.load(Ordering::Relaxed), 1);
        assert_eq!(u.stats.tld_referrals.load(Ordering::Relaxed), 2);
    }
}
