//! Run results: named metrics with units and sample counts, free-form
//! report lines, and the run record printed with every result.

use std::fmt::Write as _;
use std::path::Path;

/// Metrics and report lines of one run.
#[derive(Default)]
pub struct Report {
    /// (name, value, unit, samples), in report order.
    pub metrics: Vec<(String, f64, &'static str, usize)>,
    /// Extra human-readable lines.
    pub info: Vec<String>,
    /// The I/O backend the program's reactor resolved to.
    pub io_backend: &'static str,
    /// Why the run is not a valid measurement, if it is not.
    pub invalid: Vec<String>,
}

impl Report {
    /// Record one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Record one report line.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Flag the run when one harness thread kept a core busy: then the
    /// harness, not the program, may have set the pace.
    pub fn harness_saturation(&mut self, peak_core_share: f64) {
        if peak_core_share > 0.9 {
            self.invalid.push(format!(
                "a harness thread used {:.0}% of a core",
                peak_core_share * 100.0
            ));
        }
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations missing, wrong, or with an unexpected status.
    pub failed: u64,
    /// The metrics.
    pub report: Report,
}

/// The commit `HEAD` names in the checkout's `.git`, resolved by hand
/// through a loose ref or `packed-refs`; "unknown" outside a git
/// checkout. Uncommitted changes in the tree are not detected.
pub fn commit() -> String {
    commit_in(Path::new(".git"))
}

fn commit_in(git: &Path) -> String {
    let read = |file: &str| std::fs::read_to_string(git.join(file)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(name) => read(name)
            .or_else(|| {
                read("packed-refs")?.lines().find_map(|line| {
                    let (hash, r) = line.split_once(' ')?;
                    (r == name).then(|| hash.to_string())
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".into(),
        c => c.to_string(),
    }
}

/// The kernel release, from `uname(2)`.
fn kernel_release() -> String {
    #[repr(C)]
    struct UtsName {
        fields: [[u8; 65]; 6],
    }
    extern "C" {
        fn uname(buf: *mut UtsName) -> i32;
    }
    let mut uts = UtsName {
        fields: [[0; 65]; 6],
    };
    // SAFETY: `uts` matches Linux's `struct utsname` (six 65-byte
    // fields) and outlives the call.
    if unsafe { uname(&mut uts) } != 0 {
        return "unknown".into();
    }
    let release = &uts.fields[2];
    let len = release
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(release.len());
    String::from_utf8_lossy(&release[..len]).into_owned()
}

/// All CPU time and stolen CPU time of the machine so far, in clock
/// ticks, from the first line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// The run record: where and on what the numbers were taken.
pub fn run_record(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    io_backend: &str,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let kernel = kernel_release();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"cores\":{cores},\"kernel\":\"{}\",\"io_backend\":\"{io_backend}\",\"commit\":\"{}\"}}",
        u8::from(trace),
        kernel,
        commit()
    )
}

/// The last line of the output: the machine-readable result.
pub fn result_json(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit, _)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_resolves_loose_and_packed_refs() {
        let git = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-git"));
        let _ = std::fs::remove_dir_all(git);
        std::fs::create_dir_all(git.join("refs/heads")).expect("test dir");
        assert_eq!(commit_in(git), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("HEAD");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\naaaa refs/heads/other\nbbbb refs/heads/main\n",
        )
        .expect("packed-refs");
        assert_eq!(commit_in(git), "bbbb");
        std::fs::write(git.join("refs/heads/main"), "cccc\n").expect("loose ref");
        assert_eq!(commit_in(git), "cccc");
        std::fs::write(git.join("HEAD"), "dddd\n").expect("detached HEAD");
        assert_eq!(commit_in(git), "dddd");
        std::fs::remove_dir_all(git).expect("clean up");
    }
}
