//! Process resource readings and the host facts every report carries.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process (every thread, live or
/// joined), to the nanosecond.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Wall and CPU seconds of one timed segment of a job.
#[derive(Clone, Copy)]
pub struct Lap {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Times a job as consecutive segments (figures, specs or slices), so that
/// each segment can take its own median over repetitions.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    laps: Vec<Lap>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: Instant::now(), cpu: cpu_seconds(), laps: Vec::new() }
    }

    /// Ends the current segment and starts the next.
    pub fn lap(&mut self) {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        self.laps.push(Lap {
            wall_s: wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: cpu - self.cpu,
        });
        (self.wall, self.cpu) = (wall, cpu);
    }

    pub fn laps(self) -> Vec<Lap> {
        self.laps
    }
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    // Never report the commit of a repository that merely contains the
    // checkout.
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every Rust source and manifest under `crates/`, in path
/// order: identifies the code under test when the checkout is not a git
/// repository.
fn source_fnv() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut fp = crate::checks::Fingerprint::default();
    for f in files {
        fp.bytes(f.to_string_lossy().as_bytes());
        fp.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    fp.value()
}

/// `(key, value)` host facts: CPU count and model, compiler, commit.
pub fn facts() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", model),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
        ("source_fnv", format!("{:#018x}", source_fnv())),
    ]
}
