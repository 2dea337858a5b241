//! Same-host benchmark of the iMobif reproduction.
//!
//! ```text
//! imobif-benchmark --workload paper_figures|sharded_arena|spec_families|all
//!                  [--seed N] [--seconds S] [--trace 0|1] [--threads T]
//! ```
//!
//! Each invocation runs repetitions of one workload for about `--seconds`
//! (at least two), checks every operation's output, and prints one JSON
//! object as the last line of standard output. A repetition runs the
//! workload's job once per sub-seed derived from `--seed`; every job starts
//! cold, with memos cleared and the worker count fixed. With `--trace 0`
//! the JSON holds the end-to-end metrics (medians over repetitions); with
//! `--trace 1` repetitions alternate untraced and traced, and it holds the
//! per-layer split of the traced ones. A human-readable report with the
//! host facts goes to standard error. See `README.md` beside this crate.

mod arena;
mod checks;
mod families;
mod heap;
mod host;
mod layers;
mod paper;
mod traced;

use std::process::{Command, Stdio};
use std::time::Instant;

use imobif_experiments::runner::{clear_memos, set_thread_count};
use imobif_obs::Json;

use checks::Tally;
use host::Lap;
use layers::{median, per_layer_metrics, Layers};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// One job's measurements and checked outputs.
pub struct Job {
    pub setup_s: f64,
    /// The run after set-up, in segments; the same segments on every
    /// repetition of a sub-seed.
    pub laps: Vec<Lap>,
    /// Live-heap high-water mark over set-up and run.
    pub peak_heap_mib: f64,
    pub tally: Tally,
    pub fingerprint: u64,
}

type JobFn = fn(u64, usize, Option<&mut Layers>) -> Job;

/// A workload: its job, and how many sub-seeds one repetition runs it on.
/// Flow lengths are exponential, so one seed's batch of 100 flows varies
/// its total work by about 10%; running several seeds per repetition
/// averages that out of the figures (for `paper_figures`, one seed's job
/// time ranged 11% over five seeds with two sub-seeds).
struct Workload {
    name: &'static str,
    job: JobFn,
    sub_seeds: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "paper_figures", job: paper::job, sub_seeds: 4 },
    Workload { name: "sharded_arena", job: arena::job, sub_seeds: 1 },
    Workload { name: "spec_families", job: families::job, sub_seeds: 4 },
];

/// Worker threads of the batch runner and of `ShardedWorld`, set
/// explicitly because the runner's default follows the host's
/// `available_parallelism`. One by default: with two, wall time also
/// depends on whether the second vCPU of a shared host is free at each
/// barrier, and the arena's run-to-run spread (quartile distance over
/// median, ten seeds) was 27% at two threads against 8% at one.
const DEFAULT_THREADS: usize = 1;

/// The `j`-th seed of a repetition: `seed` itself, then values spread
/// far apart so the sub-seed sets of nearby seeds do not overlap.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Untraced repetitions a run makes at least. `paper_figures` fits two
/// of its four-sub-seed repetitions in 40 s on a slow host.
const MIN_REPS: usize = 2;

/// One repetition: one job per sub-seed, in sub-seed order.
struct Rep {
    /// Every job's set-up time.
    setups: Vec<f64>,
    /// Every job's live-heap high-water mark.
    heaps: Vec<f64>,
    /// Every job's segments.
    laps: Vec<Vec<Lap>>,
    /// Summed set-up plus job wall time of every job.
    total_s: f64,
    tally: Tally,
    fingerprint: u64,
}

fn repetition(w: &Workload, args: &Args, mut layers: Option<&mut Layers>) -> Rep {
    let mut jobs = Vec::new();
    for j in 0..w.sub_seeds {
        clear_memos();
        set_thread_count(args.threads);
        heap::reset_peak();
        jobs.push((w.job)(sub_seed(args.seed, j), args.threads, layers.as_deref_mut()));
    }
    let mut tally = Tally::default();
    for job in &mut jobs {
        tally.absorb(std::mem::take(&mut job.tally));
    }
    Rep {
        setups: jobs.iter().map(|j| j.setup_s).collect(),
        heaps: jobs.iter().map(|j| j.peak_heap_mib).collect(),
        total_s: jobs.iter().map(|j| j.setup_s + sum(&j.laps, wall)).sum(),
        laps: jobs.iter_mut().map(|j| std::mem::take(&mut j.laps)).collect(),
        tally,
        fingerprint: fold(jobs.iter().map(|j| j.fingerprint)),
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn wall(l: &Lap) -> f64 {
    l.wall_s
}

fn cpu(l: &Lap) -> f64 {
    l.cpu_s
}

fn sum(laps: &[Lap], f: fn(&Lap) -> f64) -> f64 {
    laps.iter().map(f).sum()
}

/// A per-job time: for each sub-seed, the sum over its job's segments of
/// each segment's median over the repetitions; then the mean over the
/// sub-seeds. A burst of load on the host slows a few segments of one
/// repetition, and their medians drop it; the sub-seeds keep apart
/// because their jobs differ in work.
fn job_time(reps: &[Rep], f: fn(&Lap) -> f64) -> f64 {
    let Some(first) = reps.first() else { return f64::NAN };
    let per_seed: Vec<f64> = (0..first.laps.len())
        .map(|j| {
            (0..first.laps[j].len())
                .map(|i| {
                    median(&reps.iter().filter_map(|r| r.laps[j].get(i)).map(f).collect::<Vec<_>>())
                })
                .sum()
        })
        .collect();
    mean(&per_seed)
}

/// A repetition's fingerprint: its jobs' fingerprints, in sub-seed order.
fn fold(fingerprints: impl Iterator<Item = u64>) -> u64 {
    let mut fp = checks::Fingerprint::default();
    fingerprints.for_each(|f| fp.u64(f));
    fp.value()
}

const USAGE: &str =
    "usage: imobif-benchmark --workload paper_figures|sharded_arena|spec_families|all \
                     [--seed N] [--seconds S] [--trace 0|1] [--threads T]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2025,
        seconds: 10.0,
        trace: false,
        threads: DEFAULT_THREADS,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--threads" => {
                args.threads = match value()?.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err("--threads takes a positive count".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn json_metrics(metrics: &[(String, f64, impl AsRef<str>)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let unit = unit.as_ref();
            // JSON has no NaN; a non-finite metric already failed the run.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

fn run_workload(args: &Args, w: &Workload) {
    let facts = host::facts();
    eprintln!(
        "# {} seed {} ({} sub-seeds) threads {} trace {} seconds {}",
        args.workload,
        args.seed,
        w.sub_seeds,
        args.threads,
        u8::from(args.trace),
        args.seconds
    );
    for (k, v) in &facts {
        eprintln!("host {k}: {v}");
    }

    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut layers = Layers::default();
    loop {
        let trace_this = args.trace && (plain.len() + traced.len()) % 2 == 1;
        let r = repetition(w, args, trace_this.then_some(&mut layers));
        eprintln!(
            "rep {:2} {:8} setup {:.4} s  wall {:.4} s  cpu {:.2} s  heap {:.1} MiB  rss {:.1} MiB  ops {}  failed {}  fingerprint {:#018x}",
            plain.len() + traced.len(),
            if trace_this { "traced" } else { "untraced" },
            median(&r.setups),
            r.laps.iter().map(|l| sum(l, wall)).sum::<f64>() / r.laps.len() as f64,
            r.laps.iter().map(|l| sum(l, cpu)).sum::<f64>() / r.laps.len() as f64,
            median(&r.heaps),
            host::peak_rss_mib(),
            r.tally.attempted,
            r.tally.failed,
            r.fingerprint
        );
        if trace_this {
            traced.push(r)
        } else {
            plain.push(r)
        }
        let enough = if args.trace {
            !traced.is_empty() && traced.len() == plain.len()
        } else {
            plain.len() >= MIN_REPS
        };
        // Stop where the run's length comes nearest to `--seconds`: not
        // before the next repetition would end more than halfway past it.
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / (plain.len() + traced.len()) as f64;
        if enough && elapsed + 0.5 * per_rep >= args.seconds {
            break;
        }
    }

    // Every repetition, traced or not, must reproduce the first one's
    // simulated statistics exactly.
    let reference = plain[0].fingerprint;
    let mut tally = Tally::default();
    for r in plain.iter_mut().chain(traced.iter_mut()) {
        let fp = r.fingerprint;
        tally.absorb(std::mem::take(&mut r.tally));
        tally.op(if fp == reference {
            Ok(())
        } else {
            Err(format!("fingerprint {fp:#018x} differs from {reference:#018x}"))
        });
    }
    clear_memos();
    set_thread_count(args.threads);
    checks::paper_shape_and_pin(&mut tally);
    if w.name == "sharded_arena" {
        let fp = fold(std::iter::once(arena::unsliced_fingerprint(args.seed, args.threads)));
        tally.op(if fp == reference {
            Ok(())
        } else {
            Err("unsliced run differs from sliced".into())
        });
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let n = (traced.len() as u64 * w.sub_seeds) as f64;
        let total = traced.iter().map(|r| r.total_s).sum::<f64>() / n;
        let overhead = job_time(&traced, wall) / job_time(&plain, wall);
        let sharded = w.name == "sharded_arena";
        let m = per_layer_metrics(&layers, n, total, overhead, sharded);
        let unattributed =
            m.iter().find(|(k, ..)| *k == "trace.unattributed_s").map_or(0.0, |x| x.1);
        tally.op(if unattributed >= -0.01 * total {
            Ok(())
        } else {
            Err(format!("layers exceed traced wall time by {:.4} s", -unattributed))
        });
        m.into_iter().map(|(k, v, u)| (k.to_string(), v, u)).collect()
    } else {
        vec![
            ("wall_s".into(), job_time(&plain, wall), "s"),
            (
                "setup_s".into(),
                median(&plain.iter().flat_map(|r| r.setups.clone()).collect::<Vec<_>>()),
                "s",
            ),
            ("cpu_s".into(), job_time(&plain, cpu), "s"),
            (
                "peak_heap_mib".into(),
                median(&plain.iter().flat_map(|r| r.heaps.clone()).collect::<Vec<_>>()),
                "MiB",
            ),
        ]
    };

    for (k, v, _) in &metrics {
        if !v.is_finite() {
            tally.op(Err(format!("metric {k} is not a finite number")));
        }
    }
    eprintln!("\n{:<34} {:>16}  unit", "metric", "value");
    for (k, v, u) in &metrics {
        eprintln!("{k:<34} {v:>16.6}  {u}");
    }
    eprintln!("{:<34} {:>16}  count", "ops", tally.attempted);
    eprintln!("{:<34} {:>16}  count", "failed_ops", tally.failed);
    eprintln!("{:<34} {:>16}", "fingerprint", format!("{reference:#018x}"));
    eprintln!("{:<34} {:>16}  count", "repetitions", plain.len() + traced.len());
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    println!(
        "{}",
        result_line(tally.failed == 0, tally.attempted, tally.failed, &json_metrics(&metrics))
    );
}

/// Runs every workload in its own child process (so peak memory stays
/// per workload) and prints one combined result.
fn run_all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for Workload { name, .. } in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), name.to_string()]);
        let out = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = Json::parse(last).map_err(|e| format!("workload {name}: {e}"))?;
        if !out.status.success() {
            return Err(format!("workload {name} failed"));
        }
        println!("{name}: {last}");
        correct &= matches!(result.get("correct"), Some(Json::Bool(true)));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(entries)) = result.get("metrics") {
            for (metric, m) in entries {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                metrics.push((format!("{name}.{metric}"), value, unit.to_string()));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &json_metrics(&metrics)));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        if let Err(e) = run_all(&argv) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    run_workload(&args, w);
}
