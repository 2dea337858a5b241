//! `spec_families`: the four shipped family specs plus the benchmark's own
//! `large_deployment`, each parsed from text, validated, compiled and run
//! through `run_generic` on every repetition.

use std::time::Instant;

use imobif_experiments::runner::BatchSpec;
use imobif_experiments::scenario::{
    builtin_source, run_generic, GenericGroup, GenericResult, ScenarioSpec,
};

use crate::checks::{self, Fingerprint, Tally};
use crate::host::Stopwatch;
use crate::layers::Layers;
use crate::traced::{run_batches_traced, Memo};
use crate::Job;

const LARGE_DEPLOYMENT: &str = include_str!("../specs/large_deployment.toml");

fn sources() -> [(&'static str, &'static str); 5] {
    let shipped = |name| builtin_source(name).expect("shipped family spec");
    [
        ("clustered_urban", shipped("clustered_urban")),
        ("churn", shipped("churn")),
        ("hetero_batteries", shipped("hetero_batteries")),
        ("small_world", shipped("small_world")),
        ("large_deployment", LARGE_DEPLOYMENT),
    ]
}

/// One cold job; with `layers`, the batches run through the traced
/// re-drive.
pub fn job(seed: u64, threads: usize, mut layers: Option<&mut Layers>) -> Job {
    let mut tally = Tally::default();
    let t_setup = Instant::now();
    let mut compiled = Vec::new();
    for (name, text) in sources() {
        let t = Instant::now();
        let spec = ScenarioSpec::parse(text);
        let parse_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = spec
            .map_err(|e| e.to_string())
            .and_then(|s| s.compile_with(Some(seed), None).map_err(|e| e.to_string()));
        if let Some(l) = layers.as_deref_mut() {
            l.add("scenario.parse_s", parse_s);
            l.add("scenario.compile_s", t.elapsed().as_secs_f64());
            l.add("scenario.specs", 1.0);
            l.add("scenario.errors", f64::from(u8::from(result.is_err())));
        }
        match result {
            Ok(c) => {
                tally.op(Ok(()));
                compiled.push(c);
            }
            Err(e) => tally.op(Err(format!("{name}: {e}"))),
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut sw = Stopwatch::start();
    let traced = layers.is_some();
    let mut results = Vec::new();
    let mut artifacts = Vec::new();
    let memo = Memo::default();
    for c in &compiled {
        let r = match layers.as_deref_mut() {
            Some(l) => {
                let specs: Vec<BatchSpec> = c.runs.iter().map(|r| (r.config, c.strategy)).collect();
                let batches = run_batches_traced(&specs, c.flows, threads, &memo, l);
                let groups = c
                    .runs
                    .iter()
                    .zip(batches)
                    .map(|(run, cases)| GenericGroup {
                        label: run.label.clone(),
                        config: run.config,
                        cases,
                    })
                    .collect();
                GenericResult { name: c.name.clone(), groups }
            }
            None => run_generic(c),
        };
        let t = Instant::now();
        let (md, csv) = (r.to_markdown(), r.to_csv());
        if let Some(l) = layers.as_deref_mut() {
            l.add("render.s", t.elapsed().as_secs_f64());
            l.add("render.bytes", (md.len() + csv.len()) as f64);
        }
        artifacts.extend([md, csv]);
        results.push(r);
        // One segment per spec; the traced job is timed whole.
        if !traced {
            sw.lap();
        }
    }
    if traced {
        sw.lap();
    }
    let peak_heap_mib = crate::heap::peak_mib();

    let mut fp = Fingerprint::default();
    for r in &results {
        for g in &r.groups {
            for c in &g.cases {
                checks::case(&mut tally, &mut fp, c);
            }
        }
    }
    for a in &artifacts {
        fp.bytes(a.as_bytes());
    }
    Job { setup_s, laps: sw.laps(), peak_heap_mib, tally, fingerprint: fp.value() }
}
