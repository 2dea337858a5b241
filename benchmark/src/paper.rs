//! `paper_figures`: the `all` target (fig5–fig8 and ext) at 100 flows,
//! through the library calls the CLI's figure command makes.

use std::time::Instant;

use imobif_experiments::chart::{render_chart, Mark, Series};
use imobif_experiments::figures::fig5::Fig5Result;
use imobif_experiments::figures::fig6::{Fig6Panel, Fig6Result, Fig6Variant, FlowPoint};
use imobif_experiments::figures::fig7::Fig7Result;
use imobif_experiments::figures::fig8::Fig8Result;
use imobif_experiments::figures::{ext, fig5, fig6, fig7, fig8};
use imobif_experiments::metrics::{cdf, fraction_below, Summary};
use imobif_experiments::runner::{run_batch, run_batches, BatchSpec, CaseResult};
use imobif_experiments::scenario::{builtin_source, CompiledScenario, ScenarioSpec};

use crate::checks::{self, Fingerprint, Tally};
use crate::host::Stopwatch;
use crate::layers::Layers;
use crate::traced::{run_batches_traced, Memo};
use crate::Job;

pub const FLOWS: u64 = 100;

fn fig5_render(r: &Fig5Result) -> Vec<String> {
    vec![
        r.to_markdown(),
        r.to_csv(),
        imobif_experiments::render::placements_svg(&[&r.original, &r.min_energy, &r.max_lifetime]),
    ]
}

fn fig6_render(r: &Fig6Result) -> Vec<String> {
    let mut out = vec![r.to_markdown(), r.to_csv()];
    for panel in &r.panels {
        let cu = panel.points.iter().map(|p| (p.index as f64, p.cost_unaware_ratio)).collect();
        let inf = panel.points.iter().map(|p| (p.index as f64, p.informed_ratio)).collect();
        out.push(render_chart(
            &format!(
                "{} — k={}, α={}, mean {:.0} KB",
                panel.variant.label,
                panel.variant.k,
                panel.variant.alpha,
                panel.variant.mean_flow_bits / 8e3
            ),
            "flow index",
            "energy consumption ratio",
            Mark::Scatter,
            &[Series::new("cost-unaware", cu), Series::new("imobif", inf)],
            Some(1.0),
        ));
    }
    out
}

fn fig7_render(r: &Fig7Result) -> Vec<String> {
    vec![r.to_markdown(), r.to_csv()]
}

fn fig8_render(r: &Fig8Result) -> Vec<String> {
    let svg = render_chart(
        "fig8 — system lifetime ratio CDF",
        "system lifetime ratio",
        "cumulative fraction of flows",
        Mark::StepLine,
        &[
            Series::new("cost-unaware", r.cost_unaware_cdf.clone()),
            Series::new("imobif", r.informed_cdf.clone()),
        ],
        None,
    );
    vec![r.to_markdown(), r.to_csv(), svg]
}

/// `fig6::panel_from_cases`, rebuilt from public types for the traced run.
fn fig6_panel(variant: Fig6Variant, cases: &[CaseResult]) -> Fig6Panel {
    let points: Vec<FlowPoint> = cases
        .iter()
        .map(|c| FlowPoint {
            index: c.draw_index,
            flow_bits: c.flow_bits,
            cost_unaware_ratio: c.cost_unaware_energy_ratio(),
            informed_ratio: c.informed_energy_ratio(),
            mobility_energy: c.cost_unaware.mobility_energy,
            transmission_energy: c.no_mobility.total_energy,
        })
        .collect();
    let cu: Vec<f64> = points.iter().map(|p| p.cost_unaware_ratio).collect();
    let inf: Vec<f64> = points.iter().map(|p| p.informed_ratio).collect();
    let n = points.len() as f64;
    Fig6Panel {
        cost_unaware: Summary::of(&cu).expect("non-empty batch"),
        informed: Summary::of(&inf).expect("non-empty batch"),
        informed_at_most_baseline: fraction_below(&inf, 1.02),
        avg_mobility_energy: points.iter().map(|p| p.mobility_energy).sum::<f64>() / n,
        avg_transmission_energy: points.iter().map(|p| p.transmission_energy).sum::<f64>() / n,
        mobility_exceeds_transmission: points
            .iter()
            .filter(|p| p.mobility_energy > p.transmission_energy)
            .count() as f64
            / n,
        variant,
        points,
    }
}

/// `fig7::from_config` after its batch.
fn fig7_result(cases: &[CaseResult]) -> Fig7Result {
    let notifications: Vec<u64> = cases.iter().map(|c| c.informed.notifications).collect();
    let as_f: Vec<f64> = notifications.iter().map(|&n| n as f64).collect();
    let mut histogram = vec![0u64; 9];
    for &n in &notifications {
        histogram[(n as usize).min(8)] += 1;
    }
    Fig7Result { summary: Summary::of(&as_f).expect("non-empty batch"), notifications, histogram }
}

/// `fig8::from_config` after its batch.
fn fig8_result(cases: &[CaseResult]) -> Fig8Result {
    let cu: Vec<f64> = cases.iter().map(CaseResult::cost_unaware_lifetime_ratio).collect();
    let inf: Vec<f64> = cases.iter().map(CaseResult::informed_lifetime_ratio).collect();
    Fig8Result {
        cost_unaware_cdf: cdf(&cu),
        informed_cdf: cdf(&inf),
        cost_unaware: Summary::of(&cu).expect("non-empty batch"),
        informed: Summary::of(&inf).expect("non-empty batch"),
        informed_at_least_baseline: 1.0 - fraction_below(&inf, 1.0),
        cost_unaware_ratios: cu,
        informed_ratios: inf,
    }
}

fn batch_specs(c: &CompiledScenario) -> Vec<BatchSpec> {
    c.runs.iter().map(|r| (r.config, c.strategy)).collect()
}

/// The eight extension studies of the CLI's `ext` target, each with its
/// markdown rendering. Their bespoke drivers cannot be re-driven through
/// public calls, so the traced run counts them as opaque.
fn ext_studies(seed: u64, timer: &mut dyn FnMut(&'static str, f64)) -> Vec<String> {
    let n = FLOWS.div_ceil(4).max(4);
    let mut out = Vec::new();
    macro_rules! study {
        ($call:expr) => {{
            let t = Instant::now();
            let r = $call;
            timer("trace.opaque_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            out.push(r.to_markdown());
            timer("render.s", t.elapsed().as_secs_f64());
        }};
    }
    study!(ext::run_estimate_sensitivity(n, seed));
    study!(ext::run_oracle_comparison(n, seed));
    study!(ext::run_initial_status(n, seed));
    study!(ext::run_step_sweep(n, seed));
    study!(ext::run_relay_selection(n, seed));
    study!(ext::run_horizon_ablation(n, seed));
    study!(ext::run_hybrid_sweep(n, seed));
    study!(ext::run_multiflow(8, seed));
    out
}

/// One cold job. With `layers`, the batch figures run through the
/// traced re-drive and every layer boundary is timed.
pub fn job(seed: u64, threads: usize, mut layers: Option<&mut Layers>) -> Job {
    let t_setup = Instant::now();
    let mut compiled = Vec::new();
    for name in ["fig5", "fig6", "fig7", "fig8"] {
        let t = Instant::now();
        let spec = ScenarioSpec::parse(builtin_source(name).expect("builtin"))
            .expect("shipped spec parses");
        let parse_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let flows = (name != "fig5").then_some(FLOWS);
        compiled.push(spec.compile_with(Some(seed), flows).expect("shipped spec compiles"));
        if let Some(l) = layers.as_deref_mut() {
            l.add("scenario.parse_s", parse_s);
            l.add("scenario.compile_s", t.elapsed().as_secs_f64());
            l.add("scenario.specs", 1.0);
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    let [c5, c6, c7, c8] = &compiled[..] else { unreachable!("four specs") };

    let mut sw = Stopwatch::start();
    let mut artifacts: Vec<String> = Vec::new();
    let cases: Vec<CaseResult>;
    if let Some(l) = layers {
        let memo = Memo::default();
        let t = Instant::now();
        let r5 = fig5::from_config(&c5.runs[0].config);
        l.add("trace.opaque_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        artifacts.extend(fig5_render(&r5));
        l.add("render.s", t.elapsed().as_secs_f64());

        let b6 = run_batches_traced(&batch_specs(c6), FLOWS, threads, &memo, l);
        let b7 = run_batches_traced(&batch_specs(c7), FLOWS, threads, &memo, l);
        let b8 = run_batches_traced(&batch_specs(c8), FLOWS, threads, &memo, l);
        let t = Instant::now();
        let r6 = Fig6Result {
            panels: c6
                .runs
                .iter()
                .zip(&b6)
                .map(|(r, cases)| {
                    let variant = Fig6Variant {
                        label: r.label.clone(),
                        k: r.config.k,
                        alpha: r.config.alpha,
                        mean_flow_bits: r.config.mean_flow_bits,
                    };
                    fig6_panel(variant, cases)
                })
                .collect(),
        };
        artifacts.extend(fig6_render(&r6));
        artifacts.extend(fig7_render(&fig7_result(&b7[0])));
        artifacts.extend(fig8_render(&fig8_result(&b8[0])));
        l.add("render.s", t.elapsed().as_secs_f64());
        artifacts.extend(ext_studies(seed, &mut |n, s| l.add(n, s)));
        cases = b6.into_iter().chain(b7).chain(b8).flatten().collect();
        l.add("render.bytes", artifacts.iter().map(String::len).sum::<usize>() as f64);
        // The traced job is timed whole.
        sw.lap();
    } else {
        // One segment per figure and per study.
        artifacts.extend(fig5_render(&fig5::from_config(&c5.runs[0].config)));
        sw.lap();
        artifacts.extend(fig6_render(&fig6::from_compiled_runs(&c6.runs, c6.strategy, FLOWS)));
        sw.lap();
        artifacts.extend(fig7_render(&fig7::from_config(&c7.runs[0].config, c7.strategy, FLOWS)));
        sw.lap();
        artifacts.extend(fig8_render(&fig8::from_config(&c8.runs[0].config, c8.strategy, FLOWS)));
        sw.lap();
        // A study ends with its rendering.
        artifacts.extend(ext_studies(seed, &mut |name, _| {
            if name == "render.s" {
                sw.lap();
            }
        }));
        cases = Vec::new();
    }
    let peak_heap_mib = crate::heap::peak_mib();

    // Untimed: the untraced figures keep their cases in the runner's
    // memo, so asking again replays them without simulating.
    let cases = if cases.is_empty() {
        run_batches(&batch_specs(c6), FLOWS)
            .into_iter()
            .flatten()
            .chain(run_batch(&c7.runs[0].config, FLOWS, c7.strategy))
            .chain(run_batch(&c8.runs[0].config, FLOWS, c8.strategy))
            .collect()
    } else {
        cases
    };
    let mut tally = Tally::default();
    let mut fp = Fingerprint::default();
    for c in &cases {
        checks::case(&mut tally, &mut fp, c);
    }
    // Figure and study outputs (SVGs included) are one operation each.
    for a in &artifacts {
        tally.op(if a.is_empty() { Err("empty artifact".into()) } else { Ok(()) });
        fp.bytes(a.as_bytes());
    }
    Job { setup_s, laps: sw.laps(), peak_heap_mib, tally, fingerprint: fp.value() }
}
