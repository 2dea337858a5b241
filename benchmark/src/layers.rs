//! Per-layer accumulators of the traced run and the metrics derived from
//! them.

use std::collections::BTreeMap;

/// Named sums (and sample lists) collected across the traced repetitions.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let m = self.maxima.entry(name).or_insert(0.0);
        *m = m.max(v);
    }

    pub fn samples(&mut self, name: &'static str, v: &[f64]) {
        self.samples.entry(name).or_default().extend_from_slice(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn maximum(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    fn percentile_ms(&self, name: &str, p: f64) -> f64 {
        self.samples.get(name).map_or(0.0, |v| percentile(v, p))
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer times that partition a traced repetition's set-up plus job
/// wall time. `shard.run_s` contains the iMobif hooks of a sharded world,
/// so those are left out of the sum there.
const ADDITIVE: [&str; 11] = [
    "scenario.parse_s",
    "scenario.compile_s",
    "topology.draw_s",
    "runner.arena_reset_s",
    "runner.self_s",
    "runner.worker_idle_s",
    "kernel.step_s",
    "shard.build_s",
    "shard.run_s",
    "render.s",
    "trace.bookkeeping_s",
];

/// Seconds of `layers` attributed to a layer (see [`ADDITIVE`]). Time in
/// program calls the benchmark cannot split (`trace.opaque_s`) is not
/// attributed.
pub fn attributed_s(layers: &Layers, sharded: bool) -> f64 {
    let mut s: f64 = ADDITIVE.iter().map(|n| layers.get(n)).sum();
    if !sharded {
        s += layers.get("imobif.on_message_s") + layers.get("imobif.on_timer_s");
    }
    s
}

/// Every per-layer metric, as `(name, value, unit)`. Sums are per traced
/// job (`jobs` of them); times are wall-clock shares, so on a pool of P
/// workers a layer's thread time counts 1/P.
pub fn per_layer_metrics(
    layers: &Layers,
    jobs: f64,
    traced_total_s: f64,
    overhead_ratio: f64,
    sharded: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let per = |n: &str| layers.get(n) / jobs;
    let events = layers.get("kernel.events");
    let unattributed = traced_total_s - attributed_s(layers, sharded) / jobs;
    vec![
        ("scenario.parse_s", per("scenario.parse_s"), "s"),
        ("scenario.compile_s", per("scenario.compile_s"), "s"),
        ("scenario.specs", per("scenario.specs"), "count"),
        ("scenario.errors", per("scenario.errors"), "count"),
        ("topology.draw_s", per("topology.draw_s"), "s"),
        ("topology.draws", per("topology.draws"), "count"),
        (
            "topology.draw_memo_hit_ratio",
            ratio(
                layers.get("topology.draw_lookups") - layers.get("topology.draws"),
                layers.get("topology.draw_lookups"),
            ),
            "ratio",
        ),
        ("runner.cases_simulated", per("runner.cases_simulated"), "count"),
        (
            "runner.case_memo_hit_ratio",
            ratio(layers.get("runner.case_hits"), layers.get("runner.case_lookups")),
            "ratio",
        ),
        (
            "runner.baseline_memo_hit_ratio",
            ratio(layers.get("runner.baseline_hits"), layers.get("runner.baseline_lookups")),
            "ratio",
        ),
        ("runner.arena_reset_s", per("runner.arena_reset_s"), "s"),
        ("runner.self_s", per("runner.self_s"), "s"),
        ("runner.worker_busy_s", per("runner.worker_busy_s"), "s"),
        ("runner.worker_idle_s", per("runner.worker_idle_s"), "s"),
        ("runner.case_p50_ms", layers.percentile_ms("runner.case_ms", 50.0), "ms"),
        ("runner.case_p98_ms", layers.percentile_ms("runner.case_ms", 98.0), "ms"),
        ("kernel.events", per("kernel.events"), "count"),
        ("kernel.step_s", per("kernel.step_s"), "s"),
        ("kernel.ns_per_event", ratio(layers.get("kernel.thread_s") * 1e9, events), "ns"),
        ("kernel.beacons", per("kernel.beacons"), "count"),
        ("kernel.beacon_s", per("kernel.beacon_s"), "s"),
        ("kernel.deliveries", per("kernel.deliveries"), "count"),
        ("kernel.deliver_s", per("kernel.deliver_s"), "s"),
        ("kernel.timers", per("kernel.timers"), "count"),
        ("kernel.timer_s", per("kernel.timer_s"), "s"),
        ("kernel.kills", per("kernel.kills"), "count"),
        ("queue.pushes", per("queue.pushes"), "count"),
        ("queue.max_len", layers.maximum("queue.max_len"), "count"),
        ("imobif.on_message_s", per("imobif.on_message_s"), "s"),
        ("imobif.on_timer_s", per("imobif.on_timer_s"), "s"),
        ("imobif.calls", per("imobif.calls"), "count"),
        (
            "imobif.decision_cache_hit_ratio",
            ratio(layers.get("imobif.cache_hits"), layers.get("imobif.cache_lookups")),
            "ratio",
        ),
        ("imobif.notifications", per("imobif.notifications"), "count"),
        ("shard.build_s", per("shard.build_s"), "s"),
        ("shard.run_s", per("shard.run_s"), "s"),
        ("shard.slice_p50_ms", layers.percentile_ms("shard.slice_ms", 50.0), "ms"),
        ("shard.slice_p98_ms", layers.percentile_ms("shard.slice_ms", 98.0), "ms"),
        ("shard.epochs", per("shard.epochs"), "count"),
        (
            "shard.mean_active_shards",
            ratio(layers.get("shard.shard_epochs"), layers.get("shard.epochs")),
            "count",
        ),
        ("shard.sched_s", per("shard.sched_s"), "s"),
        ("shard.compute_s", per("shard.compute_s"), "s"),
        ("shard.barrier_wait_s", per("shard.barrier_wait_s"), "s"),
        ("shard.obs_apply_s", per("shard.obs_apply_s"), "s"),
        ("shard.xfer_merge_s", per("shard.xfer_merge_s"), "s"),
        ("shard.replica_sync_s", per("shard.replica_sync_s"), "s"),
        ("shard.observations", per("shard.observations"), "count"),
        ("shard.fast_forward_epochs", per("shard.fast_forward_epochs"), "count"),
        ("render.s", per("render.s"), "s"),
        ("render.bytes", per("render.bytes"), "bytes"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ("trace.bookkeeping_s", per("trace.bookkeeping_s"), "s"),
        ("trace.opaque_s", per("trace.opaque_s"), "s"),
        ("trace.unattributed_s", unattributed, "s"),
    ]
}
