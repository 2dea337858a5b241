//! End-to-end instance scenarios shared by the criterion benches and the
//! gate tests under `tests/`: the paper's Fig. 6 default flow under each
//! mobility mode, a HELLO-dense arena that stresses the beaconing path, and
//! the FNV-pinned constant-density sharded arena.
//!
//! Every scenario is parameterized by a [`Variant`] — which event-queue
//! backend the kernel runs on and whether the relay decision cache is
//! enabled — so the same workload can be timed before and after the hot-path
//! optimizations. The two variants produce bit-identical simulations (the
//! `perf_equivalence` integration tests assert this); only the wall clock
//! differs.

use std::sync::Arc;

use imobif::{install_flow, DecisionCacheConfig, FlowSpec, ImobifApp, ImobifConfig, MobilityMode};
use imobif_energy::Battery;
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::{build_strategy, StrategyChoice};
use imobif_experiments::topology::draw_scenario;
use imobif_geom::Point2;
use imobif_netsim::{
    FlowId, NodeId, QueueBackend, ShardedWorld, SimConfig, SimDuration, SimTime, World,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One before/after configuration of the hot-path knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Event-queue backend the kernel runs on.
    pub backend: QueueBackend,
    /// Whether relays memoize their per-flow mobility decisions.
    pub cache_enabled: bool,
}

impl Variant {
    /// The pre-optimization configuration: binary-heap future-event list,
    /// every packet re-evaluates the strategy from scratch.
    #[must_use]
    pub fn before() -> Self {
        Variant { backend: QueueBackend::BinaryHeap, cache_enabled: false }
    }

    /// The optimized configuration: calendar queue plus decision cache.
    #[must_use]
    pub fn after() -> Self {
        Variant { backend: QueueBackend::Calendar, cache_enabled: true }
    }

    /// Short identifier for reports ("before" / "after").
    #[must_use]
    pub fn label(self) -> &'static str {
        if self == Variant::before() {
            "before"
        } else if self == Variant::after() {
            "after"
        } else {
            "custom"
        }
    }
}

/// A fully installed Fig. 6 instance, ready to run.
pub struct Fig6Run {
    /// The simulated world (flow installed, world started).
    pub world: World<ImobifApp>,
    /// The installed flow id.
    pub flow: FlowId,
    /// Path node ids, source first.
    pub ids: Vec<NodeId>,
    /// Total flow length in bits.
    pub total_bits: u64,
    /// Simulated-time cap: pacing time plus slack for in-flight packets.
    pub cap: SimTime,
}

impl Fig6Run {
    /// The destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        *self.ids.last().expect("paths have >= 3 nodes")
    }

    /// Payload bits delivered so far.
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        let dst = self.dst();
        self.world.app(dst).dest(self.flow).map_or(0, |d| d.received_bits)
    }

    /// Runs until the flow completes (or the time cap trips).
    pub fn run_to_completion(&mut self) {
        let (cap, total, flow, dst) = (self.cap, self.total_bits, self.flow, self.dst());
        self.world.run_while(|w| {
            w.time() < cap && w.app(dst).dest(flow).is_none_or(|d| d.received_bits < total)
        });
    }

    /// Runs until simulated time `t` (bounded by the cap).
    pub fn run_until_time(&mut self, t: SimTime) {
        let deadline = t.min(self.cap);
        self.world.run_while(|w| w.time() < deadline);
    }
}

/// Builds the paper's Fig. 6 default scenario (`draw_index`-th flow of
/// [`ScenarioConfig::paper_default`]) under `mode`, with the hot-path knobs
/// set by `variant`.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_fig6(mode: MobilityMode, variant: Variant, draw_index: u64) -> Fig6Run {
    let cfg = ScenarioConfig::paper_default();
    let draw = draw_scenario(&cfg, draw_index);
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);

    let sim_cfg = SimConfig { queue_backend: variant.backend, ..cfg.sim_config() };
    let mut world: World<ImobifApp> = World::new(
        sim_cfg,
        Box::new(cfg.tx_model().expect("validated config")),
        Box::new(cfg.mobility_model().expect("validated config")),
    )
    .expect("validated sim config");
    let app_cfg = ImobifConfig {
        mode,
        max_step: cfg.max_step,
        cache: DecisionCacheConfig { enabled: variant.cache_enabled, ..Default::default() },
        ..Default::default()
    };
    let ids: Vec<NodeId> = draw
        .flow
        .path
        .iter()
        .map(|&orig| {
            world.add_node(
                draw.positions[orig.index()],
                Battery::new(draw.energies[orig.index()]).expect("sampled energies are valid"),
                ImobifApp::new(app_cfg, Arc::clone(&strategy)),
            )
        })
        .collect();
    world.start();

    let flow = FlowId::new(0);
    let spec = FlowSpec {
        flow,
        path: ids.clone(),
        total_bits: draw.flow.flow_bits,
        packet_bits: cfg.packet_bits,
        interval: cfg.packet_interval(),
        initial_mobility_enabled: cfg.initial_mobility_enabled,
        estimate_factor: cfg.estimate_factor,
        start_delay: SimDuration::from_millis(500),
        strategy: strategy.kind(),
    };
    install_flow(&mut world, &spec).expect("drawn paths are valid");
    let cap = SimTime::ZERO
        + SimDuration::from_secs_f64(
            0.5 + spec.packet_count() as f64 * cfg.packet_interval_secs + 60.0,
        );
    Fig6Run { world, flow, ids, total_bits: draw.flow.flow_bits, cap }
}

/// A large multi-flow arena on a [`ShardedWorld`]: every node deployed
/// (unlike the pinned-path experiment worlds), several concurrent flows
/// paced at once, so shard count and thread count can sweep while the trace
/// fingerprint stays fixed.
pub struct ShardedArenaRun {
    /// The sharded world (flows installed, world started).
    pub world: ShardedWorld<ImobifApp>,
    /// `(flow, destination)` pairs for delivery accounting.
    pub flows: Vec<(FlowId, NodeId)>,
    /// Payload bits per packet (for packet counting).
    pub packet_bits: u64,
}

impl ShardedArenaRun {
    /// Runs until simulated time `t`.
    pub fn run_until_time(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Payload packets delivered across all flows so far.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.flows
            .iter()
            .map(|&(flow, dst)| {
                self.world.app(dst).dest(flow).map_or(0, |d| d.received_bits) / self.packet_bits
            })
            .sum()
    }
}

/// Builds a `node_count`-node arena with `n_flows` concurrent greedy-routed
/// flows on a [`ShardedWorld`] split into `shards` spatial regions. The
/// deployment area scales as `150 · sqrt(node_count / 100)` so node density
/// — and with it the paper's ~12 average neighbors — stays constant as the
/// arena grows. Positions, paths and flow specs are drawn from the same
/// seeded stream, so two sharded arenas with equal `(node_count, n_flows,
/// seed)` differ only in shard layout — and the epoch-barrier engine
/// guarantees their traces are bit-identical regardless.
///
/// Delegates to [`imobif_experiments::spans_tools::build_sharded_workload`]
/// so the `imobif spans` CLI, the `benchmark/` harness and these tests run
/// the exact same FNV-pinned workload.
///
/// When `trace` is set the world records its merged cross-shard trace (used
/// by the determinism pins; costs memory at 100k nodes, so the 100k arena
/// leaves it off).
///
/// # Panics
///
/// Panics if the scaled config is invalid or fewer than `n_flows` routable
/// source/destination pairs exist — a bug in the benchmark setup, not a
/// runtime condition.
#[must_use]
pub fn build_sharded_arena(
    node_count: usize,
    n_flows: usize,
    shards: usize,
    seed: u64,
    trace: bool,
) -> ShardedArenaRun {
    let run = imobif_experiments::spans_tools::build_sharded_workload(
        node_count, n_flows, shards, seed, trace,
    );
    ShardedArenaRun { world: run.world, flows: run.flows, packet_bits: run.packet_bits }
}

/// Builds a HELLO-dense arena: the full 100-node deployment with beaconing
/// on and no data flows, so the run isolates the beacon → grid-query →
/// neighbor-table path that fires `node_count` times per simulated second.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_hello_dense(variant: Variant) -> World<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let sim_cfg = SimConfig { queue_backend: variant.backend, ..cfg.sim_config() };
    let mut world: World<ImobifApp> = World::new(
        sim_cfg,
        Box::new(cfg.tx_model().expect("validated config")),
        Box::new(cfg.mobility_model().expect("validated config")),
    )
    .expect("validated sim config");
    let app_cfg = ImobifConfig {
        cache: DecisionCacheConfig { enabled: variant.cache_enabled, ..Default::default() },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.node_count {
        let p = Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side));
        world.add_node(
            p,
            Battery::new(1e5).expect("valid"),
            ImobifApp::new(app_cfg, strategy.clone()),
        );
    }
    world.start();
    world
}

/// The HELLO-dense deployment of [`build_hello_dense`] on a
/// [`ShardedWorld`]: stationary nodes, beacons only. With no flows and no
/// mobility the application state saturates after the first beacon rounds,
/// so a warmed run isolates the epoch pipeline itself — scheduler, outbox
/// recycling, observation grouping, and barrier apply — for the
/// zero-allocation gate.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_sharded_hello_dense(shards: usize) -> ShardedWorld<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let sim_cfg = SimConfig { queue_backend: QueueBackend::Calendar, ..cfg.sim_config() };
    let bounds = (Point2::new(0.0, 0.0), Point2::new(cfg.area_side, cfg.area_side));
    let mut world: ShardedWorld<ImobifApp> = ShardedWorld::new(
        sim_cfg,
        std::sync::Arc::new(cfg.tx_model().expect("validated config")),
        std::sync::Arc::new(cfg.mobility_model().expect("validated config")),
        bounds,
        shards,
    )
    .expect("validated sim config");
    let app_cfg = ImobifConfig {
        cache: DecisionCacheConfig { enabled: true, ..Default::default() },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.node_count {
        let p = Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side));
        world.add_node(
            p,
            Battery::new(1e5).expect("valid"),
            ImobifApp::new(app_cfg, strategy.clone()),
        );
    }
    world.start();
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_label_and_differ() {
        assert_eq!(Variant::before().label(), "before");
        assert_eq!(Variant::after().label(), "after");
        assert_ne!(Variant::before(), Variant::after());
    }

    #[test]
    fn fig6_run_completes_identically_across_variants() {
        let mut a = build_fig6(MobilityMode::Informed, Variant::before(), 3);
        let mut b = build_fig6(MobilityMode::Informed, Variant::after(), 3);
        a.run_to_completion();
        b.run_to_completion();
        assert_eq!(a.delivered_bits(), b.delivered_bits());
        assert_eq!(a.world.events_processed(), b.world.events_processed());
        assert!(a.delivered_bits() > 0);
    }

    #[test]
    fn sharded_arena_matches_itself_across_shard_counts() {
        let mut one = build_sharded_arena(300, 4, 1, 7, true);
        let mut four = build_sharded_arena(300, 4, 4, 7, true);
        assert_eq!(one.flows.len(), 4);
        one.run_until_time(SimTime::from_micros(3_000_000));
        four.run_until_time(SimTime::from_micros(3_000_000));
        assert!(one.delivered_packets() > 0);
        assert_eq!(one.delivered_packets(), four.delivered_packets());
        assert_eq!(one.world.trace_fnv(), four.world.trace_fnv());
    }

    #[test]
    fn hello_dense_processes_beacons() {
        let mut w = build_hello_dense(Variant::after());
        w.run_until(SimTime::from_micros(10_000_000));
        // 100 nodes beacon every second: ≥ 100 nodes × 10 s beacons. The
        // kernel runs them as one event per round, so count beacons.
        assert!(w.kernel_stats().hello_beacons >= 1_000);
    }
}
