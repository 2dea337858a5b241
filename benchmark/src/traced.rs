//! The traced re-drive: the experiment runner's batch engine rebuilt from
//! public calls, so every layer boundary it crosses can be timed from here.
//!
//! `run_batches_traced` mirrors `runner::run_batches` (flattened work
//! queue, one recycled world per worker, a case memo and a no-mobility
//! baseline memo with the runner's key semantics). Each instance is stepped
//! event by event with `World::step`; the event kind is read off the
//! `kernel_stats()` and ledger deltas, and the iMobif hooks run inside
//! [`TracedApp`], a delegating `Application` that times them. Outputs are
//! bit-identical to the untraced engine: the benchmark fingerprints both
//! and counts a mismatch as a failed operation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use imobif::{
    install_flow, FlowHost, FlowSpec, ImobifApp, ImobifConfig, ImobifMsg, MobilityMode,
    MobilityStrategy, StrategyRegistry,
};
use imobif_energy::Battery;
use imobif_experiments::config::{ChurnModel, ScenarioConfig};
use imobif_experiments::runner::{
    build_strategy, memo_stats, BatchSpec, CaseResult, InstanceResult, StrategyChoice,
};
use imobif_experiments::topology::{draw_scenario, TopologyDraw};
use imobif_netsim::{
    Application, FlowId, NodeCtx, NodeId, Outbox, ShardedWorld, SimDuration, SimTime, World,
};
use imobif_obs::{fnv1a64, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::Layers;

/// Time and call counts of the iMobif hooks, shared by the apps of one
/// worker (or of one sharded world).
#[derive(Default)]
pub struct AppAcc {
    msg_ns: AtomicU64,
    timer_ns: AtomicU64,
    msg_calls: AtomicU64,
    timer_calls: AtomicU64,
}

impl AppAcc {
    fn app_ns(&self) -> u64 {
        self.msg_ns.load(Ordering::Relaxed) + self.timer_ns.load(Ordering::Relaxed)
    }

    /// Adds this accumulator's totals to `layers`, dividing times by
    /// `share` (the worker count of the batch they ran in).
    pub fn publish(&self, layers: &mut Layers, share: f64) {
        layers.add("imobif.on_message_s", self.msg_ns.load(Ordering::Relaxed) as f64 / 1e9 / share);
        layers.add("imobif.on_timer_s", self.timer_ns.load(Ordering::Relaxed) as f64 / 1e9 / share);
        let calls =
            self.msg_calls.load(Ordering::Relaxed) + self.timer_calls.load(Ordering::Relaxed);
        layers.add("imobif.calls", calls as f64);
    }
}

/// `ImobifApp` behind a delegating wrapper that times each hook.
pub struct TracedApp {
    pub inner: ImobifApp,
    acc: Arc<AppAcc>,
}

impl Application for TracedApp {
    type Msg = ImobifMsg;

    fn on_start(&mut self, ctx: &NodeCtx<'_>, out: &mut Outbox<ImobifMsg>) {
        self.inner.on_start(ctx, out);
    }

    fn on_message(
        &mut self,
        ctx: &NodeCtx<'_>,
        from: NodeId,
        msg: ImobifMsg,
        out: &mut Outbox<ImobifMsg>,
    ) {
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg, out);
        self.acc.msg_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.acc.msg_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn on_timer(&mut self, ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<ImobifMsg>) {
        let t = Instant::now();
        self.inner.on_timer(ctx, tag, out);
        self.acc.timer_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.acc.timer_calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Lets `install_flow` reach the wrapped agents.
struct Host<'a, W>(&'a mut W);

impl FlowHost for Host<'_, World<TracedApp>> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn is_alive(&self, id: NodeId) -> bool {
        self.0.is_alive(id)
    }
    fn app_mut(&mut self, id: NodeId) -> &mut ImobifApp {
        &mut self.0.app_mut(id).inner
    }
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.0.schedule_timer(node, delay, tag);
    }
}

impl FlowHost for Host<'_, ShardedWorld<TracedApp>> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn is_alive(&self, id: NodeId) -> bool {
        self.0.is_alive(id)
    }
    fn app_mut(&mut self, id: NodeId) -> &mut ImobifApp {
        &mut self.0.app_mut(id).inner
    }
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.0.schedule_timer(node, delay, tag);
    }
}

/// Per-worker thread-time and counts (seconds are thread seconds).
#[derive(Default)]
struct WorkerStats {
    busy_s: f64,
    draw_s: f64,
    reset_s: f64,
    beacon_s: f64,
    deliver_s: f64,
    timer_s: f64,
    kill_s: f64,
    bookkeeping_s: f64,
    events: u64,
    beacons: u64,
    deliveries: u64,
    timers: u64,
    kills: u64,
    queue_pushes: u64,
    queue_max_len: f64,
    cache_hits: u64,
    cache_misses: u64,
    notifications: u64,
    cases_simulated: u64,
    case_lookups: u64,
    case_hits: u64,
    baseline_lookups: u64,
    baseline_hits: u64,
    case_ms: Vec<f64>,
}

/// The benchmark's mirror of the runner's case and baseline memos, keyed
/// by `(config hash, draw index)`. Lives for one repetition, like the
/// runner's memos between `clear_memos()` calls.
#[derive(Default)]
pub struct Memo {
    cases: Mutex<HashMap<(u64, u64), CaseResult>>,
    baselines: Mutex<HashMap<(u64, u64), InstanceResult>>,
}

/// The runner's `CaseKey` without the index: every config field (its
/// `Debug` form prints each float exactly) and the strategy.
fn case_key(cfg: &ScenarioConfig, choice: StrategyChoice) -> u64 {
    fnv1a64(format!("{cfg:?}|{choice:?}").as_bytes())
}

/// The runner's `BaselineKey` without the index: a no-mobility run ignores
/// the mobility knobs and the strategy, so they are blanked out.
fn baseline_key(cfg: &ScenarioConfig) -> u64 {
    let blank = ScenarioConfig {
        k: 0.0,
        max_step: 0.0,
        estimate_factor: 0.0,
        initial_mobility_enabled: false,
        ..*cfg
    };
    fnv1a64(format!("{blank:?}").as_bytes())
}

struct Arena {
    world: Option<World<TracedApp>>,
    spare: Vec<TracedApp>,
    acc: Arc<AppAcc>,
}

/// A batch spec resolved for the workers: config, built strategy and its
/// registry, and the two memo keys.
struct Prepared {
    cfg: ScenarioConfig,
    strategy: Arc<dyn MobilityStrategy>,
    registry: Arc<StrategyRegistry>,
    case_key: u64,
    baseline_key: u64,
}

/// Runs `specs × n_flows` cases on `threads` workers, adding every layer's
/// wall-clock share to `layers`. Returns results grouped like
/// `runner::run_batches`.
pub fn run_batches_traced(
    specs: &[BatchSpec],
    n_flows: u64,
    threads: usize,
    memo: &Memo,
    layers: &mut Layers,
) -> Vec<Vec<CaseResult>> {
    let t_batch = Instant::now();
    let draws_before = memo_stats();
    let prepared: Vec<Prepared> = specs
        .iter()
        .map(|&(cfg, choice)| {
            let strategy = build_strategy(&cfg, choice);
            let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
            Prepared {
                cfg,
                strategy,
                registry,
                case_key: case_key(&cfg, choice),
                baseline_key: baseline_key(&cfg),
            }
        })
        .collect();
    let prepare_s = t_batch.elapsed().as_secs_f64();
    let total = specs.len() as u64 * n_flows;
    let slots: Vec<OnceLock<CaseResult>> = (0..total).map(|_| OnceLock::new()).collect();
    let next = AtomicU64::new(0);
    let t_pool = Instant::now();
    let workers: Vec<(WorkerStats, Arc<AppAcc>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = WorkerStats::default();
                    let mut arena =
                        Arena { world: None, spare: Vec::new(), acc: Arc::new(AppAcc::default()) };
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item >= total {
                            break;
                        }
                        let t_case = Instant::now();
                        let (spec_idx, index) = ((item / n_flows) as usize, item % n_flows);
                        let p = &prepared[spec_idx];
                        let simulated_before = ws.cases_simulated;
                        let case = run_case(&mut ws, &mut arena, memo, p, index);
                        slots[item as usize].set(case).expect("each index is claimed once");
                        let dt = t_case.elapsed().as_secs_f64();
                        ws.busy_s += dt;
                        if ws.cases_simulated > simulated_before {
                            ws.case_ms.push(dt * 1e3);
                        }
                    }
                    (ws, arena.acc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
    });
    let pool_s = t_pool.elapsed().as_secs_f64();
    let draws_after = memo_stats();

    let share = threads as f64;
    let mut busy = 0.0;
    let mut inner = 0.0;
    let mut kernel_thread_s = 0.0;
    for (ws, acc) in &workers {
        let app_s = acc.app_ns() as f64 / 1e9;
        acc.publish(layers, share);
        let kernel = ws.beacon_s + ws.deliver_s + ws.timer_s + ws.kill_s;
        kernel_thread_s += kernel;
        busy += ws.busy_s;
        inner += ws.draw_s + ws.reset_s + kernel + app_s + ws.bookkeeping_s;
        layers.add("trace.bookkeeping_s", ws.bookkeeping_s / share);
        layers.add("topology.draw_s", ws.draw_s / share);
        layers.add("runner.arena_reset_s", ws.reset_s / share);
        layers.add("kernel.step_s", kernel / share);
        layers.add("kernel.beacon_s", ws.beacon_s / share);
        layers.add("kernel.deliver_s", ws.deliver_s / share);
        layers.add("kernel.timer_s", ws.timer_s / share);
        layers.add("kernel.events", ws.events as f64);
        layers.add("kernel.beacons", ws.beacons as f64);
        layers.add("kernel.deliveries", ws.deliveries as f64);
        layers.add("kernel.timers", ws.timers as f64);
        layers.add("kernel.kills", ws.kills as f64);
        layers.add("queue.pushes", ws.queue_pushes as f64);
        layers.max("queue.max_len", ws.queue_max_len);
        layers.add("imobif.cache_hits", ws.cache_hits as f64);
        layers.add("imobif.cache_lookups", (ws.cache_hits + ws.cache_misses) as f64);
        layers.add("imobif.notifications", ws.notifications as f64);
        layers.add("runner.cases_simulated", ws.cases_simulated as f64);
        layers.add("runner.case_lookups", ws.case_lookups as f64);
        layers.add("runner.case_hits", ws.case_hits as f64);
        layers.add("runner.baseline_lookups", ws.baseline_lookups as f64);
        layers.add("runner.baseline_hits", ws.baseline_hits as f64);
        layers.samples("runner.case_ms", &ws.case_ms);
    }
    // Every worker's timeline spans the pool: busy in the layers above,
    // busy in runner bookkeeping, or idle after the queue ran dry.
    let idle = (share * pool_s - busy).max(0.0);
    layers.add("kernel.thread_s", kernel_thread_s);
    layers.add("runner.worker_busy_s", busy / share);
    layers.add("runner.worker_idle_s", idle / share);
    layers.add("runner.self_s", prepare_s + (busy - inner) / share);
    layers.add("topology.draws", (draws_after.draw_misses - draws_before.draw_misses) as f64);
    layers.add(
        "topology.draw_lookups",
        ((draws_after.draw_hits + draws_after.draw_misses)
            - (draws_before.draw_hits + draws_before.draw_misses)) as f64,
    );

    let mut out = Vec::with_capacity(specs.len());
    let mut it = slots.into_iter();
    for _ in 0..specs.len() {
        out.push(
            it.by_ref()
                .take(n_flows as usize)
                .map(|slot| slot.into_inner().expect("every index was processed"))
                .collect(),
        );
    }
    out
}

fn run_case(
    ws: &mut WorkerStats,
    arena: &mut Arena,
    memo: &Memo,
    p: &Prepared,
    index: u64,
) -> CaseResult {
    let (cfg, strategy, registry) = (&p.cfg, &p.strategy, &p.registry);
    let key = (p.case_key, index);
    ws.case_lookups += 1;
    if let Some(hit) = memo.cases.lock().expect("case memo").get(&key).cloned() {
        ws.case_hits += 1;
        return hit;
    }
    ws.cases_simulated += 1;
    let t_draw = Instant::now();
    let draw = draw_scenario(cfg, index);
    ws.draw_s += t_draw.elapsed().as_secs_f64();
    let bkey = (p.baseline_key, index);
    ws.baseline_lookups += 1;
    let cached = memo.baselines.lock().expect("baseline memo").get(&bkey).cloned();
    let no_mobility = match cached {
        Some(hit) => {
            ws.baseline_hits += 1;
            hit
        }
        None => {
            let r =
                run_instance(ws, arena, cfg, &draw, MobilityMode::NoMobility, strategy, registry);
            memo.baselines.lock().expect("baseline memo").entry(bkey).or_insert_with(|| r.clone());
            r
        }
    };
    let cost_unaware =
        run_instance(ws, arena, cfg, &draw, MobilityMode::CostUnaware, strategy, registry);
    let informed = run_instance(ws, arena, cfg, &draw, MobilityMode::Informed, strategy, registry);
    let case = CaseResult {
        draw_index: index,
        flow_bits: draw.flow.flow_bits,
        path_len: draw.flow.path.len(),
        no_mobility,
        cost_unaware,
        informed,
    };
    memo.cases.lock().expect("case memo").entry(key).or_insert_with(|| case.clone());
    case
}

/// `runner::run_instance_in`, stepped one event at a time.
fn run_instance(
    ws: &mut WorkerStats,
    arena: &mut Arena,
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
    registry: &Arc<StrategyRegistry>,
) -> InstanceResult {
    let t_reset = Instant::now();
    let tx = cfg.tx_model().expect("validated config");
    let mv = cfg.mobility_model().expect("validated config");
    let mut world = match arena.world.take() {
        Some(mut w) => {
            w.reset_into(cfg.sim_config(), Box::new(tx), Box::new(mv), &mut arena.spare)
                .expect("validated sim config");
            w
        }
        None => {
            World::new(cfg.sim_config(), Box::new(tx), Box::new(mv)).expect("validated sim config")
        }
    };
    let app_cfg = ImobifConfig { mode, max_step: cfg.max_step, ..Default::default() };
    let ids: Vec<NodeId> = draw
        .flow
        .path
        .iter()
        .map(|&orig| {
            let app = match arena.spare.pop() {
                Some(mut a) => {
                    a.inner.reset(app_cfg, Arc::clone(registry));
                    a
                }
                None => TracedApp {
                    inner: ImobifApp::with_registry(app_cfg, Arc::clone(registry)),
                    acc: Arc::clone(&arena.acc),
                },
            };
            world.add_node(
                draw.positions[orig.index()],
                Battery::new(draw.energies[orig.index()]).expect("sampled energies are valid"),
                app,
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
    install_flow(&mut Host(&mut world), &spec).expect("drawn paths are valid");
    if let ChurnModel::RelayExponential { mean_secs } = cfg.churn {
        let mix = cfg.seed
            ^ (draw.flow.src.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (draw.flow.dst.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ draw.flow.flow_bits.wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut churn_rng = StdRng::seed_from_u64(mix);
        for &relay in &ids[1..ids.len() - 1] {
            let u: f64 = churn_rng.gen_range(0.0..1.0);
            let t = -mean_secs * (1.0 - u).ln();
            world.schedule_kill(relay, SimDuration::from_secs_f64(t));
        }
    }
    ws.reset_s += t_reset.elapsed().as_secs_f64();

    let total = draw.flow.flow_bits;
    let src = ids[0];
    let dst = *ids.last().expect("paths have >= 3 nodes");
    let cap = SimTime::ZERO
        + SimDuration::from_secs_f64(
            0.5 + spec.packet_count() as f64 * cfg.packet_interval_secs + 60.0,
        );
    let acc = Arc::clone(&arena.acc);
    // `World::run_while`, with each step timed and classified.
    while world.time() < cap
        && world.ledger().first_death().is_none()
        && world.app(dst).inner.dest(flow).is_none_or(|d| d.received_bits < total)
    {
        let before = *world.kernel_stats();
        let packets_before = world.ledger().packets_delivered + world.ledger().packets_dropped;
        let app_before = acc.app_ns();
        let t = Instant::now();
        if !world.step() {
            break;
        }
        let dt = t.elapsed().as_secs_f64() - (acc.app_ns() - app_before) as f64 / 1e9;
        let after = world.kernel_stats();
        ws.events += 1;
        if after.hello_beacons > before.hello_beacons {
            ws.beacons += 1;
            ws.beacon_s += dt;
        } else if after.timers_fired > before.timers_fired {
            ws.timers += 1;
            ws.timer_s += dt;
        } else if world.ledger().packets_delivered + world.ledger().packets_dropped > packets_before
        {
            ws.deliveries += 1;
            ws.deliver_s += dt;
        } else {
            // Runs stop at the first death, so the only other event a
            // runner world processes is a scheduled kill.
            ws.kills += 1;
            ws.kill_s += dt;
        }
    }

    let totals = world.ledger().totals();
    let dest = world.app(dst).inner.dest(flow);
    let delivered = dest.map_or(0, |d| d.received_bits);
    let notifications = dest.map_or(0, |d| d.notifications_sent);
    let status_changes = world.app(src).inner.source(flow).map_or(0, |s| s.status_changes);
    let death = world.ledger().first_death();
    let result = InstanceResult {
        mode,
        flow_bits: total,
        path_len: ids.len(),
        total_energy: totals.total(),
        data_energy: totals.data,
        mobility_energy: totals.mobility,
        notification_energy: totals.notification,
        delivered_bits: delivered,
        completed: delivered >= total,
        notifications,
        status_changes,
        lifetime_secs: death.map_or_else(|| world.time().as_secs_f64(), |(_, t)| t.as_secs_f64()),
        node_died: death.is_some(),
        final_positions: ids.iter().map(|&id| world.position(id)).collect(),
        final_energies: ids.iter().map(|&id| world.residual_energy(id)).collect(),
    };
    // Queue counters are only published through a registry.
    let t_book = Instant::now();
    let registry = Registry::enabled();
    world.publish_metrics(&registry);
    let snap = registry.snapshot();
    ws.queue_pushes += snap.counter("queue.pushes").unwrap_or(0);
    ws.queue_max_len = ws.queue_max_len.max(snap.float("queue.max_len").unwrap_or(0.0));
    ws.notifications += notifications;
    for &id in &ids {
        let c = world.app(id).inner.counters();
        ws.cache_hits += c.cache_hits;
        ws.cache_misses += c.cache_misses;
    }
    ws.bookkeeping_s += t_book.elapsed().as_secs_f64();
    arena.world = Some(world);
    result
}

/// `spans_tools::build_sharded_workload` with every agent wrapped in a
/// [`TracedApp`] sharing `acc`. Same seeded stream, same world.
pub fn build_sharded_traced(
    node_count: usize,
    n_flows: usize,
    shards: usize,
    seed: u64,
    acc: &Arc<AppAcc>,
) -> (ShardedWorld<TracedApp>, Vec<(FlowId, NodeId)>, u64) {
    use imobif::DecisionCacheConfig;
    use imobif_geom::Point2;
    use imobif_netsim::routing::{GreedyRouter, Router};
    use imobif_netsim::{QueueBackend, SimConfig, TopologyView};

    let cfg = ScenarioConfig {
        node_count,
        area_side: 150.0 * (node_count as f64 / 100.0).sqrt(),
        seed,
        ..ScenarioConfig::paper_default()
    };
    cfg.validate().expect("scaled config is valid");
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let sim_cfg = SimConfig { queue_backend: QueueBackend::Calendar, ..cfg.sim_config() };
    let bounds = (Point2::new(0.0, 0.0), Point2::new(cfg.area_side, cfg.area_side));
    let mut world: ShardedWorld<TracedApp> = ShardedWorld::new(
        sim_cfg,
        Arc::new(cfg.tx_model().expect("validated config")),
        Arc::new(cfg.mobility_model().expect("validated config")),
        bounds,
        shards,
    )
    .expect("validated sim config");
    let app_cfg = ImobifConfig {
        mode: MobilityMode::Informed,
        max_step: cfg.max_step,
        cache: DecisionCacheConfig { enabled: true, ..Default::default() },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..node_count)
        .map(|_| Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side)))
        .collect();
    let ids: Vec<NodeId> = positions
        .iter()
        .map(|&p| {
            world.add_node(
                p,
                Battery::new(1e5).expect("valid"),
                TracedApp {
                    inner: ImobifApp::new(app_cfg, strategy.clone()),
                    acc: Arc::clone(acc),
                },
            )
        })
        .collect();
    world.start();
    let topo = TopologyView::new(positions, vec![true; node_count], cfg.range);
    let mut flows = Vec::with_capacity(n_flows);
    let mut attempts = 0;
    while flows.len() < n_flows {
        attempts += 1;
        assert!(attempts < 200 * n_flows, "arena must admit {n_flows} routable flows");
        let src = ids[rng.gen_range(0..node_count)];
        let dst = ids[rng.gen_range(0..node_count)];
        if src == dst {
            continue;
        }
        let Ok(path) = GreedyRouter.route(&topo, src, dst) else {
            continue;
        };
        if path.len() < 3 {
            continue;
        }
        let flow = FlowId::new(flows.len() as u32);
        let spec = FlowSpec {
            flow,
            path,
            total_bits: 8_000_000,
            packet_bits: cfg.packet_bits,
            interval: cfg.packet_interval(),
            initial_mobility_enabled: cfg.initial_mobility_enabled,
            estimate_factor: cfg.estimate_factor,
            start_delay: SimDuration::from_millis(500),
            strategy: strategy.kind(),
        };
        install_flow(&mut Host(&mut world), &spec).expect("routed paths are valid");
        flows.push((flow, dst));
    }
    (world, flows, cfg.packet_bits)
}
