//! Facade-level kernel tests: event ordering, energy charging, death
//! semantics, tracing, and the reset-equivalence guarantees. Focused
//! subsystem tests live with each submodule's logic via the effect pins in
//! `kernel_effects_*` below.

use super::kernel::{Effect, EffectBuf, TimerKind};
use super::*;
use crate::trace::TraceEvent;
use crate::{EnergyCategory, NodeCtx, SimDuration};
use imobif_energy::{LinearMobilityCost, PowerLawModel};

/// Test protocol: forwards a counter along a chain and records receipt.
#[derive(Debug, Default)]
struct Echo {
    received: Vec<(NodeId, u32)>,
    forward_to: Option<NodeId>,
    move_target: Option<Point2>,
}

impl Application for Echo {
    type Msg = u32;

    fn on_message(&mut self, _ctx: &NodeCtx<'_>, from: NodeId, msg: u32, out: &mut Outbox<u32>) {
        self.received.push((from, msg));
        if let Some(next) = self.forward_to {
            out.send(next, 8000, msg + 1, EnergyCategory::Data);
        }
        if let Some(target) = self.move_target {
            out.move_toward(target, 1.0);
        }
    }

    fn on_timer(&mut self, _ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<u32>) {
        if let Some(next) = self.forward_to {
            out.send(next, 8000, tag as u32, EnergyCategory::Data);
        }
    }
}

fn make_world() -> World<Echo> {
    World::new(
        SimConfig::default(),
        Box::new(PowerLawModel::paper_default(2.0).unwrap()),
        Box::new(LinearMobilityCost::new(0.5).unwrap()),
    )
    .unwrap()
}

fn chain(world: &mut World<Echo>, n: usize, spacing: f64, joules: f64) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            world.add_node(
                Point2::new(i as f64 * spacing, 0.0),
                Battery::new(joules).unwrap(),
                Echo::default(),
            )
        })
        .collect()
}

#[test]
fn message_relays_along_chain_and_charges_energy() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.app_mut(ids[1]).forward_to = Some(ids[2]);
    w.start();
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 7);
    w.run_until(SimTime::from_micros(10_000_000));

    assert_eq!(w.app(ids[2]).received, vec![(ids[1], 8)]);
    let e01 = w.ledger().node(ids[0]).data;
    let expected = PowerLawModel::paper_default(2.0).unwrap().energy(20.0, 8000.0);
    assert!((e01 - expected).abs() < 1e-12);
    // Ledger totals equal battery drawdown.
    let drawdown: f64 = ids.iter().map(|&id| 10.0 - w.residual_energy(id)).sum();
    assert!((w.ledger().totals().total() - drawdown).abs() < 1e-9);
}

#[test]
fn kernel_stats_and_publish_metrics_flush_everything() {
    let mut w = make_world();
    // Default config beacons for free; charge them so the hello energy
    // category shows up in the published metrics.
    w.core.cfg.hello.charge_energy = true;
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.start();
    w.enable_tracing(4);
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 7);
    w.run_until(SimTime::from_micros(5_000_000));

    let stats = *w.kernel_stats();
    assert!(stats.hello_beacons > 0, "hello is on by default");
    assert_eq!(stats.timers_fired, 1);
    assert_eq!(
        stats.hello_fanout_bins.iter().sum::<u64>(),
        stats.hello_beacons,
        "every beacon records one fan-out sample"
    );
    assert!(w.queue.stats().pushes > 0);

    let registry = imobif_obs::Registry::enabled();
    w.publish_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("queue.pushes"), Some(w.queue.stats().pushes));
    assert_eq!(snap.counter("kernel.events_processed"), Some(w.events_processed()));
    assert_eq!(snap.counter("kernel.hello_beacons"), Some(stats.hello_beacons));
    assert!(snap.float("energy.hello_joules").unwrap() > 0.0);
    assert!(snap.float("energy.data_joules").unwrap() > 0.0);
    assert_eq!(snap.counter("packets.delivered"), Some(w.ledger().packets_delivered));
    assert_eq!(snap.counter("trace.recorded"), Some(w.trace().unwrap().total_recorded()));
    // Publishing again accumulates counters (batch semantics).
    w.publish_metrics(&registry);
    assert_eq!(registry.snapshot().counter("queue.pushes"), Some(2 * w.queue.stats().pushes));
    // A disabled registry records nothing.
    let off = imobif_obs::Registry::disabled();
    w.publish_metrics(&off);
    assert!(off.snapshot().entries.is_empty());
    // Reset clears the plain-field stats with the rest of the world.
    let mut recycled = Vec::new();
    w.reset_into(
        SimConfig::default(),
        Box::new(PowerLawModel::paper_default(2.0).unwrap()),
        Box::new(LinearMobilityCost::new(0.5).unwrap()),
        &mut recycled,
    )
    .unwrap();
    assert_eq!(*w.kernel_stats(), KernelStats::default());
    assert_eq!(w.queue.stats().pushes, 0);
}

#[test]
fn unaffordable_send_kills_node() {
    let mut w = make_world();
    let ids = chain(&mut w, 2, 20.0, 10.0);
    // Node 0 can afford ~2 sends of 8000 bits at 20 m (e ≈ 4e-3 J)…
    // give it far less than one send's worth.
    let mut w2 = make_world();
    let a = w2.add_node(Point2::ORIGIN, Battery::new(1e-6).unwrap(), Echo::default());
    let b = w2.add_node(Point2::new(20.0, 0.0), Battery::new(1.0).unwrap(), Echo::default());
    w2.app_mut(a).forward_to = Some(b);
    w2.start();
    w2.schedule_timer(a, SimDuration::ZERO, 1);
    w2.run_until(SimTime::from_micros(1_000_000));
    assert!(!w2.is_alive(a));
    assert!(w2.app(b).received.is_empty());
    assert_eq!(w2.ledger().first_death().unwrap().0, a);
    drop((w, ids));
}

#[test]
fn movement_charges_mobility_energy() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(10.0).unwrap(), Echo::default());
    w.app_mut(b).forward_to = None;
    w.app_mut(a).forward_to = Some(b);
    w.app_mut(b).move_target = Some(Point2::new(10.0, 5.0));
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    // b moved 1 m (max_step) toward the target on packet receipt.
    assert_eq!(w.position(b), Point2::new(10.0, 1.0));
    assert!((w.ledger().node(b).mobility - 0.5).abs() < 1e-12);
    assert!((w.node(b).total_moved() - 1.0).abs() < 1e-12);
}

#[test]
fn movement_beyond_budget_kills_mid_step() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    // 0.2 J at 0.5 J/m buys 0.4 m of movement.
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(0.2).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.app_mut(b).move_target = Some(Point2::new(20.0, 0.0));
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    assert!(!w.is_alive(b));
    let moved = w.node(b).total_moved();
    assert!(moved > 0.3 && moved < 0.5, "moved {moved}, expected ~0.4");
    // All its energy ended up as mobility spend in the ledger.
    assert!(w.ledger().node(b).mobility > 0.19);
}

#[test]
fn hello_populates_neighbor_tables() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.start();
    w.run_until(SimTime::from_micros(100_000));
    let n0 = w.node(ids[0]).neighbor_table().fresh(w.time());
    assert_eq!(n0.len(), 1);
    assert_eq!(n0[0].id, ids[1]);
    let n1 = w.node(ids[1]).neighbor_table().fresh(w.time());
    assert_eq!(n1.len(), 2);
}

#[test]
fn hello_energy_charged_when_enabled() {
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let mut w: World<Echo> = World::new(
        cfg,
        Box::new(PowerLawModel::paper_default(2.0).unwrap()),
        Box::new(LinearMobilityCost::new(0.5).unwrap()),
    )
    .unwrap();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    w.start();
    w.run_until(SimTime::from_micros(3_500_000));
    // Beacons at t=0,1,2,3 s -> 4 charged beacons.
    let per_beacon = PowerLawModel::paper_default(2.0).unwrap().energy(30.0, 512.0);
    assert!((w.ledger().node(a).hello - 4.0 * per_beacon).abs() < 1e-12);
}

#[test]
fn dead_node_receives_nothing() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(0.0).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    assert!(w.app(b).received.is_empty());
    assert_eq!(w.ledger().packets_dropped, 1);
}

#[test]
fn run_while_stops_on_predicate() {
    let mut w = make_world();
    let _ = chain(&mut w, 2, 20.0, 10.0);
    w.start();
    let n = w.run_while(|w| w.time() < SimTime::from_micros(1_500_000));
    assert!(n > 0);
}

#[test]
fn topology_view_reflects_positions() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.start();
    let topo = w.topology_view();
    assert_eq!(topo.node_count(), 3);
    assert_eq!(topo.neighbors(ids[0]), vec![ids[1]]);
}

#[test]
#[should_panic(expected = "before start")]
fn step_before_start_panics() {
    let mut w = make_world();
    let _ = w.step();
}

#[test]
fn tracing_records_kernel_events_in_order() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.enable_tracing(64);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.app_mut(ids[1]).forward_to = Some(ids[2]);
    w.app_mut(ids[1]).move_target = Some(Point2::new(20.0, 5.0));
    w.start();
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 1);
    w.run_until(SimTime::from_micros(2_000_000));
    let trace = w.trace().expect("tracing enabled");
    let events = trace.events();
    assert!(!events.is_empty());
    // Timestamps are non-decreasing.
    for pair in events.windows(2) {
        assert!(pair[0].time() <= pair[1].time());
    }
    // The relay's Sent follows its Delivered; its Moved follows too.
    let sent = trace.filtered(|e| matches!(e, TraceEvent::Sent { .. }));
    let moved = trace.filtered(|e| matches!(e, TraceEvent::Moved { .. }));
    assert_eq!(sent.len(), 2, "source and relay each send once");
    assert_eq!(moved.len(), 1, "the relay moves once");
    // Without tracing there is no ring.
    let w2 = make_world();
    assert!(w2.trace().is_none());
}

// ---- focused subsystem tests: each pins one module's effect contract ----

fn core_world(batteries: &[(f64, f64, f64)]) -> World<Echo> {
    let mut w = make_world();
    // Trace effects are only produced when tracing is on; enable it so the
    // effect pins below can observe the full ordering contract.
    w.enable_tracing(64);
    for &(x, y, joules) in batteries {
        w.add_node(Point2::new(x, y), Battery::new(joules).unwrap(), Echo::default());
    }
    w
}

/// `delivery::send` of one 8 kbit data packet, priced as the world prices
/// it: by the receiver's live position.
fn send_data(w: &mut World<Echo>, from: NodeId, to: NodeId, fx: &mut EffectBuf) {
    let to_pos = w.position(to);
    let p = &mut w.core.physics();
    delivery::send(p, from, from.index(), to, to_pos, 8000, EnergyCategory::Data, fx);
}

#[test]
fn delivery_send_effects_success_then_failure() {
    // Success: Trace(Sent) strictly before Send — the packet is recorded
    // from the pre-schedule position.
    let mut w = core_world(&[(0.0, 0.0, 10.0), (20.0, 0.0, 10.0)]);
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mut fx = EffectBuf::new();
    send_data(&mut w, a, b, &mut fx);
    assert!(matches!(fx.slots[0], Some(Effect::Trace(TraceEvent::Sent { .. }))));
    assert!(matches!(fx.slots[1], Some(Effect::Send { from, to, .. }) if from == a && to == b));
    assert_eq!(fx.len, 2);
    assert_eq!(w.core.ledger.packets_sent, 1);

    // Failure: Kill strictly before Trace(Dropped) — Died precedes Dropped
    // in the trace, the order the JSONL fingerprints pin.
    let mut w = core_world(&[(0.0, 0.0, 1e-9), (20.0, 0.0, 10.0)]);
    let mut fx = EffectBuf::new();
    send_data(&mut w, a, b, &mut fx);
    assert!(matches!(fx.slots[0], Some(Effect::Kill { node }) if node == a));
    assert!(matches!(fx.slots[1], Some(Effect::Trace(TraceEvent::Dropped { .. }))));
    assert_eq!(w.core.ledger.packets_dropped, 1);
    assert_eq!(w.core.ledger.packets_sent, 0);
}

#[test]
fn delivery_receive_drops_for_dead_destination() {
    let mut w = core_world(&[(0.0, 0.0, 10.0), (20.0, 0.0, 10.0)]);
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mut fx = EffectBuf::new();
    assert!(delivery::receive(&mut w.core.physics(), a, b, 1, &mut fx));
    assert!(matches!(fx.slots[0], Some(Effect::Trace(TraceEvent::Delivered { .. }))));
    mobility::kill(&mut w.core.physics(), b, 1, &mut EffectBuf::new());
    let mut fx = EffectBuf::new();
    assert!(!delivery::receive(&mut w.core.physics(), a, b, 1, &mut fx));
    assert!(matches!(fx.slots[0], Some(Effect::Trace(TraceEvent::Dropped { .. }))));
    assert_eq!(w.core.ledger.packets_delivered, 1);
    assert_eq!(w.core.ledger.packets_dropped, 1);
}

#[test]
fn mobility_move_effects_full_step_and_mid_step_death() {
    // Affordable: one Moved trace, position updated, no Kill.
    let mut w = core_world(&[(0.0, 0.0, 10.0)]);
    let a = NodeId::new(0);
    let mut fx = EffectBuf::new();
    mobility::move_node(&mut w.core.physics(), a, 0, Point2::new(10.0, 0.0), 1.0, &mut fx);
    assert_eq!(fx.len, 1);
    assert!(matches!(fx.slots[0], Some(Effect::Trace(TraceEvent::Moved { .. }))));
    assert_eq!(w.core.nodes.position(0), Point2::new(1.0, 0.0));

    // Unaffordable: partial Moved strictly before Kill.
    let mut w = core_world(&[(0.0, 0.0, 0.2)]);
    let mut fx = EffectBuf::new();
    mobility::move_node(&mut w.core.physics(), a, 0, Point2::new(10.0, 0.0), 1.0, &mut fx);
    assert_eq!(fx.len, 2);
    assert!(matches!(fx.slots[0], Some(Effect::Trace(TraceEvent::Moved { .. }))));
    assert!(matches!(fx.slots[1], Some(Effect::Kill { node }) if node == a));
    // 0.2 J at 0.5 J/m bought 0.4 m; the battery is exactly drained.
    assert!((w.core.nodes.position(0).x - 0.4).abs() < 1e-12);
    assert_eq!(w.core.nodes.residual(0), 0.0);

    // A degenerate step (already at the target) produces no effects.
    let mut w = core_world(&[(5.0, 5.0, 10.0)]);
    let mut fx = EffectBuf::new();
    mobility::move_node(&mut w.core.physics(), a, 0, Point2::new(5.0, 5.0), 1.0, &mut fx);
    assert_eq!(fx.len, 0);
}

#[test]
fn effects_skip_trace_when_untraced() {
    // With tracing off the kernel would drop Trace effects anyway, so the
    // subsystems never construct them: only the operative effects remain.
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(20.0, 0.0), Battery::new(10.0).unwrap(), Echo::default());
    let mut fx = EffectBuf::new();
    send_data(&mut w, a, b, &mut fx);
    assert_eq!(fx.len, 1);
    assert!(matches!(fx.slots[0], Some(Effect::Send { .. })));
    let mut fx = EffectBuf::new();
    assert!(delivery::receive(&mut w.core.physics(), a, b, 1, &mut fx));
    assert_eq!(fx.len, 0);
    let mut fx = EffectBuf::new();
    mobility::move_node(&mut w.core.physics(), a, 0, Point2::new(10.0, 0.0), 1.0, &mut fx);
    assert_eq!(fx.len, 0, "a full affordable step is pure state mutation");
    // The ledger still sees everything: the books never depend on tracing.
    assert_eq!(w.core.ledger.packets_sent, 1);
    assert_eq!(w.core.ledger.packets_delivered, 1);
    assert!(w.core.ledger.node(a).mobility > 0.0);
}

#[test]
fn beacon_effects_reschedule_or_kill() {
    // A live, funded node beacons and reschedules at the HELLO period.
    let mut w = core_world(&[(0.0, 0.0, 10.0), (20.0, 0.0, 10.0)]);
    let a = NodeId::new(0);
    let mut fx = EffectBuf::new();
    beacon::hello_beacon(&mut w, a, 0, &mut fx);
    assert_eq!(fx.len, 1);
    let period = w.core.cfg.hello.period;
    assert!(matches!(
        fx.slots[0],
        Some(Effect::Timer { node, delay, kind: TimerKind::Beacon })
            if node == a && delay == period
    ));
    assert_eq!(w.core.stats.hello_beacons, 1);
    // The neighbor heard it.
    assert_eq!(w.core.nodes.neighbor_table(1).fresh(w.core.time).len(), 1);

    // A node that cannot afford the beacon dies and stops beaconing.
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let mut w: World<Echo> = World::new(
        cfg,
        Box::new(PowerLawModel::paper_default(2.0).unwrap()),
        Box::new(LinearMobilityCost::new(0.5).unwrap()),
    )
    .unwrap();
    let a_id = w.add_node(Point2::ORIGIN, Battery::new(1e-12).unwrap(), Echo::default());
    let mut fx = EffectBuf::new();
    beacon::hello_beacon(&mut w, a_id, 0, &mut fx);
    assert_eq!(fx.len, 1);
    assert!(matches!(fx.slots[0], Some(Effect::Kill { node }) if node == a_id));
}

#[test]
fn beacon_grid_and_scan_paths_agree() {
    // Same geometry twice: once under the linear-scan threshold, once
    // padded past it with out-of-range nodes, must observe identical
    // hearer sets.
    let hearers_of = |pad: usize| {
        let mut w = make_world();
        for i in 0..6 {
            let p = Point2::new(i as f64 * 12.0, 0.0);
            w.add_node(p, Battery::new(1.0).unwrap(), Echo::default());
        }
        for j in 0..pad {
            let p = Point2::new(1000.0 + j as f64, 900.0);
            w.add_node(p, Battery::new(1.0).unwrap(), Echo::default());
        }
        let mut fx = EffectBuf::new();
        beacon::hello_beacon(&mut w, NodeId::new(2), 2, &mut fx);
        w.core.hearers.clone()
    };
    let small = hearers_of(0);
    let large = hearers_of(beacon::SMALL_WORLD_SCAN);
    assert_eq!(small, vec![0, 1, 3, 4], "30 m range hears ±2 hops at 12 m spacing");
    assert_eq!(small, large);
}

/// A world that charges HELLO beacons, with one node per battery, 10 m
/// apart (all mutual neighbors), and the energy of one beacon.
fn charged_beacon_world(beacons: &[f64]) -> (World<Echo>, Vec<NodeId>) {
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let model = PowerLawModel::paper_default(2.0).unwrap();
    let per_beacon = model.energy(cfg.range, cfg.hello.bits as f64);
    let mut w: World<Echo> =
        World::new(cfg, Box::new(model), Box::new(LinearMobilityCost::new(0.5).unwrap())).unwrap();
    let ids = beacons
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let battery = Battery::new(n * per_beacon).unwrap();
            w.add_node(Point2::new(i as f64 * 10.0, 0.0), battery, Echo::default())
        })
        .collect();
    (w, ids)
}

#[test]
fn round_death_is_heard_before_and_skipped_after() {
    // Node 1 cannot afford its first beacon and dies mid-round.
    let (mut w, ids) = charged_beacon_world(&[10.0, 0.5, 10.0]);
    w.start();
    assert!(w.step(), "the start-time round");
    let now = w.time();
    let heard = |id: NodeId| -> Vec<NodeId> {
        w.node(id).neighbor_table().fresh(now).iter().map(|e| e.id).collect()
    };
    assert!(!w.is_alive(ids[1]));
    assert_eq!(w.ledger().first_death(), Some((ids[1], now)));
    // It heard node 0's beacon, which ran first, but not node 2's, which
    // ran after its death; its own beacon never went out.
    assert_eq!(heard(ids[1]), vec![ids[0]]);
    assert_eq!(heard(ids[0]), vec![ids[2]]);
    assert_eq!(heard(ids[2]), vec![ids[0]]);
    assert_eq!(w.kernel_stats().hello_beacons, 2);
    // One event ran the round, and one reschedules it for the survivors.
    assert_eq!(w.events_processed(), 1);
    assert_eq!(w.pending_events(), 1);
}

#[test]
fn rounds_lapse_once_every_node_is_dead() {
    // Node 0 affords two beacons, node 1 one.
    let (mut w, ids) = charged_beacon_world(&[2.5, 1.5]);
    w.start();
    // Without the lapse this would never return; the bound turns that
    // hang into a failure.
    let bound = SimTime::from_micros(60_000_000);
    let n = w.run_while(|w| {
        assert!(w.time() < bound, "rounds outlived every node");
        true
    });
    assert_eq!(n, 3, "rounds at 0, 1 and 2 s");
    assert!(ids.iter().all(|&id| !w.is_alive(id)));
    assert_eq!(w.pending_events(), 0);
    assert_eq!(w.kernel_stats().hello_beacons, 3);
    assert_eq!(w.ledger().death_time(ids[0]), Some(SimTime::from_micros(2_000_000)));
    assert_eq!(w.ledger().first_death(), Some((ids[1], SimTime::from_micros(1_000_000))));
}

#[test]
fn no_round_without_hello() {
    let mut cfg = SimConfig::default();
    cfg.hello.enabled = false;
    let mut w: World<Echo> = World::new(
        cfg,
        Box::new(PowerLawModel::paper_default(2.0).unwrap()),
        Box::new(LinearMobilityCost::new(0.5).unwrap()),
    )
    .unwrap();
    let _ = chain(&mut w, 3, 20.0, 10.0);
    w.start();
    assert_eq!(w.pending_events(), 0);
}

/// A scenario script for the reset-equivalence tests: a chain of nodes
/// with forwarding, optional movement, and a handful of source timers.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    spacing: f64,
    joules: f64,
    move_y: f64,
    timers: Vec<u64>,
    run_micros: u64,
}

/// Everything observable about a finished run, compared bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    positions: Vec<Point2>,
    energies: Vec<f64>,
    total_moved: Vec<f64>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    events_processed: u64,
    time: SimTime,
    trace: Vec<TraceEvent>,
}

/// Builds the scenario into `w` (fresh or reset), runs it, and
/// fingerprints the outcome.
fn run_scenario(w: &mut World<Echo>, sc: &Scenario) -> RunFingerprint {
    let ids = chain(w, sc.n, sc.spacing, sc.joules);
    w.enable_tracing(4096);
    for pair in ids.windows(2) {
        w.app_mut(pair[0]).forward_to = Some(pair[1]);
    }
    if sc.n > 1 {
        w.app_mut(ids[1]).move_target = Some(Point2::new(sc.spacing * sc.n as f64, sc.move_y));
    }
    w.start();
    for (i, &t) in sc.timers.iter().enumerate() {
        w.schedule_timer(ids[0], SimDuration::from_millis(t), i as u64);
    }
    w.run_until(SimTime::from_micros(sc.run_micros));
    RunFingerprint {
        positions: ids.iter().map(|&id| w.position(id)).collect(),
        energies: ids.iter().map(|&id| w.residual_energy(id)).collect(),
        total_moved: ids.iter().map(|&id| w.node(id).total_moved()).collect(),
        sent: w.ledger().packets_sent,
        delivered: w.ledger().packets_delivered,
        dropped: w.ledger().packets_dropped,
        events_processed: w.events_processed(),
        time: w.time(),
        trace: w.trace().expect("tracing enabled").events(),
    }
}

#[test]
fn reset_world_is_bit_identical_to_fresh() {
    let sc = Scenario {
        n: 4,
        spacing: 20.0,
        joules: 10.0,
        move_y: 9.0,
        timers: vec![0, 100, 200, 300, 400],
        run_micros: 10_000_000,
    };
    let mut fresh = make_world();
    let want = run_scenario(&mut fresh, &sc);

    // Run something *different* first so the reused world carries
    // non-trivial internal state into the reset.
    let mut reused = make_world();
    let warmup = Scenario {
        n: 7,
        spacing: 15.0,
        joules: 0.02,
        move_y: 3.0,
        timers: vec![50, 60, 70],
        run_micros: 4_000_000,
    };
    let _ = run_scenario(&mut reused, &warmup);
    let mut apps = Vec::new();
    reused
        .reset_into(
            SimConfig::default(),
            Box::new(PowerLawModel::paper_default(2.0).unwrap()),
            Box::new(LinearMobilityCost::new(0.5).unwrap()),
            &mut apps,
        )
        .unwrap();
    assert_eq!(apps.len(), 7, "old apps are recycled to the caller");
    let got = run_scenario(&mut reused, &sc);
    assert_eq!(got, want);
}

proptest::proptest! {
    /// Reset-and-reuse is bit-identical to a fresh world across random
    /// scenarios, including when the warmup scenario (whose allocations
    /// the reused world inherits) differs arbitrarily.
    #[test]
    fn prop_reset_world_matches_fresh_trace(
        n in 2usize..8,
        spacing in 5.0..30.0f64,
        joules in 0.001..10.0f64,
        move_y in 0.0..20.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..6),
        warm_n in 1usize..8,
        warm_spacing in 5.0..30.0f64,
        warm_joules in 0.001..10.0f64,
    ) {
        let sc = Scenario {
            n, spacing, joules, move_y, timers,
            run_micros: 5_000_000,
        };
        let mut fresh = make_world();
        let want = run_scenario(&mut fresh, &sc);

        let mut reused = make_world();
        let warmup = Scenario {
            n: warm_n,
            spacing: warm_spacing,
            joules: warm_joules,
            move_y: 1.0,
            timers: vec![10, 20],
            run_micros: 3_000_000,
        };
        let _ = run_scenario(&mut reused, &warmup);
        reused
            .reset(
                SimConfig::default(),
                Box::new(PowerLawModel::paper_default(2.0).unwrap()),
                Box::new(LinearMobilityCost::new(0.5).unwrap()),
            )
            .unwrap();
        let got = run_scenario(&mut reused, &sc);
        proptest::prop_assert_eq!(got, want);
    }
}

#[test]
fn determinism_same_setup_same_trace() {
    let run = || {
        let mut w = make_world();
        let ids = chain(&mut w, 4, 20.0, 10.0);
        for pair in ids.windows(2) {
            w.app_mut(pair[0]).forward_to = Some(pair[1]);
        }
        w.app_mut(ids[1]).move_target = Some(Point2::new(40.0, 9.0));
        w.start();
        for i in 0..5 {
            w.schedule_timer(ids[0], SimDuration::from_millis(i * 100), i);
        }
        w.run_until(SimTime::from_micros(10_000_000));
        (
            ids.iter().map(|&id| w.position(id)).collect::<Vec<_>>(),
            ids.iter().map(|&id| w.residual_energy(id)).collect::<Vec<_>>(),
            w.ledger().packets_sent,
        )
    };
    assert_eq!(run(), run());
}
