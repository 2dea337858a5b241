//! The periodic HELLO service: each beacon broadcasts the node's identity,
//! position and residual energy to every node in radio range, refreshing
//! their neighbor tables (the paper's prescribed triple).
//!
//! The HELLO charge, hearer selection and stats are written here once; the
//! engine decides when hearers record the observation (immediately in a
//! [`World`](crate::World), at the next barrier in a shard). The reschedule
//! and a possible battery death are returned as [`Effect`]s.

use imobif_geom::{Point2, SpatialGrid};

use super::kernel::{Effect, EffectBuf, Engine, TimerKind};
use crate::{EnergyCategory, NodeId};

/// Below this many nodes, HELLO neighbor discovery scans the node array
/// instead of probing the spatial grid: a 3×3 block of hash-bucket lookups
/// costs more than a dozen distance checks, and the pinned-path experiment
/// worlds carry only the flow's relays.
pub(super) const SMALL_WORLD_SCAN: usize = 32;

/// Broadcasts one HELLO beacon from `node` (at `slot`, if alive) through
/// the engine's [`Engine::broadcast`] and reschedules the next beacon. A
/// node that cannot afford the beacon dies instead and its beacon chain
/// stops.
pub(super) fn hello_beacon<E: Engine>(e: &mut E, node: NodeId, slot: usize, fx: &mut EffectBuf) {
    let p = e.physics();
    if !p.nodes.is_alive(slot) {
        return;
    }
    if p.cfg.hello.charge_energy {
        // Beacons are broadcast at full range power.
        let joules = p.tx_model.energy(p.cfg.range, p.cfg.hello.bits as f64);
        if p.nodes.battery_mut(slot).try_consume(joules).is_err() {
            fx.push(Effect::Kill { node });
            return;
        }
        p.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Hello, joules);
    }
    let (pos, residual) = (p.nodes.position(slot), p.nodes.residual(slot));
    let period = p.cfg.hello.period;
    let fanout = e.broadcast(node, pos, residual);
    e.physics().stats.record_beacon(fanout);
    fx.push(Effect::Timer { node, delay: period, kind: TimerKind::Beacon });
}

/// Collects into `hearers` every live node other than `node` within
/// `range` of `pos`, ascending by id, from position/liveness columns
/// indexed by global id and a grid over the live nodes.
///
/// Reuses the scratch buffer: HELLO is the densest event class and must
/// not allocate in the steady state. Tiny deployments (the pinned-path
/// experiment worlds) skip the grid entirely: a linear scan over the
/// columns beats nine hash-bucket probes, and it yields the same hearer
/// set — the grid holds exactly the alive nodes, and ids come out already
/// sorted.
pub(super) fn select_hearers(
    positions: &[Point2],
    alive: &[bool],
    grid: &SpatialGrid,
    node: NodeId,
    pos: Point2,
    range: f64,
    hearers: &mut Vec<u32>,
) {
    if positions.len() <= SMALL_WORLD_SCAN {
        let r_sq = range * range;
        hearers.clear();
        hearers.extend((0..positions.len()).filter_map(|i| {
            (i != node.index() && alive[i] && pos.distance_sq_to(positions[i]) <= r_sq)
                .then_some(i as u32)
        }));
    } else {
        grid.query_range_into(pos, range, hearers);
        hearers.retain(|&k| k != node.raw());
        hearers.sort_unstable();
    }
}
