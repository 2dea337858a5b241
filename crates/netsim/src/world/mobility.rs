//! Node movement and death.
//!
//! Positions, batteries and the mobility ledger category are this
//! subsystem's own state; the `Moved`/`Died` trace records and the kill
//! consequence are returned as [`Effect`]s so the engine fixes their order
//! (partial `Moved` strictly before `Died` on a mid-step death). Where the
//! new position must be published — a [`World`](crate::World)'s spatial
//! grid, a shard's replica patch — is the engine's business.

use imobif_geom::Point2;

use super::kernel::{Effect, EffectBuf, Physics};
use crate::trace::TraceEvent;
use crate::{EnergyCategory, NodeId};

/// Moves `node` (at `slot`) toward `target` by at most `max_step` meters,
/// charging the mobility cost model. A node that cannot afford the full
/// step moves as far as its battery allows, drains, and dies mid-step.
///
/// Returns the position the step reports (its `Moved` record's `to`), or
/// `None` when there was nowhere to go.
pub(super) fn move_node(
    p: &mut Physics<'_>,
    node: NodeId,
    slot: usize,
    target: Point2,
    max_step: f64,
    fx: &mut EffectBuf,
) -> Option<Point2> {
    let pos = p.nodes.position(slot);
    let (mut new_pos, mut moved) = pos.step_toward(target, max_step);
    if moved <= 0.0 {
        return None;
    }
    let cost = p.mobility_model.cost(moved);
    let residual = p.nodes.residual(slot);
    let ledger_id = NodeId::new(slot as u32);
    if cost <= residual {
        p.nodes.battery_mut(slot).try_consume(cost).expect("checked affordable");
        p.ledger.charge(ledger_id, EnergyCategory::Mobility, cost);
        p.nodes.set_position(slot, new_pos, moved);
        // Trace effects only exist when tracing can observe them (see
        // `delivery::send`).
        if p.tracing {
            fx.push(Effect::Trace(TraceEvent::Moved {
                time: p.time,
                node,
                from: pos,
                to: new_pos,
                energy: cost,
            }));
        }
    } else {
        // Move as far as the battery allows, then die mid-step.
        let affordable = p.mobility_model.reachable_distance(residual).min(moved);
        if affordable > 0.0 && affordable.is_finite() {
            (new_pos, moved) = pos.step_toward(target, affordable);
            p.nodes.set_position(slot, new_pos, moved);
        }
        let spent = p.nodes.battery_mut(slot).drain();
        p.ledger.charge(ledger_id, EnergyCategory::Mobility, spent);
        if p.tracing {
            fx.push(Effect::Trace(TraceEvent::Moved {
                time: p.time,
                node,
                from: pos,
                to: new_pos,
                energy: spent,
            }));
        }
        fx.push(Effect::Kill { node });
    }
    Some(new_pos)
}

/// Takes `node` (at `slot`) out of service: records the death time and
/// emits `Died`. Removing it from the medium is the engine's business.
pub(super) fn kill(p: &mut Physics<'_>, node: NodeId, slot: usize, fx: &mut EffectBuf) {
    // Any leftover charge is stranded: below the per-action requirement
    // that killed the node, so never spendable. It is deliberately not
    // added to the ledger — it was not consumed.
    let _stranded = p.nodes.kill(slot);
    p.ledger.record_death(NodeId::new(slot as u32), p.time);
    if p.tracing {
        fx.push(Effect::Trace(TraceEvent::Died { time: p.time, node }));
    }
}
