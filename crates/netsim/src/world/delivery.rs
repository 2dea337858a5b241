//! Unicast delivery: distance → transmission energy → scheduled arrival
//! through the loss-free unit-disk medium.
//!
//! The sender's battery and the energy ledger are this subsystem's own
//! state and are charged directly; scheduling, death and trace records are
//! returned as [`Effect`]s for the engine to apply.

use imobif_geom::Point2;

use super::kernel::{Effect, EffectBuf, Physics};
use crate::trace::TraceEvent;
use crate::{EnergyCategory, NodeId};

/// Charges `from` (at `slot`) for transmitting `bits` to `to`, priced by
/// the distance to `to_pos` — where the engine sees the receiver — and
/// emits the effects of the attempt: on success `Sent` then the scheduled
/// delivery; on an unaffordable transmission the sender dies (`Kill`,
/// which records `Died`) and the packet is dropped (`Dropped` after `Died`
/// — the order the trace pins).
#[allow(clippy::too_many_arguments)]
pub(super) fn send(
    p: &mut Physics<'_>,
    from: NodeId,
    slot: usize,
    to: NodeId,
    to_pos: Point2,
    bits: u64,
    category: EnergyCategory,
    fx: &mut EffectBuf,
) {
    let d = p.nodes.position(slot).distance_to(to_pos);
    let e = p.tx_model.energy(d, bits as f64);
    if p.nodes.battery_mut(slot).try_consume(e).is_err() {
        // The residual energy cannot cover this transmission: the node
        // is out of service (its leftover charge is below the per-packet
        // requirement, the paper's death condition).
        p.ledger.packets_dropped += 1;
        fx.push(Effect::Kill { node: from });
        // Trace effects are only produced when tracing can observe them:
        // the engine would drop them anyway, and skipping the construction
        // keeps the untraced hot path lean.
        if p.tracing {
            fx.push(Effect::Trace(TraceEvent::Dropped { time: p.time, to }));
        }
        return;
    }
    p.ledger.charge(NodeId::new(slot as u32), category, e);
    p.ledger.packets_sent += 1;
    if p.tracing {
        fx.push(Effect::Trace(TraceEvent::Sent {
            time: p.time,
            from,
            to,
            bits,
            category,
            energy: e,
        }));
    }
    fx.push(Effect::Send { from, to, delay: p.cfg.tx_delay(bits) });
}

/// Terminal medium step for a packet arriving at `to` (at `slot`). Returns
/// whether it was delivered — the kernel then dispatches `on_message`; a
/// dead destination drops the packet instead.
pub(super) fn receive(
    p: &mut Physics<'_>,
    from: NodeId,
    to: NodeId,
    slot: usize,
    fx: &mut EffectBuf,
) -> bool {
    if !p.nodes.is_alive(slot) {
        p.ledger.packets_dropped += 1;
        if p.tracing {
            fx.push(Effect::Trace(TraceEvent::Dropped { time: p.time, to }));
        }
        return false;
    }
    p.ledger.packets_delivered += 1;
    if p.tracing {
        fx.push(Effect::Trace(TraceEvent::Delivered { time: p.time, from, to }));
    }
    true
}
