//! The per-shard engine: one shard's node columns, applications and
//! calendar queue, driven by the kernel's shared event loop.
//!
//! A shard has no event loop or physics of its own. [`ShardRun`] borrows
//! a shard together with the epoch's context, frozen replica and outbox
//! and implements the kernel's [`Engine`] trait, so the shard runs the
//! same `kernel::handle`/`dispatch` loop and the same `delivery`,
//! `mobility` and `beacon` rules as [`World`](crate::World). What is
//! shard-specific is where remote state is read from — the epoch-frozen
//! [`Replica`] — and where effects land: every consequence that touches
//! another node — a packet delivery, a HELLO observation, a position or
//! liveness change other shards must see — is pushed into the epoch's
//! [`ShardOutbox`], partitioned by destination shard at emission, and
//! applied at the next epoch barrier (see [`xfer`](super::xfer) for the
//! run layout and the ordering argument).

use imobif_geom::{Point2, SpatialGrid};

use super::super::kernel::{self, Effect, EffectBuf, Engine, Event, Physics};
use super::super::observe::KernelStats;
use super::super::{beacon, mobility};
use super::xfer::{Dlv, ObsGroup, RepPatch, ShardOutbox};
use crate::node::NodeStore;
use crate::trace::TraceEvent;
use crate::{
    Application, EnergyLedger, EventQueue, NeighborTable, NodeId, Outbox, SimConfig, SimTime,
};

use imobif_energy::{MobilityCostModel, TxEnergyModel};

/// Deterministic total order for cross-shard deliveries and trace events:
/// `(emission time, emitting node, per-node emission sequence)`. The key is
/// independent of shard assignment — ordering between *different* nodes
/// never consults `seq`, and one node's `seq` values are assigned in its
/// own event order, which every shard layout reproduces. That is what
/// makes the barrier merge (and the merged trace) bit-identical at any
/// shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct XKey {
    pub(super) time: SimTime,
    pub(super) origin: u32,
    pub(super) seq: u32,
}

/// The epoch-frozen global snapshot every shard reads: position and
/// liveness columns (the same struct-of-arrays layout as [`NodeStore`])
/// indexed by global node id, plus a spatial grid over the live nodes for
/// beacon fan-out queries. Only the barrier writes it, from the owner
/// shards' [`RepPatch`] runs — O(changes) per epoch, never a rebuild. The
/// coordinator hands it to workers behind an `Arc` and regains exclusive
/// access (`Arc::get_mut`) once every worker has reported its epoch done.
#[derive(Debug)]
pub(super) struct Replica {
    pub(super) positions: Vec<Point2>,
    pub(super) alive: Vec<bool>,
    pub(super) grid: SpatialGrid,
}

impl Replica {
    pub(super) fn new(cell_size: f64) -> Self {
        Replica { positions: Vec::new(), alive: Vec::new(), grid: SpatialGrid::new(cell_size) }
    }
}

/// Read-only simulation context shared by every shard: configuration,
/// energy models, and the global owner map (`global id → (shard, slot)`).
#[derive(Clone, Copy)]
pub(super) struct SharedCtx<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) tx_model: &'a dyn TxEnergyModel,
    pub(super) mobility_model: &'a dyn MobilityCostModel,
    pub(super) owner: &'a [(u32, u32)],
}

impl SharedCtx<'_> {
    #[inline]
    pub(super) fn slot_of(&self, id: NodeId) -> usize {
        self.owner[id.index()].1 as usize
    }
}

/// One spatial shard: the nodes it owns (struct-of-arrays, locally
/// indexed), their applications, a local calendar queue keyed by
/// `(node, per-node seq)`, and a local energy ledger (slot-indexed).
/// Cross-shard effects go into the epoch's [`ShardOutbox`], which the
/// coordinator owns and passes in.
pub(super) struct Shard<A: Application> {
    pub(super) nodes: NodeStore,
    pub(super) apps: Vec<A>,
    pub(super) queue: EventQueue<Event<A::Msg>>,
    /// Per-slot sequence for queue keys (`(id << 32) | seq`).
    pub(super) qseq: Vec<u32>,
    /// Per-slot sequence for [`XKey`]s (deliveries and trace events).
    pub(super) eseq: Vec<u32>,
    /// Slot-indexed ledger; global totals are aggregated by the world.
    pub(super) ledger: EnergyLedger,
    pub(super) outbox: Outbox<A::Msg>,
    pub(super) trace: Option<Vec<(XKey, TraceEvent)>>,
    pub(super) hearers: Vec<u32>,
    /// Monotonic beacon counter; stamps destination observation runs so a
    /// beacon can open at most one group per destination.
    pub(super) beacon_stamp: u64,
    pub(super) stats: KernelStats,
    pub(super) events_processed: u64,
    /// Local clock: the latest event time this shard has processed.
    pub(super) time: SimTime,
}

impl<A: Application> Shard<A> {
    pub(super) fn new(backend: crate::QueueBackend) -> Self {
        Shard {
            nodes: NodeStore::new(),
            apps: Vec::new(),
            queue: EventQueue::with_backend(backend),
            qseq: Vec::new(),
            eseq: Vec::new(),
            ledger: EnergyLedger::new(),
            outbox: Outbox::new(),
            trace: None,
            hearers: Vec::new(),
            beacon_stamp: 0,
            stats: KernelStats::default(),
            events_processed: 0,
            time: SimTime::ZERO,
        }
    }

    /// Returns the shard to its just-constructed state, recycling neighbor
    /// tables and application instances.
    pub(super) fn clear_into(
        &mut self,
        backend: crate::QueueBackend,
        spare_tables: &mut Vec<NeighborTable>,
        recycled_apps: &mut Vec<A>,
    ) {
        self.nodes.drain_tables_into(spare_tables);
        recycled_apps.append(&mut self.apps);
        if self.queue.backend() == backend {
            self.queue.clear();
        } else {
            self.queue = EventQueue::with_backend(backend);
        }
        self.qseq.clear();
        self.eseq.clear();
        self.ledger.clear();
        self.outbox.clear();
        self.trace = None;
        self.hearers.clear();
        self.beacon_stamp = 0;
        self.stats = KernelStats::default();
        self.events_processed = 0;
        self.time = SimTime::ZERO;
    }

    fn ekey(&mut self, slot: usize, id: NodeId) -> XKey {
        let s = self.eseq[slot];
        self.eseq[slot] = s.wrapping_add(1);
        XKey { time: self.time, origin: id.raw(), seq: s }
    }

    /// Enqueues `event` for `slot` / global `id` under its next queue key:
    /// ascending per-node sequence, shard-assignment independent.
    pub(super) fn push_event(
        &mut self,
        at: SimTime,
        slot: usize,
        id: NodeId,
        event: Event<A::Msg>,
    ) {
        let s = self.qseq[slot];
        self.qseq[slot] = s.wrapping_add(1);
        self.queue.push_keyed(at, (u64::from(id.raw()) << 32) | u64::from(s), event);
    }

    /// Runs every local event strictly before `end` (and at or before
    /// `deadline`) through the kernel's shared loop, reading the
    /// epoch-frozen `rep` snapshot for all remote state and emitting
    /// cross-shard effects into `xout`.
    pub(super) fn run_epoch(
        &mut self,
        sh: SharedCtx<'_>,
        rep: &Replica,
        xout: &mut ShardOutbox<A::Msg>,
        end: SimTime,
        deadline: SimTime,
    ) {
        let mut run = ShardRun { shard: self, sh, rep, xout };
        while let Some(t) = run.shard.queue.peek_time() {
            if t >= end || t > deadline {
                break;
            }
            let (t, event) = run.shard.queue.pop().expect("peeked");
            run.shard.time = run.shard.time.max(t);
            run.shard.events_processed += 1;
            kernel::handle(&mut run, event);
        }
    }
}

/// One shard borrowed together with everything its events read and write
/// during an epoch: the shared context, the frozen replica and the epoch's
/// outbox. This is the shard's [`Engine`]: the kernel's loop and physics
/// rules run unchanged, and only the application of their effects is
/// shard-specific.
pub(super) struct ShardRun<'a, A: Application> {
    pub(super) shard: &'a mut Shard<A>,
    pub(super) sh: SharedCtx<'a>,
    pub(super) rep: &'a Replica,
    pub(super) xout: &'a mut ShardOutbox<A::Msg>,
}

impl<A: Application> Engine for ShardRun<'_, A> {
    type App = A;
    const GROUND_TRUTH: bool = false;

    fn slot_of(&self, id: NodeId) -> usize {
        self.sh.slot_of(id)
    }

    fn parts(&mut self) -> (&mut [A], &mut Outbox<A::Msg>, Physics<'_>) {
        let s = &mut *self.shard;
        let physics = Physics {
            nodes: &mut s.nodes,
            ledger: &mut s.ledger,
            stats: &mut s.stats,
            cfg: self.sh.cfg,
            tx_model: self.sh.tx_model,
            mobility_model: self.sh.mobility_model,
            time: s.time,
            tracing: s.trace.is_some(),
        };
        (&mut s.apps, &mut s.outbox, physics)
    }

    /// The epoch-frozen snapshot position — uniformly for local *and*
    /// remote receivers, which keeps the energy charge independent of the
    /// shard count.
    fn receiver_position(&self, to: NodeId) -> Point2 {
        self.rep.positions[to.index()]
    }

    /// Hearers come from the epoch-frozen snapshot, and the observations
    /// they would record are emitted as one grouped run entry per
    /// destination shard, applied at the next barrier — HELLO processing
    /// latency of at most one epoch, identical at every shard count.
    fn broadcast(&mut self, node: NodeId, pos: Point2, residual: f64) -> usize {
        let (s, rep) = (&mut *self.shard, self.rep);
        beacon::select_hearers(
            &rep.positions,
            &rep.alive,
            &rep.grid,
            node,
            pos,
            self.sh.cfg.range,
            &mut s.hearers,
        );
        s.beacon_stamp += 1;
        let stamp = s.beacon_stamp;
        for &h in &s.hearers {
            let (dsi, dslot) = self.sh.owner[h as usize];
            let run = &mut self.xout.obs[dsi as usize];
            if run.mark != stamp {
                run.mark = stamp;
                run.groups.push(ObsGroup {
                    time: s.time,
                    origin: node,
                    position: pos,
                    residual,
                    start: run.slots.len() as u32,
                    len: 0,
                });
            }
            run.slots.push(dslot);
            run.groups.last_mut().expect("group opened above").len += 1;
        }
        s.hearers.len()
    }

    /// Effects take hold on the shard's local queue and keyed trace, and on
    /// the epoch outbox: every delivery leaves as a keyed [`Dlv`] — local
    /// ones too, since enqueueing them early would consume the target's
    /// queue sequence out of global key order — and position and liveness
    /// changes leave as [`RepPatch`]es.
    fn apply(&mut self, actor: NodeId, slot: usize, fx: &mut EffectBuf, mut msg: Option<A::Msg>) {
        for i in 0..fx.len {
            let effect = fx.slots[i].take().expect("effect slot populated");
            match effect {
                Effect::Send { from, to, delay } => {
                    let msg = msg.take().expect("a Send effect pairs with the action's message");
                    let key = self.shard.ekey(self.sh.slot_of(from), from);
                    let arrival = self.shard.time + delay;
                    let (dsi, dslot) = self.sh.owner[to.index()];
                    let dlv = Dlv { key, arrival, from, to, slot: dslot, msg };
                    self.xout.dlv[dsi as usize].push(dlv);
                }
                Effect::Move { node, target, max_step } => {
                    let mut sub = EffectBuf::new();
                    let node_slot = self.sh.slot_of(node);
                    let p = &mut self.physics();
                    if let Some(to) =
                        mobility::move_node(p, node, node_slot, target, max_step, &mut sub)
                    {
                        self.xout.rep.push(RepPatch::Moved { node, to });
                    }
                    self.apply(node, node_slot, &mut sub, None);
                }
                Effect::Timer { node, delay, kind } => {
                    let (at, node_slot) = (self.shard.time + delay, self.sh.slot_of(node));
                    self.shard.push_event(at, node_slot, node, Event::timer(node, kind));
                }
                Effect::Kill { node } => {
                    let mut sub = EffectBuf::new();
                    let node_slot = self.sh.slot_of(node);
                    mobility::kill(&mut self.physics(), node, node_slot, &mut sub);
                    self.xout.rep.push(RepPatch::Died { node });
                    self.apply(node, node_slot, &mut sub, None);
                }
                Effect::Trace(event) => {
                    // Trace effects exist only while tracing (`Physics::tracing`).
                    let key = self.shard.ekey(slot, actor);
                    if let Some(trace) = &mut self.shard.trace {
                        trace.push((key, event));
                    }
                }
            }
        }
        fx.len = 0;
    }
}
