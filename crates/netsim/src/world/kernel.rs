//! The event loop: pops kernel events, runs application hooks, converts
//! their [`Action`]s into [`Effect`]s, and applies effects in order.
//!
//! The loop is written once, against the [`Engine`] trait, and driven by
//! two engines: [`World`] over its whole population, and each shard of the
//! sharded world over the nodes it owns. The physics rules in `delivery`,
//! `mobility` and `beacon` read and charge node state through a borrowed
//! [`Physics`] view and return every cross-cutting consequence — scheduling
//! a delivery or timer, killing a node, recording a trace event — as an
//! [`Effect`]. Only [`Engine::apply`] differs between the engines: `World`
//! applies effects to its queue, grid and trace ring; a shard applies them
//! to its outbox, replica patches and keyed trace. That makes `apply` the
//! single interception point for fault injection and sharding.

use imobif_energy::{MobilityCostModel, TxEnergyModel};
use imobif_geom::Point2;

use super::observe::KernelStats;
use super::{beacon, delivery, mobility, observe, World};
use crate::node::NodeStore;
use crate::trace::TraceEvent;
use crate::{
    Action, Application, EnergyLedger, NodeCtx, NodeId, Outbox, SimConfig, SimDuration, SimTime,
};

/// Internal kernel events.
#[derive(Debug)]
pub(super) enum Event<M> {
    /// A packet arriving at `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// An application timer firing at `node`.
    AppTimer { node: NodeId, tag: u64 },
    /// A periodic HELLO beacon due at `node`.
    HelloBeacon { node: NodeId },
    /// An externally scheduled failure (churn / duty-cycle schedules): take
    /// `node` out of service when the clock reaches the event, unless it
    /// already died.
    ScheduledKill { node: NodeId },
}

impl<M> Event<M> {
    /// The event an [`Effect::Timer`] of `kind` schedules for `node`.
    pub(super) fn timer(node: NodeId, kind: TimerKind) -> Self {
        match kind {
            TimerKind::App { tag } => Event::AppTimer { node, tag },
            TimerKind::Beacon => Event::HelloBeacon { node },
        }
    }
}

/// What an [`Effect::Timer`] wakes up when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// An application timer delivered to `Application::on_timer`.
    App {
        /// Opaque tag handed back to the application.
        tag: u64,
    },
    /// The node's next periodic HELLO beacon.
    Beacon,
}

/// A typed cross-cutting consequence returned by a subsystem and applied
/// by the kernel.
///
/// Subsystems mutate their own domain state directly (batteries, ledger,
/// positions, neighbor tables) but never reach into the event queue, the
/// trace ring, or another subsystem; those consequences are returned as
/// effects instead. The kernel applies each batch in push order, which
/// fixes the trace and scheduling order exactly (DESIGN.md §10):
///
/// * a successful send records `Sent` *then* schedules the delivery;
/// * an unaffordable send kills the sender (recording `Died`) *then*
///   records `Dropped`;
/// * a mid-step death records the partial `Moved` *then* `Died`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Schedule the in-flight message for delivery after `delay`. The
    /// message payload itself stays with the kernel (it is the one generic
    /// piece of an otherwise plain-data effect) and is paired with this
    /// effect when it is applied.
    Send {
        /// The transmitting node.
        from: NodeId,
        /// The receiving node.
        to: NodeId,
        /// Transmission delay (link rate + hop latency).
        delay: SimDuration,
    },
    /// Move `node` toward `target`, by at most `max_step` meters.
    Move {
        /// The moving node.
        node: NodeId,
        /// Where the node wants to end up.
        target: Point2,
        /// Per-packet movement budget in meters (paper §4).
        max_step: f64,
    },
    /// Schedule a wake-up for `node` after `delay`.
    Timer {
        /// The node to wake.
        node: NodeId,
        /// How far in the future the timer fires.
        delay: SimDuration,
        /// Which service the wake-up drives.
        kind: TimerKind,
    },
    /// Take `node` out of service (battery below the per-action
    /// requirement — the paper's death condition).
    Kill {
        /// The dying node.
        node: NodeId,
    },
    /// Record a kernel trace event.
    Trace(TraceEvent),
}

/// Fixed-capacity inline buffer collecting the effects of one subsystem
/// call. No operation produces more than two effects (see [`Effect`]), so
/// two slots suffice without ever touching the heap — the hot path stays
/// allocation-free, and the buffer stays small enough that its per-event
/// zero-initialization is noise.
pub(super) struct EffectBuf {
    pub(super) slots: [Option<Effect>; 2],
    pub(super) len: usize,
}

impl EffectBuf {
    #[inline]
    pub(super) const fn new() -> Self {
        EffectBuf { slots: [None; 2], len: 0 }
    }

    #[inline]
    pub(super) fn push(&mut self, effect: Effect) {
        self.slots[self.len] = Some(effect);
        self.len += 1;
    }
}

/// The node state the physics rules read and charge, borrowed from
/// whichever engine owns it for the duration of one rule.
///
/// `nodes` and `ledger` are indexed by the engine's local *slot* — the node
/// index in a [`World`], the position within its shard's columns in a
/// sharded world. Node ids in effects and trace records are always global.
pub(super) struct Physics<'a> {
    pub(super) nodes: &'a mut NodeStore,
    pub(super) ledger: &'a mut EnergyLedger,
    pub(super) stats: &'a mut KernelStats,
    pub(super) cfg: &'a SimConfig,
    pub(super) tx_model: &'a dyn TxEnergyModel,
    pub(super) mobility_model: &'a dyn MobilityCostModel,
    /// The engine's clock.
    pub(super) time: SimTime,
    /// Whether trace records can be observed. Rules construct
    /// [`Effect::Trace`] only when set, keeping the untraced hot path lean.
    pub(super) tracing: bool,
}

/// The message type an engine's applications exchange.
pub(super) type Msg<E> = <<E as Engine>::App as Application>::Msg;

/// One engine's side of the shared event loop: where node state lives, how
/// remote nodes look from here, and how an [`Effect`] takes hold.
/// [`dispatch`] and [`handle`] are written once against it; [`World`]
/// implements it over its live population, a shard over the nodes it owns
/// plus the epoch-frozen replica of everything else.
pub(super) trait Engine {
    type App: Application;

    /// Whether hooks may read other nodes' ground truth ([`NodeCtx`]'s
    /// HELLO-disabled mode). Shards cannot: remote state lives elsewhere.
    const GROUND_TRUTH: bool;

    /// The local slot of global node `id`.
    fn slot_of(&self, id: NodeId) -> usize;

    /// The applications, the reusable action outbox and the physics view,
    /// borrowed together for one hook call.
    fn parts(&mut self) -> (&mut [Self::App], &mut Outbox<Msg<Self>>, Physics<'_>);

    /// The physics view alone.
    fn physics(&mut self) -> Physics<'_> {
        self.parts().2
    }

    /// Where a sender sees receiver `to` when pricing a transmission: the
    /// live position in a [`World`], the replica snapshot in a shard.
    fn receiver_position(&self, to: NodeId) -> Point2;

    /// Selects the hearers of `node`'s HELLO beacon sent from `pos` (with
    /// [`beacon::select_hearers`]) and hands them the observation. Returns
    /// the fan-out.
    fn broadcast(&mut self, node: NodeId, pos: Point2, residual: f64) -> usize;

    /// Applies a batch of effects in push order. `actor`/`slot` is the node
    /// whose event produced them; `msg` carries the payload of the (at most
    /// one) [`Effect::Send`] in the batch.
    fn apply(&mut self, actor: NodeId, slot: usize, fx: &mut EffectBuf, msg: Option<Msg<Self>>);
}

/// Runs one application hook for `id` (at `slot`), then converts the
/// actions it pushed into effects and applies them, in push order.
///
/// The outbox is taken out of the engine for the duration of the call so
/// the action loop can borrow the engine mutably; its backing storage is
/// put back afterwards, so the steady state allocates nothing.
pub(super) fn dispatch<E: Engine, F>(e: &mut E, id: NodeId, slot: usize, f: F)
where
    F: FnOnce(&mut E::App, &NodeCtx<'_>, &mut Outbox<Msg<E>>),
{
    let mut outbox = {
        let (apps, outbox, p) = e.parts();
        let mut outbox = std::mem::take(outbox);
        outbox.clear();
        let ctx = NodeCtx {
            id,
            now: p.time,
            store: p.nodes,
            slot,
            truth: E::GROUND_TRUTH.then_some(&*p.nodes),
            tx_model: p.tx_model,
            mobility_model: p.mobility_model,
            hello_enabled: p.cfg.hello.enabled,
        };
        f(&mut apps[slot], &ctx, &mut outbox);
        outbox
    };
    for action in outbox.drain() {
        if !e.physics().nodes.is_alive(slot) {
            // A previous action in this batch killed the node.
            break;
        }
        let mut fx = EffectBuf::new();
        let msg = match action {
            Action::Send { to, bits, msg, category } => {
                let to_pos = e.receiver_position(to);
                delivery::send(&mut e.physics(), id, slot, to, to_pos, bits, category, &mut fx);
                Some(msg)
            }
            Action::SetTimer { delay, tag } => {
                fx.push(Effect::Timer { node: id, delay, kind: TimerKind::App { tag } });
                None
            }
            Action::MoveToward { target, max_step } => {
                fx.push(Effect::Move { node: id, target, max_step });
                None
            }
        };
        e.apply(id, slot, &mut fx, msg);
    }
    *e.parts().1 = outbox;
}

/// Processes one popped event — the body of both engines' event loops.
pub(super) fn handle<E: Engine>(e: &mut E, event: Event<Msg<E>>) {
    match event {
        Event::Deliver { from, to, msg } => {
            let slot = e.slot_of(to);
            let mut fx = EffectBuf::new();
            let delivered = delivery::receive(&mut e.physics(), from, to, slot, &mut fx);
            e.apply(to, slot, &mut fx, None);
            if delivered {
                dispatch(e, to, slot, |app, ctx, out| app.on_message(ctx, from, msg, out));
            }
        }
        Event::AppTimer { node, tag } => {
            let slot = e.slot_of(node);
            let p = e.physics();
            if p.nodes.is_alive(slot) {
                p.stats.timers_fired += 1;
                dispatch(e, node, slot, |app, ctx, out| app.on_timer(ctx, tag, out));
            }
        }
        Event::HelloBeacon { node } => {
            let slot = e.slot_of(node);
            let mut fx = EffectBuf::new();
            beacon::hello_beacon(e, node, slot, &mut fx);
            e.apply(node, slot, &mut fx, None);
        }
        Event::ScheduledKill { node } => {
            let slot = e.slot_of(node);
            if e.physics().nodes.is_alive(slot) {
                let mut fx = EffectBuf::new();
                fx.push(Effect::Kill { node });
                e.apply(node, slot, &mut fx, None);
            }
        }
    }
}

impl<A: Application> Engine for World<A> {
    type App = A;
    const GROUND_TRUTH: bool = true;

    fn slot_of(&self, id: NodeId) -> usize {
        id.index()
    }

    fn parts(&mut self) -> (&mut [A], &mut Outbox<A::Msg>, Physics<'_>) {
        (&mut self.apps, &mut self.outbox, self.core.physics())
    }

    fn receiver_position(&self, to: NodeId) -> Point2 {
        self.core.nodes.position(to.index())
    }

    /// Hearers observe the beacon immediately, in their live tables.
    fn broadcast(&mut self, node: NodeId, pos: Point2, residual: f64) -> usize {
        let core = &mut self.core;
        beacon::select_hearers(
            core.nodes.positions(),
            core.nodes.alive_flags(),
            &core.grid,
            node,
            pos,
            core.cfg.range,
            &mut core.hearers,
        );
        for &k in &core.hearers {
            let hearer = k as usize;
            if core.nodes.is_alive(hearer) {
                core.nodes.neighbor_table_mut(hearer).observe(node, pos, residual, core.time);
            }
        }
        core.hearers.len()
    }

    /// Effects take hold on the world's own queue, grid and trace ring;
    /// nothing here is keyed by the acting node.
    fn apply(&mut self, _: NodeId, _: usize, fx: &mut EffectBuf, mut msg: Option<A::Msg>) {
        for i in 0..fx.len {
            let effect = fx.slots[i].take().expect("effect slot populated");
            match effect {
                Effect::Send { from, to, delay } => {
                    let m = msg.take().expect("a Send effect pairs with the action's message");
                    self.queue.push(self.core.time + delay, Event::Deliver { from, to, msg: m });
                }
                Effect::Move { node, target, max_step } => {
                    let mut sub = EffectBuf::new();
                    let p = &mut self.core.physics();
                    if let Some(to) =
                        mobility::move_node(p, node, node.index(), target, max_step, &mut sub)
                    {
                        self.core.grid.update(node.raw(), to);
                    }
                    self.apply(node, node.index(), &mut sub, None);
                }
                Effect::Timer { node, delay, kind } => {
                    self.queue.push(self.core.time + delay, Event::timer(node, kind));
                }
                Effect::Kill { node } => {
                    let mut sub = EffectBuf::new();
                    mobility::kill(&mut self.core.physics(), node, node.index(), &mut sub);
                    self.core.grid.remove(node.raw());
                    self.apply(node, node.index(), &mut sub, None);
                }
                Effect::Trace(event) => observe::emit(&mut self.core, event),
            }
        }
        fx.len = 0;
    }
}

impl<A: Application> World<A> {
    /// Starts the world: schedules HELLO beacons and runs each
    /// application's `on_start` hook in node-id order.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        if self.core.cfg.hello.enabled {
            // Beacons fire immediately at start so neighbor tables are
            // populated before the first data packet; the queue's sequence
            // numbers give a deterministic beacon order.
            for i in 0..self.core.nodes.len() {
                self.queue.push(self.core.time, Event::HelloBeacon { node: NodeId::new(i as u32) });
            }
        }
        for i in 0..self.core.nodes.len() {
            if self.core.nodes.is_alive(i) {
                dispatch(self, NodeId::new(i as u32), i, |app, ctx, out| app.on_start(ctx, out));
            }
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the world was not started.
    pub fn step(&mut self) -> bool {
        assert!(self.started, "step() before start()");
        let Some((t, event)) = self.queue.pop() else {
            return false;
        };
        // The clock never runs backwards even if an action scheduled
        // something "in the past".
        self.core.time = self.core.time.max(t);
        self.events_processed += 1;
        handle(self, event);
        true
    }

    /// Runs until the clock passes `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.core.time = self.core.time.max(deadline);
    }

    /// Runs until `stop` returns `true` (checked after every event) or the
    /// queue drains. Returns the number of events processed.
    pub fn run_while<F: FnMut(&World<A>) -> bool>(&mut self, mut keep_going: F) -> u64 {
        let mut n = 0;
        while keep_going(self) && self.step() {
            n += 1;
        }
        n
    }

    /// Schedules an application timer from outside (used by experiment
    /// drivers to kick off flow sources).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.queue.push(self.core.time + delay, Event::AppTimer { node, tag });
    }

    /// Schedules `node` to fail (leave service) after `delay` — the hook
    /// churn and duty-cycle schedules lower into. When the event fires it
    /// flows through the ordinary [`Effect::Kill`] path, so the ledger
    /// records the death and a `Died` trace event is emitted exactly as for
    /// a battery death; a node that already died is left untouched.
    pub fn schedule_kill(&mut self, node: NodeId, delay: SimDuration) {
        self.queue.push(self.core.time + delay, Event::ScheduledKill { node });
    }
}
