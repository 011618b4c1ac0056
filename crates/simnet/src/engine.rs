//! The discrete-event engine with serialized actors.
//!
//! Actor (rank) code is written in blocking style, exactly like an MPI
//! program, and runs as a stackful [`Fiber`] that *yields* to the scheduler
//! wherever the program would block — one OS thread drives tens of
//! thousands of ranks. The engine serializes execution: at any moment
//! exactly one of {an actor, an event callback} runs. Virtual time advances
//! only inside the scheduler loop.
//!
//! # Determinism
//!
//! The scheduler interleaves two deterministic orders:
//!
//! * **Events** are totally ordered by [`EventKey`] `(time, class, origin,
//!   seq)`. Actor-posted events carry the actor's id and a per-actor
//!   sequence number; engine-posted events carry [`ENGINE_ORIGIN`] and an
//!   engine counter (which is itself deterministic because only one context
//!   runs at a time). They wait in two heaps under that one order: a
//!   `BinaryHeap` of callbacks, and an indexed min-heap of flow
//!   completions whose positions live in a slot-indexed side table, so a
//!   rate change moves a flow's event in place. The scheduler takes the
//!   smaller of the two tops. Keys must be unique; a heap cannot see a
//!   duplicate when it is pushed, so the check is made when it is popped —
//!   equal keys pop back to back — and panics with `event key collision`.
//! * **Actor releases** are totally ordered by `(wake time, actor id)`.
//!   They wait in a `BinaryHeap` with lazy deletion: a wake pushes a new
//!   entry instead of removing its actor's old one, and an entry
//!   `(t, id)` is live iff `id` is registered, is not the running actor,
//!   has its fiber in its slot, and its slot's pending wake is still
//!   `Some(t)`. Wakes only merge upward, so a superseded entry is always
//!   earlier than its replacement and is discarded when it surfaces; a
//!   finished actor's entries die with its slot.
//!
//! At each step the scheduler picks the earlier of the two; an actor release
//! wins a time tie against an event.
//!
//! Flow starts and completions change other flows' rates but do not move
//! their completion events: the changed flows wait in the flow model's
//! dirty set, one entry per flow. The scheduler drains that set before it
//! compares or pops a flow event and before it advances time, re-keying
//! each changed flow once, from its final rate, at the instant the
//! changes happened. It leaves the set pending only while the next step is
//! an actor release no later than now, or a callback at now in a class
//! below [`CLASS_FLOW`]; both come before every flow completion whatever
//! its key. So every flow event pops with the key an eager re-key after
//! each change would have given it, and [`NetStats::rekeys`] counts
//! events moved per drain, not per change. Re-solves of the rates stay
//! eager: deferring them changes float accumulation order.
//!
//! That is three queues — callbacks, flow completions, releases — on
//! purpose. One lazily pruned heap ordered `(time, Release(id) <
//! Event(class, origin, seq))`, with a flow rate change pushed as a new
//! entry, gives the same order and was measured slower (`wall_s` +18 % on
//! `sim_symm3d_64`, +30 % on `sim_symm25d_256`, 6 alternated pairs): every
//! rekey becomes a push, and a stale entry stays in the heap until it
//! surfaces, where the indexed flow heap moves one entry in place. Because actors may only schedule events
//! at or after their own local clocks and wakes never target the past, the
//! executed sequence — and therefore every virtual timestamp, trace span
//! order, and verify report — is identical across runs.
//!
//! # Actor protocol
//!
//! An actor is registered by id with [`Engine::register_fiber_at`]. Its
//! slot holds its suspended fiber and its one pending wake, under the
//! engine's one lock. The actor's body must call [`Engine::await_release`]
//! before touching anything else, block only via [`Engine::park`], and
//! call [`Engine::actor_finished`] when done (normally via a drop guard).
//! [`Engine::wake`] names its target by id and merges to the latest time:
//! a parked actor's release is queued at `(time, id)`; the running
//! actor's own wake (a self-wake) waits in its slot for its next `park`
//! to return at once; a wake for an id that is not registered (already
//! finished, or never registered) is ignored. Calling `await_release` or
//! `park` from outside a fiber is a bug and panics.
//!
//! The actor table is a hash map, so whatever walks it sorts the ids
//! first: [`Engine::deadlocked_actors`] lists them ascending, deadlocked
//! fibers are resumed to unwind in ascending id order, and
//! [`Engine::drain_fibers`] drops them in that order too.

use std::cmp::{self, Reverse};
use std::collections::BinaryHeap;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use crate::fiber::{self, Fiber};
use crate::flow::{FlowId, FlowNet, FlowSpec, ResourceId, ResourceKind, ResourceStats};
use crate::time::{SimDur, SimTime};
use crate::topology::{ClusterResources, ClusterSpec};

/// Origin id used for events scheduled by the engine itself (flow
/// completions, timer chains created inside callbacks).
pub const ENGINE_ORIGIN: u32 = u32::MAX;

/// Event class for flow-completion events (sorts after same-time actor
/// events so that, e.g., a wake posted "at" a flow's completion instant is
/// handled deterministically).
pub const CLASS_FLOW: u8 = 200;

/// A callback run by the event loop at its scheduled virtual time, with the
/// core lock released.
pub type Action = Box<dyn FnOnce(&Engine) + Send>;

/// Total ordering key for events: `(time, class, origin, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual time the event fires.
    pub time: SimTime,
    /// Secondary ordering class; lower classes fire first at equal times.
    pub class: u8,
    /// Posting actor (or [`ENGINE_ORIGIN`]).
    pub origin: u32,
    /// Per-origin monotonic sequence number.
    pub seq: u64,
}

/// A scheduled callback, ordered so that `BinaryHeap` (a max-heap) pops
/// the smallest key first.
struct Call {
    key: EventKey,
    action: Action,
}

impl PartialEq for Call {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Call {}

impl PartialOrd for Call {
    fn partial_cmp(&self, other: &Self) -> Option<cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Call {
    fn cmp(&self, other: &Self) -> cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A live flow's completion event and accounting, at its flow's slot.
struct FlowMeta {
    id: FlowId,
    /// Index of the flow's entry in [`FlowEvents::heap`].
    pos: usize,
    on_complete: Option<Action>,
    /// When the flow started, for queueing-delay accounting.
    started: SimTime,
    /// Seconds the flow would take at its full per-flow cap with no
    /// contention; the excess of actual over this is queueing delay.
    ideal_secs: f64,
}

/// Flow-completion events: a binary min-heap of `(key, slot)` plus the
/// slot-indexed [`FlowMeta`] holding each entry's heap position, so a
/// rate change moves an event in place (sift up or down) instead of
/// removing and re-inserting it.
#[derive(Default)]
struct FlowEvents {
    heap: Vec<(EventKey, u32)>,
    meta: Vec<Option<FlowMeta>>,
}

impl FlowEvents {
    fn peek(&self) -> Option<EventKey> {
        self.heap.first().map(|&(key, _)| key)
    }

    fn push(&mut self, key: EventKey, mut meta: FlowMeta) {
        let slot = meta.id.slot();
        meta.pos = self.heap.len();
        if slot == self.meta.len() {
            self.meta.push(Some(meta));
        } else {
            debug_assert!(self.meta[slot].is_none(), "flow slot still has an event");
            self.meta[slot] = Some(meta);
        }
        self.heap.push((key, slot as u32));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove the earliest event; returns its flow's meta.
    // The heap and the meta table hold the same flows by construction.
    #[allow(clippy::expect_used)]
    fn pop(&mut self) -> Option<FlowMeta> {
        let (_, slot) = *self.heap.first()?;
        self.swap(0, self.heap.len() - 1);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(self.meta[slot as usize].take().expect("flow meta missing"))
    }

    /// Move `id`'s event to time `t`; false if it is already there.
    // Every live flow has a queued event by construction.
    #[allow(clippy::expect_used)]
    fn rekey(&mut self, id: FlowId, t: SimTime) -> bool {
        let meta = self.meta[id.slot()].as_ref().expect("meta for active flow");
        let i = meta.pos;
        let old = self.heap[i].0.time;
        if old == t {
            return false;
        }
        self.heap[i].0.time = t;
        if t < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        true
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        for k in [i, j] {
            if let Some(m) = self.meta[self.heap[k].1 as usize].as_mut() {
                m.pos = k;
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 >= self.heap[parent].0 {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && self.heap[child].0 < self.heap[least].0 {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.swap(i, least);
            i = least;
        }
    }
}

/// Snapshot of one resource's registration and accumulated utilization.
#[derive(Debug, Clone)]
pub struct ResourceEntry {
    /// What the resource models.
    pub kind: ResourceKind,
    /// Registered capacity in bytes/second.
    pub capacity: f64,
    /// Busy/overlap time integrals, bytes carried, concurrency high-water.
    pub stats: ResourceStats,
}

/// Snapshot of network-level accounting, taken via [`Engine::net_stats`].
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// All registered resources, in registration order.
    pub resources: Vec<ResourceEntry>,
    /// Flows that ran to completion.
    pub completed_flows: u64,
    /// Sum over completed flows of (actual duration − contention-free
    /// duration at the flow's own cap), in seconds.
    pub total_queue_delay_secs: f64,
    /// Largest single-flow queueing delay, in seconds.
    pub max_queue_delay_secs: f64,
    /// Contended flow adds/removes that re-solved their component's
    /// max–min rates (uncontended ones take the fast path and skip it).
    pub resolves: u64,
    /// Σ over those re-solves of the component size, in flows.
    pub resolved_flows: u64,
    /// Flow-completion events moved to a new time by a drain of rate
    /// changes: once per flow per drain, however often its rate changed.
    pub rekeys: u64,
}

/// A registered actor: its suspended continuation and its pending wake.
struct ActorSlot {
    /// `None` while the fiber is running (the scheduler takes it out to
    /// resume it outside the core lock).
    fiber: Option<Fiber>,
    /// The release time waiting for this actor; wakes merge to the max.
    /// While the actor is not running, `Some(t)` means `(t, id)` is its
    /// live entry in `ready`. While it runs, this holds the scheduler's
    /// release time until `await_release` / `park` takes it, then any
    /// self-wake.
    wake: Option<SimTime>,
}

struct Core {
    now: SimTime,
    /// Callback events, smallest key on top.
    calls: BinaryHeap<Call>,
    /// Flow-completion events, ordered with `calls` by the same key.
    flow_events: FlowEvents,
    live: usize,
    engine_seq: u64,
    flows: FlowNet,
    /// Reused buffer for the flows a drain of rate changes re-keys.
    changed: Vec<FlowId>,
    flows_settled_at: SimTime,
    actors: FxHashMap<u32, ActorSlot>,
    /// Actor releases, smallest `(wake time, id)` on top; superseded
    /// entries stay until they surface (see [`Core::next_ready`]).
    ready: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The actor currently running, if any (set across one `resume`).
    current: Option<u32>,
    completed_flows: u64,
    total_queue_delay_secs: f64,
    max_queue_delay_secs: f64,
    rekeys: u64,
    deadlocked: bool,
    /// Actor ids that were parked when deadlock was declared.
    deadlock_actors: Vec<u32>,
    stopped: bool,
}

/// The virtual-time discrete-event engine. Shared by reference between the
/// scheduler and all actor fibers.
pub struct Engine {
    core: Mutex<Core>,
}

const DEADLOCK_MSG: &str = "simulation deadlock: every rank is blocked and no event is pending \
                            (mismatched send/recv or collective call order?)";

impl Engine {
    /// New engine at virtual time zero with no resources or actors.
    pub fn new() -> Engine {
        Engine {
            core: Mutex::new(Core {
                now: SimTime::ZERO,
                calls: BinaryHeap::new(),
                flow_events: FlowEvents::default(),
                live: 0,
                engine_seq: 0,
                flows: FlowNet::new(),
                changed: Vec::new(),
                flows_settled_at: SimTime::ZERO,
                actors: FxHashMap::default(),
                ready: BinaryHeap::new(),
                current: None,
                completed_flows: 0,
                total_queue_delay_secs: 0.0,
                max_queue_delay_secs: 0.0,
                rekeys: 0,
                deadlocked: false,
                deadlock_actors: Vec::new(),
                stopped: false,
            }),
        }
    }

    /// Register a network resource (must happen before flows use it).
    pub fn add_resource(&self, capacity: f64) -> ResourceId {
        self.core.lock().flows.add_resource(capacity)
    }

    /// Register a network resource labeled with what it models, for
    /// utilization accounting (see [`Engine::net_stats`]).
    pub fn add_resource_kind(&self, capacity: f64, kind: ResourceKind) -> ResourceId {
        self.core.lock().flows.add_resource_kind(capacity, kind)
    }

    /// Register a whole cluster's resources (NICs, memory channels, and —
    /// for a fat-tree fabric — per-link resources) in one lock
    /// acquisition and return the routing table.
    pub fn build_cluster(&self, spec: &ClusterSpec) -> ClusterResources {
        spec.build_resources(&mut self.core.lock().flows)
    }

    /// Snapshot per-resource utilization and flow-level queueing-delay
    /// accounting. Utilization integrals are settled up to the engine's
    /// current virtual time before the snapshot is taken.
    pub fn net_stats(&self) -> NetStats {
        let mut core = self.core.lock();
        let now = core.now;
        core.settle_flows(now);
        core.flows.settle_all();
        let (resolves, resolved_flows) = core.flows.solver_counts();
        NetStats {
            resources: core
                .flows
                .resources()
                .map(|(_, kind, capacity, stats)| ResourceEntry {
                    kind,
                    capacity,
                    stats,
                })
                .collect(),
            completed_flows: core.completed_flows,
            total_queue_delay_secs: core.total_queue_delay_secs,
            max_queue_delay_secs: core.max_queue_delay_secs,
            resolves,
            resolved_flows,
            rekeys: core.rekeys,
        }
    }

    /// Current virtual time of the event loop. Actor code should use its own
    /// local clock; this is primarily for event callbacks.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Whether the run ended in deadlock.
    pub fn deadlocked(&self) -> bool {
        self.core.lock().deadlocked
    }

    /// Actor ids, ascending, that were parked when deadlock was declared
    /// (empty if the run did not deadlock). Higher layers use this to
    /// build wait-for diagnoses.
    pub fn deadlocked_actors(&self) -> Vec<u32> {
        self.core.lock().deadlock_actors.clone()
    }

    /// Register an actor that becomes ready at `ready_at` (time zero for a
    /// rank, the post time for a collective-op actor). The scheduler resumes
    /// the fiber at its turns; the fiber's body must call
    /// [`Engine::await_release`] first, block only via [`Engine::park`],
    /// and call [`Engine::actor_finished`] before returning.
    pub fn register_fiber_at(&self, id: u32, fiber: Fiber, ready_at: SimTime) {
        let slot = ActorSlot {
            fiber: Some(fiber),
            wake: Some(ready_at),
        };
        let mut core = self.core.lock();
        debug_assert!(ready_at >= core.now, "actor {id} registered in the past");
        assert!(
            core.actors.insert(id, slot).is_none(),
            "actor {id} registered twice"
        );
        core.live += 1;
        core.ready.push(Reverse((ready_at, id)));
    }

    /// Mark an actor finished (called from the actor's body, including on
    /// unwind).
    // An unknown id here is engine-state corruption; crashing is correct.
    #[allow(clippy::expect_used)]
    pub fn actor_finished(&self, id: u32) {
        let mut core = self.core.lock();
        // Its entries in `ready` die with the slot.
        core.actors.remove(&id).expect("finishing unknown actor");
        core.live -= 1;
        if core.current == Some(id) {
            core.current = None;
        }
    }

    /// Consume the release time the scheduler deposited before resuming the
    /// calling actor for the first time. Must be the first engine call an
    /// actor's body makes; panics outside a fiber.
    pub fn await_release(&self) -> SimTime {
        assert!(
            fiber::in_fiber(),
            "Engine::await_release called outside a fiber actor"
        );
        self.core.lock().take_wake().unwrap_or(SimTime::ZERO)
    }

    /// Schedule an action at an explicit key. Callers must use unique
    /// per-origin sequence numbers: a key scheduled twice panics with
    /// `event key collision` when the scheduler reaches it.
    pub fn schedule(&self, key: EventKey, action: Action) {
        let mut core = self.core.lock();
        assert!(!core.stopped, "scheduling after the simulation has stopped");
        core.calls.push(Call { key, action });
    }

    /// Schedule an action with an engine-assigned sequence number. The
    /// engine counter is deterministic because exactly one context (actor or
    /// callback) runs at a time.
    pub fn schedule_engine(&self, time: SimTime, class: u8, action: Action) -> EventKey {
        let mut core = self.core.lock();
        assert!(!core.stopped, "scheduling after stop");
        let key = EventKey {
            time,
            class,
            origin: ENGINE_ORIGIN,
            seq: core.engine_seq,
        };
        core.engine_seq += 1;
        core.calls.push(Call { key, action });
        key
    }

    /// Start a bulk transfer. Must be called from an event callback (so that
    /// the flow starts exactly at the callback's virtual time);
    /// `on_complete` runs when the last byte arrives.
    ///
    /// Returns the flow id (useful only for diagnostics).
    pub fn start_flow(
        &self,
        resources: Vec<ResourceId>,
        cap: f64,
        bytes: f64,
        on_complete: Action,
    ) -> FlowId {
        let mut core = self.core.lock();
        assert!(!core.stopped, "starting a flow after stop");
        let now = core.now;
        core.settle_flows(now);
        let id = core.flows.add(FlowSpec {
            resources,
            cap,
            bytes,
        });
        let eta = core.flows.eta_secs(id);
        assert!(
            eta.is_finite(),
            "flow {id:?} has infinite ETA (zero rate with bytes remaining)"
        );
        let seq = core.engine_seq;
        core.engine_seq += 1;
        let key = EventKey {
            time: now + SimDur::from_secs_f64(eta),
            class: CLASS_FLOW,
            origin: ENGINE_ORIGIN,
            seq,
        };
        core.flow_events.push(
            key,
            FlowMeta {
                id,
                pos: 0,
                on_complete: Some(on_complete),
                started: now,
                ideal_secs: if cap > 0.0 { bytes / cap } else { 0.0 },
            },
        );
        id
    }

    /// Release actor `id` at virtual time `t`. May be called before the
    /// actor has actually gone to sleep (the wake is then consumed by its
    /// next `park`); repeated wakes merge to the latest time. A wake for an
    /// id that is not registered is ignored.
    pub fn wake(&self, id: u32, t: SimTime) {
        let mut core = self.core.lock();
        let c = &mut *core;
        let Some(slot) = c.actors.get_mut(&id) else {
            return;
        };
        if slot.wake.is_some_and(|o| o >= t) {
            return;
        }
        slot.wake = Some(t);
        // The running actor's wake waits in its slot; any other actor's
        // release is queued in `(time, id)` order, superseding its
        // earlier entry, if any.
        if c.current != Some(id) {
            c.ready.push(Reverse((t, id)));
        }
    }

    /// Consume the running actor's pending wake without sleeping. Waiters
    /// that find their condition satisfied *without* parking call this to
    /// clear a self-wake deposited while they were running.
    pub fn consume_pending(&self) -> Option<SimTime> {
        self.core.lock().take_wake()
    }

    /// Declare the running actor blocked and yield until the scheduler
    /// releases it. Returns the wake time; panics with a diagnostic if the
    /// simulation deadlocked. Panics outside a fiber.
    pub fn park(&self) -> SimTime {
        assert!(
            fiber::in_fiber(),
            "Engine::park called outside a fiber actor"
        );
        {
            let mut core = self.core.lock();
            // A wake deposited while we were running (self-wake): consume
            // it without a scheduler round-trip — the actor keeps running.
            if let Some(t) = core.take_wake() {
                return t;
            }
            core.current = None;
        }
        // The scheduler is blocked inside `Fiber::resume`; yielding returns
        // control to it. It resumes us with our release time in our slot
        // (or after declaring deadlock).
        fiber::fiber_yield();
        let mut core = self.core.lock();
        if core.deadlocked {
            drop(core);
            panic!("{DEADLOCK_MSG}");
        }
        match core.take_wake() {
            Some(t) => t,
            None => {
                drop(core);
                panic!("fiber resumed without a pending wake");
            }
        }
    }

    /// Run the scheduler until all actors have finished (or deadlock), on
    /// the caller's thread; actors are resumed inline.
    // The `expect`s below assert queue/flow-table agreement — invariants
    // whose violation means the engine itself is broken, not user error.
    #[allow(clippy::expect_used)]
    pub fn run_loop(&self) {
        enum Work {
            Event(Action),
            RunFiber(u32, Fiber),
            Deadlock(Vec<Fiber>),
            Return,
        }
        loop {
            let work: Work = {
                let mut core = self.core.lock();
                debug_assert!(
                    core.stopped || core.current.is_none(),
                    "an actor yielded without parking or finishing"
                );
                if core.stopped {
                    Work::Return
                } else if core.live == 0 {
                    core.stopped = true;
                    Work::Return
                } else {
                    let next_actor = core.next_ready();
                    if core.flows.has_rate_changes() && !core.precedes_every_flow(next_actor) {
                        core.apply_rate_changes();
                    }
                    let next_event = core.next_event();
                    match (next_actor, next_event) {
                        (None, None) => {
                            // Deadlock: release everyone, in id order,
                            // with a diagnostic.
                            core.deadlocked = true;
                            core.stopped = true;
                            let ids = core.actor_ids();
                            let fibers = ids
                                .iter()
                                .filter_map(|id| core.actors.get_mut(id)?.fiber.take())
                                .collect();
                            core.deadlock_actors = ids;
                            Work::Deadlock(fibers)
                        }
                        (Some((ta, id)), ev) if ev.is_none_or(|k| ta <= k.time) => {
                            // Release the earliest ready actor; actors win
                            // ties against same-time events. The release
                            // time stays in the slot for the actor to take.
                            core.ready.pop();
                            if ta > core.now {
                                core.now = ta;
                            }
                            core.current = Some(id);
                            let slot = core.actors.get_mut(&id).expect("ready actor missing");
                            debug_assert_eq!(slot.wake, Some(ta));
                            let fiber = slot.fiber.take().expect("fiber already running");
                            Work::RunFiber(id, fiber)
                        }
                        // The guard above always passes when there is no
                        // event, so this arm only ever sees `Some` events.
                        (_, next) => {
                            let next = next.expect("event queued");
                            debug_assert!(next.time >= core.now, "event in the past: {next:?}");
                            core.now = next.time;
                            let action = if core.flow_events.peek() == Some(next) {
                                let meta = core.flow_events.pop().expect("flow event queued");
                                core.finish_flow(meta)
                            } else {
                                core.calls.pop().expect("callback queued").action
                            };
                            // Equal keys pop back to back.
                            assert!(
                                core.next_event() != Some(next),
                                "event key collision: {next:?}"
                            );
                            Work::Event(action)
                        }
                    }
                }
            };
            match work {
                Work::Return => return,
                Work::Event(a) => a(self),
                Work::RunFiber(id, mut fiber) => {
                    fiber.resume();
                    // The fiber parked (put it back) or finished (its
                    // `actor_finished` removed the map entry; drop it).
                    let mut core = self.core.lock();
                    if let Some(slot) = core.actors.get_mut(&id) {
                        debug_assert!(slot.fiber.is_none());
                        slot.fiber = Some(fiber);
                    } else {
                        debug_assert!(fiber.done());
                    }
                }
                Work::Deadlock(fibers) => {
                    // Resume each suspended fiber once: its `park` sees the
                    // deadlock flag and panics, unwinding the fiber stack
                    // through the actor's own panic handling.
                    for mut fiber in fibers {
                        if !fiber.done() {
                            fiber.resume();
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Drop any fibers still registered (defensive cleanup after an
    /// abnormal run). Fibers are cancelled outside the core lock so their
    /// unwinding destructors may call back into the engine.
    pub fn drain_fibers(&self) {
        let mut held = Vec::new();
        {
            let mut core = self.core.lock();
            for id in core.actor_ids() {
                held.extend(core.actors.get_mut(&id).and_then(|s| s.fiber.take()));
            }
        }
        drop(held);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Core {
    /// Take the running actor's pending wake, if any.
    fn take_wake(&mut self) -> Option<SimTime> {
        let id = self.current?;
        self.actors.get_mut(&id)?.wake.take()
    }

    /// The earliest live actor release, `(wake time, id)`, left on top of
    /// `ready`; superseded entries above it are discarded on the way.
    fn next_ready(&mut self) -> Option<(SimTime, u32)> {
        while let Some(&Reverse((t, id))) = self.ready.peek() {
            let live = self.current != Some(id)
                && self
                    .actors
                    .get(&id)
                    .is_some_and(|slot| slot.fiber.is_some() && slot.wake == Some(t));
            if live {
                return Some((t, id));
            }
            self.ready.pop();
        }
        None
    }

    /// Every registered actor's id, ascending.
    fn actor_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.actors.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The smaller of the two event heaps' tops.
    fn next_event(&self) -> Option<EventKey> {
        let call = self.calls.peek().map(|c| c.key);
        match (call, self.flow_events.peek()) {
            (Some(c), Some(f)) => Some(c.min(f)),
            (c, f) => c.or(f),
        }
    }

    /// Whether the next step is known to come before every flow
    /// completion, re-keyed or not: an actor release no later than `now`,
    /// or a callback at `now` in a class below [`CLASS_FLOW`]. Only then
    /// may pending rate changes wait, because no flow key is compared.
    fn precedes_every_flow(&self, next_actor: Option<(SimTime, u32)>) -> bool {
        next_actor.is_some_and(|(t, _)| t <= self.now)
            || self
                .calls
                .peek()
                .is_some_and(|c| c.key.time == self.now && c.key.class < CLASS_FLOW)
    }

    /// Retire a flow whose completion event just popped at `self.now`:
    /// remove it from the flow model, account its queueing delay, and hand
    /// back its callback. The flows it sped up are re-keyed by the next
    /// drain.
    // A popped completion carries its callback by construction.
    #[allow(clippy::expect_used)]
    fn finish_flow(&mut self, mut meta: FlowMeta) -> Action {
        let now = self.now;
        self.settle_flows(now);
        self.flows.remove(meta.id);
        let actual = now.saturating_since(meta.started).as_secs_f64();
        let delay = (actual - meta.ideal_secs).max(0.0);
        self.completed_flows += 1;
        self.total_queue_delay_secs += delay;
        self.max_queue_delay_secs = self.max_queue_delay_secs.max(delay);
        meta.on_complete.take().expect("flow callback missing")
    }

    fn settle_flows(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.flows_settled_at);
        if dt > SimDur::ZERO {
            self.flows.progress(dt.as_secs_f64());
        }
        self.flows_settled_at = now;
    }

    /// Re-key the completion events of flows whose rates changed since the
    /// last drain, each once, from its final rate. Every add and remove
    /// since then happened at `flows_settled_at`, which is still `now`:
    /// time never advances past pending changes.
    fn apply_rate_changes(&mut self) {
        let now = self.flows_settled_at;
        debug_assert_eq!(now, self.now, "rate changes pending across a time step");
        let mut changed = std::mem::take(&mut self.changed);
        self.flows.drain_rate_changes(&mut changed);
        for &id in &changed {
            let eta = self.flows.eta_secs(id);
            assert!(
                eta.is_finite(),
                "flow {id:?} has infinite ETA (zero rate with bytes remaining)"
            );
            let t = now + SimDur::from_secs_f64(eta);
            if self.flow_events.rekey(id, t) {
                self.rekeys += 1;
            }
        }
        changed.clear();
        self.changed = changed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Drive a single-actor simulation: the actor body gets (engine, its
    /// id) after the scheduler releases it.
    fn run_one_actor<F>(engine: Arc<Engine>, body: F)
    where
        F: FnOnce(&Engine, u32) + Send + 'static,
    {
        let eng2 = engine.clone();
        let fiber = Fiber::new(128 * 1024, move || {
            eng2.await_release();
            body(&eng2, 0);
            eng2.actor_finished(0);
        });
        engine.register_fiber_at(0, fiber, SimTime::ZERO);
        engine.run_loop();
    }

    #[test]
    fn timer_event_wakes_actor_at_scheduled_time() {
        let engine = Arc::new(Engine::new());
        let woke_at = Arc::new(AtomicU64::new(0));
        let woke_at2 = woke_at.clone();
        run_one_actor(engine, move |eng, id| {
            // Schedule a wake at t = 5us, then park.
            eng.schedule(
                EventKey {
                    time: SimTime(5_000),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    e.wake(id, SimTime(5_000));
                }),
            );
            let t = eng.park();
            woke_at2.store(t.as_nanos(), Ordering::SeqCst);
        });
        assert_eq!(woke_at.load(Ordering::SeqCst), 5_000);
    }

    #[test]
    fn events_fire_in_key_order() {
        let engine = Arc::new(Engine::new());
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        let order2 = order.clone();
        run_one_actor(engine, move |eng, id| {
            for (i, t) in [(0u32, 9_000u64), (1, 3_000), (2, 3_000)] {
                let order3 = order2.clone();
                eng.schedule(
                    EventKey {
                        time: SimTime(t),
                        class: 0,
                        origin: 0,
                        seq: i as u64,
                    },
                    Box::new(move |e| {
                        order3.lock().push(i);
                        if i == 0 {
                            // Last event by time: release the actor.
                            e.wake(id, SimTime(9_000));
                        }
                    }),
                );
            }
            eng.park();
        });
        // Same-time events (1, 2) fire in seq order, then the later one (0).
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "event key collision")]
    fn scheduling_one_key_twice_panics() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, |eng, id| {
            let key = EventKey {
                time: SimTime(7),
                class: 0,
                origin: 0,
                seq: 0,
            };
            for _ in 0..2 {
                eng.schedule(key, Box::new(move |e| e.wake(id, SimTime(7))));
            }
            eng.park();
        });
    }

    #[test]
    fn flow_completion_time_matches_bandwidth() {
        let engine = Arc::new(Engine::new());
        let nic = engine.add_resource(1e9); // 1 GB/s
        let done_at = Arc::new(AtomicU64::new(0));
        let done_at2 = done_at.clone();
        run_one_actor(engine, move |eng, id| {
            // Kick off the flow from an event so it starts at t=0 exactly.
            eng.schedule(
                EventKey {
                    time: SimTime(0),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    e.start_flow(
                        vec![nic],
                        1e9,
                        1_000_000.0, // 1 MB at 1 GB/s = 1 ms
                        Box::new(move |e2| {
                            e2.wake(id, e2.now());
                        }),
                    );
                }),
            );
            let t = eng.park();
            done_at2.store(t.as_nanos(), Ordering::SeqCst);
        });
        let t = done_at.load(Ordering::SeqCst);
        assert!((t as i64 - 1_000_000).abs() < 10, "flow done at {t}ns");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Two 1 MB flows on one 1 GB/s NIC started together: each runs at
        // 0.5 GB/s and finishes at 2 ms (fair sharing, work conservation).
        let engine = Arc::new(Engine::new());
        let nic = engine.add_resource(1e9);
        let done = Arc::new(Mutex::new(Vec::<u64>::new()));
        let done2 = done.clone();
        run_one_actor(engine, move |eng, id| {
            let done3 = done2.clone();
            eng.schedule(
                EventKey {
                    time: SimTime(0),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    let remaining = Arc::new(AtomicU64::new(2));
                    for _ in 0..2 {
                        let done4 = done3.clone();
                        let rem = remaining.clone();
                        e.start_flow(
                            vec![nic],
                            1e9,
                            1_000_000.0,
                            Box::new(move |e2| {
                                done4.lock().push(e2.now().as_nanos());
                                if rem.fetch_sub(1, Ordering::SeqCst) == 1 {
                                    e2.wake(id, e2.now());
                                }
                            }),
                        );
                    }
                }),
            );
            eng.park();
        });
        let times = done.lock().clone();
        assert_eq!(times.len(), 2);
        for t in times {
            assert!((t as i64 - 2_000_000).abs() < 10, "finished at {t}ns");
        }
    }

    #[test]
    fn a_same_instant_flow_burst_keeps_its_completion_times_and_order() {
        // Six flows start in one callback at t = 0 on one 1 GB/s NIC,
        // which the second flow already saturates: every start re-solves
        // the component and changes the earlier flows' rates at the same
        // instant. Flow 5 is capped below the fair share. Flows 0 and 3,
        // then 1 and 2, complete in bursts at one instant each; each
        // callback records `(index, ns)` and the last one releases the
        // actor.
        let engine = Arc::new(Engine::new());
        let nic = engine.add_resource(1e9);
        let done = Arc::new(Mutex::new(Vec::<(usize, u64)>::new()));
        let done2 = done.clone();
        run_one_actor(engine, move |eng, id| {
            let done3 = done2.clone();
            eng.schedule(
                EventKey {
                    time: SimTime(0),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    let flows = [
                        (1e9, 1e6),
                        (1e9, 2e6),
                        (1e9, 2e6),
                        (1e9, 1e6),
                        (1e9, 3e6),
                        (5e7, 5e5),
                    ];
                    let remaining = Arc::new(AtomicU64::new(flows.len() as u64));
                    for (i, (cap, bytes)) in flows.into_iter().enumerate() {
                        let done4 = done3.clone();
                        let rem = remaining.clone();
                        e.start_flow(
                            vec![nic],
                            cap,
                            bytes,
                            Box::new(move |e2| {
                                done4.lock().push((i, e2.now().as_nanos()));
                                if rem.fetch_sub(1, Ordering::SeqCst) == 1 {
                                    e2.wake(id, e2.now());
                                }
                            }),
                        );
                    }
                }),
            );
            eng.park();
        });
        assert_eq!(
            *done.lock(),
            vec![
                (0, 5_263_158),
                (3, 5_263_158),
                (1, 8_421_053),
                (2, 8_421_053),
                (4, 9_473_685),
                (5, 10_000_000),
            ]
        );
    }

    #[test]
    fn deadlock_is_detected_and_panics_parked_actor() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine.clone(), |eng, _| {
            // Park with nothing scheduled: guaranteed deadlock.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.park();
            }));
            assert!(result.is_err(), "park should panic on deadlock");
        });
        assert!(engine.deadlocked());
        assert_eq!(engine.deadlocked_actors(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "Engine::park called outside a fiber actor")]
    fn park_outside_a_fiber_panics() {
        Engine::new().park();
    }

    #[test]
    #[should_panic(expected = "Engine::await_release called outside a fiber actor")]
    fn await_release_outside_a_fiber_panics() {
        Engine::new().await_release();
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, move |eng, id| {
            // Self-wake (e.g. a request completed before the waiter looked).
            eng.wake(id, SimTime(42));
            let t = eng.park();
            assert_eq!(t.as_nanos(), 42);
        });
    }

    #[test]
    fn merged_wakes_keep_latest_time() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, move |eng, id| {
            eng.wake(id, SimTime(10));
            eng.wake(id, SimTime(30));
            eng.wake(id, SimTime(20));
            assert_eq!(eng.park().as_nanos(), 30);
        });
    }

    #[test]
    fn routed_wakes_to_a_parked_actor_merge_into_one_release() {
        // Both orders: the earlier wake must neither release the actor nor
        // leave a second entry in the ready queue.
        for times in [[30, 20], [20, 30]] {
            let engine = Arc::new(Engine::new());
            let released = Arc::new(Mutex::new(Vec::<u64>::new()));
            let released2 = released.clone();
            run_one_actor(engine, move |eng, id| {
                eng.schedule(
                    EventKey {
                        time: SimTime(10),
                        class: 0,
                        origin: 0,
                        seq: 0,
                    },
                    Box::new(move |e| {
                        for t in times {
                            e.wake(id, SimTime(t));
                        }
                        e.schedule_engine(
                            SimTime(50),
                            0,
                            Box::new(move |e2| e2.wake(id, SimTime(50))),
                        );
                    }),
                );
                released2.lock().push(eng.park().as_nanos());
                released2.lock().push(eng.park().as_nanos());
            });
            assert_eq!(*released.lock(), vec![30, 50], "wakes at {times:?}");
        }
    }

    #[test]
    fn superseded_wakes_release_once_in_time_id_order() {
        // One event raises both parked actors' wakes twice; the earlier
        // wake of each is superseded and must release nobody.
        let engine = Arc::new(Engine::new());
        let released = Arc::new(Mutex::new(Vec::<(u64, u32)>::new()));
        let released2 = released.clone();
        run_fiber_actors(&engine, 2, move |i, eng, id| {
            if i == 0 {
                eng.schedule(
                    EventKey {
                        time: SimTime(5),
                        class: 1,
                        origin: id,
                        seq: 0,
                    },
                    Box::new(|e| {
                        for (to, t) in [(0, 10), (1, 20), (0, 30), (1, 15)] {
                            e.wake(to, SimTime(t));
                        }
                    }),
                );
            }
            let t = eng.park().as_nanos();
            assert_eq!(t, [30, 20][i], "actor {id} released at its merged time");
            released2.lock().push((t, id));
        });
        assert_eq!(*released.lock(), vec![(20, 1), (30, 0)]);
        assert!(!engine.deadlocked());
    }

    #[test]
    fn deadlock_lists_and_unwinds_actors_in_id_order() {
        use crate::trace::op_actor_id;
        let ids = [
            op_actor_id(3, 1),
            7,
            op_actor_id(0, 2),
            2,
            op_actor_id(3, 0),
            11,
            0,
            op_actor_id(1, 5),
            5,
            op_actor_id(0, 0),
            1,
            op_actor_id(2, 9),
        ];
        let engine = Arc::new(Engine::new());
        let unwound = Arc::new(Mutex::new(Vec::<u32>::new()));
        for id in ids {
            let eng2 = engine.clone();
            let unwound2 = unwound.clone();
            let fiber = Fiber::new(128 * 1024, move || {
                eng2.await_release();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    eng2.park();
                }));
                assert!(result.is_err(), "actor {id}: park should panic on deadlock");
                unwound2.lock().push(id);
                eng2.actor_finished(id);
            });
            engine.register_fiber_at(id, fiber, SimTime::ZERO);
        }
        engine.run_loop();
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        assert!(engine.deadlocked());
        assert_eq!(engine.deadlocked_actors(), sorted);
        assert_eq!(*unwound.lock(), sorted);
    }

    #[test]
    fn waking_a_finished_actor_is_a_no_op() {
        let engine = Arc::new(Engine::new());
        let woke = Arc::new(AtomicU64::new(0));
        let woke2 = woke.clone();
        run_fiber_actors(&engine, 2, move |i, eng, id| {
            if i == 0 {
                return; // finishes before actor 1 first runs
            }
            eng.wake(0, SimTime(5));
            eng.schedule(
                EventKey {
                    time: SimTime(10),
                    class: 1,
                    origin: id,
                    seq: 0,
                },
                Box::new(move |e| {
                    e.wake(0, SimTime(10));
                    e.wake(id, SimTime(10));
                }),
            );
            woke2.store(eng.park().as_nanos(), Ordering::SeqCst);
        });
        assert_eq!(woke.load(Ordering::SeqCst), 10);
        assert!(!engine.deadlocked());
        assert!(engine.deadlocked_actors().is_empty());
    }

    /// Run `n` fiber actors under the scheduler; each body gets its index,
    /// the engine, and its id.
    fn run_fiber_actors<F>(engine: &Arc<Engine>, n: usize, body: F)
    where
        F: Fn(usize, Arc<Engine>, u32) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        for i in 0..n {
            let eng2 = engine.clone();
            let body2 = body.clone();
            let fiber = Fiber::new(
                128 * 1024,
                Box::new(move || {
                    eng2.await_release();
                    body2(i, eng2.clone(), i as u32);
                    eng2.actor_finished(i as u32);
                }),
            );
            engine.register_fiber_at(i as u32, fiber, SimTime::ZERO);
        }
        engine.run_loop();
    }

    #[test]
    fn fiber_actors_sleep_and_wake_in_time_order() {
        let engine = Arc::new(Engine::new());
        let order = Arc::new(Mutex::new(Vec::<(u64, usize)>::new()));
        let order2 = order.clone();
        run_fiber_actors(&engine, 8, move |i, eng, id| {
            let seq = AtomicU64::new(0);
            // Staggered virtual sleeps; lower i sleeps longer.
            let mut t = 0u64;
            for round in 0..5u64 {
                let at = t + 1_000 * (8 - i as u64) + round;
                eng.schedule(
                    EventKey {
                        time: SimTime(at),
                        class: 1,
                        origin: i as u32,
                        seq: seq.fetch_add(1, Ordering::Relaxed),
                    },
                    Box::new(move |e| e.wake(id, SimTime(at))),
                );
                t = eng.park().as_nanos();
                assert_eq!(t, at);
            }
            order2.lock().push((t, i));
        });
        let got = order.lock().clone();
        assert_eq!(got.len(), 8);
        // Completion order must be sorted by (final wake time, id).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn fiber_deadlock_unwinds_all_fibers() {
        let engine = Arc::new(Engine::new());
        let unwound = Arc::new(AtomicU64::new(0));
        let u2 = unwound.clone();
        run_fiber_actors(&engine, 4, move |i, eng, _| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Everyone parks with nothing scheduled after actor 0's
                // startup event: guaranteed deadlock.
                eng.park();
            }));
            if let Err(p) = result {
                let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("simulation deadlock"), "actor {i}: {msg}");
                u2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(engine.deadlocked());
        assert_eq!(unwound.load(Ordering::SeqCst), 4);
        assert_eq!(engine.deadlocked_actors().len(), 4);
    }

    #[test]
    fn same_time_wakes_release_in_id_order_across_runs() {
        // The fig6 fix: same-virtual-time releases must be ordered by actor
        // id, identically on every run.
        let go = || {
            let engine = Arc::new(Engine::new());
            let order = Arc::new(Mutex::new(Vec::<usize>::new()));
            let order2 = order.clone();
            run_fiber_actors(&engine, 16, move |i, eng, id| {
                eng.schedule(
                    EventKey {
                        time: SimTime(500),
                        class: 1,
                        origin: i as u32,
                        seq: 0,
                    },
                    Box::new(move |e| e.wake(id, SimTime(500))),
                );
                eng.park();
                order2.lock().push(i);
            });
            Arc::try_unwrap(order).unwrap().into_inner()
        };
        let a = go();
        assert_eq!(a, (0..16).collect::<Vec<_>>());
        assert_eq!(a, go());
    }

    #[test]
    fn fiber_rank_panic_is_catchable_inside_fiber() {
        // A rank body panic caught inside the fiber (as simmpi does) lets
        // the rest of the simulation proceed.
        let engine = Arc::new(Engine::new());
        let survived = Arc::new(AtomicU64::new(0));
        let s2 = survived.clone();
        run_fiber_actors(&engine, 2, move |i, eng, id| {
            if i == 0 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    panic!("rank 0 exploded");
                }));
                assert!(r.is_err());
            } else {
                eng.schedule(
                    EventKey {
                        time: SimTime(100),
                        class: 1,
                        origin: i as u32,
                        seq: 0,
                    },
                    Box::new(move |e| e.wake(id, SimTime(100))),
                );
                eng.park();
                s2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(survived.load(Ordering::SeqCst), 1);
        assert!(!engine.deadlocked());
    }
}
