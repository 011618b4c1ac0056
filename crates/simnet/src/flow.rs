//! Max–min fair flow-level network model.
//!
//! A *flow* is a bulk data transfer that consumes capacity on a set of
//! *resources* (NIC transmit/receive sides, intra-node memory channels,
//! fabric links, …) and is additionally limited by a per-flow rate cap (the
//! "single stream" bandwidth — the reason one MPI process cannot saturate a
//! NIC, which is the root motivation of the paper, §V-A / Fig. 3).
//!
//! Rates are assigned by progressive filling (max–min fairness): repeatedly
//! find the most-constrained bottleneck — either a resource whose fair share
//! is smallest or a flow whose own cap is below every share — fix the
//! affected flows at that rate, remove the consumed capacity, and continue.
//!
//! The allocator is deterministic: flows are iterated in `FlowId` order and
//! resources in index order, so equal inputs always produce equal rates.
//!
//! # Lazy settlement
//!
//! The model is designed for simulations with tens of thousands of mostly
//! independent flows, so nothing is done eagerly per time step:
//!
//! * [`FlowNet::progress`] is O(1): it only advances the model's clock.
//!   Remaining-byte counters are *settled* on demand (when a flow's rate
//!   changes, when it is removed, or when [`FlowNet::settle_all`] is called
//!   before reading statistics).
//! * [`FlowNet::add`] takes a fast path when every resource the new flow
//!   touches has spare capacity for the full per-flow cap: the flow simply
//!   runs at its cap and no other rate changes. Likewise [`FlowNet::remove`]
//!   skips recomputation when none of the flow's resources is saturated
//!   (removing a flow from an unsaturated resource cannot raise anyone
//!   else's max–min rate). Only contended events trigger a full progressive
//!   filling pass.
//! * Rate changes are recorded in a dirty set the caller drains with
//!   [`FlowNet::take_rate_changes`] to re-key completion events, instead of
//!   re-deriving every flow's ETA after every change.
//!
//! Per-resource busy/overlap integrals are maintained incrementally from
//! activity transition counts, so they are exact (not sampled) while still
//! being O(changes), not O(flows · steps).

use std::collections::{BTreeMap, HashMap};

/// Identifies a capacity-constrained resource (e.g. one NIC direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

/// What a resource models, for utilization accounting. Purely a label: the
/// allocator treats all resources identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Transmit side of the NIC of node `node`.
    NicTx(u32),
    /// Receive side of the NIC of node `node`.
    NicRx(u32),
    /// Intra-node memory channel of node `node`.
    Mem(u32),
    /// Per-rank CPU resource (e.g. the reduction-compute stream of `rank`).
    Cpu(u32),
    /// A fabric link (leaf uplink, spine trunk, dragonfly local/global
    /// connection, …). The payload is an opaque link index assigned by the
    /// topology builder.
    Link(u32),
    /// Unlabeled resource.
    Other,
}

impl ResourceKind {
    /// True for either direction of a NIC.
    pub fn is_nic(&self) -> bool {
        matches!(self, ResourceKind::NicTx(_) | ResourceKind::NicRx(_))
    }

    /// Stable display label, e.g. `"nic_tx/3"`.
    pub fn label(&self) -> String {
        match self {
            ResourceKind::NicTx(n) => format!("nic_tx/{n}"),
            ResourceKind::NicRx(n) => format!("nic_rx/{n}"),
            ResourceKind::Mem(n) => format!("mem/{n}"),
            ResourceKind::Cpu(r) => format!("cpu/{r}"),
            ResourceKind::Link(l) => format!("link/{l}"),
            ResourceKind::Other => "other".to_string(),
        }
    }
}

/// Utilization accounting for one resource, integrated over virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceStats {
    /// Seconds during which at least one flow was actively moving bytes
    /// through this resource.
    pub busy_secs: f64,
    /// Seconds during which at least two flows were concurrently moving
    /// bytes through this resource — the paper's "overlapped communication"
    /// condition.
    pub overlap2_secs: f64,
    /// Total bytes carried through this resource.
    pub bytes: f64,
    /// High-water mark of concurrently attached flows.
    pub max_concurrent: u32,
}

/// Identifies an active flow. Ids are assigned monotonically and never
/// reused, so `FlowId` order is creation order — part of the determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Description of a new flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources this flow consumes capacity on (typically source NIC tx and
    /// destination NIC rx, plus any fabric links on the route, or a node
    /// memory channel for intra-node flows). Duplicates are allowed and are
    /// counted once.
    pub resources: Vec<ResourceId>,
    /// Per-flow rate cap in bytes/second (single-stream bandwidth).
    pub cap: f64,
    /// Bytes to transfer.
    pub bytes: f64,
}

#[derive(Debug)]
struct Flow {
    /// Sorted, deduplicated.
    resources: Vec<ResourceId>,
    cap: f64,
    /// Bytes still to transfer as of `settled_at`.
    remaining: f64,
    /// Current max–min fair rate in bytes/second.
    rate: f64,
    /// Model time this flow's `remaining` was last brought up to date.
    settled_at: f64,
    /// Whether this flow currently counts toward its resources' busy /
    /// overlap integrals (rate > 0 and bytes remaining).
    active: bool,
}

#[derive(Debug)]
struct Res {
    capacity: f64,
    kind: ResourceKind,
    stats: ResourceStats,
    /// Flows currently attached (active or not).
    nflows: u32,
    /// Sum of attached flows' current rates.
    rate_sum: f64,
    /// Attached flows currently moving bytes.
    active: u32,
    /// Model time the busy/overlap integrals were last brought up to date.
    integrated_at: f64,
    /// Ids of the attached flows, kept sorted for deterministic traversal.
    /// Used to walk the flow↔resource sharing graph so contended
    /// recomputation can stay scoped to one connected component.
    attached: std::collections::BTreeSet<FlowId>,
}

/// The set of active flows plus the fixed resource capacities.
///
/// `FlowNet` keeps its own clock, advanced by the caller (the engine) via
/// [`FlowNet::progress`]; all per-flow byte accounting is lazy against that
/// clock (see the module docs).
#[derive(Debug, Default)]
pub struct FlowNet {
    res: Vec<Res>,
    flows: BTreeMap<FlowId, Flow>,
    next_id: u64,
    now: f64,
    /// Flows whose rate changed since the last `take_rate_changes`. May
    /// contain duplicates and ids that have since completed.
    dirty: Vec<FlowId>,
}

/// Relative tolerance when deciding whether a resource has room for one more
/// cap-rate flow (fast-path add) or is saturated (slow-path remove). Much
/// larger than the ~1e-13 relative drift incremental `rate_sum` updates can
/// accumulate, and much smaller than any physically meaningful share.
const SAT_EPS: f64 = 1e-9;

/// Bring one flow's `remaining` up to `now`, crediting moved bytes to its
/// resources. Free function so callers can split borrows of the flow map and
/// the resource table.
fn settle_flow(res: &mut [Res], f: &mut Flow, now: f64) {
    let dt = now - f.settled_at;
    if dt > 0.0 {
        let moved = (f.rate * dt).min(f.remaining);
        if moved > 0.0 {
            for r in &f.resources {
                res[r.0 as usize].stats.bytes += moved;
            }
        }
        f.remaining -= moved;
    }
    f.settled_at = now;
}

/// Bring one resource's busy/overlap integrals up to `now` at its current
/// activity level. Must be called *before* the activity count changes.
fn integrate_res(r: &mut Res, now: f64) {
    let dt = now - r.integrated_at;
    if dt > 0.0 {
        if r.active >= 1 {
            r.stats.busy_secs += dt;
        }
        if r.active >= 2 {
            r.stats.overlap2_secs += dt;
        }
    }
    r.integrated_at = now;
}

impl FlowNet {
    /// Create an empty network with no resources.
    pub fn new() -> FlowNet {
        FlowNet::default()
    }

    /// Register a resource with the given capacity (bytes/second) and return
    /// its id. Capacities are fixed for the lifetime of the network.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        self.add_resource_kind(capacity, ResourceKind::Other)
    }

    /// Register a resource labeled with what it models (NIC side, memory
    /// channel, CPU, fabric link). The label only affects utilization
    /// reporting.
    pub fn add_resource_kind(&mut self, capacity: f64, kind: ResourceKind) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        let id = ResourceId(self.res.len() as u32);
        self.res.push(Res {
            capacity,
            kind,
            stats: ResourceStats::default(),
            nflows: 0,
            rate_sum: 0.0,
            active: 0,
            integrated_at: self.now,
            attached: std::collections::BTreeSet::new(),
        });
        id
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.res.len()
    }

    /// Add a flow and assign its rate (recomputing other flows' rates only
    /// if the new flow contends with them). Returns the new flow's id.
    ///
    /// A zero-byte flow is legal; it will report an ETA of zero.
    pub fn add(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.cap.is_finite() && spec.cap > 0.0,
            "flow cap must be positive and finite, got {}",
            spec.cap
        );
        assert!(
            spec.bytes.is_finite() && spec.bytes >= 0.0,
            "flow size must be non-negative, got {}",
            spec.bytes
        );
        let mut resources = spec.resources;
        resources.sort_unstable();
        resources.dedup();
        for r in &resources {
            assert!((r.0 as usize) < self.res.len(), "unknown resource {r:?}");
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let now = self.now;

        // Fast path: every touched resource has room for a full cap-rate
        // flow, so the new flow runs at its cap and nobody else changes.
        let fits = resources.iter().all(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum + spec.cap <= res.capacity * (1.0 + SAT_EPS)
        });

        let mut flow = Flow {
            resources,
            cap: spec.cap,
            remaining: spec.bytes,
            rate: 0.0,
            settled_at: now,
            active: false,
        };
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows += 1;
            res.stats.max_concurrent = res.stats.max_concurrent.max(res.nflows);
            res.attached.insert(id);
        }
        if fits {
            flow.rate = spec.cap;
            flow.active = flow.remaining > 0.0;
            for r in &flow.resources {
                let res = &mut self.res[r.0 as usize];
                res.rate_sum += spec.cap;
                if flow.active {
                    integrate_res(res, now);
                    res.active += 1;
                }
            }
            self.dirty.push(id);
            self.flows.insert(id, flow);
        } else {
            let seeds = flow.resources.clone();
            self.flows.insert(id, flow);
            self.recompute_component(&seeds);
        }
        id
    }

    /// Remove a flow (complete or cancelled), recomputing other flows' rates
    /// only if the removed flow was crossing a saturated resource. Returns
    /// the bytes it still had outstanding.
    // Removing an id the table does not hold is caller-side corruption.
    #[allow(clippy::expect_used)]
    pub fn remove(&mut self, id: FlowId) -> f64 {
        let now = self.now;
        let mut flow = self.flows.remove(&id).expect("removing unknown flow");
        settle_flow(&mut self.res, &mut flow, now);
        // If none of the flow's resources is saturated, no other flow is
        // bottlenecked there, so removing this flow cannot raise anyone's
        // max–min rate: detach incrementally and skip the global pass.
        let saturated = flow.resources.iter().any(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum >= res.capacity * (1.0 - SAT_EPS)
        });
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows -= 1;
            res.rate_sum -= flow.rate;
            if flow.active {
                integrate_res(res, now);
                res.active -= 1;
            }
            res.attached.remove(&id);
        }
        if saturated {
            self.recompute_component(&flow.resources);
        }
        flow.remaining
    }

    /// Advance the model clock by `dt_secs`. O(1): remaining-byte counters
    /// and utilization integrals are settled lazily (see the module docs).
    pub fn progress(&mut self, dt_secs: f64) {
        debug_assert!(dt_secs >= 0.0);
        self.now += dt_secs;
    }

    /// Settle every flow's remaining-byte counter and every resource's
    /// utilization integrals up to the current model time. Call before
    /// reading [`FlowNet::resource_stats`]-style aggregates for a snapshot
    /// that includes the interval since the last rate change.
    pub fn settle_all(&mut self) {
        let now = self.now;
        for f in self.flows.values_mut() {
            settle_flow(&mut self.res, f, now);
        }
        for r in &mut self.res {
            integrate_res(r, now);
        }
    }

    /// Drain the set of flows whose rate changed since the last call,
    /// deduplicated, in id order, restricted to flows still present. The
    /// caller uses this to re-key completion events after an add/remove.
    pub fn take_rate_changes(&mut self) -> Vec<FlowId> {
        let mut d = std::mem::take(&mut self.dirty);
        d.sort_unstable();
        d.dedup();
        d.retain(|id| self.flows.contains_key(id));
        d
    }

    /// Current rate of a flow in bytes/second.
    pub fn rate(&self, id: FlowId) -> f64 {
        self.flows[&id].rate
    }

    /// Bytes outstanding as of the current model time.
    pub fn remaining(&self, id: FlowId) -> f64 {
        let f = &self.flows[&id];
        let dt = (self.now - f.settled_at).max(0.0);
        (f.remaining - f.rate * dt).max(0.0)
    }

    /// Seconds from now until the flow finishes at its current rate
    /// (`f64::INFINITY` if its rate is zero and bytes remain; zero-byte
    /// flows finish immediately).
    pub fn eta_secs(&self, id: FlowId) -> f64 {
        let rem = self.remaining(id);
        let rate = self.flows[&id].rate;
        if rem <= 0.0 {
            0.0
        } else if rate <= 0.0 {
            f64::INFINITY
        } else {
            rem / rate
        }
    }

    /// The kind label a resource was registered with.
    pub fn resource_kind(&self, id: ResourceId) -> ResourceKind {
        self.res[id.0 as usize].kind
    }

    /// The fixed capacity a resource was registered with (bytes/second).
    pub fn resource_capacity(&self, id: ResourceId) -> f64 {
        self.res[id.0 as usize].capacity
    }

    /// Accumulated utilization of one resource, settled up to the current
    /// model time.
    pub fn resource_stats(&mut self, id: ResourceId) -> ResourceStats {
        self.settle_all();
        self.res[id.0 as usize].stats
    }

    /// Iterate `(id, kind, capacity, stats)` over all registered resources.
    /// Stats reflect the last settlement point; call
    /// [`FlowNet::settle_all`] first for an up-to-the-instant snapshot.
    pub fn resources(
        &self,
    ) -> impl Iterator<Item = (ResourceId, ResourceKind, f64, ResourceStats)> + '_ {
        self.res
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId(i as u32), r.kind, r.capacity, r.stats))
    }

    /// Progressive-filling max–min fair rate allocation, scoped to the
    /// connected component of the flow↔resource sharing graph reachable
    /// from `seeds`.
    ///
    /// Max–min rates decompose exactly across connected components: a flow
    /// that shares no resource (transitively) with a changed flow keeps its
    /// rate bit-for-bit, so only the affected component is settled and
    /// refilled. Within the component the pass is identical to a global
    /// progressive fill — flows are visited in `FlowId` order and resources
    /// in index order, so results are deterministic and equal to what a
    /// whole-network recomputation would assign. This is what keeps
    /// contended bursts (thousands of simultaneous collective messages)
    /// from costing Θ(total flows) per flow event.
    // Flow ids looked up during the pass come from the map's own key set.
    #[allow(clippy::expect_used)]
    fn recompute_component(&mut self, seeds: &[ResourceId]) {
        let now = self.now;

        // Breadth-first walk over resources ↔ attached flows.
        let mut touched: Vec<usize> = Vec::new();
        let mut res_seen = vec![false; self.res.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp: std::collections::BTreeSet<FlowId> = std::collections::BTreeSet::new();
        for r in seeds {
            let r = r.0 as usize;
            if !res_seen[r] {
                res_seen[r] = true;
                stack.push(r);
            }
        }
        while let Some(r) = stack.pop() {
            touched.push(r);
            for &id in &self.res[r].attached {
                if comp.insert(id) {
                    for rr in &self.flows[&id].resources {
                        let rr = rr.0 as usize;
                        if !res_seen[rr] {
                            res_seen[rr] = true;
                            stack.push(rr);
                        }
                    }
                }
            }
        }
        touched.sort_unstable();

        for id in &comp {
            let f = self.flows.get_mut(id).expect("component flow present");
            settle_flow(&mut self.res, f, now);
        }

        // Dense scratch over only the component's resources, indexed by
        // slot; iteration is over the sorted `touched` list, so the pass is
        // deterministic.
        let mut slot_of: HashMap<u32, usize> = HashMap::with_capacity(touched.len());
        for (i, &r) in touched.iter().enumerate() {
            slot_of.insert(r as u32, i);
        }
        let mut rem_cap: Vec<f64> = touched.iter().map(|&r| self.res[r].capacity).collect();
        let mut count: Vec<usize> = vec![0; touched.len()];
        let mut unfixed: Vec<FlowId> = comp.iter().copied().collect();
        for id in &unfixed {
            for r in &self.flows[id].resources {
                count[slot_of[&r.0]] += 1;
            }
        }
        if unfixed.is_empty() {
            // Seeds can point at now-empty resources (last flow removed).
            for &r in &touched {
                self.res[r].rate_sum = 0.0;
            }
            return;
        }

        let mut assigned: Vec<(FlowId, f64)> = Vec::with_capacity(unfixed.len());
        while !unfixed.is_empty() {
            // Bottleneck share over resources that still carry unfixed flows.
            let mut share = f64::INFINITY;
            for i in 0..touched.len() {
                if count[i] > 0 {
                    share = share.min(rem_cap[i].max(0.0) / count[i] as f64);
                }
            }
            // A flow with no resources is limited only by its own cap.
            // This round's rate: the smaller of the bottleneck share and the
            // smallest unfixed per-flow cap.
            let min_cap = unfixed
                .iter()
                .map(|id| self.flows[id].cap)
                .fold(f64::INFINITY, f64::min);
            let level = share.min(min_cap);
            debug_assert!(level.is_finite(), "no constraint bound any flow");

            // Fix every flow that is pinned at this level: either its cap is
            // the binding constraint, or it crosses a bottleneck resource.
            let mut fixed_any = false;
            let mut still: Vec<FlowId> = Vec::with_capacity(unfixed.len());
            for id in unfixed.drain(..) {
                let flow = &self.flows[&id];
                let at_cap = flow.cap <= level + level * 1e-12;
                let at_bottleneck = flow.resources.iter().any(|r| {
                    let i = slot_of[&r.0];
                    count[i] > 0 && rem_cap[i].max(0.0) / count[i] as f64 <= level + level * 1e-12
                });
                if at_cap || at_bottleneck {
                    fixed_any = true;
                    for r in &flow.resources {
                        let i = slot_of[&r.0];
                        rem_cap[i] -= level;
                        count[i] -= 1;
                    }
                    assigned.push((id, level));
                } else {
                    still.push(id);
                }
            }
            unfixed = still;
            assert!(fixed_any, "max-min allocation failed to make progress");
        }

        for (id, rate) in assigned {
            let f = self.flows.get_mut(&id).expect("assigned flow present");
            if f.rate != rate {
                f.rate = rate;
                self.dirty.push(id);
            }
            let want = f.rate > 0.0 && f.remaining > 0.0;
            if want != f.active {
                f.active = want;
                for r in &f.resources {
                    let res = &mut self.res[r.0 as usize];
                    integrate_res(res, now);
                    if want {
                        res.active += 1;
                    } else {
                        res.active -= 1;
                    }
                }
            }
        }

        for &r in &touched {
            self.res[r].rate_sum = 0.0;
        }
        for id in &comp {
            let f = &self.flows[id];
            for r in &f.resources {
                self.res[r.0 as usize].rate_sum += f.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(resources: &[ResourceId], cap: f64, bytes: f64) -> FlowSpec {
        FlowSpec {
            resources: resources.to_vec(),
            cap,
            bytes,
        }
    }

    #[test]
    fn single_flow_capped_by_stream_cap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 9e9);
    }

    #[test]
    fn single_flow_capped_by_resource() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(5e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 5e9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 9e9, 1e6));
        let b = net.add(spec(&[nic], 9e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        assert!((net.rate(b) - 6e9).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        // One flow capped at 2 GB/s on a 12 GB/s NIC; the other (cap 11)
        // should get the remaining 10 GB/s, not the naive 6.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let slow = net.add(spec(&[nic], 2e9, 1e6));
        let fast = net.add(spec(&[nic], 11e9, 1e6));
        assert!((net.rate(slow) - 2e9).abs() < 1.0);
        assert!((net.rate(fast) - 10e9).abs() < 1e3);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // tx capacity 12, rx capacity 4: flow crossing both is limited by rx.
        let mut net = FlowNet::new();
        let tx = net.add_resource(12e9);
        let rx = net.add_resource(4e9);
        let f = net.add(spec(&[tx, rx], 20e9, 1e6));
        assert!((net.rate(f) - 4e9).abs() < 1.0);
    }

    #[test]
    fn incast_shares_receiver() {
        // Four senders (distinct tx NICs) into one rx NIC of 12 GB/s:
        // each should get 3 GB/s.
        let mut net = FlowNet::new();
        let rx = net.add_resource(12e9);
        let mut flows = Vec::new();
        for _ in 0..4 {
            let tx = net.add_resource(12e9);
            flows.push(net.add(spec(&[tx, rx], 10e9, 1e6)));
        }
        for f in flows {
            assert!((net.rate(f) - 3e9).abs() < 1e3);
        }
    }

    #[test]
    fn progress_and_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0); // 10 B/s for easy math
        let f = net.add(spec(&[nic], 100.0, 50.0));
        assert!((net.eta_secs(f) - 5.0).abs() < 1e-12);
        net.progress(2.0);
        assert!((net.remaining(f) - 30.0).abs() < 1e-12);
        assert!((net.eta_secs(f) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn removal_restores_capacity() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 12e9, 1e6));
        let b = net.add(spec(&[nic], 12e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        net.remove(b);
        assert!((net.rate(a) - 12e9).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_has_zero_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 12e9, 0.0));
        assert_eq!(net.eta_secs(f), 0.0);
    }

    #[test]
    fn duplicate_resources_counted_once() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let f = net.add(spec(&[nic, nic], 20e9, 1.0));
        assert!((net.rate(f) - 10e9).abs() < 1.0);
    }

    #[test]
    fn work_conservation_on_shared_resource() {
        // Sum of rates on the shared NIC must equal its capacity when demand
        // exceeds it.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let flows: Vec<_> = (0..5).map(|_| net.add(spec(&[nic], 9e9, 1.0))).collect();
        let total: f64 = flows.iter().map(|&f| net.rate(f)).sum();
        assert!((total - 12e9).abs() < 1e3, "total {total}");
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut net = FlowNet::new();
        net.add(spec(&[ResourceId(7)], 1e9, 1.0));
    }

    #[test]
    fn resource_stats_accumulate_busy_and_overlap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource_kind(10.0, ResourceKind::NicTx(0));
        let a = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(2.0); // one active flow: busy only
        let b = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(3.0); // two active flows: busy + overlap
        let s = net.resource_stats(nic);
        assert!((s.busy_secs - 5.0).abs() < 1e-12, "busy {}", s.busy_secs);
        assert!(
            (s.overlap2_secs - 3.0).abs() < 1e-12,
            "overlap {}",
            s.overlap2_secs
        );
        // 10 B/s for 2 s solo + 10 B/s aggregate for 3 s shared.
        assert!((s.bytes - 50.0).abs() < 1e-9, "bytes {}", s.bytes);
        assert_eq!(s.max_concurrent, 2);
        assert_eq!(net.resource_kind(nic), ResourceKind::NicTx(0));
        assert!(net.resource_kind(nic).is_nic());
        assert_eq!(net.resource_capacity(nic), 10.0);
        let _ = (a, b);
    }

    #[test]
    fn idle_resource_accumulates_nothing() {
        let mut net = FlowNet::new();
        let busy = net.add_resource(10.0);
        let idle = net.add_resource_kind(10.0, ResourceKind::Mem(1));
        net.add(spec(&[busy], 100.0, 100.0));
        net.progress(1.0);
        let s = net.resource_stats(idle);
        assert_eq!(s.busy_secs, 0.0);
        assert_eq!(s.bytes, 0.0);
        assert_eq!(s.max_concurrent, 0);
        assert_eq!(net.resources().count(), 2);
    }

    #[test]
    fn fast_path_add_leaves_other_rates_alone() {
        // Two flows on disjoint NICs, third on its own NIC: no rate of an
        // existing flow may appear in the dirty set when the add does not
        // contend.
        let mut net = FlowNet::new();
        let n0 = net.add_resource(10e9);
        let n1 = net.add_resource(10e9);
        let a = net.add(spec(&[n0], 5e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[n1], 5e9, 1e6));
        assert_eq!(net.take_rate_changes(), vec![b]);
        assert_eq!(net.rate(a), 5e9);
        assert_eq!(net.rate(b), 5e9);
    }

    #[test]
    fn take_rate_changes_reports_contended_adds() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 8e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[nic], 8e9, 1e6));
        let changed = net.take_rate_changes();
        assert_eq!(changed, vec![a, b]);
        assert!((net.rate(a) - 5e9).abs() < 1.0);
        assert!((net.rate(b) - 5e9).abs() < 1.0);
        // Uncontended removal of `b` leaves... no: nic was saturated, so
        // removing b restores a to its cap and must mark it dirty.
        net.remove(b);
        assert_eq!(net.take_rate_changes(), vec![a]);
        assert!((net.rate(a) - 8e9).abs() < 1.0);
    }

    #[test]
    fn uncontended_removal_skips_recompute_and_dirty() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 3e9, 1e6));
        let b = net.add(spec(&[nic], 3e9, 1e6));
        net.take_rate_changes();
        net.remove(b);
        assert!(net.take_rate_changes().is_empty());
        assert_eq!(net.rate(a), 3e9);
    }

    #[test]
    fn lazy_settlement_matches_eager_byte_accounting() {
        // Drive a small scenario with rate changes mid-flight and verify the
        // lazily settled remaining-bytes match hand-computed values.
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0);
        let a = net.add(spec(&[nic], 100.0, 100.0)); // rate 10
        net.progress(4.0); // a moved 40, 60 left
        let b = net.add(spec(&[nic], 100.0, 30.0)); // both now rate 5
        assert!((net.remaining(a) - 60.0).abs() < 1e-9);
        net.progress(2.0); // a: 50 left, b: 20 left
        assert!((net.remaining(a) - 50.0).abs() < 1e-9);
        assert!((net.remaining(b) - 20.0).abs() < 1e-9);
        net.progress(4.0); // b done exactly now (20 / 5)
        assert!(net.remaining(b).abs() < 1e-9);
        assert_eq!(net.eta_secs(b), 0.0);
        net.remove(b);
        // a back to rate 10 with 30 left.
        assert!((net.rate(a) - 10.0).abs() < 1e-9);
        assert!((net.remaining(a) - 30.0).abs() < 1e-9);
        assert!((net.eta_secs(a) - 3.0).abs() < 1e-9);
    }

    /// From-scratch max–min reference allocator, structured independently of
    /// the incremental implementation, for the randomized equivalence test.
    fn reference_rates(caps: &[f64], flows: &[(Vec<usize>, f64)]) -> Vec<f64> {
        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut fixed = vec![false; n];
        let mut rem = caps.to_vec();
        loop {
            let mut count = vec![0usize; caps.len()];
            for (i, (res, _)) in flows.iter().enumerate() {
                if !fixed[i] {
                    for &r in res {
                        count[r] += 1;
                    }
                }
            }
            if fixed.iter().all(|&f| f) {
                break;
            }
            let mut level = f64::INFINITY;
            for r in 0..caps.len() {
                if count[r] > 0 {
                    level = level.min(rem[r].max(0.0) / count[r] as f64);
                }
            }
            for (i, (_, cap)) in flows.iter().enumerate() {
                if !fixed[i] {
                    level = level.min(*cap);
                }
            }
            // Decide this round's pinned set against the round-start
            // rem/count snapshot, then apply the subtractions (mutating
            // `rem` mid-sweep with a stale `count` would falsely pin
            // late-checked flows).
            let pinned: Vec<usize> = (0..n)
                .filter(|&i| !fixed[i])
                .filter(|&i| {
                    let (res, cap) = &flows[i];
                    *cap <= level * (1.0 + 1e-9)
                        || res.iter().any(|&r| {
                            count[r] > 0
                                && rem[r].max(0.0) / count[r] as f64 <= level * (1.0 + 1e-9)
                        })
                })
                .collect();
            assert!(!pinned.is_empty());
            for i in pinned {
                fixed[i] = true;
                rate[i] = level;
                for &r in &flows[i].0 {
                    rem[r] -= level;
                }
            }
        }
        rate
    }

    #[test]
    fn randomized_incremental_matches_from_scratch_reference() {
        // Pseudo-random add/remove churn; after every step, every live
        // flow's incremental rate must match a from-scratch allocation of
        // the current flow set.
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut net = FlowNet::new();
        let caps: Vec<f64> = (0..6).map(|i| 4e9 + 1e9 * i as f64).collect();
        let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
        let mut live: Vec<(FlowId, Vec<usize>, f64)> = Vec::new();
        for step in 0..200 {
            if live.is_empty() || rng() % 3 != 0 {
                let nres = 1 + (rng() % 3) as usize;
                let mut res: Vec<usize> = (0..nres).map(|_| (rng() % 6) as usize).collect();
                res.sort_unstable();
                res.dedup();
                let cap = 1e9 + (rng() % 10) as f64 * 1e9;
                let id = net.add(spec(
                    &res.iter().map(|&r| rids[r]).collect::<Vec<_>>(),
                    cap,
                    1e6,
                ));
                live.push((id, res, cap));
            } else {
                let victim = (rng() as usize) % live.len();
                let (id, _, _) = live.swap_remove(victim);
                net.remove(id);
            }
            net.progress(1e-6);
            // Compare against the reference, which is ignorant of the
            // incremental bookkeeping.
            live.sort_by_key(|(id, _, _)| *id);
            let flows: Vec<(Vec<usize>, f64)> = live
                .iter()
                .map(|(_, res, cap)| (res.clone(), *cap))
                .collect();
            let expect = reference_rates(&caps, &flows);
            for ((id, _, _), want) in live.iter().zip(expect) {
                let got = net.rate(*id);
                assert!(
                    (got - want).abs() <= want.abs() * 1e-6 + 1.0,
                    "step {step}: flow {id:?} rate {got} != reference {want}"
                );
            }
        }
    }
}
