//! Wait-blame attribution: fold the critical path into a tree of causes.
//!
//! [`critical_path_dag`] tiles the makespan with segments; this module
//! groups them into a three-level
//! **blame tree** — kernel phase → operation → plan step — with leaf
//! *causes* naming where the time physically went:
//!
//! | cause              | meaning                                          |
//! |--------------------|--------------------------------------------------|
//! | `compute`          | modeled/real local computation and reductions    |
//! | `posting`          | posting sends and nonblocking operations         |
//! | `receiver-posting` | receive-side posting (plan `recv` steps)         |
//! | `link-transfer`    | time explained by message transport (waits the   |
//! |                    | DAG could not redirect further — on the sim this |
//! |                    | is the modeled flow; plan `recv` step bodies)    |
//! | `spin-poll`/`park` | rt only: wait time busy-polling for completion   |
//! |                    | (yield-poll or pure spin, per the configured     |
//! |                    | wait strategy) vs. with the thread parked (split |
//! |                    | by the `rt.wait_*_ns` sums)                      |
//! | `rendezvous-stall` | rt only: first-posted side waiting for its peer  |
//! | `progress-delay`   | enabling completion with no traced work behind   |
//! |                    | it (pool scheduling, in-flight delivery)         |
//! | `idle`             | nothing traced anywhere                          |
//! | `slack` / `copy`   | per-round software slack; local copy steps       |
//!
//! Leaf durations sum to the makespan: the segments tile it, and the rt
//! wait split conserves each segment's duration exactly (the last share
//! is computed as a remainder). [`ProfileBlock`] is the serializable
//! record the bench harness embeds next to its `MetricsBlock`.

use std::collections::BTreeMap;

use serde::Serialize;

use ovcomm_simnet::{rank_of_actor, SimTime, TraceEdge, TraceSpan};

use crate::critpath::{critical_path_dag, PathSegment};
use crate::registry::MetricsSnapshot;

/// One node of the blame tree. `dur_us` of an interior node equals the
/// sum of its children; leaves carry the cause name.
#[derive(Debug, Clone, Serialize)]
pub struct BlameNode {
    /// Phase label, operation name, plan-step label, or cause.
    pub name: String,
    /// Microseconds of critical-path time under this node.
    pub dur_us: f64,
    /// Sub-attribution; empty for cause leaves.
    pub children: Vec<BlameNode>,
}

impl BlameNode {
    fn new(name: &str) -> BlameNode {
        BlameNode {
            name: name.to_string(),
            dur_us: 0.0,
            children: Vec::new(),
        }
    }

    fn child(&mut self, name: &str) -> &mut BlameNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(BlameNode::new(name));
        let last = self.children.len() - 1;
        &mut self.children[last]
    }

    /// Sum of leaf durations under this node.
    pub fn leaf_sum_us(&self) -> f64 {
        if self.children.is_empty() {
            self.dur_us
        } else {
            self.children.iter().map(BlameNode::leaf_sum_us).sum()
        }
    }

    /// Visit every leaf, accumulating `cause → total` into `into`.
    fn collect_causes(&self, into: &mut BTreeMap<String, f64>) {
        if self.children.is_empty() {
            *into.entry(self.name.clone()).or_insert(0.0) += self.dur_us;
        } else {
            for c in &self.children {
                c.collect_causes(into);
            }
        }
    }
}

/// One critical-path segment as serialized in a [`ProfileBlock`] —
/// microsecond view of [`PathSegment`].
#[derive(Debug, Clone, Serialize)]
pub struct ProfileSegment {
    /// Actor the segment ran on (`u32::MAX` for idle gaps).
    pub actor: u32,
    /// World rank the actor acts for (identity for rank actors).
    pub rank: u32,
    /// Span category name, or `"gap"`.
    pub kind: String,
    /// Span label (gaps: the gap cause).
    pub label: String,
    /// Segment start, microseconds.
    pub start_us: f64,
    /// Segment length, microseconds.
    pub dur_us: f64,
}

/// Critical-path/blame record for one run — emitted by the bench harness
/// next to its `MetricsBlock`, schema-versioned for the trajectory file.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileBlock {
    /// Schema version of this block (bump on field changes).
    pub schema: u32,
    /// `"sim"` or `"rt"`.
    pub backend: String,
    /// Run length, microseconds.
    pub makespan_us: f64,
    /// DAG critical path, latest segment first; durations tile the
    /// makespan.
    pub critical_path: Vec<ProfileSegment>,
    /// Phase → operation → step → cause attribution of the path.
    pub blame: BlameNode,
    /// Flattened `cause → total microseconds` over all leaves.
    pub causes: BTreeMap<String, f64>,
}

/// Current [`ProfileBlock::schema`].
pub const PROFILE_SCHEMA: u32 = 1;

/// Per-rank wait-breakdown weights harvested from an rt run's metrics
/// (`rt.wait_spin_ns{rank=r}` etc.). All zeros on the simulator, which
/// leaves wait time attributed to `link-transfer`.
struct WaitWeights {
    spin: Vec<f64>,
    park: Vec<f64>,
    stall: Vec<f64>,
}

impl WaitWeights {
    fn from_metrics(metrics: &MetricsSnapshot) -> WaitWeights {
        let sums = |name: &str| -> Vec<f64> {
            let mut v: Vec<f64> = Vec::new();
            let prefix = format!("{name}{{rank=");
            for (key, h) in &metrics.histograms {
                if let Some(rest) = key.strip_prefix(&prefix) {
                    if let Ok(rank) = rest.trim_end_matches('}').parse::<usize>() {
                        if v.len() <= rank {
                            v.resize(rank + 1, 0.0);
                        }
                        v[rank] = h.sum as f64;
                    }
                }
            }
            v
        };
        WaitWeights {
            spin: sums("rt.wait_spin_ns"),
            park: sums("rt.wait_park_ns"),
            stall: sums("rt.rendezvous_stall_ns"),
        }
    }

    fn get(v: &[f64], rank: u32) -> f64 {
        v.get(rank as usize).copied().unwrap_or(0.0)
    }
}

/// Cause leaf (or leaves) for one segment. Wait-like segments on ranks
/// with recorded rt wait weights split proportionally into
/// spin/park/rendezvous-stall, conserving the duration exactly.
fn add_cause_leaves(node: &mut BlameNode, seg: &ProfileSegment, w: &WaitWeights) {
    let d = seg.dur_us;
    let mut leaf = |name: &str, dur: f64| {
        if dur > 0.0 {
            node.child(name).dur_us += dur;
        }
    };
    match seg.kind.as_str() {
        "compute" => leaf("compute", d),
        "post" => leaf("posting", d),
        "gap" => leaf(&seg.label, d), // "progress-delay" or "idle"
        "collstep" => {
            // Plan-step labels are "{algo} s{i} {verb} ..." — the verb
            // names the physical activity.
            let verb = seg.label.split_whitespace().nth(2).unwrap_or("");
            match verb {
                "send" => leaf("posting", d),
                "recv" => leaf("link-transfer", d),
                "reduce" => leaf("compute", d),
                "slack" => leaf("slack", d),
                "copy" => leaf("copy", d),
                _ => leaf("other", d),
            }
        }
        "wait" | "blocking" => {
            let (spin, park, stall) = (
                WaitWeights::get(&w.spin, seg.rank),
                WaitWeights::get(&w.park, seg.rank),
                WaitWeights::get(&w.stall, seg.rank),
            );
            let total = spin + park + stall;
            if total > 0.0 {
                let a = d * spin / total;
                let b = d * park / total;
                // Remainder, not a third ratio: the three shares must sum
                // to `d` exactly for the leaf-sum invariant.
                let c = d - a - b;
                leaf("spin-poll", a);
                leaf("park", b);
                leaf("rendezvous-stall", c);
                // All three shares rounded to zero (d subnormal): keep it.
                if a == 0.0 && b == 0.0 && c == 0.0 && d > 0.0 {
                    leaf("park", d);
                }
            } else {
                leaf("link-transfer", d);
            }
        }
        _ => leaf("other", d),
    }
}

/// Enclosing `Phase` span on the segment's rank (smallest phase covering
/// the segment midpoint), or `"(no phase)"`.
fn phase_of(spans: &[TraceSpan], seg: &PathSegment) -> String {
    if seg.actor == crate::critpath::GAP_ACTOR {
        return "(no phase)".to_string();
    }
    let rank = rank_of_actor(seg.actor);
    let mid = SimTime(seg.start.0 + (seg.end.0 - seg.start.0) / 2);
    spans
        .iter()
        .filter(|s| {
            s.kind == ovcomm_simnet::SpanKind::Phase
                && rank_of_actor(s.actor) == rank
                && s.start <= mid
                && s.end > mid
        })
        .min_by_key(|s| s.end.0 - s.start.0)
        .map(|s| s.label.clone())
        .unwrap_or_else(|| "(no phase)".to_string())
}

/// Operation / step grouping of a segment label. Plan steps
/// (`"{algo} s{i} …"`) group under their algorithm with the step as a
/// child; everything else groups under its own label.
fn op_and_step(seg: &ProfileSegment) -> (String, Option<String>) {
    if seg.kind == "collstep" {
        let mut it = seg.label.splitn(2, ' ');
        let algo = it.next().unwrap_or("collstep").to_string();
        let step = it.next().map(|s| s.to_string());
        (algo, step)
    } else if seg.kind == "gap" {
        (format!("({})", seg.label), None)
    } else {
        (seg.label.clone(), None)
    }
}

/// Build the full [`ProfileBlock`] for one run: extract the DAG critical
/// path and fold it into the blame tree. `backend` is `"sim"` or `"rt"`;
/// rt runs split wait time by their recorded spin/park/stall sums.
pub fn profile(
    spans: &[TraceSpan],
    edges: &[TraceEdge],
    metrics: &MetricsSnapshot,
    makespan: SimTime,
    backend: &str,
) -> ProfileBlock {
    let path = critical_path_dag(spans, edges, makespan);
    let weights = WaitWeights::from_metrics(metrics);
    let mut root = BlameNode::new("run");
    let mut segments = Vec::with_capacity(path.len());
    for seg in &path {
        let out = ProfileSegment {
            actor: seg.actor,
            rank: rank_of_actor(seg.actor),
            kind: seg.kind.clone(),
            label: seg.label.clone(),
            start_us: seg.start_us(),
            dur_us: seg.dur_us(),
        };
        let phase = phase_of(spans, seg);
        let (op, step) = op_and_step(&out);
        let node = root.child(&phase).child(&op);
        let node = match &step {
            Some(s) => node.child(s),
            None => node,
        };
        add_cause_leaves(node, &out, &weights);
        segments.push(out);
    }
    roll_up(&mut root);
    let mut causes = BTreeMap::new();
    root.collect_causes(&mut causes);
    ProfileBlock {
        schema: PROFILE_SCHEMA,
        backend: backend.to_string(),
        makespan_us: makespan.as_nanos() as f64 / 1_000.0,
        critical_path: segments,
        blame: root,
        causes,
    }
}

/// Set every interior node's `dur_us` to the sum of its children.
fn roll_up(node: &mut BlameNode) {
    if node.children.is_empty() {
        return;
    }
    let mut sum = 0.0;
    for c in &mut node.children {
        roll_up(c);
        sum += c.dur_us;
    }
    node.dur_us = sum;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simnet::SpanKind;

    fn span(actor: u32, kind: SpanKind, label: &str, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            actor,
            kind,
            label: label.to_string(),
            chunk: None,
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn leaves_sum_to_makespan_and_phases_group() {
        let spans = vec![
            span(0, SpanKind::Phase, "summa step", 0, 1_000),
            span(0, SpanKind::Compute, "gemm", 0, 600),
            span(0, SpanKind::Wait, "MPI_Wait", 600, 1_000),
        ];
        let b = profile(
            &spans,
            &[],
            &MetricsSnapshot::default(),
            SimTime(1_000),
            "sim",
        );
        assert!((b.blame.leaf_sum_us() - 1.0).abs() < 1e-9);
        assert_eq!(b.blame.children.len(), 1);
        assert_eq!(b.blame.children[0].name, "summa step");
        assert!((b.causes["compute"] - 0.6).abs() < 1e-12);
        assert!((b.causes["link-transfer"] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn collstep_groups_algo_then_step() {
        let spans = vec![span(
            0,
            SpanKind::CollStep,
            "rsag-bcast s3 send 4096B -> 2",
            0,
            500,
        )];
        let b = profile(
            &spans,
            &[],
            &MetricsSnapshot::default(),
            SimTime(500),
            "sim",
        );
        let phase = &b.blame.children[0];
        let op = &phase.children[0];
        assert_eq!(op.name, "rsag-bcast");
        assert_eq!(op.children[0].name, "s3 send 4096B -> 2");
        assert_eq!(op.children[0].children[0].name, "posting");
    }
}
