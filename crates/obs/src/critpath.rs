//! Edge-aware critical-path extraction.
//!
//! This module reconstructs the *happens-before DAG* — per-actor span
//! sequences plus the send→recv and post→wait [`TraceEdge`]s both
//! backends emit — and walks it backward from the makespan. The result is
//! a sequence of [`PathSegment`]s that **exactly partitions** `[0,
//! makespan]`: every nanosecond of the run is attributed to the span (on
//! whatever actor) that was holding the run up at that moment, or to a
//! named gap (`progress-delay` when an enabling completion had no active
//! work behind it, `idle` when nothing anywhere was traced).
//!
//! The walk keeps a *lane* (the actor currently on the critical path):
//!
//! 1. At the cursor, pick the **finest** active span on the lane's rank —
//!    latest start wins, then earliest end, then lowest actor id. Phase
//!    spans are skipped (they envelop the finer spans that explain the
//!    time); zero-length spans can never be active.
//! 2. If that span is wait-like (`Wait`/`BlockingCall`), the time was
//!    spent on whoever *ended* the wait: find the latest edge into this
//!    rank within the span, and redirect to the sending actor's active
//!    span — the classic critical-path lane switch. A redirect that finds
//!    no active remote span becomes a `progress-delay` gap: the enabling
//!    event existed, but nothing traced was running behind it (progress
//!    thread scheduling, message in flight).
//! 3. If the lane has nothing active, fall back to the finest span on any
//!    actor, and to an `idle` gap when the whole machine is quiet.
//!
//! Each step strictly decreases the cursor, so the walk terminates and
//! the partition invariant — segment durations sum to the makespan — holds
//! by construction. The blame layer ([`crate::blame`]) folds these
//! segments into a per-phase/per-op/per-cause tree.

use ovcomm_simnet::{rank_of_actor, SimTime, SpanKind, TraceEdge, TraceSpan};

/// Synthetic actor id for segments not attributable to any actor.
pub const GAP_ACTOR: u32 = u32::MAX;

/// One segment of the DAG critical path. Segments are returned latest
/// first and tile `[0, makespan]` exactly: each segment's `start` is the
/// next segment's `end`.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Actor whose span (or whose missing progress) explains the time;
    /// [`GAP_ACTOR`] for fully idle gaps.
    pub actor: u32,
    /// Span category name, or `"gap"`.
    pub kind: String,
    /// Span label; gaps carry `"progress-delay"` or `"idle"`.
    pub label: String,
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive; equals the previous segment's start).
    pub end: SimTime,
}

impl PathSegment {
    /// Segment length in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end.saturating_since(self.start).as_nanos() as f64 / 1_000.0
    }

    /// Segment start in microseconds.
    pub fn start_us(&self) -> f64 {
        self.start.as_nanos() as f64 / 1_000.0
    }
}

fn wait_like(kind: SpanKind) -> bool {
    matches!(kind, SpanKind::Wait | SpanKind::BlockingCall)
}

/// Active at `cursor`: covers the instant just before it. A zero-length
/// span can never satisfy both bounds, so clamped spans are skipped.
fn active(s: &TraceSpan, cursor: SimTime) -> bool {
    s.kind != SpanKind::Phase && s.start < cursor && s.end >= cursor
}

/// The finest active span at `cursor`, optionally restricted to one rank:
/// latest start, then earliest end, then lowest actor id, then label —
/// innermost nested span first, deterministic on exact ties.
fn finest(spans: &[TraceSpan], cursor: SimTime, rank: Option<u32>) -> Option<&TraceSpan> {
    spans
        .iter()
        .filter(|s| active(s, cursor) && rank.is_none_or(|r| rank_of_actor(s.actor) == r))
        .min_by(|a, b| {
            (std::cmp::Reverse(a.start), a.end, a.actor, &a.label).cmp(&(
                std::cmp::Reverse(b.start),
                b.end,
                b.actor,
                &b.label,
            ))
        })
}

/// The latest enabling edge into `rank` that lands inside `(after,
/// cursor]` — the completion that let this rank's wait make progress.
fn enabling_edge(
    edges: &[TraceEdge],
    rank: u32,
    after: SimTime,
    cursor: SimTime,
) -> Option<&TraceEdge> {
    edges
        .iter()
        .filter(|e| rank_of_actor(e.to_actor) == rank && e.to_time > after && e.to_time <= cursor)
        .max_by_key(|e| (e.to_time, e.from_time, std::cmp::Reverse(e.from_actor)))
}

fn push(
    path: &mut Vec<PathSegment>,
    actor: u32,
    kind: &str,
    label: &str,
    lo: SimTime,
    hi: SimTime,
) {
    debug_assert!(lo < hi, "segments must make progress");
    path.push(PathSegment {
        actor,
        kind: kind.to_string(),
        label: label.to_string(),
        start: lo,
        end: hi,
    });
}

/// Walk the happens-before DAG backward from `makespan`. See the module
/// docs for the algorithm; the guarantee is that the returned segments
/// (latest first) tile `[0, makespan]` exactly.
pub fn critical_path_dag(
    spans: &[TraceSpan],
    edges: &[TraceEdge],
    makespan: SimTime,
) -> Vec<PathSegment> {
    let mut path = Vec::new();
    let mut cursor = makespan;
    let mut lane: Option<u32> = None;
    // Every iteration moves the cursor to a span boundary drawn from a
    // finite set, so this bound is never reached; it guards the invariant
    // against future bugs rather than expected inputs.
    let max_iters = 2 * spans.len() + edges.len() + 8;
    for _ in 0..max_iters {
        if cursor == SimTime(0) {
            break;
        }
        // Prefer the lane we are following; fall back to any actor.
        let pick = lane
            .and_then(|r| finest(spans, cursor, Some(r)))
            .or_else(|| finest(spans, cursor, None));
        let Some(s) = pick else {
            // Nothing active anywhere: idle gap back to the latest span
            // end (or the origin).
            let prev = spans
                .iter()
                .filter(|s| s.kind != SpanKind::Phase && s.end < cursor)
                .map(|s| s.end)
                .max()
                .unwrap_or(SimTime(0));
            push(&mut path, GAP_ACTOR, "gap", "idle", prev, cursor);
            cursor = prev;
            lane = None;
            continue;
        };
        let my_rank = rank_of_actor(s.actor);
        if wait_like(s.kind) {
            if let Some(e) = enabling_edge(edges, my_rank, s.start, cursor) {
                let from_rank = rank_of_actor(e.from_actor);
                // Redirect: what was the enabling side doing when it
                // produced the completion?
                if let Some(rs) = finest(spans, e.from_time.max(SimTime(1)), Some(from_rank)) {
                    if rs.start < cursor {
                        push(
                            &mut path,
                            rs.actor,
                            rs.kind.name(),
                            &rs.label,
                            rs.start,
                            cursor,
                        );
                        cursor = rs.start;
                        lane = Some(rank_of_actor(rs.actor));
                        continue;
                    }
                } else {
                    // The enabling event had no traced work behind it:
                    // progress delay (pool scheduling, in-flight delivery).
                    // Bounded below by the remote side's latest traced
                    // activity and the wait's own start.
                    let remote_prev = spans
                        .iter()
                        .filter(|x| {
                            x.kind != SpanKind::Phase
                                && rank_of_actor(x.actor) == from_rank
                                && x.end < cursor
                        })
                        .map(|x| x.end)
                        .max()
                        .unwrap_or(SimTime(0));
                    let lo = remote_prev.max(s.start);
                    push(&mut path, e.from_actor, "gap", "progress-delay", lo, cursor);
                    cursor = lo;
                    lane = Some(from_rank);
                    continue;
                }
            }
        }
        // Local span explains the time (also the wait fallback when no
        // edge is recorded — e.g. sim waits on modeled link transfers).
        push(&mut path, s.actor, s.kind.name(), &s.label, s.start, cursor);
        cursor = s.start;
        lane = Some(my_rank);
    }
    if cursor > SimTime(0) {
        // Unreachable by construction; keep the tiling invariant anyway.
        push(&mut path, GAP_ACTOR, "gap", "idle", SimTime(0), cursor);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simnet::EdgeKind;

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
    fn tiles_the_makespan() {
        let spans = vec![
            span(0, SpanKind::Compute, "c", 0, 400),
            span(1, SpanKind::Wait, "w", 600, 1_000),
        ];
        let p = critical_path_dag(&spans, &[], SimTime(1_000));
        assert_eq!(p[0].end, SimTime(1_000));
        assert_eq!(p.last().map(|s| s.start), Some(SimTime(0)));
        for w in p.windows(2) {
            assert_eq!(w[0].start, w[1].end, "segments tile without holes");
        }
        let total_ns: u64 = p.iter().map(|s| s.end.0 - s.start.0).sum();
        assert_eq!(total_ns, 1_000);
    }

    #[test]
    fn wait_redirects_through_edge_to_sender() {
        // Rank 1 waits [100, 900]; rank 0 computes [0, 880] and its send
        // lands at 900. The path must blame rank 0's compute, not the wait.
        let spans = vec![
            span(0, SpanKind::Compute, "produce", 0, 880),
            span(1, SpanKind::Wait, "recv-wait", 100, 900),
            span(1, SpanKind::Compute, "consume", 900, 1_000),
        ];
        let edges = vec![TraceEdge {
            kind: EdgeKind::SendRecv,
            from_actor: 0,
            from_time: SimTime(880),
            to_actor: 1,
            to_time: SimTime(900),
        }];
        let p = critical_path_dag(&spans, &edges, SimTime(1_000));
        assert_eq!(p[0].label, "consume");
        assert_eq!(p[1].label, "produce");
        assert_eq!(p[1].actor, 0);
        assert_eq!(p[1].start, SimTime(0));
        assert_eq!(p[1].end, SimTime(900));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn redirect_without_remote_span_is_progress_delay() {
        let spans = vec![
            span(0, SpanKind::Compute, "early", 0, 100),
            span(1, SpanKind::Wait, "w", 100, 1_000),
        ];
        let edges = vec![TraceEdge {
            kind: EdgeKind::PostWait,
            from_actor: 0,
            from_time: SimTime(1_000),
            to_actor: 1,
            to_time: SimTime(1_000),
        }];
        let p = critical_path_dag(&spans, &edges, SimTime(1_000));
        assert_eq!(p[0].label, "progress-delay");
        assert_eq!(p[0].start, SimTime(100));
        assert_eq!(p[0].end, SimTime(1_000));
    }
}
