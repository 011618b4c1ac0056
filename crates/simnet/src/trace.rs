//! Span tracing for timeline diagrams (the paper's Fig. 6).
//!
//! Components record `TraceSpan`s — an actor id, a category, a label and a
//! virtual start/end — and the bench harness renders them as per-operation
//! time bars ("posting MPI_Ireduce", "waiting for MPI_Ibcast", …).
//!
//! The actor-id bit layout lives here, next to [`TraceSpan::actor`]: rank
//! actors use their world rank; the actor running a rank's `k`-th
//! nonblocking operation is `1 << 31 | rank << 14 | k`
//! ([`op_actor_id`], [`rank_of_actor`], [`actor_name`]; round trip and
//! range checks tested in `tests/actor_ids.rs`).

use crate::time::SimTime;

/// Set on operation-actor ids; never on a rank actor's.
const OP_ACTOR_TAG: u32 = 0x8000_0000;
/// Bits of the per-rank operation index.
const OP_INDEX_BITS: u32 = 14;

/// Deterministic actor id for the `op_idx`-th nonblocking operation posted
/// by `rank`. Rank actors use ids `0..nranks`; operation actors set the
/// high bit.
pub fn op_actor_id(rank: u32, op_idx: u64) -> u32 {
    assert!(
        rank < (1 << 17),
        "rank {rank} too large for op-actor encoding"
    );
    assert!(
        op_idx < (1 << OP_INDEX_BITS),
        "rank {rank} posted more than 16384 nonblocking operations in one run"
    );
    OP_ACTOR_TAG | (rank << OP_INDEX_BITS) | (op_idx as u32)
}

/// World rank an actor id acts for (inverse of [`op_actor_id`] for
/// operation actors; identity for rank actors).
pub fn rank_of_actor(id: u32) -> u32 {
    if id & OP_ACTOR_TAG != 0 {
        (id & !OP_ACTOR_TAG) >> OP_INDEX_BITS
    } else {
        id
    }
}

/// Human-readable track name for an actor id: `rank R`, or `rank R op K`
/// for operation actors. Used for Perfetto thread names.
pub fn actor_name(id: u32) -> String {
    let rank = rank_of_actor(id);
    if id & OP_ACTOR_TAG != 0 {
        format!("rank {rank} op {}", id & ((1 << OP_INDEX_BITS) - 1))
    } else {
        format!("rank {rank}")
    }
}

/// Coarse category of a traced span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Time spent inside a blocking communication call.
    BlockingCall,
    /// Time spent posting a nonblocking operation.
    Post,
    /// Time spent waiting for a nonblocking operation to complete.
    Wait,
    /// Modeled local computation.
    Compute,
    /// A coarse algorithm phase (e.g. one SUMMA step or a purification
    /// iteration) that groups finer spans beneath it on a timeline.
    Phase,
    /// One primitive step of a collective schedule (`CollPlan`), emitted
    /// uniformly by the plan executor — send, recv, local reduce, slack.
    CollStep,
    /// Anything else worth showing on a timeline.
    Other,
}

impl SpanKind {
    /// Stable lowercase name, used as the Perfetto category string and in
    /// metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::BlockingCall => "blocking",
            SpanKind::Post => "post",
            SpanKind::Wait => "wait",
            SpanKind::Compute => "compute",
            SpanKind::Phase => "phase",
            SpanKind::CollStep => "collstep",
            SpanKind::Other => "other",
        }
    }
}

/// Kind of a cross-actor happens-before edge recorded alongside spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A message delivery: the sender's injection enables the receiver's
    /// completion. `from` is the sending rank, `to` the receiving rank.
    SendRecv,
    /// A nonblocking operation finishing: the operation agent's completion
    /// enables the posting rank's wait to return. `from` is the operation
    /// actor, `to` the rank that waits on it.
    PostWait,
}

impl EdgeKind {
    /// Stable lowercase name for serialization.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeKind::SendRecv => "sendrecv",
            EdgeKind::PostWait => "postwait",
        }
    }
}

/// A happens-before edge between two actors' timelines: an event at
/// `from_time` on `from_actor` enabled an event at `to_time` on `to_actor`.
/// Together with the per-actor span sequences these edges reconstruct the
/// run's execution DAG for critical-path analysis.
#[derive(Debug, Clone)]
pub struct TraceEdge {
    /// Edge category.
    pub kind: EdgeKind,
    /// Actor on which the enabling event occurred.
    pub from_actor: u32,
    /// Time of the enabling event.
    pub from_time: SimTime,
    /// Actor whose progress the edge enabled.
    pub to_actor: u32,
    /// Time at which the enabled event occurred (`>= from_time` modulo
    /// clock skew between OS threads on the wall-clock backend).
    pub to_time: SimTime,
}

/// One bar on a per-rank timeline.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Actor the span belongs to: a rank, or one of its operation actors
    /// (see [`op_actor_id`]).
    pub actor: u32,
    /// Category, used for grouping/coloring.
    pub kind: SpanKind,
    /// Human-readable label, e.g. `"MPI_Ireduce post"`.
    pub label: String,
    /// Pipeline chunk index this span belongs to, if any. Structured
    /// replacement for the old `"… c=2"` free-text convention.
    pub chunk: Option<u32>,
    /// Span start on the virtual clock.
    pub start: SimTime,
    /// Span end on the virtual clock.
    pub end: SimTime,
}

impl TraceSpan {
    /// Span length in microseconds (the unit of the paper's Fig. 6).
    pub fn micros(&self) -> f64 {
        self.end.saturating_since(self.start).as_micros_f64()
    }
}

/// An append-only collection of spans for one simulation run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<TraceSpan>,
    edges: Vec<TraceEdge>,
    clamped: usize,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Record a span. A span whose `end` precedes its `start` (a recording
    /// bug, e.g. clock skew between agents) is clamped to zero length at
    /// `start` and counted — see [`Trace::clamped`] — rather than silently
    /// corrupting downstream timeline math in release builds.
    pub fn push(&mut self, mut span: TraceSpan) {
        if span.end < span.start {
            span.end = span.start;
            self.clamped += 1;
        }
        self.spans.push(span);
    }

    /// Number of spans whose end preceded their start and were clamped to
    /// zero length on insertion. Non-zero indicates an instrumentation bug.
    pub fn clamped(&self) -> usize {
        self.clamped
    }

    /// Record a happens-before edge.
    pub fn push_edge(&mut self, edge: TraceEdge) {
        self.edges.push(edge);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// All happens-before edges, in recording order.
    pub fn edges(&self) -> &[TraceEdge] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans() {
        let mut t = Trace::new();
        t.push(TraceSpan {
            actor: 0,
            kind: SpanKind::Post,
            label: "post".into(),
            chunk: None,
            start: SimTime(0),
            end: SimTime(1_000),
        });
        t.push(TraceSpan {
            actor: 1,
            kind: SpanKind::Wait,
            label: "wait".into(),
            chunk: Some(2),
            start: SimTime(1_000),
            end: SimTime(3_000),
        });
        assert_eq!(t.spans().len(), 2);
        assert!((t.spans()[1].micros() - 2.0).abs() < 1e-12);
        assert_eq!(t.spans()[1].chunk, Some(2));
        assert_eq!(t.clamped(), 0);
    }

    #[test]
    fn inverted_span_is_clamped_not_dropped() {
        let mut t = Trace::new();
        t.push(TraceSpan {
            actor: 0,
            kind: SpanKind::Other,
            label: "inverted".into(),
            chunk: None,
            start: SimTime(5_000),
            end: SimTime(1_000),
        });
        assert_eq!(t.clamped(), 1);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].start, t.spans()[0].end);
        assert_eq!(t.spans()[0].micros(), 0.0);
    }
}
