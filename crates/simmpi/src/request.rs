//! Nonblocking-operation request handles (the analogue of `MPI_Request`).

use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::SimTime;
use ovcomm_verify::{ReqId, Verifier};

/// Verification bookkeeping attached to a tracked request: the shared
/// recorder and this request's log id. Present only when the run's
/// `VerifyMode` is not `Off`.
///
/// Exposed (hidden) for the `ovcomm-rt` wall-clock backend, which shares
/// the request type so kernels produce identical handles on both backends.
#[doc(hidden)]
pub struct ReqMeta {
    /// The run's shared event recorder.
    pub verifier: Arc<Verifier>,
    /// This request's log id.
    pub id: ReqId,
}

/// Where a request is in its life. It only moves forward: pending, then
/// done, then taken by a wait or a successful test.
enum State<T> {
    /// Not complete yet.
    Pending,
    /// Complete at this time, its value not yet consumed.
    Done(T, SimTime),
    /// Complete at this time, its value consumed.
    Taken(SimTime),
}

struct ReqInner<T> {
    state: State<T>,
    /// Agent ids to wake on completion.
    waiters: Vec<u32>,
    meta: Option<ReqMeta>,
}

impl<T> Drop for ReqInner<T> {
    fn drop(&mut self) {
        // Drop-time leak check: the last handle to this request is gone.
        // Feed the verifier's counters (and its live state) so requests
        // that were never completed, or completed but never taken, don't
        // silently vanish.
        if let Some(m) = &self.meta {
            let completed = !matches!(self.state, State::Pending);
            let taken = matches!(self.state, State::Taken(_));
            m.verifier.req_dropped(m.id, completed, taken);
        }
    }
}

/// A handle to an in-flight nonblocking operation producing a `T`
/// (`Payload` for receives/collectives, `()` for sends and barriers).
///
/// Waiting is done through the owning rank/agent (`Agent::wait`), which
/// advances the rank's virtual clock to the completion time — mirroring
/// `MPI_Wait`.
pub struct Request<T> {
    inner: Arc<Mutex<ReqInner<T>>>,
}

impl<T> Clone for Request<T> {
    fn clone(&self) -> Self {
        Request {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Default for Request<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Request<T> {
    fn with(state: State<T>, meta: Option<ReqMeta>) -> Request<T> {
        Request {
            inner: Arc::new(Mutex::new(ReqInner {
                state,
                waiters: Vec::new(),
                meta,
            })),
        }
    }

    /// A fresh, incomplete request.
    pub fn new() -> Request<T> {
        Request::with(State::Pending, None)
    }

    /// A fresh, incomplete request tracked by the verifier.
    #[doc(hidden)]
    pub fn new_tracked(meta: ReqMeta) -> Request<T> {
        Request::with(State::Pending, Some(meta))
    }

    /// An already-completed request (for degenerate cases, e.g. self-sends
    /// of zero ranks or single-rank collectives).
    pub fn ready(value: T, at: SimTime) -> Request<T> {
        Request::with(State::Done(value, at), None)
    }

    /// The verifier log id, if this request is tracked.
    #[doc(hidden)]
    pub fn verify_id(&self) -> Option<ReqId> {
        self.inner.lock().meta.as_ref().map(|m| m.id)
    }

    /// Mark complete with `value` at virtual time `at`, returning the agent
    /// ids of any waiters (the caller wakes them its own way). Panics if
    /// completed twice.
    #[doc(hidden)]
    pub fn complete(&self, value: T, at: SimTime) -> Vec<u32> {
        let mut inner = self.inner.lock();
        assert!(
            matches!(inner.state, State::Pending),
            "request completed twice"
        );
        inner.state = State::Done(value, at);
        std::mem::take(&mut inner.waiters)
    }

    /// Nonblocking completion check (the analogue of `MPI_Test`). Under the
    /// engine's quiescence rule, every completion event with a virtual time
    /// at or before the caller's clock has already been processed whenever a
    /// rank actor is running, so a plain state check is exact.
    pub fn is_complete(&self) -> bool {
        self.completed_at().is_some()
    }

    /// If complete and not yet consumed, take `(value, completion_time)`.
    #[doc(hidden)]
    pub fn try_take(&self) -> Option<(T, SimTime)> {
        let mut inner = self.inner.lock();
        if let State::Taken(_) = inner.state {
            panic!("request waited on twice");
        }
        let State::Done(v, t) = std::mem::replace(&mut inner.state, State::Pending) else {
            return None;
        };
        inner.state = State::Taken(t);
        Some((v, t))
    }

    /// Completion time, if complete (does not consume the result).
    pub fn completed_at(&self) -> Option<SimTime> {
        match self.inner.lock().state {
            State::Pending => None,
            State::Done(_, t) | State::Taken(t) => Some(t),
        }
    }

    /// Register agent `id` to be woken on completion. Returns `false`
    /// (and does not register) if the request is already complete.
    #[doc(hidden)]
    pub fn add_waiter(&self, id: u32) -> bool {
        let mut inner = self.inner.lock();
        if !matches!(inner.state, State::Pending) {
            return false;
        }
        if !inner.waiters.contains(&id) {
            inner.waiters.push(id);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_then_take() {
        let r: Request<u32> = Request::new();
        assert!(!r.is_complete());
        assert!(r.try_take().is_none());
        let waiters = r.complete(7, SimTime(100));
        assert!(waiters.is_empty());
        assert!(r.is_complete());
        let (v, t) = r.try_take().unwrap();
        assert_eq!(v, 7);
        assert_eq!(t, SimTime(100));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let r: Request<()> = Request::new();
        r.complete((), SimTime(1));
        r.complete((), SimTime(2));
    }

    #[test]
    #[should_panic(expected = "waited on twice")]
    fn double_take_panics() {
        let r: Request<()> = Request::new();
        r.complete((), SimTime(1));
        r.try_take();
        r.try_take();
    }

    #[test]
    fn waiters_returned_on_complete_and_rejected_after() {
        let r: Request<()> = Request::new();
        assert!(r.add_waiter(3));
        assert!(r.add_waiter(3), "re-arming same id is idempotent");
        let waiters = r.complete((), SimTime(5));
        assert_eq!(waiters.len(), 1, "duplicate waiter must not be stored");
        assert!(!r.add_waiter(3), "late waiter sees completion");
    }

    #[test]
    fn ready_request_is_immediately_takeable() {
        let r = Request::ready(42u8, SimTime(3));
        assert_eq!(r.try_take().unwrap(), (42, SimTime(3)));
    }

    #[test]
    fn dropping_tracked_request_feeds_leak_counters() {
        let v = Arc::new(Verifier::new());

        // Never completed.
        let r: Request<()> = Request::new_tracked(ReqMeta {
            verifier: v.clone(),
            id: v.next_req_id(),
        });
        assert!(r.verify_id().is_some());
        drop(r);
        assert_eq!(v.drop_counters(), (1, 0));

        // Completed but never taken.
        let r: Request<u8> = Request::new_tracked(ReqMeta {
            verifier: v.clone(),
            id: v.next_req_id(),
        });
        r.complete(9, SimTime(1));
        drop(r);
        assert_eq!(v.drop_counters(), (1, 1));

        // Completed and taken: clean.
        let r: Request<u8> = Request::new_tracked(ReqMeta {
            verifier: v.clone(),
            id: v.next_req_id(),
        });
        r.complete(9, SimTime(1));
        r.try_take();
        drop(r);
        assert_eq!(v.drop_counters(), (1, 1));
    }
}
