//! # ovcomm-verify
//!
//! MPI communication-correctness analyzer for the ovcomm simulator.
//!
//! The simulator reports each [`Event`] to a shared [`Verifier`] while a
//! run executes, and the verifier folds it at once into live state: the
//! collective sequences, requests, envelopes and RMA epochs the checks
//! still need, each retired as soon as it can no longer produce a finding.
//! After a successful run the state yields the findings —
//! collective-matching violations, leaked requests, unmatched messages,
//! order-dependent matching (same-envelope sends or receives in flight
//! together) and RMA epoch misuse — and on deadlock the verifier's
//! blocked-agent table turns the engine's bare "deadlock" verdict into a
//! [`DeadlockReport`] with per-rank pending operations and the wait-for
//! cycle.
//!
//! A [`Finding`] is a severity, a lint code and a message. Each check
//! renders its message once, where it finds the defect; every consumer
//! reads only those three.
//!
//! Recording is wall-clock-only bookkeeping: it never advances virtual
//! clocks or schedules events, so enabling verification cannot change the
//! simulated timings or results.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analyze;
mod deadlock;
mod event;
mod finding;
pub mod plan;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use analyze::{Live, Waiting};
pub use deadlock::{BlockedAgent, DeadlockReport, PendingOp};
pub use event::{AgentId, CollKind, Event, ReqId, RmaKind, Site, INTERNAL_TAG_BIT};
pub use finding::{Finding, Severity};

/// How much verification a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No event recording, no analysis; deadlocks report blocked ranks only.
    Off,
    /// Record and analyze; error-severity findings fail the run. The
    /// default, so every test and bench doubles as a correctness check.
    #[default]
    Strict,
}

/// Shape of one recorded collective call: `(ctx, kind, root, len, blocking)`.
pub type CollCallKey = (u32, CollKind, Option<u32>, usize, bool);

/// Verification output attached to a successful run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, errors first (empty when verification was off).
    pub findings: Vec<Finding>,
    /// Tracked requests whose last handle was dropped before completion.
    pub dropped_incomplete: u64,
    /// Tracked requests that completed but whose result was never taken.
    pub dropped_untaken: u64,
    /// How many times each collective call shape was recorded, summed
    /// over ranks — the multiset of `Coll` events per communicator, which
    /// must agree between backends running the same program.
    pub coll_calls: BTreeMap<CollCallKey, u64>,
}

impl VerifyReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }
}

/// The event recorder shared by every agent of one simulated run.
///
/// All methods are callable from any thread; per-agent event order is
/// program order because each agent records its own events.
#[derive(Default)]
pub struct Verifier {
    live: Mutex<Live>,
    next_req: AtomicU64,
    dropped_incomplete: AtomicU64,
    dropped_untaken: AtomicU64,
}

impl Verifier {
    /// Fresh verifier.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Mint a unique request id.
    pub fn next_req_id(&self) -> ReqId {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Fold an event into the live state.
    pub fn record(&self, ev: Event) {
        self.live.lock().apply(ev);
    }

    /// Mark `agent` as blocked waiting on `req` (cleared by
    /// [`Verifier::wait_end`]). Entries that are never cleared — because a
    /// deadlock unwound the agent — are exactly the deadlock diagnosis.
    pub fn wait_begin(&self, agent: AgentId, req: ReqId) {
        self.live.lock().waiting.insert(agent, Waiting::Req(req));
    }

    /// Mark `agent` as blocked in a split on parent context `ctx`.
    pub fn wait_begin_split(&self, agent: AgentId, ctx: u32) {
        self.live
            .lock()
            .waiting
            .insert(agent, Waiting::Split { ctx });
    }

    /// Clear `agent`'s blocked marker.
    pub fn wait_end(&self, agent: AgentId) {
        self.live.lock().waiting.remove(&agent);
    }

    /// Record the drop of a tracked request's last handle and bump the
    /// leak counters.
    pub fn req_dropped(&self, req: ReqId, completed: bool, taken: bool) {
        if !completed {
            self.dropped_incomplete.fetch_add(1, Ordering::Relaxed);
        } else if !taken {
            self.dropped_untaken.fetch_add(1, Ordering::Relaxed);
        }
        self.record(Event::ReqDropped { req, completed });
    }

    /// Current leak counters `(dropped_incomplete, dropped_untaken)`.
    pub fn drop_counters(&self) -> (u64, u64) {
        (
            self.dropped_incomplete.load(Ordering::Relaxed),
            self.dropped_untaken.load(Ordering::Relaxed),
        )
    }

    /// Every finding of the events recorded so far, errors first.
    pub fn analyze(&self) -> Vec<Finding> {
        self.live.lock().findings()
    }

    /// Build a completed run's report. Any error-severity finding fails
    /// the run with the full list instead.
    pub fn report(&self) -> Result<VerifyReport, Vec<Finding>> {
        let (findings, coll_calls) = {
            let live = self.live.lock();
            (live.findings(), live.coll_calls.clone())
        };
        if findings.iter().any(|x| x.severity == Severity::Error) {
            return Err(findings);
        }
        let (dropped_incomplete, dropped_untaken) = self.drop_counters();
        Ok(VerifyReport {
            findings,
            dropped_incomplete,
            dropped_untaken,
            coll_calls,
        })
    }

    /// Build the deadlock diagnosis from the blocked-agent table.
    /// `blocked` is the engine's `(actor id, world rank)` list of agents
    /// that were parked when deadlock was declared.
    pub fn deadlock_report(&self, blocked: &[(AgentId, u32)]) -> DeadlockReport {
        let live = self.live.lock();
        DeadlockReport::new(blocked, |agent| live.pending(agent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn send(agent: AgentId, ctx: u32, dst: u32, tag: u64, req: ReqId) -> Event {
        Event::SendPost {
            agent,
            rank: agent,
            ctx,
            dst,
            tag,
            bytes: 64,
            internal: false,
            req,
            site: None,
        }
    }

    fn recv(agent: AgentId, ctx: u32, src: u32, tag: u64, req: ReqId) -> Event {
        Event::RecvPost {
            agent,
            rank: agent,
            ctx,
            src,
            tag,
            internal: false,
            req,
            site: None,
        }
    }

    fn coll(rank: u32, ctx: u32, kind: CollKind, root: Option<u32>, len: usize) -> Event {
        Event::Coll {
            rank,
            ctx,
            kind,
            root,
            len,
            blocking: true,
            req: None,
            site: None,
        }
    }

    fn decl(ctx: u32, members: &[u32]) -> Event {
        Event::CommDecl {
            ctx,
            members: Arc::new(members.to_vec()),
        }
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn root_mismatch_is_flagged_with_both_ranks() {
        let v = Verifier::new();
        v.record(decl(0, &[0, 1]));
        v.record(coll(0, 0, CollKind::Bcast, Some(0), 64));
        v.record(coll(1, 0, CollKind::Bcast, Some(1), 64));
        let f = v.analyze();
        assert!(codes(&f).contains(&"coll-mismatch"), "{f:?}");
        let text = f[0].to_string();
        assert!(text.contains("rank 0") && text.contains("rank 1"), "{text}");
        assert!(text.contains("root=0") && text.contains("root=1"), "{text}");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn skipped_collective_is_count_divergence() {
        let v = Verifier::new();
        v.record(decl(0, &[0, 1, 2]));
        v.record(coll(0, 0, CollKind::Barrier, None, 0));
        v.record(coll(1, 0, CollKind::Barrier, None, 0));
        // rank 2 never calls.
        let f = v.analyze();
        assert!(codes(&f).contains(&"coll-count"), "{f:?}");
        assert!(f[0].to_string().contains("rank 2"), "{}", f[0]);
    }

    #[test]
    fn len_mismatch_is_only_a_warning() {
        let v = Verifier::new();
        v.record(decl(0, &[0, 1]));
        v.record(coll(0, 0, CollKind::Bcast, Some(0), 64));
        v.record(coll(1, 0, CollKind::Bcast, Some(0), 128));
        let f = v.analyze();
        assert_eq!(codes(&f), vec!["coll-len-mismatch"]);
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn reordered_collectives_on_same_group_comms() {
        let v = Verifier::new();
        v.record(decl(1, &[0, 1]));
        v.record(decl(2, &[0, 1]));
        v.record(coll(0, 1, CollKind::Bcast, Some(0), 8));
        v.record(coll(0, 2, CollKind::Bcast, Some(0), 8));
        v.record(coll(1, 2, CollKind::Bcast, Some(0), 8));
        v.record(coll(1, 1, CollKind::Bcast, Some(0), 8));
        let f = v.analyze();
        assert!(codes(&f).contains(&"cross-comm-order"), "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn leaked_recv_and_unmatched_messages() {
        let v = Verifier::new();
        let r = v.next_req_id();
        v.record(recv(1, 0, 0, 7, r));
        // Never matched, never waited.
        let f = v.analyze();
        let c = codes(&f);
        assert!(c.contains(&"request-leak"), "{f:?}");
        assert!(c.contains(&"unmatched-recv"), "{f:?}");
    }

    #[test]
    fn waited_and_matched_pair_is_clean() {
        let v = Verifier::new();
        let s = v.next_req_id();
        let r = v.next_req_id();
        v.record(send(0, 0, 1, 7, s));
        v.record(recv(1, 0, 0, 7, r));
        v.record(Event::Match { send: s, recv: r });
        v.record(Event::WaitDone { agent: 0, req: s });
        v.record(Event::WaitDone { agent: 1, req: r });
        assert!(v.analyze().is_empty());
    }

    #[test]
    fn back_to_back_same_envelope_sends_warn() {
        let v = Verifier::new();
        let (s1, s2) = (v.next_req_id(), v.next_req_id());
        let (r1, r2) = (v.next_req_id(), v.next_req_id());
        v.record(send(0, 0, 1, 7, s1));
        v.record(send(0, 0, 1, 7, s2)); // posted before s1 was waited
        v.record(recv(1, 0, 0, 7, r1));
        v.record(recv(1, 0, 0, 7, r2));
        v.record(Event::Match { send: s1, recv: r1 });
        v.record(Event::Match { send: s2, recv: r2 });
        for (a, q) in [(0, s1), (0, s2), (1, r1), (1, r2)] {
            v.record(Event::WaitDone { agent: a, req: q });
        }
        let f = v.analyze();
        assert!(codes(&f).contains(&"order-dependent-match"), "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Warning));
    }

    #[test]
    fn sequential_same_envelope_sends_are_ordered_and_clean() {
        let v = Verifier::new();
        let (s1, s2) = (v.next_req_id(), v.next_req_id());
        let (r1, r2) = (v.next_req_id(), v.next_req_id());
        v.record(send(0, 0, 1, 7, s1));
        v.record(Event::WaitDone { agent: 0, req: s1 });
        v.record(send(0, 0, 1, 7, s2)); // posted after s1 completed
        v.record(recv(1, 0, 0, 7, r1));
        v.record(Event::Match { send: s1, recv: r1 });
        v.record(Event::WaitDone { agent: 1, req: r1 });
        v.record(recv(1, 0, 0, 7, r2));
        v.record(Event::Match { send: s2, recv: r2 });
        v.record(Event::WaitDone { agent: 0, req: s2 });
        v.record(Event::WaitDone { agent: 1, req: r2 });
        let f = v.analyze();
        assert!(
            !codes(&f).contains(&"order-dependent-match"),
            "sequential sends must not warn: {f:?}"
        );
    }

    /// The conservative corner: only the poster's own observation orders
    /// its next post. Rank 2 observes `s1` complete and then messages rank
    /// 0, which receives that message before posting `s2` — a
    /// happens-before chain through another agent, which the check does
    /// not follow.
    #[test]
    fn a_completion_observed_by_another_agent_does_not_order_the_next_post() {
        let v = Verifier::new();
        let (s1, s2, m) = (v.next_req_id(), v.next_req_id(), v.next_req_id());
        let (r1, r2, n) = (v.next_req_id(), v.next_req_id(), v.next_req_id());
        v.record(send(0, 0, 1, 7, s1));
        v.record(recv(1, 0, 0, 7, r1));
        v.record(Event::Match { send: s1, recv: r1 });
        v.record(Event::WaitDone { agent: 1, req: r1 });
        v.record(Event::WaitDone { agent: 2, req: s1 }); // not the poster
        v.record(send(2, 0, 0, 9, m));
        v.record(recv(0, 0, 2, 9, n));
        v.record(Event::Match { send: m, recv: n });
        v.record(Event::WaitDone { agent: 0, req: n });
        v.record(send(0, 0, 1, 7, s2));
        v.record(recv(1, 0, 0, 7, r2));
        v.record(Event::Match { send: s2, recv: r2 });
        for (a, q) in [(0, s1), (0, s2), (1, r2), (2, m)] {
            v.record(Event::WaitDone { agent: a, req: q });
        }
        let f = v.analyze();
        assert_eq!(codes(&f), vec!["order-dependent-match"], "{f:?}");
        assert!(f[0].to_string().contains("same-envelope sends"), "{}", f[0]);
    }

    #[test]
    fn deadlock_report_extracts_cycle() {
        let v = Verifier::new();
        let (ra, rb) = (v.next_req_id(), v.next_req_id());
        v.record(recv(0, 0, 1, 3, ra));
        v.record(recv(1, 0, 0, 3, rb));
        v.wait_begin(0, ra);
        v.wait_begin(1, rb);
        let report = v.deadlock_report(&[(0, 0), (1, 1)]);
        assert_eq!(report.blocked.len(), 2);
        assert!(!report.cycle.is_empty(), "{report}");
        let text = report.to_string();
        assert!(text.contains("wait-for cycle"), "{text}");
        assert!(text.contains("MPI_Irecv"), "{text}");
        assert!(text.contains("tag=3"), "{text}");
    }

    #[test]
    fn drop_counters_track_leaks() {
        let v = Verifier::new();
        let a = v.next_req_id();
        let b = v.next_req_id();
        v.req_dropped(a, false, false);
        v.req_dropped(b, true, false);
        assert_eq!(v.drop_counters(), (1, 1));
    }

    // ------------------------------------------------------------------
    // RMA epoch discipline
    // ------------------------------------------------------------------

    fn win_decl(rank: u32, win: u64) -> Event {
        Event::WinDecl {
            rank,
            win,
            site: None,
        }
    }

    fn fence(rank: u32, win: u64) -> Event {
        Event::WinFence {
            rank,
            win,
            site: None,
        }
    }

    fn rma(rank: u32, win: u64, kind: RmaKind, target: u32, offset: usize, len: usize) -> Event {
        Event::RmaOp {
            rank,
            win,
            kind,
            target,
            offset,
            len,
            req: None,
            site: None,
        }
    }

    fn win_close(v: &Verifier, ranks: &[u32], win: u64) {
        for &r in ranks {
            v.record(Event::WinFree {
                rank: r,
                win,
                site: None,
            });
            v.record(Event::WinDropped {
                rank: r,
                win,
                freed: true,
            });
        }
    }

    #[test]
    fn fenced_puts_are_clean() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        v.record(rma(0, 1, RmaKind::Put, 1, 0, 32));
        v.record(rma(1, 1, RmaKind::Put, 0, 0, 32));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        win_close(&v, &[0, 1], 1);
        assert!(v.analyze().is_empty(), "{:?}", v.analyze());
    }

    #[test]
    fn put_before_first_fence_is_outside_epoch() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(rma(0, 1, RmaKind::Put, 1, 0, 32));
        v.record(fence(0, 1));
        win_close(&v, &[0], 1);
        let f = v.analyze();
        assert!(codes(&f).contains(&"rma-outside-epoch"), "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].to_string().contains("MPI_Rput"), "{}", f[0]);
    }

    #[test]
    fn overlapping_put_and_accumulate_conflict() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        // Both origins hit rank 0's bytes 8..24 in the same epoch.
        v.record(rma(0, 1, RmaKind::Put, 0, 8, 16));
        v.record(rma(1, 1, RmaKind::Accumulate, 0, 16, 16));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        win_close(&v, &[0, 1], 1);
        let f = v.analyze();
        assert!(codes(&f).contains(&"rma-conflict"), "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn concurrent_accumulates_commute_and_are_clean() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        v.record(rma(0, 1, RmaKind::Accumulate, 0, 0, 64));
        v.record(rma(1, 1, RmaKind::Accumulate, 0, 0, 64));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        win_close(&v, &[0, 1], 1);
        assert!(v.analyze().is_empty(), "{:?}", v.analyze());
    }

    #[test]
    fn same_range_in_different_epochs_is_clean() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        v.record(rma(0, 1, RmaKind::Put, 0, 0, 64));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        v.record(rma(1, 1, RmaKind::Put, 0, 0, 64));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        win_close(&v, &[0, 1], 1);
        assert!(v.analyze().is_empty(), "{:?}", v.analyze());
    }

    #[test]
    fn lock_epoch_allows_ops_and_double_unlock_is_flagged() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(Event::WinLock {
            rank: 0,
            win: 1,
            target: 1,
            site: None,
        });
        v.record(rma(0, 1, RmaKind::Accumulate, 1, 0, 8));
        v.record(Event::WinUnlock {
            rank: 0,
            win: 1,
            target: 1,
            site: None,
        });
        // Second unlock of the same target: nothing is held.
        v.record(Event::WinUnlock {
            rank: 0,
            win: 1,
            target: 1,
            site: None,
        });
        win_close(&v, &[0, 1], 1);
        let f = v.analyze();
        assert_eq!(codes(&f), vec!["rma-double-unlock"], "{f:?}");
    }

    #[test]
    fn unfenced_ops_at_free_are_unclosed_epoch() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(fence(0, 1));
        v.record(rma(0, 1, RmaKind::Put, 0, 0, 8));
        // Missing closing fence before free.
        win_close(&v, &[0], 1);
        let f = v.analyze();
        assert!(codes(&f).contains(&"rma-unclosed-epoch"), "{f:?}");
    }

    /// The same two findings whether the epoch is still open at `free`
    /// (win 1, rank 0) or at the end of the log (win 2, rank 1, never
    /// freed).
    #[test]
    fn open_epochs_at_free_and_at_end_of_log_render_alike() {
        let v = Verifier::new();
        for (rank, win) in [(0, 1), (1, 2)] {
            v.record(win_decl(rank, win));
            v.record(fence(rank, win));
            v.record(rma(rank, win, RmaKind::Put, 0, 0, 8));
            v.record(Event::WinLock {
                rank,
                win,
                target: 1,
                site: None,
            });
        }
        v.record(Event::WinFree {
            rank: 0,
            win: 1,
            site: None,
        });
        let text: Vec<String> = v.analyze().iter().map(Finding::to_string).collect();
        let open = |rank: u32, win: u64, what: &str| {
            format!(
                "error[rma-unclosed-epoch]: rank {rank} left an epoch open on win {win} \
                 at finalize: {what}"
            )
        };
        let after_fence = "1 unsynchronized operation(s) posted after the last fence";
        let lock = "lock on rank 1 still held";
        assert_eq!(
            text,
            vec![
                open(0, 1, after_fence),
                open(0, 1, lock),
                open(1, 2, after_fence),
                open(1, 2, lock),
            ]
        );
    }

    #[test]
    fn dropped_window_without_free_is_a_leak() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(Event::WinDropped {
            rank: 0,
            win: 1,
            freed: false,
        });
        let f = v.analyze();
        assert_eq!(codes(&f), vec!["win-leak"], "{f:?}");
        assert!(f[0].to_string().contains("rank 0"), "{}", f[0]);
    }

    // ------------------------------------------------------------------
    // Exact renderings (no call sites, so no line numbers are pinned)
    // ------------------------------------------------------------------

    fn rendered(v: &Verifier) -> Vec<String> {
        v.analyze().iter().map(Finding::to_string).collect()
    }

    #[test]
    fn a_length_mismatch_renders_both_calls() {
        let v = Verifier::new();
        v.record(decl(0, &[0, 1]));
        v.record(coll(0, 0, CollKind::Bcast, Some(0), 64));
        v.record(coll(1, 0, CollKind::Bcast, Some(0), 128));
        assert_eq!(
            rendered(&v),
            [
                "warning[coll-len-mismatch]: length differs at collective #0 on comm 0: \
                 rank 0 called MPI_Bcast(root=0, len=64), but rank 1 called \
                 MPI_Bcast(root=0, len=128)"
            ]
        );
    }

    #[test]
    fn an_unmatched_user_recv_renders_its_tag_and_its_leak() {
        let v = Verifier::new();
        v.record(recv(1, 0, 0, 7, v.next_req_id()));
        assert_eq!(
            rendered(&v),
            [
                "error[request-leak]: rank 1 leaked MPI_Irecv(from rank 0, tag=7) on comm 0: \
                 never waited on or tested to completion",
                "error[unmatched-recv]: receive at rank 1 from rank 0 (tag=7) on comm 0 was \
                 never matched by a send",
            ]
        );
    }

    #[test]
    fn an_unmatched_internal_recv_renders_its_tag_in_hex() {
        let v = Verifier::new();
        v.record(Event::RecvPost {
            agent: 1,
            rank: 1,
            ctx: 0,
            src: 0,
            tag: INTERNAL_TAG_BIT | 3,
            internal: true,
            req: v.next_req_id(),
            site: None,
        });
        assert_eq!(
            rendered(&v),
            [
                "warning[unmatched-recv]: receive at rank 1 from rank 0 (internal tag \
                 0x8000000000000003) on comm 0 was never matched by a send"
            ]
        );
    }

    #[test]
    fn a_send_dropped_incomplete_renders_its_leak_and_its_unmatched_send() {
        let v = Verifier::new();
        let s = v.next_req_id();
        v.record(send(0, 0, 1, 7, s));
        v.req_dropped(s, false, false);
        assert_eq!(
            rendered(&v),
            [
                "error[request-leak]: rank 0 leaked MPI_Isend(64B to rank 1, tag=7) on comm 0: \
                 dropped before the operation completed",
                "error[unmatched-send]: send of 64B from rank 0 to rank 1 (tag=7) on comm 0 \
                 was never matched by a receive",
            ]
        );
    }

    #[test]
    fn a_get_against_an_accumulate_renders_a_conflict_warning() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(win_decl(1, 1));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        v.record(rma(0, 1, RmaKind::Get, 0, 8, 16));
        v.record(rma(1, 1, RmaKind::Accumulate, 0, 16, 16));
        v.record(fence(0, 1));
        v.record(fence(1, 1));
        win_close(&v, &[0, 1], 1);
        assert_eq!(
            rendered(&v),
            [
                "warning[rma-conflict]: conflicting one-sided accesses to rank 0's segment of \
                 win 1 in the same epoch: rank 0 MPI_Rget(16B at offset 8..24) overlaps rank 1 \
                 MPI_Raccumulate(16B at offset 16..32)"
            ]
        );
    }

    #[test]
    fn a_lock_held_at_free_renders_an_unclosed_epoch() {
        let v = Verifier::new();
        v.record(win_decl(0, 1));
        v.record(Event::WinLock {
            rank: 0,
            win: 1,
            target: 1,
            site: None,
        });
        win_close(&v, &[0], 1);
        assert_eq!(
            rendered(&v),
            [
                "error[rma-unclosed-epoch]: rank 0 left an epoch open on win 1 at finalize: \
                 lock on rank 1 still held"
            ]
        );
    }

    /// Rank 0's progress actor waits on rank 1, which is blocked in an
    /// operation the verifier never saw posted.
    #[test]
    fn a_blocked_progress_actor_renders_its_actor_id() {
        let v = Verifier::new();
        let (actor, r) = (0x8000_0002, v.next_req_id());
        v.record(Event::RecvPost {
            agent: actor,
            rank: 0,
            ctx: 0,
            src: 1,
            tag: 5,
            internal: false,
            req: r,
            site: None,
        });
        v.wait_begin(actor, r);
        let report = v.deadlock_report(&[(1, 1), (actor, 0)]);
        assert_eq!(
            report.to_string(),
            "simulation deadlocked: 2 agent(s) blocked on 2 rank(s)\n  \
             rank 0 (progress actor 0x80000002): blocked in MPI_Irecv(from rank 1, tag=5) on \
             comm 0\n  \
             rank 1: blocked (operation unknown)"
        );
    }
}
