//! Loom schedule tests for the runtime's concurrency core.
//!
//! Built (and the whole crate's `crate::sync` switched to loom primitives)
//! only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ovcomm-rt --test loom
//! ```
//!
//! Nine tests in three groups. The envelope tests drive the production
//! matcher, [`ovcomm_rt::mailbox::Mailbox`] — also the simulator's
//! (`ovcomm_simmpi::mailbox`), so the FIFO pairing checked here is the one
//! both backends match by — inside a miniature runtime with the shape of
//! `RtShared::{post_send, post_recv, deliver_match}`: a post locks the
//! mailbox, posts, releases the lock, and only then completes the matched
//! pair (the lost-wakeup-prone part); waiters block on a mutex+condvar
//! completion cell. The queue tests drive `ovcomm_rt::queue`, and the
//! window tests the one-sided window core. The loom scheduler explores
//! randomized interleavings of every lock acquire, condvar wait/notify,
//! and atomic access, and its deadlock detector turns any lost wakeup or
//! handshake hole into a test failure naming the seed.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

use ovcomm_rt::mailbox::{Mailbox, RecvPost, RtKey, SendPost};
use ovcomm_rt::queue::{MpscQueue, Popped, SpscRing};
use ovcomm_simmpi::rma::{StagedOp, WinCore};
use ovcomm_simmpi::Payload;

const SCHEDULES: u64 = 64;

fn key(tag: u64) -> RtKey {
    RtKey {
        ctx: 0,
        src: 0,
        dst: 1,
        tag,
    }
}

/// A completion cell: the distilled `Request` and its parked waiter, with a
/// condvar standing in for the waiter's thread park. `wait` parks on the
/// condvar until `complete` delivers a value.
struct CompletionCell<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> CompletionCell<T> {
    fn new() -> CompletionCell<T> {
        CompletionCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, v: T) {
        *self.slot.lock() = Some(v);
        self.cv.notify_all();
    }

    fn wait(&self) -> T {
        let mut g = self.slot.lock();
        loop {
            if let Some(v) = g.take() {
                return v;
            }
            self.cv.wait(&mut g);
        }
    }
}

/// Parked send slot in the mini runtime: the payload plus the sender's
/// completion cell and protocol flag (mirrors `shared::Slot`).
struct MiniSlot {
    payload: u64,
    sender: Arc<CompletionCell<()>>,
    eager: bool,
}

/// The mini runtime: the production matcher under a loom mutex, posted
/// to the way `RtShared::{post_send, post_recv}` post — lock, post,
/// release, then complete the matched pair.
struct MiniRt {
    mailbox: Mutex<Mailbox<MiniSlot, Arc<CompletionCell<u64>>>>,
}

impl MiniRt {
    fn new() -> MiniRt {
        MiniRt {
            mailbox: Mutex::new(Mailbox::new()),
        }
    }

    /// Complete a matched pair, outside the mailbox lock.
    fn deliver(send: MiniSlot, recv: Arc<CompletionCell<u64>>) {
        if !send.eager {
            send.sender.complete(());
        }
        recv.complete(send.payload);
    }

    /// Post a send; eager sends complete at post, rendezvous at match.
    /// Returns the sender's completion cell.
    fn isend(&self, key: RtKey, payload: u64, eager: bool) -> Arc<CompletionCell<()>> {
        let sender = Arc::new(CompletionCell::new());
        if eager {
            sender.complete(());
        }
        let slot = MiniSlot {
            payload,
            sender: sender.clone(),
            eager,
        };
        let posted = self.mailbox.lock().post_send(key, slot);
        if let SendPost::Matched { send, recv } = posted {
            MiniRt::deliver(send, recv);
        }
        sender
    }

    /// Post a receive; returns the receiver's completion cell.
    fn irecv(&self, key: RtKey) -> Arc<CompletionCell<u64>> {
        let entry = Arc::new(CompletionCell::new());
        let posted = self.mailbox.lock().post_recv(key, entry.clone());
        if let RecvPost::Matched { send, recv } = posted {
            MiniRt::deliver(send, recv);
        }
        entry
    }

    fn drained(&self) -> bool {
        self.mailbox.lock().is_drained()
    }
}

/// One eager send racing one receive: under every schedule the payload is
/// delivered, both requests complete, and the mailbox drains.
#[test]
fn eager_match_commutes_with_post_order() {
    loom::model_with(SCHEDULES, 0xA11CE, || {
        let rt = Arc::new(MiniRt::new());
        let rts = rt.clone();
        let sender = thread::spawn(move || rts.isend(key(1), 42, true).wait());
        let rtr = rt.clone();
        let receiver = thread::spawn(move || rtr.irecv(key(1)).wait());
        sender.join().unwrap();
        assert_eq!(receiver.join().unwrap(), 42);
        assert!(rt.drained());
    });
}

/// Two same-envelope sends against two receives posted from another
/// thread: MPI's non-overtaking rule must hold under every interleaving —
/// the first-posted receive gets the first-posted payload.
#[test]
fn fifo_matching_never_overtakes() {
    loom::model_with(SCHEDULES, 0xF1F0, || {
        let rt = Arc::new(MiniRt::new());
        let rts = rt.clone();
        let sender = thread::spawn(move || {
            let s1 = rts.isend(key(9), 100, true);
            let s2 = rts.isend(key(9), 200, true);
            s1.wait();
            s2.wait();
        });
        let rtr = rt.clone();
        let receiver = thread::spawn(move || {
            let r1 = rtr.irecv(key(9));
            let r2 = rtr.irecv(key(9));
            (r1.wait(), r2.wait())
        });
        sender.join().unwrap();
        let (v1, v2) = receiver.join().unwrap();
        assert_eq!((v1, v2), (100, 200), "receives matched out of post order");
        assert!(rt.drained());
    });
}

/// Rendezvous handshake: the sender's completion must happen-after the
/// receive is posted, and the blocking wait on it must never miss the
/// wakeup (a lost notify would deadlock the schedule and fail the model).
#[test]
fn rendezvous_completion_waits_for_the_receiver() {
    loom::model_with(SCHEDULES, 0xDE2F, || {
        let rt = Arc::new(MiniRt::new());
        let recv_posted = Arc::new(AtomicBool::new(false));
        let rts = rt.clone();
        let flag = recv_posted.clone();
        let sender = thread::spawn(move || {
            let req = rts.isend(key(5), 7, false);
            req.wait();
            // Rendezvous: by the time the send completes, the receive must
            // have been posted (eager buffering is not allowed here).
            assert!(
                flag.load(Ordering::SeqCst),
                "rendezvous send completed before its receive was posted"
            );
        });
        let rtr = rt.clone();
        let flag2 = recv_posted.clone();
        let receiver = thread::spawn(move || {
            flag2.store(true, Ordering::SeqCst);
            rtr.irecv(key(5)).wait()
        });
        sender.join().unwrap();
        assert_eq!(receiver.join().unwrap(), 7);
        assert!(rt.drained());
    });
}

/// Concurrent SPSC push/pop through a deliberately tiny ring: FIFO order
/// must hold and the full-ring `Err` path must hand the value back intact
/// for the retry.
#[test]
fn spsc_ring_concurrent_push_pop_stays_fifo() {
    loom::model_with(SCHEDULES, 0x59C0, || {
        let ring = Arc::new(SpscRing::new(2));
        let pring = ring.clone();
        let producer = thread::spawn(move || {
            for v in 0..4u64 {
                let mut v = v;
                // Safety: this thread is the ring's only producer.
                while let Err(back) = unsafe { pring.try_push(v) } {
                    v = back;
                    thread::yield_now();
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 4 {
            // Safety: this thread is the ring's only consumer.
            match unsafe { ring.pop() } {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3], "SPSC ring reordered or lost");
        assert!(ring.is_empty());
    });
}

/// Two concurrent producers against one consumer: the MPSC queue must
/// lose nothing and keep each producer's own order, and the consumer's
/// view of a producer parked mid-push (`Inconsistent`) must resolve once
/// that producer runs again.
#[test]
fn mpsc_queue_concurrent_producers_preserve_per_producer_order() {
    loom::model_with(SCHEDULES, 0x3A1B, || {
        let q = Arc::new(MpscQueue::new());
        let qa = q.clone();
        let a = thread::spawn(move || {
            qa.push(10u64);
            qa.push(11);
        });
        let qb = q.clone();
        let b = thread::spawn(move || {
            qb.push(20u64);
            qb.push(21);
        });
        let mut got = Vec::new();
        while got.len() < 4 {
            // Safety: this thread is the queue's only consumer.
            match unsafe { q.pop() } {
                Popped::Item(v) => got.push(v),
                Popped::Empty | Popped::Inconsistent => thread::yield_now(),
            }
        }
        a.join().unwrap();
        b.join().unwrap();
        let pos = |v: u64| got.iter().position(|&x| x == v).unwrap();
        assert!(pos(10) < pos(11), "producer A reordered: {got:?}");
        assert!(pos(20) < pos(21), "producer B reordered: {got:?}");
        // Safety: still the only consumer.
        assert_eq!(unsafe { q.pop() }, Popped::Empty);
    });
}

// ---------------------------------------------------------------------
// One-sided window core (`ovcomm_simmpi::rma::WinCore`) — the
// loom-checked half of the RMA path, and the one state machine both
// backends' `Win<T>` runs. Its methods take `&mut self`; the holder owns
// the mutex. The harness plays the role of `Win<T>`: the core sits under
// `loom::sync::Mutex` (production: `parking_lot`), grants are completion
// cells (production: `Request<()>` completed through the transport),
// completed outside the core's mutex exactly as `Win::unlock` does.
// ---------------------------------------------------------------------

/// The production window core, granting through completion cells.
type ModelCore = WinCore<Arc<CompletionCell<()>>>;

/// Passive-target lock/unlock handoff: three origins contend for rank 0's
/// lock, each staging one accumulate inside its critical section. Under
/// every schedule the lock is mutually exclusive, no queued grant is ever
/// lost (a lost handoff deadlocks the schedule and fails the model with
/// its seed), and the applied ops sum exactly.
#[test]
fn window_lock_handoff_is_exclusive_and_never_lost() {
    loom::model_with(SCHEDULES, 0x10CC, || {
        let core: Arc<Mutex<ModelCore>> = Arc::new(Mutex::new(WinCore::new(3)));
        for r in 0..3 {
            core.lock().deposit(r, &Payload::from_f64s(&[0.0]));
        }
        let in_crit = Arc::new(loom::sync::atomic::AtomicUsize::new(0));
        let handles: Vec<_> = (1..3u32)
            .map(|me| {
                let core = core.clone();
                let in_crit = in_crit.clone();
                thread::spawn(move || {
                    let grant = Arc::new(CompletionCell::new());
                    if !core.lock().lock_or_queue(0, me, grant.clone()) {
                        grant.wait();
                    }
                    assert_eq!(
                        in_crit.fetch_add(1, Ordering::SeqCst),
                        0,
                        "two origins inside the lock"
                    );
                    core.lock().stage(
                        0,
                        StagedOp {
                            origin: me,
                            seq: 0,
                            offset: 0,
                            acc: true,
                            data: Payload::from_f64s(&[f64::from(me)]),
                        },
                    );
                    in_crit.fetch_sub(1, Ordering::SeqCst);
                    let (_bytes, next) = core.lock().unlock(0, me);
                    // The handoff completes outside the core's mutex,
                    // exactly as `Win::unlock` does.
                    if let Some((_rank, g)) = next {
                        g.complete(());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            core.lock().holder(0),
            None,
            "lock still held after all unlocks"
        );
        // Each origin's ops were applied at its unlock: 1.0 + 2.0.
        let v = core.lock().snapshot(0, 0, 8).to_f64s();
        assert_eq!(v, vec![3.0], "accumulates lost or double-applied");
    });
}

/// Concurrent fenced accumulate/put determinism: two origins stage against
/// rank 0 in racing threads, then the epoch closes (`apply_target`). The
/// apply order is `(origin, seq)` — so whatever interleaving staged the
/// ops, the committed bytes must come out identical: accumulates sum, and
/// the last-origin put wins the overwritten slot.
#[test]
fn window_concurrent_ops_apply_deterministically() {
    loom::model_with(SCHEDULES, 0xACC0, || {
        let core: Arc<Mutex<ModelCore>> = Arc::new(Mutex::new(WinCore::new(3)));
        for r in 0..3 {
            core.lock().deposit(r, &Payload::from_f64s(&[0.0, 0.0]));
        }
        let handles: Vec<_> = (1..3u32)
            .map(|me| {
                let core = core.clone();
                thread::spawn(move || {
                    // Slot 0: accumulate (commutes). Slot 1: put (must
                    // resolve by origin order, not schedule order).
                    core.lock().stage(
                        0,
                        StagedOp {
                            origin: me,
                            seq: 0,
                            offset: 0,
                            acc: true,
                            data: Payload::from_f64s(&[f64::from(me)]),
                        },
                    );
                    core.lock().stage(
                        0,
                        StagedOp {
                            origin: me,
                            seq: 1,
                            offset: 8,
                            acc: false,
                            data: Payload::from_f64s(&[10.0 * f64::from(me)]),
                        },
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let bytes = core.lock().apply_target(0);
        assert_eq!(bytes, 32, "four staged ops of 8 bytes each");
        let v = core.lock().snapshot(0, 0, 16).to_f64s();
        // 1.0 + 2.0 accumulated; origin 2's put applies after origin 1's.
        assert_eq!(v, vec![3.0, 20.0], "apply order depended on the schedule");
    });
}

/// Epoch-close atomicity vs gets: a reader snapshots rank 0's segment
/// while the epoch-close applies a two-slot put. The snapshot must be the
/// committed state before or after the whole apply — never a torn,
/// half-applied mix.
#[test]
fn window_snapshot_never_observes_a_half_applied_epoch() {
    loom::model_with(SCHEDULES, 0x5AFE, || {
        let core: Arc<Mutex<ModelCore>> = Arc::new(Mutex::new(WinCore::new(2)));
        for r in 0..2 {
            core.lock().deposit(r, &Payload::from_f64s(&[0.0, 0.0]));
        }
        core.lock().stage(
            0,
            StagedOp {
                origin: 1,
                seq: 0,
                offset: 0,
                acc: false,
                data: Payload::from_f64s(&[1.0, 1.0]),
            },
        );
        let closer = {
            let core = core.clone();
            thread::spawn(move || {
                core.lock().apply_target(0);
            })
        };
        let v = core.lock().snapshot(0, 0, 16).to_f64s();
        closer.join().unwrap();
        assert!(
            v == vec![0.0, 0.0] || v == vec![1.0, 1.0],
            "torn snapshot: {v:?}"
        );
    });
}

/// Distinct envelopes are fully independent: concurrent traffic on two
/// tags never cross-matches and never deadlocks, whichever side posts
/// first on each.
#[test]
fn disjoint_envelopes_do_not_interfere() {
    loom::model_with(SCHEDULES, 0x5EED, || {
        let rt = Arc::new(MiniRt::new());
        let rta = rt.clone();
        let a = thread::spawn(move || {
            let s = rta.isend(key(1), 111, true);
            let r = rta.irecv(key(2));
            s.wait();
            r.wait()
        });
        let rtb = rt.clone();
        let b = thread::spawn(move || {
            let s = rtb.isend(key(2), 222, false);
            let r = rtb.irecv(key(1));
            s.wait();
            r.wait()
        });
        assert_eq!(a.join().unwrap(), 222);
        assert_eq!(b.join().unwrap(), 111);
        assert!(rt.drained());
    });
}
