//! Offline stand-in for the `loom` crate: a cooperative, seeded-schedule
//! concurrency model checker.
//!
//! The build environment has no access to crates.io, so the workspace vends
//! API-compatible subsets of its external dependencies (see
//! `shims/README.md`). Real loom exhaustively enumerates interleavings under
//! the C11 memory model with DPOR pruning; this shim explores *randomized
//! serialized schedules* instead:
//!
//! * [`model`] runs the closure many times (default 128, override with
//!   `LOOM_SHIM_SCHEDULES`; base seed with `LOOM_SHIM_SEED`). Each run is
//!   driven by one deterministic xorshift-seeded scheduler.
//! * Exactly one model thread executes at a time. Every synchronization
//!   point — mutex acquire/release, condvar wait/notify, atomic access,
//!   spawn, join, [`thread::yield_now`] — is a schedule point where the
//!   scheduler hands the baton to a pseudo-randomly chosen runnable thread.
//! * Deadlocks are detected and reported: all threads blocked (condvar
//!   wait / join with nobody to wake them), or a lock held by a thread
//!   that can never run again.
//! * A panic on any model thread fails the whole schedule and reports the
//!   seed, so failures reproduce by pinning `LOOM_SHIM_SEED`.
//!
//! Deviations from upstream loom that matter:
//!
//! * Exploration is sampled, not exhaustive — a clean run is strong
//!   evidence, not proof. Seeds are deterministic, so runs reproduce.
//! * Only sequential consistency is modeled: schedules interleave at
//!   operation granularity, weak-memory reorderings are not simulated.
//! * `Mutex`/`Condvar` mirror the workspace's parking_lot shim surface
//!   (infallible `lock()`, `wait(&mut guard)`) rather than upstream loom's
//!   std-flavored `Result` API, so `crate::sync`-style switchyards can
//!   re-export either backend unchanged.
//! * Outside [`model`] the primitives degrade to plain `std::sync`
//!   behavior, so code built with `--cfg loom` still runs normally.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic as stdatomic;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::{Arc as StdArc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// Panic payload used to unwind model threads when the schedule aborts
/// (deadlock detected or another thread panicked first). Recognized by the
/// thread wrapper so it does not overwrite the original failure message.
const ABORT_PAYLOAD: &str = "loom-shim: schedule aborted";

/// Consecutive failed `try_lock` attempts with no global progress before a
/// spinning `lock()` declares the schedule wedged (lock holder can never
/// run again).
const STUCK_SPINS: u32 = 5_000;

/// How long [`model`] waits for a schedule before declaring the shim
/// itself wedged. Belt-and-braces: schedules are cooperative and finite.
const SCHEDULE_WALL_LIMIT: Duration = Duration::from_secs(120);

// ---------------------------------------------------------------------------
// Scheduler kernel
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

struct KState {
    status: Vec<Status>,
    /// Thread currently holding the baton.
    current: usize,
    /// xorshift64* state driving schedule choices.
    rng: u64,
    /// Bumped on unlock / notify / finish; lets spinning lockers detect
    /// that the holder can never release.
    progress: u64,
    /// First failure of this schedule (panic message or deadlock report).
    abort: Option<String>,
    /// Condvar id → threads blocked in `wait`.
    cv_waiters: HashMap<usize, Vec<usize>>,
    /// Target thread → threads blocked joining it.
    join_waiters: HashMap<usize, Vec<usize>>,
}

impl KState {
    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Hand the baton to a pseudo-random runnable thread. With nobody
    /// runnable and somebody blocked, the schedule is deadlocked.
    fn pick_next(&mut self) {
        let runnable: Vec<usize> = self
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if self.abort.is_none() && self.status.contains(&Status::Blocked) {
                let blocked: Vec<usize> = self
                    .status
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == Status::Blocked)
                    .map(|(i, _)| i)
                    .collect();
                self.abort = Some(format!(
                    "deadlock: every live thread is blocked (threads {blocked:?} \
                     waiting on a condvar or join with nobody left to wake them)"
                ));
            }
            return;
        }
        let i = (self.xorshift() % runnable.len() as u64) as usize;
        self.current = runnable[i];
    }

    fn all_finished(&self) -> bool {
        self.status.iter().all(|s| *s == Status::Finished)
    }
}

struct Kernel {
    m: StdMutex<KState>,
    cv: StdCondvar,
}

impl Kernel {
    fn new(seed: u64) -> Kernel {
        Kernel {
            m: StdMutex::new(KState {
                status: Vec::new(),
                current: 0,
                rng: seed | 1,
                progress: 0,
                abort: None,
                cv_waiters: HashMap::new(),
                join_waiters: HashMap::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lk(&self) -> std::sync::MutexGuard<'_, KState> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lk();
        st.status.push(Status::Runnable);
        st.status.len() - 1
    }

    /// Abort the schedule with `msg` (first failure wins) and wake every
    /// parked thread so they can unwind.
    fn abort_with(&self, msg: String) -> ! {
        {
            let mut st = self.lk();
            if st.abort.is_none() {
                st.abort = Some(msg);
            }
        }
        self.cv.notify_all();
        std::panic::panic_any(ABORT_PAYLOAD);
    }

    /// Schedule point: offer the baton to a random runnable thread (maybe
    /// self) and wait until it comes back.
    fn yield_point(&self, me: usize) {
        let mut st = self.lk();
        if st.abort.is_some() {
            drop(st);
            std::panic::panic_any(ABORT_PAYLOAD);
        }
        st.pick_next();
        self.cv.notify_all();
        while st.current != me {
            if st.abort.is_some() {
                drop(st);
                std::panic::panic_any(ABORT_PAYLOAD);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block the calling thread until another thread marks it runnable
    /// again (condvar notify, join target finishing). `register` records
    /// where it is waiting while the kernel lock is held.
    fn block(&self, me: usize, register: impl FnOnce(&mut KState)) {
        let mut st = self.lk();
        if st.abort.is_some() {
            drop(st);
            std::panic::panic_any(ABORT_PAYLOAD);
        }
        register(&mut st);
        st.status[me] = Status::Blocked;
        st.pick_next();
        self.cv.notify_all();
        while st.current != me || st.status[me] != Status::Runnable {
            if st.abort.is_some() {
                drop(st);
                std::panic::panic_any(ABORT_PAYLOAD);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wait for the baton without being runnable-blocked (thread startup).
    fn wait_for_baton(&self, me: usize) {
        let mut st = self.lk();
        while st.current != me {
            if st.abort.is_some() {
                drop(st);
                std::panic::panic_any(ABORT_PAYLOAD);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn progress(&self) -> u64 {
        self.lk().progress
    }

    fn on_release(&self) {
        let mut st = self.lk();
        st.progress += 1;
    }

    fn notify_cv(&self, cv_id: usize, all: bool) {
        let mut st = self.lk();
        st.progress += 1;
        if let Some(waiters) = st.cv_waiters.get_mut(&cv_id) {
            let woken: Vec<usize> = if all {
                std::mem::take(waiters)
            } else {
                waiters.drain(..1.min(waiters.len())).collect()
            };
            for t in woken {
                st.status[t] = Status::Runnable;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lk();
        if let Some(msg) = panic_msg {
            if st.abort.is_none() {
                st.abort = Some(msg);
            }
        }
        st.status[me] = Status::Finished;
        if let Some(joiners) = st.join_waiters.remove(&me) {
            for j in joiners {
                st.status[j] = Status::Runnable;
            }
        }
        st.progress += 1;
        st.pick_next();
        drop(st);
        self.cv.notify_all();
    }

    fn join_on(&self, me: usize, target: usize) {
        let finished = { self.lk().status[target] == Status::Finished };
        if !finished {
            self.block(me, |st| {
                st.join_waiters.entry(target).or_default().push(me);
            });
        }
    }
}

thread_local! {
    /// The active scheduler and this thread's id, set while running inside
    /// [`model`]. `None` means "degrade to plain std behavior".
    static CTX: RefCell<Option<(StdArc<Kernel>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(StdArc<Kernel>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn schedule_point() {
    if let Some((k, me)) = ctx() {
        k.yield_point(me);
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "thread panicked with a non-string payload".to_string()
    }
}

fn run_managed<T: Send + 'static>(
    kernel: StdArc<Kernel>,
    id: usize,
    result: StdArc<StdMutex<Option<T>>>,
    f: impl FnOnce() -> T + Send + 'static,
) {
    CTX.with(|c| *c.borrow_mut() = Some((kernel.clone(), id)));
    let out = catch_unwind(AssertUnwindSafe(|| {
        kernel.wait_for_baton(id);
        f()
    }));
    let panic_msg = match out {
        Ok(v) => {
            *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
            None
        }
        Err(p) => {
            if p.downcast_ref::<&str>() == Some(&ABORT_PAYLOAD) {
                None // the original failure is already recorded
            } else {
                Some(panic_message(p.as_ref()))
            }
        }
    };
    kernel.finish(id, panic_msg);
    CTX.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------------
// model()
// ---------------------------------------------------------------------------

/// Run `f` under many deterministic randomized schedules, panicking with
/// the failing seed if any schedule panics or deadlocks.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let iters = std::env::var("LOOM_SHIM_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(128);
    let base = std::env::var("LOOM_SHIM_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    model_with(iters, base, f);
}

/// [`model`] with explicit schedule count and base seed (used by tests to
/// keep runtimes bounded regardless of the environment).
pub fn model_with<F>(iters: u64, base_seed: u64, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = StdArc::new(f);
    for i in 0..iters {
        let seed = base_seed ^ (i.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
        let kernel = StdArc::new(Kernel::new(seed));
        let id = kernel.register_thread();
        debug_assert_eq!(id, 0);
        let result = StdArc::new(StdMutex::new(None::<()>));
        let (k2, r2, f2) = (kernel.clone(), result.clone(), f.clone());
        let os = std::thread::spawn(move || run_managed(k2, id, r2, move || f2()));
        // Wait for the whole thread tree of this schedule to finish.
        let mut st = kernel.lk();
        let deadline = std::time::Instant::now() + SCHEDULE_WALL_LIMIT;
        while !st.all_finished() {
            let (g, timed_out) = kernel
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
            if timed_out.timed_out() && std::time::Instant::now() > deadline {
                st.abort = Some("schedule wedged: threads did not finish".into());
                kernel.cv.notify_all();
            }
        }
        let abort = st.abort.clone();
        drop(st);
        let _ = os.join();
        if let Some(msg) = abort {
            panic!("loom-shim: schedule {i} of {iters} (seed {seed:#x}) failed: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Managed (or pass-through) threads: `spawn`, `yield_now`, `JoinHandle`.
pub mod thread {
    use super::*;

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Managed {
            id: usize,
            kernel: StdArc<Kernel>,
            result: StdArc<StdMutex<Option<T>>>,
        },
    }

    /// Handle to a spawned model thread; [`JoinHandle::join`] blocks the
    /// schedule until it finishes.
    pub struct JoinHandle<T>(Imp<T>);

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and return its value. Mirrors
        /// `std::thread::JoinHandle::join`'s `Result` so `.unwrap()` at
        /// call sites works against either backend.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Imp::Std(h) => h.join(),
                Imp::Managed { id, kernel, result } => {
                    let me = ctx().map(|(_, me)| me).unwrap_or_else(|| {
                        panic!("loom-shim: join on a model thread from outside model()")
                    });
                    kernel.join_on(me, id);
                    match result.lock().unwrap_or_else(PoisonError::into_inner).take() {
                        Some(v) => Ok(v),
                        // The target panicked: its message is the schedule's
                        // abort; unwind this thread too.
                        None => std::panic::panic_any(ABORT_PAYLOAD),
                    }
                }
            }
        }
    }

    /// Spawn a thread participating in the current model schedule (plain
    /// `std::thread::spawn` outside [`model`]).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            Some((kernel, me)) => {
                let id = kernel.register_thread();
                let result = StdArc::new(StdMutex::new(None::<T>));
                let (k2, r2) = (kernel.clone(), result.clone());
                std::thread::spawn(move || run_managed(k2, id, r2, f));
                // Spawn is a schedule point: the child may run first.
                kernel.yield_point(me);
                JoinHandle(Imp::Managed { id, kernel, result })
            }
            None => JoinHandle(Imp::Std(std::thread::spawn(f))),
        }
    }

    /// Voluntary schedule point.
    pub fn yield_now() {
        schedule_point();
    }
}

// ---------------------------------------------------------------------------
// sync
// ---------------------------------------------------------------------------

/// `Mutex`/`Condvar`/`Arc` and atomics participating in the model schedule.
pub mod sync {
    use super::*;

    pub use std::sync::Arc;

    /// A model-aware mutex with parking_lot's infallible `lock()` API.
    pub struct Mutex<T: ?Sized> {
        inner: StdMutex<T>,
    }

    /// RAII guard returned by [`Mutex::lock`]. Releasing it is a progress
    /// event for the scheduler's deadlock detector.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        guard: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Create a new mutex guarding `value`.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: StdMutex::new(value),
            }
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the mutex, never failing. Under a model schedule this is
        /// a schedule point, and acquisition spins through the scheduler so
        /// a lock held by a permanently-blocked thread is reported as a
        /// deadlock instead of hanging.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            if let Some((k, me)) = ctx() {
                let mut spins: u32 = 0;
                let mut last_progress = k.progress();
                loop {
                    k.yield_point(me);
                    match self.inner.try_lock() {
                        Ok(g) => {
                            return MutexGuard {
                                lock: self,
                                guard: Some(g),
                            }
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return MutexGuard {
                                lock: self,
                                guard: Some(p.into_inner()),
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            let p = k.progress();
                            if p != last_progress {
                                last_progress = p;
                                spins = 0;
                            } else {
                                spins += 1;
                                if spins > STUCK_SPINS {
                                    k.abort_with(
                                        "deadlock: lock() spinning on a mutex whose holder \
                                         never releases it"
                                            .into(),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            MutexGuard {
                lock: self,
                guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            }
        }

        /// Try to acquire the mutex without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            schedule_point();
            match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    guard: Some(g),
                }),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                    lock: self,
                    guard: Some(p.into_inner()),
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.guard.as_ref().expect("guard taken during wait")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.guard.as_mut().expect("guard taken during wait")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.guard.take().is_some() && !std::thread::panicking() {
                if let Some((k, _)) = ctx() {
                    k.on_release();
                }
            }
        }
    }

    /// A model-aware condvar with parking_lot's `wait(&mut MutexGuard)`
    /// API. Lost wakeups (notify with no waiter, then wait forever) show
    /// up as model deadlocks.
    pub struct Condvar {
        inner: StdCondvar,
        /// Lazily-assigned scheduler identity (0 = unassigned).
        id: stdatomic::AtomicUsize,
    }

    static NEXT_CV_ID: stdatomic::AtomicUsize = stdatomic::AtomicUsize::new(1);

    impl Condvar {
        /// Create a new condition variable.
        pub const fn new() -> Condvar {
            Condvar {
                inner: StdCondvar::new(),
                id: stdatomic::AtomicUsize::new(0),
            }
        }

        fn id(&self) -> usize {
            let v = self.id.load(StdOrdering::SeqCst);
            if v != 0 {
                return v;
            }
            let n = NEXT_CV_ID.fetch_add(1, StdOrdering::SeqCst);
            match self
                .id
                .compare_exchange(0, n, StdOrdering::SeqCst, StdOrdering::SeqCst)
            {
                Ok(_) => n,
                Err(e) => e,
            }
        }

        /// Block on the condvar, releasing the guarded mutex while waiting.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            match ctx() {
                Some((k, me)) => {
                    let lock = guard.lock;
                    // Release without a guard Drop (no relock yet).
                    guard.guard = None;
                    k.on_release();
                    let cv_id = self.id();
                    k.block(me, |st| {
                        st.cv_waiters.entry(cv_id).or_default().push(me);
                    });
                    // Reacquire through the scheduling lock path, then steal
                    // the std guard back into the caller's wrapper.
                    let mut g = lock.lock();
                    guard.guard = g.guard.take();
                    std::mem::forget(g);
                }
                None => {
                    let g = guard.guard.take().expect("guard taken during wait");
                    let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
                    guard.guard = Some(g);
                }
            }
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            match ctx() {
                Some((k, _)) => k.notify_cv(self.id(), false),
                None => self.inner.notify_one(),
            }
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            match ctx() {
                Some((k, _)) => k.notify_cv(self.id(), true),
                None => self.inner.notify_all(),
            }
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    /// Atomics whose every access is a schedule point.
    pub mod atomic {
        use super::super::schedule_point;
        pub use std::sync::atomic::Ordering;

        macro_rules! model_atomic {
            ($name:ident, $std:ty, $val:ty) => {
                /// Model-aware atomic: each access is a schedule point.
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: $std,
                }

                impl $name {
                    /// Create a new atomic with `v`.
                    pub const fn new(v: $val) -> $name {
                        $name {
                            inner: <$std>::new(v),
                        }
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $val {
                        schedule_point();
                        self.inner.load(order)
                    }

                    /// Atomic store.
                    pub fn store(&self, v: $val, order: Ordering) {
                        schedule_point();
                        self.inner.store(v, order)
                    }

                    /// Atomic swap.
                    pub fn swap(&self, v: $val, order: Ordering) -> $val {
                        schedule_point();
                        self.inner.swap(v, order)
                    }

                    /// Atomic compare-and-exchange.
                    pub fn compare_exchange(
                        &self,
                        cur: $val,
                        new: $val,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$val, $val> {
                        schedule_point();
                        self.inner.compare_exchange(cur, new, ok, err)
                    }
                }
            };
        }

        model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        impl AtomicU64 {
            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
                schedule_point();
                self.inner.fetch_add(v, order)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
                schedule_point();
                self.inner.fetch_sub(v, order)
            }
        }

        impl AtomicUsize {
            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
                schedule_point();
                self.inner.fetch_add(v, order)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
                schedule_point();
                self.inner.fetch_sub(v, order)
            }
        }

        impl AtomicBool {
            /// Atomic or, returning the previous value.
            pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
                schedule_point();
                self.inner.fetch_or(v, order)
            }
        }

        /// Model-aware atomic pointer: each access is a schedule point.
        /// Needed by the runtime's lock-free MPSC injector, whose intrusive
        /// links are `AtomicPtr<Node<T>>`.
        #[derive(Debug)]
        pub struct AtomicPtr<T> {
            inner: std::sync::atomic::AtomicPtr<T>,
        }

        impl<T> AtomicPtr<T> {
            /// Create a new atomic pointer holding `p`.
            pub const fn new(p: *mut T) -> AtomicPtr<T> {
                AtomicPtr {
                    inner: std::sync::atomic::AtomicPtr::new(p),
                }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> *mut T {
                schedule_point();
                self.inner.load(order)
            }

            /// Atomic store.
            pub fn store(&self, p: *mut T, order: Ordering) {
                schedule_point();
                self.inner.store(p, order)
            }

            /// Atomic swap.
            pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
                schedule_point();
                self.inner.swap(p, order)
            }

            /// Atomic compare-and-exchange.
            pub fn compare_exchange(
                &self,
                cur: *mut T,
                new: *mut T,
                ok: Ordering,
                err: Ordering,
            ) -> Result<*mut T, *mut T> {
                schedule_point();
                self.inner.compare_exchange(cur, new, ok, err)
            }
        }

        impl<T> Default for AtomicPtr<T> {
            fn default() -> Self {
                AtomicPtr::new(std::ptr::null_mut())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Condvar, Mutex};

    #[test]
    fn mutex_provides_mutual_exclusion() {
        super::model_with(20, 7, || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = counter.clone();
                    super::thread::spawn(move || {
                        for _ in 0..4 {
                            let mut g = c.lock();
                            let v = *g;
                            super::thread::yield_now();
                            *g = v + 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock(), 12);
        });
    }

    #[test]
    fn condvar_wakeup_is_never_lost() {
        super::model_with(40, 11, || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = pair.clone();
            let t = super::thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut done = m.lock();
                while !*done {
                    cv.wait(&mut done);
                }
            });
            {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_one();
            }
            t.join().unwrap();
        });
    }

    #[test]
    fn deadlock_is_detected() {
        let r = std::panic::catch_unwind(|| {
            super::model_with(1, 3, || {
                let pair = Arc::new((Mutex::new(()), Condvar::new()));
                // Nobody ever notifies: the model must report a deadlock
                // rather than hang.
                let (m, cv) = &*pair;
                let mut g = m.lock();
                cv.wait(&mut g);
            });
        });
        let msg = match r {
            Ok(()) => panic!("deadlocked schedule was not reported"),
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        assert!(msg.contains("deadlock"), "unexpected report: {msg}");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        // The same seed must produce the same interleaving: record the
        // winner of a two-thread race twice and compare.
        let run = || {
            let order = Arc::new(Mutex::new(Vec::new()));
            let winners = Arc::new(Mutex::new(Vec::new()));
            let w2 = winners.clone();
            super::model_with(10, 99, move || {
                let o = order.clone();
                let a = {
                    let o = o.clone();
                    super::thread::spawn(move || o.lock().push('a'))
                };
                let b = {
                    let o = o.clone();
                    super::thread::spawn(move || o.lock().push('b'))
                };
                a.join().unwrap();
                b.join().unwrap();
                let mut g = o.lock();
                w2.lock().push(g[0]);
                g.clear();
            });
            let v = winners.lock().clone();
            v
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(first.len(), 10);
    }

    #[test]
    fn atomics_interleave_and_stay_consistent() {
        super::model_with(20, 5, || {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = n.clone();
                    super::thread::spawn(move || {
                        for _ in 0..8 {
                            n.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 16);
        });
    }
}
