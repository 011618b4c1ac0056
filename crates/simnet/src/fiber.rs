//! Stackful coroutines ("fibers") for event-driven actor execution.
//!
//! A [`Fiber`] runs a closure on its own separately mapped stack. The closure
//! can suspend itself at any depth with [`fiber_yield`], returning control to
//! whoever called [`Fiber::resume`]; the next `resume` continues exactly
//! where the closure left off. This is what lets the discrete-event engine
//! drive tens of thousands of simulated ranks from one OS thread: each rank
//! is a fiber whose blocking points (wait, rendezvous, park-until-time) yield
//! back to the scheduler instead of parking an OS thread.
//!
//! # Implementation
//!
//! On x86-64 Linux the switch is ~10 instructions of inline assembly saving
//! the System V callee-saved registers (`rbp rbx r12–r15`) and swapping
//! `rsp`; everything else (instruction pointer, locals) lives on the fiber's
//! stack. On other targets a portable fallback backs each fiber with a
//! lazily-spawned OS thread and a condvar handoff — same API, same
//! one-runner-at-a-time semantics, just without the scalability.
//!
//! # Stacks
//!
//! A stack is one anonymous private `mmap` (`MAP_NORESERVE`), the requested
//! size rounded up to whole pages plus one guard page at the low end that is
//! never made accessible. What a stack costs is therefore address space, two
//! kernel mappings (`vm.max_map_count` is the ceiling on live + pooled
//! stacks, ≈ 32k at the usual 65,530) and the pages the fiber actually
//! touched — the requested size itself is not paid for. A fiber that
//! overflows its stack faults on the guard page at the offending store and
//! the process dies by `SIGSEGV`; nothing next to the stack is overwritten
//! first. (Rust probes every page of a large frame in order, so a frame
//! cannot step over the guard.)
//!
//! A dropped fiber's stack goes onto a process-wide free list keyed by
//! mapping length and the next fiber of that length takes it as it is:
//! stacks are never zeroed again and, up to a cap on the list, never
//! unmapped, so a reused stack costs a lock and a `Vec::pop` and keeps its
//! touched pages resident. [`stack_pool_stats`] reports what the pool did.
//! If the kernel refuses a mapping, [`Fiber::new`] panics; there is no
//! unguarded fallback.
//!
//! # Panics and cancellation
//!
//! Panics never unwind across the assembly boundary: the fiber entry shim
//! catches them at the root of the fiber stack and re-raises them from
//! `resume` on the caller's stack. Dropping a suspended fiber *cancels* it:
//! the fiber is resumed one last time with a cancellation flag set, and
//! `fiber_yield` raises a [`ForcedUnwind`] panic so that every live local on
//! the fiber stack runs its destructor before the stack is released.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

/// Sentinel panic payload used to unwind a cancelled fiber's stack. Caught
/// and swallowed at the fiber root; user code should not catch it (re-raise
/// it if a broad `catch_unwind` sees a payload of this type).
pub struct ForcedUnwind;

/// Default fiber stack size. This much address space is mapped; resident
/// memory is only the pages a fiber touches (see the module docs).
pub const DEFAULT_STACK_SIZE: usize = 1 << 20;

const MIN_STACK_SIZE: usize = 64 * 1024;

/// What the process-wide fiber-stack pool has done so far, as returned by
/// [`stack_pool_stats`]. These are diagnostics of the process, not of a run:
/// every count depends on what ran earlier in the same process. All zero on
/// targets that back fibers with threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackPoolStats {
    /// Stacks created with a fresh mapping.
    pub mapped: usize,
    /// Stacks taken from the free list instead.
    pub reused: usize,
    /// Stacks owned by a fiber right now.
    pub live: usize,
    /// Highest value `live` has had.
    pub live_max: usize,
    /// Stacks on the free list right now.
    pub pooled: usize,
    /// Resident bytes of the pooled stack that has the most: how deep the
    /// deepest fiber whose stack is pooled went, to the page. Read with
    /// `mincore`, one call per pooled stack, when this struct is asked for
    /// and at no other time.
    pub resident_max_bytes: usize,
}

/// Snapshot of the process-wide fiber-stack pool. See [`StackPoolStats`].
pub fn stack_pool_stats() -> StackPoolStats {
    imp::stack_pool_stats()
}

/// True while the calling code is executing inside a fiber.
pub fn in_fiber() -> bool {
    imp::in_fiber()
}

/// Suspend the current fiber, returning control to the caller of
/// [`Fiber::resume`]. Panics if called outside a fiber. If the fiber was
/// cancelled while suspended, this raises a [`ForcedUnwind`] panic instead
/// of returning.
pub fn fiber_yield() {
    imp::fiber_yield()
}

/// A suspended or running coroutine with its own stack. See module docs.
pub struct Fiber {
    inner: imp::FiberImpl,
}

impl Fiber {
    /// Create a fiber that will run `f` on its first [`Fiber::resume`]. The
    /// requested stack size is rounded up to a small minimum. Panics, naming
    /// the size, the stacks in existence and `vm.max_map_count`, if the
    /// kernel refuses to map a stack.
    pub fn new<F>(stack_size: usize, f: F) -> Fiber
    where
        F: FnOnce() + Send + 'static,
    {
        Fiber {
            inner: imp::FiberImpl::new(stack_size.max(MIN_STACK_SIZE), Box::new(f)),
        }
    }

    /// Run the fiber until it yields or its closure returns. Panics raised
    /// (and not caught) inside the closure are re-raised here, on the
    /// caller's stack. Must not be called on a finished fiber.
    pub fn resume(&mut self) {
        assert!(!self.done(), "resuming a finished fiber");
        self.inner.resume();
    }

    /// Whether the fiber's closure has returned (or unwound).
    pub fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod imp {
    use super::*;
    use std::collections::BTreeMap;
    use std::ffi::{c_int, c_void};

    // The context switch: save the System V callee-saved registers on the
    // current stack, publish the resulting rsp through `save_rsp`, adopt
    // `target_rsp`, and restore. The `ret` resumes the target context after
    // *its* last `ovcomm_raw_switch` call — or, for a fresh fiber, enters
    // `ovcomm_fiber_start` via the hand-built frame below.
    std::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl ovcomm_raw_switch",
        ".type ovcomm_raw_switch, @function",
        "ovcomm_raw_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size ovcomm_raw_switch, . - ovcomm_raw_switch",
        // Entry shim for a fresh fiber: the bootstrap frame put the FiberCtl
        // pointer where `r12` is restored from, so forward it as the first
        // argument. `ovcomm_fiber_entry` never returns (it loops yielding),
        // hence the trap.
        ".balign 16",
        ".globl ovcomm_fiber_start",
        ".type ovcomm_fiber_start, @function",
        "ovcomm_fiber_start:",
        "mov rdi, r12",
        "call ovcomm_fiber_entry",
        "ud2",
        ".size ovcomm_fiber_start, . - ovcomm_fiber_start",
    );

    extern "C" {
        fn ovcomm_raw_switch(save_rsp: *mut usize, target_rsp: usize);
        fn ovcomm_fiber_start();
    }

    pub(super) struct FiberCtl {
        /// Fiber's rsp while suspended.
        fiber_rsp: usize,
        /// Resumer's rsp while the fiber runs.
        parent_rsp: usize,
        cancel: bool,
        done: bool,
        entry: Option<Box<dyn FnOnce() + Send + 'static>>,
        panic: Option<Box<dyn Any + Send>>,
    }

    thread_local! {
        static CURRENT: Cell<*mut FiberCtl> = const { Cell::new(std::ptr::null_mut()) };
    }

    pub(super) fn in_fiber() -> bool {
        CURRENT.with(|c| !c.get().is_null())
    }

    pub(super) fn fiber_yield() {
        let ctl = CURRENT.with(|c| c.get());
        assert!(!ctl.is_null(), "fiber_yield called outside a fiber");
        unsafe {
            let parent = (*ctl).parent_rsp;
            ovcomm_raw_switch(&mut (*ctl).fiber_rsp, parent);
            if (*ctl).cancel {
                panic::panic_any(ForcedUnwind);
            }
        }
    }

    /// Root of every fiber stack. Runs the entry closure with a panic
    /// firewall (nothing may unwind into the assembly shim), records the
    /// outcome, and then yields forever — a finished fiber that is resumed
    /// again just bounces straight back.
    #[no_mangle]
    unsafe extern "C" fn ovcomm_fiber_entry(ctl: *mut FiberCtl) -> ! {
        {
            let entry = (*ctl).entry.take().unwrap_or_else(|| std::process::abort());
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(entry)) {
                if !payload.is::<ForcedUnwind>() {
                    (*ctl).panic = Some(payload);
                }
            }
            (*ctl).done = true;
        }
        loop {
            let parent = (*ctl).parent_rsp;
            ovcomm_raw_switch(&mut (*ctl).fiber_rsp, parent);
        }
    }

    // Linux x86-64 values; std links libc, which exports the four calls.
    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const PAGE: usize = 4096;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    }

    /// Most stacks the free list keeps; a stack released beyond it is
    /// unmapped. 16k stacks are 32k mappings, half of the default
    /// `vm.max_map_count`, so pooled stacks of lengths nobody asks for any
    /// more cannot starve live ones of mappings.
    const POOL_CAP: usize = 16 * 1024;

    struct Pool {
        /// Base addresses of the stacks no fiber owns, by mapping length.
        free: BTreeMap<usize, Vec<usize>>,
        mapped: usize,
        reused: usize,
        live: usize,
        live_max: usize,
    }

    impl Pool {
        fn pooled(&self) -> usize {
            self.free.values().map(Vec::len).sum()
        }
    }

    static POOL: parking_lot::Mutex<Pool> = parking_lot::Mutex::new(Pool {
        free: BTreeMap::new(),
        mapped: 0,
        reused: 0,
        live: 0,
        live_max: 0,
    });

    /// One mapping of `len` bytes at `base`: the guard page, then the usable
    /// stack up to `base + len`. Owned by one fiber; dropping it hands the
    /// mapping to the pool.
    struct Stack {
        base: usize,
        len: usize,
    }

    /// Map `len` bytes with everything above the lowest page readable and
    /// writable. The whole range starts out inaccessible, so a failure at
    /// either step leaves no usable stack without its guard.
    fn map_stack(len: usize) -> std::io::Result<usize> {
        // SAFETY: a new anonymous mapping at an address of the kernel's
        // choosing overlaps nothing this process has mapped.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        let base = base as usize;
        // SAFETY: `[base + PAGE, base + len)` lies inside the mapping made
        // above, which nothing else refers to yet.
        if unsafe {
            mprotect(
                (base + PAGE) as *mut c_void,
                len - PAGE,
                PROT_READ | PROT_WRITE,
            )
        } != 0
        {
            let err = std::io::Error::last_os_error();
            unmap_stack(base, len);
            return Err(err);
        }
        Ok(base)
    }

    fn unmap_stack(base: usize, len: usize) {
        // SAFETY: the caller owns the whole mapping `[base, base + len)` and
        // no fiber runs on it.
        let rc = unsafe { munmap(base as *mut c_void, len) };
        debug_assert_eq!(rc, 0, "munmap of a fiber stack failed");
    }

    impl Stack {
        fn acquire(stack_size: usize) -> Stack {
            let len = stack_size
                .checked_next_multiple_of(PAGE)
                .and_then(|usable| usable.checked_add(PAGE))
                .unwrap_or_else(|| panic!("fiber stack size {stack_size} is out of range"));
            let mut pool = POOL.lock();
            let base = match pool.free.get_mut(&len).and_then(Vec::pop) {
                Some(base) => {
                    pool.reused += 1;
                    base
                }
                None => {
                    let base = map_stack(len).unwrap_or_else(|err| {
                        let limit = std::fs::read_to_string("/proc/sys/vm/max_map_count");
                        panic!(
                            "cannot map a fiber stack of {stack_size} bytes: {err} \
                             ({} stacks live and {} pooled at two mappings each, \
                             vm.max_map_count = {})",
                            pool.live,
                            pool.pooled(),
                            limit.as_deref().map_or("unknown", str::trim),
                        )
                    });
                    pool.mapped += 1;
                    base
                }
            };
            pool.live += 1;
            pool.live_max = pool.live_max.max(pool.live);
            Stack { base, len }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            let mut pool = POOL.lock();
            pool.live -= 1;
            if pool.pooled() < POOL_CAP {
                pool.free.entry(self.len).or_default().push(self.base);
            } else {
                drop(pool);
                unmap_stack(self.base, self.len);
            }
        }
    }

    pub(super) fn stack_pool_stats() -> StackPoolStats {
        let pool = POOL.lock();
        let mut resident = Vec::new();
        let mut resident_max_pages = 0;
        for (&len, bases) in &pool.free {
            resident.resize((len - PAGE) / PAGE, 0);
            for &base in bases {
                // SAFETY: the pool owns `[base + PAGE, base + len)` while the
                // lock is held, and `resident` has one byte per page of it.
                let rc = unsafe {
                    mincore(
                        (base + PAGE) as *mut c_void,
                        len - PAGE,
                        resident.as_mut_ptr(),
                    )
                };
                debug_assert_eq!(rc, 0, "mincore of a pooled fiber stack failed");
                let pages = resident.iter().filter(|&&b| b & 1 != 0).count();
                resident_max_pages = resident_max_pages.max(pages);
            }
        }
        StackPoolStats {
            mapped: pool.mapped,
            reused: pool.reused,
            live: pool.live,
            live_max: pool.live_max,
            pooled: pool.pooled(),
            resident_max_bytes: resident_max_pages * PAGE,
        }
    }

    pub(super) struct FiberImpl {
        ctl: Box<FiberCtl>,
        /// Fields drop after `Drop for FiberImpl` has run, so the fiber is
        /// unwound by the time the pool gets its stack back.
        _stack: Stack,
    }

    // The closure is `Send` and the raw pointers only ever reference memory
    // owned by this struct; a fiber is only ever *run* by one thread at a
    // time because `resume` takes `&mut self`.
    unsafe impl Send for FiberImpl {}

    impl FiberImpl {
        pub(super) fn new(stack_size: usize, f: Box<dyn FnOnce() + Send + 'static>) -> FiberImpl {
            // Fresh from the kernel or as the last fiber left it: nothing on
            // a stack is read before it is written, and only the frame below
            // is written here, so no page but the top one is touched.
            let stack = Stack::acquire(stack_size);
            let mut ctl = Box::new(FiberCtl {
                fiber_rsp: 0,
                parent_rsp: 0,
                cancel: false,
                done: false,
                entry: Some(f),
                panic: None,
            });
            // Bootstrap frame, laid out so `ovcomm_raw_switch`'s restore
            // sequence pops zeros into the callee-saved registers (except
            // r12 = FiberCtl pointer) and `ret`s into `ovcomm_fiber_start`.
            // `rsp % 16 == 8` at the shim's entry keeps the System V stack
            // alignment contract for the `call` it performs.
            let rsp = stack.base + stack.len - 72;
            debug_assert_eq!(rsp % 16, 8);
            // SAFETY: the seven words end at the page-aligned top of a
            // mapping at least `MIN_STACK_SIZE` long that this fiber owns.
            unsafe {
                let p = rsp as *mut usize;
                p.write(0); // r15
                p.add(1).write(0); // r14
                p.add(2).write(0); // r13
                p.add(3).write(&mut *ctl as *mut FiberCtl as usize); // r12
                p.add(4).write(0); // rbx
                p.add(5).write(0); // rbp
                p.add(6).write(ovcomm_fiber_start as *const () as usize); // return address
            }
            ctl.fiber_rsp = rsp;
            FiberImpl { ctl, _stack: stack }
        }

        pub(super) fn resume(&mut self) {
            let ctl: *mut FiberCtl = &mut *self.ctl;
            let prev = CURRENT.with(|c| c.replace(ctl));
            unsafe {
                ovcomm_raw_switch(&mut (*ctl).parent_rsp, (*ctl).fiber_rsp);
            }
            CURRENT.with(|c| c.set(prev));
            if let Some(p) = self.ctl.panic.take() {
                panic::resume_unwind(p);
            }
        }

        pub(super) fn done(&self) -> bool {
            self.ctl.done
        }
    }

    impl Drop for FiberImpl {
        fn drop(&mut self) {
            // Started but suspended: cancel so the fiber stack unwinds and
            // every live local runs its destructor before the stack goes
            // back to the pool. A never-started fiber just drops its
            // closure; a finished one has nothing left on its stack.
            if !self.ctl.done && self.ctl.entry.is_none() {
                self.ctl.cancel = true;
                self.resume();
                debug_assert!(self.ctl.done);
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
mod imp {
    //! Portable fallback: each fiber is backed by a lazily-spawned OS thread
    //! with a strict condvar handoff — exactly one of {caller, fiber thread}
    //! runs at any moment, so the scheduling semantics match the
    //! assembly-based implementation (just without its scalability).

    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Parent,
        Fiber,
        Done,
    }

    struct Shared {
        state: Mutex<State>,
        cv: Condvar,
    }

    struct State {
        turn: Turn,
        cancel: bool,
        panic: Option<Box<dyn Any + Send>>,
    }

    thread_local! {
        static CURRENT: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
    }

    pub(super) fn in_fiber() -> bool {
        CURRENT.with(|c| !c.get().is_null())
    }

    /// Thread stacks are the OS's business: there is no pool to report.
    pub(super) fn stack_pool_stats() -> StackPoolStats {
        StackPoolStats::default()
    }

    #[allow(clippy::expect_used)]
    pub(super) fn fiber_yield() {
        let shared = CURRENT.with(|c| c.get());
        assert!(!shared.is_null(), "fiber_yield called outside a fiber");
        let shared = unsafe { &*shared };
        let mut st = shared.state.lock().expect("fiber handoff poisoned");
        st.turn = Turn::Parent;
        shared.cv.notify_all();
        while st.turn != Turn::Fiber {
            st = shared.cv.wait(st).expect("fiber handoff poisoned");
        }
        let cancel = st.cancel;
        drop(st);
        if cancel {
            panic::panic_any(ForcedUnwind);
        }
    }

    pub(super) struct FiberImpl {
        shared: Arc<Shared>,
        entry: Option<Box<dyn FnOnce() + Send + 'static>>,
        thread: Option<std::thread::JoinHandle<()>>,
        stack_size: usize,
        done: bool,
    }

    impl FiberImpl {
        pub(super) fn new(stack_size: usize, f: Box<dyn FnOnce() + Send + 'static>) -> FiberImpl {
            FiberImpl {
                shared: Arc::new(Shared {
                    state: Mutex::new(State {
                        turn: Turn::Parent,
                        cancel: false,
                        panic: None,
                    }),
                    cv: Condvar::new(),
                }),
                entry: Some(f),
                thread: None,
                stack_size,
                done: false,
            }
        }

        #[allow(clippy::expect_used)]
        pub(super) fn resume(&mut self) {
            if let Some(entry) = self.entry.take() {
                let shared = self.shared.clone();
                let builder = std::thread::Builder::new()
                    .name("ovcomm-fiber".into())
                    .stack_size(self.stack_size);
                let handle = builder
                    .spawn(move || {
                        {
                            let mut st = shared.state.lock().expect("fiber handoff poisoned");
                            while st.turn != Turn::Fiber {
                                st = shared.cv.wait(st).expect("fiber handoff poisoned");
                            }
                        }
                        CURRENT.with(|c| c.set(&*shared as *const Shared));
                        let result = panic::catch_unwind(AssertUnwindSafe(entry));
                        CURRENT.with(|c| c.set(std::ptr::null()));
                        let mut st = shared.state.lock().expect("fiber handoff poisoned");
                        if let Err(payload) = result {
                            if !payload.is::<ForcedUnwind>() {
                                st.panic = Some(payload);
                            }
                        }
                        st.turn = Turn::Done;
                        shared.cv.notify_all();
                    })
                    .expect("spawning fiber fallback thread");
                self.thread = Some(handle);
            }
            let mut st = self.shared.state.lock().expect("fiber handoff poisoned");
            st.turn = Turn::Fiber;
            self.shared.cv.notify_all();
            while st.turn == Turn::Fiber {
                st = self.shared.cv.wait(st).expect("fiber handoff poisoned");
            }
            if st.turn == Turn::Done {
                self.done = true;
            }
            let payload = st.panic.take();
            drop(st);
            if self.done {
                if let Some(t) = self.thread.take() {
                    let _ = t.join();
                }
            }
            if let Some(p) = payload {
                panic::resume_unwind(p);
            }
        }

        pub(super) fn done(&self) -> bool {
            self.done
        }
    }

    impl Drop for FiberImpl {
        #[allow(clippy::expect_used)]
        fn drop(&mut self) {
            if !self.done && self.thread.is_some() {
                self.shared
                    .state
                    .lock()
                    .expect("fiber handoff poisoned")
                    .cancel = true;
                self.resume();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion_without_yield() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        let mut f = Fiber::new(0, move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!f.done());
        f.resume();
        assert!(f.done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn yield_suspends_and_resume_continues() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::<&'static str>::new()));
        let l2 = log.clone();
        let mut f = Fiber::new(0, move || {
            l2.lock().push("a");
            fiber_yield();
            l2.lock().push("b");
            fiber_yield();
            l2.lock().push("c");
        });
        f.resume();
        assert_eq!(*log.lock(), vec!["a"]);
        assert!(!f.done());
        f.resume();
        assert_eq!(*log.lock(), vec!["a", "b"]);
        f.resume();
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
        assert!(f.done());
    }

    #[test]
    fn in_fiber_reflects_context() {
        assert!(!in_fiber());
        let saw = Arc::new(AtomicUsize::new(0));
        let s2 = saw.clone();
        let mut f = Fiber::new(0, move || {
            if in_fiber() {
                s2.store(1, Ordering::SeqCst);
            }
        });
        f.resume();
        assert!(!in_fiber());
        assert_eq!(saw.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_fibers_interleave_deterministically() {
        // Round-robin 100 fibers, 10 yields each, on one thread.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut fibers: Vec<Fiber> = (0..100)
            .map(|_| {
                let c = counter.clone();
                Fiber::new(0, move || {
                    for _ in 0..10 {
                        c.fetch_add(1, Ordering::SeqCst);
                        fiber_yield();
                    }
                })
            })
            .collect();
        while fibers.iter().any(|f| !f.done()) {
            for f in fibers.iter_mut().filter(|f| !f.done()) {
                f.resume();
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn panic_propagates_to_resumer() {
        let mut f = Fiber::new(0, || panic!("boom in fiber"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.resume()))
            .expect_err("panic should propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in fiber");
        assert!(f.done());
    }

    #[test]
    fn drop_of_suspended_fiber_runs_destructors() {
        struct Sentinel(Arc<AtomicUsize>);
        impl Drop for Sentinel {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d2 = drops.clone();
        let mut f = Fiber::new(0, move || {
            let _s = Sentinel(d2);
            fiber_yield();
            fiber_yield();
        });
        f.resume();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(f);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_of_unstarted_fiber_is_clean() {
        struct Sentinel(Arc<AtomicUsize>);
        impl Drop for Sentinel {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let s = Sentinel(drops.clone());
        let f = Fiber::new(0, move || {
            let _keep = s;
        });
        drop(f);
        // The closure (and its captures) are dropped without ever running.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn non_send_locals_inside_fiber_are_fine() {
        // The closure must be Send, but values created inside the fiber
        // don't have to be.
        let mut f = Fiber::new(0, || {
            let rc = Rc::new(5usize);
            let rc2 = rc.clone();
            fiber_yield();
            assert_eq!(*rc2, 5);
        });
        f.resume();
        f.resume();
        assert!(f.done());
    }

    #[test]
    fn nested_resume_from_within_a_fiber() {
        // A fiber may itself drive another fiber (the engine never does,
        // but the CURRENT bookkeeping must nest correctly).
        let log = Arc::new(parking_lot::Mutex::new(Vec::<u32>::new()));
        let l2 = log.clone();
        let mut outer = Fiber::new(0, move || {
            l2.lock().push(1);
            let l3 = l2.clone();
            let mut inner = Fiber::new(0, move || {
                l3.lock().push(2);
                fiber_yield();
                l3.lock().push(3);
            });
            inner.resume();
            l2.lock().push(4);
            inner.resume();
            l2.lock().push(5);
        });
        outer.resume();
        assert!(outer.done());
        assert_eq!(*log.lock(), vec![1, 2, 4, 3, 5]);
    }

    #[test]
    fn deep_call_stack_within_default_size() {
        fn recurse(n: usize) -> usize {
            if n == 0 {
                fiber_yield();
                0
            } else {
                recurse(n - 1) + 1
            }
        }
        let mut f = Fiber::new(DEFAULT_STACK_SIZE, || {
            assert_eq!(recurse(500), 500);
        });
        f.resume();
        f.resume();
        assert!(f.done());
    }
}
