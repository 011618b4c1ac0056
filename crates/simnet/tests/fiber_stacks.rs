//! Fiber stacks as mappings: the guard page, the process-wide free list
//! and its counters. The counters are global to the process, so every test
//! here holds `SERIAL` and compares snapshots taken inside it.
#![cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ovcomm_simnet::fiber::{stack_pool_stats, StackPoolStats};
use ovcomm_simnet::{fiber_yield, Fiber};

/// Not poisoned by a failed assertion, so one failure stays one failure.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

const PAGE: usize = 4096;
const SIGBUS: i32 = 7;
const SIGSEGV: i32 = 11;

/// Goes `depth` levels deep at a little over 1 KiB of stack a level.
#[inline(never)]
fn recurse(depth: usize) -> usize {
    let mut frame = [0u8; 1024];
    black_box(&mut frame);
    if depth == 0 {
        return frame[0] as usize;
    }
    recurse(depth - 1) + frame[1023] as usize
}

/// The process the test below spawns: a fiber runs off the end of a 64 KiB
/// stack while a second, suspended fiber's frames sit in the next mapping
/// down (consecutive mappings are placed downwards, so normally right below
/// the first one's guard page).
fn overflow_child() -> ! {
    let frames = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let mut pair: Vec<Fiber> = (0..2)
        .map(|i| {
            let frames = frames.clone();
            Fiber::new(64 << 10, move || {
                let local = black_box([0x5au8; 64]);
                frames[i].store(local.as_ptr() as usize, Ordering::Relaxed);
                fiber_yield();
                if i == 0 {
                    recurse(usize::MAX);
                }
            })
        })
        .collect();
    pair.iter_mut().for_each(Fiber::resume);
    eprintln!(
        "runaway fiber's frames at {:#x}, suspended neighbour's at {:#x}",
        frames[0].load(Ordering::Relaxed),
        frames[1].load(Ordering::Relaxed)
    );
    pair[0].resume();
    // Not reached when the guard page works. A clean exit, so that the
    // parent can tell "ran on" from a panic (status 101).
    std::process::exit(0);
}

const CHILD_MARKER: &str = "OVCOMM_FIBER_OVERFLOW_CHILD";

#[test]
fn stack_overflow_dies_on_the_guard_page() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        overflow_child();
    }
    let exe = std::env::current_exe().expect("path of this test binary");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "stack_overflow_dies_on_the_guard_page",
            "--nocapture",
        ])
        .env(CHILD_MARKER, "1")
        .output()
        .expect("re-running this test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("runaway fiber's frames at"),
        "the child never got to the overflow:\n{stderr}"
    );
    assert!(
        matches!(out.status.signal(), Some(SIGSEGV | SIGBUS)),
        "the child must die at the faulting store, got {:?}:\n{stderr}",
        out.status
    );
}

fn delta(after: StackPoolStats, before: StackPoolStats) -> (usize, usize) {
    (after.mapped - before.mapped, after.reused - before.reused)
}

#[test]
fn drop_of_suspended_fiber_runs_destructors_then_pools_its_stack() {
    let _serial = SERIAL.lock();
    struct Sentinel(Arc<AtomicUsize>, Arc<Mutex<Option<StackPoolStats>>>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
            *self.1.lock().unwrap() = Some(stack_pool_stats());
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(None));
    let (d2, s2) = (drops.clone(), seen.clone());
    let mut f = Fiber::new(0, move || {
        let _s = Sentinel(d2, s2);
        fiber_yield();
        fiber_yield();
    });
    f.resume();
    let suspended = stack_pool_stats();
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(f);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    // The destructor ran on a stack the pool did not have yet.
    let during = seen.lock().unwrap().expect("destructor saw the pool");
    assert_eq!(
        (during.live, during.pooled),
        (suspended.live, suspended.pooled)
    );
    let after = stack_pool_stats();
    assert_eq!(
        (after.live, after.pooled),
        (suspended.live - 1, suspended.pooled + 1)
    );
}

#[test]
fn a_stack_is_reused_only_at_its_own_length() {
    let _serial = SERIAL.lock();
    // Lengths nothing else in this file asks for.
    let (smaller, small, large) = (68 << 10, 72 << 10, 136 << 10);
    let t0 = stack_pool_stats();
    drop(Fiber::new(small, || {}));
    let t1 = stack_pool_stats();
    assert_eq!(delta(t1, t0), (1, 0));
    // The pooled `small` stack must not serve a longer request, nor a
    // shorter one: each is mapped fresh.
    let mut deep = Fiber::new(large, || {
        recurse(80);
    });
    let mut shallow = Fiber::new(smaller, || {});
    let t2 = stack_pool_stats();
    assert_eq!(t2.reused, t1.reused);
    assert_eq!(t2.live, t1.live + 2);
    // Over 80 KiB of frames fit the 136 KiB stack; on the 72 KiB one this
    // would die.
    deep.resume();
    shallow.resume();
    // Requests that round up to the same whole pages share a list.
    let same = Fiber::new(small - PAGE + 1, || {});
    let t3 = stack_pool_stats();
    assert_eq!(delta(t3, t2), (0, 1));
    assert_eq!(t3.pooled, t2.pooled - 1);
    drop((deep, shallow, same));
    let t4 = stack_pool_stats();
    assert_eq!(t4.live, t0.live);
    assert!(t4.live_max >= t0.live + 3);
}

#[test]
fn resident_high_water_counts_touched_pages_only() {
    let _serial = SERIAL.lock();
    let size = 512 << 10;
    let mut f = Fiber::new(size, || {
        recurse(200);
    });
    f.resume();
    drop(f);
    let resident = stack_pool_stats().resident_max_bytes;
    // 200 levels went a little over 200 KiB deep, and nothing in this file
    // goes deeper on a stack that ends up pooled.
    assert_eq!(resident % PAGE, 0);
    assert!(
        (200 << 10..size).contains(&resident),
        "resident_max_bytes = {resident}"
    );
}

#[test]
fn a_refused_mapping_panics_with_the_numbers() {
    let _serial = SERIAL.lock();
    let before = stack_pool_stats();
    let size = isize::MAX as usize;
    let err = std::panic::catch_unwind(|| Fiber::new(size, || {}))
        .err()
        .expect("half the address space cannot be mapped");
    let msg = err.downcast_ref::<String>().expect("a formatted message");
    for part in [
        format!("fiber stack of {size} bytes"),
        format!("{} stacks live", before.live),
        "vm.max_map_count = ".to_string(),
    ] {
        assert!(msg.contains(&part), "{part:?} missing from {msg:?}");
    }
    assert_eq!(stack_pool_stats(), before);
    let err = std::panic::catch_unwind(|| Fiber::new(usize::MAX, || {}))
        .err()
        .expect("a length that overflows when rounded");
    let msg = err.downcast_ref::<String>().expect("a formatted message");
    assert!(msg.contains("out of range"), "{msg:?}");
}

#[test]
fn the_free_list_is_capped() {
    let _serial = SERIAL.lock();
    // One more than the cap (`POOL_CAP` in `fiber.rs`), alive at once; each
    // touches one page.
    let cap = 16 * 1024;
    let before = stack_pool_stats();
    let fibers: Vec<Fiber> = (0..=cap).map(|_| Fiber::new(0, || {})).collect();
    assert_eq!(stack_pool_stats().live, before.live + cap + 1);
    drop(fibers);
    let after = stack_pool_stats();
    assert_eq!(after.live, before.live);
    assert_eq!(after.pooled, cap, "the last stack released was unmapped");
    // What was unmapped is mapped again on demand (more than one stack if
    // other lengths hold part of the list).
    let again: Vec<Fiber> = (0..=cap).map(|_| Fiber::new(0, || {})).collect();
    let (mapped, reused) = delta(stack_pool_stats(), after);
    assert!(
        mapped >= 1 && mapped + reused == cap + 1,
        "{mapped} + {reused}"
    );
    drop(again);
}
