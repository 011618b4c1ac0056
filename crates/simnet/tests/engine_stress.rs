//! Engine stress tests: many actors, interleaved timers and flows,
//! determinism of the event order across runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::{Engine, EventKey, Fiber, SimTime};

/// Register `n` fiber actors on `engine` and run its loop on this thread.
/// Returns what each actor's body returned (its final wake time).
fn run_actors<F>(engine: &Arc<Engine>, n: usize, body: F) -> Vec<u64>
where
    F: Fn(usize, &Engine) -> u64 + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let results = Arc::new(Mutex::new(vec![0u64; n]));
    for i in 0..n {
        let engine2 = engine.clone();
        let body2 = body.clone();
        let results2 = results.clone();
        let fiber = Fiber::new(128 * 1024, move || {
            engine2.await_release();
            let out = body2(i, &engine2);
            results2.lock()[i] = out;
            engine2.actor_finished(i as u32);
        });
        engine.register_fiber_at(i as u32, fiber, SimTime::ZERO);
    }
    engine.run_loop();
    Arc::try_unwrap(results).unwrap().into_inner()
}

/// A virtual sleep implemented directly on the engine primitives.
fn vsleep(engine: &Engine, id: usize, seq: &AtomicU64, at: u64) -> u64 {
    let key = EventKey {
        time: SimTime(at),
        class: 1,
        origin: id as u32,
        seq: seq.fetch_add(1, Ordering::Relaxed),
    };
    engine.schedule(
        key,
        Box::new(move |e| {
            e.wake(id as u32, SimTime(at));
        }),
    );
    engine.park().as_nanos()
}

#[test]
fn hundred_actors_with_interleaved_timers_are_deterministic() {
    let go = || {
        run_actors(&Arc::new(Engine::new()), 100, |i, engine| {
            let seq = AtomicU64::new(0);
            let mut t = 0u64;
            // Deterministic but irregular per-actor schedule.
            for round in 0..20 {
                let delay = 100 + ((i * 37 + round * 13) % 50) as u64 * 10;
                t = vsleep(engine, i, &seq, t + delay);
            }
            t
        })
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "wake times must be identical across runs");
    assert_eq!(a.len(), 100);
    for (i, &t) in a.iter().enumerate() {
        assert!(t >= 20 * 100, "actor {i} finished too early: {t}");
    }
}

#[test]
fn flows_and_timers_interleave_correctly() {
    // One actor drives timers while flows complete around it; the flow
    // completion times must reflect bandwidth sharing with precise timing.
    let engine = Arc::new(Engine::new());
    let nic = engine.add_resource(1e9);
    let completions = Arc::new(Mutex::new(Vec::<u64>::new()));
    let completions2 = completions.clone();
    run_actors(&engine, 1, move |id, engine2| {
        let seq = AtomicU64::new(0);
        // Start flow A (2 MB) at t=0 via an event.
        let c2 = completions2.clone();
        engine2.schedule(
            EventKey {
                time: SimTime(0),
                class: 0,
                origin: 0,
                seq: seq.fetch_add(1, Ordering::Relaxed),
            },
            Box::new(move |e| {
                let c3 = c2.clone();
                e.start_flow(
                    vec![nic],
                    1e9,
                    2_000_000.0,
                    Box::new(move |e2| {
                        c3.lock().push(e2.now().as_nanos());
                    }),
                );
            }),
        );
        // Start flow B (1 MB) at t = 1 ms: A has 1 MB left; they share.
        let c2 = completions2.clone();
        engine2.schedule(
            EventKey {
                time: SimTime(1_000_000),
                class: 0,
                origin: 0,
                seq: seq.fetch_add(1, Ordering::Relaxed),
            },
            Box::new(move |e| {
                let c3 = c2.clone();
                e.start_flow(
                    vec![nic],
                    1e9,
                    1_000_000.0,
                    Box::new(move |e2| {
                        c3.lock().push(e2.now().as_nanos());
                    }),
                );
            }),
        );
        // Sleep long enough for both flows to finish.
        let wake = 10_000_000u64;
        engine2.schedule(
            EventKey {
                time: SimTime(wake),
                class: 2,
                origin: 0,
                seq: seq.fetch_add(1, Ordering::Relaxed),
            },
            Box::new(move |e| e.wake(id as u32, SimTime(wake))),
        );
        engine2.park();
        0
    });
    let times = completions.lock().clone();
    assert_eq!(times.len(), 2);
    // From t=1ms both flows share 1 GB/s: each has 1 MB left → both finish
    // at t = 3 ms (work conservation: 2 MB remaining over 1 GB/s).
    for &tt in &times {
        assert!(
            (tt as i64 - 3_000_000).abs() < 100,
            "completion at {tt}ns, expected ~3ms"
        );
    }
}
