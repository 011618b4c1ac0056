//! Seeded-mutation suite for the one-sided (RMA) lints: each test plants
//! one RMA-usage bug into an otherwise-legal window program and asserts
//! `VerifyMode::Strict` catches it with a diagnostic that names the
//! offending rank, window, and operation. A clean epoch-disciplined
//! program is checked first to pin that the lints have no false positives.

use ovcomm_simmpi::{run, Finding, Payload, RankCtx, SimConfig, SimError, SimOutput};
use ovcomm_simnet::MachineProfile;

fn cfg(nranks: usize, ppn: usize) -> SimConfig {
    SimConfig::natural(nranks, ppn, MachineProfile::test_profile())
}

/// The run must fail verification; returns the rendered findings.
fn expect_findings<T>(result: Result<SimOutput<T>, SimError>) -> String {
    match result {
        Err(SimError::Verification { findings }) => render(&findings),
        Ok(_) => panic!("run passed verification; expected findings"),
        Err(other) => panic!("expected a verification failure, got: {other}"),
    }
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// Baseline: a disciplined window program is clean
// ---------------------------------------------------------------------

#[test]
fn disciplined_window_program_is_clean() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[0.0; 8]));
        // Active-target epoch: both origins accumulate into rank 0.
        win.fence();
        win.accumulate(0, 0, Payload::from_f64s(&[1.0 + rc.rank() as f64]));
        win.fence();
        // Passive-target epoch: rank 1 puts into rank 0 under the lock.
        if rc.rank() == 1 {
            win.lock(0);
            win.put(0, 8, Payload::from_f64s(&[7.0]));
            win.unlock(0);
        }
        w.barrier();
        win.fence();
        let local = win.local().to_f64s();
        win.free();
        local
    })
    .expect("disciplined program must verify clean");
    assert!(out.verify.findings.is_empty(), "{:?}", out.verify.findings);
    // Both accumulates landed (1 + 2), then the locked put wrote slot 1.
    assert_eq!(out.results[0][0], 3.0);
    assert_eq!(out.results[0][1], 7.0);
}

// ---------------------------------------------------------------------
// Bug class 1: put outside any epoch (no fence, no lock)
// ---------------------------------------------------------------------

#[test]
fn mutation_put_outside_epoch_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[0.0; 4]));
        // Mutation: the put is issued before any fence opens an access
        // epoch. The staged data still applies at the later fence, so the
        // run completes — only the verifier sees the race.
        if rc.rank() == 1 {
            win.put(0, 0, Payload::from_f64s(&[1.0]));
        }
        win.fence();
        win.fence();
        win.free();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("rma-outside-epoch"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("MPI_Rput"), "{msg}");
    assert!(msg.contains("outside any epoch"), "{msg}");
    assert_eq!(msg, pins::OUTSIDE_EPOCH);
}

// ---------------------------------------------------------------------
// Bug class 2: missing closing fence (epoch left open at free)
// ---------------------------------------------------------------------

#[test]
fn mutation_missing_closing_fence_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[0.0; 4]));
        win.fence();
        if rc.rank() == 1 {
            win.put(0, 0, Payload::from_f64s(&[2.0]));
        }
        // Mutation: the closing fence is missing — the put is never
        // synchronized before the window is torn down.
        win.free();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("rma-unclosed-epoch"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("unsynchronized operation"), "{msg}");
    assert_eq!(msg, pins::MISSING_FENCE);
}

// ---------------------------------------------------------------------
// Bug class 3: conflicting put/accumulate in one epoch
// ---------------------------------------------------------------------

#[test]
fn mutation_conflicting_put_and_accumulate_is_flagged() {
    let result = run(cfg(3, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[0.0; 4]));
        win.fence();
        // Mutation: rank 1 puts bytes 0..16 of rank 0's segment while
        // rank 2 accumulates bytes 8..24 in the *same* epoch — the final
        // value of bytes 8..16 depends on apply order across origins.
        // (Concurrent accumulates alone would commute and be legal.)
        if rc.rank() == 1 {
            win.put(0, 0, Payload::from_f64s(&[1.0, 1.0]));
        } else if rc.rank() == 2 {
            win.accumulate(0, 8, Payload::from_f64s(&[1.0, 1.0]));
        }
        win.fence();
        win.free();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("rma-conflict"), "{msg}");
    assert!(msg.contains("conflicting one-sided accesses"), "{msg}");
    assert!(
        msg.contains("MPI_Rput") && msg.contains("MPI_Raccumulate"),
        "{msg}"
    );
    assert_eq!(msg, pins::CONFLICT);
}

// ---------------------------------------------------------------------
// Bug class 4: double unlock
// ---------------------------------------------------------------------

#[test]
fn mutation_double_unlock_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[0.0; 4]));
        if rc.rank() == 1 {
            win.lock(0);
            win.put(0, 0, Payload::from_f64s(&[3.0]));
            win.unlock(0);
            // Mutation: a second unlock of a target this rank no longer
            // holds. The backends tolerate it (nothing is released), so
            // the run reaches verification.
            win.unlock(0);
        }
        w.barrier();
        win.fence();
        win.fence();
        win.free();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("rma-double-unlock"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert_eq!(msg, pins::DOUBLE_UNLOCK);
}

// ---------------------------------------------------------------------
// Bug class 5: window handle dropped without free (leak, satellite of
// the request-leak detector)
// ---------------------------------------------------------------------

#[test]
fn mutation_dropped_window_is_flagged_with_creation_site() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        // Mutation: the window is created, used legally, then dropped
        // without `free` — the `Win` analogue of a request leak.
        let win = w.win_create(Payload::from_f64s(&[0.0; 4]));
        win.fence();
        win.fence();
        drop(win);
    });
    let msg = expect_findings(result);
    assert!(msg.contains("win-leak"), "{msg}");
    assert!(msg.contains("without freeing it"), "{msg}");
    // The diagnostic carries the `win_create` call site of this file.
    assert!(msg.contains("rma_mutations.rs"), "{msg}");
    assert_eq!(msg, pins::WIN_LEAK);
}

// ---------------------------------------------------------------------
// Window data is bytes: a put at an odd offset, then an f64 accumulate
// ---------------------------------------------------------------------

#[test]
fn an_unaligned_put_then_an_f64_accumulate_land_byte_for_byte() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let win = w.win_create(Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]));
        win.fence();
        if rc.rank() == 1 {
            // Bytes 3..10 straddle the first two f64s.
            win.put(0, 3, Payload::from_vec(vec![0xa5; 7]));
        }
        win.fence();
        if rc.rank() == 1 {
            win.accumulate(0, 0, Payload::from_f64s(&[0.5, 0.25, 0.125, 1.0]));
        }
        win.fence();
        let local = win.local();
        win.free();
        match local {
            Payload::Real(b) => b.to_vec(),
            Payload::Phantom(_) => unreachable!("the segment is real"),
        }
    })
    .expect("separate epochs do not conflict");
    assert!(out.verify.findings.is_empty(), "{:?}", out.verify.findings);
    let mut want: Vec<u8> = [1.0f64, 2.0, 3.0, 4.0]
        .iter()
        .flat_map(|x| x.to_ne_bytes())
        .collect();
    want[3..10].fill(0xa5);
    for (word, add) in want.chunks_exact_mut(8).zip([0.5f64, 0.25, 0.125, 1.0]) {
        let sum = f64::from_ne_bytes(word.try_into().unwrap()) + add;
        word.copy_from_slice(&sum.to_ne_bytes());
    }
    assert_eq!(out.results[0], want);
    assert_eq!(
        out.results[1],
        [1.0f64, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|x| x.to_ne_bytes())
            .collect::<Vec<u8>>()
    );
}

/// The exact text of every report above, as the analyzer renders it.
mod pins {
    pub const OUTSIDE_EPOCH: &str = "error[rma-outside-epoch]: rank 1 posted MPI_Rput(8B, rank 0 at offset 0) on win 0 outside any epoch (no fence opened an access epoch and no lock is held on the target), posted at crates/simmpi/tests/rma_mutations.rs:76";
    pub const MISSING_FENCE: &str = "error[rma-unclosed-epoch]: rank 1 left an epoch open on win 0 at finalize: 1 unsynchronized operation(s) posted after the last fence, posted at crates/simmpi/tests/rma_mutations.rs:101";
    pub const CONFLICT: &str = "error[rma-conflict]: conflicting one-sided accesses to rank 0's segment of win 0 in the same epoch: rank 2 MPI_Raccumulate(16B at offset 8..24) overlaps rank 1 MPI_Rput(16B at offset 0..16), posted at crates/simmpi/tests/rma_mutations.rs:129";
    pub const DOUBLE_UNLOCK: &str = "error[rma-double-unlock]: rank 1 unlocked rank 0 on win 0 without holding the lock (double unlock), posted at crates/simmpi/tests/rma_mutations.rs:162";
    pub const WIN_LEAK: &str = concat!(
        "error[win-leak]: rank 0 dropped win 0 without freeing it, created at crates/simmpi/tests/rma_mutations.rs:186\n",
        "error[win-leak]: rank 1 dropped win 0 without freeing it, created at crates/simmpi/tests/rma_mutations.rs:186",
    );
}
