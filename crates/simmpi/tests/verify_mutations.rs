//! Mutation suite for the communication-correctness verifier: each test
//! seeds one MPI-usage bug into an otherwise-legal program and asserts the
//! verifier catches it in `Strict` mode with a diagnostic that names the
//! offending rank, communicator, and operation.

use ovcomm_simmpi::{run, Finding, Payload, RankCtx, SimConfig, SimError, SimOutput, VerifyMode};
use ovcomm_simnet::{MachineProfile, SimDur};

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
// Bug class 1: collective root mismatch
// ---------------------------------------------------------------------

#[test]
fn mutation_root_mismatch_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        // Mutation: every rank believes it is the broadcast root. The
        // payload is small enough to complete eagerly, so the run itself
        // succeeds — only the verifier sees the divergence.
        let root = rc.rank();
        let _ = w.bcast(root, Some(Payload::Phantom(64)), 64);
    });
    let msg = expect_findings(result);
    assert!(msg.contains("coll-mismatch"), "{msg}");
    assert!(msg.contains("root=0") && msg.contains("root=1"), "{msg}");
    assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("comm 0"), "{msg}");
    assert_eq!(msg, pins::ROOT_MISMATCH);
}

// ---------------------------------------------------------------------
// Bug class 2: receive request dropped without wait
// ---------------------------------------------------------------------

#[test]
fn mutation_leaked_recv_request_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let r = w.isend(1, 5, Payload::Phantom(64));
            w.wait(&r);
        } else {
            // Mutation: the receive is posted and matched but the request
            // handle is dropped without MPI_Wait/MPI_Test — the payload is
            // lost.
            let _dropped = w.irecv(0, 5);
        }
        w.barrier();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("request-leak"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(
        msg.contains("MPI_Irecv(from rank 0, tag=5) on comm 0"),
        "{msg}"
    );
    assert_eq!(msg, pins::LEAKED_RECV);
}

// ---------------------------------------------------------------------
// Bug class 3: reordered collectives on duplicated communicators
// ---------------------------------------------------------------------

#[test]
fn mutation_reordered_collectives_on_dup_comms() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let a = w.dup();
        let b = w.dup();
        let data = |rank: usize| (rank == 0).then_some(Payload::Phantom(64));
        if rc.rank() == 0 {
            let _ = a.bcast(0, data(0), 64);
            let _ = b.bcast(0, data(0), 64);
        } else {
            // Mutation: rank 1 issues the same collectives in the opposite
            // communicator order. Both payloads are eager, so the run
            // completes — on a rendezvous path this interleave deadlocks.
            let _ = b.bcast(0, data(1), 64);
            let _ = a.bcast(0, data(1), 64);
        }
    });
    let msg = expect_findings(result);
    assert!(msg.contains("cross-comm-order"), "{msg}");
    assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("MPI_Bcast"), "{msg}");
    assert_eq!(msg, pins::REORDERED);
}

// ---------------------------------------------------------------------
// Bug class 4: point-to-point tag mismatch (deadlock diagnosis)
// ---------------------------------------------------------------------

#[test]
fn mutation_tag_mismatch_yields_deadlock_report() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let r = w.isend(1, 7, Payload::Phantom(64));
            w.wait(&r);
        } else {
            // Mutation: expects tag 8, but the sender used tag 7.
            let _ = w.recv(0, 8);
        }
    });
    match result {
        Err(SimError::Deadlock { report }) => {
            let msg = report.to_string();
            assert!(msg.contains("rank 1"), "{msg}");
            assert!(msg.contains("tag=8"), "{msg}");
            assert!(msg.contains("comm 0"), "{msg}");
            assert_eq!(msg, pins::TAG_MISMATCH);
        }
        Ok(_) => panic!("tag mismatch must deadlock"),
        Err(other) => panic!("expected a deadlock report, got: {other}"),
    }
}

// ---------------------------------------------------------------------
// Bug class 5: send request dropped (buffer reused without wait)
// ---------------------------------------------------------------------

#[test]
fn mutation_dropped_send_request_is_flagged() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            // Mutation: the send buffer is handed back to the application
            // without waiting for the request — legal-looking because the
            // eager protocol buffers it, still an MPI usage error.
            let _dropped = w.isend(1, 3, Payload::Phantom(64));
        } else {
            let _ = w.recv(0, 3);
        }
        w.barrier();
    });
    let msg = expect_findings(result);
    assert!(msg.contains("request-leak"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(
        msg.contains("MPI_Isend(64B to rank 1, tag=3) on comm 0"),
        "{msg}"
    );
    assert_eq!(msg, pins::DROPPED_SEND);
}

// ---------------------------------------------------------------------
// Bug class 6: a rank skips a collective (multiple-PPN sleep bug)
// ---------------------------------------------------------------------

#[test]
fn mutation_rank_skipping_collective_is_flagged() {
    let result = run(cfg(3, 3), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 2 {
            // Mutation: this rank "sleeps" through the broadcast — the
            // failure mode of the paper's multiple-PPN sleep mechanism when
            // a sleeping rank is left out of a collective.
            rc.advance(SimDur::from_micros(50));
        } else {
            let data = (rc.rank() == 0).then_some(Payload::Phantom(64));
            let _ = w.bcast(0, data, 64);
        }
    });
    let msg = expect_findings(result);
    assert!(msg.contains("coll-count"), "{msg}");
    assert!(msg.contains("rank 2"), "{msg}");
    assert!(msg.contains("comm 0"), "{msg}");
    assert_eq!(msg, pins::SKIPPED_COLLECTIVE);
}

// ---------------------------------------------------------------------
// Bug class 7: two sends in flight on one envelope (no dup'd communicator)
// ---------------------------------------------------------------------

#[test]
fn mutation_one_envelope_two_sends_in_flight_warns_at_any_scale() {
    // 1,024 ranks: the race check judges each rank's own call order, so
    // it costs and finds the same at any p.
    let p = 1024;
    let out = run(cfg(p, 4), |rc: RankCtx| {
        let w = rc.world();
        // Every rank logs something.
        w.barrier();
        match rc.rank() {
            0 => {
                // Mutation: the second isend goes out on the first one's
                // envelope before the first is waited — the paper's N_DUP
                // operations in flight, without the duplicated communicator.
                let first = w.isend(1, 9, Payload::Phantom(64));
                let (second, line) = (w.isend(1, 9, Payload::Phantom(64)), line!());
                w.wait_all(&[first, second]);
                Some(line)
            }
            1 => {
                let _ = w.recv(0, 9);
                let _ = w.recv(0, 9);
                None
            }
            _ => None,
        }
    })
    .expect("a warning does not fail a Strict run");
    let second_post = out.results[0].expect("rank 0 posts");
    let msg = render(&out.verify.findings);
    assert_eq!(out.verify.findings.len(), 1, "{msg}");
    assert!(msg.contains("[order-dependent-match]"), "{msg}");
    assert!(
        msg.contains("same-envelope sends (comm 0, rank 0 -> rank 1, tag=9)"),
        "{msg}"
    );
    let site = format!("posted at {}:{second_post}", file!());
    assert!(msg.contains(&site), "{msg}\nwant: {site}");
    assert_eq!(msg, format!("{}{site}", pins::ONE_ENVELOPE));
}

// ---------------------------------------------------------------------
// Deadlock cycle extraction
// ---------------------------------------------------------------------

#[test]
fn forced_deadlock_reports_wait_for_cycle() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        // Classic head-to-head: each rank receives first.
        let other = 1 - rc.rank();
        let _ = w.recv(other, 0);
    });
    match result {
        Err(SimError::Deadlock { report }) => {
            let msg = report.to_string();
            assert!(msg.contains("wait-for cycle"), "{msg}");
            assert!(msg.contains("MPI_Irecv"), "{msg}");
            assert_eq!(msg, pins::HEAD_TO_HEAD);
        }
        Ok(_) => panic!("mutual receives must deadlock"),
        Err(other) => panic!("expected a deadlock report, got: {other}"),
    }
}

// ---------------------------------------------------------------------
// Mode semantics
// ---------------------------------------------------------------------

#[test]
fn warn_mode_reports_but_does_not_fail() {
    let result = run(cfg(2, 1).with_verify(VerifyMode::Warn), |rc: RankCtx| {
        let w = rc.world();
        let root = rc.rank();
        let _ = w.bcast(root, Some(Payload::Phantom(64)), 64);
    });
    let out = result.expect("Warn mode must not fail the run");
    assert!(
        out.verify.errors() > 0,
        "the root mismatch must still be reported in the output"
    );
    assert_eq!(render(&out.verify.findings), pins::WARN_ROOT_MISMATCH);
}

#[test]
fn off_mode_records_nothing() {
    let result = run(cfg(2, 1).with_verify(VerifyMode::Off), |rc: RankCtx| {
        let w = rc.world();
        let root = rc.rank();
        let _ = w.bcast(root, Some(Payload::Phantom(64)), 64);
    });
    let out = result.expect("Off mode must not fail the run");
    assert!(out.verify.findings.is_empty());
}

/// The exact text of every report above, as the analyzer renders it.
mod pins {
    pub const ROOT_MISMATCH: &str = concat!(
        "error[coll-mismatch]: mismatched collective #0 on comm 0: rank 0 called MPI_Bcast(root=0, len=64) at crates/simmpi/tests/verify_mutations.rs:42, but rank 1 called MPI_Bcast(root=1, len=64) at crates/simmpi/tests/verify_mutations.rs:42\n",
        "warning[unmatched-send]: send of 64B from rank 0 to rank 1 (internal tag 0x8000000000000000) on comm 0 was never matched by a receive, posted at crates/simmpi/src/coll/mod.rs:67\n",
        "warning[unmatched-send]: send of 64B from rank 1 to rank 0 (internal tag 0x8000000000000000) on comm 0 was never matched by a receive, posted at crates/simmpi/src/coll/mod.rs:67",
    );
    pub const WARN_ROOT_MISMATCH: &str = concat!(
        "error[coll-mismatch]: mismatched collective #0 on comm 0: rank 0 called MPI_Bcast(root=0, len=64) at crates/simmpi/tests/verify_mutations.rs:270, but rank 1 called MPI_Bcast(root=1, len=64) at crates/simmpi/tests/verify_mutations.rs:270\n",
        "warning[unmatched-send]: send of 64B from rank 0 to rank 1 (internal tag 0x8000000000000000) on comm 0 was never matched by a receive, posted at crates/simmpi/src/coll/mod.rs:67\n",
        "warning[unmatched-send]: send of 64B from rank 1 to rank 0 (internal tag 0x8000000000000000) on comm 0 was never matched by a receive, posted at crates/simmpi/src/coll/mod.rs:67",
    );
    pub const LEAKED_RECV: &str = "error[request-leak]: rank 1 leaked MPI_Irecv(from rank 0, tag=5) on comm 0: never waited on or tested to completion, posted at crates/simmpi/tests/verify_mutations.rs:67";
    pub const REORDERED: &str = "error[cross-comm-order]: blocking collectives on comms [0, 1, 2] (same member set) are interleaved differently: at position 0, rank 0 ran MPI_Bcast on comm 1 at crates/simmpi/tests/verify_mutations.rs:93 but rank 1 ran MPI_Bcast on comm 2 at crates/simmpi/tests/verify_mutations.rs:99";
    pub const TAG_MISMATCH: &str = concat!(
        "simulation deadlocked: 1 agent(s) blocked on 1 rank(s)\n",
        "  rank 1: blocked in MPI_Irecv(from rank 0, tag=8) on comm 0, posted at crates/simmpi/tests/verify_mutations.rs:123",
    );
    pub const DROPPED_SEND: &str = "error[request-leak]: rank 0 leaked MPI_Isend(64B to rank 1, tag=3) on comm 0: never waited on or tested to completion, posted at crates/simmpi/tests/verify_mutations.rs:151";
    pub const SKIPPED_COLLECTIVE: &str = concat!(
        "error[coll-count]: comm 0: rank 2 issued 0 collective(s) but rank 0 issued 1 — some member skipped a collective\n",
        "warning[unmatched-send]: send of 64B from rank 0 to rank 2 (internal tag 0x8000000000000001) on comm 0 was never matched by a receive, posted at crates/simmpi/src/coll/mod.rs:67",
    );
    pub const ONE_ENVELOPE: &str = "warning[order-dependent-match]: concurrent same-envelope sends (comm 0, rank 0 -> rank 1, tag=9): matching depends on arrival order, ";
    pub const HEAD_TO_HEAD: &str = concat!(
        "simulation deadlocked: 2 agent(s) blocked on 2 rank(s)\n",
        "  wait-for cycle: rank 0 -> rank 1 -> rank 0\n",
        "  rank 0: blocked in MPI_Irecv(from rank 1, tag=0) on comm 0, posted at crates/simmpi/tests/verify_mutations.rs:247\n",
        "  rank 1: blocked in MPI_Irecv(from rank 0, tag=0) on comm 0, posted at crates/simmpi/tests/verify_mutations.rs:247",
    );
}
