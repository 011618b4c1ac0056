//! Sync-primitive switchyard for the runtime backend.
//!
//! Everything in `ovcomm-rt` that synchronizes between rank threads,
//! progress workers, and the watchdog imports its primitives from here
//! instead of naming `parking_lot` / `std::sync::atomic` directly. In a
//! normal build this module is a pure re-export — zero cost, identical
//! types. Built with `RUSTFLAGS="--cfg loom"`, the same names resolve to
//! the loom model-checking primitives, so the mailbox-matching and
//! rendezvous-handshake state machines can be exhaustively schedule-tested
//! (`tests/loom.rs`) without a second copy of the protocol code.
//!
//! One deliberate exception: the `CommEnv` embedded in `RtShared` (plan
//! cache, communicator registry, traffic counters) uses
//! `parking_lot::Mutex` and `std` atomics unconditionally, as does the
//! communicator front end built on it — both are `ovcomm-simmpi` code
//! shared verbatim with the simulator backend, and neither is on a
//! loom-checked path.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::Mutex;

#[cfg(not(loom))]
pub use parking_lot::Mutex;
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
