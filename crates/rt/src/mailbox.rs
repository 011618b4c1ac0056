//! The runtime's side of envelope matching.
//!
//! The *matching discipline* — FIFO per `(context, source, destination,
//! tag)` envelope, no wildcards, non-overtaking — is [`Mailbox`], the
//! sequential state machine the simulator matches through too (defined in
//! `ovcomm_simmpi::mailbox`, re-exported here). The runtime holds one
//! behind a `parking_lot::Mutex` (`RtShared::mailbox`): a post takes the
//! lock, posts, releases it, and completes any matched pair outside the
//! critical section. The loom harness (`tests/loom.rs`, built with
//! `RUSTFLAGS="--cfg loom"`) drives this `Mailbox` from concurrent model
//! threads under randomized schedules, inside its own miniature copy of
//! the lock-post-release-complete path; the runtime's post path itself is
//! not under the model.

/// Envelope key used for matching sends with receives — the front end's
/// [`Envelope`](ovcomm_simmpi::transport::Envelope), the same type the
/// simulator's matcher keys on.
pub use ovcomm_simmpi::transport::Envelope as RtKey;

pub use ovcomm_simmpi::mailbox::{Mailbox, RecvPost, SendPost, SlotId};
