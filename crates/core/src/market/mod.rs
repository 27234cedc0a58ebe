//! The user side of the MPR markets and the channels between the manager
//! and its users. The clearing schemes themselves live in
//! [`mechanism`](crate::mechanism).
//!
//! * [`interactive`] — the bidding agents that answer MPR-INT's price
//!   announcements, and the exchange's tuning.
//! * [`faults`] — faulty-agent adapters (unresponsive, crashing, stale,
//!   byzantine), the convergence watchdog and the degradation-chain
//!   vocabulary of the resilient MPR-INT exchange.
//! * [`payment`] — the idempotent payment log.
//! * [`transport`] — the deadline-bounded asynchronous message layer
//!   (PriceAnnounce/BidReply over [`transport::Transport`]) that MPR-INT
//!   runs on in a distributed deployment.

pub mod faults;
pub mod interactive;
pub mod payment;
pub mod transport;
