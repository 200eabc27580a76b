//! Channel borrowing in cellular telephony, controlled by state
//! protection — the paper's §3.2 generalization.
//!
//! The control strategy of the paper applies to any
//! Multiple-Service/Multiple-Resource model where an "alternate resource
//! set" can carry a request at extra expense. The paper's worked example
//! is **channel borrowing**: a call arriving at a cell with no idle
//! channel may borrow a channel from a neighbouring cell, but the borrowed
//! channel must then be *locked* in the lender's co-channel cells, so the
//! borrow consumes capacity in a co-cell set of (classically) 3 cells.
//! Choosing each cell's protection level with `H = 3` therefore guarantees
//! — by exactly the Theorem-1 argument — that borrowing can only improve
//! on the no-borrowing baseline.
//!
//! * [`grid`] — cell layouts with fixed 3-cell reuse clusters.
//! * [`policy`] — no-borrowing / uncontrolled / controlled borrowing.
//! * [`sim`] — the call-by-call cellular simulator (built on
//!   `altroute-simcore`), with the same common-random-numbers methodology
//!   as the network simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod policy;
pub mod sim;

pub use grid::CellGrid;
pub use policy::BorrowPolicy;
pub use sim::{run_cellular, CellularParams, CellularResult};
