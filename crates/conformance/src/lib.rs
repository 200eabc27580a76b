//! Conformance subsystem: does the simulator tell the truth?
//!
//! The engine in `altroute-sim` underwrites every figure the workspace
//! reproduces, so this crate validates it three independent ways:
//!
//! * [`oracle`] — **differential oracles**: the engine runs small
//!   single-link and sparse-mesh instances whose blocking is known
//!   exactly (birth–death chains, the Kaufman–Roberts recursion) or to a
//!   characterised approximation (the Erlang fixed point), and the
//!   simulated estimate must agree within replication-derived 3σ bounds
//!   plus a documented floor. Trunk reservation is covered by a
//!   construction whose overflow stream is *exactly* Poisson (a
//!   statically failed primary), so the protected link is an exact 1-D
//!   chain rather than an approximation.
//! * [`golden`] — **golden-trace replay**: fixed NSFNet, quadrangle and
//!   `K_6` scenarios are recorded through the kernel's observer hooks by
//!   a [`BinaryTraceWriter`](altroute_sim::trace::BinaryTraceWriter) into
//!   a versioned binary format and checked into the repository. Any
//!   change to event ordering, RNG stream layout, or admission logic
//!   diverges from the golden bytes at a specific event index.
//! * [`fuzz`] — **scenario fuzzing**: random instances from
//!   [`altroute_netgraph::topologies::random_instance`] are cross-checked
//!   against metamorphic invariants (conservation per O–D pair, `r = 0`
//!   ≡ free alternate routing, `H = 1` ≡ primary-only, blocking monotone
//!   in offered load).
//!
//! The crate is exercised by its integration tests (also in `--release`,
//! to catch optimisation-only numeric drift), by `scripts/check.sh`, and
//! by the `conformance` CLI subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod golden;
pub mod oracle;

pub use fuzz::{fuzz_instances, FuzzReport};
pub use golden::{golden_names, record_scenario, replay_check, Perturbation};
pub use oracle::{mesh_checks, single_link_checks, OracleCheck};

/// Outcome of running every conformance stage with its default budget.
#[derive(Debug, Clone)]
pub struct ConformanceSummary {
    /// Single-link and mesh differential-oracle checks.
    pub oracle: Vec<OracleCheck>,
    /// Golden-trace replay outcomes: `(scenario, divergence)` where
    /// `None` means the replay matched the checked-in trace.
    pub golden: Vec<(String, Option<String>)>,
    /// Scenario-fuzzer outcome.
    pub fuzz: FuzzReport,
}

impl ConformanceSummary {
    /// Whether every stage passed.
    pub fn all_passed(&self) -> bool {
        self.oracle.iter().all(|c| c.pass)
            && self.golden.iter().all(|(_, d)| d.is_none())
            && self.fuzz.violations.is_empty()
    }
}

/// Runs the full conformance suite with its default (CI) budget.
pub fn run_all() -> ConformanceSummary {
    let mut oracle = single_link_checks();
    oracle.extend(mesh_checks());
    let golden = golden_names()
        .iter()
        .map(|name| {
            let diff = replay_check(name);
            (name.to_string(), diff)
        })
        .collect();
    let fuzz = fuzz_instances(0x5EED_FACE, 20);
    ConformanceSummary {
        oracle,
        golden,
        fuzz,
    }
}
