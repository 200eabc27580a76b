//! Cross-checks of the benchmark's workloads against earlier baselines
//! and against their own traced runs. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use altroute_perfbench::feed;
use altroute_perfbench::sim::{Arm, SimWorkload};

/// `quadrangle_churn` is the `outage_churn` spec of `bench_report`: at
/// horizon 400 and seed 1 its counts equal that workload's row of the
/// repository's `BENCH_kernel.json` (schema v3).
#[test]
fn quadrangle_churn_matches_the_outage_churn_baseline() {
    let w = SimWorkload::QuadrangleChurn { horizon: 400.0 };
    let mut state = w.setup();
    let out = w.run(&mut state, Arm::Pooled, 1);
    assert_eq!(out.events, 8_638_450, "events");
    assert_eq!(out.offered, 4_320_304, "offered");
    assert_eq!(out.blocked, 100_003, "blocked");
    assert_eq!(out.dropped, 111_142, "dropped");
}

/// The probes are pure observers: the traced arm reproduces the
/// untraced result exactly, and so does the recorded arm.
#[test]
fn traced_and_recorded_arms_reproduce_the_plain_digest() {
    let w = SimWorkload::QuadrangleChurn { horizon: 20.0 };
    let mut state = w.setup();
    let plain = w.run(&mut state, Arm::Plain, 7);
    for arm in [Arm::Pooled, Arm::Probed, Arm::Recorded] {
        let out = w.run(&mut state, arm, 7);
        assert_eq!(out.digest, plain.digest, "{arm:?}");
        assert_eq!(out.violations, 0);
    }
}

#[test]
fn traced_feed_replay_reproduces_run_feed() {
    let f = feed::generate(feed::REFERENCE, 3);
    let plane = feed::plane(f.spec);
    let untraced = feed::replay(&mut feed::controller(plane.clone()), &f);
    let traced = feed::replay_traced(&mut feed::controller(plane), &f);
    assert_eq!(untraced.digest, traced.outcome.digest);
    assert_eq!(untraced.lines, traced.outcome.lines);
    assert_eq!(untraced.failed, 0);
    assert!(untraced.ended);
    assert_eq!(untraced.solves, u64::from(f.spec.windows));
    assert_eq!(traced.resolve_ms.len() as u64, untraced.solves);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let a = feed::generate(feed::REFERENCE, 5);
    let b = feed::generate(feed::REFERENCE, 5);
    let c = feed::generate(feed::REFERENCE, 6);
    assert_eq!(a.text, b.text);
    assert_ne!(a.text, c.text);
}
