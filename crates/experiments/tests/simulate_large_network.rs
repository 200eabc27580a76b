//! `altroute_cli simulate` on a network too large for the Erlang bound's
//! cut enumeration: the run still completes and prints its table, and
//! the bound is reported as unavailable rather than crashing the CLI.

use altroute_json::Value;
use std::path::Path;
use std::process::{Command, Output};

/// A 26-node ring, two nodes past `cuts::MAX_CUT_NODES`, at light load
/// and short horizons so the run takes a fraction of a second.
const RING_26: &str = r#"{
  "topology": { "ring": { "nodes": 26, "capacity": 50 } },
  "traffic": { "uniform": 0.5 },
  "policies": ["single-path", "controlled"],
  "max_hops": 3,
  "warmup": 1.0,
  "horizon": 5.0,
  "seeds": 2
}"#;

/// Writes `config` under this test's own file name and runs `simulate`.
fn simulate(file: &str, extra: &[&str]) -> Output {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, RING_26).expect("write config");
    Command::new(env!("CARGO_BIN_EXE_altroute_cli"))
        .arg("simulate")
        .arg(&path)
        .args(extra)
        .output()
        .expect("run altroute_cli")
}

fn assert_success(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}, stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_26_node_ring_prints_its_table_and_no_bound() {
    let out = simulate("ring26-table.json", &[]);
    assert_success(&out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for policy in ["single-path", "controlled"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(policy)),
            "no {policy} row in:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("erlang cut-set lower bound: n/a (more than 24 nodes)"),
        "{stdout}"
    );
}

#[test]
fn a_26_node_ring_writes_a_null_bound() {
    let out = simulate("ring26-metrics.json", &["--metrics-json"]);
    assert_success(&out);
    let doc = altroute_json::parse(&String::from_utf8(out.stdout).expect("utf-8 output"))
        .expect("one JSON document");
    assert_eq!(doc.get("erlang_cut_set_lower_bound"), Some(&Value::Null));
    let policies = doc
        .get("policies")
        .and_then(Value::as_array)
        .expect("policies");
    assert_eq!(policies.len(), 2);
}
