//! Smoke-size runs of every workload: each must pass the oracle and emit
//! every metric `BENCHMARK.json` lists, by name and with its unit — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`.

use std::path::Path;
use std::process::Command;

use uhscm_obs::trace::{parse, Json};

const WORKLOADS: [&str; 3] = ["scan-1m", "wire-small", "mutate-100k"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark binary; returns (exit success, stdout).
fn servebench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn servebench");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn check_result(workload: &str, trace: &str, section: &str) {
    let (ok, stdout) = servebench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"));
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let attempted = result.get("attempted").and_then(Json::as_u64).expect("attempted");
    assert!(attempted >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}: {last}");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}: {last}");
    for (name, unit) in want {
        let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{workload}: {name}");
        let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(stdout.contains(&format!("{name} = ")), "{workload}: {name} not printed by name");
    }
}

// One test, run sequentially: concurrent benchmark processes would
// compete for the same cores and distort each other's rate ladders.
#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        check_result(workload, "0", "end_to_end");
        check_result(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "wire-small", "--seed", "x", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "wire-small", "--seed", "1", "--seconds", "1", "--trace", "2"][..],
    ] {
        let (ok, stdout) = servebench(args);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result: {stdout}");
    }
}
