//! A JSON or TOML scenario spec nested far beyond any real document must
//! be rejected with a positioned diagnostic — not abort the process with a
//! stack overflow inside the recursive JSON or TOML value parser. A spec
//! asking for more flows than the admission limit is rejected the same way.

use std::process::Command;

const DEPTH: usize = 100_000;

fn validate(name: &str, text: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("imobif-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_imobif"))
        .args(["scenario", "validate"])
        .arg(&path)
        .output()
        .expect("run imobif");
    let _ = std::fs::remove_file(&path);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn scenario_validate_rejects_100k_deep_json_with_a_positioned_error() {
    let arrays = format!("{{\"base\": {}1{}}}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let objects = format!("{}1{}", "{\"a\": ".repeat(DEPTH), "}".repeat(DEPTH));
    let toml_arrays = format!("v = {}1{}\n", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let json_limit = "json: nesting deeper than 128 levels at byte";
    // The 129th `[` sits after `v = ` and 128 brackets.
    let toml_limit = "line 1, column 133: arrays nested deeper than 128 levels";
    let huge_flows = "name = \"huge\"\nflows = 1000000000\n".to_string();
    let flows_limit = "line 2, column 1: `flows` must be between 1 and 10000, not 1000000000";
    for (name, text, want) in [
        ("arrays.json", arrays, json_limit),
        ("objects.json", objects, json_limit),
        ("arrays.toml", toml_arrays, toml_limit),
        ("huge_flows.toml", huge_flows, flows_limit),
    ] {
        let (code, stderr) = validate(name, &text);
        assert_eq!(code, Some(2), "{name}: exit status (stderr: {stderr})");
        assert!(
            stderr.contains(want),
            "{name}: diagnostic names the limit and the position: {stderr}"
        );
    }
}
