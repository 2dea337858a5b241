//! A JSON scenario spec nested far beyond any real document must be
//! rejected with a positioned diagnostic — not abort the process with a
//! stack overflow inside the recursive JSON parser.

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
    for (name, text) in [("arrays.json", arrays), ("objects.json", objects)] {
        let (code, stderr) = validate(name, &text);
        assert_eq!(code, Some(2), "{name}: exit status (stderr: {stderr})");
        assert!(
            stderr.contains("json: nesting deeper than 128 levels at byte"),
            "{name}: diagnostic names the limit and the byte position: {stderr}"
        );
    }
}
