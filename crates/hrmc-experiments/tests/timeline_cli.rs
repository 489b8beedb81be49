//! `hrmc-exp timeline` as a process: what it claims on stdout must be
//! on disk.

use std::process::Command;

/// An unwritable `--events` path is a runtime error (exit 1), and the
/// `event log:` pointer to a file that does not exist is never printed.
#[test]
fn unwritable_event_log_is_not_announced() {
    let path = "/nonexistent/dir/x.jsonl";
    let out = Command::new(env!("CARGO_BIN_EXE_hrmc-exp"))
        .args(["timeline", "--receivers", "1", "--events", path])
        .output()
        .expect("hrmc-exp runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains(&format!("cannot write {path}")), "{stderr}");
    assert!(!stdout.contains("event log:"), "{stdout}");
    // The run itself still reported.
    assert!(stdout.contains("completed=true"), "{stdout}");
}
