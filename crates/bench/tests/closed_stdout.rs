//! `all_experiments`' behaviour when its reader goes away early, as in
//! `all_experiments --no-save | head -1`.

use std::process::{Command, Stdio};

/// A closed stdout ends the suite at its first failed write: the binary
/// exits 0 and writes nothing to stderr instead of panicking.
#[test]
fn all_experiments_ends_quietly_when_stdout_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("--no-save")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn all_experiments");
    // The reader is gone before the first report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for all_experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(out.status.success(), "status {:?}", out.status);
}
