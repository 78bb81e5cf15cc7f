//! The examples' behaviour when their reader goes away early, as in
//! `quickstart | head -1`.

use std::process::{Command, Stdio};

/// A closed stdout ends the output: every example exits 0 and writes
/// nothing to stderr instead of panicking on the failed write.
#[test]
fn every_example_ends_quietly_when_stdout_closes() {
    for exe in [
        env!("CARGO_BIN_EXE_quickstart"),
        env!("CARGO_BIN_EXE_hpc_campaign"),
        env!("CARGO_BIN_EXE_adversarial"),
        env!("CARGO_BIN_EXE_strip_demo"),
        env!("CARGO_BIN_EXE_monitoring"),
        env!("CARGO_BIN_EXE_moldable_pipeline"),
    ] {
        let mut child = Command::new(exe)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the example");
        // The reader is gone before the example's first write.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for the example");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.is_empty(), "{exe}: stderr: {stderr}");
        assert!(out.status.success(), "{exe}: status {:?}", out.status);
    }
}
