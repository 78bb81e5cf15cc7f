//! The binary's behaviour when its reader goes away early, as in
//! `catbatch schedule big.rigid --trace | head -1`.

use std::process::{Command, Stdio};

fn catbatch(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_catbatch"));
    cmd.args(args);
    cmd
}

/// A closed stdout ends the output: the binary exits 0 and writes
/// nothing to stderr instead of panicking on the failed write.
#[test]
fn closed_stdout_ends_output_quietly() {
    let generated = catbatch(&[
        "generate", "--family", "layered", "--n", "2000", "--procs", "8",
    ])
    .output()
    .expect("run catbatch generate");
    assert!(generated.status.success());
    let path = std::env::temp_dir().join(format!(
        "catbatch-closed-stdout-{}.rigid",
        std::process::id()
    ));
    std::fs::write(&path, &generated.stdout).expect("write the instance");
    let path = path.to_str().expect("temp path is UTF-8");

    // The trace must outgrow a pipe buffer (64 KiB on Linux), so the
    // write below cannot complete before the reader has gone.
    let full = catbatch(&["schedule", path, "--trace"])
        .output()
        .expect("run catbatch schedule");
    assert!(full.status.success());
    assert!(
        full.stdout.len() > 64 * 1024,
        "trace is only {} bytes",
        full.stdout.len()
    );

    let mut child = catbatch(&["schedule", path, "--trace"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn catbatch schedule");
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("wait for catbatch schedule");
    let _ = std::fs::remove_file(path);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(out.status.success(), "status {:?}", out.status);
}
