//! The `catbatch` binary: thin I/O shell over `catbatch_cli`.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    // SIGINT/SIGTERM set a flag that long-running campaigns poll between
    // trials, so ^C flushes journals and prints partial stats instead of
    // killing the process mid-write.
    rigid_supervise::interrupt::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match catbatch_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let read_file = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
    };
    match catbatch_cli::run_command(&cmd, &read_file) {
        Ok(out) => {
            let mut stdout = io::stdout().lock();
            match stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Ok(()) => ExitCode::SUCCESS,
                // The reader closed the pipe (`catbatch … | head`): it
                // has all the output it wants, which is not an error.
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
