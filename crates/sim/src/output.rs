//! Writing a program's report to standard output.

use std::io::{self, Write};
use std::process::ExitCode;

/// Writes `chunks` to standard output, flushing after each, and returns
/// the exit code the program should end with.
///
/// The chunks are pulled one at a time, so a lazy iterator computes a
/// chunk only once the previous one is written, and stops at the first
/// failed write. A reader that closed the pipe (`catbatch … | head`)
/// has all the output it wants, which is not an error: the output ends
/// quietly with [`ExitCode::SUCCESS`]. Any other write error is named
/// on standard error and ends with [`ExitCode::FAILURE`].
pub fn write_stdout<S: AsRef<str>>(chunks: impl IntoIterator<Item = S>) -> ExitCode {
    let written = chunks.into_iter().try_for_each(|chunk| {
        // Locked per chunk: computing the next chunk may print too.
        let mut stdout = io::stdout().lock();
        stdout.write_all(chunk.as_ref().as_bytes())?;
        stdout.flush()
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}
