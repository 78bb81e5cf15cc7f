//! Runs the full experiment suite (E01–E20), prints every report, and
//! saves each one under `results/`.
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let save = std::env::args().all(|a| a != "--no-save");
    if save {
        let _ = fs::create_dir_all("results");
    }
    // Lazy: each experiment runs only once the previous report is
    // written, so a closed stdout stops the suite at its first failed
    // write.
    rigid_sim::write_stdout(
        rigid_bench::experiments::all()
            .into_iter()
            .map(|(id, runner)| {
                let report = runner();
                if save {
                    let path = format!("results/{id}.txt");
                    if let Err(e) = fs::write(&path, &report) {
                        eprintln!("warning: could not save {path}: {e}");
                    }
                }
                format!("######## {id} ########\n{report}\n")
            }),
    )
}
