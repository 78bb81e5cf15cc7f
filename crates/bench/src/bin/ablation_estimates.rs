//! Regenerates one paper artifact; see DESIGN.md experiment index.
fn main() -> std::process::ExitCode {
    rigid_sim::write_stdout([rigid_bench::experiments::ablations::ablation_estimates()])
}
