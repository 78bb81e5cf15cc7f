//! Regenerates one paper artifact; see DESIGN.md experiment index.
fn main() -> std::process::ExitCode {
    rigid_sim::write_stdout([rigid_bench::experiments::theorems::thm1_ratio_n()])
}
