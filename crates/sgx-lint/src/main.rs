//! CLI entry point: `cargo run -p sgx-lint -- [--format text|json] [paths...]`.

use std::process::ExitCode;

fn main() -> ExitCode {
    sgx_lint::cli::run(std::env::args().skip(1))
}
