//! `sfc` — the SpaceFusion command-line compiler.
//!
//! ```text
//! sfc <compile|lint|print> FILE [flags]
//! sfc <fuzz|faultsim> [flags]
//! sfc <serve|chaos> SOCKET [flags]
//! ```
//!
//! Each subcommand's flags, with their metavariables, are one table in
//! `driver.rs`; a bad command line prints the usage rendered from those
//! tables.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sf_cli::driver::run(&args) {
        Ok((report, clean)) => {
            print!("{report}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sfc: {e}");
            ExitCode::FAILURE
        }
    }
}
