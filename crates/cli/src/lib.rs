//! Library backing the `sfc` command-line tool.
//!
//! Graphs are written in a small textual DSL (parsed and printed by
//! [`sf_ir::dsl`]), so fusion experiments don't require writing Rust:
//!
//! ```text
//! graph softmax f16
//! input x [1024, 2048]
//! m   = reduce_max x dim=1
//! s   = sub x m
//! e   = exp s
//! z   = reduce_sum e dim=1
//! out = div e z
//! output out
//! ```
//!
//! [`driver`] holds the subcommands (`compile`, `lint`, `print`, `fuzz`,
//! `faultsim`, `serve`, `chaos`) and the one dispatcher `src/main.rs`
//! calls.

// The no-new-unwrap gate (see crates/core/src/lib.rs): the driver backs
// a long-running daemon (`sfc serve`), where a stray panic is an
// outage. Test modules opt back in locally with `#[allow]`.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod driver;

pub use sf_ir::dsl::{parse_graph, print_graph, ParseError};
