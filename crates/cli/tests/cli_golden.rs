//! Golden exit code and stdout of the `sfc` binary.
//!
//! `tests/golden/cli/<case>.txt` pins, byte for byte, what one `sfc`
//! invocation prints to stdout, preceded by an `exit: N` line. Error
//! cases pin only the failing exit code and an empty stdout: their
//! one-line message goes to stderr and is free to change. Runs whose
//! output holds wall-clock values (`--timings`) or needs a socket
//! (`serve`, `chaos`) are left to `scripts/verify.sh`.
//!
//! Re-bless (only for a declared change of the CLI's output) with
//! `SF_BLESS_GOLDEN=1 cargo test -p sf-cli --test cli_golden`, then read
//! the diff.

#[path = "../../../tests/support/golden.rs"]
mod golden;

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    // crates/cli -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn check(case: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sfc"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("run sfc");
    let code = out.status.code().expect("sfc exited without a code");
    let actual = format!("exit: {code}\n{}", String::from_utf8_lossy(&out.stdout));
    let path = root().join("tests/golden/cli").join(format!("{case}.txt"));
    golden::check(&path, &actual, &format!("sfc {}", args.join(" ")));
}

macro_rules! golden {
    ($($case:ident: [$($arg:expr),* $(,)?];)*) => {
        $(
            #[test]
            fn $case() {
                check(stringify!($case), &[$($arg),*]);
            }
        )*
    };
}

golden! {
    print: ["print", "examples/graphs/softmax.sfg"];
    compile_split_k: ["compile", "examples/graphs/mha_decode.sfg"];
    compile_emit_profile_verify: [
        "compile", "examples/graphs/attention.sfg",
        "--emit", "--profile", "--verify", "7", "--exec-threads", "2",
    ];
    compile_dot: ["compile", "examples/graphs/layernorm.sfg", "--dot"];
    compile_rewrite: ["compile", "examples/graphs/layernorm.sfg", "--rewrite"];
    lint_volta: ["lint", "examples/graphs/attention.sfg", "--arch", "volta"];
    lint_json: ["lint", "examples/graphs/layernorm.sfg", "--json"];
    fuzz: ["fuzz", "--seeds", "3", "--seed", "42"];
    fuzz_faults: ["fuzz", "--seeds", "2", "--faults", "1"];
    faultsim: ["faultsim", "--seeds", "3", "--faults", "1"];
    err_no_args: [];
    err_unknown_command: ["explain", "examples/graphs/softmax.sfg"];
    err_unknown_flag: ["compile", "examples/graphs/softmax.sfg", "--bogus"];
    err_missing_value: ["compile", "examples/graphs/softmax.sfg", "--verify"];
    err_bad_arch: ["compile", "examples/graphs/softmax.sfg", "--arch", "mars"];
    err_serve_zero_workers: ["serve", "target/cli-golden.sock", "--workers", "0"];
    err_chaos_zero_seeds: ["chaos", "target/cli-golden-chaos.sock", "--seeds", "0"];
    err_serve_no_socket: ["serve"];
    err_unreadable_file: ["compile", "examples/graphs/no-such-graph.sfg"];
}
