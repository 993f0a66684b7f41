//! The golden-file check shared by the golden harnesses
//! (`crates/core/tests/lowering_golden.rs`,
//! `crates/bench/tests/repro_golden.rs`, `crates/cli/tests/cli_golden.rs`),
//! each of which includes this file with `#[path]`.
//!
//! Setting `SF_BLESS_GOLDEN` re-blesses: the actual output is written
//! over the golden file instead of being compared with it.

use std::path::Path;

/// Compares `actual` with the golden file at `path` and fails with the
/// first differing line; `what` names the output in the message. Under
/// `SF_BLESS_GOLDEN`, writes `actual` to `path` instead.
pub fn check(path: &Path, actual: &str, what: &str) {
    if std::env::var_os("SF_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        expected == actual,
        "{what} drifted from {}: {}",
        path.display(),
        first_difference(&expected, actual)
    );
}

fn first_difference(expected: &str, actual: &str) -> String {
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}:\n  golden: {e}\n  actual: {a}", n + 1);
        }
    }
    format!(
        "length differs: golden {} line(s), actual {} line(s)",
        expected.lines().count(),
        actual.lines().count()
    )
}
