//! Golden `--quick` output of every simulated-clock artefact of the
//! paper's evaluation.
//!
//! `tests/golden/repro/<id>.txt` pins what `repro --only <id> --quick`
//! prints, byte for byte. Those rows report the GPU simulator and the
//! compiler's own decisions, so any change to slicing, tuning, cost
//! modelling or the simulator that moves a paper figure fails here, with
//! the first differing line. Host-clock rows (`table4`, `table5`) are not
//! pinned. One test per row, so the harness runs them in parallel.
//!
//! Re-bless (only for a declared change of the paper record) with
//! `SF_BLESS_GOLDEN=1 cargo test -p sf-bench --test repro_golden`, then
//! read the diff.

use sf_bench::repro::{render, Clock, ARTEFACTS};
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    // crates/bench -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/repro")
        .join(format!("{id}.txt"))
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

fn check(id: &str) {
    let artefact = ARTEFACTS
        .iter()
        .find(|a| a.id == id)
        .unwrap_or_else(|| panic!("no artefact '{id}'"));
    let actual = render(artefact, true);
    let path = golden_path(id);
    if std::env::var_os("SF_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        expected == actual,
        "repro --only {id} --quick drifted from {}: {}",
        path.display(),
        first_difference(&expected, &actual)
    );
}

macro_rules! pinned {
    ($($id:ident),* $(,)?) => {
        const PINNED: &[&str] = &[$(stringify!($id)),*];
        $(
            #[test]
            fn $id() {
                check(stringify!($id));
            }
        )*
    };
}

pinned!(fig11a, fig11b, fig12, fig13, fig14, fig15, fig16a, fig16b, fig16c, table6, ablation);

#[test]
fn every_sim_row_is_pinned() {
    let sim: Vec<&str> = ARTEFACTS
        .iter()
        .filter(|a| a.clock == Clock::Sim)
        .map(|a| a.id)
        .collect();
    assert_eq!(sim, PINNED);
}
