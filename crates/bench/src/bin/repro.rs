//! Reproduces the paper's evaluation (§6): prints every row of
//! [`sf_bench::repro::ARTEFACTS`] in table order, or the rows whose id
//! starts with `--only PREFIX` (`--only fig16` prints all three parts).
//! `--quick` runs each artefact's reduced sweep.
//!
//! Usage: `repro [--quick] [--only PREFIX]`

use sf_bench::repro::{render, ARTEFACTS};

fn main() {
    let mut quick = false;
    let mut only = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => {
                only = args
                    .next()
                    .unwrap_or_else(|| usage("--only needs a PREFIX"))
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let selected: Vec<_> = ARTEFACTS
        .iter()
        .filter(|a| a.id.starts_with(&only))
        .collect();
    if selected.is_empty() {
        usage(&format!("no artefact id starts with '{only}'"));
    }
    for artefact in selected {
        print!("{}", render(artefact, quick));
    }
}

fn usage(msg: &str) -> ! {
    let ids: Vec<&str> = ARTEFACTS.iter().map(|a| a.id).collect();
    eprintln!(
        "repro: {msg}\nusage: repro [--quick] [--only PREFIX]\nids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}
