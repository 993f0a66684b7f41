//! Golden lowering corpus: the exact output of every consumer of a
//! kernel's loop structure, for every checked-in graph.
//!
//! For each `.sfg` under `examples/graphs/` and `tests/corpus/` × 3
//! architectures × 5 fusion policies, one text file per graph under
//! `tests/golden/lowering/` pins, per kernel, the lowered instruction
//! stream, the pseudo-code, the analytic cost estimates and the
//! disjoint-write verdict, and per program the simulated profile
//! counters and both time figures (as bit patterns). The files were
//! blessed before the four hand-synchronised walkers were replaced by
//! `codegen::plan`, so a byte-for-byte match proves the walkers were
//! replaced, not changed.
//!
//! Each program also ends in a `compile` block: the compile pipeline's
//! event stream (pass, segment, unit and detail of every `PassEvent`,
//! durations left out) from a single-worker session, and the
//! `CompileStats` counters. It pins the order and payload of the
//! events that per-pass timing reports and the benchmark's exact
//! counts are computed from.
//!
//! Re-bless (only for an intended change of generated code) with
//! `SF_BLESS_GOLDEN=1 cargo test -p spacefusion --test lowering_golden`.

#[path = "../../../tests/support/golden.rs"]
mod golden;

use sf_gpu_sim::Arch;
use sf_ir::{parse_graph, Graph};
use spacefusion::codegen::{
    emit_pseudocode, estimate_accumulate_cost, estimate_cost, lower_instructions,
};
use spacefusion::pipeline::CollectingSink;
use spacefusion::{CompileOptions, CompileSession, FusionPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn root() -> PathBuf {
    // crates/core -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every checked-in graph, sorted by file stem.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for dir in ["examples/graphs", "tests/corpus"] {
        for entry in std::fs::read_dir(root().join(dir)).expect("read graph dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "sfg") {
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                let src = std::fs::read_to_string(&path).expect("read graph");
                let graph = parse_graph(&src).unwrap_or_else(|e| panic!("{stem}: {e}"));
                out.push((stem, graph));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Everything the lowering consumers say about one compiled program:
/// one block per kernel, then one for the whole program.
fn render_program(graph: &Graph, arch: Arch, policy: FusionPolicy) -> Vec<String> {
    let sink = Arc::new(CollectingSink::new());
    let session = CompileSession::new(arch, CompileOptions::for_policy(policy))
        .with_workers(1)
        .with_sink(sink.clone());
    let compiled = session.compile(graph);
    let mut s = String::from("compile\n");
    for e in sink.events() {
        let _ = writeln!(
            s,
            "event {} {} {} {:?}",
            e.pass.name(),
            e.segment,
            e.unit,
            e.detail
        );
    }
    let p = match compiled {
        Ok(p) => p,
        Err(e) => return vec![format!("compile error: {e}\n"), s],
    };
    let st = &p.stats;
    let _ = writeln!(
        s,
        "stats configs {} evaluated {} pruned {} cache_hits {}",
        st.configs, st.evaluated, st.pruned, st.cache_hits
    );
    let _ = writeln!(s, "fusion_patterns: {:?}", st.fusion_patterns);
    let _ = writeln!(s, "degradations: {:?}", st.degradations);
    let _ = writeln!(s, "lockfree_fallbacks: {:?}", st.lockfree_fallbacks);
    let compile_block = s;
    let instances = p.instances as u64;
    let mut blocks = Vec::new();
    for kp in &p.kernels {
        let mut s = String::new();
        let _ = writeln!(s, "kernel {}", kp.name);
        let _ = writeln!(s, "instrs: {:#?}", lower_instructions(kp));
        let _ = writeln!(s, "pseudocode:\n{}", emit_pseudocode(kp));
        let _ = writeln!(s, "cost: {:?}", estimate_cost(kp, instances));
        let _ = writeln!(
            s,
            "accumulate_cost: {:?}",
            estimate_accumulate_cost(kp, instances)
        );
        let _ = writeln!(s, "disjoint: {:?}", kp.disjoint);
        blocks.push(s);
    }
    let report = p.profile(2);
    let mut s = String::new();
    let _ = writeln!(s, "program");
    let _ = writeln!(s, "profile: {:?}", report.stats);
    let _ = writeln!(s, "time_us bits: {:#018x}", report.time_us.to_bits());
    let _ = writeln!(s, "estimate_us bits: {:#018x}", p.estimate_us().to_bits());
    blocks.push(s);
    blocks.push(compile_block);
    blocks
}

/// One graph's golden text. A block is spelled out where it first
/// appears and named by its number afterwards (most kernels lower
/// identically on all three architectures).
fn render_graph(graph: &Graph) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for arch in [Arch::Volta, Arch::Ampere, Arch::Hopper] {
        for policy in FusionPolicy::all() {
            let _ = writeln!(out, "==== {arch:?} {}", policy.name());
            for block in render_program(graph, arch, policy) {
                match seen.iter().position(|b| *b == block) {
                    Some(n) => {
                        let _ = writeln!(out, "-- block {n} again");
                    }
                    None => {
                        let _ = writeln!(out, "-- block {}", seen.len());
                        out.push_str(&block);
                        seen.push(block);
                    }
                }
            }
        }
    }
    out
}

fn golden_path(stem: &str) -> PathBuf {
    root()
        .join("tests/golden/lowering")
        .join(format!("{stem}.txt"))
}

#[test]
fn lowering_matches_the_golden_corpus() {
    let graphs = graphs();
    assert_eq!(graphs.len(), 15, "the checked-in graph set changed");
    for (stem, graph) in &graphs {
        let actual = render_graph(graph);
        golden::check(&golden_path(stem), &actual, &format!("lowering of {stem}"));
    }
}
