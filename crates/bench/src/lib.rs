//! Benchmark harness reproducing the paper's evaluation (§6).
//!
//! [`repro::ARTEFACTS`] is the one table of figures and tables; the
//! `repro` binary renders its rows and `tests/repro_golden.rs` pins the
//! simulated ones. The helpers here run workloads through the engines,
//! collect simulated times and print the rows/series the paper reports.
//! Absolute numbers come from the simulator, not the authors' testbed —
//! the claims under reproduction are the *shapes*: who wins, by roughly
//! what factor, and where the crossovers fall.

pub mod repro;

use sf_baselines::Engine;
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::{TransformerConfig, Workload};
use spacefusion::compiler::{CompiledProgram, Compiler};
use spacefusion::Result;
use std::fmt::{Display, Write as _};

/// How many batch instances the profiler replays in detail; the rest are
/// scaled (the workloads are instance-homogeneous).
pub const REPLAY_INSTANCES: usize = 2;

/// Simulated execution time of a compiled program, µs.
///
/// Uses the full cache-simulating profiler.
pub fn profiled_us(program: &CompiledProgram) -> f64 {
    program.profile(REPLAY_INSTANCES).time_us
}

/// Simulated time of one subgraph under an engine, µs.
pub fn engine_subgraph_us(engine: Engine, arch: Arch, graph: &Graph) -> Result<f64> {
    Ok(profiled_us(&engine.compile(arch, graph)?))
}

/// End-to-end model time, µs, with every subprogram built by `compile`
/// (an engine, or a session holding the Fig. 16 ablation options).
///
/// Sums `count × subprogram-time` over the model's distinct subprograms.
/// Large-GEMM subprograms use the analytic estimate (their working sets
/// dwarf the L2, where the analytic and simulated models agree), keeping
/// full-model sweeps tractable; fused-attention and normalization
/// subprograms — where cache behaviour decides the outcome — always go
/// through the cache simulator.
pub fn model_us(
    model: &TransformerConfig,
    batch: usize,
    seq: usize,
    compile: impl Fn(&Graph) -> Result<CompiledProgram>,
) -> Result<f64> {
    let mut total = 0.0;
    for Workload { graph, count } in model.subprograms(batch, seq) {
        let program = compile(&graph)?;
        let detailed = sf_baselines::engines::is_attention(&graph)
            || sf_baselines::engines::is_row_norm(&graph);
        let us = if detailed {
            profiled_us(&program)
        } else {
            program.estimate_us()
        };
        total += us * count as f64;
    }
    Ok(total)
}

/// Simulated time of a subgraph executed as an unfused *library* call
/// sequence (bare CUDA launches, no eager-mode dispatch) — the cuBLAS
/// baseline of Fig. 11.
pub fn library_unfused_us(arch: Arch, graph: &Graph) -> Result<f64> {
    use spacefusion::compiler::FusionPolicy;
    let program = Compiler::with_policy(arch, FusionPolicy::Unfused).compile(graph)?;
    Ok(profiled_us(&program))
}

/// Writes one speedup row: `label: v1 v2 v3 ...`.
pub fn print_row(out: &mut String, label: &str, values: &[f64]) {
    let _ = write!(out, "{label:<28}");
    for v in values {
        let _ = write!(out, " {v:>8.2}");
    }
    out.push('\n');
}

/// Writes a header row.
pub fn print_header<C: Display>(out: &mut String, label: &str, cols: impl IntoIterator<Item = C>) {
    let _ = write!(out, "{label:<28}");
    for c in cols {
        let _ = write!(out, " {c:>8}");
    }
    out.push('\n');
}

/// Geometric mean (used for "average speedup" summaries).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Simple `--flag value` argument lookup.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_models::subgraphs;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--socket", "/tmp/s.sock", "--shutdown"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--socket").as_deref(), Some("/tmp/s.sock"));
        assert_eq!(arg_value(&args, "--shutdown"), None);
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn subgraph_measurement_produces_positive_time() {
        // LayerNorm has no framework-level composite, so the PyTorch
        // baseline really is 9 kernels and must be slower.
        let g = subgraphs::layernorm(512, 1024);
        let t = engine_subgraph_us(Engine::SpaceFusion, Arch::Ampere, &g).unwrap();
        assert!(t > 0.0);
        let t_py = engine_subgraph_us(Engine::PyTorch, Arch::Ampere, &g).unwrap();
        assert!(t_py > t, "unfused must be slower: {t_py} vs {t}");
    }

    #[test]
    fn model_measurement_runs_small_bert() {
        let mut cfg = sf_models::bert();
        cfg.layers = 1;
        let t = model_us(&cfg, 1, 64, |g| {
            Engine::SpaceFusion.compile(Arch::Ampere, g)
        })
        .unwrap();
        assert!(t.is_finite() && t > 0.0);
    }
}
