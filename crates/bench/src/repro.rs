//! The paper's evaluation (§6) as one table: [`ARTEFACTS`] holds one row
//! per figure or table, each with the function that renders it and the
//! clock its numbers come from.
//!
//! Every renderer takes `quick`, which shrinks its sweep for smoke runs
//! and for the golden test (`tests/repro_golden.rs`); `table4` has no
//! smaller grid and ignores it.

use crate::{
    engine_subgraph_us, geomean, library_unfused_us, model_us, print_header, print_row,
    profiled_us, REPLAY_INSTANCES,
};
use sf_baselines::{
    apex_layernorm, flash_attention_triton, flash_attention_v1, flash_attention_v2,
    pytorch_op_layernorm, triton_layernorm, Engine,
};
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::{all_models, bert, subgraphs, t5, vit, vit_seq_for_image, TransformerConfig};
use spacefusion::codegen::{estimate_cost, KernelProgram};
use spacefusion::compiler::{CompileOptions, CompiledProgram, Compiler, FusionPolicy};
use spacefusion::pipeline::CompileSession;
use spacefusion::rewrite::streaming_variance;
use spacefusion::sched::{resource_aware_slicing, SlicingOptions};
use spacefusion::smg::build_smg;
use spacefusion::tune::tune;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

/// The clock an artefact's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The GPU simulator or the compiler's own decisions: deterministic,
    /// so the output is the same on every host and every run.
    Sim,
    /// Host wall-clock: differs from run to run.
    Host,
}

/// One figure or table of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Artefact {
    /// Command-line id (`repro --only <id>`), also the golden file stem.
    pub id: &'static str,
    /// Where the numbers come from.
    pub clock: Clock,
    /// Appends the rendered artefact; `bool` is `quick`.
    pub render: fn(&mut String, bool),
}

/// Every artefact, in the order `repro` prints them.
pub const ARTEFACTS: [Artefact; 13] = [
    row("fig11a", Clock::Sim, fig11a),
    row("fig11b", Clock::Sim, fig11b),
    row("fig12", Clock::Sim, fig12),
    row("fig13", Clock::Sim, fig13),
    row("fig14", Clock::Sim, fig14),
    row("fig15", Clock::Sim, fig15),
    row("fig16a", Clock::Sim, fig16a),
    row("fig16b", Clock::Sim, fig16b),
    row("fig16c", Clock::Sim, fig16c),
    row("table4", Clock::Host, table4),
    row("table5", Clock::Host, table5),
    row("table6", Clock::Sim, table6),
    row("ablation", Clock::Sim, ablation),
];

const fn row(id: &'static str, clock: Clock, render: fn(&mut String, bool)) -> Artefact {
    Artefact { id, clock, render }
}

/// Renders one artefact to a fresh string.
pub fn render(artefact: &Artefact, quick: bool) -> String {
    let mut out = String::new();
    (artefact.render)(&mut out, quick);
    out
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Figure 11(a): speedup of SpaceFusion over cuBLASLt (GEMM + epilogue
/// fusion) as the number of fused MLP layers grows from 2 to 20, per
/// architecture. Paper: max 3.15×, average 2.35×.
fn fig11a(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Figure 11(a): fused MLP layers (speedup vs cuBLASLt) =="
    );
    let layer_counts: Vec<usize> = if quick {
        vec![2, 8, 20]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    };
    let (m, hidden) = (2048, 256); // the paper's fusable regime: N, K <= 256.
    print_header(out, "layers", &layer_counts);
    let mut all = Vec::new();
    for arch in Arch::all() {
        let mut row = Vec::new();
        for &layers in &layer_counts {
            let g = subgraphs::mlp_stack(layers, m, hidden);
            let base =
                engine_subgraph_us(Engine::TensorRt, arch, &g).expect("cuBLASLt-like compile");
            let sf = engine_subgraph_us(Engine::SpaceFusion, arch, &g).expect("sf compile");
            row.push(base / sf);
        }
        all.extend(row.iter().copied());
        print_row(out, &format!("{arch}"), &row);
    }
    let _ = writeln!(
        out,
        "max speedup {:.2}x, geomean {:.2}x (paper: 3.15x max, 2.35x avg)\n",
        max(&all),
        geomean(&all)
    );
}

/// Figure 11(b): speedup of cuBLASLt and SpaceFusion over cuBLAS (fully
/// unfused, 5 kernels) for an LSTM cell at hidden sizes 128–1k. Paper:
/// max 2.87×, average 2.29× for SpaceFusion.
fn fig11b(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Figure 11(b): fused LSTM cell (speedup vs cuBLAS) =="
    );
    let hiddens: Vec<usize> = if quick {
        vec![128, 1024]
    } else {
        vec![128, 256, 512, 1024]
    };
    let batch = 256;
    print_header(out, "hidden", &hiddens);
    let mut sf_all = Vec::new();
    for arch in Arch::all() {
        let mut lt_row = Vec::new();
        let mut sf_row = Vec::new();
        for &h in &hiddens {
            let g = subgraphs::lstm_cell(batch, h);
            let cublas = library_unfused_us(arch, &g).expect("cuBLAS");
            let cublaslt = engine_subgraph_us(Engine::TensorRt, arch, &g).expect("cuBLASLt");
            let sf = engine_subgraph_us(Engine::SpaceFusion, arch, &g).expect("sf");
            lt_row.push(cublas / cublaslt);
            sf_row.push(cublas / sf);
        }
        sf_all.extend(sf_row.iter().copied());
        print_row(out, &format!("{arch} cuBLASLt"), &lt_row);
        print_row(out, &format!("{arch} SpaceFusion"), &sf_row);
    }
    let _ = writeln!(
        out,
        "SpaceFusion max {:.2}x, geomean {:.2}x (paper: 2.87x max, 2.29x avg)",
        max(&sf_all),
        geomean(&sf_all)
    );
}

/// Figure 12: speedup over unfused PyTorch for PyTorch Op (fused CUDA),
/// NVIDIA Apex, the Triton LayerNorm and SpaceFusion, sweeping square
/// inputs `M = N = 1K…16K` (Volta) / `1K…32K` (Ampere, Hopper). Paper:
/// average 7.25× over PyTorch; up to 1.59×/2.46×/4.03× over PyTorch Op /
/// Apex / LN-Triton.
fn fig12(out: &mut String, quick: bool) {
    let _ = writeln!(out, "== Figure 12: fused LayerNorm (speedup vs PyTorch) ==");
    let mut sf_speedups = Vec::new();
    for arch in Arch::all() {
        let sizes: Vec<usize> = if quick {
            vec![1024, 4096]
        } else if arch == Arch::Volta {
            vec![1024, 2048, 4096, 8192, 16384]
        } else {
            vec![1024, 2048, 4096, 8192, 16384, 32768]
        };
        let _ = writeln!(out, "-- {arch} --");
        print_header(out, "M=N", sizes.iter().map(|s| format!("{}K", s / 1024)));
        let mut rows: Vec<(&str, Vec<f64>)> = vec![
            ("PyTorch Op", Vec::new()),
            ("NVIDIA Apex", Vec::new()),
            ("LN Triton", Vec::new()),
            ("SpaceFusion", Vec::new()),
        ];
        for &n in &sizes {
            let g = subgraphs::layernorm(n, n);
            let py = engine_subgraph_us(Engine::PyTorch, arch, &g).expect("pytorch");
            let op = profiled_us(&pytorch_op_layernorm(arch, &g).expect("op"));
            let apex = profiled_us(&apex_layernorm(arch, &g).expect("apex"));
            let triton = profiled_us(&triton_layernorm(arch, &g).expect("triton"));
            let sf = engine_subgraph_us(Engine::SpaceFusion, arch, &g).expect("sf");
            rows[0].1.push(py / op);
            rows[1].1.push(py / apex);
            rows[2].1.push(py / triton);
            rows[3].1.push(py / sf);
            sf_speedups.push(py / sf);
        }
        for (name, vals) in &rows {
            print_row(out, name, vals);
        }
    }
    let _ = writeln!(
        out,
        "\nSpaceFusion vs PyTorch: geomean {:.2}x, max {:.2}x (paper: avg 7.25x)",
        geomean(&sf_speedups),
        max(&sf_speedups)
    );
}

/// Figure 13: speedup over unfused PyTorch for FlashAttention-in-Triton,
/// FlashAttention (CUDA), FlashAttention 2 and SpaceFusion, at batch
/// sizes 1 and 32 and sequence lengths 64–1k (Volta) / 64–8k (Ampere,
/// Hopper). FlashAttention's CUDA kernels are absent on Volta, as in the
/// paper. Paper: max 10.35×, average 5.40× over the baseline; comparable
/// to FlashAttention 2.
fn fig13(out: &mut String, quick: bool) {
    let _ = writeln!(out, "== Figure 13: fused MHA (speedup vs PyTorch) ==");
    let (heads, head_dim) = (16, 64);
    let mut sf_speedups = Vec::new();
    for batch in [1usize, 32] {
        let _ = writeln!(out, "\n-- batch size = {batch} --");
        for arch in Arch::all() {
            let seqs: Vec<usize> = if quick {
                vec![128, 1024]
            } else if arch == Arch::Volta {
                vec![64, 128, 256, 512, 1024]
            } else {
                vec![64, 128, 256, 512, 1024, 2048, 8192]
            };
            let _ = writeln!(out, "{arch}:");
            print_header(out, "seq", &seqs);
            let mut triton_row = Vec::new();
            let mut fa_row: Vec<f64> = Vec::new();
            let mut fa2_row: Vec<f64> = Vec::new();
            let mut sf_row = Vec::new();
            for &seq in &seqs {
                let g = subgraphs::mha(batch, heads, seq, head_dim);
                let py = engine_subgraph_us(Engine::PyTorch, arch, &g).expect("pytorch");
                let tr = profiled_us(&flash_attention_triton(arch, &g).expect("fa triton"));
                triton_row.push(py / tr);
                if let Some(fa) = flash_attention_v1(arch, &g) {
                    fa_row.push(py / profiled_us(&fa.expect("fa")));
                }
                if let Some(fa2) = flash_attention_v2(arch, &g) {
                    fa2_row.push(py / profiled_us(&fa2.expect("fa2")));
                }
                let sf = engine_subgraph_us(Engine::SpaceFusion, arch, &g).expect("sf");
                sf_row.push(py / sf);
                sf_speedups.push(py / sf);
            }
            print_row(out, "FlashAttn Triton", &triton_row);
            if fa_row.is_empty() {
                let _ = writeln!(out, "{:<28} (not supported on Volta)", "FlashAttention");
                let _ = writeln!(out, "{:<28} (not supported on Volta)", "FlashAttention 2");
            } else {
                print_row(out, "FlashAttention", &fa_row);
                print_row(out, "FlashAttention 2", &fa2_row);
            }
            print_row(out, "SpaceFusion", &sf_row);
        }
    }
    let _ = writeln!(
        out,
        "\nSpaceFusion vs PyTorch: geomean {:.2}x, max {:.2}x (paper: avg 5.40x, max 10.35x)",
        geomean(&sf_speedups),
        max(&sf_speedups)
    );
}

/// Figure 14: speedup over Huggingface-on-PyTorch for SpaceFusion,
/// TensorRT, Kernl, BladeDISC and NNFusion on Bert, Albert, T5, ViT and
/// Llama2-7B, at batch sizes 1 and 32, on all three architectures.
/// NNFusion appears on Volta only and BladeDISC not on Hopper, as in the
/// paper. Paper: SpaceFusion max 8.79×, average 3.54× over PyTorch; avg
/// 1.27× over TensorRT, 1.34× over Kernl, 2.27× over BladeDISC, 1.21×
/// over NNFusion (Volta).
fn fig14(out: &mut String, quick: bool) {
    let seq = if quick { 128 } else { 512 };
    let _ = writeln!(
        out,
        "== Figure 14: end-to-end performance (speedup vs PyTorch, seq={seq}) =="
    );
    let mut models = all_models();
    if quick {
        for m in &mut models {
            m.layers = 2;
        }
    }
    let batches: Vec<usize> = if quick { vec![1] } else { vec![1, 32] };
    let competitors = [
        Engine::TensorRt,
        Engine::Kernl,
        Engine::BladeDisc,
        Engine::NnFusion,
    ];

    let mut sf_speedups = Vec::new();
    // Per competitor: SpaceFusion's speedup over it, point by point.
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); competitors.len()];

    for &batch in &batches {
        let _ = writeln!(out, "\n-- batch size = {batch} --");
        for arch in Arch::all() {
            let _ = writeln!(out, "{arch}:");
            print_header(out, "model", models.iter().map(|m| m.name));
            let speedups = |e: Engine, base: &[f64]| -> Vec<f64> {
                models
                    .iter()
                    .zip(base)
                    .map(|(m, &py)| py / model_us(m, batch, seq, |g| e.compile(arch, g)).unwrap())
                    .collect()
            };
            let py_times: Vec<f64> = models
                .iter()
                .map(|m| model_us(m, batch, seq, |g| Engine::PyTorch.compile(arch, g)).unwrap())
                .collect();
            let sf_row = speedups(Engine::SpaceFusion, &py_times);
            sf_speedups.extend(sf_row.iter().copied());
            print_row(out, "SpaceFusion", &sf_row);
            for (e, ratios) in competitors.iter().zip(&mut ratios) {
                if !e.supports(arch) {
                    let _ = writeln!(out, "{:<28} (not supported on {arch})", e.name());
                    continue;
                }
                let row = speedups(*e, &py_times);
                ratios.extend(sf_row.iter().zip(&row).map(|(sf, other)| sf / other));
                print_row(out, e.name(), &row);
            }
        }
    }

    let _ = writeln!(
        out,
        "\nSpaceFusion vs PyTorch: geomean {:.2}x, max {:.2}x (paper: avg 3.54x, max 8.79x)",
        geomean(&sf_speedups),
        max(&sf_speedups)
    );
    for (e, ratios) in competitors.iter().zip(&ratios) {
        if !ratios.is_empty() {
            let _ = writeln!(
                out,
                "SpaceFusion vs {:<12} geomean {:.2}x, max {:.2}x",
                e.name(),
                geomean(ratios),
                max(ratios)
            );
        }
    }
}

/// Figure 15: L1 cache misses, L2 cache misses and device-memory data
/// movement of the fused and unfused baselines, normalized to SpaceFusion
/// (lower is better), for MLP(20,64), MLP(4,128), LN(4K), LN(32K),
/// MHA(32,1K) and MHA(32,2K). The fused baselines are cuBLASLt for MLP,
/// the PyTorch Op kernel for LN and FlashAttention for MHA, as in the
/// paper. Paper: up to 83.0% fewer L1 misses, 94.1% fewer L2 misses and
/// 96.45% less data movement; LN gains more speedup per byte saved than
/// MHA (memory- vs compute-intensity).
fn fig15(out: &mut String, quick: bool) {
    let arch = Arch::Ampere;
    let _ = writeln!(out, "== Figure 15: memory & cache analysis on {arch} (normalized to SpaceFusion, lower is better) ==");

    let ln_big = if quick { 8192 } else { 32768 };
    let mha_big = if quick { 1024 } else { 2048 };
    let cublaslt = |g: &Graph| Engine::TensorRt.compile(arch, g).expect("cublaslt");
    let ln_op = |g: &Graph| pytorch_op_layernorm(arch, g).expect("ln op");
    let fa = |g: &Graph| flash_attention_v1(arch, g).expect("supported").expect("fa");
    type FusedBaseline<'a> = &'a dyn Fn(&Graph) -> CompiledProgram;
    let cases: [(String, Graph, FusedBaseline); 6] = [
        (
            "MLP(20,64)".into(),
            subgraphs::mlp_stack(20, 64, 256),
            &cublaslt,
        ),
        (
            "MLP(4,128)".into(),
            subgraphs::mlp_stack(4, 128, 256),
            &cublaslt,
        ),
        ("LN(4K)".into(), subgraphs::layernorm(4096, 4096), &ln_op),
        (
            format!("LN({}K)", ln_big / 1024),
            subgraphs::layernorm(ln_big, ln_big),
            &ln_op,
        ),
        ("MHA(32,1K)".into(), subgraphs::mha(32, 16, 1024, 64), &fa),
        (
            format!("MHA(32,{}K)", mha_big / 1024),
            subgraphs::mha(32, 16, mha_big, 64),
            &fa,
        ),
    ];

    print_header(out, "metric / workload", cases.iter().map(|c| &c.0));

    let mut rows: [(&str, Vec<f64>); 6] = [
        ("L1 miss (fused base)", Vec::new()),
        ("L1 miss (unfused)", Vec::new()),
        ("L2 miss (fused base)", Vec::new()),
        ("L2 miss (unfused)", Vec::new()),
        ("data mv (fused base)", Vec::new()),
        ("data mv (unfused)", Vec::new()),
    ];
    let mut sf_speedup_vs_unfused: Vec<(&str, f64, f64)> = Vec::new();

    for (label, graph, fused_baseline) in &cases {
        let sf = Engine::SpaceFusion.compile(arch, graph).expect("sf");
        let fused = fused_baseline(graph);
        // MLP's unfused baseline is the manually-tuned cuBLAS sequence
        // (bare launches); LN/MHA baselines are eager PyTorch, as in the
        // paper.
        let unfused = if label.starts_with("MLP") {
            Compiler::with_policy(arch, FusionPolicy::Unfused)
                .compile(graph)
                .expect("cublas")
        } else {
            Engine::PyTorch.compile(arch, graph).expect("pytorch")
        };

        let r_sf = sf.profile(REPLAY_INSTANCES);
        let r_fused = fused.profile(REPLAY_INSTANCES);
        let r_un = unfused.profile(REPLAY_INSTANCES);

        let norm = |x: u64, base: u64| x as f64 / base.max(1) as f64;
        for (i, r) in [&r_fused, &r_un].into_iter().enumerate() {
            let s = &r.stats;
            rows[i].1.push(norm(s.l1_misses, r_sf.stats.l1_misses));
            rows[2 + i].1.push(norm(s.l2_misses, r_sf.stats.l2_misses));
            let dram = norm(s.dram_total_bytes(), r_sf.stats.dram_total_bytes());
            rows[4 + i].1.push(dram);
        }
        sf_speedup_vs_unfused.push((
            label.as_str(),
            r_un.time_us / r_sf.time_us,
            r_un.stats.dram_total_bytes() as f64 / r_sf.stats.dram_total_bytes().max(1) as f64,
        ));
    }
    for (name, vals) in &rows {
        print_row(out, name, vals);
    }

    let _ = writeln!(
        out,
        "\nspeedup vs data-movement reduction (unfused baseline):"
    );
    for (label, su, dm) in &sf_speedup_vs_unfused {
        let _ = writeln!(
            out,
            "  {label:<12} speedup {su:>6.2}x   data movement reduced {dm:>6.2}x"
        );
    }
    let _ = writeln!(
        out,
        "(paper: LN converts traffic savings into speedup more directly than MHA)"
    );
}

/// The Fig. 16 model set: every model, or under `quick` the first two at
/// one layer each.
fn fig16_models(quick: bool) -> Vec<TransformerConfig> {
    let mut ms = all_models();
    if quick {
        for m in &mut ms {
            m.layers = 1;
        }
        ms.truncate(2);
    }
    ms
}

fn fig16_batches(quick: bool, quick_batch: usize) -> Vec<usize> {
    if quick {
        vec![quick_batch]
    } else {
        vec![1, 32]
    }
}

/// The Fig. 16(a) variants as compiler option sets: Base(SS) (spatial
/// slicing only, expert-fixed blocks), Base+AS (spatial +
/// auto-scheduling), Base+TS (spatial + temporal, expert-fixed), and full
/// SpaceFusion.
fn ablation_variants() -> [(&'static str, CompileOptions); 4] {
    let base_ss = CompileOptions {
        autotune: false,
        slicing: SlicingOptions {
            enable_temporal: false,
            fixed_spatial_block: Some(64),
            ..Default::default()
        },
        ..Default::default()
    };
    let base_as = CompileOptions {
        autotune: true,
        slicing: SlicingOptions {
            enable_temporal: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let base_ts = CompileOptions {
        autotune: false,
        slicing: SlicingOptions {
            enable_temporal: true,
            fixed_spatial_block: Some(64),
            fixed_temporal_block: Some(64),
            ..Default::default()
        },
        ..Default::default()
    };
    [
        ("Base(SS)", base_ss),
        ("Base+AS", base_as),
        ("Base+TS", base_ts),
        ("SpaceFusion", CompileOptions::default()),
    ]
}

/// Figure 16(a): the ablation variants on Ampere, normalized to
/// SpaceFusion. Paper: Base(SS) ≥ 51%, Base+AS ≤ 79%, Base+TS 72–89%.
fn fig16a(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Figure 16(a): ablation (perf normalized to SpaceFusion, Ampere) =="
    );
    let arch = Arch::Ampere;
    let seq = if quick { 128 } else { 2048 };
    let ms = fig16_models(quick);
    for batch in fig16_batches(quick, 1) {
        let _ = writeln!(out, "-- batch size = {batch} --");
        print_header(out, "variant", ms.iter().map(|m| m.name));
        let options_us = |opts: &CompileOptions, m: &TransformerConfig| {
            // One session per sweep point: repeated subprogram shapes
            // across the model's layers hit the shared schedule cache
            // instead of re-tuning.
            let session = CompileSession::new(arch, opts.clone());
            model_us(m, batch, seq, |g| session.compile(g)).unwrap()
        };
        let full: Vec<f64> = ms
            .iter()
            .map(|m| options_us(&CompileOptions::default(), m))
            .collect();
        for (name, opts) in ablation_variants() {
            let row: Vec<f64> = ms
                .iter()
                .zip(&full)
                .map(|(m, &f)| f / options_us(&opts, m))
                .collect();
            print_row(out, name, &row);
        }
    }
}

/// Figure 16(b): input-size sensitivity (small/medium/large prompts;
/// image sizes for ViT), normalized to the best per model. Paper: at
/// batch 1 gains shrink with input size; at batch 32 they mostly grow.
fn fig16b(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Figure 16(b): input-size sensitivity (normalized to best, Ampere) =="
    );
    let arch = Arch::Ampere;
    let ms = fig16_models(quick);
    let prompts = [("Small", 128usize), ("Medium", 512), ("Large", 1024)];
    let images = [("Small", 224usize), ("Medium", 512), ("Large", 768)];
    for batch in fig16_batches(quick, 1) {
        let _ = writeln!(
            out,
            "-- batch size = {batch} (speedup vs PyTorch, normalized to per-model best) --"
        );
        print_header(out, "size", ms.iter().map(|m| m.name));
        // speedups[model][size]
        let mut speedups: Vec<Vec<f64>> = Vec::new();
        for m in &ms {
            let mut per_size = Vec::new();
            for i in 0..3 {
                let seq = if m.fixed_seq.is_some() {
                    vit_seq_for_image(images[i].1)
                } else {
                    prompts[i].1
                };
                let mut m2 = m.clone();
                m2.fixed_seq = None; // let the requested seq apply (ViT sizes).
                let time_us =
                    |e: Engine| model_us(&m2, batch, seq, |g| e.compile(arch, g)).unwrap();
                per_size.push(time_us(Engine::PyTorch) / time_us(Engine::SpaceFusion));
            }
            speedups.push(per_size);
        }
        for (i, (label, _)) in prompts.iter().enumerate() {
            let row: Vec<f64> = speedups
                .iter()
                .map(|per_size| per_size[i] / max(per_size))
                .collect();
            print_row(out, label, &row);
        }
    }
}

/// Figure 16(c): SpaceFusion performance and speedup over PyTorch across
/// Volta/Ampere/Hopper, normalized to Volta. Paper: perf ratio ≈
/// 1 : 2.26 : 4.34 at batch 32 (peak ratio 1 : 2.79 : 6.75).
fn fig16c(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Figure 16(c): architecture sensitivity (normalized to Volta) =="
    );
    let seq = if quick { 128 } else { 512 };
    let ms = fig16_models(quick);
    for batch in fig16_batches(quick, 32) {
        let _ = writeln!(out, "-- batch size = {batch} --");
        print_header(out, "metric", ms.iter().map(|m| m.name));
        let mut perf: Vec<Vec<f64>> = Vec::new(); // [arch][model] perf = 1/time.
        let mut su: Vec<Vec<f64>> = Vec::new();
        for arch in Arch::all() {
            let mut p_row = Vec::new();
            let mut s_row = Vec::new();
            for m in &ms {
                let time_us = |e: Engine| model_us(m, batch, seq, |g| e.compile(arch, g)).unwrap();
                let sf = time_us(Engine::SpaceFusion);
                let py = time_us(Engine::PyTorch);
                p_row.push(1.0 / sf);
                s_row.push(py / sf);
            }
            perf.push(p_row);
            su.push(s_row);
        }
        let to_volta = |rows: &[Vec<f64>], ai: usize| -> Vec<f64> {
            rows[ai].iter().zip(&rows[0]).map(|(x, v)| x / v).collect()
        };
        for (ai, arch) in Arch::all().iter().enumerate() {
            print_row(out, &format!("Perf {arch}"), &to_volta(&perf, ai));
        }
        for (ai, arch) in Arch::all().iter().enumerate() {
            print_row(out, &format!("Su {arch}"), &to_volta(&su, ai));
        }
        let avg: Vec<f64> = (0..3).map(|ai| geomean(&to_volta(&perf, ai))).collect();
        let _ = writeln!(
            out,
            "average perf ratio Volta:Ampere:Hopper = 1 : {:.2} : {:.2} (paper: 1 : 2.26 : 4.34; peak 1 : 2.79 : 6.75)",
            avg[1], avg[2]
        );
    }
}

/// Table 4: elapsed time of the auto-scheduling phases
/// (`TS.getPriorDim + TS.slice`, `enumCfg`, `SS.getDims + SS.slice`) and
/// the auto-tuning phase for MHA at (batch 32, seq 256) and (batch 32,
/// seq 1024). In the paper the tuning phase dominates (test runs on the
/// GPU, ~33 s); here candidates are evaluated on the performance model,
/// so the totals are far smaller but the *structure* — analysis is
/// milliseconds, tuning dominates — is preserved.
fn table4(out: &mut String, _quick: bool) {
    let _ = writeln!(
        out,
        "== Table 4: compilation time break down for MHA (Ampere) =="
    );
    let _ = writeln!(
        out,
        "{:<16} {:>18} {:>12} {:>18} {:>12} {:>12}",
        "Workload", "TS.getPriorDim", "enumCfg", "SS.getDims", "Tuning", "Total"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>18} {:>12} {:>18} {:>12} {:>12}",
        "", "+TS.slice", "", "+SS.slice", "", ""
    );
    for (batch, seq) in [(32usize, 1024usize), (32, 256)] {
        let g = subgraphs::mha(batch, 16, seq, 64);
        let compiler = Compiler::new(Arch::Ampere, CompileOptions::default());
        let program = compiler.compile(&g).expect("compile");
        let s = &program.stats;
        let _ = writeln!(
            out,
            "{:<16} {:>15.2} µs {:>9.2} µs {:>15.2} µs {:>9.2} µs {:>9.2} µs",
            format!("MHA({batch},{seq})"),
            s.temporal_us,
            s.enum_us,
            s.spatial_us,
            s.tune_us,
            s.total_us
        );
        let _ = writeln!(
            out,
            "{:<16} configs={}, evaluated={}, early-quit pruned={}",
            "", s.configs, s.evaluated, s.pruned
        );
    }
    let _ = writeln!(
        out,
        "\n(paper @ GPU: MHA(32,1024): 17.31 ms / 2.63 ms / 0.23 ms / 33.04 s / 36.33 s)"
    );
}

/// Table 5: wall-clock time to compile Bert, ViT and T5 under the
/// BladeDISC-like, TensorRT-like and SpaceFusion pipelines. The paper's
/// ordering — SpaceFusion compiles ~2.4× faster than both, thanks to
/// lightweight analysis, pruned search spaces and one-shot compilation of
/// repetitive subprograms — is the reproduced property.
fn table5(out: &mut String, quick: bool) {
    let seq = if quick { 128 } else { 512 };
    let _ = writeln!(
        out,
        "== Table 5: compilation time for models (Ampere, seq={seq}) =="
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14}",
        "Model", "BladeDISC", "TensorRT", "SpaceFusion"
    );
    let mut models = vec![bert(), vit(), t5()];
    if quick {
        for m in &mut models {
            m.layers = 2;
        }
    }
    let compile_s = |engine: Engine, model: &TransformerConfig| {
        let t0 = Instant::now();
        for w in model.subprograms(1, seq) {
            let _ = engine.compile(Arch::Ampere, &w.graph).expect("compile");
        }
        t0.elapsed().as_secs_f64()
    };
    for m in &models {
        let blade = compile_s(Engine::BladeDisc, m);
        let trt = compile_s(Engine::TensorRt, m);
        let sf = compile_s(Engine::SpaceFusion, m);
        let _ = writeln!(
            out,
            "{:<10} {:>12.3} s {:>12.3} s {:>12.3} s",
            m.name, blade, trt, sf
        );
    }
    let _ = writeln!(
        out,
        "\n(paper @ GPU: Bert 176.2/141.1/68.4 s — SpaceFusion ~2.4x faster on average)"
    );
}

/// The Table 6 evaluation suite.
fn table6_suite(quick: bool) -> Vec<Graph> {
    let mut suite: Vec<Graph> = Vec::new();
    // The five end-to-end models (their distinct subprograms), at a
    // short and a long prompt — the long prompts are where tile-graph
    // fusion starts failing on the mixed CI+MI regions.
    let mut models = all_models();
    if quick {
        models.truncate(2);
    }
    for m in &models {
        for seq in [256usize, 4096] {
            for w in m.subprograms(1, seq) {
                suite.push(w.graph);
            }
        }
    }
    // The standalone subgraph structures of Fig. 10 and the extension
    // workloads (masked attention, decode-phase attention).
    suite.push(subgraphs::mlp_stack(20, 64, 256));
    suite.push(subgraphs::mlp_stack(4, 128, 256));
    suite.push(subgraphs::lstm_cell(256, 512));
    suite.push(subgraphs::layernorm(2048, 2048));
    suite.push(subgraphs::softmax(1024, 1024));
    suite.push(subgraphs::mha(1, 16, 8192, 64));
    suite.push(subgraphs::masked_mha(1, 16, 4096, 64));
    suite.push(subgraphs::mha_decode(4, 16, 65536, 64));
    suite
}

/// Table 6: compiles the evaluation suite under SpaceFusion, the
/// NNFusion-like tile-graph policy and the BladeDISC-like MI-only policy,
/// and counts the distinct fused subgraphs containing at least two
/// All-to-One mappings — split into compute-intensive-only (gemm),
/// memory-intensive-only (reduce) and mixed CI+MI patterns, as in the
/// paper's census. Paper: SpaceFusion 50 (5 CI / 15 MI / 30 CI+MI) vs
/// NNFusion 30 (3/14/13) vs BladeDISC 14 (0/14/0). The reproduced
/// properties are the ordering and the structural gaps: the MI-only
/// system finds no CI or mixed patterns; the tile-graph system misses
/// most mixed patterns.
fn table6(out: &mut String, quick: bool) {
    let suite = table6_suite(quick);
    let _ = writeln!(
        out,
        "== Table 6: fusion patterns discovered across {} compiled instances (Ampere) ==",
        suite.len()
    );
    let _ = writeln!(
        out,
        "{:<32} {:>12} {:>10} {:>10} {:>12}",
        "System", "# Patterns", "# CI only", "# MI only", "# CI and MI"
    );
    for (engine, label) in [
        (Engine::SpaceFusion, "SpaceFusion"),
        (Engine::NnFusion, "NNFusion (tile-graph)"),
        (Engine::BladeDisc, "BladeDISC (MI-only)"),
    ] {
        let mut patterns: HashSet<String> = HashSet::new();
        for g in &suite {
            let p = engine.compile(Arch::Ampere, g).expect("compile");
            patterns.extend(p.stats.fusion_patterns.iter().cloned());
        }
        let (mut ci, mut mi, mut both) = (0, 0, 0);
        for sig in &patterns {
            match (sig.contains("gemm"), sig.contains("reduce_")) {
                (true, false) => ci += 1,
                (false, true) => mi += 1,
                (true, true) => both += 1,
                (false, false) => {}
            }
        }
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>10} {:>10} {:>12}",
            label,
            patterns.len(),
            ci,
            mi,
            both
        );
    }
    let _ = writeln!(out, "\n(paper: SpaceFusion 50 = 5 CI + 15 MI + 30 CI&MI; NNFusion 30 = 3+14+13; BladeDISC 14 = 0+14+0)");
}

/// Ablations of the design choices called out in `DESIGN.md`, beyond the
/// paper's own Fig. 16(a):
///
/// 1. **Streaming-variance rewrite** (extension): Fig. 10(c) LayerNorm vs
///    the `E[x²]−E[x]²` form that unlocks temporal slicing.
/// 2. **Staging limit**: how the shared-memory staging threshold in the
///    memory-hierarchy scheduler affects fused MHA.
/// 3. **Early-quit α**: tuner work saved vs schedule quality.
/// 4. **Two-phase cost**: what output-spanning temporal slicing pays in
///    re-streamed reads (softmax standalone vs fused into attention).
fn ablation(out: &mut String, quick: bool) {
    rewrite_ablation(out, quick);
    staging_ablation(out, quick);
    alpha_ablation(out, quick);
    two_phase_ablation(out, quick);
}

fn rewrite_ablation(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Ablation 1: streaming-variance rewrite on LayerNorm (Ampere) =="
    );
    let sizes: Vec<usize> = if quick {
        vec![4096]
    } else {
        vec![4096, 16384, 32768, 65536]
    };
    print_header(
        out,
        "N (rows=1024)",
        sizes.iter().map(|s| format!("{}K", s / 1024)),
    );
    let arch = Arch::Ampere;
    let mut base_row = Vec::new();
    let mut rw_row = Vec::new();
    let mut kernels_row = Vec::new();
    for &n in &sizes {
        let g = subgraphs::layernorm(1024, n);
        let base = Compiler::with_policy(arch, FusionPolicy::SpaceFusion)
            .compile(&g)
            .expect("base compile");
        let r = streaming_variance(&g).expect("pattern");
        let rw = Compiler::with_policy(arch, FusionPolicy::SpaceFusion)
            .compile(&r)
            .expect("rewritten compile");
        base_row.push(profiled_us(&base));
        rw_row.push(profiled_us(&rw));
        kernels_row.push(base.kernels.len() as f64);
    }
    print_row(out, "baseline (Fig.10c) µs", &base_row);
    print_row(out, "streaming rewrite µs", &rw_row);
    print_row(out, "baseline kernel count", &kernels_row);
    let gain: Vec<f64> = base_row.iter().zip(&rw_row).map(|(b, r)| b / r).collect();
    print_row(out, "rewrite speedup", &gain);
    out.push('\n');
}

/// The MHA candidate set the staging and α ablations tune over.
fn mha_candidates(g: &Graph, arch: &sf_gpu_sim::GpuArch) -> Vec<KernelProgram> {
    let smg = build_smg(g).unwrap();
    resource_aware_slicing(g, &smg, arch, &SlicingOptions::default())
        .expect("slicing")
        .into_iter()
        .map(|s| KernelProgram::new("mha", g.clone(), s))
        .collect()
}

fn staging_ablation(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Ablation 2: shared-memory staging limit (MHA 32x1K, Ampere) =="
    );
    let g = subgraphs::mha(if quick { 4 } else { 32 }, 16, 1024, 64);
    let arch = Arch::Ampere.config();
    print_header(
        out,
        "staging limit",
        ["smem/16", "smem/8", "smem/4", "smem/2"],
    );
    // The staging limit is applied inside resource-aware slicing via the
    // architecture; emulate the sweep by scaling the budget the slicer
    // sees (the divisor is fixed at 4 internally).
    let mut row = Vec::new();
    for div in [16u64, 8, 4, 2] {
        let mut a = arch.clone();
        // Keep the real budget for feasibility but shift the staging
        // threshold by scaling smem_per_block seen by assign_memory.
        a.smem_per_block = arch.smem_per_block * 4 / div;
        let Some(r) = tune(&mha_candidates(&g, &a), &arch, g.instances as u64, 0.25) else {
            eprintln!(
                "staging ablation: no feasible schedule at staging budget smem/{div} — \
                 skipping the sweep"
            );
            return;
        };
        row.push(r.best_us);
    }
    print_row(out, "best est. µs", &row);
    out.push('\n');
}

fn alpha_ablation(out: &mut String, quick: bool) {
    let _ = writeln!(out, "== Ablation 3: early-quit α (MHA 32x1K, Ampere) ==");
    let g = subgraphs::mha(if quick { 4 } else { 32 }, 16, 1024, 64);
    let arch = Arch::Ampere.config();
    let kps = mha_candidates(&g, &arch);
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>12}",
        "alpha", "evaluated", "pruned", "best est. µs"
    );
    for alpha in [1.0f64, 0.5, 0.25, 0.1] {
        let Some(r) = tune(&kps, &arch, g.instances as u64, alpha) else {
            eprintln!("alpha ablation: the slicer produced no tunable candidates — skipping");
            return;
        };
        let _ = writeln!(
            out,
            "{alpha:<8} {:>10} {:>10} {:>12.1}",
            r.evaluated, r.pruned, r.best_us
        );
    }
    let _ = writeln!(
        out,
        "(the winner never changes; α only trades tuner work)\n"
    );
}

fn two_phase_ablation(out: &mut String, quick: bool) {
    let _ = writeln!(
        out,
        "== Ablation 4: two-phase cost of output-spanning slicing (Ampere) =="
    );
    let n = if quick { 2048 } else { 8192 };
    let arch = Arch::Ampere;
    // The same softmax scheduled two ways at fixed 4-row blocks: flat
    // (whole row on chip, one pass over the input) vs temporally sliced
    // (tiny footprint, but output spans the sliced dim → phase 2 must
    // re-stream the tiles).
    let sm = subgraphs::softmax(1024, n);
    let flat = sf_baselines::compile_fixed(arch, &sm, 4, None).expect("flat");
    let sliced = sf_baselines::compile_fixed(arch, &sm, 4, Some(512)).expect("sliced");
    let input_bytes: u64 = sm
        .values()
        .iter()
        .filter(|v| matches!(v.kind, sf_ir::ValueKind::Input))
        .map(|v| (v.shape.volume() * v.dtype.size_bytes()) as u64)
        .sum();
    for (label, p) in [
        ("flat (row on chip)", &flat),
        ("temporal two-phase", &sliced),
    ] {
        let k = &p.kernels[0];
        let cost = estimate_cost(k, p.instances as u64);
        let _ = writeln!(
            out,
            "  {label:<22} two-phase={:<5} smem {:>4} KiB  reads {:.1}x the input",
            k.schedule
                .temporal
                .as_ref()
                .is_some_and(|t| t.plan.two_phase),
            k.schedule.smem_per_block(&k.graph) >> 10,
            cost.global_read_bytes as f64 / input_bytes.max(1) as f64,
        );
    }
    let _ = writeln!(
        out,
        "  (two-phase trades a 2x read amplification for an O(tile) footprint)"
    );
}
