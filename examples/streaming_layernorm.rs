//! The streaming-variance extension in action.
//!
//! The paper's Fig. 10(c) LayerNorm computes `mean((x − mean(x))²)`,
//! whose dependency chain defeats broadcast postposition — so the
//! temporal slicer cannot stream it and very wide rows stop fitting on
//! chip. The `Var[x] = E[x²] − E[x]²` rewrite makes the two reductions
//! independent, unlocking a streaming two-phase schedule.
//!
//! Run with: `cargo run --release --example streaming_layernorm`

use sf_gpu_sim::Arch;
use sf_models::subgraphs;
use spacefusion::codegen::emit_pseudocode;
use spacefusion::rewrite::streaming_variance;
use spacefusion::{CompileSession, FusionPolicy};

fn main() {
    let arch = Arch::Ampere;
    println!(
        "{:<10} {:>18} {:>10} {:>18} {:>10}",
        "rows x N", "baseline", "kernels", "rewritten", "kernels"
    );
    for n in [4096usize, 16384, 65536] {
        let g = subgraphs::layernorm(1024, n);
        let base = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion)
            .compile(&g)
            .expect("baseline compile");
        let rewritten_graph = streaming_variance(&g).expect("pattern");
        let rewritten = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion)
            .compile(&rewritten_graph)
            .expect("rewritten compile");

        // Both forms stay numerically faithful.
        if n == 4096 {
            let b = g.random_bindings(1);
            let expect = g.execute(&b).unwrap();
            let got = rewritten.execute(&b).unwrap();
            assert!(got[0].allclose(&expect[0], 1e-2));
        }

        let tb = base.profile(1).time_us;
        let tr = rewritten.profile(1).time_us;
        println!(
            "{:<10} {:>15.1} µs {:>10} {:>15.1} µs {:>10}",
            format!("1024x{n}"),
            tb,
            base.kernels.len(),
            tr,
            rewritten.kernels.len()
        );
    }

    // Show what the streaming kernel looks like.
    let g = subgraphs::layernorm(1024, 65536);
    let r = streaming_variance(&g).unwrap();
    let p = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion)
        .compile(&r)
        .unwrap();
    println!("\nstreaming LayerNorm kernel (N = 64K):\n");
    println!("{}", emit_pseudocode(&p.kernels[0]));
}
