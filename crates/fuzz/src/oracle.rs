//! The differential oracle.
//!
//! One graph, one verdict: the oracle executes the graph on the
//! reference interpreter (`Graph::execute`), then compiles it under
//! every [`FusionPolicy`] and executes each compiled program at several
//! worker-thread counts, comparing all outputs against the reference
//! with the shared ULP/abs-tol comparator from `sf_tensor::compare`.
//! Every compiled candidate is additionally run through the static
//! verifier (`spacefusion::verify`); error-level findings on a random
//! graph count as failures just like numeric divergence.
//!
//! Tolerances are derived from the graph itself
//! ([`derive_tolerance`]): fused schedules re-associate reductions
//! (spatial/temporal slicing, UTA online rescaling), so the accepted
//! drift grows with the largest reduction extent and the number of
//! reductions. Real fusion bugs produce values that are wrong by
//! orders of magnitude, far outside any re-association envelope.

use spacefusion::pipeline::{CompileOptions, CompileSession, FusionPolicy};
use spacefusion::verify::{counts, verify_program, VerifyConfig};
use spacefusion::SfError;

use sf_gpu_sim::Arch;
use sf_ir::{Graph, OpKind};
use sf_tensor::{compare_tensors, Tolerance};

/// All fusion policies, in reporting order.
pub const POLICIES: [FusionPolicy; 5] = [
    FusionPolicy::SpaceFusion,
    FusionPolicy::Unfused,
    FusionPolicy::EpilogueOnly,
    FusionPolicy::MiOnly,
    FusionPolicy::TileGraph,
];

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Target architecture.
    pub arch: Arch,
    /// Seed for `Graph::random_bindings`.
    pub binding_seed: u64,
    /// Worker-thread counts to execute at (`0` = auto/max).
    pub threads: Vec<usize>,
    /// Comparator tolerance; `None` derives one per graph.
    pub tolerance: Option<Tolerance>,
    /// Run the static verifier on every compiled program.
    pub lint: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            arch: Arch::Ampere,
            binding_seed: 0,
            threads: vec![1, 2, 0],
            tolerance: None,
            lint: true,
        }
    }
}

/// What went wrong for one `(policy, thread-count)` candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The reference interpreter itself failed (generator bug).
    Reference,
    /// Compilation returned an error.
    Compile,
    /// The static verifier reported error-level diagnostics.
    Lint,
    /// Compiled execution returned an error.
    Execute,
    /// Compiled output diverged from the reference.
    Divergence,
    /// A fault-injection run aborted or produced a degraded result
    /// that does not match the unfused reference bitwise.
    Fault,
}

impl FailureKind {
    /// Stable lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Reference => "reference",
            FailureKind::Compile => "compile",
            FailureKind::Lint => "lint",
            FailureKind::Execute => "execute",
            FailureKind::Divergence => "divergence",
            FailureKind::Fault => "fault",
        }
    }
}

/// One oracle failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Classification.
    pub kind: FailureKind,
    /// Policy under which the failure occurred (`None` for reference
    /// failures, which precede compilation).
    pub policy: Option<FusionPolicy>,
    /// Worker-thread count (`None` when not execution-related).
    pub threads: Option<usize>,
    /// Human-readable detail (deterministic for a given graph).
    pub detail: String,
}

impl Failure {
    /// A failure tied to no policy or thread count.
    pub fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        Failure {
            kind,
            policy: None,
            threads: None,
            detail: detail.into(),
        }
    }

    /// Stable one-line rendering.
    pub fn render(&self) -> String {
        let mut s = self.kind.label().to_string();
        if let Some(p) = self.policy {
            s.push_str(&format!(" policy={p:?}"));
        }
        if let Some(t) = self.threads {
            if t == 0 {
                s.push_str(" threads=max");
            } else {
                s.push_str(&format!(" threads={t}"));
            }
        }
        s.push_str(": ");
        s.push_str(&self.detail);
        s
    }
}

/// Outcome of one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// All failures, in deterministic (policy, thread) order.
    pub failures: Vec<Failure>,
    /// Successful compilations.
    pub compiles: usize,
    /// Successful executions (per policy × thread count).
    pub executions: usize,
}

impl OracleReport {
    /// Whether the graph passed under every policy and thread count.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Derives a comparison tolerance from the reductions in a graph.
///
/// Fusion re-associates each reduction (spatial blocks accumulate in a
/// different order; UTA rescales running softmax sums), so the budget
/// scales with the largest reduced extent and, linearly, with how many
/// reduction-carrying ops feed an output. Element-wise-only graphs get
/// an exact (bitwise-value) comparison.
pub fn derive_tolerance(graph: &Graph) -> Tolerance {
    let mut max_extent = 0usize;
    let mut reductions = 0usize;
    for op in graph.ops() {
        let extent = match &op.kind {
            OpKind::Reduce { dim, .. } => graph.shape(op.inputs[0]).dims()[*dim],
            OpKind::Gemm { .. } => graph.shape(op.inputs[0]).dims()[1],
            _ => continue,
        };
        reductions += 1;
        max_extent = max_extent.max(extent);
    }
    if reductions == 0 {
        // Element-wise programs are evaluated in value order on both
        // sides; still allow a couple of ULPs for fused-multiply
        // contraction differences in composite unaries.
        return Tolerance::new(0.0, 4);
    }
    let base = Tolerance::for_reduction_extent(max_extent);
    let factor = reductions.min(16) as u32;
    Tolerance::new(
        base.abs * factor as f32,
        base.ulps.saturating_mul(factor).min(1 << 20),
    )
}

/// Runs the differential oracle on one graph.
pub fn run_oracle(graph: &Graph, opts: &OracleOptions) -> OracleReport {
    use spacefusion::codegen::{ExecEngine, ExecOptions};

    // One persistent engine for every policy and thread count in this
    // oracle run: warm pool threads and scratch arenas are reused
    // across candidates, and the comparisons double as a check that a
    // reused engine stays bit-identical to a fresh one.
    let engine = ExecEngine::shared();
    let mut report = OracleReport::default();
    let bindings = graph.random_bindings(opts.binding_seed);
    let reference = match graph.execute(&bindings) {
        Ok(r) => r,
        Err(e) => {
            report
                .failures
                .push(Failure::new(FailureKind::Reference, e.to_string()));
            return report;
        }
    };
    let tol = opts.tolerance.unwrap_or_else(|| derive_tolerance(graph));

    for policy in POLICIES {
        let copts = CompileOptions {
            // The oracle runs the verifier itself so findings are
            // classified (and configurable) rather than folded into a
            // compile error.
            verify: false,
            ..CompileOptions::for_policy(policy)
        };
        let session = CompileSession::new(opts.arch, copts).with_engine(engine.clone());
        let program = match session.compile(graph) {
            Ok(p) => p,
            Err(e) => {
                report.failures.push(Failure {
                    kind: FailureKind::Compile,
                    policy: Some(policy),
                    threads: None,
                    detail: render_sf_error(&e),
                });
                continue;
            }
        };
        report.compiles += 1;

        if opts.lint {
            let diags = verify_program(&program.kernels, &program.arch, &VerifyConfig::default());
            let (errors, _) = counts(&diags);
            if errors > 0 {
                let detail = diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                report.failures.push(Failure {
                    kind: FailureKind::Lint,
                    policy: Some(policy),
                    threads: None,
                    detail,
                });
            }
        }

        for &threads in &opts.threads {
            let out = match program.execute_with(&bindings, &ExecOptions::with_threads(threads)) {
                Ok(o) => o,
                Err(e) => {
                    report.failures.push(Failure {
                        kind: FailureKind::Execute,
                        policy: Some(policy),
                        threads: Some(threads),
                        detail: render_sf_error(&e),
                    });
                    continue;
                }
            };
            report.executions += 1;
            if out.len() != reference.len() {
                report.failures.push(Failure {
                    kind: FailureKind::Divergence,
                    policy: Some(policy),
                    threads: Some(threads),
                    detail: format!(
                        "output count {} != reference {}",
                        out.len(),
                        reference.len()
                    ),
                });
                continue;
            }
            for (i, (got, want)) in out.iter().zip(reference.iter()).enumerate() {
                if let Err(m) = compare_tensors(got, want, tol) {
                    report.failures.push(Failure {
                        kind: FailureKind::Divergence,
                        policy: Some(policy),
                        threads: Some(threads),
                        detail: format!("output {i}: {m}"),
                    });
                }
            }
        }
    }
    report
}

fn render_sf_error(e: &SfError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn softmax(m: usize, n: usize) -> Graph {
        let mut g = Graph::new("softmax", DType::F32);
        let x = g.input("x", Shape::new(vec![m, n]));
        let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, x, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        g.mark_output(d);
        g
    }

    #[test]
    fn softmax_passes_everywhere() {
        let report = run_oracle(&softmax(8, 32), &OracleOptions::default());
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.compiles, POLICIES.len());
        assert_eq!(report.executions, POLICIES.len() * 3);
    }

    #[test]
    fn elementwise_graphs_compare_exactly() {
        let mut g = Graph::new("ew", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 4]));
        let y = g.unary(UnaryOp::Relu, x).unwrap();
        g.mark_output(y);
        let tol = derive_tolerance(&g);
        assert_eq!(tol.abs, 0.0);
        assert!(tol.ulps <= 4);
        assert!(run_oracle(&g, &OracleOptions::default()).ok());
    }

    #[test]
    fn tolerance_scales_with_reduction_extent() {
        let small = derive_tolerance(&softmax(4, 8));
        let large = derive_tolerance(&softmax(4, 64));
        assert!(large.abs > small.abs);
        assert!(large.ulps >= small.ulps);
    }

    #[test]
    fn failure_render_is_stable() {
        let f = Failure {
            kind: FailureKind::Divergence,
            policy: Some(FusionPolicy::SpaceFusion),
            threads: Some(0),
            detail: "output 0: x".into(),
        };
        assert_eq!(
            f.render(),
            "divergence policy=SpaceFusion threads=max: output 0: x"
        );
    }
}
