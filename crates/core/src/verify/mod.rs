//! Static verification of compiled kernels.
//!
//! The verifier re-derives, independently of the scheduler, the
//! invariants the paper's machinery is supposed to guarantee, and
//! reports violations as structured [`Diagnostic`]s. Five check
//! families:
//!
//! * **SMG structural invariants** ([`structural`], `SMG001`–`SMG004`) —
//!   mapping classification consistency (§4.1: One-to-One covers both
//!   endpoints, One-to-All/All-to-One point along a real missing/reduced
//!   dimension), direction-dimension validity, dimension-alignment
//!   coherence between tensor axes and global dimensions, and
//!   acyclicity of the mapping edges.
//! * **Slicing legality** ([`slicing`], `SLC101`–`SLC104`) — spatially
//!   sliced dimensions carry no flow dependencies (Table 3), every
//!   temporally sliced operator really is a reduction along the sliced
//!   dimension, and the declared Simple-Aggregate/UTA update functions
//!   match an independent re-run of the broadcast-postposition
//!   back-trace (§4.3, Fig. 8).
//! * **Resource and placement validation** ([`resources`],
//!   `RES201`–`RES203`, `MEM301`) — per-block shared-memory/register
//!   footprints against the architecture budgets, occupancy ≥ 1 block
//!   per SM, and the §5.4 rule that cross-thread values (One-to-All
//!   sources, All-to-One sinks) never live in thread-private registers.
//! * **Barrier/race and bounds analysis** ([`barriers`], `MEM302`,
//!   `BAR401`, `BND402`) — a dirty-set scan over the lowered
//!   instruction stream ([`crate::codegen::lower_instructions`])
//!   flagging shared-buffer reads that can observe another thread's
//!   write without an intervening barrier, reads from a memory tier the
//!   value was never placed in, and out-of-bounds tile restrictions.
//! * **Disjoint-write race proof** ([`races`], `RACE501`–`RACE505`) — a
//!   symbolic affine/interval analysis over the per-store write
//!   footprints carried by the lowered stream, proving every pair of
//!   spatial blocks writes disjoint output regions (the Table-3
//!   legality the lock-free executor's `unsafe` relies on). Its
//!   [`DisjointProof`] verdict also gates the lock-free vs. serial
//!   executor path per kernel, independently of the verifier.
//!
//! The verifier runs as the final pipeline pass (enabled by default in
//! debug builds, see
//! [`CompileOptions::verify`](crate::pipeline::CompileOptions)) and
//! behind `sfc lint`.

pub mod barriers;
pub mod races;
pub mod resources;
pub mod slicing;
pub mod structural;

pub use barriers::{check_bounds, check_instructions};
pub use races::{check_races, prove_disjoint, DisjointProof};
pub use resources::check_resources;
pub use slicing::{check_partial_aggregate, check_slicing};
pub use structural::check_smg;

use crate::codegen::{lower_instructions, KernelProgram};
use crate::smg::{DimId, SpaceId};
use sf_gpu_sim::GpuArch;
use sf_ir::{OpId, ValueId};
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but does not fail compilation.
    Warning,
    /// Fails compilation (and `sfc lint`).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identity of one verifier check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `SMG001` — a mapping's kind contradicts its endpoints' dimension
    /// sets (§4.1 classification).
    SmgMappingClass,
    /// `SMG002` — a One-to-All/All-to-One direction dimension does not
    /// exist or has unit extent.
    SmgDirectionDim,
    /// `SMG003` — tensor-axis ↔ global-dimension alignment is
    /// incoherent (rank mismatch, extent mismatch, dangling ids).
    SmgDimAlignment,
    /// `SMG004` — the space-mapping edges form a cycle.
    SmgCycle,
    /// `SLC101` — a spatially sliced dimension carries a flow
    /// dependency (Table 3).
    SlcIllegalSpatialDim,
    /// `SLC102` — a temporally "sliced reduction" has no All-to-One
    /// along the sliced dimension.
    SlcNotASlicedReduction,
    /// `SLC103` — the declared update function disagrees with the
    /// broadcast-postposition back-trace (§4.3).
    SlcUpdateChain,
    /// `SLC104` — split-K partial-aggregate legality: the combine phase
    /// must exist for every sliced reduction of a split schedule, fold
    /// the full partition count, use the associative merge operator the
    /// combine algebra derives for the reduction, and rescale exactly
    /// the UTA partials (the (max, rescaled-sum) softmax pair).
    SlcPartialAggregate,
    /// `RES201` — per-block shared memory exceeds the architecture
    /// budget.
    ResSmemOverBudget,
    /// `RES202` — per-block register bytes exceed the architecture
    /// budget.
    ResRegsOverBudget,
    /// `RES203` — the block fits no SM at all (occupancy zero).
    ResZeroOccupancy,
    /// `MEM301` — a cross-thread value (One-to-All source / All-to-One
    /// sink) is assigned to thread-private registers (§5.4).
    MemCrossThreadRegister,
    /// `MEM302` — an instruction reads a value from a memory tier it
    /// was never placed in.
    MemReadUnplaced,
    /// `BAR401` — a shared-memory read may observe another thread's
    /// write without an intervening barrier.
    BarMissingBarrier,
    /// `BND402` — a tile restriction indexes out of bounds (unknown
    /// dimension, zero or oversized block, duplicate restriction).
    BndTileOutOfBounds,
    /// `RACE501` — two spatial blocks write overlapping output regions
    /// (Table-3 disjoint-write legality violated).
    RaceOverlappingWrites,
    /// `RACE502` — a block's write region escapes the partitioned
    /// extent (writes past the end of its output-slot region).
    RaceWriteEscapesExtent,
    /// `RACE503` — scratch aliased across workers: a compute result is
    /// published to global memory outside the partitioned slot scatter.
    RaceScratchAliasing,
    /// `RACE504` — a value is read back after its parallel store with
    /// no intervening grid-wide ordering point.
    RaceReadAfterParallelWrite,
    /// `RACE505` — a write footprint is not provable in the affine
    /// region algebra; the kernel is forced onto the serial executor
    /// path instead of running lock-free unproven.
    RaceUnprovableFootprint,
}

impl DiagCode {
    /// The stable code string (`SMG001`, …).
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::SmgMappingClass => "SMG001",
            DiagCode::SmgDirectionDim => "SMG002",
            DiagCode::SmgDimAlignment => "SMG003",
            DiagCode::SmgCycle => "SMG004",
            DiagCode::SlcIllegalSpatialDim => "SLC101",
            DiagCode::SlcNotASlicedReduction => "SLC102",
            DiagCode::SlcUpdateChain => "SLC103",
            DiagCode::SlcPartialAggregate => "SLC104",
            DiagCode::ResSmemOverBudget => "RES201",
            DiagCode::ResRegsOverBudget => "RES202",
            DiagCode::ResZeroOccupancy => "RES203",
            DiagCode::MemCrossThreadRegister => "MEM301",
            DiagCode::MemReadUnplaced => "MEM302",
            DiagCode::BarMissingBarrier => "BAR401",
            DiagCode::BndTileOutOfBounds => "BND402",
            DiagCode::RaceOverlappingWrites => "RACE501",
            DiagCode::RaceWriteEscapesExtent => "RACE502",
            DiagCode::RaceScratchAliasing => "RACE503",
            DiagCode::RaceReadAfterParallelWrite => "RACE504",
            DiagCode::RaceUnprovableFootprint => "RACE505",
        }
    }

    /// Short human title of the invariant.
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::SmgMappingClass => "mapping classification consistency",
            DiagCode::SmgDirectionDim => "direction-dimension validity",
            DiagCode::SmgDimAlignment => "dimension-alignment coherence",
            DiagCode::SmgCycle => "space-mapping acyclicity",
            DiagCode::SlcIllegalSpatialDim => "spatial-slicing legality",
            DiagCode::SlcNotASlicedReduction => "temporal slice targets a reduction",
            DiagCode::SlcUpdateChain => "UTA update-function derivability",
            DiagCode::SlcPartialAggregate => "split-K partial-aggregate combine legality",
            DiagCode::ResSmemOverBudget => "shared-memory budget",
            DiagCode::ResRegsOverBudget => "register budget",
            DiagCode::ResZeroOccupancy => "non-zero occupancy",
            DiagCode::MemCrossThreadRegister => "cross-thread register placement",
            DiagCode::MemReadUnplaced => "read from unplaced tier",
            DiagCode::BarMissingBarrier => "barrier-protected shared reads",
            DiagCode::BndTileOutOfBounds => "tile-restriction bounds",
            DiagCode::RaceOverlappingWrites => "pairwise-disjoint block writes",
            DiagCode::RaceWriteEscapesExtent => "write inside the partitioned extent",
            DiagCode::RaceScratchAliasing => "worker-private scratch",
            DiagCode::RaceReadAfterParallelWrite => "no readback of in-flight writes",
            DiagCode::RaceUnprovableFootprint => "affine write-footprint provability",
        }
    }

    /// Default severity (every check defaults to deny except `RACE505`,
    /// which is not itself a proven race — the kernel degrades to the
    /// serial path instead of failing compilation; `sfc lint
    /// --warn/--deny CODE` adjusts individual codes).
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::RaceUnprovableFootprint => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// All codes, in catalog order.
    pub fn all() -> [DiagCode; 20] {
        [
            DiagCode::SmgMappingClass,
            DiagCode::SmgDirectionDim,
            DiagCode::SmgDimAlignment,
            DiagCode::SmgCycle,
            DiagCode::SlcIllegalSpatialDim,
            DiagCode::SlcNotASlicedReduction,
            DiagCode::SlcUpdateChain,
            DiagCode::SlcPartialAggregate,
            DiagCode::ResSmemOverBudget,
            DiagCode::ResRegsOverBudget,
            DiagCode::ResZeroOccupancy,
            DiagCode::MemCrossThreadRegister,
            DiagCode::MemReadUnplaced,
            DiagCode::BarMissingBarrier,
            DiagCode::BndTileOutOfBounds,
            DiagCode::RaceOverlappingWrites,
            DiagCode::RaceWriteEscapesExtent,
            DiagCode::RaceScratchAliasing,
            DiagCode::RaceReadAfterParallelWrite,
            DiagCode::RaceUnprovableFootprint,
        ]
    }

    /// Parses a code string (`SMG001`, case-insensitive).
    pub fn parse(s: &str) -> Option<DiagCode> {
        let up = s.to_ascii_uppercase();
        DiagCode::all().into_iter().find(|c| c.code() == up)
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// The kernel as a whole.
    Kernel,
    /// A global dimension of the SMG.
    Dim(DimId),
    /// A mapping edge (index into `Smg::mappings`).
    Mapping(usize),
    /// A computational-space node.
    Space(SpaceId),
    /// An IR value (tensor).
    Value(ValueId),
    /// An IR operator.
    Op(OpId),
    /// A schedule restriction: dimension × block size.
    Schedule {
        /// The restricted dimension.
        dim: DimId,
        /// The block size applied to it.
        block: usize,
    },
    /// An instruction index in the lowered stream.
    Instr(usize),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Kernel => write!(f, "kernel"),
            Span::Dim(d) => write!(f, "dim d{}", d.0),
            Span::Mapping(i) => write!(f, "mapping #{i}"),
            Span::Space(s) => write!(f, "space #{}", s.0),
            Span::Value(v) => write!(f, "value %{}", v.0),
            Span::Op(o) => write!(f, "op #{}", o.0),
            Span::Schedule { dim, block } => write!(f, "schedule d{}\u{d7}{}", dim.0, block),
            Span::Instr(i) => write!(f, "instr #{i}"),
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated check.
    pub code: DiagCode,
    /// Effective severity (default of the code, unless reconfigured).
    pub severity: Severity,
    /// Name of the kernel the finding is in (filled by
    /// [`verify_program`]).
    pub kernel: String,
    /// What the finding points at.
    pub span: Span,
    /// Human explanation with names resolved.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: DiagCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            kernel: String::new(),
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: [{}] {}: {}",
            self.code, self.severity, self.kernel, self.span, self.message
        )
    }
}

/// Per-code severity configuration of one verifier run.
#[derive(Debug, Clone, Default)]
pub struct VerifyConfig {
    /// Severity overrides, later entries win.
    pub levels: Vec<(DiagCode, Severity)>,
    /// Codes suppressed entirely.
    pub allowed: Vec<DiagCode>,
}

impl VerifyConfig {
    /// Forces `code` to deny (error) level.
    pub fn deny(mut self, code: DiagCode) -> Self {
        self.levels.push((code, Severity::Error));
        self
    }

    /// Relaxes `code` to warning level.
    pub fn warn(mut self, code: DiagCode) -> Self {
        self.levels.push((code, Severity::Warning));
        self
    }

    /// Suppresses `code` entirely.
    pub fn allow(mut self, code: DiagCode) -> Self {
        self.allowed.push(code);
        self
    }

    /// Applies the configuration to one diagnostic.
    pub fn apply(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        if self.allowed.contains(&d.code) {
            return None;
        }
        if let Some(&(_, s)) = self.levels.iter().rev().find(|&&(c, _)| c == d.code) {
            d.severity = s;
        }
        Some(d)
    }
}

/// Verifies one kernel at default severities.
///
/// Families run in dependency order and stop early when an earlier
/// family found violations: schedule- and instruction-level checks
/// index into the SMG, so they are only meaningful on a structurally
/// sound graph with in-bounds restrictions.
pub fn verify_kernel(kp: &KernelProgram, arch: &GpuArch) -> Vec<Diagnostic> {
    let mut diags = structural::check_smg(&kp.graph, &kp.schedule.smg);
    if !diags.is_empty() {
        return diags;
    }
    diags.extend(barriers::check_bounds(kp));
    if !diags.is_empty() {
        return diags;
    }
    diags.extend(slicing::check_slicing(kp));
    diags.extend(resources::check_resources(kp, arch));
    let instrs = lower_instructions(kp);
    diags.extend(barriers::check_instructions(kp, &instrs));
    diags.extend(slicing::check_partial_aggregate(kp, &instrs));
    diags.extend(races::check_races(kp, &instrs));
    diags
}

/// Verifies a compiled kernel sequence under a configuration.
///
/// Returns the surviving diagnostics with kernel names attached and
/// severities remapped per `config`.
pub fn verify_program(
    kernels: &[KernelProgram],
    arch: &GpuArch,
    config: &VerifyConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for kp in kernels {
        for mut d in verify_kernel(kp, arch) {
            d.kernel = kp.name.clone();
            if let Some(d) = config.apply(d) {
                out.push(d);
            }
        }
    }
    out
}

/// `(errors, warnings)` counts of a diagnostic set.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (errors, diags.len() - errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompileSession, FusionPolicy};
    use sf_gpu_sim::Arch;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha(l: usize) -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("Q", Shape::new(vec![256, 64]));
        let k = g.input("K", Shape::new(vec![l, 64]));
        let v = g.input("V", Shape::new(vec![l, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn compiled_mha_is_clean_on_every_arch() {
        for arch in [Arch::Volta, Arch::Ampere, Arch::Hopper] {
            let p = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion)
                .compile(&mha(8192))
                .unwrap();
            let diags = verify_program(&p.kernels, &p.arch, &VerifyConfig::default());
            assert!(diags.is_empty(), "{arch:?}: {diags:?}");
        }
    }

    #[test]
    fn codes_are_unique_and_parse_round_trips() {
        let all = DiagCode::all();
        for (i, a) in all.iter().enumerate() {
            assert_eq!(DiagCode::parse(a.code()), Some(*a));
            assert_eq!(DiagCode::parse(&a.code().to_lowercase()), Some(*a));
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code());
            }
        }
        assert_eq!(DiagCode::parse("XYZ999"), None);
    }

    #[test]
    fn config_remaps_and_suppresses() {
        let d = Diagnostic::new(DiagCode::ResSmemOverBudget, Span::Kernel, "x");
        assert_eq!(d.severity, Severity::Error);
        let cfg = VerifyConfig::default().warn(DiagCode::ResSmemOverBudget);
        let d2 = cfg.apply(d.clone()).unwrap();
        assert_eq!(d2.severity, Severity::Warning);
        let cfg = VerifyConfig::default().allow(DiagCode::ResSmemOverBudget);
        assert!(cfg.apply(d).is_none());
        let (e, w) = counts(&[d2]);
        assert_eq!((e, w), (0, 1));
    }

    #[test]
    fn diagnostic_display_mentions_code_span_and_kernel() {
        let mut d = Diagnostic::new(DiagCode::BarMissingBarrier, Span::Instr(7), "racy read");
        d.kernel = "k0".into();
        let s = d.to_string();
        assert!(
            s.contains("BAR401") && s.contains("instr #7") && s.contains("k0"),
            "{s}"
        );
    }
}
