//! The lowered kernel representation.

use super::plan::KernelPlan;
use crate::sched::{op_roles, FusedSchedule, OpRole};
use crate::verify::races::{prove_disjoint, DisjointProof};
use sf_ir::Graph;

/// A fused kernel: graph + schedule + derived execution metadata.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    /// Kernel name (for reports).
    pub name: String,
    /// The fused subgraph this kernel computes. Its inputs are the cut
    /// values / program inputs, its outputs the values materialized to
    /// global memory.
    pub graph: Graph,
    /// The concrete schedule.
    pub schedule: FusedSchedule,
    /// Role of each operator under the schedule.
    pub roles: Vec<OpRole>,
    /// Verdict of the static disjoint-write prover
    /// ([`crate::verify::races`]): only `Proven` kernels may take the
    /// lock-free parallel executor path. Computed at construction so the
    /// gate holds even when the verifier pass is off (release builds).
    pub disjoint: DisjointProof,
    /// The lowered loop structure, built once here. Private so it
    /// cannot drift from the fields it was derived from through this
    /// type's API; see [`KernelProgram::plan`].
    plan: KernelPlan,
}

impl KernelProgram {
    /// Lowers a scheduled graph into a kernel program.
    pub fn new(name: impl Into<String>, graph: Graph, schedule: FusedSchedule) -> Self {
        let roles = op_roles(&graph, &schedule);
        let plan = KernelPlan::build(&graph, &schedule, &roles);
        let mut kp = KernelProgram {
            name: name.into(),
            graph,
            schedule,
            roles,
            disjoint: DisjointProof::Proven,
            plan,
        };
        kp.disjoint = prove_disjoint(&kp);
        kp
    }

    /// The kernel's loop structure as built at construction — what the
    /// executor, the tracer, the cost model and the emitter walk.
    ///
    /// `graph`, `schedule` and `roles` are public and the verifier's
    /// mutation harness edits them after construction; the plan does
    /// not follow such edits, so [`lower_instructions`]
    /// (the verifier's input) re-plans from the current fields instead
    /// of reading this one.
    ///
    /// [`lower_instructions`]: super::lower_instructions
    pub fn plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// Whether this kernel fuses more than one operator.
    pub fn is_fused(&self) -> bool {
        self.graph.ops().len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::plan::Step;
    use crate::sched::{assign_memory, TemporalSchedule};
    use crate::slicer::plan_temporal;
    use crate::smg::build_smg;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    #[test]
    fn needed_sets_for_softmax() {
        let mut g = Graph::new("softmax", DType::F16);
        let x = g.input("x", Shape::new(vec![32, 128]));
        let m = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, x, m).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, z).unwrap();
        g.mark_output(d);
        let smg = build_smg(&g).unwrap();
        let m_dim = smg.value_axes[0][0];
        let n_dim = smg.value_axes[0][1];
        let plan = plan_temporal(&g, &smg, n_dim).unwrap();
        let spatial = vec![(m_dim, 16)];
        let temporal = Some(TemporalSchedule {
            plan,
            block: 32,
            split: None,
        });
        let mem = assign_memory(&g, &smg, &spatial, temporal.as_ref(), 32 << 10);
        let kp = KernelProgram::new(
            "softmax",
            g.clone(),
            FusedSchedule {
                smg,
                spatial,
                temporal,
                mem,
            },
        );
        let plan = kp.plan();
        let tiles = plan.tiles.as_ref().expect("temporally sliced");
        // Phase 1 needs max, sub, exp, sum but not div.
        assert_eq!(
            tiles.phase1,
            vec![
                Step::Reduce { op: 0, idx: 0 },
                Step::Op(1),
                Step::Op(2),
                Step::Reduce { op: 3, idx: 1 },
            ]
        );
        // The output needs every in-loop op again in the second pass.
        let phase2 = tiles.phase2.as_ref().expect("softmax is two-phase");
        assert_eq!(phase2.ops, vec![1, 2, 4]);
        assert_eq!(phase2.tile_stores, vec![d]);
        assert!(plan.block_ops.is_empty() && plan.block_stores.is_empty());
        assert!(kp.is_fused());
    }
}
