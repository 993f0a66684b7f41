//! Layer probes of the traced run that are not part of a round: single
//! public functions timed on their own, each call a span.

use crate::harness::Recorder;
use crate::programs::Loaded;
use sf_ir::dsl::{parse_graph, print_graph};
use sf_ir::segment::shape_key;
use sf_tensor::ops::{viewed, BinaryOp, ReduceOp};
use sf_tensor::{DType, ScratchPool, Shape, Tensor};
use spacefusion::codegen::{estimate_cost, lower_instructions, KernelProgram};
use spacefusion::CompiledProgram;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Calls per probe and row; the table keeps the median.
const REPS: usize = 15;

/// `ir` probes over a program set: the printer and the shape key on
/// every program; `random_bindings` and the reference interpreter on the
/// first `host_sized` only (paper-scale tensors take seconds to fill).
/// `in_replay` leaves out `parse_graph` and `random_bindings`, which the
/// serve workloads time inside the request replay instead.
pub fn ir(rec: &mut Recorder, set: &[Loaded], host_sized: usize, seed: u64, in_replay: bool) {
    for (row, p) in set.iter().enumerate() {
        for _ in 0..REPS {
            if !in_replay {
                black_box(rec.probe("ir.parse", row, || parse_graph(&p.text)).is_ok());
            }
            black_box(rec.probe("ir.print", row, || print_graph(&p.graph)));
            black_box(rec.probe("ir.shape_key", row, || shape_key(&p.graph)));
        }
        if row >= host_sized {
            continue;
        }
        let bindings = p.graph.random_bindings(seed);
        for _ in 0..REPS {
            if !in_replay {
                black_box(rec.probe("ir.random_bindings", row, || p.graph.random_bindings(seed)));
            }
            black_box(
                rec.probe("ir.reference_exec", row, || p.graph.execute(&bindings))
                    .is_ok(),
            );
        }
    }
}

/// The arithmetic floor: `ops::viewed::*` on fixed 256×256 views.
pub fn tensor(rec: &mut Recorder) {
    let shape = Shape::new(vec![256, 256]);
    let a = Tensor::random(shape.clone(), DType::F32, 1);
    let b = Tensor::random(shape, DType::F32, 2);
    let mut pool = ScratchPool::new();
    for _ in 0..REPS {
        let t = rec.probe("tensor.matmul", 0, || {
            viewed::matmul(&a.view(), &b.view(), false, &mut pool)
        });
        pool.recycle_tensor(t.expect("256x256 matmul"));
        let t = rec.probe("tensor.reduce", 0, || {
            viewed::reduce(ReduceOp::Sum, &a.view(), 1, &mut pool)
        });
        pool.recycle_tensor(t.expect("256x256 reduce"));
        let t = rec.probe("tensor.binary", 0, || {
            viewed::binary(BinaryOp::Add, &a.view(), &b.view(), &mut pool)
        });
        pool.recycle_tensor(t.expect("256x256 add"));
    }
}

/// Kernel lowering, timed per kernel on already-compiled programs:
/// `KernelProgram::new`, `lower_instructions`, `estimate_cost`. Also
/// counts the lowered instructions.
pub fn codegen_lowering(
    rec: &mut Recorder,
    programs: &[CompiledProgram],
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut instrs = 0usize;
    for (row, program) in programs.iter().enumerate() {
        for k in &program.kernels {
            instrs += lower_instructions(k).len();
            for _ in 0..REPS {
                let (name, graph, schedule) = (k.name.clone(), k.graph.clone(), k.schedule.clone());
                black_box(rec.probe("codegen.kernel_new", row, || {
                    KernelProgram::new(name, graph, schedule)
                }));
                black_box(rec.probe("codegen.lower_instructions", row, || lower_instructions(k)));
                black_box(rec.probe("codegen.estimate_cost", row, || {
                    estimate_cost(k, program.instances as u64)
                }));
            }
        }
    }
    values.insert("codegen.instr_count", instrs as f64);
}
