//! SMG data structures and queries.

use sf_ir::{Graph, OpId, ValueId, ValueKind};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Identifier of a global dimension of the fused computational space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(pub usize);

/// A global dimension: name and extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimInfo {
    /// Display name, e.g. `d0`.
    pub name: String,
    /// Extent of the dimension in the fused space.
    pub extent: usize,
}

/// Identifier of a computational space (node) in an [`Smg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpaceId(pub usize);

/// Kind of a computational space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// A tensor (input, weight, intermediate or output).
    Data {
        /// The IR value this space abstracts.
        value: ValueId,
    },
    /// The loop nest of one operator.
    Iter {
        /// The IR operator this space abstracts.
        op: OpId,
    },
}

/// A computational-space node.
#[derive(Debug, Clone)]
pub struct SpaceNode {
    /// Data or iteration space.
    pub kind: SpaceKind,
    /// Global dimensions this space covers (placeholders excluded).
    pub dims: BTreeSet<DimId>,
}

/// Kind of a space mapping, with its geometric direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Element-wise correspondence; no direction.
    OneToOne,
    /// The source is reused along `0`'s dimension.
    OneToAll(DimId),
    /// The destination reduces away `0`'s dimension.
    AllToOne(DimId),
}

impl MappingKind {
    /// The direction dimension, if any.
    pub fn dim(&self) -> Option<DimId> {
        match self {
            MappingKind::OneToOne => None,
            MappingKind::OneToAll(d) | MappingKind::AllToOne(d) => Some(*d),
        }
    }
}

/// A directed space-mapping edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Source space.
    pub src: SpaceId,
    /// Destination space.
    pub dst: SpaceId,
    /// Mapping kind and direction.
    pub kind: MappingKind,
}

/// A Space-Mapping Graph over one fused operator region.
#[derive(Debug, Clone)]
pub struct Smg {
    /// Global dimensions of the fused space.
    pub dims: Vec<DimInfo>,
    /// Space nodes.
    pub spaces: Vec<SpaceNode>,
    /// Mapping edges.
    pub mappings: Vec<Mapping>,
    /// For each IR value: the global dimension of each tensor axis.
    pub value_axes: Vec<Vec<DimId>>,
    /// Space index of each IR value's data space.
    pub data_space: Vec<SpaceId>,
    /// Space index of each IR op's iteration space.
    pub iter_space: Vec<SpaceId>,
}

impl Smg {
    /// Extent of a dimension.
    pub fn extent(&self, d: DimId) -> usize {
        self.dims[d.0].extent
    }

    /// All mappings whose direction is `d` ("mappings in the dimension",
    /// Table 3).
    pub fn mappings_in_dim(&self, d: DimId) -> Vec<&Mapping> {
        self.mappings
            .iter()
            .filter(|m| m.kind.dim() == Some(d))
            .collect()
    }

    /// Whether a space is a data space backed by a kernel input (input or
    /// weight value, resident in global memory).
    pub fn is_kernel_input_space(&self, graph: &Graph, s: SpaceId) -> bool {
        match self.spaces[s.0].kind {
            SpaceKind::Data { value } => matches!(
                graph.value(value).kind,
                ValueKind::Input | ValueKind::Weight
            ),
            SpaceKind::Iter { .. } => false,
        }
    }

    /// The axis of `value` aligned to dimension `d`, if any.
    pub fn axis_of(&self, value: ValueId, d: DimId) -> Option<usize> {
        self.value_axes[value.0].iter().position(|&x| x == d)
    }

    /// Whether `value` has `d` *present* (extent matching, not a
    /// placeholder).
    pub fn value_has_dim(&self, graph: &Graph, value: ValueId, d: DimId) -> bool {
        match self.axis_of(value, d) {
            Some(axis) => graph.shape(value).dims()[axis] == self.extent(d) || self.extent(d) == 1,
            None => false,
        }
    }

    /// Per-block footprint (bytes) of a value when the given dims are
    /// restricted to block sizes. Unrestricted axes keep their extent.
    pub fn block_footprint(
        &self,
        graph: &Graph,
        value: ValueId,
        restrict: &[(DimId, usize)],
    ) -> u64 {
        let shape = graph.shape(value);
        let mut vol: u64 = 1;
        for (axis, &e) in shape.dims().iter().enumerate() {
            let d = self.value_axes[value.0][axis];
            let r = restrict
                .iter()
                .find(|(rd, _)| *rd == d)
                .map(|&(_, b)| b.min(e))
                .unwrap_or(e);
            vol *= r as u64;
        }
        vol * graph.dtype().size_bytes() as u64
    }

    /// Number of All-to-One mappings in the whole SMG.
    pub fn a2o_count(&self) -> usize {
        self.mappings
            .iter()
            .filter(|m| matches!(m.kind, MappingKind::AllToOne(_)))
            .count()
    }

    /// Number of One-to-All mappings in the whole SMG.
    pub fn o2a_count(&self) -> usize {
        self.mappings
            .iter()
            .filter(|m| matches!(m.kind, MappingKind::OneToAll(_)))
            .count()
    }

    /// Graphviz DOT rendering of the SMG (for debugging and docs).
    pub fn to_dot(&self, graph: &Graph) -> String {
        let mut out = String::from("digraph smg {\n  rankdir=TB;\n");
        for (i, s) in self.spaces.iter().enumerate() {
            let (label, shape) = match s.kind {
                SpaceKind::Data { value } => {
                    let v = graph.value(value);
                    let sig: Vec<String> = self.value_axes[value.0]
                        .iter()
                        .enumerate()
                        .map(|(axis, d)| {
                            if graph.shape(value).dims()[axis] == self.extent(*d) {
                                self.dims[d.0].name.clone()
                            } else {
                                "-".to_string()
                            }
                        })
                        .collect();
                    (format!("{}({})", v.name, sig.join(",")), "box")
                }
                SpaceKind::Iter { op } => (graph.ops()[op.0].kind.name().to_string(), "ellipse"),
            };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\", shape={shape}];",
                sf_ir::escape_label(&label)
            );
        }
        for m in &self.mappings {
            let (label, color) = match m.kind {
                MappingKind::OneToOne => ("O2O".to_string(), "black"),
                MappingKind::OneToAll(d) => (format!("O2A({})", self.dims[d.0].name), "green"),
                MappingKind::AllToOne(d) => (format!("A2O({})", self.dims[d.0].name), "red"),
            };
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{label}\", color={color}];",
                m.src.0, m.dst.0
            );
        }
        out.push_str("}\n");
        out
    }
}
