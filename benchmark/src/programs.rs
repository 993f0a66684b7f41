//! The frozen input programs (`programs/*.sfg`) and the `serve_churn`
//! shape generator.
//!
//! Every program is DSL text compiled into the binary, so edits to
//! `crates/models` or `crates/fuzz` cannot shift the traffic and the
//! binary does not depend on its working directory. `programs/README.md`
//! records which builder call produced each file and why it was chosen.

use sf_ir::dsl::parse_graph;
use sf_ir::Graph;

/// One frozen program: file stem and DSL text.
#[derive(Clone, Copy)]
pub struct Frozen {
    pub name: &'static str,
    pub text: &'static str,
}

macro_rules! frozen {
    ($($name:literal),* $(,)?) => {
        &[$(Frozen {
            name: $name,
            text: include_str!(concat!("../programs/", $name, ".sfg")),
        }),*]
    };
}

/// `compile_cold`: the 9 small zoo programs whose outputs are also
/// checked on the host, 4 paper-scale shapes, and the Bert / Llama2-7B /
/// T5 subprograms at batch 8, seq 512.
pub const COMPILE_SET: &[Frozen] = frozen![
    "mlp4_256x64",
    "lstm_64x64",
    "softmax_256x128",
    "layernorm_256x128",
    "rmsnorm_256x128",
    "mha_b1h4s64d32",
    "masked_mha_b1h4s64d32",
    "mha_decode_b1h4kv1024d32",
    "reduce_64x4096",
    "mha_b32h12s1024d64",
    "mha_b32h12s256d64",
    "layernorm_4096x1024",
    "softmax_16x4096",
    "bert_attn_proj",
    "bert_mha",
    "bert_residual",
    "bert_norm",
    "bert_ffn_up",
    "bert_ffn_down",
    "llama2_attn_proj",
    "llama2_mha",
    "llama2_residual",
    "llama2_norm",
    "llama2_ffn_up",
    "llama2_ffn_down",
    "t5_attn_proj",
    "t5_mha",
    "t5_residual",
    "t5_norm",
    "t5_ffn_up",
    "t5_ffn_down",
];

/// How many leading programs of [`COMPILE_SET`] are small enough to run
/// through the executor and the reference interpreter at set-up.
pub const COMPILE_HOST_SIZED: usize = 9;

/// `exec_small`: the `exec_bench` zoo plus two more split-K shapes.
pub const EXEC_SMALL_SET: &[Frozen] = frozen![
    "mlp4_256x64",
    "lstm_64x64",
    "softmax_256x128",
    "layernorm_256x128",
    "rmsnorm_256x128",
    "mha_b1h4s64d32",
    "masked_mha_b1h4s64d32",
    "mha_decode_b1h4kv128d32",
    "mha_decode_b1h4kv1024d32",
    "reduce_64x4096",
    "softmax_16x4096",
    "reduce_16x4096",
];

/// `exec_large`: shapes big enough that block compute and pool dispatch
/// dominate wake jitter.
pub const EXEC_LARGE_SET: &[Frozen] = frozen![
    "mlp4_1024x128",
    "softmax_1024x512",
    "layernorm_1024x512",
    "rmsnorm_1024x512",
    "mha_b2h8s128d64",
    "masked_mha_b2h8s128d64",
    "mha_decode_b4h8kv2048d64",
    "reduce_256x4096",
];

/// `profile_sim`: paper-scale programs for the simulated clock. The
/// first [`PROFILE_HOST_SIZED`] are cheap enough on the host (one
/// attention head, or a short reduce) to also run against the reference
/// interpreter at set-up.
pub const PROFILE_SET: &[Frozen] = frozen![
    "mha_b32h12s1024d64",
    "mha_b32h12s256d64",
    "masked_mha_b8h12s512d64",
    "mha_decode_b32h12kv2048d64",
    "reduce_64x16384",
    "bert_mha",
    "layernorm_4096x4096",
    "rmsnorm_4096x4096",
    "softmax_4096x4096",
    "mlp4_4096x256",
    "lstm_1024x1024",
    "bert_attn_proj",
    "bert_residual",
    "bert_norm",
];

pub const PROFILE_HOST_SIZED: usize = 6;

/// `serve_hot`: tiny programs, so the request is mostly serving overhead.
pub const SERVE_HOT_SET: &[Frozen] = frozen![
    "tiny_softmax_16x64",
    "tiny_layernorm_8x128",
    "tiny_rmsnorm_8x96",
    "tiny_mlp2_32x24",
    "tiny_mha_b1h2s32d16",
    "tiny_mha_decode_b1h2kv128d16",
];

/// `serve_churn`: `{M}`/`{N}` templates of four families.
pub const CHURN_FAMILIES: &[Frozen] = frozen![
    "churn/softmax",
    "churn/layernorm",
    "churn/mlp2",
    "churn/mha",
];

/// A parsed, validated program.
pub struct Loaded {
    pub name: String,
    pub text: String,
    pub graph: Graph,
}

impl Loaded {
    pub fn parse(name: &str, text: String) -> Result<Loaded, String> {
        Ok(Loaded {
            name: name.to_string(),
            graph: parse_checked(name, &text)?,
            text,
        })
    }
}

/// Parses DSL text and validates the graph.
pub fn parse_checked(name: &str, text: &str) -> Result<Graph, String> {
    let graph = parse_graph(text).map_err(|e| format!("{name}: {e}"))?;
    graph.validate().map_err(|e| format!("{name}: {e}"))?;
    Ok(graph)
}

/// Parses and validates a frozen set.
pub fn load(set: &[Frozen]) -> Result<Vec<Loaded>, String> {
    set.iter()
        .map(|f| Loaded::parse(f.name, f.text.to_string()))
        .collect()
}

/// Shapes per churn family in one round's request set: `(m, n)` walks a
/// `CHURN_GRID × CHURN_GRID` lattice.
pub const CHURN_GRID: usize = 25;

/// DSL text of churn form `k`: family `k % 4`, and `(m, n)` a bijection
/// of `k / 4` onto the lattice `m = 4 + 3i`, `n = 8 + 5j`. Odd sizes are
/// deliberate: most do not divide any tile size.
pub fn churn_text(k: usize) -> String {
    let family = CHURN_FAMILIES[k % CHURN_FAMILIES.len()];
    let cell = k / CHURN_FAMILIES.len();
    assert!(
        cell < CHURN_GRID * CHURN_GRID,
        "churn form {k} out of range"
    );
    let m = 4 + 3 * (cell / CHURN_GRID);
    let n = 8 + 5 * (cell % CHURN_GRID);
    family
        .text
        .replace("{M}", &m.to_string())
        .replace("{N}", &n.to_string())
}

/// Number of distinct churn forms.
pub const CHURN_FORMS: usize = 4 * CHURN_GRID * CHURN_GRID;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frozen_program_parses_and_validates() {
        for set in [
            COMPILE_SET,
            EXEC_SMALL_SET,
            EXEC_LARGE_SET,
            PROFILE_SET,
            SERVE_HOT_SET,
        ] {
            load(set).unwrap();
        }
        for k in 0..CHURN_FORMS {
            parse_checked("churn", &churn_text(k)).unwrap();
        }
    }

    #[test]
    fn set_sizes_match_the_workload_table() {
        assert_eq!(COMPILE_SET.len(), 31);
        assert_eq!(EXEC_SMALL_SET.len(), 12);
        assert_eq!(EXEC_LARGE_SET.len(), 8);
        assert_eq!(PROFILE_SET.len(), 14);
        assert_eq!(SERVE_HOT_SET.len(), 6);
    }
}
