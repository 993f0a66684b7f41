//! The `sfc` subcommands: one flag table per subcommand, one flag walker
//! ([`flags`]) and one dispatcher ([`run`]).
//!
//! `fuzz`, `faultsim`, `serve` and `chaos` parse straight into the
//! library types they drive, so each default lives only in that type's
//! `Default`. `compile` and `lint` keep their own small structs, because
//! most of their flags are CLI-only.

use sf_gpu_sim::Arch;
use sf_ir::dsl::{parse_graph, print_graph};
use sf_ir::Graph;
use spacefusion::pipeline::{render_timings, CollectingSink, CompileSession};
use spacefusion::sched::OpRole;
use spacefusion::serve::json::Json;
use spacefusion::serve::ServeConfig;
use spacefusion::slicer::AggKind;
use spacefusion::smg::build_smg;
use spacefusion::verify::{counts, verify_program, DiagCode, Diagnostic, VerifyConfig};
use spacefusion::{CompileOptions, FusionPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

/// Writes one flag's value (empty for a switch) into a subcommand's
/// config; `Err` says what the value should have been.
type Setter<C> = fn(&mut C, &str) -> Result<(), String>;

/// One row of a flag table: the flag, its metavariable (empty for a
/// switch) and its setter.
type Flag<C> = (&'static str, &'static str, Setter<C>);

/// A subcommand's command line.
struct Cmd<C: 'static> {
    name: &'static str,
    /// Metavariable of the leading operand (`FILE`, `SOCKET`); empty
    /// when the subcommand takes none.
    operand: &'static str,
    /// Whether the shared `--timings` switch is accepted.
    timed: bool,
    flags: &'static [Flag<C>],
}

impl<C> Cmd<C> {
    /// The subcommand's usage line, rendered from its table.
    fn usage(&self) -> String {
        let mut s = format!("sfc {} {}", self.name, self.operand)
            .trim_end()
            .to_string();
        for (name, meta, _) in self.flags {
            let sep = if meta.is_empty() { "" } else { " " };
            let _ = write!(s, " [{name}{sep}{meta}]");
        }
        if self.timed {
            s.push_str(" [--timings]");
        }
        s
    }
}

// Value kinds shared by every table.

fn count<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "a count".to_string())
}

fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String> {
    let n = v.parse().ok().filter(|n| *n != T::default());
    n.ok_or_else(|| "a positive count".to_string())
}

fn seed(v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| "a seed".to_string())
}

/// A worker-thread count; `max` (and `0`) mean one per core.
fn threads(v: &str) -> Result<usize, String> {
    if v == "max" {
        return Ok(0);
    }
    v.parse().map_err(|_| "a count or 'max'".to_string())
}

const ARCH: &str = "volta|ampere|hopper";
const POLICY: &str = "spacefusion|unfused|epilogue|mi-only|tile-graph";

fn arch(v: &str) -> Result<Arch, String> {
    Arch::parse(v).ok_or_else(|| ARCH.to_string())
}

fn policy(v: &str) -> Result<FusionPolicy, String> {
    FusionPolicy::parse(v).ok_or_else(|| POLICY.to_string())
}

fn path(v: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(v))
}

fn code(v: &str) -> Result<DiagCode, String> {
    DiagCode::parse(v).ok_or_else(|| "a diagnostic code".to_string())
}

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// Walks `args` through `cmd`'s table, starting from the config's
/// defaults. Returns the config and the shared `--timings` switch.
fn flags<C: Default>(cmd: &Cmd<C>, args: &[String]) -> Result<(C, bool), String> {
    let (mut cfg, mut timings) = (C::default(), false);
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        if cmd.timed && arg == "--timings" {
            timings = true;
            continue;
        }
        let (name, meta, set) = cmd
            .flags
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = if meta.is_empty() {
            ""
        } else {
            i += 1;
            args.get(i - 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs {meta}"))?
        };
        set(&mut cfg, value).map_err(|want| format!("{name} needs {want}, got '{value}'"))?;
    }
    Ok((cfg, timings))
}

/// Splits `cmd`'s leading operand (if it takes one) off `args`, then
/// walks the flags. Errors carry the usage line.
fn parse<'a, C: Default>(cmd: &Cmd<C>, args: &'a [String]) -> Result<(&'a str, C, bool), String> {
    let usage = |e: String| format!("{e}\nusage: {}", cmd.usage());
    let (operand, rest) = match args.split_first() {
        _ if cmd.operand.is_empty() => ("", args),
        Some((o, rest)) if !o.starts_with("--") => (o.as_str(), rest),
        _ => return Err(usage(format!("{} needs {}", cmd.name, cmd.operand))),
    };
    let (cfg, timings) = flags(cmd, rest).map_err(usage)?;
    Ok((operand, cfg, timings))
}

/// Options of `sfc compile`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Target architecture.
    pub arch: Arch,
    /// Fusion policy.
    pub policy: FusionPolicy,
    /// Emit the SMG in Graphviz DOT.
    pub dot: bool,
    /// Profile the compiled program on the simulator.
    pub profile: bool,
    /// Execute numerically with random inputs of this seed and verify
    /// against the unfused reference.
    pub verify_seed: Option<u64>,
    /// Apply the streaming-variance rewrite before compiling.
    pub rewrite: bool,
    /// Emit Triton-style pseudo-code for each kernel.
    pub emit: bool,
    /// Worker threads for the execution engine's spatial block loop
    /// (`0` = auto).
    pub exec_threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            arch: Arch::Ampere,
            policy: FusionPolicy::SpaceFusion,
            dot: false,
            profile: false,
            verify_seed: None,
            rewrite: false,
            emit: false,
            exec_threads: 0,
        }
    }
}

const COMPILE: Cmd<Options> = Cmd {
    name: "compile",
    operand: "FILE",
    timed: true,
    flags: &[
        ("--arch", ARCH, |o, v| arch(v).map(|a| o.arch = a)),
        ("--policy", POLICY, |o, v| policy(v).map(|p| o.policy = p)),
        ("--dot", "", |o, _| on(&mut o.dot)),
        ("--profile", "", |o, _| on(&mut o.profile)),
        ("--verify", "SEED", |o, v| {
            seed(v).map(|s| o.verify_seed = Some(s))
        }),
        ("--rewrite", "", |o, _| on(&mut o.rewrite)),
        ("--emit", "", |o, _| on(&mut o.emit)),
        ("--exec-threads", "N|max", |o, v| {
            threads(v).map(|n| o.exec_threads = n)
        }),
    ],
};

/// Options of `sfc lint`.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Target architecture.
    pub arch: Arch,
    /// Fusion policy.
    pub policy: FusionPolicy,
    /// Emit machine-readable JSON instead of the table.
    pub json: bool,
    /// Treat warnings as lint failures.
    pub deny_warnings: bool,
    /// Per-code severity configuration (`--warn/--deny/--allow CODE`).
    pub config: VerifyConfig,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            arch: Arch::Ampere,
            policy: FusionPolicy::SpaceFusion,
            json: false,
            deny_warnings: false,
            config: VerifyConfig::default(),
        }
    }
}

const LINT: Cmd<LintOptions> = Cmd {
    name: "lint",
    operand: "FILE",
    timed: false,
    flags: &[
        ("--arch", ARCH, |o, v| arch(v).map(|a| o.arch = a)),
        ("--policy", POLICY, |o, v| policy(v).map(|p| o.policy = p)),
        ("--json", "", |o, _| on(&mut o.json)),
        ("--deny-warnings", "", |o, _| on(&mut o.deny_warnings)),
        ("--warn", "CODE", |o, v| {
            code(v).map(|c| o.config = std::mem::take(&mut o.config).warn(c))
        }),
        ("--deny", "CODE", |o, v| {
            code(v).map(|c| o.config = std::mem::take(&mut o.config).deny(c))
        }),
        ("--allow", "CODE", |o, v| {
            code(v).map(|c| o.config = std::mem::take(&mut o.config).allow(c))
        }),
    ],
};

const FUZZ: Cmd<sf_fuzz::FuzzOptions> = Cmd {
    name: "fuzz",
    operand: "",
    timed: true,
    flags: &[
        ("--seeds", "N", |o, v| count(v).map(|n| o.seeds = n)),
        ("--seed", "S", |o, v| seed(v).map(|s| o.seed0 = s)),
        ("--minimize", "", minimize),
        ("--corpus", "DIR", |o, v| {
            path(v).map(|p| o.corpus_dir = Some(p))
        }),
        ("--faults", "K", |o, v| count(v).map(|n| o.faults = n)),
        ("--arch", ARCH, |o, v| arch(v).map(|a| o.arch = a)),
    ],
};

/// `--minimize` writes its repros to `tests/corpus` unless `--corpus`
/// names another directory.
fn minimize(o: &mut sf_fuzz::FuzzOptions, _: &str) -> Result<(), String> {
    o.minimize = true;
    o.corpus_dir.get_or_insert_with(|| "tests/corpus".into());
    Ok(())
}

const FAULTSIM: Cmd<sf_fuzz::FaultSimOptions> = Cmd {
    name: "faultsim",
    operand: "",
    timed: true,
    flags: &[
        ("--seeds", "N", |o, v| count(v).map(|n| o.seeds = n)),
        ("--seed", "S", |o, v| seed(v).map(|s| o.seed0 = s)),
        ("--faults", "K", |o, v| count(v).map(|n| o.plans = n)),
        ("--arch", ARCH, |o, v| arch(v).map(|a| o.arch = a)),
    ],
};

#[cfg(unix)]
const SERVE: Cmd<ServeConfig> = Cmd {
    name: "serve",
    operand: "SOCKET",
    timed: false,
    flags: &[
        ("--workers", "N", |o, v| positive(v).map(|n| o.workers = n)),
        ("--queue-depth", "N", |o, v| {
            positive(v).map(|n| o.queue_depth = n)
        }),
        ("--exec-threads", "N|max", |o, v| {
            threads(v).map(|n| o.exec_threads = n)
        }),
        ("--snapshot", "FILE", |o, v| {
            path(v).map(|p| o.snapshot_path = Some(p))
        }),
        ("--session-timeout-ms", "MS", |o, v| {
            positive(v).map(|n| o.session_timeout_ms = n)
        }),
    ],
};

#[cfg(unix)]
const CHAOS: Cmd<spacefusion::serve::chaos::ChaosOptions> = Cmd {
    name: "chaos",
    operand: "SOCKET",
    timed: false,
    flags: &[
        ("--seeds", "N", |o, v| positive(v).map(|n| o.seeds = n)),
        ("--seed", "S", |o, v| seed(v).map(|s| o.seed0 = s)),
        ("--clients", "N", |o, v| positive(v).map(|n| o.clients = n)),
        ("--requests", "N", |o, v| {
            positive(v).map(|n| o.requests = n)
        }),
        ("--session-timeout-ms", "MS", |o, v| {
            positive(v).map(|n| o.session_timeout_ms = n)
        }),
    ],
};

const PRINT: Cmd<()> = Cmd {
    name: "print",
    operand: "FILE",
    timed: false,
    flags: &[],
};

/// Every subcommand's usage line.
fn usage() -> String {
    let lines = [
        COMPILE.usage(),
        LINT.usage(),
        FUZZ.usage(),
        FAULTSIM.usage(),
        #[cfg(unix)]
        SERVE.usage(),
        #[cfg(unix)]
        CHAOS.usage(),
        PRINT.usage(),
    ];
    format!("usage:\n  {}", lines.join("\n  "))
}

/// Reads and parses the graph FILE of `compile`, `lint` and `print`.
fn load(file: &str) -> Result<Graph, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    parse_graph(&src).map_err(|e| format!("{file}: {e}"))
}

/// Appends `sink`'s per-pass timing table to `out` under `--timings`.
fn with_timings(mut out: String, sink: &CollectingSink, timings: bool) -> String {
    if timings {
        let _ = writeln!(out, "\n{}", render_timings(&sink.events()).trim_end());
    }
    out
}

/// Runs one `sfc` command line (program name excluded).
///
/// Returns `(stdout, clean)`. `clean` is `false` when the command ran
/// but found a problem: a lint error, a fuzz or faultsim failure, or a
/// chaos hang, abort, mismatch or torn snapshot. `Err` is a bad command
/// line (with usage) or a failed run. The `fuzz`, `faultsim` and `chaos`
/// reports are deterministic for a given command line.
pub fn run(args: &[String]) -> Result<(String, bool), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| format!("no command\n{}", usage()))?;
    match cmd.as_str() {
        "compile" => {
            let (file, o, timings) = parse(&COMPILE, rest)?;
            Ok((compile_report(&load(file)?, &o, timings)?, true))
        }
        "lint" => {
            let (file, o, _) = parse(&LINT, rest)?;
            lint_report(&load(file)?, &o)
        }
        "print" => {
            let (file, (), _) = parse(&PRINT, rest)?;
            Ok((print_graph(&load(file)?), true))
        }
        "fuzz" => {
            let (_, o, timings) = parse(&FUZZ, rest)?;
            let sink = CollectingSink::new();
            let report = sf_fuzz::run_fuzz(&o, &sink);
            Ok((with_timings(report.render(), &sink, timings), report.ok()))
        }
        "faultsim" => {
            let (_, o, timings) = parse(&FAULTSIM, rest)?;
            let sink = CollectingSink::new();
            let report = sf_fuzz::run_faultsim(&o, &sink);
            Ok((with_timings(report.render(), &sink, timings), report.ok()))
        }
        #[cfg(unix)]
        "serve" => {
            let (socket, config, _) = parse(&SERVE, rest)?;
            Ok((serve(socket, config)?, true))
        }
        #[cfg(unix)]
        "chaos" => {
            let (socket, o, _) = parse(&CHAOS, rest)?;
            let opts = spacefusion::serve::chaos::ChaosOptions {
                socket: socket.into(),
                ..o
            };
            let r = spacefusion::serve::chaos::run(&opts).map_err(|e| e.to_string())?;
            let clean =
                r.hangs == 0 && r.aborts == 0 && r.mismatches == 0 && r.snapshot_corruptions == 0;
            Ok((r.text, clean))
        }
        #[cfg(not(unix))]
        "serve" | "chaos" => Err(format!("{cmd} requires Unix-domain sockets")),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// Runs `sfc serve`: bind the socket, warm-start the schedule cache
/// from the snapshot, and serve until a client sends `shutdown`.
///
/// Prints a banner once listening (so scripts can wait for readiness)
/// and returns the final counter summary.
#[cfg(unix)]
fn serve(socket: &str, config: ServeConfig) -> Result<String, String> {
    use std::io::Write as _;
    let (workers, queue) = (config.workers, config.queue_depth);
    let server =
        spacefusion::serve::Server::bind(socket.as_ref(), config).map_err(|e| e.to_string())?;
    let warm = server.core().stats();
    println!(
        "serve: listening on {socket} (workers {workers}, queue {queue}, warm_loaded {}, \
         warm_evicted {})",
        warm.warm_loaded, warm.warm_evicted
    );
    let _ = std::io::stdout().flush();
    let stats = server.run().map_err(|e| e.to_string())?;
    Ok(format!(
        "serve: done; requests {} ok {} errors {} sheds {} compiles {} hits {} \
         schedule_entries {} degradations {}\n",
        stats.requests,
        stats.ok,
        stats.errors,
        stats.sheds,
        stats.program_compiles,
        stats.program_hits,
        stats.schedule_entries,
        stats.degradations
    ))
}

/// Runs `sfc lint`: compile `graph` and run the static verifier over the
/// result.
///
/// Returns `(report, clean)`; `clean` is `false` when any error-level
/// diagnostic survives (or any warning under `--deny-warnings`).
pub fn lint_report(graph: &Graph, o: &LintOptions) -> Result<(String, bool), String> {
    // Disable the in-pipeline verifier: lint collects the diagnostics
    // itself so it can render all of them instead of failing on the
    // first error.
    let opts = CompileOptions {
        verify: false,
        ..CompileOptions::for_policy(o.policy)
    };
    let program = CompileSession::new(o.arch, opts)
        .compile(graph)
        .map_err(|e| e.to_string())?;
    let diags = verify_program(&program.kernels, &program.arch, &o.config);
    let (errors, warnings) = counts(&diags);
    let clean = errors == 0 && (!o.deny_warnings || warnings == 0);
    let kernels = program.kernels.len();
    let proven = program
        .kernels
        .iter()
        .filter(|k| k.disjoint.is_proven())
        .count();

    if o.json {
        let n = |x: usize| Json::Num(x as f64);
        let doc = Json::obj(vec![
            ("model", Json::Str(graph.name().to_string())),
            ("arch", Json::Str(o.arch.to_string())),
            ("kernels", n(kernels)),
            ("errors", n(errors)),
            ("warnings", n(warnings)),
            ("degradations", n(program.stats.degradations.len())),
            ("lockfree_proven", n(proven)),
            (
                "serial_fallbacks",
                n(program.stats.lockfree_fallbacks.len()),
            ),
            ("clean", Json::Bool(clean)),
            (
                "diagnostics",
                Json::Arr(diags.iter().map(diagnostic_json).collect()),
            ),
        ]);
        return Ok((doc.render() + "\n", clean));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "lint '{}' for {}: {kernels} kernel(s), {} check(s)",
        graph.name(),
        o.arch,
        DiagCode::all().len()
    );
    for step in &program.stats.degradations {
        let _ = writeln!(out, "degraded {}", step.render());
    }
    let _ = writeln!(
        out,
        "disjointness: {proven}/{kernels} kernel(s) proven lock-free"
    );
    for (kernel, reason) in &program.stats.lockfree_fallbacks {
        let _ = writeln!(out, "serial-fallback {kernel}: {reason}");
    }
    if diags.is_empty() {
        let _ = writeln!(out, "clean: no diagnostics");
    } else {
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:<20} {:<18} message",
            "code", "level", "kernel", "span"
        );
        for d in &diags {
            let _ = writeln!(
                out,
                "{:<8} {:<8} {:<20} {:<18} {}",
                d.code.code(),
                d.severity.to_string(),
                d.kernel,
                d.span.to_string(),
                d.message
            );
        }
        let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    }
    Ok((out, clean))
}

/// One `lint --json` diagnostic.
fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::obj(vec![
        ("code", Json::Str(d.code.to_string())),
        ("severity", Json::Str(d.severity.to_string())),
        ("kernel", Json::Str(d.kernel.clone())),
        ("span", Json::Str(d.span.to_string())),
        ("message", Json::Str(d.message.clone())),
    ])
}

/// Runs `sfc compile`: compile, report, optionally verify and profile;
/// `timings` adds the per-pass timing table.
pub fn compile_report(graph: &Graph, o: &Options, timings: bool) -> Result<String, String> {
    let mut out = String::new();

    let graph = if o.rewrite {
        match spacefusion::rewrite::streaming_variance(graph) {
            Some(g) => {
                let _ = writeln!(out, "applied streaming-variance rewrite");
                g
            }
            None => graph.clone(),
        }
    } else {
        graph.clone()
    };

    if o.dot {
        let smg = build_smg(&graph).map_err(|e| e.to_string())?;
        return Ok(smg.to_dot(&graph));
    }

    let opts = CompileOptions::for_policy(o.policy);
    let sink = Arc::new(CollectingSink::new());
    let session = CompileSession::new(o.arch, opts).with_sink(sink.clone());
    let program = session.compile(&graph).map_err(|e| e.to_string())?;

    let _ = writeln!(
        out,
        "compiled '{}' for {}: {} operator(s) -> {} kernel(s)",
        graph.name(),
        o.arch,
        graph.ops().len(),
        program.kernels.len()
    );
    for kp in &program.kernels {
        let s = &kp.schedule;
        let _ = writeln!(
            out,
            "  kernel {:<28} ops={:<2} grid={:<6} smem={:>4} KiB regs={:>4} KiB",
            kp.name,
            kp.graph.ops().len(),
            s.grid() * graph.instances as u64,
            s.smem_per_block(&kp.graph) >> 10,
            s.regs_per_block(&kp.graph) >> 10,
        );
        if let Some(t) = &s.temporal {
            let split = t.split.as_ref().map_or(String::new(), |sp| {
                format!(", split-K {} partitions", sp.partitions)
            });
            let _ = writeln!(
                out,
                "    temporal: block {} over extent {}, two-phase {}{split}",
                t.block,
                s.smg.extent(t.plan.dim),
                t.plan.two_phase
            );
            for r in &t.plan.sliced {
                let name = kp.graph.ops()[r.op.0].kind.name();
                match &r.agg {
                    AggKind::Simple => {
                        let _ = writeln!(out, "      {name}: Simple Aggregate");
                    }
                    AggKind::Uta(f) => {
                        let _ = writeln!(out, "      {name}: UTA with {} factor(s)", f.len());
                    }
                }
            }
        }
        let in_loop = kp.roles.iter().filter(|r| **r == OpRole::InLoop).count();
        let post = kp.roles.iter().filter(|r| **r == OpRole::PostLoop).count();
        if post > 0 {
            let _ = writeln!(out, "    {in_loop} in-loop op(s), {post} post-loop op(s)");
        }
    }
    for step in &program.stats.degradations {
        let _ = writeln!(out, "  degraded {}", step.render());
    }
    for (kernel, reason) in &program.stats.lockfree_fallbacks {
        let _ = writeln!(out, "  serial-fallback {kernel}: {reason}");
    }

    let mut out = with_timings(out, &sink, timings);

    if o.emit {
        for kp in &program.kernels {
            let _ = writeln!(out, "\n{}", spacefusion::codegen::emit_pseudocode(kp));
        }
    }

    if let Some(seed) = o.verify_seed {
        let bindings = graph.random_bindings(seed);
        let expect = graph.execute(&bindings).map_err(|e| e.to_string())?;
        let got = program
            .execute_with(
                &bindings,
                &spacefusion::codegen::ExecOptions::with_threads(o.exec_threads),
            )
            .map_err(|e| e.to_string())?;
        let mut worst = 0.0f32;
        for (a, b) in got.iter().zip(expect.iter()) {
            worst = worst.max(a.max_abs_diff(b).unwrap_or(f32::INFINITY));
        }
        let _ = writeln!(
            out,
            "verify(seed={seed}): max |fused - reference| = {worst:.3e}"
        );
        if worst > 1e-2 {
            return Err(format!("verification FAILED: diff {worst}"));
        }
    }

    if o.profile {
        for kp in &program.kernels {
            let occ = sf_gpu_sim::occupancy(
                &program.arch,
                kp.schedule.grid() * program.instances as u64,
                kp.schedule.smem_per_block(&kp.graph),
                kp.schedule.regs_per_block(&kp.graph),
            );
            let _ = writeln!(
                out,
                "occupancy {}: {} block(s)/SM, {} wave(s)",
                kp.name, occ.blocks_per_sm, occ.waves
            );
        }
        let r = program.profile(2);
        let _ = writeln!(
            out,
            "profile: {:.1} us, DRAM {:.2} MiB (read {:.2} / write {:.2}), L1 miss {:.1}%, L2 miss {:.1}%",
            r.time_us,
            r.stats.dram_total_bytes() as f64 / (1 << 20) as f64,
            r.stats.dram_read_bytes as f64 / (1 << 20) as f64,
            r.stats.dram_write_bytes as f64 / (1 << 20) as f64,
            100.0 * r.stats.l1_misses as f64 / r.stats.l1_accesses.max(1) as f64,
            100.0 * r.stats.l2_misses as f64 / r.stats.l2_accesses.max(1) as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spacefusion::serve::json;

    const LN: &str = "\
graph ln f16
input x [64, 2048]
weight w [1, 2048]
weight b [1, 2048]
mean = reduce_mean x dim=1
c = sub x mean
sq = sqr c
var = reduce_mean sq dim=1
veps = add_scalar var 1e-5
std = sqrt veps
norm = div c std
sc = mul norm w
y = add sc b
output y
";

    #[test]
    fn option_parsing() {
        let args: Vec<String> = ["--arch", "hopper", "--policy", "mi-only", "--profile"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (o, _) = flags(&COMPILE, &args).unwrap();
        assert_eq!(o.arch, Arch::Hopper);
        assert_eq!(o.policy, FusionPolicy::MiOnly);
        assert!(o.profile);
        assert!(flags(&COMPILE, &["--bogus".to_string()]).is_err());
        assert!(flags(&COMPILE, &["--arch".to_string(), "mars".to_string()]).is_err());
    }

    #[test]
    fn exec_threads_parsing() {
        let args: Vec<String> = ["--exec-threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flags(&COMPILE, &args).unwrap().0.exec_threads, 4);
        let args: Vec<String> = ["--exec-threads", "max"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flags(&COMPILE, &args).unwrap().0.exec_threads, 0);
        assert!(flags(&COMPILE, &["--exec-threads".to_string()]).is_err());
        assert!(flags(
            &COMPILE,
            &["--exec-threads".to_string(), "soon".to_string()]
        )
        .is_err());
    }

    #[test]
    fn compile_report_covers_layernorm() {
        let g = parse_graph(LN).unwrap();
        let o = Options {
            profile: true,
            verify_seed: Some(3),
            ..Default::default()
        };
        let report = compile_report(&g, &o, false).unwrap();
        assert!(report.contains("1 kernel(s)"));
        assert!(report.contains("verify(seed=3)"));
        assert!(report.contains("profile:"));
    }

    #[test]
    fn emit_flag_prints_pseudocode() {
        let g = parse_graph(LN).unwrap();
        let o = Options {
            emit: true,
            ..Default::default()
        };
        let report = compile_report(&g, &o, false).unwrap();
        assert!(report.contains("parallel_for block"));
        assert!(report.contains("store("));
    }

    #[test]
    fn timings_flag_reports_every_fig9_pass() {
        // A row too wide for on-chip residence forces partitioning, so
        // even the fallback pass appears in the table.
        let wide = LN.replace("2048", "65536");
        let g = parse_graph(&wide).unwrap();
        let report = compile_report(&g, &Options::default(), true).unwrap();
        for pass in [
            "segment",
            "group",
            "cache-lookup",
            "smg-build",
            "spatial-slice",
            "temporal-slice",
            "enum-cfg",
            "partition",
            "tune",
            "emit",
            "verify",
        ] {
            assert!(report.contains(pass), "missing pass '{pass}' in:\n{report}");
        }
        assert!(report.contains("schedule cache:"), "{report}");
    }

    #[test]
    #[cfg(unix)]
    fn serve_option_parsing() {
        let args: Vec<String> = [
            "/tmp/sfc.sock",
            "--workers",
            "2",
            "--queue-depth",
            "8",
            "--exec-threads",
            "max",
            "--snapshot",
            "/tmp/cache.sfcache",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (socket, o, _) = parse(&SERVE, &args).unwrap();
        assert_eq!(socket, "/tmp/sfc.sock");
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue_depth, 8);
        assert_eq!(o.exec_threads, 0);
        assert_eq!(
            o.snapshot_path,
            Some(std::path::PathBuf::from("/tmp/cache.sfcache"))
        );
        assert!(parse(&SERVE, &[]).is_err(), "socket path required");
        assert!(parse(&SERVE, &["--workers".to_string()]).is_err());
        assert!(
            parse(
                &SERVE,
                &[
                    "s.sock".to_string(),
                    "--workers".to_string(),
                    "0".to_string()
                ]
            )
            .is_err(),
            "zero workers rejected"
        );
        assert!(parse(&SERVE, &["s.sock".to_string(), "--bogus".to_string()]).is_err());
        // Session timeout: defaults to 30 s, flag overrides, zero rejected.
        assert_eq!(o.session_timeout_ms, 30_000);
        let (_, o, _) = parse(
            &SERVE,
            &[
                "s.sock".to_string(),
                "--session-timeout-ms".to_string(),
                "250".to_string(),
            ],
        )
        .unwrap();
        assert_eq!(o.session_timeout_ms, 250);
        assert!(parse(
            &SERVE,
            &[
                "s.sock".to_string(),
                "--session-timeout-ms".to_string(),
                "0".to_string()
            ]
        )
        .is_err());
    }

    #[test]
    #[cfg(unix)]
    fn chaos_option_parsing() {
        let args: Vec<String> = [
            "/tmp/sfc-chaos.sock",
            "--seeds",
            "50",
            "--seed",
            "7",
            "--clients",
            "2",
            "--requests",
            "3",
            "--session-timeout-ms",
            "150",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (socket, o, _) = parse(&CHAOS, &args).unwrap();
        assert_eq!(socket, "/tmp/sfc-chaos.sock");
        assert_eq!(o.seeds, 50);
        assert_eq!(o.seed0, 7);
        assert_eq!(o.clients, 2);
        assert_eq!(o.requests, 3);
        assert_eq!(o.session_timeout_ms, 150);
        // Defaults.
        let (_, o, _) = parse(&CHAOS, &["c.sock".to_string()]).unwrap();
        assert_eq!(o.seeds, 25);
        assert_eq!(o.seed0, 0);
        assert_eq!(o.clients, 3);
        assert_eq!(o.requests, 4);
        assert_eq!(o.session_timeout_ms, 200);
        assert!(parse(&CHAOS, &[]).is_err(), "socket path required");
        assert!(parse(&CHAOS, &["--seeds".to_string()]).is_err());
        assert!(parse(
            &CHAOS,
            &["c.sock".to_string(), "--seeds".to_string(), "0".to_string()]
        )
        .is_err());
        assert!(parse(&CHAOS, &["c.sock".to_string(), "--bogus".to_string()]).is_err());
    }

    #[test]
    fn faultsim_option_parsing() {
        let args: Vec<String> = [
            "--seeds", "12", "--seed", "3", "--faults", "4", "--arch", "volta",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (o, _) = flags(&FAULTSIM, &args).unwrap();
        assert_eq!(o.seeds, 12);
        assert_eq!(o.seed0, 3);
        assert_eq!(o.plans, 4);
        assert_eq!(o.arch, Arch::Volta);
        assert!(flags(&FAULTSIM, &["--faults".to_string()]).is_err());
        assert!(flags(&FAULTSIM, &["--bogus".to_string()]).is_err());
    }

    #[test]
    fn fuzz_faults_flag_parses() {
        let args: Vec<String> = ["--seeds", "5", "--faults", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (o, _) = flags(&FUZZ, &args).unwrap();
        assert_eq!(o.seeds, 5);
        assert_eq!(o.faults, 2);
    }

    #[test]
    fn faultsim_report_runs_clean() {
        let args: Vec<String> = ["faultsim", "--seeds", "5", "--faults", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (report, clean) = run(&args).unwrap();
        assert!(clean, "{report}");
        assert!(report.contains("faultsim: 5 plan(s)"), "{report}");
        assert!(report.contains("0 abort(s)"), "{report}");
    }

    #[test]
    fn lint_option_parsing() {
        let args: Vec<String> = [
            "--arch",
            "volta",
            "--json",
            "--deny-warnings",
            "--warn",
            "res201",
            "--allow",
            "BND402",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (o, _) = flags(&LINT, &args).unwrap();
        assert_eq!(o.arch, Arch::Volta);
        assert!(o.json && o.deny_warnings);
        assert_eq!(o.config.levels.len(), 1);
        assert_eq!(
            o.config.allowed,
            vec![spacefusion::verify::DiagCode::BndTileOutOfBounds]
        );
        assert!(flags(&LINT, &["--warn".into(), "NOPE99".into()]).is_err());
    }

    #[test]
    fn lint_report_is_clean_on_layernorm() {
        let g = parse_graph(LN).unwrap();
        let (report, clean) = lint_report(&g, &LintOptions::default()).unwrap();
        assert!(clean, "{report}");
        assert!(report.contains("clean: no diagnostics"), "{report}");
    }

    #[test]
    fn lint_json_output_is_machine_readable() {
        let g = parse_graph(LN).unwrap();
        let o = LintOptions {
            json: true,
            ..Default::default()
        };
        let (report, clean) = lint_report(&g, &o).unwrap();
        assert!(clean, "{report}");
        let doc = json::parse(&report).unwrap();
        assert_eq!(doc.get("model").and_then(Json::as_str), Some("ln"));
        assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("diagnostics").and_then(Json::as_arr), Some(&[][..]));
        // A message with a quote, a backslash and a newline round-trips.
        let d = Diagnostic::new(
            DiagCode::BndTileOutOfBounds,
            spacefusion::verify::Span::Kernel,
            "tile \"t0\" at C:\\tmp\nsecond line",
        );
        let back = json::parse(&diagnostic_json(&d).render()).unwrap();
        assert_eq!(
            back.get("message").and_then(Json::as_str),
            Some(&*d.message)
        );
        assert_eq!(back.get("code").and_then(Json::as_str), Some("BND402"));
    }

    #[test]
    fn dot_output_mode() {
        let g = parse_graph(LN).unwrap();
        let o = Options {
            dot: true,
            ..Default::default()
        };
        let report = compile_report(&g, &o, false).unwrap();
        assert!(report.starts_with("digraph"));
    }

    #[test]
    fn rewrite_flag_changes_the_schedule() {
        // A row too wide for on-chip residence: only the rewritten,
        // streaming form can be temporally sliced.
        let wide = LN.replace("2048", "65536");
        let g = parse_graph(&wide).unwrap();
        let plain = compile_report(&g, &Options::default(), false).unwrap();
        let rewritten = compile_report(
            &g,
            &Options {
                rewrite: true,
                ..Default::default()
            },
            false,
        )
        .unwrap();
        // Unrewritten: the fused region does not fit on chip and the
        // variance chain defeats the temporal slicer, so the compiler
        // must partition into several kernels.
        assert!(!plain.contains("-> 1 kernel(s)"), "{plain}");
        // Rewritten: one streaming kernel with temporal slicing.
        assert!(rewritten.contains("applied streaming-variance rewrite"));
        assert!(rewritten.contains("-> 1 kernel(s)"), "{rewritten}");
        assert!(rewritten.contains("temporal:"), "{rewritten}");
    }
}
