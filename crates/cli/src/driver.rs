//! The `sfc` subcommands.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use spacefusion::compiler::{CompileOptions, FusionPolicy};
use spacefusion::pipeline::{render_timings, CollectingSink, CompileSession};
use spacefusion::sched::OpRole;
use spacefusion::slicer::AggKind;
use spacefusion::smg::build_smg;
use spacefusion::verify::{counts, verify_program, DiagCode, VerifyConfig};
use std::sync::Arc;

/// Parsed command-line options.
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
    /// Print the per-pass timing table from the instrumentation events.
    pub timings: bool,
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
            timings: false,
            exec_threads: 0,
        }
    }
}

/// Parses the value of an `--arch` flag.
fn arch_arg(args: &[String], i: usize) -> Result<Arch, String> {
    let s = args.get(i).map(|s| s.as_str()).unwrap_or("<missing>");
    Arch::parse(s).ok_or_else(|| format!("unknown --arch '{s}' (volta|ampere|hopper)"))
}

/// Parses the value of a `--policy` flag.
fn policy_arg(args: &[String], i: usize) -> Result<FusionPolicy, String> {
    let s = args.get(i).map(|s| s.as_str()).unwrap_or("<missing>");
    FusionPolicy::parse(s).ok_or_else(|| {
        format!("unknown --policy '{s}' (spacefusion|unfused|epilogue|mi-only|tile-graph)")
    })
}

/// Parses `--flag value` style arguments.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--arch" => {
                i += 1;
                o.arch = arch_arg(args, i)?;
            }
            "--policy" => {
                i += 1;
                o.policy = policy_arg(args, i)?;
            }
            "--dot" => o.dot = true,
            "--profile" => o.profile = true,
            "--verify" => {
                i += 1;
                o.verify_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--verify needs a seed")?,
                );
            }
            "--rewrite" => o.rewrite = true,
            "--emit" => o.emit = true,
            "--timings" => o.timings = true,
            "--exec-threads" => {
                i += 1;
                o.exec_threads = match args.get(i).map(|s| s.as_str()) {
                    Some("max") => 0,
                    Some(n) => n
                        .parse()
                        .map_err(|_| "--exec-threads needs a count or 'max'".to_string())?,
                    None => return Err("--exec-threads needs a count or 'max'".into()),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

/// Parsed options of `sfc lint`.
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

/// Parses `sfc lint` flags.
pub fn parse_lint_options(args: &[String]) -> Result<LintOptions, String> {
    let mut o = LintOptions::default();
    let code_arg = |args: &[String], i: usize, flag: &str| -> Result<DiagCode, String> {
        let s = args
            .get(i)
            .ok_or_else(|| format!("{flag} needs a diagnostic code"))?;
        DiagCode::parse(s).ok_or_else(|| format!("unknown diagnostic code '{s}'"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--arch" => {
                i += 1;
                o.arch = arch_arg(args, i)?;
            }
            "--policy" => {
                i += 1;
                o.policy = policy_arg(args, i)?;
            }
            "--json" => o.json = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--warn" => {
                i += 1;
                o.config = o.config.warn(code_arg(args, i, "--warn")?);
            }
            "--deny" => {
                i += 1;
                o.config = o.config.deny(code_arg(args, i, "--deny")?);
            }
            "--allow" => {
                i += 1;
                o.config = o.config.allow(code_arg(args, i, "--allow")?);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

/// Runs `sfc lint`: compile `graph` and run the static verifier over the
/// result.
///
/// Returns `(report, clean)`; `clean` is `false` when any error-level
/// diagnostic survives (or any warning under `--deny-warnings`), which
/// `main` turns into a failing exit code.
pub fn lint_report(graph: &Graph, o: &LintOptions) -> Result<(String, bool), String> {
    use std::fmt::Write as _;

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

    let mut out = String::new();
    if o.json {
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"model\": \"{}\",", json_escape(graph.name()));
        let _ = writeln!(out, "  \"arch\": \"{}\",", o.arch);
        let _ = writeln!(out, "  \"kernels\": {},", program.kernels.len());
        let _ = writeln!(out, "  \"errors\": {errors},");
        let _ = writeln!(out, "  \"warnings\": {warnings},");
        let _ = writeln!(
            out,
            "  \"degradations\": {},",
            program.stats.degradations.len()
        );
        let _ = writeln!(
            out,
            "  \"lockfree_proven\": {},",
            program
                .kernels
                .iter()
                .filter(|k| k.disjoint.is_proven())
                .count()
        );
        let _ = writeln!(
            out,
            "  \"serial_fallbacks\": {},",
            program.stats.lockfree_fallbacks.len()
        );
        let _ = writeln!(out, "  \"clean\": {clean},");
        let _ = writeln!(out, "  \"diagnostics\": [");
        for (i, d) in diags.iter().enumerate() {
            let comma = if i + 1 < diags.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"code\": \"{}\", \"severity\": \"{}\", \"kernel\": \"{}\", \
                 \"span\": \"{}\", \"message\": \"{}\"}}{comma}",
                d.code,
                d.severity,
                json_escape(&d.kernel),
                json_escape(&d.span.to_string()),
                json_escape(&d.message)
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        return Ok((out, clean));
    }

    let _ = writeln!(
        out,
        "lint '{}' for {}: {} kernel(s), {} check(s)",
        graph.name(),
        o.arch,
        program.kernels.len(),
        DiagCode::all().len()
    );
    for step in &program.stats.degradations {
        let _ = writeln!(out, "degraded {}", step.render());
    }
    let proven = program
        .kernels
        .iter()
        .filter(|k| k.disjoint.is_proven())
        .count();
    let _ = writeln!(
        out,
        "disjointness: {proven}/{} kernel(s) proven lock-free",
        program.kernels.len()
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

/// Parsed options of `sfc fuzz`.
#[derive(Debug, Clone, Default)]
pub struct FuzzOptions {
    /// Campaign configuration handed to [`sf_fuzz::run_fuzz`].
    pub fuzz: sf_fuzz::FuzzOptions,
    /// Print the per-pass timing table after the report.
    pub timings: bool,
}

/// Parses `sfc fuzz` flags.
pub fn parse_fuzz_options(args: &[String]) -> Result<FuzzOptions, String> {
    let mut o = FuzzOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                o.fuzz.seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seeds needs a count")?;
            }
            "--seed" => {
                i += 1;
                o.fuzz.seed0 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a starting seed")?;
            }
            "--minimize" => o.fuzz.minimize = true,
            "--corpus" => {
                i += 1;
                o.fuzz.corpus_dir = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .ok_or("--corpus needs a directory")?,
                );
            }
            "--arch" => {
                i += 1;
                o.fuzz.arch = arch_arg(args, i)?;
            }
            "--faults" => {
                i += 1;
                o.fuzz.faults = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--faults needs a plan count")?;
            }
            "--timings" => o.timings = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if o.fuzz.minimize && o.fuzz.corpus_dir.is_none() {
        o.fuzz.corpus_dir = Some(std::path::PathBuf::from("tests/corpus"));
    }
    Ok(o)
}

/// Parsed options of `sfc faultsim`.
#[derive(Debug, Clone, Default)]
pub struct FaultSimOptions {
    /// Sweep configuration handed to [`sf_fuzz::run_faultsim`].
    pub sim: sf_fuzz::FaultSimOptions,
    /// Print the per-pass timing table after the report.
    pub timings: bool,
}

/// Parses `sfc faultsim` flags.
pub fn parse_faultsim_options(args: &[String]) -> Result<FaultSimOptions, String> {
    let mut o = FaultSimOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                o.sim.seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seeds needs a count")?;
            }
            "--seed" => {
                i += 1;
                o.sim.seed0 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a starting seed")?;
            }
            "--faults" => {
                i += 1;
                o.sim.plans = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--faults needs a plan count")?;
            }
            "--arch" => {
                i += 1;
                o.sim.arch = arch_arg(args, i)?;
            }
            "--timings" => o.timings = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

/// Runs `sfc faultsim`: a deterministic fault-injection sweep proving
/// that every injected fault (panic, cache poison, forced
/// infeasibility, worker crash, deadline expiry) either recovers or
/// degrades to output bit-identical to the unfused reference.
///
/// Returns `(report, clean)`; `clean` is `false` on any abort or
/// bitwise divergence.
pub fn faultsim_report(o: &FaultSimOptions) -> (String, bool) {
    use std::fmt::Write as _;
    let sink = Arc::new(CollectingSink::new());
    let report = sf_fuzz::run_faultsim(&o.sim, sink.as_ref());
    let mut out = report.render();
    if o.timings {
        let _ = writeln!(out, "\n{}", render_timings(&sink.events()).trim_end());
    }
    (out, report.ok())
}

/// Runs `sfc fuzz`: a differential fuzzing campaign over generated
/// graphs (see `sf_fuzz`).
///
/// Returns `(report, clean)`; `clean` is `false` when any seed failed
/// (compile error, verifier error, execution error, or divergence from
/// the reference interpreter). The report text is deterministic for a
/// given flag set: timings go only to the event sink, so two runs with
/// the same `--seeds/--seed` produce byte-identical output.
pub fn fuzz_report(o: &FuzzOptions) -> (String, bool) {
    use std::fmt::Write as _;
    let sink = Arc::new(CollectingSink::new());
    let report = sf_fuzz::run_fuzz(&o.fuzz, sink.as_ref());
    let mut out = report.render();
    if o.timings {
        let _ = writeln!(out, "\n{}", render_timings(&sink.events()).trim_end());
    }
    (out, report.ok())
}

/// Parsed options of `sfc serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: std::path::PathBuf,
    /// Compile worker threads.
    pub workers: usize,
    /// Bounded admission queue depth.
    pub queue_depth: usize,
    /// Execution threads per request (`0` = auto).
    pub exec_threads: usize,
    /// Schedule-cache snapshot file (loaded at start, saved at
    /// shutdown).
    pub snapshot: Option<std::path::PathBuf>,
    /// Per-session socket read/write timeout, ms (stalled or idle
    /// clients are reaped after this long).
    pub session_timeout_ms: u64,
}

/// Parses `sfc serve SOCKET [flags]`.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let (socket, flags) = args
        .split_first()
        .ok_or("serve needs a socket path: sfc serve SOCKET [flags]")?;
    if socket.starts_with("--") {
        return Err(format!("serve needs a socket path, got flag '{socket}'"));
    }
    let mut o = ServeOptions {
        socket: std::path::PathBuf::from(socket),
        workers: 4,
        queue_depth: 64,
        exec_threads: 0,
        snapshot: None,
        session_timeout_ms: 30_000,
    };
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--workers" => {
                i += 1;
                o.workers = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--workers needs a positive count")?;
            }
            "--queue-depth" => {
                i += 1;
                o.queue_depth = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--queue-depth needs a positive count")?;
            }
            "--exec-threads" => {
                i += 1;
                o.exec_threads = match flags.get(i).map(|s| s.as_str()) {
                    Some("max") => 0,
                    Some(n) => n
                        .parse()
                        .map_err(|_| "--exec-threads needs a count or 'max'".to_string())?,
                    None => return Err("--exec-threads needs a count or 'max'".into()),
                };
            }
            "--snapshot" => {
                i += 1;
                o.snapshot = Some(
                    flags
                        .get(i)
                        .map(std::path::PathBuf::from)
                        .ok_or("--snapshot needs a file path")?,
                );
            }
            "--session-timeout-ms" => {
                i += 1;
                o.session_timeout_ms = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or("--session-timeout-ms needs a positive count")?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

/// Runs `sfc serve`: bind the socket, warm-start the schedule cache
/// from the snapshot, and serve until a client sends `shutdown`.
///
/// Prints a banner once listening (so scripts can wait for readiness)
/// and returns the final counter summary.
#[cfg(unix)]
pub fn serve_run(o: &ServeOptions) -> Result<String, String> {
    use spacefusion::serve::{ServeConfig, Server};
    use std::io::Write as _;
    let config = ServeConfig {
        workers: o.workers,
        queue_depth: o.queue_depth,
        exec_threads: o.exec_threads,
        snapshot_path: o.snapshot.clone(),
        session_timeout_ms: o.session_timeout_ms,
        faults: None,
    };
    let server = Server::bind(&o.socket, config).map_err(|e| e.to_string())?;
    let warm = server.core().stats();
    println!(
        "serve: listening on {} (workers {}, queue {}, warm_loaded {}, warm_evicted {})",
        o.socket.display(),
        o.workers,
        o.queue_depth,
        warm.warm_loaded,
        warm.warm_evicted
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

/// Parsed options of `sfc chaos`.
#[derive(Debug, Clone)]
pub struct ChaosCliOptions {
    /// Unix-domain socket path the per-seed daemons bind.
    pub socket: std::path::PathBuf,
    /// Number of seeded fault plans.
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Concurrent clients per seed.
    pub clients: usize,
    /// Requests per client per seed.
    pub requests: usize,
    /// Per-session watchdog timeout, ms.
    pub session_timeout_ms: u64,
}

/// Parses `sfc chaos SOCKET [flags]`.
pub fn parse_chaos_options(args: &[String]) -> Result<ChaosCliOptions, String> {
    let (socket, flags) = args
        .split_first()
        .ok_or("chaos needs a socket path: sfc chaos SOCKET [flags]")?;
    if socket.starts_with("--") {
        return Err(format!("chaos needs a socket path, got flag '{socket}'"));
    }
    let mut o = ChaosCliOptions {
        socket: std::path::PathBuf::from(socket),
        seeds: 25,
        seed0: 0,
        clients: 3,
        requests: 4,
        session_timeout_ms: 200,
    };
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--seeds" => {
                i += 1;
                o.seeds = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or("--seeds needs a positive count")?;
            }
            "--seed" => {
                i += 1;
                o.seed0 = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--clients" => {
                i += 1;
                o.clients = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--clients needs a positive count")?;
            }
            "--requests" => {
                i += 1;
                o.requests = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--requests needs a positive count")?;
            }
            "--session-timeout-ms" => {
                i += 1;
                o.session_timeout_ms = flags
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or("--session-timeout-ms needs a positive count")?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

/// Runs `sfc chaos`: a seeded fault campaign against per-seed daemons.
///
/// Returns `(report, clean)`; `clean` is `false` on any hang, daemon
/// abort, checksum mismatch, or snapshot corruption. The report is
/// deterministic for a fixed seed range.
#[cfg(unix)]
pub fn chaos_report(o: &ChaosCliOptions) -> Result<(String, bool), String> {
    use spacefusion::serve::chaos;
    let report = chaos::run(&chaos::ChaosOptions {
        socket: o.socket.clone(),
        seeds: o.seeds,
        seed0: o.seed0,
        clients: o.clients,
        requests: o.requests,
        session_timeout_ms: o.session_timeout_ms,
    })
    .map_err(|e| e.to_string())?;
    let clean = report.hangs == 0
        && report.aborts == 0
        && report.mismatches == 0
        && report.snapshot_corruptions == 0;
    Ok((report.text, clean))
}

/// Minimal JSON string escaping.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs `sfc compile`: compile, report, optionally verify and profile.
///
/// Returns the report text (also printed by `main`).
pub fn compile_report(graph: &Graph, o: &Options) -> Result<String, String> {
    use std::fmt::Write as _;
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

    if o.timings {
        let _ = writeln!(out, "\n{}", render_timings(&sink.events()).trim_end());
    }

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
    use crate::parser::parse_graph;

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
        let o = parse_options(&args).unwrap();
        assert_eq!(o.arch, Arch::Hopper);
        assert_eq!(o.policy, FusionPolicy::MiOnly);
        assert!(o.profile);
        assert!(parse_options(&["--bogus".to_string()]).is_err());
        assert!(parse_options(&["--arch".to_string(), "mars".to_string()]).is_err());
    }

    #[test]
    fn exec_threads_parsing() {
        let args: Vec<String> = ["--exec-threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_options(&args).unwrap().exec_threads, 4);
        let args: Vec<String> = ["--exec-threads", "max"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_options(&args).unwrap().exec_threads, 0);
        assert!(parse_options(&["--exec-threads".to_string()]).is_err());
        assert!(parse_options(&["--exec-threads".to_string(), "soon".to_string()]).is_err());
    }

    #[test]
    fn compile_report_covers_layernorm() {
        let g = parse_graph(LN).unwrap();
        let o = Options {
            profile: true,
            verify_seed: Some(3),
            ..Default::default()
        };
        let report = compile_report(&g, &o).unwrap();
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
        let report = compile_report(&g, &o).unwrap();
        assert!(report.contains("parallel_for block"));
        assert!(report.contains("store("));
    }

    #[test]
    fn timings_flag_reports_every_fig9_pass() {
        // A row too wide for on-chip residence forces partitioning, so
        // even the fallback pass appears in the table.
        let wide = LN.replace("2048", "65536");
        let g = parse_graph(&wide).unwrap();
        let o = Options {
            timings: true,
            ..Default::default()
        };
        let report = compile_report(&g, &o).unwrap();
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
        let o = parse_serve_options(&args).unwrap();
        assert_eq!(o.socket, std::path::PathBuf::from("/tmp/sfc.sock"));
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue_depth, 8);
        assert_eq!(o.exec_threads, 0);
        assert_eq!(
            o.snapshot,
            Some(std::path::PathBuf::from("/tmp/cache.sfcache"))
        );
        assert!(parse_serve_options(&[]).is_err(), "socket path required");
        assert!(parse_serve_options(&["--workers".to_string()]).is_err());
        assert!(
            parse_serve_options(&[
                "s.sock".to_string(),
                "--workers".to_string(),
                "0".to_string()
            ])
            .is_err(),
            "zero workers rejected"
        );
        assert!(parse_serve_options(&["s.sock".to_string(), "--bogus".to_string()]).is_err());
        // Session timeout: defaults to 30 s, flag overrides, zero rejected.
        assert_eq!(o.session_timeout_ms, 30_000);
        let o = parse_serve_options(&[
            "s.sock".to_string(),
            "--session-timeout-ms".to_string(),
            "250".to_string(),
        ])
        .unwrap();
        assert_eq!(o.session_timeout_ms, 250);
        assert!(parse_serve_options(&[
            "s.sock".to_string(),
            "--session-timeout-ms".to_string(),
            "0".to_string()
        ])
        .is_err());
    }

    #[test]
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
        let o = parse_chaos_options(&args).unwrap();
        assert_eq!(o.socket, std::path::PathBuf::from("/tmp/sfc-chaos.sock"));
        assert_eq!(o.seeds, 50);
        assert_eq!(o.seed0, 7);
        assert_eq!(o.clients, 2);
        assert_eq!(o.requests, 3);
        assert_eq!(o.session_timeout_ms, 150);
        // Defaults.
        let o = parse_chaos_options(&["c.sock".to_string()]).unwrap();
        assert_eq!(o.seeds, 25);
        assert_eq!(o.seed0, 0);
        assert_eq!(o.clients, 3);
        assert_eq!(o.requests, 4);
        assert_eq!(o.session_timeout_ms, 200);
        assert!(parse_chaos_options(&[]).is_err(), "socket path required");
        assert!(parse_chaos_options(&["--seeds".to_string()]).is_err());
        assert!(parse_chaos_options(&[
            "c.sock".to_string(),
            "--seeds".to_string(),
            "0".to_string()
        ])
        .is_err());
        assert!(parse_chaos_options(&["c.sock".to_string(), "--bogus".to_string()]).is_err());
    }

    #[test]
    fn faultsim_option_parsing() {
        let args: Vec<String> = [
            "--seeds", "12", "--seed", "3", "--faults", "4", "--arch", "volta",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_faultsim_options(&args).unwrap();
        assert_eq!(o.sim.seeds, 12);
        assert_eq!(o.sim.seed0, 3);
        assert_eq!(o.sim.plans, 4);
        assert_eq!(o.sim.arch, Arch::Volta);
        assert!(parse_faultsim_options(&["--faults".to_string()]).is_err());
        assert!(parse_faultsim_options(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn fuzz_faults_flag_parses() {
        let args: Vec<String> = ["--seeds", "5", "--faults", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_fuzz_options(&args).unwrap();
        assert_eq!(o.fuzz.seeds, 5);
        assert_eq!(o.fuzz.faults, 2);
    }

    #[test]
    fn faultsim_report_runs_clean() {
        let o = FaultSimOptions {
            sim: sf_fuzz::FaultSimOptions {
                seeds: 5,
                plans: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (report, clean) = faultsim_report(&o);
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
        let o = parse_lint_options(&args).unwrap();
        assert_eq!(o.arch, Arch::Volta);
        assert!(o.json && o.deny_warnings);
        assert_eq!(o.config.levels.len(), 1);
        assert_eq!(
            o.config.allowed,
            vec![spacefusion::verify::DiagCode::BndTileOutOfBounds]
        );
        assert!(parse_lint_options(&["--warn".into(), "NOPE99".into()]).is_err());
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
        assert!(report.contains("\"errors\": 0"), "{report}");
        assert!(report.contains("\"clean\": true"), "{report}");
        assert!(report.contains("\"diagnostics\": ["), "{report}");
    }

    #[test]
    fn dot_output_mode() {
        let g = parse_graph(LN).unwrap();
        let o = Options {
            dot: true,
            ..Default::default()
        };
        let report = compile_report(&g, &o).unwrap();
        assert!(report.starts_with("digraph"));
    }

    #[test]
    fn rewrite_flag_changes_the_schedule() {
        // A row too wide for on-chip residence: only the rewritten,
        // streaming form can be temporally sliced.
        let wide = LN.replace("2048", "65536");
        let g = parse_graph(&wide).unwrap();
        let plain = compile_report(&g, &Options::default()).unwrap();
        let rewritten = compile_report(
            &g,
            &Options {
                rewrite: true,
                ..Default::default()
            },
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
