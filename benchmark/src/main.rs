//! `sfbench`: the repository's benchmark. Six workloads, two clocks
//! (simulated GPU µs and host wall-clock), per-layer attribution from a
//! traced run. See `benchmark/README.md`.
//!
//! With `--workload NAME` it runs that workload in this process and ends
//! its standard output with one JSON line (the driver's contract).
//! Without, it runs every workload in a fresh child process each — so
//! peak RSS, the shared executor pool and the allocation counters are
//! per workload — and with `--repeat 2` does so twice and compares.

mod harness;
mod metrics;
mod oracle;
mod programs;
mod stats;
mod workloads;

use harness::RunCfg;
use metrics::{Report, END_TO_END, PER_LAYER};
use spacefusion::serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{compile_cold, exec, profile_sim, serve};

pub const WORKLOADS: [&str; 6] = [
    "compile_cold",
    "exec_small",
    "exec_large",
    "profile_sim",
    "serve_hot",
    "serve_churn",
];

const DEFAULT_SEED: u64 = 20250928;
const DEFAULT_SECONDS: f64 = 10.0;
/// Spans written to `trace_<workload>.json`; the rest are only counted.
const MAX_SPANS_WRITTEN: usize = 50_000;

const USAGE: &str = "usage: sfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--quick] [--repeat K] [--out DIR]
  --workload  one of compile_cold exec_small exec_large profile_sim serve_hot
              serve_churn; without it every workload runs in a child process
  --seed      workload seed: binding values and request order (default 20250928)
  --seconds   measured seconds per workload (default 10; --quick: 0.5)
  --trace 1   traced run: per-layer metrics and out/trace_<workload>.json
  --quick     a smoke run of a few seconds, never used for claims
  --repeat K  all workloads K times on this build, then compare (default 1)
  --out DIR   where reports, traces and the daemon socket go (default out)";

struct Args {
    workload: Option<String>,
    repeat: usize,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        repeat: 1,
        cfg: RunCfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            out_dir: PathBuf::from("out"),
        },
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.cfg.out_dir = PathBuf::from(value()?),
            "--quick" => args.cfg.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.cfg.seconds = seconds.unwrap_or(if args.cfg.quick { 0.5 } else { DEFAULT_SECONDS });
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sfbench: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args.cfg),
        None => run_all(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process. Prints every metric by name with
/// its unit, writes the stamped report (and the spans of a traced run),
/// and ends standard output with the contract's JSON line.
fn run_one(name: &str, cfg: &RunCfg) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    // The daemon socket is bound by relative name: a Unix socket path
    // holds about 100 bytes, and a checkout can sit deeper than that.
    std::env::set_current_dir(&cfg.out_dir)
        .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;

    let mut measured = match name {
        "compile_cold" => compile_cold::run(cfg),
        "exec_small" => exec::run(cfg, &exec::small()),
        "exec_large" => exec::run(cfg, &exec::large()),
        "profile_sim" => profile_sim::run(cfg),
        "serve_hot" => serve::run(cfg, serve::Kind::Hot),
        "serve_churn" => serve::run(cfg, serve::Kind::Churn),
        other => return Err(format!("unknown workload '{other}'")),
    }?;

    let (metrics, mut notes) = if cfg.trace {
        (metrics::per_layer(&measured), Vec::new())
    } else {
        metrics::end_to_end(&measured)
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let rec = &mut measured.rec;
    notes.extend(rec.failures.iter().map(|f| format!("FAILED: {f}")));
    let report = Report {
        workload: name.to_string(),
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        notes,
        rows: rec
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.lat_us.len(), stats::median(&r.lat_us)))
            .filter(|(_, n, _)| *n > 0)
            .collect(),
        round_secs: measured.rounds.round_s.clone(),
        round_peak_kib: measured.rounds.peak_kib.clone(),
    };
    report.print_table();
    let suffix = if cfg.trace { "trace" } else { "e2e" };
    write_file(
        &format!("result_{name}_{suffix}.json"),
        &report.stamped_json(cfg, measured.exec_threads).render(),
    )?;
    if cfg.trace {
        write_file(&format!("trace_{name}.json"), &spans_json(name, rec))?;
    }
    println!("{}", report.contract_json().render());
    Ok(ExitCode::SUCCESS)
}

fn write_file(name: &str, text: &str) -> Result<(), String> {
    std::fs::write(name, text).map_err(|e| format!("{name}: {e}"))
}

/// The traced run's spans, one JSON object each, with self time.
fn spans_json(workload: &str, rec: &harness::Recorder) -> String {
    let own = rec.self_ns();
    let spans = rec
        .spans
        .iter()
        .zip(own)
        .take(MAX_SPANS_WRITTEN)
        .map(|(s, self_ns)| {
            Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                (
                    "layer",
                    Json::Str(s.name.split('.').next().unwrap_or(s.name).into()),
                ),
                ("row", Json::Num(s.row as f64)),
                ("op_id", Json::Num(s.op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("spans_total", Json::Num(rec.spans.len() as f64)),
        (
            "rows",
            Json::Arr(rec.rows.iter().map(|r| Json::Str(r.name.clone())).collect()),
        ),
        ("spans", Json::Arr(spans)),
    ])
    .render()
}

/// One child run's contract line, parsed back.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh child process, echoing its table.
fn run_child(workload: &str, cfg: &RunCfg, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out_dir)
        .stdout(Stdio::piped());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (table, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{table}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let doc = parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload, `--repeat` times; with two or more repetitions, the
/// comparison of the first two. Non-zero on any failed check.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let cfg = &args.cfg;
    let mut ok = true;
    // sets[repetition][workload] = (untraced, traced)
    let mut sets: Vec<Vec<(ChildResult, Option<ChildResult>)>> = Vec::new();
    for repetition in 0..args.repeat {
        if args.repeat > 1 {
            println!("#### repetition {} of {}", repetition + 1, args.repeat);
        }
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let untraced = run_child(workload, cfg, false)?;
            let traced = match cfg.trace {
                true => Some(run_child(workload, cfg, true)?),
                false => None,
            };
            ok &= untraced.correct && traced.as_ref().is_none_or(|t| t.correct);
            set.push((untraced, traced));
        }
        sets.push(set);
    }
    if let [first, second, ..] = sets.as_slice() {
        ok &= compare(first, second);
    }
    println!(
        "sfbench: {}",
        if ok { "all checks passed" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints both values of every end-to-end metric × workload with the
/// relative difference and the bound, then every exact count that
/// differs. Returns whether the two sets agree.
fn compare(
    a: &[(ChildResult, Option<ChildResult>)],
    b: &[(ChildResult, Option<ChildResult>)],
) -> bool {
    let mut agree = true;
    println!(
        "{:<13} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (workload, (ra, rb)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for m in END_TO_END {
            let (va, vb) = (ra.0.value(m.name), rb.0.value(m.name));
            let diff = stats::relative_worsening(va, vb, m.higher_is_better).abs();
            // A missing value reads NaN, and is over the bound.
            let over = diff.is_nan() || diff > m.bound;
            agree &= !over;
            println!(
                "{workload:<13} {:<22} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%{}",
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if over { "  OVER BOUND" } else { "" }
            );
        }
        if let (Some(ta), Some(tb)) = (&ra.1, &rb.1) {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (va, vb) = (ta.value(m.name), tb.value(m.name));
                if va.to_bits() != vb.to_bits() {
                    agree = false;
                    println!(
                        "{workload:<13} {:<36} {va} != {vb}  EXACT COUNT DIFFERS",
                        m.name
                    );
                }
            }
        }
    }
    agree
}

impl ChildResult {
    /// A metric's value; `NaN` if the child left it out.
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }
}
