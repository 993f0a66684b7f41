//! `serve_hot` and `serve_churn`: an in-process `sfc serve` daemon on a
//! Unix socket, driven by two closed-loop `ServeClient` connections.
//!
//! `serve_hot` cycles six tiny programs that were each sent once at
//! set-up, so every timed request is a program-cache hit and the
//! round trip is framing, re-parse, hashing and thread hand-offs.
//! `serve_churn` sends only never-seen shapes, so every request parses,
//! compiles and fills the caches. Each churn round runs against a fresh
//! daemon and the same 2,000 forms: rounds are identical, and memory
//! does not depend on how many rounds fit in the time box.

use super::{probes, publish_counts, traced_compile, Counts, Under};
use crate::harness::{drive, rss_kib, shuffle, Recorder, Row, RunCfg};
use crate::metrics::{Measured, SimClock};
use crate::oracle;
use crate::programs::{
    churn_text, load, parse_checked, Loaded, CHURN_FAMILIES, CHURN_FORMS, SERVE_HOT_SET,
};
use sf_gpu_sim::Arch;
use sf_tensor::{Shape, Tensor};
use spacefusion::codegen::ExecOptions;
use spacefusion::serve::protocol::{read_frame, write_frame};
use spacefusion::serve::{
    tensor_checksum, BucketKey, CacheOutcome, CompileRequest, OkResponse, OutputDigest, Request,
    Response, ServeClient, ServeConfig, ServeCore, Server, StatsSnapshot,
};
use spacefusion::{CompileOptions, CompileSession, FusionPolicy};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Requests per client and round.
const HOT_REQUESTS: usize = 2_500;
const CHURN_REQUESTS: usize = 1_000;
/// Every this-many-th churn request asks for its output data, which is
/// then checked against the reference interpreter.
const CHURN_DATA_EVERY: usize = 100;
/// The simulated clock and the `ir` probes look at every 41st churn form
/// in generator order: 49 forms, and 41 is odd, so all four families.
const CHURN_SAMPLE_STEP: usize = 41;
/// Hit requests per client before the first timed one.
const HOT_WARMUP: usize = 1_000;
/// Replays (and in-process submits) per `serve_hot` form in the traced run.
const HOT_REPLAYS: usize = 100;

pub enum Kind {
    Hot,
    Churn,
}

/// One request form: DSL text, the seed its bindings are drawn from,
/// and the row (program or family) its latency is filed under.
struct Form {
    text: String,
    seed: u64,
    row: usize,
    /// Output checksums, recorded at set-up; every later response of the
    /// form must repeat them bit for bit.
    checksums: Vec<u64>,
}

struct Daemon {
    core: ServeCore,
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<StatsSnapshot>>,
}

impl Daemon {
    /// Binds a socket in the working directory (`main` moved into the
    /// output directory, which keeps the path short and inside the
    /// checkout) and runs the accept loop on a thread of its own.
    fn start() -> Result<Daemon, String> {
        let socket = PathBuf::from(format!("sfbench-{}.sock", std::process::id()));
        let config = ServeConfig {
            workers: 2,
            queue_depth: 64,
            exec_threads: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind(&socket, config).map_err(|e| format!("bind: {e}"))?;
        let core = server.core().clone();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            core,
            socket,
            thread,
        })
    }

    fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect_with_retry(&self.socket, Duration::from_secs(5))
            .and_then(|c| c.with_io_timeout(Duration::from_secs(30)))
            .map_err(|e| format!("connect: {e}"))
    }

    /// One connection per client thread.
    fn connect_clients(&self) -> Result<Vec<ServeClient>, String> {
        (0..CLIENTS).map(|_| self.connect()).collect()
    }

    fn stop(self) -> Result<StatsSnapshot, String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

fn request(form: &Form, id: u64, want_data: bool) -> CompileRequest {
    CompileRequest {
        id,
        graph: form.text.clone(),
        seed: form.seed,
        want_data,
        ..CompileRequest::default()
    }
}

/// Checks a `want_data` response against the reference interpreter on
/// the same seeded bindings, and each checksum against its own data.
fn verify_data(form: &Form, outputs: &[OutputDigest]) -> Result<(), String> {
    let graph = parse_checked("request", &form.text)?;
    let name = graph.name().to_string();
    let bindings = graph.random_bindings(form.seed);
    let want = oracle::reference(&name, &graph, &bindings)?;
    if outputs.len() != want.len() {
        return Err(format!(
            "{name}: {} outputs, reference has {}",
            outputs.len(),
            want.len()
        ));
    }
    let mut got = Vec::new();
    for (o, w) in outputs.iter().zip(&want) {
        let data = o.data.clone().ok_or("response carries no data")?;
        if tensor_checksum(&o.shape, &data) != o.checksum {
            return Err(format!("{name}: checksum does not match its data"));
        }
        got.push(
            Tensor::from_data(Shape::new(o.shape.clone()), w.dtype(), data)
                .map_err(|e| format!("{name}: {e}"))?,
        );
    }
    oracle::check(&name, &got, &want, oracle::tolerance(&graph))
}

/// What a client thread sends in one round: `(form index, want data)`.
type Script = Vec<(usize, bool)>;

/// Sends `script` over one connection, one timed op per request.
/// Returns the responses to look at after the round: those that carry
/// data, and those of forms whose checksums are not recorded yet.
fn client_round(
    client: &mut ServeClient,
    rec: &mut Recorder,
    forms: &[Form],
    script: &Script,
    expect_cache: CacheOutcome,
    first_id: u64,
) -> Vec<(usize, Vec<OutputDigest>)> {
    let mut kept = Vec::new();
    for (i, &(f, want_data)) in script.iter().enumerate() {
        let form = &forms[f];
        let req = request(form, first_id + i as u64, want_data);
        let resp = rec.op("serve.roundtrip", form.row, || {
            client.compile_with_retry(req)
        });
        match resp {
            Ok(Response::Ok(ok)) => {
                let sums: Vec<u64> = ok.outputs.iter().map(|o| o.checksum).collect();
                if ok.cache != expect_cache {
                    rec.fail(format!("form {f}: cache outcome {:?}", ok.cache));
                } else if !form.checksums.is_empty() && sums != form.checksums {
                    rec.fail(format!("form {f}: checksum changed"));
                } else if want_data || form.checksums.is_empty() {
                    kept.push((f, ok.outputs));
                }
            }
            Ok(Response::Retry { .. }) => rec.fail(format!("form {f}: shed and not recovered")),
            Ok(other) => rec.fail(format!("form {f}: {other:?}")),
            Err(e) => rec.fail(format!("form {f}: {e}")),
        }
    }
    kept
}

/// One round: every client sends its script concurrently; the round
/// ends when the last one finishes. Responses with data are checked
/// against the reference here, after the timed part. Returns the
/// timed seconds, the clients' retry count and the responses
/// `client_round` kept.
fn round(
    clients: &mut [ServeClient],
    rec: &mut Recorder,
    forms: &[Form],
    scripts: &[Script],
    expect_cache: CacheOutcome,
) -> (f64, u64, Vec<(usize, Vec<OutputDigest>)>) {
    let retries_before: u64 = clients.iter().map(|c| c.retries()).sum();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(lane, (client, script))| {
                let mut local = rec.fork(lane as u32);
                scope.spawn(move || {
                    let first_id = (lane * 1_000_000) as u64;
                    let kept =
                        client_round(client, &mut local, forms, script, expect_cache, first_id);
                    (local, kept)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut kept = Vec::new();
    for result in results {
        match result {
            Ok((local, responses)) => {
                rec.absorb(local);
                kept.extend(responses);
            }
            Err(_) => rec.fail("client thread panicked".into()),
        }
    }
    for (f, outputs) in &kept {
        if outputs.iter().any(|o| o.data.is_some()) {
            if let Err(e) = verify_data(&forms[*f], outputs) {
                rec.fail(e);
            }
        }
    }
    let retries = clients.iter().map(|c| c.retries()).sum::<u64>() - retries_before;
    (secs, retries, kept)
}

/// The daemon counters a traced round moved, by per-layer metric name.
fn counter_deltas(before: &StatsSnapshot, after: &StatsSnapshot, retries: u64) -> Counts {
    let mut c = Counts::new();
    c.insert(
        "serve.program_hits",
        after.program_hits - before.program_hits,
    );
    c.insert(
        "serve.program_compiles",
        after.program_compiles - before.program_compiles,
    );
    c.insert(
        "serve.schedule_hits",
        after.schedule_hits - before.schedule_hits,
    );
    c.insert(
        "serve.schedule_misses",
        after.schedule_misses - before.schedule_misses,
    );
    c.insert("serve.sheds", after.sheds - before.sheds);
    c.insert("serve.client_retries", retries);
    c.insert("serve.errors", after.errors - before.errors);
    c.insert(
        "serve.sessions_reaped",
        after.sessions_reaped - before.sessions_reaped,
    );
    c.insert(
        "serve.sessions_crashed",
        after.sessions_crashed - before.sessions_crashed,
    );
    c.insert(
        "serve.frames_rejected",
        after.frames_rejected - before.frames_rejected,
    );
    c
}

/// Anything but hits and compiles must stay 0 on both serve workloads.
fn check_quiet(rec: &mut Recorder, stats: &StatsSnapshot) {
    for (name, n) in [
        ("sheds", stats.sheds),
        ("errors", stats.errors),
        ("sessions_reaped", stats.sessions_reaped),
        ("sessions_crashed", stats.sessions_crashed),
        ("frames_rejected", stats.frames_rejected),
    ] {
        if n != 0 {
            rec.fail(format!("daemon counted {n} {name}"));
        }
    }
}

struct State {
    forms: Vec<Form>,
    scripts: Vec<Script>,
    sim: SimClock,
    /// `serve_hot` keeps one daemon and its connections for the run.
    hot: Option<(Daemon, Vec<ServeClient>)>,
    round_counts: Vec<Counts>,
    /// `VmRSS` growth over the first churn round, KiB.
    churn_rss_kib: Option<u64>,
}

/// Simulated clock of the forms: both policies compiled in-process on
/// Ampere. Independent of the seed (the churn forms are taken in
/// generator order, not request order).
fn sim_clock(texts: impl Iterator<Item = String>) -> Result<SimClock, String> {
    let mut pairs = Vec::new();
    for text in texts {
        let graph = parse_checked("form", &text)?;
        let us = |policy| {
            super::cold_session(Arch::Ampere, policy)
                .compile(&graph)
                .map(|p| p.estimate_us())
                .map_err(|e| format!("{}: {e}", graph.name()))
        };
        pairs.push((us(FusionPolicy::SpaceFusion)?, us(FusionPolicy::Unfused)?));
    }
    Ok(SimClock::from_pairs(&pairs))
}

fn setup_hot(cfg: &RunCfg) -> Result<State, String> {
    let set = load(SERVE_HOT_SET)?;
    let mut forms: Vec<Form> = set
        .iter()
        .enumerate()
        .map(|(row, p)| Form {
            text: p.text.to_string(),
            seed: cfg.seed.wrapping_add(row as u64),
            row,
            checksums: Vec::new(),
        })
        .collect();
    let sim = sim_clock(forms.iter().map(|f| f.text.clone()))?;
    let daemon = Daemon::start()?;
    let mut clients = daemon.connect_clients()?;
    // Each form once, with data: the one compile, and the reference check.
    for (f, form) in forms.iter_mut().enumerate() {
        let resp = clients[0]
            .compile_with_retry(request(form, f as u64, true))
            .map_err(|e| format!("set-up request: {e}"))?;
        let Response::Ok(ok) = resp else {
            return Err(format!("set-up request: {resp:?}"));
        };
        verify_data(form, &ok.outputs)?;
        form.checksums = ok.outputs.iter().map(|o| o.checksum).collect();
    }
    // A balanced cycle in seeded order, offset per client.
    let per_form = HOT_REQUESTS.div_ceil(forms.len());
    let mut cycle: Vec<usize> = (0..forms.len() * per_form)
        .map(|i| i % forms.len())
        .collect();
    let scripts: Vec<Script> = (0..CLIENTS)
        .map(|c| {
            shuffle(&mut cycle, cfg.seed.wrapping_add(c as u64));
            cycle[..HOT_REQUESTS].iter().map(|&f| (f, false)).collect()
        })
        .collect();
    // Warm-up: session threads, worker hand-off and scratch arenas.
    let mut warm = Recorder::new(rows(&Kind::Hot));
    let warm_scripts: Vec<Script> = scripts.iter().map(|s| s[..HOT_WARMUP].to_vec()).collect();
    round(
        &mut clients,
        &mut warm,
        &forms,
        &warm_scripts,
        CacheOutcome::Hit,
    );
    if warm.failed > 0 {
        return Err(format!("warm-up: {}", warm.failures.join("; ")));
    }
    Ok(State {
        forms,
        scripts,
        sim,
        hot: Some((daemon, clients)),
        round_counts: Vec::new(),
        churn_rss_kib: None,
    })
}

/// One churn round against a fresh daemon. Daemon start and stop are
/// not part of the round's time. There is no warm-up round: a daemon
/// that restarts leaves its heap behind, and the first round's peak RSS
/// is the one without that history.
fn churn_round(state: &mut State, rec: &mut Recorder) -> Result<f64, String> {
    let (_, rss_before) = rss_kib();
    let daemon = Daemon::start()?;
    let mut clients = daemon.connect_clients()?;
    let before = daemon.core.stats();
    let (secs, retries, kept) = round(
        &mut clients,
        rec,
        &state.forms,
        &state.scripts,
        CacheOutcome::Miss,
    );
    let after = daemon.core.stats();
    // The first round records every form's checksums; later rounds (other
    // daemons, the same forms) must repeat them.
    for (f, outputs) in kept {
        let form = &mut state.forms[f];
        if form.checksums.is_empty() {
            form.checksums = outputs.iter().map(|o| o.checksum).collect();
        }
    }
    let (_, rss_after) = rss_kib();
    state
        .churn_rss_kib
        .get_or_insert(rss_after.saturating_sub(rss_before));
    let requests = (CLIENTS * CHURN_REQUESTS) as u64;
    if after.program_compiles - before.program_compiles != requests {
        rec.fail(format!(
            "{} compiles for {requests} never-seen forms",
            after.program_compiles - before.program_compiles
        ));
    }
    if rec.tracing {
        state
            .round_counts
            .push(counter_deltas(&before, &after, retries));
    }
    drop(clients);
    check_quiet(rec, &daemon.stop()?);
    Ok(secs)
}

fn hot_round(state: &mut State, rec: &mut Recorder) -> Result<f64, String> {
    let Some((daemon, clients)) = &mut state.hot else {
        return Err("serve_hot lost its daemon".into());
    };
    let before = daemon.core.stats();
    let (secs, retries, _) = round(
        clients,
        rec,
        &state.forms,
        &state.scripts,
        CacheOutcome::Hit,
    );
    if rec.tracing {
        let after = daemon.core.stats();
        state
            .round_counts
            .push(counter_deltas(&before, &after, retries));
    }
    Ok(secs)
}

fn setup_churn(cfg: &RunCfg) -> Result<State, String> {
    let n = CLIENTS * CHURN_REQUESTS;
    assert!(n <= CHURN_FORMS);
    let mut forms = Vec::with_capacity(n);
    let mut keys = HashSet::new();
    let arch = Arch::Ampere.config();
    for k in 0..n {
        let text = churn_text(k);
        let graph = parse_checked("churn form", &text)?;
        keys.insert(BucketKey::new(&graph, &arch, FusionPolicy::SpaceFusion));
        forms.push(Form {
            text,
            seed: cfg.seed.wrapping_add(k as u64),
            row: k % CHURN_FAMILIES.len(),
            checksums: Vec::new(),
        });
    }
    if keys.len() != n {
        return Err(format!("{} distinct bucket keys for {n} forms", keys.len()));
    }
    let sim = sim_clock((0..n).step_by(CHURN_SAMPLE_STEP).map(churn_text))?;
    // Seeded request order, dealt out to the clients.
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, cfg.seed);
    let scripts: Vec<Script> = order
        .chunks(CHURN_REQUESTS)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, &f)| (f, i % CHURN_DATA_EVERY == 0))
                .collect()
        })
        .collect();
    Ok(State {
        forms,
        scripts,
        sim,
        hot: None,
        round_counts: Vec::new(),
        churn_rss_kib: None,
    })
}

fn rows(kind: &Kind) -> Vec<Row> {
    let names: Vec<&str> = match kind {
        Kind::Hot => SERVE_HOT_SET.iter().map(|f| f.name).collect(),
        Kind::Churn => CHURN_FAMILIES.iter().map(|f| f.name).collect(),
    };
    names.into_iter().map(|name| Row::new(name, true)).collect()
}

/// Stops the daemon `serve_hot` keeps; its final counters, if there
/// was one.
fn stop_hot(state: &mut State) -> Result<Option<StatsSnapshot>, String> {
    let Some((daemon, clients)) = state.hot.take() else {
        return Ok(None);
    };
    drop(clients);
    daemon.stop().map(Some)
}

pub fn run(cfg: &RunCfg, kind: Kind) -> Result<Measured, String> {
    let mut rec = Recorder::new(rows(&kind));
    let (mut state, mut rounds) = drive(
        cfg,
        &mut rec,
        || match kind {
            Kind::Hot => setup_hot(cfg),
            Kind::Churn => setup_churn(cfg),
        },
        |state, rec| match state.hot {
            Some(_) => hot_round(state, rec),
            None => churn_round(state, rec),
        },
        |mut state| stop_hot(&mut state).map(|_| ()),
    )?;

    let ops_per_round = state.scripts.iter().map(Vec::len).sum();
    let mut values = BTreeMap::new();
    if cfg.trace {
        let first = state.round_counts.first().cloned().unwrap_or_default();
        publish_counts(&mut values, &first);
        let (hits, compiles) = (
            first["serve.program_hits"] as f64,
            first["serve.program_compiles"] as f64,
        );
        values.insert("serve.hit_ratio", hits / (hits + compiles));
        if let Some(kib) = state.churn_rss_kib {
            values.insert(
                "serve.rss_kib_per_bucket",
                kib as f64 / ops_per_round as f64,
            );
        }
        let mut compile_counts = Counts::new();
        replay_requests(&mut rec, &state, &mut compile_counts);
        publish_counts(&mut values, &compile_counts);
        if let Some((daemon, _)) = &state.hot {
            for form in state
                .forms
                .iter()
                .cycle()
                .take(HOT_REPLAYS * state.forms.len())
            {
                let resp = rec.probe("serve.submit_inproc", form.row, || {
                    daemon.core.submit(request(form, 0, false))
                });
                if !matches!(resp, Response::Ok(_)) {
                    rec.fail(format!("in-process submit: {resp:?}"));
                }
            }
        }
        // serve_churn: the sample the simulated clock uses.
        let set: Vec<Loaded> = match kind {
            Kind::Hot => load(SERVE_HOT_SET)?,
            Kind::Churn => (0..state.forms.len())
                .step_by(CHURN_SAMPLE_STEP)
                .map(|k| Loaded::parse("churn form", churn_text(k)))
                .collect::<Result<_, _>>()?,
        };
        probes::ir(&mut rec, &set, set.len(), cfg.seed, true);
        probes::tensor(&mut rec);
    }
    if let Some(stats) = stop_hot(&mut state)? {
        check_quiet(&mut rec, &stats);
        // Only set-up compiles: one per form and set-up.
        if stats.program_compiles != state.forms.len() as u64 {
            rec.fail(format!(
                "{} compiles on a run that should only hit",
                stats.program_compiles
            ));
        }
    }
    let sim = state.sim;
    drop(state);
    rounds.more_setups(
        cfg,
        || match kind {
            Kind::Hot => setup_hot(cfg),
            Kind::Churn => setup_churn(cfg),
        },
        |mut state| stop_hot(&mut state).map(|_| ()),
    )?;
    Ok(Measured {
        rec,
        rounds,
        ops_per_round,
        sim,
        exec_threads: 1,
        layer_values: values,
    })
}

/// Replays requests stage by stage in-process, each stage a child span
/// of one `serve.replay` op: what the daemon does to a request, without
/// the socket and the thread hand-offs. `serve_churn` forms compile
/// inside the replay (the miss path), with pass events as grandchildren.
fn replay_requests(rec: &mut Recorder, state: &State, counts: &mut Counts) {
    let hot = state.hot.is_some();
    let arch = Arch::Ampere.config();
    let exec = ExecOptions::with_threads(1);
    // serve_hot: every form many times; serve_churn: 25 forms per family, once.
    let picks: Vec<&Form> = if hot {
        state
            .forms
            .iter()
            .cycle()
            .take(HOT_REPLAYS * state.forms.len())
            .collect()
    } else {
        state.forms.iter().take(100).collect()
    };
    // The daemon's own session settings (`server.rs::process`).
    let session = || {
        CompileSession::with_config(
            arch.clone(),
            CompileOptions {
                policy: FusionPolicy::SpaceFusion,
                ..CompileOptions::default()
            },
        )
    };
    let mut hot_programs = BTreeMap::new();
    for form in picks {
        let req = request(form, 0, false);
        let op = rec.open("serve.replay", form.row);
        let mut wire = Vec::new();
        rec.stage(op, "serve.frame_encode", || {
            write_frame(
                &mut wire,
                &Request::Compile(Box::new(req.clone())).to_json(),
            )
        })
        .expect("write to memory");
        let decoded = rec.stage(op, "serve.frame_decode", || {
            let doc = read_frame(&mut Cursor::new(&wire)).ok().flatten()?;
            Request::from_json(&doc).ok()
        });
        let Some(Request::Compile(decoded)) = decoded else {
            rec.fail("replay: request did not survive its own frame".into());
            continue;
        };
        let Ok(graph) = rec.stage(op, "ir.parse", || sf_ir::dsl::parse_graph(&decoded.graph))
        else {
            rec.fail("replay: form does not parse".into());
            continue;
        };
        let key = rec.stage(op, "serve.bucket_key", || {
            BucketKey::new(&graph, &arch, decoded.policy)
        });
        let compiled = if hot {
            // A hit: the program was compiled before the request arrived.
            match hot_programs.get(&key.graph) {
                Some(p) => Ok(std::sync::Arc::clone(p)),
                None => session().compile(&graph).map(|p| {
                    let p = std::sync::Arc::new(p);
                    hot_programs.insert(key.graph, std::sync::Arc::clone(&p));
                    p
                }),
            }
        } else {
            traced_compile(rec, counts, Under::Stage(op), session(), &graph)
                .map(std::sync::Arc::new)
        };
        let program = match compiled {
            Ok(p) => p,
            Err(e) => {
                rec.fail(format!("replay: {e}"));
                continue;
            }
        };
        let bindings = rec.stage(op, "ir.random_bindings", || {
            graph.random_bindings(decoded.seed)
        });
        let Ok(tensors) = rec.stage(op, "serve.exec", || program.execute_with(&bindings, &exec))
        else {
            rec.fail("replay: execution failed".into());
            continue;
        };
        let outputs: Vec<OutputDigest> = rec.stage(op, "serve.checksum", || {
            program
                .outputs
                .iter()
                .zip(&tensors)
                .map(|((name, _), t)| OutputDigest {
                    name: name.clone(),
                    shape: t.shape().dims().to_vec(),
                    checksum: tensor_checksum(t.shape().dims(), t.data()),
                    data: None,
                })
                .collect()
        });
        if outputs.iter().map(|o| o.checksum).collect::<Vec<_>>() != form.checksums {
            rec.fail("replay: checksum differs from the daemon's".into());
        }
        let response = Response::Ok(Box::new(OkResponse {
            id: decoded.id,
            index: 0,
            cache: CacheOutcome::Hit,
            kernels: program.kernels.len(),
            degradations: 0,
            outputs,
        }));
        wire.clear();
        rec.stage(op, "serve.response_encode", || {
            write_frame(&mut wire, &response.to_json())
        })
        .expect("write to memory");
        let back = rec.stage(op, "serve.response_decode", || {
            let doc = read_frame(&mut Cursor::new(&wire)).ok().flatten()?;
            Response::from_json(&doc).ok()
        });
        rec.close(op);
        if black_box(back) != Some(response) {
            rec.fail("replay: response did not survive its own frame".into());
        }
    }
}
