//! The serve daemon: admission control, compile workers, and the Unix
//! socket front end.
//!
//! [`ServeCore`] is the in-process heart of `sfc serve` (and what the
//! concurrency tests drive directly, no socket needed): a bounded FIFO
//! request queue feeding a pool of compile workers that share one
//! [`ScheduleCache`], one [`ExecEngine`], and one [`ProgramCache`].
//! Requests are bucketed by `(graph, shape, arch, policy)`; the bucket
//! cache's claim-ticket protocol guarantees N identical in-flight
//! requests trigger exactly one compile while the other N−1 block and
//! receive the shared program.
//!
//! **Admission control.** Every compile request receives a
//! monotonically increasing admission index *under the queue lock*. If
//! the queue is full at that instant the request is shed with a
//! [`Response::Retry`] carrying its index — so of two racing requests
//! the lower index always wins the last slot, and shedding is a pure
//! function of arrival order (never of worker scheduling). Shed
//! responses return immediately; the worker pool never sees them.
//!
//! **Deadlines.** A request's `deadline_ms` flows into the compiler's
//! `schedule_budget_ms`; a zero deadline compiles best-so-far through
//! the degradation ladder rather than hanging.
//!
//! **Warm start.** When a snapshot path is configured, the schedule
//! cache is loaded (entry-by-entry, evicting corruption) before the
//! first worker starts and persisted again at shutdown.

use super::bucket::{BucketKey, ProgramCache};
use super::protocol::{
    tensor_checksum, CacheOutcome, CompileRequest, OkResponse, OutputDigest, Response,
    StatsSnapshot, PROTOCOL_VERSION,
};
use super::snapshot::{self, LoadReport};
use crate::codegen::{ExecEngine, ExecOptions};
use crate::pipeline::{Claim, CompileOptions, CompileSession, ScheduleCache};
use crate::resilience::FaultInjector;
use sf_ir::dsl::parse_graph;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Compile worker threads.
    pub workers: usize,
    /// Bounded request queue depth; requests arriving while the queue
    /// holds this many entries are shed.
    pub queue_depth: usize,
    /// Execution worker threads per request (`0` = machine auto).
    pub exec_threads: usize,
    /// Schedule-cache snapshot to load at start and write at shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Per-session socket read/write timeout, ms. A client that stalls
    /// mid-frame (or sits idle) longer than this is reaped: its session
    /// thread closes the connection and exits instead of being pinned
    /// forever. Also the idle-connection reaper — an idle peer's next
    /// read times out the same way.
    pub session_timeout_ms: u64,
    /// Deterministic fault plan armed on every compile session and on
    /// the serve-layer hooks (tests, `faultsim`/`chaos` drills; normal
    /// serving leaves this unset).
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            exec_threads: 0,
            snapshot_path: None,
            session_timeout_ms: 30_000,
            faults: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    sheds: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    program_compiles: AtomicU64,
    degradations: AtomicU64,
    in_flight: AtomicU64,
    sessions_reaped: AtomicU64,
    sessions_crashed: AtomicU64,
    frames_rejected: AtomicU64,
}

/// One queued request and the slot its response is delivered through.
struct Work {
    req: Box<CompileRequest>,
    index: u64,
}

struct Slot {
    cell: Mutex<Option<Response>>,
    cv: Condvar,
}

impl Slot {
    fn deliver(&self, resp: Response) {
        *lock(&self.cell) = Some(resp);
        self.cv.notify_all();
    }

    fn wait(&self) -> Response {
        let mut cell = lock(&self.cell);
        loop {
            if let Some(resp) = cell.take() {
                return resp;
            }
            cell = self.cv.wait(cell).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct QueueState {
    items: VecDeque<(Work, Arc<Slot>)>,
    next_index: u64,
}

struct Inner {
    config: ServeConfig,
    cache: Arc<ScheduleCache>,
    engine: Arc<ExecEngine>,
    programs: ProgramCache,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    gates: Mutex<HashMap<String, bool>>,
    gates_cv: Condvar,
    stats: Counters,
    warm: Mutex<LoadReport>,
    shutdown: AtomicBool,
}

// Poison-tolerant lock: a panic on one worker (already confined by the
// compiler's pass isolation) must not wedge the daemon's control state.
fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cloneable handle to a running serve core. All clones share the same
/// queue, caches, and workers; [`ServeCore::shutdown`] stops them.
pub struct ServeCore {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Clone for ServeCore {
    fn clone(&self) -> Self {
        ServeCore {
            inner: Arc::clone(&self.inner),
            workers: Arc::clone(&self.workers),
        }
    }
}

impl ServeCore {
    /// Starts the core: loads the snapshot (when configured) into the
    /// shared schedule cache, then spawns the compile workers.
    pub fn start(config: ServeConfig) -> std::io::Result<ServeCore> {
        let cache = Arc::new(ScheduleCache::new());
        let warm = match &config.snapshot_path {
            Some(path) => snapshot::load(&cache, path)?,
            None => LoadReport::default(),
        };
        let worker_count = config.workers.max(1);
        let inner = Arc::new(Inner {
            config,
            cache,
            engine: ExecEngine::shared(),
            programs: ProgramCache::new(),
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                next_index: 0,
            }),
            queue_cv: Condvar::new(),
            gates: Mutex::new(HashMap::new()),
            gates_cv: Condvar::new(),
            stats: Counters::default(),
            warm: Mutex::new(warm),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(ServeCore {
            inner,
            workers: Arc::new(Mutex::new(workers)),
        })
    }

    /// Submits one compile request, blocking until its response is
    /// ready. Shed requests (queue full at arrival) return
    /// [`Response::Retry`] immediately without blocking.
    pub fn submit(&self, req: CompileRequest) -> Response {
        let inner = &self.inner;
        inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        let id = req.id;
        let slot = Arc::new(Slot {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        });
        {
            let mut queue = lock(&inner.queue);
            // The admission index is assigned and the full/enqueue
            // decision taken under one lock acquisition: of two racing
            // requests, the lower index always wins the last slot.
            let index = queue.next_index;
            queue.next_index += 1;
            if inner.shutdown.load(Ordering::SeqCst) {
                return Response::Error {
                    id,
                    message: "daemon is shutting down".into(),
                };
            }
            if queue.items.len() >= inner.config.queue_depth {
                inner.stats.sheds.fetch_add(1, Ordering::Relaxed);
                return Response::Retry { id, index };
            }
            queue.items.push_back((
                Work {
                    req: Box::new(req),
                    index,
                },
                Arc::clone(&slot),
            ));
        }
        inner.queue_cv.notify_one();
        slot.wait()
    }

    /// Counter snapshot (the `stats` op; bypasses admission control).
    pub fn stats(&self) -> StatsSnapshot {
        let inner = &self.inner;
        let warm = *lock(&inner.warm);
        StatsSnapshot {
            version: PROTOCOL_VERSION,
            requests: inner.stats.requests.load(Ordering::Relaxed),
            sheds: inner.stats.sheds.load(Ordering::Relaxed),
            ok: inner.stats.ok.load(Ordering::Relaxed),
            errors: inner.stats.errors.load(Ordering::Relaxed),
            program_compiles: inner.stats.program_compiles.load(Ordering::Relaxed),
            program_hits: inner.programs.hits() as u64,
            schedule_hits: inner.cache.hits() as u64,
            schedule_misses: inner.cache.misses() as u64,
            schedule_entries: inner.cache.len() as u64,
            warm_loaded: warm.loaded as u64,
            warm_evicted: warm.evicted as u64,
            degradations: inner.stats.degradations.load(Ordering::Relaxed),
            sessions_reaped: inner.stats.sessions_reaped.load(Ordering::Relaxed),
            sessions_crashed: inner.stats.sessions_crashed.load(Ordering::Relaxed),
            frames_rejected: inner.stats.frames_rejected.load(Ordering::Relaxed),
        }
    }

    /// The armed fault injector, when one is configured.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.inner.config.faults.as_ref()
    }

    /// The configured per-session socket timeout.
    pub fn session_timeout_ms(&self) -> u64 {
        self.inner.config.session_timeout_ms
    }

    /// Counts a session closed by the watchdog (stalled/idle peer).
    pub fn note_session_reaped(&self) {
        self.inner
            .stats
            .sessions_reaped
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a session thread panic that was isolated.
    pub fn note_session_crashed(&self) {
        self.inner
            .stats
            .sessions_crashed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an inbound frame the decoder rejected.
    pub fn note_frame_rejected(&self) {
        self.inner
            .stats
            .frames_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The shared schedule cache (inspection and snapshot tests).
    pub fn cache(&self) -> &Arc<ScheduleCache> {
        &self.inner.cache
    }

    /// Requests queued but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        lock(&self.inner.queue).items.len()
    }

    /// Requests currently being processed by workers.
    pub fn in_flight(&self) -> usize {
        self.inner.stats.in_flight.load(Ordering::SeqCst) as usize
    }

    /// Releases a named hold gate: every request holding on it (and
    /// any future request naming it) proceeds.
    pub fn release_gate(&self, name: &str) {
        lock(&self.inner.gates).insert(name.to_string(), true);
        self.inner.gates_cv.notify_all();
    }

    /// Flags shutdown without waiting: queued work still drains, new
    /// submissions are refused, held gates are released.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        self.inner.gates_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the core: drains queued work, joins the workers, and
    /// persists the schedule-cache snapshot (when configured). Returns
    /// the final counter snapshot. Idempotent across clones.
    pub fn shutdown(&self) -> std::io::Result<StatsSnapshot> {
        self.request_shutdown();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.inner.config.snapshot_path {
            snapshot::save_with_faults(
                &self.inner.cache,
                path,
                self.inner.config.faults.as_deref(),
            )?;
        }
        Ok(self.stats())
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (work, slot) = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(item) = queue.items.pop_front() {
                    break item;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.stats.in_flight.fetch_add(1, Ordering::SeqCst);
        let resp = process(inner, &work);
        match &resp {
            Response::Ok(_) => inner.stats.ok.fetch_add(1, Ordering::Relaxed),
            _ => inner.stats.errors.fetch_add(1, Ordering::Relaxed),
        };
        inner.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        slot.deliver(resp);
    }
}

/// Blocks on a named hold gate until released (or shutdown).
fn hold_on_gate(inner: &Inner, name: &str) {
    let mut gates = lock(&inner.gates);
    loop {
        if gates.get(name).copied().unwrap_or(false) || inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        gates = inner
            .gates_cv
            .wait(gates)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn process(inner: &Arc<Inner>, work: &Work) -> Response {
    let req = &work.req;
    let id = req.id;
    let fail = |message: String| Response::Error { id, message };
    if let Some(gate) = &req.hold {
        hold_on_gate(inner, gate);
    }
    let graph = match parse_graph(&req.graph) {
        Ok(g) => g,
        Err(e) => return fail(format!("graph parse error: {e}")),
    };
    let arch = req.arch.config();
    let key = BucketKey::new(&graph, &arch, req.policy);
    let (program, outcome) = match inner.programs.claim(&key) {
        Claim::Hit(p) => (p, CacheOutcome::Hit),
        Claim::Miss(ticket) => {
            let opts = CompileOptions {
                schedule_budget_ms: req.deadline_ms,
                ..CompileOptions::for_policy(req.policy)
            };
            let mut session = CompileSession::with_config(arch, opts)
                .with_cache(Arc::clone(&inner.cache))
                .with_engine(Arc::clone(&inner.engine));
            if let Some(faults) = &inner.config.faults {
                session = session.with_faults(Arc::clone(faults));
            }
            match session.compile(&graph) {
                Ok(p) => {
                    inner
                        .stats
                        .degradations
                        .fetch_add(p.stats.degradations.len() as u64, Ordering::Relaxed);
                    inner.stats.program_compiles.fetch_add(1, Ordering::Relaxed);
                    let p = Arc::new(p);
                    inner.programs.fulfill(ticket, Arc::clone(&p));
                    (p, CacheOutcome::Miss)
                }
                // The ticket drops here unfulfilled, waking the next
                // waiter on this bucket to compile in our stead.
                Err(e) => return fail(format!("compile error: {e}")),
            }
        }
    };
    let bindings = graph.random_bindings(req.seed);
    let exec = ExecOptions::with_threads(inner.config.exec_threads);
    let tensors = match program.execute_with(&bindings, &exec) {
        Ok(t) => t,
        Err(e) => return fail(format!("execution error: {e}")),
    };
    let outputs = program
        .outputs
        .iter()
        .zip(&tensors)
        .map(|((name, _), t)| OutputDigest {
            name: name.clone(),
            shape: t.shape().dims().to_vec(),
            checksum: tensor_checksum(t.shape().dims(), t.data()),
            data: req.want_data.then(|| t.data().to_vec()),
        })
        .collect();
    Response::Ok(Box::new(OkResponse {
        id,
        index: work.index,
        cache: outcome,
        kernels: program.kernels.len(),
        degradations: program.stats.degradations.len(),
        outputs,
    }))
}

#[cfg(unix)]
pub use unix_socket::Server;

#[cfg(unix)]
mod unix_socket {
    use super::super::json::Json;
    use super::super::protocol::{read_frame, write_frame, Request, Response};
    use super::{lock, ServeConfig, ServeCore, StatsSnapshot};
    use crate::resilience::{FaultKind, FaultStage};
    use std::io;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// Unix-domain-socket front end over a [`ServeCore`].
    pub struct Server {
        core: ServeCore,
        listener: UnixListener,
        path: PathBuf,
    }

    impl Server {
        /// Binds the socket and starts the core — including the
        /// warm-start snapshot load. A *stale* socket file (nothing
        /// accepting on it) is replaced; a socket a live daemon answers
        /// on fails with `AddrInUse`, so a second daemon can never
        /// silently hijack a running one.
        pub fn bind(path: &Path, config: ServeConfig) -> io::Result<Server> {
            match UnixStream::connect(path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a live daemon is already serving on {}", path.display()),
                    ));
                }
                // No socket file: nothing to replace.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                // A file exists but no one accepts (e.g. a crashed
                // daemon's leftover): safe to unlink and rebind.
                Err(_) => match std::fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
            let listener = UnixListener::bind(path)?;
            // Nonblocking accept lets the loop poll the shutdown flag.
            listener.set_nonblocking(true)?;
            Ok(Server {
                core: ServeCore::start(config)?,
                listener,
                path: path.to_path_buf(),
            })
        }

        /// The underlying core (shared with all sessions).
        pub fn core(&self) -> &ServeCore {
            &self.core
        }

        /// Accepts client sessions until a client sends `shutdown`,
        /// then drains, persists the snapshot, removes the socket
        /// file, and returns the final stats. Clients still connected
        /// at shutdown have their streams closed server-side — the
        /// daemon never waits for an idle client to hang up.
        pub fn run(self) -> io::Result<StatsSnapshot> {
            let mut sessions: Vec<JoinHandle<()>> = Vec::new();
            let streams: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
            loop {
                if self.core.is_shutting_down() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(clone) = stream.try_clone() {
                            lock(&streams).push(clone);
                        }
                        let core = self.core.clone();
                        sessions.push(std::thread::spawn(move || session(&core, stream)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            for s in lock(&streams).drain(..) {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            for h in sessions {
                let _ = h.join();
            }
            let stats = self.core.shutdown()?;
            std::fs::remove_file(&self.path).ok();
            Ok(stats)
        }
    }

    /// One client connection, with panic isolation: a session thread
    /// that panics (including an injected [`FaultKind::CrashSession`])
    /// is counted and its connection dropped — the daemon, its queue,
    /// and its caches stay healthy because session code never holds a
    /// core lock across the request dispatch.
    fn session(core: &ServeCore, stream: UnixStream) {
        // The accept loop holds a dup of this socket (for shutdown), so
        // dropping the session's handles does not sever the connection
        // — an explicit shutdown on any exit (reap, drop, panic) does,
        // immediately unblocking a peer waiting on a response.
        let cleanup = stream.try_clone().ok();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session_loop(core, stream)))
            .is_err()
        {
            core.note_session_crashed();
        }
        if let Some(s) = cleanup {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// The session body: frames in, frames out, until EOF, a decode
    /// error, a watchdog timeout, or a `shutdown` request.
    fn session_loop(core: &ServeCore, stream: UnixStream) {
        // The watchdog: a peer that stalls mid-frame or sits idle past
        // the session timeout is reaped instead of pinning this thread.
        let timeout = Duration::from_millis(core.session_timeout_ms().max(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let mut reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut writer = stream;
        loop {
            let doc = match read_frame(&mut reader) {
                Ok(Some(doc)) => doc,
                Ok(None) => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    core.note_session_reaped();
                    return;
                }
                Err(_) => {
                    // Torn prefix, over-limit length, bad UTF-8, or
                    // malformed JSON: the frame is rejected and the
                    // connection dropped.
                    core.note_frame_rejected();
                    return;
                }
            };
            let resp = match Request::from_json(&doc) {
                Err(message) => {
                    core.note_frame_rejected();
                    Response::Error { id: 0, message }
                }
                Ok(Request::Stats) => Response::Stats(Box::new(core.stats())),
                Ok(Request::Shutdown) => {
                    core.request_shutdown();
                    let _ = write_frame(&mut writer, &Response::Shutdown.to_json());
                    return;
                }
                Ok(Request::Compile(req)) => {
                    // Serve-session fault hook: after the request frame
                    // is read, before it is submitted.
                    if let Some(fault) = core
                        .faults()
                        .and_then(|inj| inj.fire_fault(FaultStage::ServeSession, "session"))
                    {
                        match fault.kind {
                            FaultKind::CrashSession => panic!("injected session crash"),
                            // Close mid-request: no response is written.
                            _ => return,
                        }
                    }
                    let resp = core.submit(*req);
                    // Serve-write fault hook: truncate the outbound
                    // frame at the fault's seeded byte offset and sever.
                    if let Some(fault) = core
                        .faults()
                        .and_then(|inj| inj.fire_fault(FaultStage::ServeWrite, "response"))
                    {
                        if fault.kind == FaultKind::TornFrame {
                            let _ = write_torn_frame(&mut writer, &resp.to_json(), fault.block);
                            return;
                        }
                    }
                    resp
                }
            };
            if write_frame(&mut writer, &resp.to_json()).is_err() {
                return;
            }
        }
    }

    /// Writes a deliberately truncated frame — the first
    /// `offset % frame_len` bytes of the length prefix + body — then
    /// severs the connection. The client must observe a torn frame (or
    /// a bare close when the cut lands at 0), never a valid response.
    fn write_torn_frame(w: &mut UnixStream, doc: &Json, offset: usize) -> io::Result<()> {
        use std::io::Write as _;
        let body = doc.render();
        let mut full = Vec::with_capacity(4 + body.len());
        full.extend_from_slice(&(body.len() as u32).to_be_bytes());
        full.extend_from_slice(body.as_bytes());
        let cut = offset % full.len().max(1);
        w.write_all(&full[..cut])?;
        w.flush()?;
        w.shutdown(std::net::Shutdown::Both)
    }
}
