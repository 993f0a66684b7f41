//! The measurement loop shared by all workloads: repeated set-up, fixed
//! rounds inside a time box, per-row latency samples, and in-memory
//! spans for the traced run.

use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Command-line settings of one workload run.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: std::path::PathBuf,
}

/// One recorded interval. `parent` indexes [`Recorder::spans`]; spans of
/// one op share `op`. The layer is the part of `name` before the dot.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub row: u32,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Latency samples of one row (a program, a form, a compile combo).
pub struct Row {
    pub name: String,
    /// Whether the row counts toward `op_us_geomean`.
    pub headline: bool,
    /// Op latencies of the untraced rounds, µs.
    pub lat_us: Vec<f64>,
    /// Op latencies of the traced rounds, µs: only their ratio to
    /// `lat_us` is used, as the tracing overhead.
    pub traced_us: Vec<f64>,
}

impl Row {
    pub fn new(name: impl Into<String>, headline: bool) -> Row {
        Row {
            name: name.into(),
            headline,
            lat_us: Vec::new(),
            traced_us: Vec::new(),
        }
    }
}

/// Collects what the timed ops produce. Untraced ops append a latency to
/// their row's `lat_us`; traced ops push a span (and a latency to
/// `traced_us`), so the two kinds of round never mix in one statistic.
pub struct Recorder {
    epoch: Instant,
    pub tracing: bool,
    pub rows: Vec<Row>,
    pub spans: Vec<Span>,
    next_op: u32,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn new(rows: Vec<Row>) -> Self {
        Recorder {
            epoch: Instant::now(),
            tracing: false,
            rows,
            spans: Vec::new(),
            next_op: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// An empty recorder with the same rows and clock, for client thread
    /// `lane`; fold it back with [`Recorder::absorb`]. Lanes number their
    /// ops a million apart, so op ids stay unique within a round, and
    /// `absorb` moves the parent past all of them.
    pub fn fork(&self, lane: u32) -> Recorder {
        Recorder {
            epoch: self.epoch,
            tracing: self.tracing,
            rows: self.rows.iter().map(|r| Row::new("", r.headline)).collect(),
            spans: Vec::new(),
            next_op: self.next_op + (lane << 20),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Folds a forked recorder back in.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows) {
            mine.lat_us.extend(theirs.lat_us);
            mine.traced_us.extend(theirs.traced_us);
        }
        self.next_op = self.next_op.max(other.next_op);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.fail_note(f);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times one op of `row`. When tracing, its span is the last one
    /// pushed (for [`Recorder::children`]).
    pub fn op<T>(&mut self, name: &'static str, row: usize, f: impl FnOnce() -> T) -> T {
        self.attempted += 1;
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed();
        if !self.tracing {
            self.rows[row].lat_us.push(dt.as_secs_f64() * 1e6);
            return out;
        }
        self.rows[row].traced_us.push(dt.as_secs_f64() * 1e6);
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let op = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            name,
            row: row as u32,
            op,
            parent: None,
            start_ns,
            end_ns: start_ns + dt.as_nanos() as u64,
        });
        out
    }

    /// Lays `(name, µs)` durations end to end as children of `parent`,
    /// starting at the parent's start. The compile pipeline reports
    /// durations only, so the offsets are synthetic; the sums are not.
    pub fn children(&mut self, parent: u32, durations: &[(&'static str, f64)]) {
        let p = self.spans[parent as usize].clone();
        let mut at = p.start_ns;
        for &(name, us) in durations {
            let ns = (us * 1e3) as u64;
            self.spans.push(Span {
                name,
                row: p.row,
                op: p.op,
                parent: Some(parent),
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
    }

    /// Opens a probe op (trace mode only): a parent span whose end is set
    /// by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, row: usize) -> u32 {
        let op = self.next_op;
        self.next_op += 1;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            row: row as u32,
            op,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as u32 - 1
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`.
    pub fn stage<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (row, op) = {
            let p = &self.spans[parent as usize];
            (p.row, p.op)
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            row,
            op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Times `f` as a probe op of its own.
    pub fn probe<T>(&mut self, name: &'static str, row: usize, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, row);
        let out = f();
        self.close(span);
        out
    }

    /// Counts one failed op, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.fail_note(message);
    }

    fn fail_note(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Median duration, µs, of the spans called `name` on `row`.
    pub fn row_median_us(&self, name: &str, row: usize) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.row as usize == row)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        stats::median(&us)
    }

    /// How much slower a traced op is than an untraced one: the geomean
    /// over rows of (median traced latency ÷ median untraced latency),
    /// minus 1. Per-op medians, because round times of the serve
    /// workloads swing by ±25% with thread placement.
    pub fn trace_overhead_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| !r.lat_us.is_empty() && !r.traced_us.is_empty())
            .map(|r| stats::median(&r.traced_us) / stats::median(&r.lat_us))
            .collect();
        stats::geomean(&ratios) - 1.0
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        own
    }

    /// Per-layer timing table: for each span name, the mean over rows of
    /// the row's median per-op self time, µs. The rows are those of the
    /// name's root span, so a child that occurs in only some rows (a
    /// pass that not every compile runs) averages in as 0 elsewhere and
    /// the children of an op add up to the op.
    pub fn layer_us(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut root_name = Vec::with_capacity(self.spans.len());
        let mut root_rows: BTreeMap<&'static str, BTreeSet<u32>> = BTreeMap::new();
        for s in &self.spans {
            // Parents are pushed before their children.
            let root = s.parent.map_or(s.name, |p| root_name[p as usize]);
            root_name.push(root);
            root_rows.entry(root).or_default().insert(s.row);
        }
        let mut per_op: BTreeMap<(&'static str, u32, u32), f64> = BTreeMap::new();
        let mut root_of: BTreeMap<&'static str, &'static str> = BTreeMap::new();
        for ((s, ns), root) in self.spans.iter().zip(own).zip(root_name) {
            *per_op.entry((s.name, s.row, s.op)).or_insert(0.0) += ns as f64 / 1e3;
            root_of.entry(s.name).or_insert(root);
        }
        let mut per_row: BTreeMap<(&'static str, u32), Vec<f64>> = BTreeMap::new();
        for ((name, row, _), us) in per_op {
            per_row.entry((name, row)).or_default().push(us);
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ((name, _), samples) in per_row {
            let rows = root_rows[root_of[name]].len();
            *out.entry(name).or_insert(0.0) += stats::median(&samples) / rows as f64;
        }
        out
    }
}

/// `VmHWM` and `VmRSS` of this process, KiB.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Restarts the kernel's peak-RSS counter (`VmHWM`) at the current
/// resident set. Returns whether the kernel allowed it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Wall-clock and memory results of the round loop.
pub struct Rounds {
    /// Seconds of every timed set-up; `setup_s` is their median.
    pub setup_secs: Vec<f64>,
    /// Timed seconds of each untraced round.
    pub round_s: Vec<f64>,
    /// Peak resident set of each untraced round, KiB.
    pub peak_kib: Vec<u64>,
    /// Whether `VmHWM` could be restarted before each round. If not,
    /// `peak_kib` holds the resident set at the end of each round.
    pub peak_is_per_round: bool,
}

impl Rounds {
    /// Times further set-ups once the workload is done with its state,
    /// until there are three, and up to seven while they are cheap (a
    /// short set-up is the one a single stall distorts). Set-ups are
    /// sampled at both ends of the run because the first second of a
    /// process is the noisiest: seven set-ups in a row there read 45%
    /// apart between two runs.
    pub fn more_setups<S>(
        &mut self,
        cfg: &RunCfg,
        mut setup: impl FnMut() -> Result<S, String>,
        mut teardown: impl FnMut(S) -> Result<(), String>,
    ) -> Result<(), String> {
        if cfg.trace || cfg.quick {
            return Ok(());
        }
        while self.setup_secs.len() < 3
            || (self.setup_secs.len() < 7 && self.setup_secs.iter().sum::<f64>() < 2.0)
        {
            let t = Instant::now();
            let state = setup()?;
            self.setup_secs.push(t.elapsed().as_secs_f64());
            teardown(state)?;
        }
        Ok(())
    }
}

/// Runs set-up (twice untraced, so that the kept state is not the
/// process's cold first one; [`Rounds::more_setups`] adds the rest after
/// the run), then identical rounds until `cfg.seconds` have passed. A
/// round returns the seconds of it that count as work. In trace mode odd
/// rounds are traced, so both kinds see the same machine state.
pub fn drive<S>(
    cfg: &RunCfg,
    rec: &mut Recorder,
    mut setup: impl FnMut() -> Result<S, String>,
    mut round: impl FnMut(&mut S, &mut Recorder) -> Result<f64, String>,
    mut teardown: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, Rounds), String> {
    let setups = if cfg.trace || cfg.quick { 1 } else { 2 };
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        if let Some(prev) = state.take() {
            teardown(prev)?;
        }
        let t = Instant::now();
        state = Some(setup()?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.ok_or("no set-up ran")?;
    let min_rounds = match (cfg.quick, cfg.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => 3,
        (false, true) => 4,
    };
    let mut rounds = Rounds {
        setup_secs,
        round_s: Vec::new(),
        peak_kib: Vec::new(),
        peak_is_per_round: true,
    };
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds || r < min_rounds {
        rec.tracing = cfg.trace && r % 2 == 1;
        rounds.peak_is_per_round &= reset_peak_rss();
        let secs = round(&mut state, rec)?;
        if !rec.tracing {
            rounds.round_s.push(secs);
            let (peak, now) = rss_kib();
            rounds
                .peak_kib
                .push(if rounds.peak_is_per_round { peak } else { now });
        }
        r += 1;
    }
    rec.tracing = false;
    Ok((state, rounds))
}

/// The seed of op orders that are frozen rather than drawn from the
/// workload seed: on the one-thread workloads the order decides cache
/// state and heap layout, and must not vary from run to run.
pub const FROZEN_ORDER: u64 = 0x5fbe_6c11;

/// Deterministic Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = sf_tensor::rng::XorShiftRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}
