//! Instrumentation events and compile-time statistics.
//!
//! Every pass of the Fig. 9 pipeline reports what it did through a
//! [`PassEvent`] delivered to a pluggable [`EventSink`] owned by the
//! [`CompileSession`](super::CompileSession). Events carry the pass
//! name, the segment/unit they ran on, their wall-clock duration and a
//! pass-specific payload (cache hit/miss, candidates generated,
//! evaluated, pruned, …). Per-pass timings are read from the events
//! (`sfc compile --timings`, `repro table4`); [`CompileStats`] keeps
//! the compile's wall-clock total and its decision counters.

use std::sync::Mutex;

/// Identity of one pipeline pass (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Splitting the graph into subprograms at layout barriers.
    Segment,
    /// Splitting a segment into fusion groups under the policy.
    Group,
    /// Space-Mapping Graph construction (§4.1).
    SmgBuild,
    /// Spatial-slicer analysis: `SS.getDims + SS.slice` (§4.2).
    SpatialSlice,
    /// Temporal-slicer analysis: `TS.getPriorDim + TS.slice` (§4.3).
    TemporalSlice,
    /// Configuration enumeration under resource constraints (`enumCfg`,
    /// Alg. 1).
    EnumCfg,
    /// SMG partitioning fallback (Alg. 2 + §5.3).
    Partition,
    /// Block-size auto-tuning (§6.5).
    Tune,
    /// Schedule-cache probe (repetitive subprograms compile once, §5).
    CacheLookup,
    /// Kernel assembly and output resolution.
    Emit,
    /// Static verification of the compiled kernels (SMG invariants,
    /// slicing legality, resource budgets, barrier/race analysis).
    Verify,
    /// One differential-fuzzing seed: generate, compile under every
    /// policy, execute at every thread count, diff against the
    /// reference (the `sf-fuzz` oracle reports through the same sink
    /// the compiler passes use).
    Fuzz,
    /// A unit fell down the degradation ladder (or recovered in place
    /// after a corrupt cache entry); see [`crate::resilience::ladder`].
    Degrade,
    /// One fault-injection plan run by `sfc faultsim` / the `--faults`
    /// fuzz mode.
    FaultSim,
}

impl PassId {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PassId::Segment => "segment",
            PassId::Group => "group",
            PassId::SmgBuild => "smg-build",
            PassId::SpatialSlice => "spatial-slice",
            PassId::TemporalSlice => "temporal-slice",
            PassId::EnumCfg => "enum-cfg",
            PassId::Partition => "partition",
            PassId::Tune => "tune",
            PassId::CacheLookup => "cache-lookup",
            PassId::Emit => "emit",
            PassId::Verify => "verify",
            PassId::Fuzz => "fuzz",
            PassId::Degrade => "degrade",
            PassId::FaultSim => "faultsim",
        }
    }

    /// All passes in pipeline order.
    pub fn all() -> [PassId; 14] {
        [
            PassId::Segment,
            PassId::Group,
            PassId::CacheLookup,
            PassId::SmgBuild,
            PassId::SpatialSlice,
            PassId::TemporalSlice,
            PassId::EnumCfg,
            PassId::Partition,
            PassId::Tune,
            PassId::Emit,
            PassId::Verify,
            PassId::Degrade,
            PassId::Fuzz,
            PassId::FaultSim,
        ]
    }
}

/// Pass-specific payload of a [`PassEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventDetail {
    /// No payload beyond the duration.
    None,
    /// The graph split into this many segments.
    Segments {
        /// Segment count.
        count: usize,
    },
    /// A segment split into this many fusion groups.
    Groups {
        /// Group count.
        count: usize,
    },
    /// A schedule-cache probe.
    Cache {
        /// Whether the probe hit.
        hit: bool,
        /// The shape component of the cache key.
        key: String,
    },
    /// Configuration enumeration produced this many candidates.
    Candidates {
        /// Feasible configurations generated.
        generated: usize,
    },
    /// Auto-tuning outcome over one candidate set.
    Tune {
        /// Candidates fully evaluated.
        evaluated: usize,
        /// Candidates abandoned by the early-quit rule.
        pruned: usize,
        /// Estimated time of the winner, µs.
        best_us: f64,
    },
    /// A partitioning round split a group into two fragments.
    Partition {
        /// Operator count of the leading fragment.
        cut: usize,
    },
    /// Verifier outcome over one kernel set.
    Verify {
        /// Diagnostics at [`Severity::Error`](crate::verify::Severity).
        errors: usize,
        /// Diagnostics at [`Severity::Warning`](crate::verify::Severity).
        warnings: usize,
    },
    /// Differential-fuzzing outcome over one generated seed.
    Fuzz {
        /// The generator seed.
        seed: u64,
        /// Operator count of the generated graph.
        ops: usize,
        /// Oracle failures recorded for this seed.
        failures: usize,
    },
    /// A unit degraded (or recovered in place): one
    /// [`DegradationStep`](crate::resilience::DegradationStep).
    Degrade {
        /// Ladder rung the unit landed on.
        rung: &'static str,
        /// The error that forced the step.
        reason: String,
    },
    /// One fault-injection plan's outcome.
    FaultSim {
        /// Graph seed the plan ran against.
        seed: u64,
        /// Fault-plan seed.
        plan_seed: u64,
        /// Faults that actually fired.
        fired: usize,
        /// Degradation steps recorded across compile + execute.
        degraded: usize,
        /// Hard failures (wrong output, abort, unrecovered error).
        failures: usize,
    },
}

/// One structured instrumentation record.
#[derive(Debug, Clone, PartialEq)]
pub struct PassEvent {
    /// Which pass produced the event.
    pub pass: PassId,
    /// Segment index the pass ran on (`0` for whole-graph passes).
    pub segment: usize,
    /// Name of the (sub)graph the pass ran on.
    pub unit: String,
    /// Wall-clock duration, µs.
    pub duration_us: f64,
    /// Pass-specific payload.
    pub detail: EventDetail,
}

/// Receives instrumentation events. Implementations must be cheap and
/// thread-safe: events arrive concurrently from segment workers.
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: PassEvent);
}

/// Discards every event (the default sink).
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: PassEvent) {}
}

/// Buffers events for later inspection (powers `sfc --timings` and the
/// instrumentation tests).
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<PassEvent>>,
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<PassEvent> {
        self.lock().clone()
    }

    /// Drains and returns all recorded events.
    pub fn take(&self) -> Vec<PassEvent> {
        std::mem::take(&mut *self.lock())
    }

    // The buffer stays usable even if a panicking pass (now caught at
    // the isolation boundary) poisoned the mutex mid-record.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<PassEvent>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl EventSink for CollectingSink {
    fn record(&self, event: PassEvent) {
        self.lock().push(event);
    }
}

/// Renders an aggregated per-pass timing table from collected events
/// (the `--timings` report).
pub fn render_timings(events: &[PassEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>12}   notes",
        "pass", "events", "total"
    );
    let mut grand = 0.0f64;
    for pass in PassId::all() {
        let of_pass: Vec<&PassEvent> = events.iter().filter(|e| e.pass == pass).collect();
        if of_pass.is_empty() {
            continue;
        }
        let total_us: f64 = of_pass.iter().map(|e| e.duration_us).sum();
        grand += total_us;
        let mut notes = String::new();
        match pass {
            PassId::Tune => {
                let (mut ev, mut pr) = (0usize, 0usize);
                for e in &of_pass {
                    if let EventDetail::Tune {
                        evaluated, pruned, ..
                    } = e.detail
                    {
                        ev += evaluated;
                        pr += pruned;
                    }
                }
                let _ = write!(notes, "evaluated {ev}, pruned {pr}");
            }
            PassId::EnumCfg => {
                let gen: usize = of_pass
                    .iter()
                    .map(|e| match e.detail {
                        EventDetail::Candidates { generated } => generated,
                        _ => 0,
                    })
                    .sum();
                let _ = write!(notes, "{gen} candidate(s)");
            }
            PassId::Verify => {
                let (mut er, mut wa) = (0usize, 0usize);
                for e in &of_pass {
                    if let EventDetail::Verify { errors, warnings } = e.detail {
                        er += errors;
                        wa += warnings;
                    }
                }
                let _ = write!(notes, "{er} error(s), {wa} warning(s)");
            }
            PassId::Fuzz => {
                let (mut seeds, mut fails) = (0usize, 0usize);
                for e in &of_pass {
                    if let EventDetail::Fuzz { failures, .. } = e.detail {
                        seeds += 1;
                        fails += failures;
                    }
                }
                let _ = write!(notes, "{seeds} seed(s), {fails} failure(s)");
            }
            PassId::Degrade => {
                let unfused = of_pass
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.detail,
                            EventDetail::Degrade {
                                rung: "unfused",
                                ..
                            }
                        )
                    })
                    .count();
                let _ = write!(notes, "{} step(s), {} to unfused", of_pass.len(), unfused);
            }
            PassId::FaultSim => {
                let (mut fired, mut deg, mut fails) = (0usize, 0usize, 0usize);
                for e in &of_pass {
                    if let EventDetail::FaultSim {
                        fired: f,
                        degraded,
                        failures,
                        ..
                    } = e.detail
                    {
                        fired += f;
                        deg += degraded;
                        fails += failures;
                    }
                }
                let _ = write!(
                    notes,
                    "{} plan(s), {fired} fired, {deg} degraded, {fails} failure(s)",
                    of_pass.len()
                );
            }
            _ => {}
        }
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9.2} µs   {}",
            pass.name(),
            of_pass.len(),
            total_us,
            notes
        );
    }
    let cache_probes: Vec<&PassEvent> = events
        .iter()
        .filter(|e| matches!(e.detail, EventDetail::Cache { .. }))
        .collect();
    if !cache_probes.is_empty() {
        let hits = cache_probes
            .iter()
            .filter(|e| matches!(e.detail, EventDetail::Cache { hit: true, .. }))
            .count();
        let _ = writeln!(
            out,
            "schedule cache: {} probe(s), {} hit(s)",
            cache_probes.len(),
            hits
        );
    }
    let _ = writeln!(out, "instrumented total: {grand:.2} µs");
    out
}

/// Wall-clock total and search-space statistics of one compilation.
/// Per-pass durations live on the [`PassEvent`] stream only.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Wall-clock total, µs.
    pub total_us: f64,
    /// Configurations generated.
    pub configs: usize,
    /// Configurations fully evaluated by the tuner.
    pub evaluated: usize,
    /// Configurations abandoned by the early-quit rule.
    pub pruned: usize,
    /// Subprograms served from the schedule cache.
    pub cache_hits: usize,
    /// Pattern signatures of fused kernels containing ≥ 2 All-to-One
    /// mappings (the paper's §6.6 census unit).
    pub fusion_patterns: Vec<String>,
    /// Units that fell down the degradation ladder (or recovered in
    /// place), in recording order.
    pub degradations: Vec<crate::resilience::DegradationStep>,
    /// Kernels whose disjoint-write proof failed, with the prover's
    /// reason: they execute on the serial path instead of the lock-free
    /// pool (see [`crate::verify::races::DisjointProof`]).
    pub lockfree_fallbacks: Vec<(String, String)>,
}

impl CompileStats {
    /// Accumulates another unit's statistics into `self` (everything
    /// except `total_us`, which is wall-clock and set by the session).
    pub(crate) fn absorb(&mut self, other: &CompileStats) {
        self.configs += other.configs;
        self.evaluated += other.evaluated;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.fusion_patterns
            .extend(other.fusion_patterns.iter().cloned());
        self.degradations.extend(other.degradations.iter().cloned());
        self.lockfree_fallbacks
            .extend(other.lockfree_fallbacks.iter().cloned());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_buffers_events() {
        let sink = CollectingSink::new();
        sink.record(PassEvent {
            pass: PassId::Tune,
            segment: 0,
            unit: "g".into(),
            duration_us: 1.5,
            detail: EventDetail::Tune {
                evaluated: 3,
                pruned: 1,
                best_us: 9.0,
            },
        });
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.take().len(), 1);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn timings_render_aggregates_per_pass() {
        let sink = CollectingSink::new();
        for i in 0..3 {
            sink.record(PassEvent {
                pass: PassId::SmgBuild,
                segment: 0,
                unit: format!("u{i}"),
                duration_us: 2.0,
                detail: EventDetail::None,
            });
        }
        sink.record(PassEvent {
            pass: PassId::Tune,
            segment: 0,
            unit: "u0".into(),
            duration_us: 10.0,
            detail: EventDetail::Tune {
                evaluated: 5,
                pruned: 2,
                best_us: 1.0,
            },
        });
        let table = render_timings(&sink.events());
        assert!(table.contains("smg-build"), "{table}");
        assert!(table.contains("evaluated 5, pruned 2"), "{table}");
    }

    #[test]
    fn stats_absorb_sums_everything_but_total() {
        let mut a = CompileStats {
            configs: 2,
            ..Default::default()
        };
        let b = CompileStats {
            configs: 5,
            total_us: 99.0,
            fusion_patterns: vec!["p".into()],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.configs, 7);
        assert_eq!(a.total_us, 0.0);
        assert_eq!(a.fusion_patterns, vec!["p".to_string()]);
    }
}
