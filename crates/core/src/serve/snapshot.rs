//! Disk persistence for the schedule cache: versioned, checksummed,
//! evict-on-corruption snapshots.
//!
//! Format (line-oriented text; `\` and newlines inside free-form fields
//! are backslash-escaped so every record stays one line):
//!
//! ```text
//! sfcache v2
//! entry <fnv1a64 of the body, 16 hex digits>
//! shape <escaped shape key>
//! policy <policy name>
//! arch <escaped GpuArch fingerprint>
//! pieces <len> <len> ...
//! suffix <escaped kernel-name suffix, possibly empty>
//! ...one suffix line per piece...
//! config spatial=<n>,<n>,... temporal=<n|-> split=<n|->
//! ...one config line per piece...
//! end
//! ```
//!
//! The checksum on each `entry` line covers the body lines from `shape`
//! through `end` inclusive. Loading is entry-by-entry and *never* fails
//! on content: a version-mismatched header marks the whole file stale
//! (nothing loads), while an entry whose checksum mismatches, whose
//! body fails to parse, or whose decoded [`CacheEntry`] is not
//! [well-formed](CacheEntry::is_well_formed) is evicted individually —
//! counted in [`LoadReport::evicted`] — and simply recompiled on first
//! use. A file truncated mid-entry drops only the trailing partial
//! entry. Saving writes entries in sorted key order, so equal caches
//! produce byte-identical snapshots.

use super::protocol::fnv1a64;
use crate::pipeline::{CacheEntry, CacheKey, FusionPolicy, SavedConfig, ScheduleCache};
use std::fs;
use std::io;
use std::path::Path;

/// Snapshot format version. Bump on any layout change; old files are
/// then treated as stale in full.
pub const SNAPSHOT_VERSION: &str = "sfcache v2";

/// Outcome of [`load`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries that passed checksum + parse + well-formedness and were
    /// published into the cache.
    pub loaded: usize,
    /// Entries dropped: checksum mismatch, parse failure, malformed
    /// schedule, truncation, or a stale file version (then every entry
    /// counts).
    pub evicted: usize,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn render_opt(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".into(),
    }
}

fn parse_opt(s: &str) -> Option<Option<usize>> {
    if s == "-" {
        Some(None)
    } else {
        s.parse::<usize>().ok().map(Some)
    }
}

/// Renders one entry's body (the checksummed lines, `shape` through
/// `end`, each newline-terminated).
fn render_body(key: &CacheKey, entry: &CacheEntry) -> String {
    use std::fmt::Write as _;
    let mut body = String::new();
    let _ = writeln!(body, "shape {}", escape(&key.shape));
    let _ = writeln!(body, "policy {}", key.policy.name());
    let _ = writeln!(body, "arch {}", escape(&key.arch));
    let pieces: Vec<String> = entry.piece_lens.iter().map(|l| l.to_string()).collect();
    let _ = writeln!(body, "pieces {}", pieces.join(" "));
    for suffix in &entry.suffixes {
        let _ = writeln!(body, "suffix {}", escape(suffix));
    }
    for c in &entry.configs {
        let spatial: Vec<String> = c.spatial.iter().map(|b| b.to_string()).collect();
        let _ = writeln!(
            body,
            "config spatial={} temporal={} split={}",
            spatial.join(","),
            render_opt(c.temporal),
            render_opt(c.split),
        );
    }
    body.push_str("end\n");
    body
}

/// Parses one entry body (the lines between `entry` and `end`,
/// exclusive) back into a key and entry. `None` means corrupt.
fn parse_body(lines: &[&str]) -> Option<(CacheKey, CacheEntry)> {
    let mut shape = None;
    let mut policy = None;
    let mut arch = None;
    let mut piece_lens: Option<Vec<usize>> = None;
    let mut suffixes = Vec::new();
    let mut configs = Vec::new();
    for line in lines {
        let (tag, rest) = line.split_once(' ').unwrap_or((*line, ""));
        match tag {
            "shape" => shape = Some(unescape(rest)?),
            "policy" => policy = Some(FusionPolicy::parse(rest)?),
            "arch" => arch = Some(unescape(rest)?),
            "pieces" => {
                piece_lens = Some(
                    rest.split_whitespace()
                        .map(|t| t.parse::<usize>().ok())
                        .collect::<Option<Vec<usize>>>()?,
                );
            }
            "suffix" => suffixes.push(unescape(rest)?),
            "config" => {
                let mut spatial = None;
                let mut temporal = None;
                let mut split = None;
                for field in rest.split_whitespace() {
                    let (name, value) = field.split_once('=')?;
                    match name {
                        "spatial" => {
                            spatial = Some(
                                value
                                    .split(',')
                                    .map(|t| t.parse::<usize>().ok())
                                    .collect::<Option<Vec<usize>>>()?,
                            );
                        }
                        "temporal" => temporal = Some(parse_opt(value)?),
                        "split" => split = Some(parse_opt(value)?),
                        _ => return None,
                    }
                }
                configs.push(SavedConfig {
                    spatial: spatial?,
                    temporal: temporal?,
                    split: split?,
                });
            }
            _ => return None,
        }
    }
    Some((
        CacheKey {
            shape: shape?,
            policy: policy?,
            arch: arch?,
        },
        CacheEntry {
            piece_lens: piece_lens?,
            suffixes,
            configs,
        },
    ))
}

/// Serializes the cache's published entries to the snapshot text.
pub fn render(cache: &ScheduleCache) -> String {
    let mut entries = cache.entries();
    entries.sort_by(|(a, _), (b, _)| {
        (&a.shape, a.policy.name(), &a.arch).cmp(&(&b.shape, b.policy.name(), &b.arch))
    });
    let mut out = String::new();
    out.push_str(SNAPSHOT_VERSION);
    out.push('\n');
    for (key, entry) in &entries {
        let body = render_body(key, entry);
        use std::fmt::Write as _;
        let _ = writeln!(out, "entry {:016x}", fnv1a64(body.as_bytes()));
        out.push_str(&body);
    }
    out
}

/// Writes the snapshot atomically (temp file + rename) so a crash
/// mid-save never leaves a half-written file at `path`.
pub fn save(cache: &ScheduleCache, path: &Path) -> io::Result<()> {
    save_with_faults(cache, path, None)
}

/// [`save`] with a fault-injection hook: a
/// [`FaultKind::KillDuringSnapshot`](crate::resilience::FaultKind) fault
/// abandons the write after `fault.block % len` bytes of the temp file
/// and never renames — simulating a daemon killed mid-snapshot. The
/// file at `path` is untouched, which is exactly the atomicity claim
/// the chaos campaign verifies.
pub fn save_with_faults(
    cache: &ScheduleCache,
    path: &Path,
    faults: Option<&crate::resilience::FaultInjector>,
) -> io::Result<()> {
    let text = render(cache);
    let tmp = path.with_extension("tmp");
    if let Some(inj) = faults {
        if let Some(fault) = inj.fire_fault(crate::resilience::FaultStage::ServeSnapshot, "save") {
            let cut = fault.block % text.len().max(1);
            fs::write(&tmp, &text.as_bytes()[..cut])?;
            return Ok(());
        }
    }
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Loads a snapshot text into the cache, entry by entry. See the
/// module docs for the eviction rules.
pub fn load_str(cache: &ScheduleCache, text: &str) -> LoadReport {
    let mut report = LoadReport::default();
    let mut lines = text.lines();
    let header_ok = lines.next() == Some(SNAPSHOT_VERSION);
    if !header_ok {
        // Stale or foreign file: count its entries as evicted and load
        // nothing — the daemon starts cold and overwrites on save.
        report.evicted = text.lines().filter(|l| l.starts_with("entry ")).count();
        return report;
    }
    let rest: Vec<&str> = lines.collect();
    let mut i = 0;
    while i < rest.len() {
        let Some(sum_hex) = rest[i].strip_prefix("entry ") else {
            // Stray line outside an entry: skip it.
            i += 1;
            continue;
        };
        // Collect the body through its `end` marker (or EOF: truncated).
        let body_start = i + 1;
        let mut body_end = None;
        for (j, line) in rest.iter().enumerate().skip(body_start) {
            if *line == "end" {
                body_end = Some(j);
                break;
            }
        }
        let Some(body_end) = body_end else {
            report.evicted += 1;
            break;
        };
        i = body_end + 1;
        let mut body = rest[body_start..body_end].join("\n");
        body.push_str("\nend\n");
        let sum_ok = u64::from_str_radix(sum_hex, 16)
            .map(|want| want == fnv1a64(body.as_bytes()))
            .unwrap_or(false);
        if !sum_ok {
            report.evicted += 1;
            continue;
        }
        match parse_body(&rest[body_start..body_end]) {
            Some((key, entry)) if entry.is_well_formed() => {
                cache.insert(key, entry);
                report.loaded += 1;
            }
            _ => report.evicted += 1,
        }
    }
    report
}

/// Loads a snapshot file into the cache. A missing file is an empty
/// snapshot (cold start); other I/O errors surface.
pub fn load(cache: &ScheduleCache, path: &Path) -> io::Result<LoadReport> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(load_str(cache, &text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LoadReport::default()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn key(shape: &str, policy: FusionPolicy) -> CacheKey {
        CacheKey {
            shape: shape.into(),
            policy,
            arch: "GpuArch { sms: 4 }".into(),
        }
    }

    fn entry(split: Option<usize>) -> CacheEntry {
        CacheEntry {
            piece_lens: vec![2, 1],
            // The empty suffix of an unsplit graph must round-trip too.
            suffixes: vec![String::new(), ".l.f".into()],
            configs: vec![
                SavedConfig {
                    spatial: vec![16, 8],
                    temporal: Some(4),
                    split,
                },
                SavedConfig {
                    spatial: vec![32],
                    temporal: None,
                    split: None,
                },
            ],
        }
    }

    fn populated() -> ScheduleCache {
        let cache = ScheduleCache::new();
        cache.insert(
            key("softmax:4x4", FusionPolicy::SpaceFusion),
            entry(Some(2)),
        );
        cache.insert(key("layernorm:8x8", FusionPolicy::Unfused), entry(None));
        cache
    }

    #[test]
    fn round_trips_and_is_deterministic() {
        let cache = populated();
        let text = render(&cache);
        assert_eq!(text, render(&cache), "render is deterministic");
        let back = ScheduleCache::new();
        let report = load_str(&back, &text);
        assert_eq!(
            report,
            LoadReport {
                loaded: 2,
                evicted: 0
            }
        );
        let mut a = cache.entries();
        let mut b = back.entries();
        a.sort_by(|(x, _), (y, _)| x.shape.cmp(&y.shape));
        b.sort_by(|(x, _), (y, _)| x.shape.cmp(&y.shape));
        assert_eq!(a, b);
        assert_eq!(render(&back), text, "reloaded cache renders identically");
    }

    #[test]
    fn escaped_fields_survive() {
        let cache = ScheduleCache::new();
        cache.insert(
            key("weird\\shape\nwith newline", FusionPolicy::EpilogueOnly),
            entry(None),
        );
        let back = ScheduleCache::new();
        assert_eq!(load_str(&back, &render(&cache)).loaded, 1);
        assert_eq!(back.entries()[0].0.shape, "weird\\shape\nwith newline");
    }

    #[test]
    fn stale_version_loads_nothing() {
        let text = render(&populated()).replacen("sfcache v2", "sfcache v1", 1);
        let back = ScheduleCache::new();
        let report = load_str(&back, &text);
        assert_eq!(report.loaded, 0);
        assert_eq!(report.evicted, 2, "every entry of a stale file counts");
        assert!(back.is_empty());
    }

    #[test]
    fn bit_flip_evicts_only_the_corrupt_entry() {
        let text = render(&populated());
        // Corrupt one digit inside the *first* entry's pieces line.
        let corrupted = text.replacen("pieces 2 1", "pieces 9 1", 1);
        assert_ne!(text, corrupted);
        let back = ScheduleCache::new();
        let report = load_str(&back, &corrupted);
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                evicted: 1
            }
        );
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn truncation_drops_only_the_trailing_entry() {
        let text = render(&populated());
        // Cut the file in the middle of the last entry's body.
        let cut = text.rfind("config").unwrap();
        let back = ScheduleCache::new();
        let report = load_str(&back, &text[..cut]);
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                evicted: 1
            }
        );
    }

    #[test]
    fn malformed_schedule_is_evicted_even_with_valid_checksum() {
        // A structurally valid body whose entry fails is_well_formed
        // (zero-length piece), checksummed correctly.
        let body = "shape s\npolicy unfused\narch a\npieces 0\nsuffix \n\
                    config spatial=8 temporal=- split=-\nend\n";
        let text = format!(
            "{SNAPSHOT_VERSION}\nentry {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        );
        let back = ScheduleCache::new();
        let report = load_str(&back, &text);
        assert_eq!(
            report,
            LoadReport {
                loaded: 0,
                evicted: 1
            }
        );
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join(format!("sfc-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.sfcache");
        let cache = populated();
        save(&cache, &path).unwrap();
        let back = ScheduleCache::new();
        assert_eq!(load(&back, &path).unwrap().loaded, 2);
        // Missing file is a cold start, not an error.
        let report = load(&back, &dir.join("absent.sfcache")).unwrap();
        assert_eq!(report, LoadReport::default());
        fs::remove_dir_all(&dir).ok();
    }
}
