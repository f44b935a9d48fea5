//! Cache snapshot files: serialize the LRU shards on drain, restore
//! them on boot, so a replica restart no longer means a cold cache
//! (and a fleet failover no longer means a cold storm).
//!
//! ## Format
//!
//! A snapshot is NDJSON — one header line, then one line per entry:
//!
//! ```text
//! {"snapshot_version":1,"saved_unix_ms":1754700000000,"entries":412}
//! {"key":"worst:d=2,n=8|cascade:w=1","age_ms":1200,"value":1,"leaves":64,...}
//! ```
//!
//! Entries are written most-recently-used first (the shard export
//! order), so a truncated read restores the hottest keys.  The header
//! carries the wall-clock save time: on restore, every entry's age is
//! advanced by the downtime, and anything at or past the cache TTL is
//! dropped by [`ShardedCache::insert_aged`] instead of resurrected —
//! a snapshot can age out on the shelf, never un-expire.
//!
//! The file is written to `<path>.tmp` and renamed into place, so a
//! crash mid-write leaves the previous snapshot intact.  An
//! unreadable or version-mismatched snapshot is reported, not
//! fatal — the server simply boots cold, exactly as before.

use crate::cache::ShardedCache;
use crate::workload::EvalOutcome;
use gt_analysis::Json;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Snapshot format revision; bumped on any incompatible change.
pub const SNAPSHOT_VERSION: u64 = 1;

/// The result cache as the snapshot layer sees it.
pub type SnapshotCache = ShardedCache<String, EvalOutcome>;

/// What a restore did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Entries inserted into the cache.
    pub restored: usize,
    /// Entries dropped — TTL-expired (age + downtime past the TTL) or
    /// refused by a zero-capacity cache.
    pub dropped: usize,
    /// Unparseable entry lines skipped.
    pub skipped: usize,
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// One cache entry as JSON — the shape shared by snapshot file lines
/// and `op:"cachepull"` reply entries, so a warm-fill peer and a
/// snapshot restore go through the same codec.
pub fn entry_json(key: &str, outcome: &EvalOutcome, age: Duration) -> Json {
    Json::obj([
        ("key", Json::from(key)),
        (
            "age_ms",
            Json::from(age.as_millis().min(u64::MAX as u128) as u64),
        ),
        ("value", Json::from(outcome.value)),
        ("leaves", Json::from(outcome.work)),
        ("steps", Json::from(outcome.steps)),
        ("max_width", Json::from(outcome.max_width)),
        ("pruned", Json::from(outcome.pruned)),
    ])
}

/// Decode one [`entry_json`] object back to `(key, outcome, age_ms)`.
/// Returns `None` on a malformed entry — callers skip, never fail.
/// Missing counters default to 0 and unknown keys are ignored, so
/// entries from older or newer replicas still load.
pub fn entry_from(j: &Json) -> Option<(String, EvalOutcome, u64)> {
    let key = j.get("key")?.as_str()?.to_string();
    let age_ms = j.get("age_ms").and_then(Json::as_u64).unwrap_or(0);
    let value = j
        .get("value")
        .and_then(Json::as_int)
        .and_then(|v| i64::try_from(v).ok())?;
    let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    Some((
        key,
        EvalOutcome {
            value,
            work: u("leaves"),
            steps: u("steps"),
            max_width: u("max_width").min(u32::MAX as u64) as u32,
            pruned: u("pruned"),
        },
        age_ms,
    ))
}

/// Serialize every live cache entry to `path` (atomically, via a
/// `.tmp` rename).  Returns the number of entries written.
pub fn save(path: &Path, cache: &SnapshotCache) -> std::io::Result<usize> {
    let entries = cache.export(0);
    let tmp = path.with_extension("tmp");
    {
        let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
        let header = Json::obj([
            ("snapshot_version", Json::from(SNAPSHOT_VERSION)),
            ("saved_unix_ms", Json::from(now_unix_ms())),
            ("entries", Json::from(entries.len() as u64)),
        ]);
        writeln!(w, "{}", header.render())?;
        for (key, outcome, age) in &entries {
            writeln!(w, "{}", entry_json(key, outcome, *age).render())?;
        }
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Restore a snapshot into `cache`.  Entry ages are advanced by the
/// wall-clock downtime since the save; TTL-expired entries are
/// dropped on load.  Fails only on I/O or a bad header — a damaged
/// entry line is skipped and counted, never fatal.
pub fn load(path: &Path, cache: &SnapshotCache) -> std::io::Result<RestoreReport> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut lines = reader.lines();
    let header_line = lines
        .next()
        .transpose()?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty snapshot"))?;
    let header = Json::parse(&header_line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let version = header
        .get("snapshot_version")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if version != SNAPSHOT_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("snapshot version {version} (want {SNAPSHOT_VERSION})"),
        ));
    }
    let saved_unix_ms = header
        .get("saved_unix_ms")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let downtime_ms = now_unix_ms().saturating_sub(saved_unix_ms);
    let mut report = RestoreReport::default();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Some((key, outcome, age_ms)) = Json::parse(&line).ok().as_ref().and_then(entry_from)
        else {
            report.skipped += 1;
            continue;
        };
        let age = Duration::from_millis(age_ms.saturating_add(downtime_ms));
        if cache.insert_aged(key, outcome, age) {
            report.restored += 1;
        } else {
            report.dropped += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(value: i64, work: u64) -> EvalOutcome {
        EvalOutcome {
            value,
            work,
            steps: 3,
            max_width: 2,
            pruned: 1,
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gt-snapshot-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn snapshot_round_trip_restores_the_identical_hit_set() {
        let path = tmp_path("roundtrip");
        let a: SnapshotCache = ShardedCache::with_ttl(64, 4, None);
        for i in 0..12i64 {
            a.insert(format!("worst:d=2,n={i}|seq-solve"), outcome(i, 1 << i));
        }
        let written = save(&path, &a).unwrap();
        assert_eq!(written, 12);
        // An entry as older replicas wrote it, with the work-stealing
        // counters they carried: it still loads, and those keys drop.
        let old = r#"{"key":"minmax:d=2,n=6|alphabeta","age_ms":0,"value":7,"leaves":40,"steps":5,"max_width":2,"pruned":6,"steals":3,"retired":2,"narrowed":1}"#;
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(old);
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let b: SnapshotCache = ShardedCache::with_ttl(64, 4, None);
        let report = load(&path, &b).unwrap();
        assert_eq!(report.restored, 13);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.skipped, 0);
        for i in 0..12i64 {
            let got = b.get(&format!("worst:d=2,n={i}|seq-solve"));
            assert_eq!(got, Some(outcome(i, 1 << i)), "key {i}");
        }
        assert_eq!(
            b.get(&"minmax:d=2,n=6|alphabeta".to_string()),
            Some(EvalOutcome {
                value: 7,
                work: 40,
                steps: 5,
                max_width: 2,
                pruned: 6,
            })
        );
        assert_eq!(b.len(), a.len() + 1, "identical hit set");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ttl_expired_entries_are_dropped_on_load() {
        let path = tmp_path("ttl");
        let ttl = Some(Duration::from_millis(40));
        let a: SnapshotCache = ShardedCache::with_ttl(64, 2, ttl);
        a.insert("fresh|seq-solve".into(), outcome(1, 4));
        save(&path, &a).unwrap();
        // Sit on the shelf past the TTL: downtime alone expires it.
        std::thread::sleep(Duration::from_millis(60));
        let b: SnapshotCache = ShardedCache::with_ttl(64, 2, ttl);
        let report = load(&path, &b).unwrap();
        assert_eq!(report.restored, 0);
        assert_eq!(report.dropped, 1, "aged out during downtime");
        assert!(b.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_and_garbage_are_contained() {
        let path = tmp_path("bad");
        std::fs::write(&path, "{\"snapshot_version\":99}\n").unwrap();
        let c: SnapshotCache = ShardedCache::new(16, 2);
        assert!(load(&path, &c).is_err(), "wrong version is an error");

        std::fs::write(
            &path,
            "{\"snapshot_version\":1,\"saved_unix_ms\":0}\nnot json\n{\"key\":\"k|a\",\"value\":2}\n",
        )
        .unwrap();
        let report = load(&path, &c).unwrap();
        assert_eq!(report.skipped, 1, "garbage line skipped");
        assert_eq!(report.restored, 1, "valid line restored");
        assert_eq!(c.get(&"k|a".to_string()).map(|o| o.value), Some(2));
        let _ = std::fs::remove_file(&path);
    }
}
