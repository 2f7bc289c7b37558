//! Shared wall-clock recording into `BENCH_repro.json` and the
//! append-only `BENCH_history.jsonl`.
//!
//! Both the `repro` binary (per-artifact sweep timings, keyed
//! `jobs_N`) and the `trace` binary (the `trace_tool`
//! key) merge their entries into the same file in the working
//! directory, so one JSON object holds every timing a checkout has
//! produced. Every entry carries the [`stamp`] provenance prefix (git
//! revision, quick/full regime, engine selection), so timings from
//! different checkouts and modes can be told apart after the fact.
//!
//! `BENCH_repro.json` answers "what does this checkout cost right now";
//! [`HISTORY_FILE`] answers "how has that cost moved over time". History
//! records are only ever appended — one JSON object per line, stamped
//! the same way, optionally carrying the deterministic counter digest a
//! `perf-report` run produces — which makes the file a continuous
//! benchmark log that CI can archive per commit and regress against.
//!
//! Recording is best-effort: a write failure warns and never fails the
//! run it is timing.

use sim_core::Json;

/// The merged timings file, written in the working directory.
pub const BENCH_FILE: &str = "BENCH_repro.json";

/// The append-only benchmark history (JSONL, one record per line).
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Short git revision of the working tree, or `"unknown"` when git (or a
/// repository) is unavailable — recording must work from a tarball too.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance prefix every BENCH entry starts with: git revision,
/// `quick`/`full` regime, and memory-engine selection.
pub fn stamp(regime: &str, engine: &str) -> Vec<(String, Json)> {
    vec![
        ("git_rev".into(), Json::Str(git_rev())),
        ("regime".into(), Json::Str(regime.into())),
        ("engine".into(), Json::Str(engine.into())),
    ]
}

/// Append one record to the JSONL history at `file`. Best-effort like
/// [`record`]; the existing contents are never rewritten.
pub fn append_history(file: &str, record: &Json) {
    use std::io::Write;
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(file)
        .and_then(|mut f| f.write_all(format!("{record}\n").as_bytes()));
    match res {
        Err(e) => eprintln!("warning: cannot append to {file}: {e}"),
        Ok(()) => eprintln!("appended history record to {file}"),
    }
}

/// Merge `entry` under `key` into the JSON object stored at `file`,
/// creating the file (or replacing a non-object) if needed. Existing
/// keys other than `key` are preserved in their original order.
pub fn record(file: &str, key: &str, entry: Json) {
    let mut doc = std::fs::read_to_string(file)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| match j {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .unwrap_or_default();
    match doc.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = entry,
        None => doc.push((key.to_string(), entry)),
    }
    let text = Json::Obj(doc).to_string_pretty();
    if let Err(e) = std::fs::write(file, text) {
        eprintln!("warning: cannot write {file}: {e}");
    } else {
        eprintln!("recorded timings in {file}");
    }
}

/// Round to milliseconds so the merged file diffs stay readable.
pub fn round3(s: f64) -> f64 {
    (s * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merges_and_preserves_other_keys() {
        let dir = std::env::temp_dir().join("vprobe-benchrec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bench.json");
        let file = file.to_str().unwrap();
        let _ = std::fs::remove_file(file);

        record(file, "a", Json::from(1u64));
        record(file, "b", Json::from(2u64));
        record(file, "a", Json::from(3u64));

        let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("b").and_then(Json::as_u64), Some(2));
        // First-insertion order is preserved across re-records.
        match doc {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "a");
                assert_eq!(pairs[1].0, "b");
            }
            _ => panic!("expected object"),
        }
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn stamp_carries_rev_regime_engine() {
        let s = stamp("quick", "approx");
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].0, "git_rev");
        assert!(matches!(&s[0].1, Json::Str(r) if !r.is_empty()));
        assert_eq!(s[1], ("regime".into(), Json::Str("quick".into())));
        assert_eq!(s[2], ("engine".into(), Json::Str("approx".into())));
    }

    #[test]
    fn append_history_is_append_only_jsonl() {
        let dir = std::env::temp_dir().join("vprobe-benchrec-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("history.jsonl");
        let file = file.to_str().unwrap();
        let _ = std::fs::remove_file(file);

        append_history(file, &Json::Obj(vec![("a".into(), Json::from(1u64))]));
        append_history(file, &Json::Obj(vec![("b".into(), Json::from(2u64))]));

        let text = std::fs::read_to_string(file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("a").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("b").and_then(Json::as_u64),
            Some(2)
        );
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn round3_truncates_to_milliseconds() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(round3(0.0004), 0.0);
    }
}
