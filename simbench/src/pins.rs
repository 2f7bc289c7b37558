//! Pinned output fingerprints.
//!
//! Each operation's deterministic output (a `RunMetrics::to_json`, a
//! `FleetReport::to_json`, or an export string) is hashed with FNV-1a 64.
//! Fingerprints never cover wall-clock values, BENCH files, git stamps or
//! perf counters: the last depend on how a run is chunked into
//! `Machine::run` calls, which the benchmark chooses.
//!
//! `fingerprints.txt` pins every operation for the default seed and one
//! held-out seed, one `seed workload operation digest` line each. Any
//! other seed runs only the seed-independent checks and prints its
//! fingerprints in the same format, so a new seed can be pinned by
//! appending those lines.

use std::collections::BTreeMap;

/// Where the pinned table lives (inside this package).
pub const PIN_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt");

pub fn digest(output: &str) -> String {
    telemetry::digest64(output)
}

#[derive(Debug, Default, Clone)]
pub struct Pins {
    table: BTreeMap<(u64, String, String), String>,
}

impl Pins {
    pub fn load() -> Result<Pins, String> {
        let text = std::fs::read_to_string(PIN_FILE)
            .map_err(|e| format!("cannot read {PIN_FILE}: {e}"))?;
        Pins::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, op, digest] = f[..] else {
                return Err(format!("{PIN_FILE}:{}: expected 4 fields", n + 1));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("{PIN_FILE}:{}: bad seed '{seed}'", n + 1))?;
            table.insert((seed, workload.into(), op.into()), digest.into());
        }
        Ok(Pins { table })
    }

    /// Whether `seed` has pinned fingerprints for `workload`.
    pub fn pinned(&self, seed: u64, workload: &str) -> bool {
        self.table
            .range((seed, workload.to_string(), String::new())..)
            .next()
            .is_some_and(|((s, w, _), _)| *s == seed && w == workload)
    }

    pub fn get(&self, seed: u64, workload: &str, op: &str) -> Option<&str> {
        self.table
            .get(&(seed, workload.to_string(), op.to_string()))
            .map(String::as_str)
    }
}

/// One pin line, in the file's format.
pub fn pin_line(seed: u64, workload: &str, op: &str, digest: &str) -> String {
    format!("{seed} {workload} {op} {digest}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_looks_up() {
        let p =
            Pins::parse("# header\n42 paper-eval soplex/Credit 00ff\n\n7 fleet-churn fleet 0a\n")
                .unwrap();
        assert!(p.pinned(42, "paper-eval"));
        assert!(!p.pinned(42, "fleet-churn"));
        assert!(!p.pinned(41, "paper-eval"));
        assert_eq!(p.get(42, "paper-eval", "soplex/Credit"), Some("00ff"));
        assert_eq!(p.get(7, "fleet-churn", "fleet"), Some("0a"));
        assert!(Pins::parse("42 paper-eval x").is_err());
    }

    #[test]
    fn committed_table_parses() {
        let p = Pins::load().unwrap();
        assert!(p.pinned(crate::DEFAULT_SEED, "paper-eval"));
        assert!(p.pinned(crate::HELD_OUT_SEED, "fleet-churn"));
    }
}
