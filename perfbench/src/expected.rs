//! The expected-results file: the simulated statistics every benchmark
//! run must reproduce.
//!
//! Each entry is keyed by (workload, seed, spec) and holds the fxhash
//! digest of the run's `run_json` bytes plus its simulated cycle count.
//! Result-replay entries carry no seed: its specs run the programs'
//! default seeds whatever the benchmark seed, which only shapes the
//! request stream. The file is rewritten only by `--regenerate-expected`.

use std::collections::HashMap;
use std::hash::Hasher;

use vic_core::fxhash::FxHasher;
use vic_profile::{parse_json, JsonValue};

/// Schema tag of the file.
const SCHEMA: &str = "vic-perfbench-expected";

/// The seeds the committed file covers: every seed in `0..=31`, plus the
/// held-out seed. Runs with other seeds are checked against the
/// reference engine instead (see `inproc::verify`).
pub fn covered_seeds() -> Vec<u64> {
    (0..=31).chain([crate::HELD_OUT_SEED]).collect()
}

/// The digest of one run's result bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

/// One expected run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Digest of the `run_json` bytes.
    pub digest: u64,
    /// Simulated cycles of the run.
    pub cycles: u64,
}

type Key = (String, Option<u64>, String);

/// The loaded file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    entries: HashMap<Key, Entry>,
    order: Vec<Key>,
}

impl Expected {
    /// Record (or replace) an entry.
    pub fn insert(&mut self, workload: &str, seed: Option<u64>, spec: &str, entry: Entry) {
        let key = (workload.to_string(), seed, spec.to_string());
        if self.entries.insert(key.clone(), entry).is_none() {
            self.order.push(key);
        }
    }

    /// The entry for (workload, seed, spec), if the file has one.
    pub fn get(&self, workload: &str, seed: Option<u64>, spec: &str) -> Option<Entry> {
        self.entries
            .get(&(workload.to_string(), seed, spec.to_string()))
            .copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Parse the file's text.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| format!("expected file: {e}"))?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("expected file: schema is not '{SCHEMA}'"));
        }
        let version = doc.get("engine_version").and_then(JsonValue::as_u64);
        if version != Some(vic_core::ENGINE_VERSION) {
            return Err(format!(
                "expected file: engine_version {version:?} != {}",
                vic_core::ENGINE_VERSION
            ));
        }
        let rows = doc
            .get("entries")
            .and_then(JsonValue::as_arr)
            .ok_or("expected file: no 'entries' array")?;
        let mut out = Expected::default();
        for (i, row) in rows.iter().enumerate() {
            let bad = || format!("expected file: malformed entry {i}");
            let f = row.as_arr().filter(|f| f.len() == 5).ok_or_else(bad)?;
            let workload = f[0].as_str().ok_or_else(bad)?;
            let seed = match &f[1] {
                JsonValue::Null => None,
                v => Some(v.as_str().and_then(|s| s.parse().ok()).ok_or_else(bad)?),
            };
            let spec = f[2].as_str().ok_or_else(bad)?;
            let digest = f[3]
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(bad)?;
            let cycles = f[4].as_u64().ok_or_else(bad)?;
            out.insert(workload, seed, spec, Entry { digest, cycles });
        }
        Ok(out)
    }

    /// Read and parse the file at `path`.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    /// Render the file, one entry per line. Seeds are strings because
    /// they use all 64 bits and a JSON number holds 53.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"engine_version\":{},\"entries\":[\n",
            vic_core::ENGINE_VERSION
        );
        for (i, key) in self.order.iter().enumerate() {
            let e = self.entries[key];
            let seed = key.1.map_or("null".to_string(), |s| format!("\"{s}\""));
            out.push_str(&format!(
                "[\"{}\",{seed},\"{}\",\"{:016x}\",{}]{}\n",
                key.0,
                key.2,
                e.digest,
                e.cycles,
                if i + 1 < self.order.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Cross-check against `BENCH_baseline.json`: every baseline run whose
    /// label names a result-replay spec must have the same cycle count.
    /// Returns how many runs overlapped.
    ///
    /// # Errors
    ///
    /// A malformed baseline, or the first disagreeing spec.
    pub fn cross_check_baseline(&self, baseline: &str) -> Result<usize, String> {
        let doc = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(JsonValue::as_arr)
            .ok_or("baseline: no 'runs' array")?;
        let mut overlap = 0;
        for run in runs {
            let label = run.get("label").and_then(JsonValue::as_str);
            let cycles = run.get("total_cycles").and_then(JsonValue::as_u64);
            let (Some(label), Some(cycles)) = (label, cycles) else {
                return Err("baseline: run without label or total_cycles".to_string());
            };
            if let Some(e) = self.get("result-replay", None, label) {
                if e.cycles != cycles {
                    return Err(format!(
                        "{label}: expected file says {} cycles, baseline says {cycles}",
                        e.cycles
                    ));
                }
                overlap += 1;
            }
        }
        Ok(overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_garbage() {
        let mut e = Expected::default();
        e.insert(
            "table-grid",
            Some(u64::MAX),
            "afs-bench @ A",
            Entry {
                digest: 7,
                cycles: 9,
            },
        );
        e.insert(
            "result-replay",
            None,
            "x +quick",
            Entry {
                digest: 1,
                cycles: 2,
            },
        );
        let back = Expected::parse(&e.to_json()).expect("parses");
        assert_eq!(back, e);
        assert_eq!(
            back.get("table-grid", Some(u64::MAX), "afs-bench @ A")
                .map(|e| e.digest),
            Some(7)
        );
        assert!(Expected::parse("{}").is_err());
        assert!(Expected::parse(&e.to_json().replace("\"afs", "3,\"afs")).is_err());
    }

    #[test]
    fn digest_separates_lengths() {
        assert_ne!(digest_bytes(b"a"), digest_bytes(b"a\0"));
    }
}
