//! The host fingerprint stamped into every result document, and the
//! comparison of two result sets, which refuses sets whose fingerprints
//! differ: a speed figure from one host says nothing about another.

use std::collections::BTreeMap;
use std::path::Path;

use vic_profile::{parse_json, JsonValue};

use crate::stats::quantile;

/// What identifies the host and build a result came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Available parallelism.
    pub nproc: u64,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// The cargo profile the benchmark was built with.
    pub profile: String,
    /// The checkout's git commit, or `none` outside a git checkout. Not
    /// part of the comparison: an A/B run compares two commits.
    pub commit: String,
}

/// Read the commit `HEAD` names from `<root>/.git`, without leaving the
/// checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(git.join(reference)) {
        return Some(c.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

impl Fingerprint {
    /// The fingerprint of this host and build; `root` is the checkout.
    pub fn current(root: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "none".to_string()),
        }
    }

    /// The fields that must match for two results to be compared.
    pub fn host_key(&self) -> String {
        format!(
            "{} | nproc {} | {} | {}",
            self.cpu_model, self.nproc, self.rustc, self.profile
        )
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":{},\"nproc\":{},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
            quote(&self.cpu_model),
            self.nproc,
            quote(&self.rustc),
            quote(&self.profile),
            quote(&self.commit)
        )
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(Fingerprint {
            cpu_model: s("cpu_model")?,
            nproc: v.get("nproc").and_then(JsonValue::as_u64)?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            commit: s("commit")?,
        })
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One result document: a run's fingerprint, workload and metrics.
#[derive(Debug, Clone)]
pub struct ResultDoc {
    /// Where it ran.
    pub fingerprint: Fingerprint,
    /// Which workload.
    pub workload: String,
    /// Whether every output was correct.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse a result set: one result document per line.
///
/// # Errors
///
/// A line that is not a result document.
pub fn parse_set(text: &str) -> Result<Vec<ResultDoc>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = parse_json(line).map_err(|e| bad(&e.to_string()))?;
            let fingerprint = v
                .get("fingerprint")
                .and_then(Fingerprint::from_json)
                .ok_or_else(|| bad("no fingerprint"))?;
            let workload = v
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string();
            let correct = v.get("correct").and_then(JsonValue::as_bool) == Some(true);
            let Some(JsonValue::Obj(fields)) = v.get("metrics") else {
                return Err(bad("no metrics"));
            };
            let metrics = fields
                .iter()
                .filter_map(|(k, x)| {
                    x.get("value")
                        .and_then(JsonValue::as_f64)
                        .map(|f| (k.clone(), f))
                })
                .collect();
            Ok(ResultDoc {
                fingerprint,
                workload,
                correct,
                metrics,
            })
        })
        .collect()
}

/// Compare result set `b` against `a`: per workload and metric, each
/// side's median and quartile spread and the ratio of medians.
///
/// # Errors
///
/// Refuses when any document's host fingerprint differs from the first
/// document of `a`, when a set is empty, or when a result was incorrect.
pub fn compare(a: &[ResultDoc], b: &[ResultDoc]) -> Result<String, String> {
    let first = a.first().ok_or("first result set is empty")?;
    if b.is_empty() {
        return Err("second result set is empty".to_string());
    }
    let key = first.fingerprint.host_key();
    for d in a.iter().chain(b) {
        if d.fingerprint.host_key() != key {
            return Err(format!(
                "refusing to compare results from different hosts or builds:\n  {key}\n  {}",
                d.fingerprint.host_key()
            ));
        }
        if !d.correct {
            return Err(format!(
                "refusing to compare: an incorrect {} result",
                d.workload
            ));
        }
    }
    let group = |set: &[ResultDoc]| {
        let mut g: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for d in set {
            for (name, &v) in &d.metrics {
                g.entry((d.workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        g
    };
    let (ga, gb) = (group(a), group(b));
    let mut out = format!("host: {key}\n");
    out.push_str(&format!(
        "{:<16} {:<22} {:>12} {:>8} {:>12} {:>8} {:>8}\n",
        "workload", "metric", "median A", "IQR A", "median B", "IQR B", "B/A"
    ));
    for ((w, name), va) in &ga {
        let Some(vb) = gb.get(&(w.clone(), name.clone())) else {
            continue;
        };
        let stat = |v: &[f64]| {
            let med = quantile(v, 0.5);
            (med, (quantile(v, 0.75) - quantile(v, 0.25)) / med)
        };
        let ((ma, sa), (mb, sb)) = (stat(va), stat(vb));
        out.push_str(&format!(
            "{w:<16} {name:<22} {ma:>12.4} {sa:>8.3} {mb:>12.4} {sb:>8.3} {:>8.3}\n",
            mb / ma
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cpu: &str, value: f64) -> String {
        let fp = Fingerprint {
            cpu_model: cpu.to_string(),
            nproc: 2,
            rustc: "rustc 1.0".to_string(),
            profile: "release".to_string(),
            commit: "abc".to_string(),
        };
        format!(
            "{{\"fingerprint\":{},\"workload\":\"table-grid\",\"correct\":true,\"metrics\":{{\"ns_per_sim_cycle\":{{\"value\":{value},\"unit\":\"ns\"}}}}}}",
            fp.to_json()
        )
    }

    #[test]
    fn same_host_compares() {
        let a = parse_set(&doc("cpu", 2.0)).expect("parses");
        let b = parse_set(&format!("{}\n{}\n", doc("cpu", 3.0), doc("cpu", 3.0))).expect("parses");
        let table = compare(&a, &b).expect("same fingerprint");
        assert!(table.contains("ns_per_sim_cycle"), "{table}");
        assert!(table.contains("1.500"), "{table}");
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let a = parse_set(&doc("cpu one", 2.0)).expect("parses");
        let b = parse_set(&doc("cpu two", 2.0)).expect("parses");
        let err = compare(&a, &b).expect_err("different hosts");
        assert!(err.contains("refusing"), "{err}");
    }

    #[test]
    fn current_fingerprint_round_trips() {
        let fp = Fingerprint::current(Path::new("."));
        let v = parse_json(&fp.to_json()).expect("valid JSON");
        assert_eq!(Fingerprint::from_json(&v), Some(fp));
    }
}
