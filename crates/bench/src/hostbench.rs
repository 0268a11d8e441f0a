//! Host-throughput benchmark rig: how fast does the *simulator itself*
//! run, in wall-clock terms?
//!
//! The BENCH trajectory so far tracks simulated cycles only — a perfect
//! regression fence for the model, and completely blind to the cost of
//! producing those cycles on the host. This rig times the quick Table-4
//! and Table-5 grids (the same 23 runs the sweep and the profile baseline
//! regenerate) and reports **runs per second** and **nanoseconds of host
//! time per simulated cycle**, the two numbers that bound how much
//! workload a future PR can afford to model.
//!
//! Methodology: every spec is run `reps` times serially on one thread and
//! the **best** wall time is kept — the minimum is the least-noise
//! estimator for a deterministic computation (Chen & Revels, "Robust
//! benchmarking in noisy environments"; the same choice the internal
//! `harness` makes). Simulated cycle counts are asserted identical across
//! repetitions, so a hostbench run doubles as a determinism check.
//!
//! Results append to a versioned `BENCH_host.json`, one entry per
//! invocation; the binary prints a per-run comparison against the
//! previous entry of the same grid, which is how the engine-rework PRs
//! report their before/after wall-clock numbers.

use std::time::Instant;

use vic_profile::{parse_json, JsonValue};

use crate::cli::{parse_system, parse_workload};
use crate::output::{json_array, spec_json, JsonObj};
use crate::spec::SystemSpec;

/// The default hostbench results file.
pub const DEFAULT_HOST_FILE: &str = "BENCH_host.json";

/// One timed spec within a hostbench entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRun {
    /// The spec that was timed.
    pub spec: SystemSpec,
    /// The spec's display label (runs are matched across entries by it).
    pub label: String,
    /// Simulated cycles of one run (identical across repetitions).
    pub sim_cycles: u64,
    /// Best wall time over the repetitions, in nanoseconds.
    pub wall_ns: u64,
}

impl HostRun {
    /// Host nanoseconds per simulated cycle for this run.
    pub fn ns_per_sim_cycle(&self) -> f64 {
        self.wall_ns as f64 / self.sim_cycles as f64
    }
}

/// Which spec grid an entry timed. Entries are only compared to previous
/// entries of the same grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostGrid {
    /// The quick Table-4 + Table-5 grids (23 runs) — the real measurement.
    Full,
    /// A three-spec subset for CI smoke tests.
    Tiny,
}

impl HostGrid {
    /// The JSON/CLI name of the grid.
    pub fn name(self) -> &'static str {
        match self {
            HostGrid::Full => "full",
            HostGrid::Tiny => "tiny",
        }
    }

    /// Parse a grid name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(HostGrid::Full),
            "tiny" => Some(HostGrid::Tiny),
            _ => None,
        }
    }

    /// The specs this grid times.
    pub fn specs(self) -> Vec<SystemSpec> {
        match self {
            HostGrid::Full => {
                let mut specs = SystemSpec::table4_grid(true);
                specs.extend(SystemSpec::table5_grid(true));
                specs
            }
            HostGrid::Tiny => {
                use vic_core::policy::Configuration;
                use vic_os::SystemKind;
                use vic_workloads::WorkloadKind;
                vec![
                    SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::A)),
                    SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F)),
                    SystemSpec::quick(WorkloadKind::Afs, SystemKind::Sun),
                ]
            }
        }
    }
}

/// One complete hostbench measurement: every spec of a grid timed under
/// one build of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct HostEntry {
    /// Free-form label naming the engine state (e.g. `pre-rework`).
    pub label: String,
    /// The grid that was timed.
    pub grid: HostGrid,
    /// Repetitions per spec (best-of).
    pub reps: u32,
    /// One timed result per spec, in grid order.
    pub runs: Vec<HostRun>,
}

impl HostEntry {
    /// Time every spec of `grid`, `reps` times each, serially.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero or a run is nondeterministic (different
    /// simulated cycle counts across repetitions).
    pub fn measure(label: &str, grid: HostGrid, reps: u32) -> Self {
        Self::measure_with_progress(
            label,
            grid,
            reps,
            &vic_metrics::ProgressReporter::disabled(),
        )
    }

    /// [`HostEntry::measure`] with a live progress/ETA line: `progress`
    /// ticks once per completed spec (all repetitions of it). Reporting
    /// goes to stderr and never touches the measurement itself.
    ///
    /// # Panics
    ///
    /// As for [`HostEntry::measure`].
    pub fn measure_with_progress(
        label: &str,
        grid: HostGrid,
        reps: u32,
        progress: &vic_metrics::ProgressReporter,
    ) -> Self {
        assert!(reps >= 1, "hostbench needs at least one repetition");
        let runs = grid
            .specs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut best_ns = u64::MAX;
                let mut cycles = None;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let stats = spec.run();
                    let ns = t0.elapsed().as_nanos() as u64;
                    best_ns = best_ns.min(ns.max(1));
                    match cycles {
                        None => cycles = Some(stats.cycles),
                        Some(c) => {
                            assert_eq!(c, stats.cycles, "nondeterministic run for {}", spec.label())
                        }
                    }
                }
                progress.tick((i + 1) as u64);
                HostRun {
                    spec,
                    label: spec.label(),
                    sim_cycles: cycles.expect("reps >= 1"),
                    wall_ns: best_ns,
                }
            })
            .collect();
        progress.finish();
        HostEntry {
            label: label.to_string(),
            grid,
            reps,
            runs,
        }
    }

    /// This entry's fleet telemetry as a merged [`vic_metrics::MetricsShard`] plus the
    /// per-run list for a metrics document: same schema as the sweep's
    /// `--metrics` output, so one reader handles both.
    pub fn metrics(&self) -> (vic_metrics::MetricsShard, Vec<crate::output::RunMetric>) {
        let mut shard = vic_metrics::MetricsShard::default();
        let runs = self
            .runs
            .iter()
            .map(|r| {
                shard.add("runs_completed", 1);
                shard.add("sim_cycles", r.sim_cycles);
                shard.observe("sim_cycles_per_run", r.sim_cycles);
                shard.observe("host_ns_per_run", r.wall_ns);
                shard.gauge_max("peak_sim_cycles", r.sim_cycles);
                crate::output::RunMetric {
                    label: r.label.clone(),
                    sim_cycles: r.sim_cycles,
                    host_ns: r.wall_ns,
                }
            })
            .collect();
        (shard, runs)
    }

    /// Total best-of wall time across the grid, in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9
    }

    /// Total simulated cycles across the grid.
    pub fn sim_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.sim_cycles).sum()
    }

    /// Grid runs completed per host second.
    pub fn runs_per_sec(&self) -> f64 {
        self.runs.len() as f64 / self.wall_seconds()
    }

    /// Host nanoseconds per simulated cycle, across the whole grid.
    pub fn ns_per_sim_cycle(&self) -> f64 {
        (self.wall_seconds() * 1e9) / self.sim_cycles() as f64
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} runs ({} grid, best of {}) in {:.3} s wall — {:.1} runs/s, {:.1} ns/sim-cycle",
            self.label,
            self.runs.len(),
            self.grid.name(),
            self.reps,
            self.wall_seconds(),
            self.runs_per_sec(),
            self.ns_per_sim_cycle(),
        )
    }
}

/// Serialize one entry.
pub fn host_entry_json(e: &HostEntry) -> String {
    let detail = json_array(e.runs.iter().map(|r| {
        JsonObj::new()
            .raw("spec", &spec_json(&r.spec))
            .str("label", &r.label)
            .u64("sim_cycles", r.sim_cycles)
            .u64("wall_ns", r.wall_ns)
            .finish()
    }));
    JsonObj::new()
        .str("label", &e.label)
        .str("grid", e.grid.name())
        .u64("reps", u64::from(e.reps))
        .u64("runs", e.runs.len() as u64)
        .f64("wall_seconds", e.wall_seconds())
        .u64("sim_cycles", e.sim_cycles())
        .f64("runs_per_sec", e.runs_per_sec())
        .f64("ns_per_sim_cycle", e.ns_per_sim_cycle())
        .raw("runs_detail", &detail)
        .finish()
}

/// Serialize a whole `BENCH_host.json` document.
pub fn host_doc_json(entries: &[HostEntry]) -> String {
    JsonObj::new()
        .u64("engine_version", vic_core::ENGINE_VERSION)
        .raw("entries", &json_array(entries.iter().map(host_entry_json)))
        .finish()
}

fn field<'a>(v: &'a JsonValue, key: &'static str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn str_field(v: &JsonValue, key: &'static str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn u64_field(v: &JsonValue, key: &'static str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn bool_field(v: &JsonValue, key: &'static str) -> Result<bool, String> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("field '{key}' is not a boolean")),
    }
}

fn parse_spec(v: &JsonValue) -> Result<SystemSpec, String> {
    let workload = parse_workload(&str_field(v, "workload")?).map_err(|e| e.to_string())?;
    let system = parse_system(&str_field(v, "system")?).map_err(|e| e.to_string())?;
    Ok(SystemSpec {
        workload,
        system,
        quick: bool_field(v, "quick")?,
        colored_free_lists: bool_field(v, "colored_free_lists")?,
        write_through: bool_field(v, "write_through")?,
        fast_purge: bool_field(v, "fast_purge")?,
        repeat: u32::try_from(u64_field(v, "repeat")?)
            .map_err(|_| "field 'repeat' out of range".to_string())?,
    })
}

/// Parse and schema-validate a `BENCH_host.json` document.
///
/// # Errors
///
/// A message naming the first schema violation (also the `--check`
/// verdict of the `hostbench` binary).
pub fn parse_host_doc(text: &str) -> Result<Vec<HostEntry>, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let version = u64_field(&doc, "engine_version")?;
    if version != vic_core::ENGINE_VERSION {
        return Err(format!(
            "engine_version {version} (this build reads {})",
            vic_core::ENGINE_VERSION
        ));
    }
    let entries = field(&doc, "entries")?
        .as_arr()
        .ok_or("'entries' is not an array")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let parse = || -> Result<HostEntry, String> {
                let grid_name = str_field(e, "grid")?;
                let grid = HostGrid::parse(&grid_name)
                    .ok_or_else(|| format!("unknown grid '{grid_name}'"))?;
                let reps = u32::try_from(u64_field(e, "reps")?)
                    .map_err(|_| "reps out of range".to_string())?;
                if reps == 0 {
                    return Err("reps must be at least 1".to_string());
                }
                let runs = field(e, "runs_detail")?
                    .as_arr()
                    .ok_or("'runs_detail' is not an array")?
                    .iter()
                    .map(|r| {
                        let sim_cycles = u64_field(r, "sim_cycles")?;
                        let wall_ns = u64_field(r, "wall_ns")?;
                        if sim_cycles == 0 || wall_ns == 0 {
                            return Err("zero sim_cycles or wall_ns".to_string());
                        }
                        Ok(HostRun {
                            spec: parse_spec(field(r, "spec")?)?,
                            label: str_field(r, "label")?,
                            sim_cycles,
                            wall_ns,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                if runs.is_empty() {
                    return Err("entry has no runs".to_string());
                }
                Ok(HostEntry {
                    label: str_field(e, "label")?,
                    grid,
                    reps,
                    runs,
                })
            };
            parse().map_err(|msg| format!("entry {i}: {msg}"))
        })
        .collect()
}

/// Validate that every entry's runs cover its grid — each spec the grid
/// currently generates is timed exactly once, and no stale runs for specs
/// the grid no longer contains linger. Schema-valid but incomplete
/// entries (e.g. a grid that grew since the entry was measured) fail
/// here, which keeps committed before/after comparisons honest: a speedup
/// claim over a subset of the grid is not a speedup over the grid.
///
/// # Errors
///
/// A message naming the first uncovered or stale run label.
pub fn check_entry_coverage(entries: &[HostEntry]) -> Result<(), String> {
    for (i, e) in entries.iter().enumerate() {
        // Multiset comparison: a spec may legitimately appear in both the
        // Table-4 and Table-5 halves of the full grid, so an entry must
        // time it once per occurrence.
        let want: Vec<String> = e.grid.specs().iter().map(SystemSpec::label).collect();
        for label in &want {
            let expected = want.iter().filter(|l| l == &label).count();
            let got = e.runs.iter().filter(|r| &r.label == label).count();
            if got != expected {
                return Err(format!(
                    "entry {i} ('{}'): grid '{}' spec '{label}' timed {got} times (want {expected})",
                    e.label,
                    e.grid.name()
                ));
            }
        }
        for r in &e.runs {
            if !want.contains(&r.label) {
                return Err(format!(
                    "entry {i} ('{}'): run '{}' is not in the current '{}' grid",
                    e.label,
                    r.label,
                    e.grid.name()
                ));
            }
            if r.spec.label() != r.label {
                return Err(format!(
                    "entry {i} ('{}'): run label '{}' does not match its spec ('{}')",
                    e.label,
                    r.label,
                    r.spec.label()
                ));
            }
        }
    }
    Ok(())
}

/// Render a per-run before/after comparison of two entries of the same
/// grid. Runs are matched by label; speedup is `before / after` wall
/// time, so >1 means the engine got faster.
pub fn render_comparison(before: &HostEntry, after: &HostEntry) -> String {
    use vic_workloads::report::Table;
    let mut t = Table::new(["run", "sim cycles", "before (ms)", "after (ms)", "speedup"]);
    for b in &before.runs {
        let Some(a) = after.runs.iter().find(|a| a.label == b.label) else {
            continue;
        };
        t.row([
            b.label.clone(),
            a.sim_cycles.to_string(),
            format!("{:.3}", b.wall_ns as f64 / 1e6),
            format!("{:.3}", a.wall_ns as f64 / 1e6),
            format!("{:.2}x", b.wall_ns as f64 / a.wall_ns as f64),
        ]);
    }
    let mut out = format!(
        "hostbench: '{}' vs '{}' ({} grid)\n\n{}",
        before.label,
        after.label,
        after.grid.name(),
        t.render()
    );
    let speedup = before.wall_seconds() / after.wall_seconds();
    out.push_str(&format!(
        "\ntotal: {:.3} s -> {:.3} s ({speedup:.2}x); {:.1} -> {:.1} runs/s; {:.2} -> {:.2} ns/sim-cycle\n",
        before.wall_seconds(),
        after.wall_seconds(),
        before.runs_per_sec(),
        after.runs_per_sec(),
        before.ns_per_sim_cycle(),
        after.ns_per_sim_cycle(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_entry(label: &str, scale: u64) -> HostEntry {
        let runs = HostGrid::Tiny
            .specs()
            .into_iter()
            .map(|spec| HostRun {
                spec,
                label: spec.label(),
                sim_cycles: 1_000_000,
                wall_ns: 5_000_000 * scale,
            })
            .collect();
        HostEntry {
            label: label.to_string(),
            grid: HostGrid::Tiny,
            reps: 3,
            runs,
        }
    }

    #[test]
    fn doc_roundtrips_through_json() {
        let entries = vec![fake_entry("before", 2), fake_entry("after", 1)];
        let text = host_doc_json(&entries);
        let parsed = parse_host_doc(&text).unwrap();
        assert_eq!(parsed, entries, "writer and reader must agree:\n{text}");
    }

    #[test]
    fn parse_rejects_broken_documents() {
        assert!(parse_host_doc("").is_err());
        assert!(parse_host_doc("{}").is_err(), "missing version");
        assert!(
            parse_host_doc(r#"{"engine_version":99,"entries":[]}"#).is_err(),
            "future version rejected"
        );
        let v = vic_core::ENGINE_VERSION;
        assert_eq!(
            parse_host_doc(&format!(r#"{{"engine_version":{v},"entries":[]}}"#)).unwrap(),
            vec![],
            "no entries yet is a valid fresh file"
        );
        let err = parse_host_doc(&format!(
            r#"{{"engine_version":{v},"entries":[{{"label":"x"}}]}}"#
        ))
        .unwrap_err();
        assert!(err.contains("entry 0"), "names the entry: {err}");
    }

    #[test]
    fn coverage_check_wants_exactly_the_grid() {
        let good = vec![fake_entry("ok", 1)];
        assert_eq!(check_entry_coverage(&good), Ok(()));

        let mut missing = fake_entry("short", 1);
        missing.runs.pop();
        let err = check_entry_coverage(&[missing]).unwrap_err();
        assert!(err.contains("timed 0 times"), "{err}");

        let mut dup = fake_entry("dup", 1);
        let extra = dup.runs[0].clone();
        dup.runs.push(extra);
        let err = check_entry_coverage(&[dup]).unwrap_err();
        assert!(err.contains("timed 2 times"), "{err}");

        let mut mislabeled = fake_entry("bad-label", 1);
        mislabeled.runs[0].label = mislabeled.runs[1].label.clone();
        assert!(check_entry_coverage(&[mislabeled]).is_err());
    }

    #[test]
    fn derived_rates_are_consistent() {
        let e = fake_entry("x", 1);
        assert_eq!(e.sim_cycles(), 3_000_000);
        assert!((e.wall_seconds() - 0.015).abs() < 1e-12);
        assert!((e.runs_per_sec() - 200.0).abs() < 1e-9);
        assert!((e.ns_per_sim_cycle() - 5.0).abs() < 1e-9);
        assert!(e.summary().contains("3 runs"));
    }

    #[test]
    fn comparison_reports_speedup() {
        let before = fake_entry("pre", 2);
        let after = fake_entry("post", 1);
        let text = render_comparison(&before, &after);
        assert!(text.contains("2.00x"), "per-run speedup:\n{text}");
        assert!(text.contains("'pre' vs 'post'"));
    }

    #[test]
    fn entry_metrics_match_the_runs() {
        let e = fake_entry("x", 1);
        let (shard, runs) = e.metrics();
        let doc = crate::output::metrics_json(1, e.wall_seconds(), &shard, &runs);
        let parsed = crate::output::parse_metrics_doc(&doc).expect("self-consistent");
        assert_eq!(parsed.runs_completed, 3);
        assert_eq!(parsed.sim_cycles, e.sim_cycles());
        assert_eq!(parsed.host_ns, 15_000_000);
    }

    #[test]
    fn tiny_grid_measures_quickly_and_deterministically() {
        let e = HostEntry::measure("smoke", HostGrid::Tiny, 1);
        assert_eq!(e.runs.len(), 3);
        assert!(e.runs.iter().all(|r| r.sim_cycles > 0 && r.wall_ns > 0));
        // The full grid is the sweep's 23 runs.
        assert_eq!(HostGrid::Full.specs().len(), 23);
    }
}
