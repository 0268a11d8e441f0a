//! The versioned calibration document (`BENCH_sample.json`): reader and
//! checker.
//!
//! The *writer* lives in `vic_bench::output` (the harness owns every JSON
//! writer); this crate carries the dependency-free reader so anything
//! linking `vic-sample` — the harness included — can validate a committed
//! calibration fixture. A document records, per calibration cell, the
//! sampled estimate and full-run actual of every [`crate::extrapolate::METRICS`] counter, the
//! recomputable relative errors, and the measured host speedup. CI keeps
//! the fixture honest: `sample --check` re-derives every error from the
//! raw numbers and re-asserts the bound.

use vic_core::ENGINE_VERSION;
use vic_profile::{parse_json, JsonValue};

use crate::extrapolate::{rel_err_pct, BOUNDED_METRICS};
use crate::plan::SamplePlan;

/// One metric's estimate/actual pair within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleMetric {
    /// Metric name (a [`crate::extrapolate::METRICS`] entry).
    pub name: String,
    /// The sampled full-run estimate.
    pub estimate: u64,
    /// The full run's actual value.
    pub actual: u64,
    /// Recorded relative error, percent.
    pub rel_err_pct: f64,
}

/// One calibration cell: a (workload, system) point measured both ways.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCell {
    /// Workload name.
    pub workload: String,
    /// System label.
    pub system: String,
    /// Quick mode (miniature machine) flag.
    pub quick: bool,
    /// The sampling plan the cell ran.
    pub plan: SamplePlan,
    /// Measured intervals.
    pub intervals_measured: u64,
    /// Total intervals in the steady rep.
    pub intervals_total: u64,
    /// Whether the estimate took the exact (full-coverage) path.
    pub exact: bool,
    /// Host wall-clock speedup of the sampled run over the full run.
    pub speedup: f64,
    /// Recorded maximum relative error over the bounded metrics.
    pub max_rel_err_pct: f64,
    /// Per-metric estimate/actual pairs.
    pub metrics: Vec<SampleMetric>,
}

impl SampleCell {
    /// Maximum relative error over [`BOUNDED_METRICS`], recomputed from
    /// the raw estimate/actual pairs (never trusting the recorded field).
    pub fn recomputed_max_err(&self) -> f64 {
        self.metrics
            .iter()
            .filter(|m| BOUNDED_METRICS.contains(&m.name.as_str()))
            .map(|m| rel_err_pct(m.estimate, m.actual))
            .fold(0.0, f64::max)
    }
}

/// A parsed calibration document.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleDoc {
    /// The error bound, percent, every cell must satisfy.
    pub bound_pct: f64,
    /// The calibration cells.
    pub cells: Vec<SampleCell>,
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn uint(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn string(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn boolean(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field '{key}'"))
}

fn u32_field(v: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(uint(v, key)?).map_err(|_| format!("field '{key}' out of u32 range"))
}

impl SampleDoc {
    /// Parse a calibration document.
    ///
    /// # Errors
    ///
    /// JSON syntax errors, a missing or mismatched `engine_version` (the
    /// document describes the engine that wrote it; any other version's
    /// numbers are not comparable), and missing or mistyped fields.
    pub fn parse(text: &str) -> Result<SampleDoc, String> {
        let root = parse_json(text).map_err(|e| e.to_string())?;
        let version = uint(&root, "engine_version")?;
        if version != ENGINE_VERSION {
            return Err(format!(
                "engine_version {version} does not match this engine (version {ENGINE_VERSION}); regenerate with `sample --calibrate`"
            ));
        }
        let bound_pct = num(&root, "bound_pct")?;
        let cells_json = root
            .get("cells")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| "missing 'cells' array".to_string())?;
        let mut cells = Vec::new();
        for (i, c) in cells_json.iter().enumerate() {
            cells.push(Self::parse_cell(c).map_err(|e| format!("cell {i}: {e}"))?);
        }
        Ok(SampleDoc { bound_pct, cells })
    }

    fn parse_cell(c: &JsonValue) -> Result<SampleCell, String> {
        let plan_json = c.get("plan").ok_or_else(|| "missing 'plan'".to_string())?;
        let plan = SamplePlan {
            repeat: u32_field(plan_json, "repeat")?,
            paced_reps: u32_field(plan_json, "paced_reps")?,
            intervals: u32_field(plan_json, "intervals")?,
            warmup: u32_field(plan_json, "warmup")?,
            period: u32_field(plan_json, "period")?,
        };
        plan.validate()?;
        let metrics_json = c
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| "missing 'metrics' array".to_string())?;
        let mut metrics = Vec::new();
        for m in metrics_json {
            metrics.push(SampleMetric {
                name: string(m, "name")?,
                estimate: uint(m, "estimate")?,
                actual: uint(m, "actual")?,
                rel_err_pct: num(m, "rel_err_pct")?,
            });
        }
        Ok(SampleCell {
            workload: string(c, "workload")?,
            system: string(c, "system")?,
            quick: boolean(c, "quick")?,
            plan,
            intervals_measured: uint(c, "intervals_measured")?,
            intervals_total: uint(c, "intervals_total")?,
            exact: boolean(c, "exact")?,
            speedup: num(c, "speedup")?,
            max_rel_err_pct: num(c, "max_rel_err_pct")?,
            metrics,
        })
    }

    /// Validate the document's own claims: at least one cell, recomputed
    /// relative errors matching the recorded ones, every cell's bounded
    /// maximum within `bound_pct`, and a genuine (> 1.0x) speedup.
    ///
    /// # Errors
    ///
    /// A message naming the first failing cell and check.
    pub fn check(&self) -> Result<(), String> {
        if self.cells.is_empty() {
            return Err("calibration document has no cells".to_string());
        }
        for cell in &self.cells {
            let who = format!("{} @ {}", cell.workload, cell.system);
            for m in &cell.metrics {
                let fresh = rel_err_pct(m.estimate, m.actual);
                if (fresh - m.rel_err_pct).abs() > 0.005 {
                    return Err(format!(
                        "{who}: metric '{}' records rel_err_pct {} but estimate {} vs actual {} gives {fresh:.3}",
                        m.name, m.rel_err_pct, m.estimate, m.actual
                    ));
                }
            }
            let max = cell.recomputed_max_err();
            if (max - cell.max_rel_err_pct).abs() > 0.005 {
                return Err(format!(
                    "{who}: recorded max_rel_err_pct {} but recomputation gives {max:.3}",
                    cell.max_rel_err_pct
                ));
            }
            if max > self.bound_pct {
                return Err(format!(
                    "{who}: max relative error {max:.3}% exceeds the {}% bound",
                    self.bound_pct
                ));
            }
            if cell.speedup <= 1.0 {
                return Err(format!("{who}: speedup {}x is not a speedup", cell.speedup));
            }
            if cell.intervals_measured == 0 || cell.intervals_measured > cell.intervals_total {
                return Err(format!(
                    "{who}: measured {} of {} intervals",
                    cell.intervals_measured, cell.intervals_total
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_text() -> String {
        format!(
            r#"{{"engine_version":{v},"bound_pct":5.0,"cells":[
                {{"workload":"fork-bench","system":"CMU F","quick":true,
                  "plan":{{"repeat":16,"paced_reps":2,"intervals":6,"warmup":1,"period":2}},
                  "intervals_measured":3,"intervals_total":6,"exact":false,
                  "speedup":6.2,"max_rel_err_pct":1.25,
                  "metrics":[
                    {{"name":"cycles","estimate":1000,"actual":1000,"rel_err_pct":0.0}},
                    {{"name":"d_misses","estimate":81,"actual":80,"rel_err_pct":1.25}}
                  ]}}
            ]}}"#,
            v = ENGINE_VERSION
        )
    }

    #[test]
    fn parses_and_checks_a_good_document() {
        let doc = SampleDoc::parse(&doc_text()).unwrap();
        assert_eq!(doc.cells.len(), 1);
        assert_eq!(doc.cells[0].plan.repeat, 16);
        doc.check().unwrap();
    }

    #[test]
    fn rejects_version_drift() {
        let bad = doc_text().replace(
            &format!("\"engine_version\":{ENGINE_VERSION}"),
            "\"engine_version\":99",
        );
        let err = SampleDoc::parse(&bad).unwrap_err();
        assert!(err.contains("engine_version"), "{err}");
    }

    #[test]
    fn check_recomputes_errors_from_raw_numbers() {
        // Tamper with the actual so the recorded error no longer matches.
        let tampered = doc_text().replace("\"actual\":80,", "\"actual\":40,");
        let doc = SampleDoc::parse(&tampered).unwrap();
        let err = doc.check().unwrap_err();
        assert!(err.contains("d_misses"), "{err}");
    }

    #[test]
    fn check_enforces_bound_and_speedup() {
        let slow = doc_text().replace("\"speedup\":6.2", "\"speedup\":0.8");
        let err = SampleDoc::parse(&slow).unwrap().check().unwrap_err();
        assert!(err.contains("speedup"), "{err}");

        let off = doc_text()
            .replace("\"rel_err_pct\":1.25", "\"rel_err_pct\":7.5")
            .replace("\"estimate\":81", "\"estimate\":86")
            .replace("\"max_rel_err_pct\":1.25", "\"max_rel_err_pct\":7.5");
        let err = SampleDoc::parse(&off).unwrap().check().unwrap_err();
        assert!(err.contains("bound"), "{err}");
    }
}
