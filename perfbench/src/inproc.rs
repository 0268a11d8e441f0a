//! The in-process workloads (table-grid, alias-storm, observed-build):
//! closed-loop passes over a seeded job list, one thread, every run on a
//! freshly booted kernel so simulated caches start empty.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vic_bench::output::run_json;
use vic_bench::SystemSpec;
use vic_core::types::CpuId;
use vic_metrics::SnapshotSampler;
use vic_os::Kernel;
use vic_trace::{ConsistencyAuditor, FanoutSink, RingBufferSink, Tracer};
use vic_workloads::{collect, Cursor, RunStats, StepWorkload};

use crate::expected::{digest_bytes, Expected};
use crate::inputs::Job;
use crate::spans::Spans;

/// Trailing events the flight recorder keeps, as `run --flight` does.
const FLIGHT_RING_CAPACITY: usize = 256;

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// The simulated statistics.
    pub stats: RunStats,
    /// Host time from kernel boot through final stats.
    pub wall_ns: u64,
    /// Digest of the run's `run_json` bytes.
    pub digest: u64,
    /// Events the flight recorder saw (0 when not observed).
    pub events: u64,
    /// Snapshots the sampler took (0 when not observed).
    pub samples: u64,
    /// Auditor divergences (0 when not observed).
    pub divergences: u64,
}

impl RunOut {
    /// Whether the run's own checks passed: no staleness-oracle
    /// violation and no auditor divergence.
    pub fn clean(&self) -> bool {
        self.stats.oracle_violations == 0 && self.divergences == 0
    }
}

/// Open a span when a recorder is attached.
fn enter(spans: &mut Option<&mut Spans>, name: &'static str, tag: u64) {
    if let Some(s) = spans.as_deref_mut() {
        s.enter(name, tag);
    }
}

fn exit(spans: &mut Option<&mut Spans>) {
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
    }
}

/// Boot a kernel for `spec`, arm its observers when `observed`, drive
/// `program` to completion and collect its statistics. With `spans`, the
/// boot and every step are recorded (steps tagged with the cursor's
/// phase).
///
/// # Errors
///
/// A workload error (a program or kernel bug), as a message.
pub fn run_spec(
    spec: &SystemSpec,
    program: &dyn StepWorkload,
    observed: bool,
    fast_paths: bool,
    mut spans: Option<&mut Spans>,
) -> Result<RunOut, String> {
    let mut cfg = spec.kernel_config();
    cfg.machine.fast_paths = fast_paths;
    let auditor = Arc::new(Mutex::new(ConsistencyAuditor::new()));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(FLIGHT_RING_CAPACITY)));

    let t0 = Instant::now();
    enter(&mut spans, "os.boot", 0);
    let mut k = Kernel::new(cfg);
    exit(&mut spans);
    if observed {
        k.set_tracer(Tracer::new(
            FanoutSink::new().with(auditor.clone()).with(ring.clone()),
        ));
        k.machine_mut()
            .set_sampler(SnapshotSampler::every(vic_bench::cli::DEFAULT_SAMPLE_EVERY));
    }
    let mut cur = Cursor::new();
    loop {
        enter(&mut spans, "workloads.step", cur.phase);
        let more = program.step(&mut k, CpuId::BOOT, &mut cur);
        exit(&mut spans);
        match more {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(format!("{}: {e}", spec.label())),
        }
    }
    k.machine_mut().tracer_mut().finish();
    let samples = k
        .machine_mut()
        .take_sampler()
        .map_or(0, |s| s.samples().len() as u64);
    let stats = collect(&k, program.name());
    let wall_ns = t0.elapsed().as_nanos() as u64;
    drop(k);

    let (events, divergences) = if observed {
        let a = auditor.lock().expect("auditor poisoned");
        let r = ring.lock().expect("ring poisoned");
        (r.total_seen(), a.divergence_count())
    } else {
        (0, 0)
    };
    let digest = digest_bytes(run_json(spec, &stats, None).as_bytes());
    Ok(RunOut {
        stats,
        wall_ns,
        digest,
        events,
        samples,
        divergences,
    })
}

/// [`run_spec`] for one job of an in-process workload.
///
/// # Errors
///
/// As for [`run_spec`].
pub fn run_job(job: &Job, fast_paths: bool, spans: Option<&mut Spans>) -> Result<RunOut, String> {
    let program = job.program.build();
    run_spec(&job.spec, program.as_ref(), job.observed, fast_paths, spans)
}

/// One pass over the job list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded during this pass.
    pub traced: bool,
    /// One entry per job, in job order.
    pub runs: Vec<RunOut>,
}

impl Pass {
    /// Host time of the pass: the sum of its runs' times.
    pub fn wall_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.wall_ns).sum()
    }

    /// Simulated cycles of the pass.
    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.stats.cycles).sum()
    }

    /// Host nanoseconds per simulated cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        self.wall_ns() as f64 / self.cycles().max(1) as f64
    }
}

/// Run whole passes until `seconds` have elapsed (at least one). With
/// `spans`, passes alternate untraced and traced, starting untraced.
///
/// # Errors
///
/// The first workload error.
pub fn measure(
    jobs: &[Job],
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Result<Vec<Pass>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut run_id = 0u64;
    // A traced measurement makes at least one pass of each kind.
    let min_passes = if spans.is_some() { 2 } else { 1 };
    while passes.len() < min_passes || Instant::now() < deadline {
        let traced = spans.is_some() && passes.len() % 2 == 1;
        let mut runs = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut s = if traced { spans.as_deref_mut() } else { None };
            if let Some(s) = s.as_deref_mut() {
                s.set_run(run_id);
            }
            runs.push(run_job(job, true, s)?);
            run_id += 1;
        }
        passes.push(Pass { traced, runs });
    }
    Ok(passes)
}

/// How the runs of a measurement checked out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Runs made.
    pub attempted: u64,
    /// Runs that failed any check.
    pub failed: u64,
    /// Jobs checked against the expected file.
    pub from_file: u64,
    /// Jobs checked against the reference engine (fast paths off, no
    /// observers), because the file has no entry for them.
    pub from_reference: u64,
}

/// Check every run of every pass. A run fails when its own checks fail
/// (oracle violation, auditor divergence) or its result digest differs
/// from the job's reference: the expected file's entry when there is
/// one, else a run of the reference engine made here, after timing.
/// Traced and untraced passes are held to the same reference, so a
/// traced run that changed any simulated statistic fails.
///
/// # Errors
///
/// A workload error in a reference run.
pub fn verify(
    workload: &str,
    seed: u64,
    jobs: &[Job],
    passes: &[Pass],
    expected: &Expected,
) -> Result<Verdict, String> {
    let mut v = Verdict::default();
    for (i, job) in jobs.iter().enumerate() {
        let reference = match expected.get(workload, Some(seed), &job.key()) {
            Some(e) => {
                v.from_file += 1;
                Some(e.digest)
            }
            None => {
                v.from_reference += 1;
                let plain = Job {
                    observed: false,
                    ..*job
                };
                let r = run_job(&plain, false, None)?;
                r.clean().then_some(r.digest)
            }
        };
        for pass in passes {
            let r = &pass.runs[i];
            v.attempted += 1;
            if !r.clean() || Some(r.digest) != reference {
                v.failed += 1;
            }
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::Entry;
    use crate::inputs::Program;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    #[test]
    fn tampered_expected_value_is_a_failure() {
        let job = Job {
            spec: SystemSpec::new(
                WorkloadKind::AliasUnaligned,
                SystemKind::Cmu(Configuration::F),
            ),
            program: Program::Alias {
                aligned: false,
                iters: 200,
            },
            observed: true,
        };
        let jobs = [job];
        let passes = measure(&jobs, 0.0, None).expect("runs");
        assert_eq!(passes.len(), 1);
        let run = &passes[0].runs[0];
        assert!(run.clean() && run.events > 0, "observed and clean");

        let mut good = Expected::default();
        let entry = Entry {
            digest: run.digest,
            cycles: run.stats.cycles,
        };
        good.insert("alias-storm", Some(9), &job.key(), entry);
        let v = verify("alias-storm", 9, &jobs, &passes, &good).expect("verifies");
        assert_eq!((v.attempted, v.failed, v.from_file), (1, 0, 1));

        let mut tampered = Expected::default();
        let entry = Entry {
            digest: run.digest ^ 1,
            ..entry
        };
        tampered.insert("alias-storm", Some(9), &job.key(), entry);
        let v = verify("alias-storm", 9, &jobs, &passes, &tampered).expect("verifies");
        assert_eq!(
            (v.attempted, v.failed),
            (1, 1),
            "a corrupted expected value fails"
        );

        // No entry for the seed: the reference engine decides, and agrees.
        let v = verify("alias-storm", 10, &jobs, &passes, &good).expect("verifies");
        assert_eq!((v.failed, v.from_reference), (0, 1));
    }
}
