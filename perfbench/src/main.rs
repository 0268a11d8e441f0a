//! `vic-perfbench`: the repository's host-speed benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <results.jsonl>]
//! perfbench --smoke
//! perfbench --regenerate-expected
//! perfbench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A measurement runs one workload for the given seconds, checks every
//! simulated result, prints its metrics, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones from spans, probes and run statistics. See
//! `README.md` in this directory for the workloads and metrics.

mod expected;
mod fingerprint;
mod inproc;
mod inputs;
mod layers;
mod probes;
mod replay;
mod spans;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use expected::{covered_seeds, Entry, Expected};
use fingerprint::{quote, Fingerprint};
use inputs::{Job, WORKLOADS};
use layers::{m, Metric};
use spans::Spans;
use stats::{median, tail};

/// The seed changes are developed against.
pub const DEV_SEED: u64 = 1;
/// The seed kept back for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 1992;

/// Set-ups per in-process measurement; `setup_s` is their median.
const SETUPS: usize = 9;

/// This benchmark's directory (it holds `expected.json`).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout the benchmark was built in.
fn checkout() -> PathBuf {
    bench_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn expected_path() -> PathBuf {
    bench_dir().join("expected.json")
}

/// Scratch space inside the checkout (the replay store, span files).
fn work_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident memory of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one measurement produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// The median and the tail of each group of latency samples, each
/// summarised by its median over the groups, with a note naming the
/// tail's percentile.
fn latency(what: &str, unit: &str, groups: &[Vec<f64>], notes: &mut Vec<String>) -> (f64, f64) {
    let p50: Vec<f64> = groups.iter().map(|g| median(g)).collect();
    let tails: Vec<stats::Tail> = groups.iter().map(|g| tail(g)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let first = tails.first().copied().unwrap_or(stats::Tail {
        pct: 50.0,
        value: 0.0,
        n: 0,
    });
    notes.push(if groups.len() == 1 {
        format!("{what}_tail is p{} of {} {unit}", first.pct, first.n)
    } else {
        format!(
            "{what}_p50 and {what}_tail are medians over {} epochs of each epoch's p50 and p{} (of {} {unit} in the first epoch)",
            groups.len(),
            first.pct,
            first.n
        )
    });
    (median(&p50), median(&values))
}

/// The end-to-end metrics shared by every workload. Run and request
/// latencies come in groups (see [`latency`]).
fn end_to_end(
    ns_per_cycle: f64,
    runs_per_s: f64,
    run_ms: &[Vec<f64>],
    requests_per_s: f64,
    request_us: &[Vec<f64>],
    setup_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let (run_p50, run_tail) = latency("run_ms", "runs", run_ms, notes);
    let (req_p50, req_tail) = latency("request_us", "requests", request_us, notes);
    vec![
        m("ns_per_sim_cycle", ns_per_cycle, "ns"),
        m("runs_per_s", runs_per_s, "1/s"),
        m("run_ms_p50", run_p50, "ms"),
        m("run_ms_tail", run_tail, "ms"),
        m("requests_per_s", requests_per_s, "1/s"),
        m("request_us_p50", req_p50, "us"),
        m("request_us_tail", req_tail, "us"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// A note line with the quartiles of `values`.
fn quartiles(what: &str, values: &[f64]) -> String {
    let q = |p| stats::quantile(values, p);
    format!(
        "{what}: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4} (n {})",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        values.len()
    )
}

/// Self time per span name, for the traced run's report.
fn self_times(spans: &Spans) -> Vec<String> {
    let mut out = vec![format!(
        "{:<48} {:>10} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, a) in spans.aggs() {
        out.push(format!(
            "{name:<48} {:>10} {:>12.3} {:>12.3}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        ));
    }
    out
}

fn finish_trace(
    spans: &Spans,
    workload: &str,
    seed: u64,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = work_dir()?.join(format!("spans-{workload}-{seed}.jsonl"));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let (stored, dropped) = spans.stored();
    notes.push(format!(
        "spans: {} written to {} ({dropped} more counted but not stored)",
        stored.len(),
        path.display()
    ));
    notes.extend(self_times(spans));
    Ok(())
}

fn measure_inproc(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut jobs: Vec<Job> = Vec::new();
    let mut expected = Expected::default();
    for _ in 0..SETUPS {
        let t = Instant::now();
        jobs = inputs::jobs(workload, seed);
        expected = Expected::load(&expected_path())?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut spans = trace.then(Spans::new);
    let passes = inproc::measure(&jobs, seconds, spans.as_mut())?;
    let verdict = inproc::verify(workload, seed, &jobs, &passes, &expected)?;
    let mut notes = vec![format!(
        "{} passes of {} runs; references: {} jobs from the expected file, {} from the reference engine",
        passes.len(),
        jobs.len(),
        verdict.from_file,
        verdict.from_reference
    )];
    let metrics = match spans {
        Some(mut spans) => {
            let costs = probes::run(&mut spans, &work_dir()?)?;
            finish_trace(&spans, workload, seed, &mut notes)?;
            layers::inproc(&jobs, &passes, &spans, &costs)
        }
        None => {
            let pass_ns: Vec<f64> = passes.iter().map(inproc::Pass::ns_per_cycle).collect();
            notes.push(quartiles("ns per simulated cycle over passes", &pass_ns));
            for (i, job) in jobs.iter().enumerate() {
                let ms: Vec<f64> = passes
                    .iter()
                    .map(|p| p.runs[i].wall_ns as f64 / 1e6)
                    .collect();
                notes.push(format!("  {:<44} median {:.3} ms", job.key(), median(&ms)));
            }
            let run_ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.runs.iter().map(|r| r.wall_ns as f64 / 1e6))
                .collect();
            let request_us: Vec<f64> = run_ms.iter().map(|ms| ms * 1e3).collect();
            let busy_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
            let per_s = run_ms.len() as f64 / busy_s;
            let wall: u64 = passes.iter().map(inproc::Pass::wall_ns).sum();
            let cycles: u64 = passes.iter().map(inproc::Pass::cycles).sum();
            end_to_end(
                wall as f64 / cycles.max(1) as f64,
                per_s,
                &[run_ms],
                per_s,
                &[request_us],
                median(&setup),
                &mut notes,
            )
        }
    };
    Ok(Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

fn measure_replay(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let store = work_dir()?.join(format!("replay-store-{}", std::process::id()));
    let mut spans = trace.then(Spans::new);
    let (epochs, inputs, expected) = replay::measure(
        seed,
        clients,
        seconds,
        &store,
        &expected_path(),
        spans.as_mut(),
    )?;
    let direct = replay::direct(&inputs, spans.as_mut())?;
    let verdict = replay::verify(&epochs, &inputs, &direct, &expected);
    let sum = |f: fn(&replay::Epoch) -> u64| epochs.iter().map(f).sum::<u64>();
    let (mem, disk, miss) = (sum(|e| e.mem), sum(|e| e.disk), sum(|e| e.miss));
    let requests = sum(replay::Epoch::requests);
    let n = requests.max(1) as f64;
    let mut notes = vec![
        format!(
            "{} epochs, {clients} clients, {} requests each per epoch, memory tier {} entries",
            epochs.len(),
            replay::STREAM_LEN,
            replay::MEM_CAPACITY
        ),
        format!(
            "hit share {:.3}: memory hits {:.3}, disk hits {:.3}, misses {:.3}",
            (mem + disk) as f64 / n,
            mem as f64 / n,
            disk as f64 / n,
            miss as f64 / n
        ),
    ];
    let metrics = match spans {
        Some(mut spans) => {
            let costs = probes::run(&mut spans, &work_dir()?)?;
            finish_trace(&spans, "result-replay", seed, &mut notes)?;
            layers::replay(&epochs, &direct, &spans, &costs)
        }
        None => {
            let wall_s: f64 = epochs.iter().map(|e| e.wall_ns as f64 / 1e9).sum();
            let ns_per_cycle: Vec<f64> = epochs
                .iter()
                .map(|e| replay::miss_ns_per_cycle(std::slice::from_ref(e), &direct))
                .collect();
            let request_us: Vec<Vec<f64>> = epochs
                .iter()
                .map(|e| e.latency_us.iter().map(|&us| f64::from(us)).collect())
                .collect();
            let run_ms: Vec<Vec<f64>> = epochs
                .iter()
                .map(|e| e.miss_ms.iter().map(|&ms| f64::from(ms)).collect())
                .collect();
            let setup: Vec<f64> = epochs.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
            notes.push(quartiles(
                "ns per simulated cycle over epochs",
                &ns_per_cycle,
            ));
            end_to_end(
                replay::miss_ns_per_cycle(&epochs, &direct),
                miss as f64 / wall_s,
                &run_ms,
                requests as f64 / wall_s,
                &request_us,
                median(&setup),
                &mut notes,
            )
        }
    };
    Ok(Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "result-replay" => measure_replay(seed, seconds, trace),
        w if WORKLOADS.contains(&w) => measure_inproc(w, seed, seconds, trace),
        w => Err(format!(
            "unknown workload '{w}' (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&x.name),
                if x.value.is_finite() { x.value } else { 0.0 },
                quote(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Cmd {
    Run(RunArgs),
    Smoke,
    Regenerate,
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--out <results.jsonl>]\n       perfbench --smoke\n       \
perfbench --regenerate-expected\n       perfbench --compare <a.jsonl> <b.jsonl>";

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    match args.first().map(String::as_str) {
        Some("--smoke") if args.len() == 1 => return Ok(Cmd::Smoke),
        Some("--regenerate-expected") if args.len() == 1 => return Ok(Cmd::Regenerate),
        Some("--compare") if args.len() == 3 => {
            return Ok(Cmd::Compare(
                PathBuf::from(&args[1]),
                PathBuf::from(&args[2]),
            ))
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} wants {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Cmd::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    }))
}

fn run_cmd(a: &RunArgs) -> Result<bool, String> {
    let fp = Fingerprint::current(&checkout());
    let o = measure(&a.workload, a.seed, a.seconds, a.trace)?;
    let correct = o.failed == 0;
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("fingerprint {}", fp.to_json());
    println!(
        "check: {} attempted, {} failed, failed_frac {}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for note in &o.notes {
        println!("{note}");
    }
    for x in &o.metrics {
        println!("{:<44} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let metrics = metrics_json(&o.metrics);
    if let Some(path) = &a.out {
        let doc = format!(
            "{{\"fingerprint\":{},\"workload\":{},\"seed\":\"{}\",\"seconds\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}\n",
            fp.to_json(),
            quote(&a.workload),
            a.seed,
            a.seconds,
            u8::from(a.trace),
            o.attempted,
            o.failed
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(doc.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        o.attempted, o.failed
    );
    Ok(correct)
}

/// Every workload once at the development seed, untraced, then one
/// traced alias-storm measurement (which runs every probe).
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let t = Instant::now();
        let o = measure(w, DEV_SEED, 0.0, false)?;
        println!(
            "smoke {w:<16} {:>5} attempted {:>3} failed  {:.1}s",
            o.attempted,
            o.failed,
            t.elapsed().as_secs_f64()
        );
        ok &= o.failed == 0 && o.attempted > 0;
    }
    let t = Instant::now();
    let o = measure("alias-storm", DEV_SEED, 0.0, true)?;
    let sum: f64 = o
        .metrics
        .iter()
        .filter(|x| x.name.starts_with("share."))
        .map(|x| x.value)
        .sum();
    println!(
        "smoke traced alias-storm {} per-layer metrics, shares sum to {sum:.6}  {:.1}s",
        o.metrics.len(),
        t.elapsed().as_secs_f64()
    );
    ok &= o.failed == 0 && (sum - 1.0).abs() < 1e-9;
    Ok(ok)
}

/// Rewrite `expected.json` from fresh runs of every covered seed and the
/// whole replay universe, after cross-checking it against
/// `BENCH_baseline.json`.
fn regenerate() -> Result<(), String> {
    let mut e = Expected::default();
    let mut record = |w: &str, seed: Option<u64>, key: String, r: inproc::RunOut| {
        if !r.clean() {
            return Err(format!("{w} {key}: run is not clean"));
        }
        let entry = Entry {
            digest: r.digest,
            cycles: r.stats.cycles,
        };
        e.insert(w, seed, &key, entry);
        Ok(())
    };
    for seed in covered_seeds() {
        for w in WORKLOADS {
            for job in inputs::jobs(w, seed) {
                let plain = Job {
                    observed: false,
                    ..job
                };
                record(
                    w,
                    Some(seed),
                    job.key(),
                    inproc::run_job(&plain, true, None)?,
                )?;
            }
        }
        eprintln!("regenerate: seed {seed} done");
    }
    for spec in inputs::replay_universe() {
        let program = spec.build_step_workload();
        let r = inproc::run_spec(&spec, program.as_ref(), false, true, None)?;
        record("result-replay", None, spec.label(), r)?;
    }
    let baseline_path = checkout().join("BENCH_baseline.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let overlap = e.cross_check_baseline(&baseline)?;
    std::fs::write(expected_path(), e.to_json())
        .map_err(|err| format!("cannot write {}: {err}", expected_path().display()))?;
    eprintln!(
        "regenerate: {} entries written; {overlap} agree with BENCH_baseline.json",
        e.len()
    );
    Ok(())
}

fn compare_cmd(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|t| fingerprint::parse_set(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    print!("{}", fingerprint::compare(&read(a)?, &read(b)?)?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match cmd {
        Cmd::Run(a) => run_cmd(&a),
        Cmd::Smoke => smoke(),
        Cmd::Regenerate => regenerate().map(|()| true),
        Cmd::Compare(a, b) => compare_cmd(&a, &b).map(|()| true),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_expected_file_covers_the_seeds_and_agrees_with_the_baseline() {
        let e = Expected::load(&expected_path()).expect("committed file loads");
        for w in WORKLOADS.iter().filter(|w| **w != "result-replay") {
            for seed in [DEV_SEED, HELD_OUT_SEED] {
                for job in inputs::jobs(w, seed) {
                    assert!(
                        e.get(w, Some(seed), &job.key()).is_some(),
                        "{w} {seed} {}",
                        job.key()
                    );
                }
            }
        }
        for spec in inputs::replay_universe() {
            assert!(e.get("result-replay", None, &spec.label()).is_some());
        }
        let baseline = std::fs::read_to_string(checkout().join("BENCH_baseline.json"))
            .expect("baseline readable");
        assert!(e.cross_check_baseline(&baseline).expect("agrees") > 0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload table-grid --seed 3 --seconds 2 --trace 1",
        ));
        assert!(matches!(
            ok,
            Ok(Cmd::Run(RunArgs {
                seed: 3,
                trace: true,
                ..
            }))
        ));
        for bad in [
            "--workload table-grid --seed x --seconds 2",
            "--workload table-grid --seed 1 --seconds -1",
            "--workload table-grid --seed 1 --seconds 1 --trace 2",
            "--seed 1 --seconds 1",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
