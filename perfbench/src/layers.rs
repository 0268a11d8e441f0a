//! Per-layer metrics of a traced run: span statistics, the probes'
//! per-call costs, exact counts from `RunStats`, and each crate's share
//! of run time.
//!
//! A share is an outside-in estimate: a crate's per-call cost (from the
//! probes, or a span the benchmark recorded) times the number of such
//! calls the run made (exact, from its statistics), divided by the run
//! wall time. `share.unattributed` is the remainder, so the shares sum to
//! one; it holds everything no probe prices (the workload programs' own
//! logic, the allocator, host page faults) and goes negative when the
//! estimates overlap. Spans inside the simulator would replace these
//! estimates with measurements.

use vic_workloads::RunStats;

use crate::inproc::{Pass, RunOut};
use crate::inputs::{Job, Program};
use crate::probes::Costs;
use crate::replay::{miss_ns_per_cycle, Direct, Epoch};
use crate::spans::Spans;
use crate::stats::{median, tail};

/// Lines per page on the HP 720 geometry.
const LINES_PER_PAGE: f64 = 128.0;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A metric.
pub fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Per-call costs the share model uses, in nanoseconds.
struct Prices {
    os_fault_self: f64,
    fs_read_self: f64,
    miss_line: f64,
    scalar_word: f64,
    flush: f64,
    flush_line: f64,
    purge: f64,
    cache_control: f64,
    event: f64,
    sample: f64,
}

impl Prices {
    fn new(c: &Costs) -> Self {
        let g = |k: &str| c.get(k).copied().unwrap_or(0.0);
        let cache_control = (g("core.cache_control_ns.cpu_read")
            + g("core.cache_control_ns.cpu_write_pingpong")
            + g("core.cache_control_ns.dma_write"))
            / 3.0;
        // The bulk probe misses on every line, so its cost per line is a
        // missed line with the hits on its other words.
        let miss_line = g("machine.load_run_ns_per_line");
        // A flush costs its page walk plus a share per dirty line written
        // back; the probes time an absent page and a fully dirty one.
        let flush = g("machine.flush_page_us_absent") * 1e3;
        let flush_line = (g("machine.flush_page_us_dirty") * 1e3 - flush).max(0.0) / LINES_PER_PAGE;
        // A probed consistency fault also paid the manager, one flush of
        // a page with one dirty line, and the retried store: take those
        // out to leave the kernel's part.
        let os_fault_self = (g("os.consistency_fault_ns")
            - flush
            - flush_line
            - g("core.cache_control_ns.cpu_write_pingpong")
            - g("machine.scalar_store_ns"))
        .max(0.0);
        // A file-page read copies a page: take out a missed line per line.
        let fs_read_self = (g("os.fs_read_page_us") * 1e3 - LINES_PER_PAGE * miss_line).max(0.0);
        Prices {
            os_fault_self,
            fs_read_self,
            miss_line,
            scalar_word: g("machine.scalar_store_ns"),
            flush,
            flush_line,
            purge: g("machine.purge_page_us") * 1e3,
            cache_control,
            event: g("trace.flight_ns_per_event"),
            sample: g("metrics.sample_us") * 1e3,
        }
    }

    /// Estimated nanoseconds per crate for one run: os, machine, core,
    /// trace, metrics. Bulk runs pay per missed data-cache line; `scalar`
    /// runs (an attached tracer, or the alias loop's single writes) take
    /// the word-at-a-time engine and pay per word instead.
    fn run(&self, s: &RunStats, boot_ns: f64, scalar: bool, out: &RunOut) -> [f64; 5] {
        let faults = (s.os.consistency_faults + s.os.mapping_faults) as f64;
        let words = (s.machine.loads + s.machine.stores + s.machine.ifetches) as f64;
        let access = if scalar {
            words * self.scalar_word
        } else {
            s.machine.d_misses as f64 * self.miss_line
        };
        [
            boot_ns + faults * self.os_fault_self + s.os.fs_reads as f64 * self.fs_read_self,
            access
                + s.total_flushes() as f64 * self.flush
                + s.machine.flush_writebacks as f64 * self.flush_line
                + s.total_purges() as f64 * self.purge,
            faults * self.cache_control,
            out.events as f64 * self.event,
            out.samples as f64 * self.sample,
        ]
    }
}

const SHARE_CRATES: [&str; 7] = [
    "share.vic-os",
    "share.vic-machine",
    "share.vic-core",
    "share.vic-trace",
    "share.vic-metrics",
    "share.vic-bench",
    "share.vic-serve",
];

fn shares(est: [f64; 7], base_ns: f64) -> Vec<Metric> {
    let mut out: Vec<Metric> = SHARE_CRATES
        .iter()
        .zip(est)
        .map(|(name, ns)| m(name, ns / base_ns.max(1.0), "ratio"))
        .collect();
    let attributed: f64 = out.iter().map(|x| x.value).sum();
    out.push(m("share.unattributed", 1.0 - attributed, "ratio"));
    out
}

/// Exact counts summed over a set of runs.
fn counts<'a>(runs: impl Iterator<Item = &'a RunStats>) -> Vec<Metric> {
    let mut c = [0u64; 7];
    for s in runs {
        c[0] += s.cycles;
        c[1] += s.machine.loads + s.machine.stores + s.machine.ifetches;
        c[2] += s.machine.d_misses;
        c[3] += s.total_flushes();
        c[4] += s.total_purges();
        c[5] += s.os.consistency_faults;
        c[6] += s.os.mapping_faults;
    }
    [
        "sim_cycles",
        "machine.accesses",
        "machine.d_misses",
        "core.flushes",
        "core.purges",
        "os.consistency_faults",
        "os.mapping_faults",
    ]
    .iter()
    .zip(c)
    .map(|(n, v)| m(n, v as f64, "count"))
    .collect()
}

/// Span statistics of the workload's own calls: step time, steps per
/// run, boot time.
fn span_metrics(spans: &Spans, runs: f64) -> Vec<Metric> {
    let steps = spans.agg("workloads.step").cloned().unwrap_or_default();
    let boot = spans.agg("os.boot").cloned().unwrap_or_default();
    vec![
        m(
            "workloads.step_us_p50",
            median(&steps.durations) / 1e3,
            "us",
        ),
        m(
            "workloads.step_us_tail",
            tail(&steps.durations).value / 1e3,
            "us",
        ),
        m(
            "workloads.steps",
            steps.count as f64 / runs.max(1.0),
            "count",
        ),
        m("os.boot_us", median(&boot.durations) / 1e3, "us"),
    ]
}

fn probe_metrics(costs: &Costs) -> Vec<Metric> {
    costs
        .iter()
        .map(|(&name, &v)| m(name, v, if name.contains("_us") { "us" } else { "ns" }))
        .collect()
}

fn overhead(untraced: &[f64], traced: &[f64]) -> Metric {
    m(
        "tracing.overhead_frac",
        median(traced) / median(untraced) - 1.0,
        "ratio",
    )
}

/// Per-layer metrics of an in-process workload's traced measurement.
pub fn inproc(jobs: &[Job], passes: &[Pass], spans: &Spans, costs: &Costs) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(Pass::ns_per_cycle)
        .collect();
    let traced_ns: Vec<f64> = traced.iter().map(|p| p.ns_per_cycle()).collect();
    let runs = (traced.len() * jobs.len()) as f64;

    let mut out = span_metrics(spans, runs);
    out.extend(probe_metrics(costs));
    let observed: Vec<&RunOut> = passes[0]
        .runs
        .iter()
        .zip(jobs)
        .filter(|(_, j)| j.observed)
        .map(|(r, _)| r)
        .collect();
    let per_observed = |f: fn(&RunOut) -> u64| {
        observed.iter().map(|r| f(r)).sum::<u64>() as f64 / observed.len().max(1) as f64
    };
    out.push(m(
        "trace.events_per_run",
        per_observed(|r| r.events),
        "count",
    ));
    out.push(m(
        "metrics.samples_per_run",
        per_observed(|r| r.samples),
        "count",
    ));
    out.push(m("serve.hit_share", 0.0, "ratio"));
    out.push(m("serve.mem_evictions", 0.0, "count"));
    out.extend(counts(passes[0].runs.iter().map(|r| &r.stats)));

    let prices = Prices::new(costs);
    let boots = &spans.agg("os.boot").cloned().unwrap_or_default().durations;
    let mut est = [0.0; 7];
    let mut base = 0.0;
    let mut k = 0;
    for pass in &traced {
        for (r, job) in pass.runs.iter().zip(jobs) {
            let scalar = job.observed || matches!(job.program, Program::Alias { .. });
            let boot = boots.get(k).copied().unwrap_or(0.0);
            k += 1;
            for (e, v) in est.iter_mut().zip(prices.run(&r.stats, boot, scalar, r)) {
                *e += v;
            }
            base += r.wall_ns as f64;
        }
    }
    out.extend(shares(est, base));
    out.push(overhead(&untraced, &traced_ns));
    out
}

/// Per-layer metrics of result-replay's traced measurement. Shares are
/// of the summed client-observed request time; a miss adds its direct
/// run's estimated os, machine and core time.
pub fn replay(epochs: &[Epoch], direct: &Direct, spans: &Spans, costs: &Costs) -> Vec<Metric> {
    let ran: Vec<&RunOut> = direct.iter().flatten().collect();
    let mut out = span_metrics(spans, ran.len() as f64);
    out.extend(probe_metrics(costs));
    out.push(m("trace.events_per_run", 0.0, "count"));
    out.push(m("metrics.samples_per_run", 0.0, "count"));
    let sum = |f: fn(&Epoch) -> u64| epochs.iter().map(f).sum::<u64>() as f64;
    let (mem, disk, miss) = (sum(|e| e.mem), sum(|e| e.disk), sum(|e| e.miss));
    let answered = mem + disk + miss;
    out.push(m(
        "serve.hit_share",
        (mem + disk) / sum(Epoch::requests).max(1.0),
        "ratio",
    ));
    let evictions: Vec<f64> = epochs.iter().map(|e| e.mem_evictions as f64).collect();
    out.push(m("serve.mem_evictions", median(&evictions), "count"));
    out.extend(counts(ran.iter().map(|r| &r.stats)));

    let prices = Prices::new(costs);
    let g = |k: &str| costs.get(k).copied().unwrap_or(0.0);
    let boot = median(&spans.agg("os.boot").cloned().unwrap_or_default().durations);
    let mut est = [0.0; 7];
    est[5] = answered * g("bench.digest_ns") + miss * g("bench.run_json_us") * 1e3;
    est[6] = answered * g("serve.frame_rtt_us") * 1e3
        + mem * g("serve.lookup_mem_ns")
        + disk * g("serve.lookup_disk_us") * 1e3
        + miss * g("serve.insert_us") * 1e3;
    for e in epochs {
        for (&n, d) in e.misses.iter().zip(direct) {
            if let Some(d) = d {
                for (x, v) in est.iter_mut().zip(prices.run(&d.stats, boot, false, d)) {
                    *x += f64::from(n) * v;
                }
            }
        }
    }
    let base: f64 = epochs
        .iter()
        .flat_map(|e| &e.latency_us)
        .map(|&us| f64::from(us) * 1e3)
        .sum();
    out.extend(shares(est, base));
    let per_cycle = |traced: bool| -> Vec<f64> {
        epochs
            .iter()
            .filter(|e| e.traced == traced)
            .map(|e| miss_ns_per_cycle(std::slice::from_ref(e), direct))
            .collect()
    };
    out.push(overhead(&per_cycle(false), &per_cycle(true)));
    out
}
