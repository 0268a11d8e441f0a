//! Layer probes: the per-call cost of each crate's public functions,
//! timed from the benchmark's own code.
//!
//! Every probe times batches of calls as spans (`probe.<metric>`, tagged
//! with the batch's call count) and reports the median batch's cost per
//! call, so one slow batch does not move the figure. The probes run on
//! fixed inputs, the same on every workload; the workload decides how
//! many of each call a run makes (see `layers`).

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vic_bench::output::run_json;
use vic_bench::SystemSpec;
use vic_core::cache_control::{cache_control, CcOp, RecordingHw};
use vic_core::manager::AccessHints;
use vic_core::page_state::PhysPageInfo;
use vic_core::policy::Configuration;
use vic_core::types::{
    CacheGeometry, CacheKind, CpuId, Mapping, PFrame, Prot, SpaceId, VAddr, VPage,
};
use vic_machine::{Machine, MachineConfig};
use vic_os::{Kernel, KernelConfig, ShareAlignment, SystemKind};
use vic_serve::protocol::{read_frame, write_frame};
use vic_serve::{Lookup, ResultStore};
use vic_trace::{ConsistencyAuditor, FanoutSink, RingBufferSink, TraceEvent, TraceSink, Tracer};
use vic_workloads::{ForkBench, Workload};

use crate::spans::Spans;
use crate::stats::median;

/// Batches per probe.
const BATCHES: usize = 9;

/// Probe results by metric name.
pub type Costs = BTreeMap<&'static str, f64>;

/// Time `BATCHES` batches of `calls` calls (`f` makes one batch) and
/// return the median nanoseconds per call.
fn per_call(spans: &mut Spans, name: &'static str, calls: u64, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        spans.enter(name, calls);
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64 / calls as f64);
        spans.exit();
    }
    median(&v)
}

/// The median cost of reading the clock twice around nothing.
fn clock_overhead_ns() -> f64 {
    let v: Vec<f64> = (0..1_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Time single calls, each after an untimed `prepare`, and return the
/// median nanoseconds per call, less the clock's own overhead.
fn each_call<S>(
    spans: &mut Spans,
    name: &'static str,
    calls: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> f64 {
    let mut v = Vec::with_capacity(calls);
    for _ in 0..calls {
        let s = prepare();
        spans.enter(name, 1);
        let t = Instant::now();
        f(s);
        v.push(t.elapsed().as_nanos() as f64);
        spans.exit();
    }
    (median(&v) - clock_overhead_ns()).max(0.0)
}

fn os_err(e: vic_os::OsError) -> String {
    format!("probe: {e}")
}

/// vic-os: a consistency fault, a bulk write, a file-page read and a
/// one-page `vm_copy`, all on the HP 720 geometry under CMU F.
fn os_probes(spans: &mut Spans, out: &mut Costs) -> Result<(), String> {
    let cpu = CpuId::BOOT;
    let mut k = Kernel::new(KernelConfig::new(SystemKind::Cmu(Configuration::F)));
    let page = k.page_size();

    // AliasLoop's phase 0: one frame under two unaligned addresses; every
    // write through the other address is a consistency fault.
    let t = k.create_task();
    let va1 = k.vm_allocate(t, 1).map_err(os_err)?;
    k.write(cpu, t, va1, 0).map_err(os_err)?;
    let va2 = k
        .vm_share_with(cpu, t, va1, t, ShareAlignment::Unaligned)
        .map_err(os_err)?;
    let faults0 = k.os_stats().consistency_faults;
    let mut err = None;
    let writes = 2_000u64;
    out.insert(
        "os.consistency_fault_ns",
        per_call(spans, "probe.os.consistency_fault_ns", writes, || {
            for i in 0..writes {
                let va = if i % 2 == 0 { va1 } else { va2 };
                if let Err(e) = k.write(cpu, t, va, i as u32) {
                    err = Some(e);
                }
            }
        }),
    );
    if let Some(e) = err.take() {
        return Err(os_err(e));
    }
    let faults = k.os_stats().consistency_faults - faults0;
    if faults < writes * BATCHES as u64 * 9 / 10 {
        return Err(format!("probe: only {faults} consistency faults"));
    }

    let pages = 8u64;
    let buf = k.vm_allocate(t, pages).map_err(os_err)?;
    let words = vec![7u32; (page / 4) as usize];
    for p in 0..pages {
        k.write_run(cpu, t, VAddr(buf.0 + p * page), 4, &words)
            .map_err(os_err)?;
    }
    out.insert(
        "os.write_run_ns_per_word",
        per_call(
            spans,
            "probe.os.write_run_ns_per_word",
            pages * words.len() as u64,
            || {
                for p in 0..pages {
                    if let Err(e) = k.write_run(cpu, t, VAddr(buf.0 + p * page), 4, &words) {
                        err = Some(e);
                    }
                }
            },
        ),
    );

    let f = k.fs_create();
    k.fs_write_page(cpu, t, f, 0, buf).map_err(os_err)?;
    let dst = VAddr(buf.0 + page);
    out.insert(
        "os.fs_read_page_us",
        per_call(spans, "probe.os.fs_read_page_us", 50, || {
            for _ in 0..50 {
                if let Err(e) = k.fs_read_page(cpu, t, f, 0, dst) {
                    err = Some(e);
                }
            }
        }) / 1e3,
    );

    let t2 = k.create_task();
    let mut copies = Vec::new();
    out.insert(
        "os.vm_copy_us",
        per_call(spans, "probe.os.vm_copy_us", 20, || {
            for _ in 0..20 {
                match k.vm_copy(cpu, t, buf, 1, t2) {
                    Ok(va) => copies.push(va),
                    Err(e) => err = Some(e),
                }
            }
        }) / 1e3,
    );
    for va in copies {
        k.vm_deallocate(cpu, t2, va, 1).map_err(os_err)?;
    }
    err.map_or(Ok(()), |e| Err(os_err(e)))
}

/// vic-machine: bulk loads and write-back stores per cache line, scalar
/// stores, and page flush/purge on the HP 720 machine.
fn machine_probes(spans: &mut Spans, out: &mut Costs) -> Result<(), String> {
    let cfg = MachineConfig::hp720();
    let mut m = Machine::new(cfg);
    let space = SpaceId(1);
    // Twice the data cache, so a sweep misses on every line.
    let pages = 2 * cfg.dcache_bytes / cfg.page_size;
    for p in 0..pages {
        m.enter_mapping(Mapping::new(space, VPage(p)), PFrame(p), Prot::READ_WRITE);
    }
    let words = (cfg.page_size / 4) as usize;
    let lines = pages * cfg.lines_per_page();
    let mut buf = vec![0u32; words];
    let vals = vec![3u32; words];
    let mut fault = None;
    let va = |p: u64| VAddr(p * cfg.page_size);

    out.insert(
        "machine.load_run_ns_per_line",
        per_call(spans, "probe.machine.load_run_ns_per_line", lines, || {
            for p in 0..pages {
                if let Err(e) = m.load_run(space, va(p), 4, &mut buf) {
                    fault = Some(e);
                }
            }
        }),
    );
    out.insert(
        "machine.store_run_ns_per_line_writeback",
        per_call(
            spans,
            "probe.machine.store_run_ns_per_line_writeback",
            lines,
            || {
                for p in 0..pages {
                    if let Err(e) = m.store_run(space, va(p), 4, &vals) {
                        fault = Some(e);
                    }
                }
            },
        ),
    );
    if m.stats().writebacks == 0 {
        return Err("probe: store sweep made no writebacks".to_string());
    }
    let stores = 4_096u64;
    out.insert(
        "machine.scalar_store_ns",
        per_call(spans, "probe.machine.scalar_store_ns", stores, || {
            for i in 0..stores {
                if let Err(e) = m.store(space, VAddr((i % words as u64) * 4), i as u32) {
                    fault = Some(e);
                }
            }
        }),
    );
    if let Some(e) = fault {
        return Err(format!("probe: {e:?}"));
    }

    let cp0 = cfg.cache_page(CacheKind::Data, VPage(0));
    // A frame never mapped is never cached.
    let absent = PFrame(cfg.num_frames() - 1);
    out.insert(
        "machine.flush_page_us_absent",
        per_call(spans, "probe.machine.flush_page_us_absent", 500, || {
            for _ in 0..500 {
                m.flush_dcache_page(cp0, absent);
            }
        }) / 1e3,
    );
    // The machine sits behind a cell so prepare and call can both reach it.
    let m = std::cell::RefCell::new(m);
    out.insert(
        "machine.flush_page_us_dirty",
        each_call(
            spans,
            "probe.machine.flush_page_us_dirty",
            200,
            || {
                let _ = m.borrow_mut().store_run(space, va(0), 4, &vals);
            },
            |()| m.borrow_mut().flush_dcache_page(cp0, PFrame(0)),
        ) / 1e3,
    );
    out.insert(
        "machine.purge_page_us",
        each_call(
            spans,
            "probe.machine.purge_page_us",
            200,
            || {
                let mut b = vec![0u32; words];
                let _ = m.borrow_mut().load_run(space, va(0), 4, &mut b);
            },
            |()| m.borrow_mut().purge_dcache_page(cp0, PFrame(0)),
        ) / 1e3,
    );
    Ok(())
}

/// vic-core: `cache_control` on a recording hardware double, as the
/// `cache_control` bench target sets it up.
fn core_probes(spans: &mut Spans, out: &mut Costs) {
    let geom = CacheGeometry::new(64, 32);
    let calls = 10_000u64;
    let cases: [(&'static str, &'static str, CcOp, Vec<VPage>); 3] = [
        (
            "core.cache_control_ns.cpu_read",
            "probe.core.cache_control_ns.cpu_read",
            CcOp::CpuRead,
            vec![VPage(0), VPage(64)],
        ),
        (
            "core.cache_control_ns.cpu_write_pingpong",
            "probe.core.cache_control_ns.cpu_write_pingpong",
            CcOp::CpuWrite,
            vec![VPage(0), VPage(1)],
        ),
        (
            "core.cache_control_ns.dma_write",
            "probe.core.cache_control_ns.dma_write",
            CcOp::DmaWrite,
            (0..8).map(VPage).collect(),
        ),
    ];
    for (metric, span, op, vpages) in cases {
        let mut info = PhysPageInfo::new(geom);
        for (i, &vp) in vpages.iter().enumerate() {
            info.add_mapping(Mapping::new(SpaceId(i as u32 + 1), vp), Prot::READ_WRITE);
        }
        let cost = per_call(spans, span, calls, || {
            // A fresh double per batch keeps its logs from growing.
            let mut hw = RecordingHw::new(geom);
            for i in 0..calls {
                let target = match op {
                    CcOp::DmaWrite => None,
                    _ => Some(vpages[i as usize % 2]),
                };
                std::hint::black_box(cache_control(
                    &mut hw,
                    &mut info,
                    PFrame(1),
                    op,
                    target,
                    AccessHints::default(),
                ));
            }
        });
        out.insert(metric, cost);
    }
}

/// Every event of a run, in order.
#[derive(Default)]
struct Capture(Vec<(u64, TraceEvent)>);

impl TraceSink for Capture {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        self.0.push((cycle, *event));
    }
}

/// vic-trace and vic-metrics: replay a captured fork-bench run's events
/// into a fresh flight-recorder fanout, and inspect the kernel it ran on:
/// the whole system (`Kernel::inspect`) and the machine alone, which is
/// what the sampler records per sample.
fn observer_probes(spans: &mut Spans, out: &mut Costs) -> Result<(), String> {
    let capture = Arc::new(std::sync::Mutex::new(Capture::default()));
    let mut k = Kernel::new(KernelConfig::new(SystemKind::Cmu(Configuration::F)));
    k.set_tracer(Tracer::shared(capture.clone()));
    ForkBench::paper().run(&mut k).map_err(os_err)?;
    k.machine_mut().tracer_mut().take_sink();
    let events = std::mem::take(&mut capture.lock().expect("capture poisoned").0);
    if events.is_empty() {
        return Err("probe: fork-bench emitted no events".to_string());
    }
    out.insert(
        "trace.flight_ns_per_event",
        per_call(
            spans,
            "probe.trace.flight_ns_per_event",
            events.len() as u64,
            || {
                let mut t = Tracer::new(
                    FanoutSink::new()
                        .with(ConsistencyAuditor::new())
                        .with(RingBufferSink::new(256)),
                );
                for &(cycle, e) in &events {
                    t.emit(cycle, e);
                }
                t.finish();
            },
        ),
    );
    out.insert(
        "metrics.sample_us",
        per_call(spans, "probe.metrics.sample_us", 50, || {
            for _ in 0..50 {
                std::hint::black_box(k.machine().inspect());
            }
        }) / 1e3,
    );
    out.insert(
        "metrics.inspect_us",
        per_call(spans, "probe.metrics.inspect_us", 20, || {
            for _ in 0..20 {
                std::hint::black_box(k.inspect());
            }
        }) / 1e3,
    );
    Ok(())
}

/// vic-bench: spec digests over the replay universe and `run_json` of
/// quick runs.
fn bench_probes(spans: &mut Spans, out: &mut Costs) {
    let universe = crate::inputs::replay_universe();
    out.insert(
        "bench.digest_ns",
        per_call(
            spans,
            "probe.bench.digest_ns",
            universe.len() as u64,
            || {
                for s in &universe {
                    std::hint::black_box(s.digest());
                }
            },
        ),
    );
    let runs: Vec<(SystemSpec, vic_workloads::RunStats)> = universe
        .iter()
        .step_by(universe.len() / 8)
        .map(|s| (*s, s.run()))
        .collect();
    out.insert(
        "bench.run_json_us",
        per_call(spans, "probe.bench.run_json_us", runs.len() as u64, || {
            for (s, r) in &runs {
                std::hint::black_box(run_json(s, r, None));
            }
        }) / 1e3,
    );
}

/// vic-serve: store lookups in each tier, inserts, and one protocol frame
/// round trip over loopback.
fn serve_probes(spans: &mut Spans, out: &mut Costs, dir: &Path) -> Result<(), String> {
    let io = |e: vic_bench::cli::CliError| format!("probe: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let dir_s = dir.display().to_string();
    let mut store = ResultStore::open(&dir_s, 64).map_err(io)?;
    let payload: Arc<str> = Arc::from(format!(
        "{{\"engine_version\":{},\"pad\":\"{}\"}}",
        vic_core::ENGINE_VERSION,
        "x".repeat(1500)
    ));
    let mut next = 0u64;
    let mut failed = None;
    out.insert(
        "serve.insert_us",
        per_call(spans, "probe.serve.insert_us", 16, || {
            for _ in 0..16 {
                next += 1;
                if let Err(e) = store.insert(next, Arc::clone(&payload)) {
                    failed = Some(e);
                }
            }
        }) / 1e3,
    );
    if let Some(e) = failed {
        return Err(io(e));
    }
    let newest = next;
    let mut misses = 0;
    out.insert(
        "serve.lookup_mem_ns",
        per_call(spans, "probe.serve.lookup_mem_ns", 1_000, || {
            for i in 0..1_000u64 {
                if !matches!(store.lookup(newest - i % 32), Lookup::Mem(_)) {
                    misses += 1;
                }
            }
        }),
    );
    // A one-entry memory tier over the same directory: cycling through
    // the stored digests makes every lookup a disk hit.
    let mut cold = ResultStore::open(&dir_s, 1).map_err(io)?;
    let mut d = 0u64;
    out.insert(
        "serve.lookup_disk_us",
        per_call(spans, "probe.serve.lookup_disk_us", 50, || {
            for _ in 0..50 {
                d = d % newest + 1;
                if !matches!(cold.lookup(d), Lookup::Disk(_)) {
                    misses += 1;
                }
            }
        }) / 1e3,
    );
    let _ = std::fs::remove_dir_all(dir);
    if misses > 0 {
        return Err(format!("probe: {misses} store lookups hit the wrong tier"));
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("probe: {e}"))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        while let Some(frame) = read_frame(&mut s)? {
            write_frame(&mut s, &frame)?;
        }
        Ok(())
    });
    let rtt = (|| -> std::io::Result<f64> {
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let mut result = Ok(());
        let cost = per_call(spans, "probe.serve.frame_rtt_us", 200, || {
            for _ in 0..200 {
                let r = write_frame(&mut c, payload.as_bytes()).and_then(|()| read_frame(&mut c));
                if let Err(e) = r {
                    result = Err(e);
                }
            }
        });
        result.map(|()| cost / 1e3)
    })();
    let joined = echo
        .join()
        .map_err(|_| "probe: echo thread panicked".to_string())?;
    out.insert(
        "serve.frame_rtt_us",
        rtt.map_err(|e| format!("probe: {e}"))?,
    );
    joined.map_err(|e| format!("probe: {e}"))
}

/// Run every probe.
///
/// # Errors
///
/// A probe whose calls failed or did not do the work it times.
pub fn run(spans: &mut Spans, work: &Path) -> Result<Costs, String> {
    let mut out = Costs::new();
    os_probes(spans, &mut out)?;
    machine_probes(spans, &mut out)?;
    core_probes(spans, &mut out);
    observer_probes(spans, &mut out)?;
    bench_probes(spans, &mut out);
    let store = work.join(format!("probe-store-{}", std::process::id()));
    serve_probes(spans, &mut out, &store)?;
    Ok(out)
}
