//! The result-replay workload: `nproc` closed-loop clients submit one
//! quick-scale spec at a time to an in-process `vic_serve::Server` on
//! loopback.
//!
//! Time is split into epochs. Each epoch starts from an empty store and
//! a freshly bound server and replays the same seeded request streams,
//! so every epoch sees the same mix of memory hits, disk hits with
//! promotion, and misses that run, insert and evict: the memory tier
//! holds fewer entries than the streams name distinct specs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use vic_bench::SystemSpec;
use vic_serve::{Connection, ServeConfig, Server, SubmitOutcome};

use crate::expected::{digest_bytes, Expected};
use crate::inproc::{run_spec, RunOut};
use crate::inputs::{replay_stream, replay_universe};
use crate::spans::Spans;

/// Requests each client sends per epoch.
pub const STREAM_LEN: usize = 1500;

/// Entries the server's memory tier holds.
pub const MEM_CAPACITY: usize = 48;

/// Where a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory AWRP tier.
    Mem,
    /// The on-disk store (then promoted into memory).
    Disk,
    /// Not cached: the server ran the spec and inserted the result.
    Miss,
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into the universe.
    pub spec: usize,
    /// Where it was answered; `None` for a refused or errored request.
    pub tier: Option<Tier>,
    /// Client-observed latency.
    pub latency_ns: u64,
    /// Digest of the returned result bytes.
    pub digest: u64,
}

/// One epoch, folded so memory stays small however many requests it
/// made.
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    /// Time from input generation through bound server and connected
    /// clients.
    pub setup_ns: u64,
    /// Time from the first request sent to the last answer received.
    pub wall_ns: u64,
    /// Memory-tier evictions the server reported.
    pub mem_evictions: u64,
    /// Whether the epoch ran while spans were recorded.
    pub traced: bool,
    /// Requests answered from memory, from disk, by a run, and refused or
    /// errored.
    pub mem: u64,
    /// See [`Epoch::mem`].
    pub disk: u64,
    /// See [`Epoch::mem`].
    pub miss: u64,
    /// See [`Epoch::mem`].
    pub refused: u64,
    /// Client-observed latency of every answered request, in µs.
    pub latency_us: Vec<f32>,
    /// Client-observed latency of the requests that missed, in ms.
    pub miss_ms: Vec<f32>,
    /// Summed latency of the requests that missed.
    pub miss_ns: u64,
    /// Misses per universe index.
    pub misses: Vec<u32>,
    /// Answers per (universe index, result digest).
    pub answers: BTreeMap<(usize, u64), u64>,
}

impl Epoch {
    /// Fold one epoch's requests.
    pub fn fold(requests: &[Request], universe: usize) -> Self {
        let mut e = Epoch {
            misses: vec![0; universe],
            ..Epoch::default()
        };
        for r in requests {
            let Some(tier) = r.tier else {
                e.refused += 1;
                continue;
            };
            match tier {
                Tier::Mem => e.mem += 1,
                Tier::Disk => e.disk += 1,
                Tier::Miss => {
                    e.miss += 1;
                    e.miss_ns += r.latency_ns;
                    e.miss_ms.push(r.latency_ns as f32 / 1e6);
                    e.misses[r.spec] += 1;
                }
            }
            e.latency_us.push(r.latency_ns as f32 / 1e3);
            *e.answers.entry((r.spec, r.digest)).or_default() += 1;
        }
        e
    }

    /// Requests sent.
    pub fn requests(&self) -> u64 {
        self.mem + self.disk + self.miss + self.refused
    }
}

/// The epoch-independent inputs.
pub struct Inputs {
    /// Every spec a request may name.
    pub universe: Vec<SystemSpec>,
    /// One request stream per client.
    pub streams: Vec<Vec<usize>>,
}

/// Generate the inputs for `clients` clients.
pub fn inputs(seed: u64, clients: usize) -> Inputs {
    let universe = replay_universe();
    let streams = (0..clients as u64)
        .map(|c| replay_stream(seed, c, universe.len(), STREAM_LEN))
        .collect();
    Inputs { universe, streams }
}

fn io<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Parse the memory-tier eviction count out of a metrics document.
fn evictions(metrics: &str) -> u64 {
    let key = "\"cache_evictions\":";
    metrics
        .find(key)
        .and_then(|i| {
            let rest = &metrics[i + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Run one epoch: bind a server over an empty store at `store`, replay
/// every client's stream, shut the server down and join it.
///
/// # Errors
///
/// A server that cannot bind or does not shut down cleanly. Failed
/// requests are recorded, not returned as errors.
fn epoch(
    seed: u64,
    clients: usize,
    store: &Path,
    expected_path: &Path,
) -> Result<(Epoch, Inputs, Expected), String> {
    let _ = std::fs::remove_dir_all(store);
    let t0 = Instant::now();
    let inputs = inputs(seed, clients);
    let expected = Expected::load(expected_path)?;
    let config = ServeConfig {
        threads: clients,
        mem_capacity: MEM_CAPACITY,
        ..ServeConfig::new(&store.display().to_string())
    };
    let server = Server::bind(&config).map_err(io("bind"))?;
    let port = server.local_addr().map_err(io("bind"))?.port();
    let handle = std::thread::spawn(move || server.run());
    let conns: Result<Vec<Connection>, String> = (0..clients)
        .map(|_| Connection::connect("127.0.0.1", port).map_err(io("connect")))
        .collect();
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let outcome = conns.map(|mut conns| {
        let t1 = Instant::now();
        let requests: Vec<Request> = std::thread::scope(|s| {
            let workers: Vec<_> = conns
                .iter_mut()
                .zip(&inputs.streams)
                .map(|(conn, stream)| s.spawn(|| client(conn, stream, &inputs.universe)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let wall_ns = t1.elapsed().as_nanos() as u64;
        (conns, requests, wall_ns)
    });
    // Whatever happened, stop the server before returning.
    let stop = Connection::connect("127.0.0.1", port).map_err(io("connect"));
    let (metrics, bye) = match stop {
        Ok(mut c) => (
            c.metrics().unwrap_or_default(),
            c.shutdown().map_err(io("shutdown")),
        ),
        Err(e) => (String::new(), Err(e)),
    };
    let served = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let (conns, requests, wall_ns) = outcome?;
    drop(conns);
    bye?;
    served.map_err(io("serve"))?;
    let epoch = Epoch {
        setup_ns,
        wall_ns,
        mem_evictions: evictions(&metrics),
        ..Epoch::fold(&requests, inputs.universe.len())
    };
    Ok((epoch, inputs, expected))
}

/// One client's closed loop over its stream.
fn client(conn: &mut Connection, stream: &[usize], universe: &[SystemSpec]) -> Vec<Request> {
    stream
        .iter()
        .map(|&spec| {
            let t = Instant::now();
            let outcome = conn.submit(std::slice::from_ref(&universe[spec]));
            let latency_ns = t.elapsed().as_nanos() as u64;
            let (tier, digest) = match outcome {
                Ok(SubmitOutcome::Results {
                    hits, tiers, runs, ..
                }) if runs.len() == 1 => {
                    let tier = match (hits, tiers.first().map(String::as_str)) {
                        (0, _) => Tier::Miss,
                        (_, Some("disk")) => Tier::Disk,
                        _ => Tier::Mem,
                    };
                    (Some(tier), digest_bytes(runs[0].as_bytes()))
                }
                _ => (None, 0),
            };
            Request {
                spec,
                tier,
                latency_ns,
                digest,
            }
        })
        .collect()
}

/// Run epochs until `seconds` have elapsed (at least one). Returns the
/// epochs with the last epoch's inputs and expected file. With `spans`,
/// epochs alternate untraced and traced; a traced epoch is one span.
///
/// # Errors
///
/// As for [`epoch`].
pub fn measure(
    seed: u64,
    clients: usize,
    seconds: f64,
    store: &Path,
    expected_path: &Path,
    mut spans: Option<&mut Spans>,
) -> Result<(Vec<Epoch>, Inputs, Expected), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut epochs: Vec<Epoch> = Vec::new();
    loop {
        let traced = epochs.len() % 2 == 1;
        let s = if traced { spans.as_deref_mut() } else { None };
        let (e, inputs, expected) = match s {
            Some(s) => s.time("replay.epoch", epochs.len() as u64, || {
                epoch(seed, clients, store, expected_path)
            })?,
            None => epoch(seed, clients, store, expected_path)?,
        };
        epochs.push(Epoch { traced, ..e });
        let enough = epochs.len() >= 2 || spans.is_none();
        if enough && Instant::now() >= deadline {
            let _ = std::fs::remove_dir_all(store);
            return Ok((epochs, inputs, expected));
        }
    }
}

/// The direct run of every spec the streams name, outside the server;
/// `None` for specs no stream names.
pub type Direct = Vec<Option<RunOut>>;

/// Run every requested spec directly. With `spans`, each run is recorded
/// as the in-process workloads' runs are.
///
/// # Errors
///
/// A workload error.
pub fn direct(inputs: &Inputs, mut spans: Option<&mut Spans>) -> Result<Direct, String> {
    let mut runs: Direct = vec![None; inputs.universe.len()];
    for stream in &inputs.streams {
        for &i in stream {
            if runs[i].is_some() {
                continue;
            }
            let spec = inputs.universe[i];
            let program = spec.build_step_workload();
            if let Some(s) = spans.as_deref_mut() {
                s.set_run(i as u64);
            }
            runs[i] = Some(run_spec(
                &spec,
                program.as_ref(),
                false,
                true,
                spans.as_deref_mut(),
            )?);
        }
    }
    Ok(runs)
}

/// Client-observed time of the requests that missed ÷ the simulated
/// cycles of the runs they caused. Each epoch misses once on nearly
/// every spec of the universe, whatever the seed's hot set.
pub fn miss_ns_per_cycle(epochs: &[Epoch], direct: &Direct) -> f64 {
    let (mut ns, mut cycles) = (0u64, 0u64);
    for e in epochs {
        ns += e.miss_ns;
        for (n, d) in e.misses.iter().zip(direct) {
            cycles += u64::from(*n) * d.as_ref().map_or(0, |d| d.stats.cycles);
        }
    }
    ns as f64 / cycles.max(1) as f64
}

/// How the requests checked out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that were refused, errored, or answered with bytes that
    /// differ from a direct `run_json`, or whose spec's direct run is not
    /// clean or disagrees with the expected file.
    pub failed: u64,
}

/// Check every request against the direct runs and the expected file.
pub fn verify(epochs: &[Epoch], inputs: &Inputs, direct: &Direct, expected: &Expected) -> Verdict {
    let good: Vec<Option<u64>> = direct
        .iter()
        .zip(&inputs.universe)
        .map(|(d, spec)| {
            let d = d.as_ref()?;
            let e = expected.get("result-replay", None, &spec.label())?;
            (d.clean() && e.digest == d.digest).then_some(d.digest)
        })
        .collect();
    let mut v = Verdict::default();
    for e in epochs {
        v.attempted += e.requests();
        v.failed += e.refused;
        for (&(spec, digest), &n) in &e.answers {
            if good[spec] != Some(digest) {
                v.failed += n;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_count_is_read_from_metrics() {
        assert_eq!(evictions("{\"a\":1,\"cache_evictions\":42,\"b\":3}"), 42);
        assert_eq!(evictions("{}"), 0);
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::expected::Entry;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    #[test]
    fn bad_responses_and_tampered_expectations_fail() {
        let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
        let inputs = Inputs {
            universe: vec![spec],
            streams: vec![vec![0]],
        };
        let direct = direct(&inputs, None).expect("runs");
        let d = direct[0].as_ref().expect("requested").digest;
        let request = |tier, digest| Request {
            spec: 0,
            tier,
            latency_ns: 1,
            digest,
        };
        let requests = [
            request(Some(Tier::Mem), d),
            request(Some(Tier::Miss), d),
            request(Some(Tier::Disk), d ^ 1),
            request(None, 0),
        ];
        let epochs = [Epoch::fold(&requests, 1)];
        assert!(miss_ns_per_cycle(&epochs, &direct) > 0.0);
        let mut expected = Expected::default();
        let entry = Entry {
            digest: d,
            cycles: 0,
        };
        expected.insert("result-replay", None, &spec.label(), entry);
        let v = verify(&epochs, &inputs, &direct, &expected);
        assert_eq!(
            (v.attempted, v.failed),
            (4, 2),
            "wrong bytes and a refusal fail"
        );

        let mut tampered = Expected::default();
        let entry = Entry {
            digest: d ^ 2,
            cycles: 0,
        };
        tampered.insert("result-replay", None, &spec.label(), entry);
        let v = verify(&epochs, &inputs, &direct, &tampered);
        assert_eq!(
            (v.attempted, v.failed),
            (4, 4),
            "a corrupted expected value fails all"
        );
    }
}
