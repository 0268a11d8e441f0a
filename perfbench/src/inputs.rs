//! Everything a workload runs, generated from the benchmark seed.
//!
//! The simulator receives only what is generated here: the workload
//! programs' `seed` fields, alias-loop iteration counts and run order,
//! and the replay request stream. The same seed always yields the same
//! inputs.

use vic_bench::cli::system_cli_name;
use vic_bench::SystemSpec;
use vic_core::policy::Configuration;
use vic_core::Rng64;
use vic_os::SystemKind;
use vic_workloads::{
    AfsBench, AliasLoop, ForkBench, KernelBuild, LatexBench, StepWorkload, WorkloadKind,
};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "table-grid",
    "alias-storm",
    "observed-build",
    "result-replay",
];

/// Fork-bench runs per observed-build pass (next to one kernel-build).
pub const OBSERVED_FORKS: u64 = 16;

/// One program with every generated parameter filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// afs-bench at paper scale with this program seed.
    Afs(u64),
    /// latex-paper at paper scale (the program takes no seed).
    Latex,
    /// kernel-build at paper scale with this program seed.
    KernelBuild(u64),
    /// fork-bench at paper scale with this program seed.
    Fork(u64),
    /// The §2.5 alias loop.
    Alias {
        /// Cache-aligned aliases.
        aligned: bool,
        /// Writes in the loop.
        iters: u64,
    },
}

impl Program {
    /// Build the stepwise program.
    pub fn build(self) -> Box<dyn StepWorkload> {
        match self {
            Program::Afs(seed) => Box::new(AfsBench {
                seed,
                ..AfsBench::paper()
            }),
            Program::Latex => Box::new(LatexBench::paper()),
            Program::KernelBuild(seed) => Box::new(KernelBuild {
                seed,
                ..KernelBuild::paper()
            }),
            Program::Fork(seed) => Box::new(ForkBench {
                seed,
                ..ForkBench::paper()
            }),
            Program::Alias { aligned, iters } => Box::new(AliasLoop { iters, aligned }),
        }
    }

    fn kind(self) -> WorkloadKind {
        match self {
            Program::Afs(_) => WorkloadKind::Afs,
            Program::Latex => WorkloadKind::Latex,
            Program::KernelBuild(_) => WorkloadKind::KernelBuild,
            Program::Fork(_) => WorkloadKind::Fork,
            Program::Alias { aligned: true, .. } => WorkloadKind::AliasAligned,
            Program::Alias { aligned: false, .. } => WorkloadKind::AliasUnaligned,
        }
    }
}

/// One simulated run of an in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The spec: system, scale and knobs (its workload names the program).
    pub spec: SystemSpec,
    /// The program and its generated parameters.
    pub program: Program,
    /// Arm the flight recorder and the snapshot sampler.
    pub observed: bool,
}

impl Job {
    fn new(program: Program, system: SystemKind, observed: bool) -> Self {
        Job {
            spec: SystemSpec::new(program.kind(), system),
            program,
            observed,
        }
    }

    /// The spec part of this run's expected-results key. Program seeds are
    /// not named: they follow from the benchmark seed, which is its own
    /// part of the key.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{} @ {}",
            self.spec.workload.cli_name(),
            system_cli_name(self.spec.system)
        );
        match self.program {
            Program::Alias { iters, .. } => key.push_str(&format!(" iters={iters}")),
            Program::Fork(seed) => key.push_str(&format!(" seed={seed:016x}")),
            _ => {}
        }
        key
    }
}

/// A generator stream for one purpose of one benchmark seed.
fn stream(seed: u64, purpose: u64) -> Rng64 {
    let mut r = Rng64::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    r.next_u64();
    r
}

const PURPOSE_AFS: u64 = 1;
const PURPOSE_KBUILD: u64 = 2;
const PURPOSE_FORK: u64 = 3;
const PURPOSE_ALIAS: u64 = 4;
const PURPOSE_REPLAY: u64 = 5;

/// The kernel-build program seed shared by table-grid and observed-build,
/// so both run the identical kernel-build op stream.
fn kbuild_seed(seed: u64) -> u64 {
    stream(seed, PURPOSE_KBUILD).next_u64()
}

/// Paper-scale Table 4 (afs-bench, latex-paper, kernel-build × CMU A–F)
/// then Table 5 (afs-bench × the five real systems), in table order.
/// Every configuration runs the same program seeds, so the grid compares
/// systems on one op stream, as the paper's tables do.
pub fn table_grid(seed: u64) -> Vec<Job> {
    let afs = stream(seed, PURPOSE_AFS).next_u64();
    let kb = kbuild_seed(seed);
    let mut jobs = Vec::new();
    for program in [Program::Afs(afs), Program::Latex, Program::KernelBuild(kb)] {
        for c in Configuration::ALL {
            jobs.push(Job::new(program, SystemKind::Cmu(c), false));
        }
    }
    for sys in SystemKind::table5() {
        jobs.push(Job::new(Program::Afs(afs), sys, false));
    }
    jobs
}

/// The §2.5 alias loop under five configurations, with seeded (even)
/// iteration counts of 145k–155k writes and a seeded run order. The
/// narrow range keeps every seed's run-time distribution alike.
pub fn alias_storm(seed: u64) -> Vec<Job> {
    let mut rng = stream(seed, PURPOSE_ALIAS);
    let configs = [
        (false, Configuration::F),
        (true, Configuration::A),
        (false, Configuration::A),
        (true, Configuration::F),
    ];
    let mut jobs: Vec<Job> = configs
        .into_iter()
        .map(|(aligned, c)| (aligned, SystemKind::Cmu(c)))
        .chain([(false, SystemKind::Sun)])
        .map(|(aligned, sys)| {
            let iters = 2 * rng.gen_u64(72_500, 77_500);
            Job::new(Program::Alias { aligned, iters }, sys, false)
        })
        .collect();
    for i in (1..jobs.len()).rev() {
        let j = rng.gen_index(i + 1);
        jobs.swap(i, j);
    }
    jobs
}

/// kernel-build (table-grid's op stream) and [`OBSERVED_FORKS`] seeded
/// fork-bench runs, all under CMU F with the flight recorder armed.
pub fn observed_build(seed: u64) -> Vec<Job> {
    let f = SystemKind::Cmu(Configuration::F);
    let mut rng = stream(seed, PURPOSE_FORK);
    let mut jobs = vec![Job::new(Program::KernelBuild(kbuild_seed(seed)), f, true)];
    for _ in 0..OBSERVED_FORKS {
        jobs.push(Job::new(Program::Fork(rng.next_u64()), f, true));
    }
    jobs
}

/// The in-process jobs of a workload (empty for result-replay).
pub fn jobs(workload: &str, seed: u64) -> Vec<Job> {
    match workload {
        "table-grid" => table_grid(seed),
        "alias-storm" => alias_storm(seed),
        "observed-build" => observed_build(seed),
        _ => Vec::new(),
    }
}

/// Every quick-scale spec a replay request may name: all six workloads
/// × the ten correct systems × the eight knob combinations.
pub fn replay_universe() -> Vec<SystemSpec> {
    let mut systems: Vec<SystemKind> = Configuration::ALL
        .into_iter()
        .map(SystemKind::Cmu)
        .collect();
    systems.extend([
        SystemKind::Utah,
        SystemKind::Apollo,
        SystemKind::Tut,
        SystemKind::Sun,
    ]);
    let mut specs = Vec::new();
    for w in WorkloadKind::ALL {
        for &sys in &systems {
            for knobs in 0..8u8 {
                let mut s = SystemSpec::quick(w, sys);
                s.colored_free_lists = knobs & 1 != 0;
                s.write_through = knobs & 2 != 0;
                s.fast_purge = knobs & 4 != 0;
                specs.push(s);
            }
        }
    }
    specs
}

/// One client's request stream: indices into [`replay_universe`], skewed
/// so a few specs are requested often and most rarely. Rank `r` of a
/// seeded permutation is drawn as `⌊n·u³⌋` for uniform `u`.
pub fn replay_stream(seed: u64, client: u64, universe: usize, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..universe).collect();
    let mut rng = stream(seed, PURPOSE_REPLAY);
    for i in (1..perm.len()).rev() {
        let j = rng.gen_index(i + 1);
        perm.swap(i, j);
    }
    let mut rng = stream(
        seed ^ client.wrapping_add(1).rotate_left(17),
        PURPOSE_REPLAY,
    );
    (0..len)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let rank = ((universe as f64) * u * u * u) as usize;
            perm[rank.min(universe - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed_only() {
        for w in WORKLOADS {
            let a: Vec<String> = jobs(w, 7).iter().map(Job::key).collect();
            let b: Vec<String> = jobs(w, 7).iter().map(Job::key).collect();
            assert_eq!(a, b, "{w}");
        }
        assert_ne!(
            alias_storm(1).iter().map(Job::key).collect::<Vec<_>>(),
            alias_storm(2).iter().map(Job::key).collect::<Vec<_>>()
        );
        assert_eq!(replay_stream(3, 0, 480, 50), replay_stream(3, 0, 480, 50));
        assert_ne!(replay_stream(3, 0, 480, 50), replay_stream(3, 1, 480, 50));
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(table_grid(0).len(), 23);
        assert_eq!(alias_storm(0).len(), 5);
        assert_eq!(observed_build(0).len(), 1 + OBSERVED_FORKS as usize);
        assert_eq!(replay_universe().len(), 480);
        // observed-build's kernel-build runs table-grid's op stream.
        let kb = |jobs: Vec<Job>| {
            jobs.into_iter()
                .find(|j| matches!(j.program, Program::KernelBuild(_)))
                .map(|j| j.program)
        };
        assert_eq!(kb(table_grid(5)), kb(observed_build(5)));
    }
}
