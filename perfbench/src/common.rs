//! Pieces shared by the workloads: conversions into the replay's own types,
//! the timed loop, and process-level measurements.

use crate::replay::{Graph, Machine, Phases, Plan, Step};
use mbsp_dag::CompDag;
use mbsp_model::{Architecture, ComputePhaseStep, MbspSchedule};
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads of the pools the timed phases run on. On a 2-vCPU host a
/// 2-worker pool's timings moved by ±20% between processes on the same
/// input (every pooled batch waits for both vCPUs), a 1-worker pool's by
/// ±2%; the parallel gain is measured separately, in traced runs.
pub const WORKERS: usize = 1;

/// Worker threads of the pool that the traced runs' parallel-gain and
/// round-trip probes use.
pub const PROBE_WORKERS: usize = 2;

/// Far above any run, so only candidate budgets stop a search.
pub const NO_CLOCK_LIMIT_S: u64 = 3600;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed operation.
pub struct Op {
    /// Wall-clock of the operation itself (checks excluded).
    pub secs: f64,
    /// DAG nodes the operation scheduled.
    pub nodes: usize,
    /// Final cost over the two-stage baseline's cost, both from the replay,
    /// per DAG whose checks held.
    pub ratios: Vec<f64>,
    /// Every check on the operation's output held.
    pub ok: bool,
    /// The operation's input shows a known fault of the program, so its
    /// failure is expected and does not make the run incorrect.
    pub known_fault: bool,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub setup_s: f64,
    pub ops: Vec<Op>,
    /// Per-layer metrics measured by this workload (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Checks outside the timed operations (set-up, determinism, probes)
    /// that failed.
    pub check_failures: Vec<String>,
}

/// Runs one untimed warm-up operation, then whole rounds of `round`
/// operations until `seconds` of wall-clock have passed and at least
/// `min_ops` operations have run.
pub fn timed_rounds(
    seconds: f64,
    round: usize,
    min_ops: usize,
    op: &mut dyn FnMut(usize) -> Op,
) -> Vec<Op> {
    op(0);
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        for i in 0..round {
            ops.push(op(i));
        }
        if start.elapsed().as_secs_f64() >= seconds && ops.len() >= min_ops {
            return ops;
        }
    }
}

/// Wall-clock of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The replay's view of a library DAG.
pub fn graph_of(dag: &CompDag) -> Graph {
    let edges: Vec<(u32, u32)> = dag
        .edges()
        .map(|(u, v)| (u.index() as u32, v.index() as u32))
        .collect();
    Graph::from_edges(
        dag.nodes().map(|v| dag.compute_weight(v)).collect(),
        dag.nodes().map(|v| dag.memory_weight(v)).collect(),
        &edges,
    )
}

/// The replay's view of an architecture.
pub fn machine_of(arch: &Architecture) -> Machine {
    Machine {
        procs: arch.processors,
        r: arch.cache_size,
        g: arch.g,
        latency: arch.latency,
    }
}

/// The replay's view of a library schedule.
pub fn plan_of(schedule: &MbspSchedule) -> Plan {
    let ids = |xs: &[mbsp_dag::NodeId]| xs.iter().map(|v| v.index() as u32).collect();
    Plan {
        steps: schedule
            .supersteps()
            .iter()
            .map(|step| {
                step.procs
                    .iter()
                    .map(|ph| Phases {
                        compute: ph
                            .compute
                            .iter()
                            .map(|c| match *c {
                                ComputePhaseStep::Compute(v) => Step::Compute(v.index() as u32),
                                ComputePhaseStep::Delete(v) => Step::Delete(v.index() as u32),
                            })
                            .collect(),
                        save: ids(&ph.save),
                        delete: ids(&ph.delete),
                        load: ids(&ph.load),
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seed derivation.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median wall-clock of a `run_batch` of two empty jobs on a 2-worker pool.
pub fn pool_roundtrip_s() -> f64 {
    let pool = mbsp_pool::WorkerPool::with_capacity(PROBE_WORKERS);
    let mut samples = Vec::with_capacity(201);
    for _ in 0..201 {
        let (s, _) = timed(|| pool.run_batch((0..2u8).map(|i| move || i).collect::<Vec<_>>()));
        samples.push(s);
    }
    crate::stats::median(&samples)
}
