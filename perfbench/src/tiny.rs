//! `paper_tiny`: the paper's Table 1 experiment. One operation is a sweep
//! over the 15 DAGs of one `tiny_dataset`; each DAG gets the two-stage
//! baseline (greedy BSP + clairvoyant eviction), then the holistic search
//! seeded from the greedy schedule. Only the candidate budget stops the
//! search. A round sweeps 40 datasets (the run's seed and 39 derived from
//! it), so that a run's figures do not hang on one draw of memory weights.

use crate::common::{
    self, graph_of, machine_of, plan_of, timed, Args, Op, Outcome, PROBE_WORKERS, WORKERS,
};
use crate::replay::{replay, same_cost, Graph, Machine};
use crate::stats::median;
use crate::trace::Tracer;
use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_gen::datasets::tiny_dataset;
use mbsp_ilp::{EvalPath, HolisticConfig, HolisticScheduler};
use mbsp_model::{sync_cost, Architecture, MbspInstance};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::collections::BTreeMap;
use std::time::Duration;

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Datasets per run; one operation is a sweep over one dataset.
const DATASETS: usize = 40;

/// Search rounds per DAG. The search also stops at its first round without
/// an improvement; DAGs differ in how many improving rounds they offer (1 to
/// 30 at the default 60), and so would a run's work from seed to seed.
const ROUNDS: usize = 8;

fn config(seed: u64, workers: usize) -> HolisticConfig {
    HolisticConfig {
        max_rounds: ROUNDS,
        time_limit: Duration::from_secs(common::NO_CLOCK_LIMIT_S),
        seed,
        workers,
        ..HolisticConfig::default()
    }
}

/// One instance, scheduled end to end. Returns the op's wall-clock, the
/// holistic cost the scheduler reports, the replayed costs of the holistic
/// and baseline schedules, and the evaluation count.
struct Scheduled {
    secs: f64,
    reported: f64,
    evaluations: u64,
    result: Result<(f64, f64), String>,
}

fn schedule_one(
    inst: &MbspInstance,
    graph: &Graph,
    machine: &Machine,
    scheduler: &HolisticScheduler,
    tr: &Tracer,
    op: u64,
) -> Scheduled {
    let (dag, arch) = (inst.dag(), inst.arch());
    let (secs, (baseline, schedule, stats)) = timed(|| {
        tr.span("op", op, || {
            let bsp = tr.span("mbsp_sched.greedy", op, || {
                GreedyBspScheduler::new().schedule(dag, arch)
            });
            let baseline = tr.span("mbsp_cache.two_stage", op, || {
                TwoStageScheduler::new().schedule(dag, arch, &bsp, &ClairvoyantPolicy::new())
            });
            let (schedule, stats) = tr.span("mbsp_ilp.holistic", op, || {
                scheduler.schedule_with_stats(inst, &bsp, &[], EvalPath::Incremental)
            });
            (baseline, schedule, stats)
        })
    });
    if tr.on() {
        tr.span("mbsp_model.validate", op, || {
            schedule.validate(dag, arch).is_ok()
        });
        tr.span("mbsp_model.sync_cost", op, || {
            sync_cost(&schedule, dag, arch).total
        });
    }
    let result = (|| {
        let base =
            replay(graph, machine, &plan_of(&baseline)).map_err(|v| format!("baseline: {v}"))?;
        let cost =
            replay(graph, machine, &plan_of(&schedule)).map_err(|v| format!("holistic: {v}"))?;
        if !same_cost(cost, stats.final_cost) {
            return Err(format!(
                "reported cost {} but replay gives {cost}",
                stats.final_cost
            ));
        }
        if cost > base + 1e-9 * base.max(1.0) {
            return Err(format!("holistic cost {cost} above the baseline's {base}"));
        }
        Ok((cost, base))
    })();
    Scheduled {
        secs,
        reported: stats.final_cost,
        evaluations: stats.evaluations,
        result,
    }
}

/// The datasets of one run: `tiny_dataset` at the run's seed and at
/// `DATASETS - 1` seeds derived from it.
fn dataset_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        common::mix(seed, k as u64)
    }
}

struct Item {
    instance: MbspInstance,
    graph: Graph,
    machine: Machine,
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut datasets = Vec::new();
    for _ in 0..SETUPS {
        let (secs, sets) = timed(|| {
            (0..DATASETS)
                .map(|k| {
                    let (gen_s, set) = timed(|| tiny_dataset(dataset_seed(args.seed, k)));
                    gens.push(gen_s);
                    let arch = Architecture::new(4, 0.0, 1.0, 10.0);
                    set.into_iter()
                        .map(|named| MbspInstance::with_cache_factor(named.dag, arch, 3.0))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        setups.push(secs);
        datasets = sets;
    }
    let datasets: Vec<Vec<Item>> = datasets
        .into_iter()
        .map(|set| {
            set.into_iter()
                .map(|instance| Item {
                    graph: graph_of(instance.dag()),
                    machine: machine_of(instance.arch()),
                    instance,
                })
                .collect()
        })
        .collect();

    let scheduler = HolisticScheduler::with_config(config(args.seed, WORKERS))
        .with_pool(WorkerPool::with_capacity(WORKERS));
    let mut next_op = 0u64;
    let mut reported: Vec<Vec<f64>> = datasets.iter().map(|d| vec![0.0; d.len()]).collect();
    let mut sweeps: Vec<Vec<f64>> = vec![Vec::new(); DATASETS];
    let mut evaluations = 0u64;
    let mut failures = Vec::new();
    let ops = common::timed_rounds(args.seconds, DATASETS, 1, &mut |k| {
        let op = next_op;
        next_op += 1;
        let mut sweep = Op {
            secs: 0.0,
            nodes: 0,
            ratios: Vec::new(),
            ok: true,
            known_fault: false,
        };
        for (j, item) in datasets[k].iter().enumerate() {
            let s = schedule_one(
                &item.instance,
                &item.graph,
                &item.machine,
                &scheduler,
                tr,
                op,
            );
            reported[k][j] = s.reported;
            sweep.secs += s.secs;
            sweep.nodes += item.instance.dag().num_nodes();
            if op > 0 {
                evaluations += s.evaluations;
            }
            match s.result {
                Ok((cost, base)) => sweep.ratios.push(cost / base),
                Err(e) => {
                    failures.push(format!("{}: {e}", item.instance.name()));
                    sweep.ok = false;
                }
            }
        }
        sweeps[k].push(sweep.secs);
        sweep
    });
    for f in &failures {
        eprintln!("paper_tiny: {f}");
    }

    let mut layers = BTreeMap::new();
    let mut check_failures = Vec::new();
    if tr.on() {
        let per_op = |name: &str| tr.self_times(name).iter().sum::<f64>() / ops.len() as f64;
        let holistic: f64 = tr.self_times("mbsp_ilp.holistic").iter().sum();
        layers.insert("mbsp_gen.generate_s", median(&gens));
        layers.insert("mbsp_sched.greedy_s", per_op("mbsp_sched.greedy"));
        layers.insert("mbsp_cache.two_stage_s", per_op("mbsp_cache.two_stage"));
        layers.insert("mbsp_ilp.holistic_s", holistic / ops.len() as f64);
        layers.insert(
            "mbsp_ilp.holistic_evals_per_s",
            evaluations as f64 / holistic,
        );
        layers.insert("mbsp_model.validate_s", per_op("mbsp_model.validate"));
        layers.insert("mbsp_model.sync_cost_s", per_op("mbsp_model.sync_cost"));
        layers.insert("mbsp_pool.batch_roundtrip_s", common::pool_roundtrip_s());

        // The first dataset once more at two workers: the same costs, and
        // the parallel gain over its timed sweeps.
        let two = HolisticScheduler::with_config(config(args.seed, PROBE_WORKERS))
            .with_pool(WorkerPool::with_capacity(PROBE_WORKERS));
        let mut parallel = 0.0;
        for (j, item) in datasets[0].iter().enumerate() {
            let s = schedule_one(
                &item.instance,
                &item.graph,
                &item.machine,
                &two,
                &Tracer::new(false),
                0,
            );
            parallel += s.secs;
            if s.reported != reported[0][j] {
                check_failures.push(format!(
                    "{}: cost {} at {PROBE_WORKERS} workers but {} at {WORKERS}",
                    item.instance.name(),
                    s.reported,
                    reported[0][j]
                ));
            }
        }
        layers.insert("mbsp_pool.parallel_gain", median(&sweeps[0]) / parallel);
    }
    Outcome {
        setup_s: median(&setups),
        ops,
        layers,
        check_failures,
    }
}
