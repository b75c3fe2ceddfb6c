//! `batch_large`: three `large_dataset(seed)` instances (10k, 16k and 48k
//! nodes). One operation is a pass over the three: each gets the greedy
//! baseline, then the sharded holistic search with weighted shards at a
//! fixed candidate budget. The DAGs are never written.

use crate::common::{
    self, graph_of, machine_of, plan_of, timed, Args, Op, Outcome, PROBE_WORKERS, WORKERS,
};
use crate::replay::{replay, same_cost, Graph, Machine};
use crate::stats::median;
use crate::trace::Tracer;
use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_gen::datasets::large_dataset;
use mbsp_ilp::{
    weighted_shards, EvalPath, EvaluationEngine, ShardStrategy, ShardedHolisticScheduler,
    ShardedSearchConfig,
};
use mbsp_model::{sync_cost, Architecture, CostModel, MbspInstance};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::collections::BTreeMap;
use std::time::Duration;

/// The instances of `large_dataset` this workload schedules.
const NAMES: [&str; 3] = ["rand_L50_W200", "spmv_N2000", "CG_N40_K4"];
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const SHARDS: usize = 4;
const RUNS_PER_SHARD: usize = 8;
const MASS_TOLERANCE: f64 = 0.25;

fn config(seed: u64, workers: usize) -> ShardedSearchConfig {
    ShardedSearchConfig {
        cost_model: CostModel::Synchronous,
        num_shards: SHARDS,
        workers,
        max_rounds: 17,
        moves_per_round: 1,
        time_limit: Duration::from_secs(common::NO_CLOCK_LIMIT_S),
        seed,
        stale_round_limit: 0,
        strategy: ShardStrategy::Weighted,
        iterations: 2,
        shard_local_seed: true,
        runs_per_shard: RUNS_PER_SHARD,
        mass_tolerance: MASS_TOLERANCE,
        ..ShardedSearchConfig::default()
    }
}

struct Prepared {
    instance: MbspInstance,
    graph: Graph,
    machine: Machine,
    /// Replayed cost of the two-stage baseline (greedy + clairvoyant).
    baseline_cost: f64,
}

struct Searched {
    secs: f64,
    reported: f64,
    stats: mbsp_ilp::ShardedSearchStats,
    result: Result<f64, String>,
}

fn search_one(
    p: &Prepared,
    scheduler: &ShardedHolisticScheduler,
    tr: &Tracer,
    op: u64,
) -> Searched {
    let (dag, arch) = (p.instance.dag(), p.instance.arch());
    let (secs, (schedule, stats)) = timed(|| {
        tr.span("op", op, || {
            let bsp = tr.span("mbsp_sched.greedy", op, || {
                GreedyBspScheduler::new().schedule(dag, arch)
            });
            tr.span("mbsp_ilp.sharded_search", op, || {
                scheduler.schedule_with_stats(&p.instance, &bsp)
            })
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
    let result = replay(&p.graph, &p.machine, &plan_of(&schedule))
        .map_err(|v| format!("sharded: {v}"))
        .and_then(|cost| {
            if !same_cost(cost, stats.final_cost) {
                Err(format!(
                    "reported cost {} but replay gives {cost}",
                    stats.final_cost
                ))
            } else if cost > p.baseline_cost + 1e-9 * p.baseline_cost {
                Err(format!(
                    "cost {cost} above the baseline's {}",
                    p.baseline_cost
                ))
            } else {
                Ok(cost)
            }
        });
    Searched {
        secs,
        reported: stats.final_cost,
        stats,
        result,
    }
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut prepared: Vec<(MbspInstance, mbsp_model::MbspSchedule)> = Vec::new();
    for _ in 0..SETUPS {
        let (secs, (gen_s, prep)) = timed(|| {
            let (gen_s, set) = timed(|| large_dataset(args.seed));
            let prep: Vec<_> = NAMES
                .iter()
                .map(|name| {
                    let named = set
                        .iter()
                        .find(|n| n.name == *name)
                        .expect("large_dataset names every instance of NAMES");
                    let inst = MbspInstance::with_cache_factor(
                        named.dag.clone(),
                        Architecture::paper_default(0.0),
                        3.0,
                    );
                    let bsp = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
                    let base = TwoStageScheduler::new().schedule(
                        inst.dag(),
                        inst.arch(),
                        &bsp,
                        &ClairvoyantPolicy::new(),
                    );
                    (inst, base)
                })
                .collect();
            (gen_s, prep)
        });
        setups.push(secs);
        gens.push(gen_s);
        prepared = prep;
    }
    let mut check_failures = Vec::new();
    let items: Vec<Prepared> = prepared
        .into_iter()
        .map(|(instance, base)| {
            let graph = graph_of(instance.dag());
            let machine = machine_of(instance.arch());
            let baseline_cost = replay(&graph, &machine, &plan_of(&base)).unwrap_or_else(|v| {
                check_failures.push(format!("{}: baseline: {v}", instance.name()));
                f64::INFINITY
            });
            Prepared {
                instance,
                graph,
                machine,
                baseline_cost,
            }
        })
        .collect();

    let scheduler = ShardedHolisticScheduler::with_config(config(args.seed, WORKERS))
        .with_pool(WorkerPool::with_capacity(WORKERS));
    let mut next_op = 0u64;
    let mut reported = vec![0.0; items.len()];
    let (mut evaluations, mut shards, mut accepted, mut salvaged) = (0u64, 0usize, 0usize, 0u64);
    let mut failures = Vec::new();
    let ops = common::timed_rounds(args.seconds, 1, 1, &mut |_| {
        let op = next_op;
        next_op += 1;
        let mut pass = Op {
            secs: 0.0,
            nodes: 0,
            ratios: Vec::new(),
            ok: true,
            known_fault: false,
        };
        for (i, p) in items.iter().enumerate() {
            let s = search_one(p, &scheduler, tr, op);
            reported[i] = s.reported;
            pass.secs += s.secs;
            pass.nodes += p.instance.dag().num_nodes();
            if op > 0 {
                evaluations += s.stats.evaluations;
                shards += s.stats.shards;
                accepted += s.stats.accepted_shards;
                salvaged += s.stats.salvaged_moves;
            }
            match s.result {
                Ok(cost) => pass.ratios.push(cost / p.baseline_cost),
                Err(e) => {
                    failures.push(format!("{}: {e}", p.instance.name()));
                    pass.ok = false;
                }
            }
        }
        pass
    });
    for f in &failures {
        eprintln!("batch_large: {f}");
    }

    let mut layers = BTreeMap::new();
    if tr.on() {
        let passes = ops.len() as f64;
        let per_op = |name: &str| tr.self_times(name).iter().sum::<f64>() / passes;
        let search: f64 = tr.self_times("mbsp_ilp.sharded_search").iter().sum();
        layers.insert("mbsp_gen.generate_s", median(&gens));
        layers.insert("mbsp_sched.greedy_s", per_op("mbsp_sched.greedy"));
        layers.insert("mbsp_ilp.search_s", search / passes);
        layers.insert("mbsp_ilp.evaluations", evaluations as f64 / passes);
        layers.insert("mbsp_ilp.evals_per_s", evaluations as f64 / search);
        layers.insert(
            "mbsp_ilp.merge_accept_ratio",
            accepted as f64 / shards.max(1) as f64,
        );
        layers.insert("mbsp_ilp.salvaged_moves", salvaged as f64 / passes);
        layers.insert("mbsp_model.validate_s", per_op("mbsp_model.validate"));
        layers.insert("mbsp_model.sync_cost_s", per_op("mbsp_model.sync_cost"));
        layers.insert("mbsp_pool.batch_roundtrip_s", common::pool_roundtrip_s());

        // Probes, one call per instance, summed over the pass.
        let probe_op = next_op;
        let (mut partition, mut full_eval) = (0.0, 0.0);
        for p in &items {
            let dag = p.instance.dag();
            let (s, _) = timed(|| {
                tr.span("mbsp_ilp.weighted_shards", probe_op, || {
                    weighted_shards(dag, SHARDS, RUNS_PER_SHARD, MASS_TOLERANCE, 0.0)
                })
            });
            partition += s;
            let bsp = GreedyBspScheduler::new().schedule(dag, p.instance.arch());
            let procs: Vec<_> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
            let mut engine = EvaluationEngine::new(&p.instance, EvalPath::Incremental);
            engine.evaluate_assignment(&p.instance, &procs, CostModel::Synchronous, &[]);
            let (s, _) = timed(|| {
                tr.span("mbsp_ilp.full_eval", probe_op, || {
                    engine.evaluate_assignment(&p.instance, &procs, CostModel::Synchronous, &[])
                })
            });
            full_eval += s;
        }
        layers.insert("mbsp_ilp.partition_s", partition);
        layers.insert("mbsp_ilp.full_eval_s", full_eval);

        // One pass at two workers: the same costs, and the parallel gain.
        let two = ShardedHolisticScheduler::with_config(config(args.seed, PROBE_WORKERS))
            .with_pool(WorkerPool::with_capacity(PROBE_WORKERS));
        let mut parallel = 0.0;
        for (i, p) in items.iter().enumerate() {
            let s = search_one(p, &two, &Tracer::new(false), 0);
            parallel += s.secs;
            if s.reported != reported[i] {
                check_failures.push(format!(
                    "{}: cost {} at {PROBE_WORKERS} workers but {} at {WORKERS}",
                    p.instance.name(),
                    s.reported,
                    reported[i]
                ));
            }
        }
        let serial = ops.iter().map(|o| o.secs).sum::<f64>() / passes;
        layers.insert("mbsp_pool.parallel_gain", serial / parallel);
    }
    Outcome {
        setup_s: median(&setups),
        ops,
        layers,
        check_failures,
    }
}
