//! End-to-end and per-layer benchmark of the MBSP scheduling engine.
//!
//! ```text
//! mbsp_perfbench --workload <paper_tiny|batch_large|serve_stream|ilp_exact>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Untraced
//! runs report the end-to-end metrics; traced runs (`--trace 1`) record
//! spans around every call into a layer, write them out when the run ends,
//! and report the per-layer metrics. See `README.md` for what each metric
//! means and which end-to-end metric it should move.

mod batch;
mod common;
mod ilp;
mod json;
mod replay;
mod serve;
mod stats;
mod tiny;
mod trace;

use common::{Args, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("nodes_per_s", "nodes/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// that does no work on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 45] = [
    ("mbsp_gen.generate_s", "s"),
    ("mbsp_dag.apply_s", "s"),
    ("mbsp_dag.deltas", "count"),
    ("mbsp_sched.greedy_s", "s"),
    ("mbsp_cache.two_stage_s", "s"),
    ("mbsp_model.validate_s", "s"),
    ("mbsp_model.sync_cost_s", "s"),
    ("mbsp_ilp.full_eval_s", "s"),
    ("mbsp_ilp.partition_s", "s"),
    ("mbsp_ilp.search_s", "s"),
    ("mbsp_ilp.evaluations", "count"),
    ("mbsp_ilp.evals_per_s", "1/s"),
    ("mbsp_ilp.merge_accept_ratio", "ratio"),
    ("mbsp_ilp.salvaged_moves", "count"),
    ("mbsp_ilp.holistic_s", "s"),
    ("mbsp_ilp.holistic_evals_per_s", "1/s"),
    ("mbsp_ilp.repair_s", "s"),
    ("mbsp_ilp.repair_dirty_ratio", "ratio"),
    ("mbsp_ilp.repair_cone_nodes", "count"),
    ("mbsp_ilp.first_incumbent_s", "s"),
    ("mbsp_ilp.ilp_build_s", "s"),
    ("mbsp_ilp.ilp_extract_s", "s"),
    ("lp_solver.solve_s", "s"),
    ("lp_solver.bnb_nodes", "count"),
    ("lp_solver.bnb_nodes_per_s", "1/s"),
    ("mbsp_pool.batch_roundtrip_s", "s"),
    ("mbsp_pool.parallel_gain", "ratio"),
    ("mbsp_io.checkpoint_s", "s"),
    ("mbsp_io.restore_s", "s"),
    ("mbsp_io.checkpoint_bytes", "bytes"),
    ("mbsp_serve.register_s", "s"),
    ("mbsp_serve.parse_register_s", "s"),
    ("mbsp_serve.accept_s", "s"),
    ("mbsp_serve.job_floor_s", "s"),
    ("mbsp_serve.status_rtt_s", "s"),
    ("mbsp_serve.mutate_rtt_s", "s"),
    ("mbsp_serve.repair_rtt_s", "s"),
    ("mbsp_serve.overhead_s", "s"),
    ("mbsp_serve.frame_bytes", "bytes"),
    ("bench.op_p50_s", "s"),
    ("bench.timed_phase_s", "s"),
    ("bench.ops", "count"),
    ("bench.spans", "count"),
    ("bench.tail_percentile", "percent"),
    ("bench.tail_samples", "count"),
];

const WORKLOADS: [&str; 4] = ["paper_tiny", "batch_large", "serve_stream", "ilp_exact"];

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans, inside the build directory.
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or(PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a non-finite value is reported as 0.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(args.trace);
    let run_start = std::time::Instant::now();
    let out: Outcome = match args.workload.as_str() {
        "paper_tiny" => tiny::run(&args, &tr),
        "batch_large" => batch::run(&args, &tr),
        "serve_stream" => match serve::run(&args, &tr) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: serve_stream: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => ilp::run(&args, &tr),
    };
    let attempted = out.ops.len();
    let failed = out.ops.iter().filter(|o| !o.ok).count();
    for f in &out.check_failures {
        eprintln!("{}: check failed: {f}", args.workload);
    }
    // A failed operation makes the run incorrect unless its input shows a
    // known fault; so does any failed check outside the operations.
    let correct = out.check_failures.is_empty() && out.ops.iter().all(|o| o.ok || o.known_fault);

    let secs: Vec<f64> = out.ops.iter().map(|o| o.secs).collect();
    let total: f64 = secs.iter().sum();
    let (tail, percentile) = stats::tail(&secs);
    let metrics: Vec<String> = if args.trace {
        let mut layers = out.layers.clone();
        layers.insert("bench.op_p50_s", stats::median(&secs));
        layers.insert("bench.timed_phase_s", total);
        layers.insert("bench.ops", out.ops.len() as f64);
        layers.insert("bench.spans", tr.len() as f64);
        layers.insert("bench.tail_percentile", f64::from(percentile));
        layers.insert("bench.tail_samples", secs.len() as f64);
        let path = spans_path(&args);
        if let Err(e) = tr.write(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        } else {
            eprintln!("spans written to {}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric_json(name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let ratios: Vec<f64> = out
            .ops
            .iter()
            .flat_map(|o| o.ratios.iter().copied())
            .collect();
        // Every operation counts, the slowest too.
        let nodes: usize = out.ops.iter().map(|o| o.nodes).sum();
        let values = [
            out.setup_s,
            nodes as f64 / total,
            stats::median(&secs),
            tail,
            stats::geomean(&ratios),
            common::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric_json(name, value, unit))
            .collect()
    };
    eprintln!(
        "{}: seed {} — {attempted} ops ({failed} failed), timed {total:.3} s, p{percentile} over {} samples, run {:.1} s",
        args.workload,
        args.seed,
        secs.len(),
        run_start.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
