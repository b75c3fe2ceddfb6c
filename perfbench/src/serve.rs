//! `serve_stream`: the engine under writes, behind the daemon.
//!
//! Set-up starts an in-process `mbsp_serve::Server` with 1 worker, opens one
//! client connection, registers four tenants from `family` specs and runs
//! one streaming `schedule` per tenant. One operation, an *update*, goes to the
//! next tenant in round-robin order: a `mutate` with a seeded delta batch
//! (reweight-only and structural in turn), then a `repair` that returns the
//! schedule. The client waits for every reply (a closed loop, one client).
//!
//! The benchmark keeps two mirrors of every tenant's DAG and updates both
//! from the deltas it sends: its own edge list, on which the replay checks
//! every returned schedule, and a library `CompDag`, from which it draws the
//! next delta batch and the two-stage baseline.

use crate::common::{self, graph_of, mix, plan_of, timed, Args, Op, Outcome, WORKERS};
use crate::json::{self, Json};
use crate::replay::{replay, same_cost, Edit, Graph, Machine, Phases, Plan, Step};
use crate::stats::median;
use crate::trace::Tracer;
use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_dag::{CompDag, DagDelta, PkOrder};
use mbsp_gen::mutations::{mutation_stream, MutationStreamConfig};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedHolisticScheduler, ShardedSearchConfig};
use mbsp_model::{sync_cost, Architecture, MbspInstance};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use mbsp_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
/// Tenant DAGs: `LAYERS × WIDTH` nodes.
const LAYERS: usize = 20;
const WIDTH: usize = 100;
/// Deltas per `mutate`.
const DELTAS_PER_UPDATE: usize = 8;
const CONE_RADIUS: usize = 2;
const CACHE_FACTOR: f64 = 3.0;
/// Updates per run at least, so that `op_tail_s` is always a tail
/// percentile (it falls back to the median below 40 samples).
const MIN_UPDATES: usize = 40;
/// Round trips per latency probe.
const PROBE_SAMPLES: usize = 21;

/// The tenants' search budget: explicit shard count and workers, no clock.
fn budget(seed: u64) -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        workers: WORKERS,
        max_rounds: 8,
        moves_per_round: 4,
        iterations: 1,
        stale_round_limit: 0,
        time_limit: Duration::from_secs(common::NO_CLOCK_LIMIT_S),
        seed,
        ..ShardedSearchConfig::default()
    }
}

/// The one client connection.
struct Client {
    out: TcpStream,
    inp: BufReader<TcpStream>,
    next_id: u64,
    bytes_in: usize,
}

impl Client {
    /// Sends `body` (a JSON object's fields, without braces) with a fresh id.
    fn send(&mut self, body: &str) -> Result<u64, String> {
        self.next_id += 1;
        let line = format!("{{\"id\":{},{body}}}\n", self.next_id);
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        Ok(self.next_id)
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .inp
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        self.bytes_in += n;
        Ok(line)
    }

    /// Sends `body` and reads its reply frames up to the terminal one: a
    /// failure, or any frame other than `accepted` and `incumbent`. Each
    /// frame's arrival is stamped in seconds since `since`, before it is
    /// parsed.
    fn request(&mut self, body: &str, since: Instant) -> Result<Vec<Reply>, String> {
        self.send(body)?;
        let mut replies = Vec::new();
        loop {
            let line = self.recv()?;
            let at = since.elapsed().as_secs_f64();
            let frame = json::parse(line.trim_end())
                .map_err(|e| format!("bad frame {}: {e}", excerpt(&line)))?;
            let more = frame.get("ok") != Some(&Json::Bool(false))
                && matches!(frame.str_at("event"), Some("accepted" | "incumbent"));
            replies.push(Reply { line, frame, at });
            if !more {
                return Ok(replies);
            }
        }
    }
}

/// One reply frame.
struct Reply {
    line: String,
    frame: Json,
    /// Arrival, in seconds since the time the request was stamped with.
    at: f64,
}

/// The start of a frame, for messages.
fn excerpt(line: &str) -> &str {
    let line = line.trim_end();
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// The terminal frame of `replies`, which must report success with `event`.
fn finished<'a>(replies: &'a [Reply], event: &str) -> Result<&'a Reply, String> {
    let last = replies.last().ok_or("no reply")?;
    if last.frame.get("ok") == Some(&Json::Bool(false)) || last.frame.str_at("event") != Some(event)
    {
        return Err(format!(
            "expected an ok `{event}` frame, got {}",
            excerpt(&last.line)
        ));
    }
    Ok(last)
}

fn ids(v: Option<&Json>) -> Result<Vec<u32>, String> {
    v.and_then(Json::arr)
        .ok_or("phase list missing")?
        .iter()
        .map(|x| {
            x.num()
                .map(|n| n as u32)
                .ok_or_else(|| "node id is not a number".to_string())
        })
        .collect()
}

/// Reads a schedule from its wire form:
/// `{"processors":P,"supersteps":[{"procs":[{"compute":[{"Compute":v}|{"Delete":v}],"save":[..],"delete":[..],"load":[..]}]}]}`.
fn plan_from_json(v: &Json) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for step in v
        .get("supersteps")
        .and_then(Json::arr)
        .ok_or("no supersteps")?
    {
        let mut procs = Vec::new();
        for ph in step.get("procs").and_then(Json::arr).ok_or("no procs")? {
            let mut compute = Vec::new();
            for c in ph
                .get("compute")
                .and_then(Json::arr)
                .ok_or("no compute phase")?
            {
                compute.push(match (c.num_at("Compute"), c.num_at("Delete")) {
                    (Some(n), None) => Step::Compute(n as u32),
                    (None, Some(n)) => Step::Delete(n as u32),
                    _ => return Err(format!("bad compute step {c:?}")),
                });
            }
            procs.push(Phases {
                compute,
                save: ids(ph.get("save"))?,
                delete: ids(ph.get("delete"))?,
                load: ids(ph.get("load"))?,
            });
        }
        plan.steps.push(procs);
    }
    Ok(plan)
}

fn delta_json(d: &DagDelta) -> String {
    match d {
        DagDelta::AddNode { weights, .. } => format!(
            "{{\"add_node\":{{\"compute\":{:?},\"memory\":{:?}}}}}",
            weights.compute, weights.memory
        ),
        DagDelta::RemoveNode { node } => {
            format!("{{\"remove_node\":{{\"node\":{}}}}}", node.index())
        }
        DagDelta::AddEdge { from, to } => {
            format!(
                "{{\"add_edge\":{{\"from\":{},\"to\":{}}}}}",
                from.index(),
                to.index()
            )
        }
        DagDelta::RemoveEdge { from, to } => {
            format!(
                "{{\"remove_edge\":{{\"from\":{},\"to\":{}}}}}",
                from.index(),
                to.index()
            )
        }
        DagDelta::Reweight { node, weights } => format!(
            "{{\"reweight\":{{\"node\":{},\"compute\":{:?},\"memory\":{:?}}}}}",
            node.index(),
            weights.compute,
            weights.memory
        ),
    }
}

fn edit_of(d: &DagDelta) -> Edit {
    match d {
        DagDelta::AddNode { weights, .. } => Edit::AddNode {
            compute: weights.compute,
            memory: weights.memory,
        },
        DagDelta::RemoveNode { node } => Edit::RemoveNode(node.index() as u32),
        DagDelta::AddEdge { from, to } => Edit::AddEdge(from.index() as u32, to.index() as u32),
        DagDelta::RemoveEdge { from, to } => {
            Edit::RemoveEdge(from.index() as u32, to.index() as u32)
        }
        DagDelta::Reweight { node, weights } => Edit::Reweight {
            node: node.index() as u32,
            compute: weights.compute,
            memory: weights.memory,
        },
    }
}

/// One served update, kept for the library-mirror probe.
struct Served {
    deltas: Vec<DagDelta>,
    cost: f64,
    latency: f64,
    timed: bool,
}

struct Tenant {
    name: String,
    initial: CompDag,
    initial_cost: f64,
    lib: CompDag,
    order: PkOrder,
    graph: Graph,
    arch: Architecture,
    machine: Machine,
    updates: u64,
    history: Vec<Served>,
}

/// Sample sets gathered over the run.
#[derive(Default)]
struct Samples {
    generate: Vec<f64>,
    first_incumbent: Vec<f64>,
    accept: Vec<f64>,
    mutate: Vec<f64>,
    repair: Vec<f64>,
    frame_bytes: Vec<f64>,
}

/// A `register` request for `name` with DAG source `source` (a `family` or
/// `dag_hex` field) and the tenants' architecture and budget.
fn register_line(name: &str, source: &str, seed: u64) -> String {
    let b = budget(seed);
    format!(
        "\"op\":\"register\",\"instance\":\"{name}\",{source},\"processors\":4,\"g\":1.0,\
         \"latency\":10.0,\"cache_factor\":{CACHE_FACTOR:?},\"num_shards\":{},\"workers\":{},\"seed\":{},\
         \"max_rounds\":{},\"moves_per_round\":{},\"iterations\":{},\"stale_round_limit\":{},\
         \"time_limit_ms\":{},\"cone_radius\":{CONE_RADIUS}",
        b.num_shards,
        b.workers,
        b.seed,
        b.max_rounds,
        b.moves_per_round,
        b.iterations,
        b.stale_round_limit,
        b.time_limit.as_millis()
    )
}

/// Registers one tenant and runs its initial streaming schedule. Returns the
/// tenant and the wall-clock of its register and schedule round trips. A
/// check that fails on the replies goes to `checks` and set-up goes on; only
/// a broken connection or a refused register is an error.
///
/// The daemon generates the tenant's DAG from a `family` spec; the benchmark
/// generates the same DAG for its mirrors. Uploading it as `dag_hex` instead
/// would make set-up mostly the upload's JSON parse, which is quadratic in
/// the line length and whose speed drifted by half between two sets of runs
/// a quarter of an hour apart; traced runs time one upload as a probe.
fn set_up_tenant(
    client: &mut Client,
    t: usize,
    seed: u64,
    samples: &mut Samples,
    checks: &mut Vec<String>,
) -> Result<(Tenant, f64), String> {
    let name = format!("tenant{t}");
    let config = RandomDagConfig {
        layers: LAYERS,
        width: WIDTH,
        edge_probability: 3.0 / WIDTH as f64,
        max_compute: 3,
        max_memory: 5,
    };
    let dag_seed = mix(seed, t as u64);
    let (gen_s, dag) = timed(|| random_layered_dag(&config, dag_seed));
    samples.generate.push(gen_s);
    let source = format!(
        "\"family\":{{\"kind\":\"random\",\"layers\":{},\"width\":{},\"edge_probability\":{:?},\
         \"max_compute\":{},\"max_memory\":{},\"seed\":{dag_seed}}}",
        config.layers, config.width, config.edge_probability, config.max_compute, config.max_memory
    );
    let replies = client.request(&register_line(&name, &source, seed), Instant::now())?;
    let reg = finished(&replies, "registered").map_err(|e| format!("{name}: register: {e}"))?;
    let register_s = reg.at;
    if reg.frame.num_at("nodes") != Some(dag.num_nodes() as f64)
        || reg.frame.num_at("edges") != Some(dag.num_edges() as f64)
    {
        checks.push(format!(
            "{name}: the daemon generated another DAG: {}",
            excerpt(&reg.line)
        ));
    }
    let cache_size = reg
        .frame
        .num_at("cache_size")
        .ok_or("no cache_size in the register reply")?;
    let arch = Architecture::new(4, cache_size, 1.0, 10.0);
    let graph = graph_of(&dag);
    let machine = common::machine_of(&arch);

    let replies = client.request(
        &format!(
            "\"op\":\"schedule\",\"instance\":\"{name}\",\"stream\":true,\"return_schedule\":true"
        ),
        Instant::now(),
    )?;
    let schedule_s = replies.last().map_or(0.0, |r| r.at);
    let incumbents: Vec<(Option<f64>, Option<f64>)> = replies
        .iter()
        .filter(|r| r.frame.str_at("event") == Some("incumbent"))
        .map(|r| (r.frame.num_at("sequence"), r.frame.num_at("cost")))
        .collect();
    if let Some(first) = replies
        .iter()
        .find(|r| r.frame.str_at("event") == Some("incumbent"))
    {
        samples.first_incumbent.push(first.at);
    }
    let checked = (|| -> Result<f64, String> {
        let done = &finished(&replies, "done")?.frame;
        let cost = done.num_at("cost").ok_or("no cost in the done frame")?;
        let plan = plan_from_json(
            done.get("schedule")
                .ok_or("no schedule in the done frame")?,
        )?;
        let replayed =
            replay(&graph, &machine, &plan).map_err(|v| format!("initial schedule: {v}"))?;
        if !same_cost(replayed, cost) {
            return Err(format!("done cost {cost} but replay gives {replayed}"));
        }
        for (k, (seq, c)) in incumbents.iter().enumerate() {
            if *seq != Some(k as f64) {
                return Err(format!("incumbent {k} has sequence {seq:?}"));
            }
            if k > 0 && c.zip(incumbents[k - 1].1).is_none_or(|(c, prev)| c >= prev) {
                return Err("incumbent costs do not strictly decrease".into());
            }
        }
        if incumbents
            .last()
            .and_then(|i| i.1)
            .is_none_or(|c| !same_cost(c, cost))
        {
            return Err(format!(
                "the incumbent stream does not end at the done cost {cost}"
            ));
        }
        Ok(cost)
    })();
    let cost = checked.unwrap_or_else(|e| {
        checks.push(format!("{name}: initial schedule: {e}"));
        f64::NAN
    });
    let order = PkOrder::of_dag(&dag);
    let tenant = Tenant {
        name,
        initial: dag.clone(),
        initial_cost: cost,
        lib: dag,
        order,
        graph,
        arch,
        machine,
        updates: 0,
        history: Vec::new(),
    };
    Ok((tenant, register_s + schedule_s))
}

/// One update of `ten`. Returns the latency and the replayed cost ratio.
fn update(
    client: &mut Client,
    ten: &mut Tenant,
    seed: u64,
    samples: &mut Samples,
    tr: &Tracer,
    op: u64,
) -> (f64, Result<f64, String>) {
    let structural = ten.updates % 2 == 1;
    let stream_seed = mix(seed, 0x5eed_0000 + ten.updates);
    ten.updates += 1;
    let deltas = mutation_stream(
        &ten.lib,
        &MutationStreamConfig {
            ops: DELTAS_PER_UPDATE,
            structural,
            ..MutationStreamConfig::default()
        },
        stream_seed,
    );
    let body: Vec<String> = deltas.iter().map(delta_json).collect();
    let mutate = format!(
        "\"op\":\"mutate\",\"instance\":\"{}\",\"deltas\":[{}]",
        ten.name,
        body.join(",")
    );
    let repair = format!(
        "\"op\":\"repair\",\"instance\":\"{}\",\"return_schedule\":true",
        ten.name
    );
    let bytes_before = client.bytes_in;

    // The repair is sent only once the mutate is done; a refused mutate
    // ends the update.
    let t0 = Instant::now();
    let exchange = tr.span("op", op, || -> Result<_, String> {
        let mutated = client.request(&mutate, t0)?;
        finished(&mutated, "done").map_err(|e| format!("mutate: {e}"))?;
        let repaired = client.request(&repair, t0)?;
        Ok((mutated, repaired))
    });
    let (mutated, repaired) = match exchange {
        Ok(replies) => replies,
        Err(e) => return (t0.elapsed().as_secs_f64(), Err(e)),
    };
    // Up to the arrival of the repair's last frame, before it is parsed.
    let latency = repaired.last().map_or(0.0, |r| r.at);

    let result = (|| {
        let mutated_at = mutated.last().map_or(0.0, |r| r.at);
        if op > 0 {
            samples.accept.push(mutated[0].at);
            samples.mutate.push(mutated_at);
            samples.repair.push(latency - mutated_at);
            samples
                .frame_bytes
                .push((client.bytes_in - bytes_before) as f64);
        }
        let mutated = &finished(&mutated, "done")?.frame;
        let repaired = &finished(&repaired, "done")
            .map_err(|e| format!("repair: {e}"))?
            .frame;

        // Bring both mirrors to the mutated DAG.
        tr.span("mbsp_dag.apply", op, || -> Result<(), String> {
            for d in &deltas {
                ten.lib
                    .apply_delta(d, &mut ten.order)
                    .map_err(|e| format!("library mirror: {e}"))?;
            }
            Ok(())
        })?;
        tr.count(
            "mbsp_dag.deltas",
            if op > 0 { deltas.len() as f64 } else { 0.0 },
        );
        for d in &deltas {
            ten.graph
                .apply(&edit_of(d))
                .map_err(|e| format!("edge-list mirror: {e}"))?;
        }
        let expect = [
            ("applied", deltas.len()),
            ("nodes", ten.graph.len()),
            ("edges", ten.graph.num_edges()),
        ];
        for (key, want) in expect {
            if mutated.num_at(key) != Some(want as f64) {
                return Err(format!(
                    "mutate reply {key} differs from the mirror's {want}"
                ));
            }
        }

        let cost = repaired
            .num_at("cost")
            .ok_or("no cost in the repair reply")?;
        let stale = repaired
            .num_at("incumbent_cost")
            .ok_or("no incumbent_cost in the repair reply")?;
        let plan = plan_from_json(
            repaired
                .get("schedule")
                .ok_or("no schedule in the repair reply")?,
        )?;
        let replayed = replay(&ten.graph, &ten.machine, &plan)
            .map_err(|v| format!("repaired schedule: {v}"))?;
        if !same_cost(replayed, cost) {
            return Err(format!("repair cost {cost} but replay gives {replayed}"));
        }
        if cost > stale + 1e-9 * stale.max(1.0) {
            return Err(format!(
                "repair cost {cost} above the stale incumbent's {stale}"
            ));
        }
        ten.history.push(Served {
            deltas: deltas.clone(),
            cost,
            latency,
            timed: op > 0,
        });

        let (dag, arch) = (&ten.lib, &ten.arch);
        let bsp = tr.span("mbsp_sched.greedy", op, || {
            GreedyBspScheduler::new().schedule(dag, arch)
        });
        let base = tr.span("mbsp_cache.two_stage", op, || {
            TwoStageScheduler::new().schedule(dag, arch, &bsp, &ClairvoyantPolicy::new())
        });
        let base = replay(&ten.graph, &ten.machine, &plan_of(&base))
            .map_err(|v| format!("baseline: {v}"))?;
        Ok(cost / base)
    })();
    (latency, result)
}

/// Median round trip of `request` (a JSON body) until its terminal frame,
/// which must be an ok `event` frame.
fn probe_rtt(client: &mut Client, request: &str, event: &str) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..PROBE_SAMPLES {
        let replies = client.request(request, Instant::now())?;
        samples.push(finished(&replies, event)?.at);
    }
    Ok(median(&samples))
}

/// Replays tenant 0's updates on a library session with the same budget:
/// the served costs must match, and the gap in latency is the serving
/// overhead.
fn mirror_probe(
    ten: &Tenant,
    seed: u64,
    tr: &Tracer,
    op: u64,
    layers: &mut BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) {
    let pool = WorkerPool::with_capacity(WORKERS);
    let b = budget(seed);
    let instance = MbspInstance::new(ten.initial.clone(), ten.arch);
    let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
    let (_, stats, procs) = ShardedHolisticScheduler::with_config(b)
        .with_pool(pool.clone())
        .schedule_with_assignment(&instance, &bsp);
    if !same_cost(stats.final_cost, ten.initial_cost) {
        failures.push(format!(
            "{}: library schedule cost {} but the daemon's {}",
            ten.name, stats.final_cost, ten.initial_cost
        ));
    }
    let config = RepairConfig {
        search: b,
        cone_radius: CONE_RADIUS,
    };
    let mut session =
        IncrementalScheduler::new(ten.initial.clone(), ten.arch, procs, config).with_pool(pool);
    let (mut direct, mut served, mut repair) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dirty, mut shards, mut cone) = (0usize, 0usize, Vec::new());
    let (mut checkpoint, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut validate, mut cost_s) = (Vec::new(), Vec::new());
    for (k, s) in ten.history.iter().enumerate() {
        let (apply_s, applied) = timed(|| {
            tr.span("mbsp_ilp.session_apply", op, || {
                s.deltas
                    .iter()
                    .try_for_each(|d| session.apply(d).map(|_| ()))
            })
        });
        if let Err(e) = applied {
            failures.push(format!(
                "{}: library session refused update {k}: {e}",
                ten.name
            ));
            return;
        }
        let (repair_s, (schedule, rs)) =
            timed(|| tr.span("mbsp_ilp.repair", op, || session.repair()));
        if !same_cost(rs.final_cost, s.cost) {
            failures.push(format!(
                "{}: update {k}: library repair cost {} but the daemon's {}",
                ten.name, rs.final_cost, s.cost
            ));
        }
        let (c_s, blob) = timed(|| tr.span("mbsp_io.checkpoint", op, || session.checkpoint()));
        let (r_s, restored) = timed(|| {
            tr.span("mbsp_io.restore", op, || {
                IncrementalScheduler::restore(&blob)
            })
        });
        if restored.is_err() {
            failures.push(format!(
                "{}: update {k}: checkpoint does not restore",
                ten.name
            ));
        }
        let (v_s, _) = timed(|| schedule.validate(session.dag(), session.arch()).is_ok());
        let (sc_s, _) = timed(|| sync_cost(&schedule, session.dag(), session.arch()).total);
        if s.timed {
            direct.push(apply_s + repair_s);
            served.push(s.latency);
            repair.push(repair_s);
            dirty += rs.dirty_shards;
            shards += rs.shards;
            cone.push(rs.cone_nodes as f64);
            checkpoint.push(c_s);
            restore.push(r_s);
            bytes.push(blob.len() as f64);
            validate.push(v_s);
            cost_s.push(sc_s);
        }
    }
    layers.insert("mbsp_ilp.repair_s", median(&repair));
    layers.insert(
        "mbsp_ilp.repair_dirty_ratio",
        dirty as f64 / shards.max(1) as f64,
    );
    layers.insert("mbsp_ilp.repair_cone_nodes", median(&cone));
    layers.insert("mbsp_io.checkpoint_s", median(&checkpoint));
    layers.insert("mbsp_io.restore_s", median(&restore));
    layers.insert("mbsp_io.checkpoint_bytes", median(&bytes));
    layers.insert("mbsp_model.validate_s", median(&validate));
    layers.insert("mbsp_model.sync_cost_s", median(&cost_s));
    layers.insert("mbsp_serve.overhead_s", median(&served) - median(&direct));
}

fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or(PathBuf::from("perfbench/target"), PathBuf::from);
    target.join(format!("perfbench-serve-state-{}", std::process::id()))
}

/// Runs the workload. Failed checks are counted in the outcome; an error
/// means the daemon could not be started, reached or registered with.
pub fn run(args: &Args, tr: &Tracer) -> Result<Outcome, String> {
    let dir = state_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_with_server(args, tr, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Opens the one client connection to `server`.
fn connect(server: &Server) -> Result<Client, String> {
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(Client {
        out: stream.try_clone().map_err(|e| e.to_string())?,
        inp: BufReader::new(stream),
        next_id: 0,
        bytes_in: 0,
    })
}

fn run_with_server(args: &Args, tr: &Tracer, dir: &std::path::Path) -> Result<Outcome, String> {
    let (start_s, server) = timed(|| {
        Server::start(ServerConfig {
            listen: "127.0.0.1:0".into(),
            state_dir: dir.to_path_buf(),
            workers: WORKERS,
        })
    });
    let server = server.map_err(|e| format!("daemon start: {e}"))?;
    let mut client = connect(&server)?;
    let result = drive(args, tr, &mut client, start_s);
    // Graceful stop: the daemon drains, checkpoints and exits its threads.
    let _ = client.request("\"op\":\"shutdown\"", Instant::now());
    drop(client);
    server.shutdown();
    server.join();
    result
}

fn drive(args: &Args, tr: &Tracer, client: &mut Client, start_s: f64) -> Result<Outcome, String> {
    let mut samples = Samples::default();
    let mut check_failures = Vec::new();
    let mut setup_s = start_s;
    let mut tenants = Vec::new();
    for t in 0..TENANTS {
        let (tenant, secs) =
            set_up_tenant(client, t, args.seed, &mut samples, &mut check_failures)?;
        setup_s += secs;
        tenants.push(tenant);
    }

    let mut next_op = 0u64;
    let mut failures = Vec::new();
    let ops = common::timed_rounds(args.seconds, TENANTS, MIN_UPDATES, &mut |i| {
        let op = next_op;
        next_op += 1;
        let ten = &mut tenants[i];
        let (secs, result) = update(client, ten, args.seed, &mut samples, tr, op);
        let nodes = ten.graph.len();
        match result {
            Ok(ratio) => Op {
                secs,
                nodes,
                ratios: vec![ratio],
                ok: true,
                known_fault: false,
            },
            Err(e) => {
                failures.push(format!("{} update {}: {e}", ten.name, ten.updates));
                Op {
                    secs,
                    nodes,
                    ratios: Vec::new(),
                    ok: false,
                    known_fault: false,
                }
            }
        }
    });
    for f in &failures {
        eprintln!("serve_stream: {f}");
    }

    let mut layers = BTreeMap::new();
    if tr.on() {
        let updates = ops.len() as f64;
        let per_op = |name: &str| tr.self_times(name).iter().sum::<f64>() / updates;
        layers.insert("mbsp_gen.generate_s", median(&samples.generate));
        layers.insert("mbsp_dag.apply_s", median(&tr.self_times("mbsp_dag.apply")));
        layers.insert("mbsp_dag.deltas", tr.counter("mbsp_dag.deltas") / updates);
        layers.insert("mbsp_sched.greedy_s", per_op("mbsp_sched.greedy"));
        layers.insert("mbsp_cache.two_stage_s", per_op("mbsp_cache.two_stage"));
        layers.insert(
            "mbsp_ilp.first_incumbent_s",
            median(&samples.first_incumbent),
        );
        layers.insert("mbsp_serve.accept_s", median(&samples.accept));
        layers.insert("mbsp_serve.mutate_rtt_s", median(&samples.mutate));
        layers.insert("mbsp_serve.repair_rtt_s", median(&samples.repair));
        layers.insert("mbsp_serve.frame_bytes", median(&samples.frame_bytes));
        let status = format!("\"op\":\"status\",\"instance\":\"{}\"", tenants[0].name);
        let probes = [
            ("mbsp_serve.job_floor_s", status.as_str()),
            ("mbsp_serve.status_rtt_s", "\"op\":\"status\""),
        ];
        for (metric, request) in probes {
            match probe_rtt(client, request, "status") {
                Ok(s) => {
                    layers.insert(metric, s);
                }
                Err(e) => check_failures.push(format!("{metric} probe: {e}")),
            }
        }
        // Tenant 0's DAG once more, uploaded: the daemon's register round
        // trip, and `parse_request` on the same line in-process.
        let hex = mbsp_serve::encode_hex(&mbsp_io::encode_dag(&tenants[0].initial));
        let upload = register_line("upload0", &format!("\"dag_hex\":\"{hex}\""), args.seed);
        let replies = client.request(&upload, Instant::now())?;
        match finished(&replies, "registered") {
            Ok(reg) => {
                layers.insert("mbsp_serve.register_s", reg.at);
            }
            Err(e) => check_failures.push(format!("upload register: {e}")),
        }
        let (parse_s, parsed) = timed(|| mbsp_serve::parse_request(&format!("{{{upload}}}")));
        if parsed.is_err() {
            check_failures.push("the upload line does not parse in-process".to_string());
        }
        layers.insert("mbsp_serve.parse_register_s", parse_s);
        layers.insert("mbsp_pool.batch_roundtrip_s", common::pool_roundtrip_s());
        mirror_probe(
            &tenants[0],
            args.seed,
            tr,
            next_op,
            &mut layers,
            &mut check_failures,
        );
    }
    Ok(Outcome {
        setup_s,
        ops,
        layers,
        check_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A refused request ends at its error frame, whichever stage refuses
    /// it, and the connection stays in step for the next request.
    #[test]
    fn refused_requests_end_at_their_error_frame() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/perfbench-test-refusals");
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".into(),
            state_dir: dir.clone(),
            workers: 1,
        })
        .unwrap();
        let mut client = connect(&server).unwrap();
        let family = "\"family\":{\"kind\":\"random\",\"layers\":3,\"width\":4,\
                      \"edge_probability\":0.5,\"max_compute\":3,\"max_memory\":2,\"seed\":1}";
        let replies = client
            .request(&register_line("t", family, 1), Instant::now())
            .unwrap();
        finished(&replies, "registered").unwrap();
        let refused = [
            // Refused while parsing: one frame.
            "\"op\":\"mutate\",\"instance\":\"t\",\"deltas\":7",
            // Refused by the session: a node that does not exist.
            "\"op\":\"mutate\",\"instance\":\"t\",\"deltas\":[{\"remove_node\":{\"node\":999}}]",
            "\"op\":\"repair\",\"instance\":\"nobody\"",
        ];
        for request in refused {
            let replies = client.request(request, Instant::now()).unwrap();
            let last = &replies.last().unwrap().frame;
            assert_eq!(last.get("ok"), Some(&Json::Bool(false)), "{request}");
            assert!(finished(&replies, "done").is_err());
        }
        let replies = client.request("\"op\":\"status\"", Instant::now()).unwrap();
        finished(&replies, "status").unwrap();
        client
            .request("\"op\":\"shutdown\"", Instant::now())
            .unwrap();
        drop(client);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
