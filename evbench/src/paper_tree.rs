//! `paper_tree`: the paper's scale. One caller waits for each answer
//! (a closed loop over one connection) from a server of 1 shard ×
//! `nproc` threads holding a random N=128, w=15, r=2, k=4 junction
//! tree. Each query spends ~50–70 ms in the kernels, δ-partitioning and
//! the collaborative scheduler; TCP and protocol are a rounding error.

use crate::churn::ChurnPool;
use crate::common::{nproc, RunResult, Tally, Tolerance, TreeNames};
use crate::layers::{self, LayerModel, ServeRequest};
use crate::net::{self, Conn};
use crate::serving::Server;
use crate::stats::{median, pct_or_max, percentile, windowed, windowed_rate};
use evprop_core::{CompiledModel, PooledEngine};
use evprop_potential::{EvidenceSet, VarId};
use evprop_registry::ModelNames;
use evprop_sched::SchedulerConfig;
use evprop_serve::{RuntimeConfig, ShardedRuntime};
use evprop_workloads::{materialize, random_tree, TreeParams};
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct queries per run. The server keeps no answers between
/// queries, so repeats cost it full work while the oracle stays cheap.
const POOL: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The run is cut into this many equal windows and each metric is the
/// median over them, so a burst of host noise spoils one window, not
/// the run.
const WINDOWS: usize = 4;
/// p90 needs ten samples beyond it in every window.
const MIN_SAMPLES: usize = 100 * WINDOWS;

/// The tree shape is fixed (generator seed 0); the run seed draws its
/// potentials and queries, which leaves the work per query unchanged.
fn params() -> TreeParams {
    TreeParams::new(128, 15, 2, 4)
}

struct Queries {
    lines: Vec<String>,
    timed_lines: Vec<String>,
    queries: Vec<(VarId, EvidenceSet)>,
}

fn queries(names: &TreeNames, rng: &mut impl Rng) -> Queries {
    let n = names.num_vars();
    let mut q = Queries {
        lines: Vec::new(),
        timed_lines: Vec::new(),
        queries: Vec::new(),
    };
    for _ in 0..POOL {
        let target = rng.gen_range(0..n);
        let obs = loop {
            let o = rng.gen_range(0..n);
            if o != target {
                break o;
            }
        };
        let state = rng.gen_range(0..names.num_states(VarId(obs as u32)));
        let body =
            format!("{{\"target\": \"v{target}\", \"evidence\": {{\"v{obs}\": \"{state}\"}}");
        q.lines.push(format!("{body}}}"));
        q.timed_lines.push(format!("{body}, \"timing\": true}}"));
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(obs as u32), state);
        q.queries.push((VarId(target as u32), ev));
    }
    q
}

/// Model build to first answer: generate and materialize the tree,
/// compile (reroot, task graph), boot the server, answer one query.
fn boot(seed: u64, first: &str) -> Result<(Server, Conn, Duration), String> {
    let t0 = Instant::now();
    let shape = random_tree(&params());
    let names = Arc::new(TreeNames::of(&shape));
    let model = Arc::new(CompiledModel::from_junction_tree(materialize(&shape, seed)));
    let runtime = ShardedRuntime::from_model(model, RuntimeConfig::new(1, nproc()));
    let server = Server::start(Arc::new(runtime), names)?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let answer = conn.round_trip(first).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    if !answer.contains("\"marginal\"") {
        return Err(format!("first answer failed: {answer}"));
    }
    Ok((server, conn, elapsed))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let shape = random_tree(&params());
    let names = TreeNames::of(&shape);
    let q = queries(&names, &mut rng);

    let mut setups = Vec::new();
    let mut booted: Option<(Server, Conn)> = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        drop(booted.take());
        let (server, conn, t) = boot(seed, &q.lines[0])?;
        setups.push(t.as_secs_f64());
        booted = Some((server, conn));
    }
    let (server, mut conn) = booted.expect("at least one set-up");

    // Oracle: a 1-thread pooled engine on the same compiled model;
    // answers are bit-identical across thread counts.
    let model = Arc::clone(server.runtime.model());
    let expected: Vec<Vec<f64>> = {
        let oracle = PooledEngine::new(SchedulerConfig::with_threads(1));
        q.queries
            .iter()
            .map(|(target, ev)| {
                oracle
                    .posterior(model.junction_tree(), model.graph(), *target, ev)
                    .map(|m| m.data().to_vec())
                    .map_err(|e| format!("oracle failed: {e}"))
            })
            .collect::<Result<_, _>>()?
    };

    if trace {
        return run_traced(seed, server, conn, &q, &expected, &shape, seconds, &mut rng);
    }
    let phase = net::closed_loop(
        &mut conn,
        &q.lines,
        &expected,
        Tolerance::Bitwise,
        || rng.gen_range(0..POOL),
        seconds,
        MIN_SAMPLES,
    );
    drop(conn);
    drop(server);
    println!("{}", phase.tally.line("closed loop"));
    let span = phase.wall_s;
    let p50 = windowed(&phase.samples, WINDOWS, |b| percentile(b, 0.5))
        .ok_or("too few answers for p50")?;
    let p90 = windowed(&phase.samples, WINDOWS, |b| percentile(b, 0.9))
        .ok_or_else(|| format!("{} samples are too few for p90", phase.samples.len()))?;
    let qps = windowed_rate(&phase.samples, WINDOWS);
    println!(
        "# {} answers in {span:.2} s; median over {WINDOWS} windows: p50 {p50:.3} ms, \
         p90 {p90:.3} ms, {qps:.3} q/s; setup median of {}",
        phase.samples.len(),
        setups.len()
    );
    let mut out = RunResult {
        correct: phase.tally.failed() == 0,
        attempted: phase.tally.sent,
        failed: phase.tally.failed(),
        metrics: Vec::new(),
    };
    out.push("setup_s", median(&setups), "s");
    out.push("qps", qps, "1/s");
    out.push("p50_ms", p50, "ms");
    out.push("p90_ms", p90, "ms");
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    seed: u64,
    server: Server,
    mut conn: Conn,
    q: &Queries,
    expected: &[Vec<f64>],
    shape: &evprop_jtree::TreeShape,
    seconds: f64,
    rng: &mut rand::rngs::StdRng,
) -> Result<RunResult, String> {
    // Untraced and traced phases alternate, so drift in the host's
    // speed falls on both sides of the overhead estimate alike.
    let rounds = 3;
    let phase_secs = seconds * 0.15 / rounds as f64;
    let mut pick = || rng.gen_range(0..POOL);
    let mut plain = net::ClosedPhase::default();
    let mut timed = net::ClosedPhase::default();
    for _ in 0..rounds {
        plain.absorb(net::closed_loop(
            &mut conn,
            &q.lines,
            expected,
            Tolerance::Bitwise,
            &mut pick,
            phase_secs,
            4,
        ));
        timed.absorb(net::closed_loop(
            &mut conn,
            &q.timed_lines,
            expected,
            Tolerance::Bitwise,
            &mut pick,
            phase_secs,
            4,
        ));
    }
    let mut tally = Tally::default();
    tally.add(&plain.tally);
    tally.add(&timed.tally);
    println!("{}", tally.line("traced phases"));
    let mut out = RunResult {
        correct: tally.failed() == 0,
        attempted: tally.sent,
        failed: tally.failed(),
        metrics: Vec::new(),
    };
    let (queue, exec) = layers::timing_fields(&timed.responses)?;
    out.push("serve.queue_us", queue, "us");
    out.push("serve.exec_us", exec, "us");
    out.push(
        "trace.overhead_frac",
        (median_latency(&timed) - median_latency(&plain)) / median_latency(&plain),
        "1",
    );
    out.push("load.late_p99_ms", pct_or_max(&plain.gaps_ms, 0.99), "ms");

    let model = Arc::clone(server.runtime.model());
    let names: Arc<dyn ModelNames + Send + Sync> = Arc::new(TreeNames::of(shape));
    let pool = ChurnPool::from_mpe(&model);
    let requests: Vec<ServeRequest> = q
        .lines
        .iter()
        .zip(&q.queries)
        .map(|(line, (target, evidence))| ServeRequest {
            model: 0,
            spec: None,
            line: line.clone(),
            target: *target,
            evidence: evidence.clone(),
        })
        .collect();
    let runtime = Arc::clone(&server.runtime);
    layers::serve_layer(
        &runtime,
        &mut conn,
        std::slice::from_ref(&names),
        &requests,
        &[(None, pool.clone())],
        Duration::from_secs_f64(seconds * 0.1),
        rng,
        &mut out,
    );
    layers::registry_layer(
        &[("paper_tree", Arc::clone(&model), Arc::clone(&names))],
        Duration::from_secs_f64(seconds * 0.05),
        &mut out,
    );
    drop(conn);
    drop(runtime);
    drop(server);

    let shape = shape.clone();
    let layer_model = LayerModel {
        model,
        build_tree: Box::new(move || materialize(&shape, seed)),
        queries: q.queries.clone(),
        pool,
    };
    layers::measure(
        &[layer_model],
        nproc(),
        Duration::from_secs_f64(seconds * 0.4),
        rng,
        &mut out,
    );
    Ok(out)
}

fn median_latency(phase: &net::ClosedPhase) -> f64 {
    let latencies: Vec<f64> = phase.samples.iter().map(|&(_, l)| l).collect();
    median(&latencies)
}
