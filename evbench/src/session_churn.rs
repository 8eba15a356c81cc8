//! `session_churn`: evidence writes beside reads. One caller holds an
//! incremental session on the 256-clique w=8 tree and waits for each
//! answer (a closed loop). Every step is one `session-set` or
//! `session-retract` followed by one `session-query`, so the server
//! runs dirty slices and Hugin division instead of full passes.
//!
//! The server and its caller run pinned to one core. A step is two
//! sub-millisecond round trips through four threads; unpinned, each
//! handoff may wait for an idle core to wake, and on a shared virtual
//! host that wait, and so the tail of step times, grew and shrank with
//! the neighbours' load.

use crate::affinity::Pinned;
use crate::churn::{ChurnPool, Delta, Stream};
use crate::common::{
    check_response, ms, nproc, show, RunResult, Tally, Tolerance, TreeNames, Verdict,
};
use crate::layers::{self, LayerModel, ServeRequest};
use crate::net::{self, Conn};
use crate::serving::Server;
use crate::stats::{median, pct_or_max, percentile, windowed, windowed_rate};
use evprop_core::{CompiledModel, ShardState};
use evprop_potential::{EvidenceSet, VarId};
use evprop_registry::ModelNames;
use evprop_sched::SchedulerConfig;
use evprop_serve::{parse_json, Json, RuntimeConfig, ShardedRuntime};
use evprop_workloads::{materialize, random_tree, TreeParams};
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps in half a churn period (see [`Stream`]). Retractions that
/// revive a zero separator force a full repropagation, ten times the
/// cost of a slice, and their share of a period's steps (2–6% over 512
/// steps) set the work per step; a long period keeps that share, and so
/// the work per step, the same from seed to seed.
const HALF: usize = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// The run is cut into this many equal windows and each metric is the
/// median over them, so a burst of host noise spoils one window, not
/// the run.
const WINDOWS: usize = 10;

/// The tree `incremental_bench` uses. Its potentials are drawn from the
/// run seed (strictly positive) rather than left uniform, so answers
/// differ from target to target and the oracle check has teeth.
fn params() -> TreeParams {
    TreeParams::new(256, 8, 2, 4).with_seed(0xF9)
}

fn session_id(line: &str) -> Result<u64, String> {
    match parse_json(line)?.get("session") {
        Some(Json::Num(n)) => Ok(*n as u64),
        _ => Err(format!("session-open failed: {line}")),
    }
}

fn delta_line(id: u64, delta: Delta) -> String {
    match delta {
        Delta::Set(v, s) => format!(
            "{{\"cmd\": \"session-set\", \"session\": {id}, \"var\": \"v{}\", \"state\": \"{s}\"}}",
            v.index()
        ),
        Delta::Retract(v) => format!(
            "{{\"cmd\": \"session-retract\", \"session\": {id}, \"var\": \"v{}\"}}",
            v.index()
        ),
    }
}

fn query_line(id: u64, target: VarId) -> String {
    format!(
        "{{\"cmd\": \"session-query\", \"session\": {id}, \"target\": \"v{}\"}}",
        target.index()
    )
}

/// Model build to first answer: generate and materialize the tree,
/// compile, boot 2 shards × 1 thread (the CLI defaults), open a session
/// and answer its first query.
fn boot(seed: u64) -> Result<(Server, Conn, Duration), String> {
    let t0 = Instant::now();
    let shape = random_tree(&params());
    let names = Arc::new(TreeNames::of(&shape));
    let model = Arc::new(CompiledModel::from_junction_tree(materialize(&shape, seed)));
    let runtime = ShardedRuntime::from_model(model, RuntimeConfig::new(2, 1));
    let server = Server::start(Arc::new(runtime), names)?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let opened = conn
        .round_trip("{\"cmd\": \"session-open\"}")
        .map_err(|e| e.to_string())?;
    let id = session_id(&opened)?;
    let answer = conn
        .round_trip(&query_line(id, VarId(0)))
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    if !answer.contains("\"marginal\"") {
        return Err(format!("first answer failed: {answer}"));
    }
    conn.round_trip(&format!(
        "{{\"cmd\": \"session-close\", \"session\": {id}}}"
    ))
    .map_err(|e| e.to_string())?;
    Ok((server, conn, elapsed))
}

/// The caller's session: its stream and the oracle answer of every
/// step of the period.
struct Caller {
    conn: Conn,
    id: u64,
    stream: Stream,
    expected: Vec<Vec<f64>>,
    /// Position in the period: loops resume where the last one stopped,
    /// because the session's evidence is wherever that loop left it.
    next: usize,
}

/// Full repropagation per distinct evidence set of the period, on
/// 1-thread shards (one per core), before anything is timed.
fn oracle(model: &CompiledModel, stream: &Stream) -> Result<Vec<Vec<f64>>, String> {
    let mut steps_of = vec![Vec::new(); stream.configs.len()];
    for (k, &c) in stream.config_of_step.iter().enumerate() {
        steps_of[c].push(k);
    }
    let threads = nproc();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let steps_of = &steps_of;
                s.spawn(move || -> Result<Vec<(usize, Vec<f64>)>, String> {
                    let shard = ShardState::new(SchedulerConfig::with_threads(1));
                    let mut answers = Vec::new();
                    for c in (t..stream.configs.len()).step_by(threads) {
                        let calibrated = shard
                            .calibrate(model.junction_tree(), model.graph(), &stream.configs[c])
                            .map_err(|e| format!("oracle failed: {e}"))?;
                        for &k in &steps_of[c] {
                            let marginal = calibrated
                                .marginal(stream.steps[k].target)
                                .map_err(|e| format!("oracle failed: {e}"))?;
                            answers.push((k, marginal.data().to_vec()));
                        }
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut expected = vec![Vec::new(); stream.steps.len()];
    for (k, marginal) in parts.into_iter().flatten() {
        expected[k] = marginal;
    }
    Ok(expected)
}

/// Opens a session on `conn`, sets the stream's base findings and
/// answers one query, all untimed.
fn open_caller(mut conn: Conn, stream: Stream, expected: Vec<Vec<f64>>) -> Result<Caller, String> {
    let id = session_id(
        &conn
            .round_trip("{\"cmd\": \"session-open\"}")
            .map_err(|e| e.to_string())?,
    )?;
    for &(v, s) in &stream.base {
        let ack = conn
            .round_trip(&delta_line(id, Delta::Set(v, s)))
            .map_err(|e| e.to_string())?;
        if !ack.contains("\"ok\"") {
            return Err(format!("session-set failed: {ack}"));
        }
    }
    conn.round_trip(&query_line(id, stream.steps[0].target))
        .map_err(|e| e.to_string())?;
    Ok(Caller {
        conn,
        id,
        stream,
        expected,
        next: 0,
    })
}

/// What one closed loop produced.
#[derive(Default)]
struct CallerLog {
    tally: Tally,
    /// Correct steps as (completion time in seconds since the phase
    /// start, step time in ms).
    steps: Vec<(f64, f64)>,
    gaps_ms: Vec<f64>,
}

/// Steps through the periodic stream until `secs` pass, then checks
/// every answer. A step fails when its delta is refused or its answer
/// is wrong or missing. Returns the log and the wall time in seconds.
fn churn(caller: &mut Caller, secs: f64) -> (CallerLog, f64) {
    let period = caller.stream.steps.len();
    let lines: Vec<(String, String)> = caller
        .stream
        .steps
        .iter()
        .map(|s| {
            (
                delta_line(caller.id, s.delta),
                query_line(caller.id, s.target),
            )
        })
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut log = CallerLog::default();
    let mut answers = Vec::new();
    let mut last: Option<Instant> = None;
    let mut k = caller.next;
    while Instant::now() < deadline {
        let (delta, query) = &lines[k % period];
        let t0 = Instant::now();
        if let Some(prev) = last {
            log.gaps_ms.push(ms(t0 - prev));
        }
        let ack = caller.conn.round_trip(delta);
        let answer = match &ack {
            Ok(a) if a.contains("\"ok\"") => caller.conn.round_trip(query).ok(),
            _ => None,
        };
        let t1 = Instant::now();
        last = Some(t1);
        let broken = ack.is_err();
        answers.push((k % period, t1 - t0, (t1 - start).as_secs_f64(), answer));
        k += 1;
        if broken {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    caller.next = k % period;
    for (step, took, done, answer) in answers {
        let verdict = check_response(
            answer.as_deref(),
            &caller.expected[step],
            Tolerance::Abs(1e-9),
        );
        log.tally.record(verdict);
        if verdict == Verdict::Ok {
            log.steps.push((done, ms(took)));
        }
    }
    (log, wall)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // The oracle comes first, on every core: a full propagation per
    // evidence set of the period, on a model built as the server's is.
    let model = Arc::new(CompiledModel::from_junction_tree(materialize(
        &random_tree(&params()),
        seed,
    )));
    let pool = ChurnPool::from_mpe(&model);
    let stream = Stream::new(&pool, HALF, &mut rng);
    let expected = oracle(&model, &stream)?;
    let pinned = Pinned::to_one_core();
    match &pinned {
        Some(p) => println!("# server and caller pinned to core {}", p.core),
        None => println!("# server and caller unpinned: affinity not settable"),
    }
    let mut setups = Vec::new();
    let mut booted: Option<(Server, Conn)> = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        drop(booted.take());
        let (server, conn, t) = boot(seed)?;
        setups.push(t.as_secs_f64());
        booted = Some((server, conn));
    }
    let (server, conn) = booted.expect("at least one set-up");
    let mut caller = open_caller(conn, stream, expected)?;
    if trace {
        return run_traced(seed, server, caller, model, pool, pinned, seconds, &mut rng);
    }
    let (log, wall) = churn(&mut caller, seconds);
    if let Some(sessions) = server.runtime.stats().sessions {
        let p = sessions.propagation;
        println!(
            "# server sessions: {} queries, {} cached, {} incremental, {} full \
             ({} after a zero separator)",
            p.queries, p.cached, p.incremental, p.full, p.full_zero_separator
        );
    }
    drop(caller);
    drop(server);
    let (tally, steps) = (log.tally, log.steps);
    println!("{}", tally.line("session steps"));
    let p50 = windowed(&steps, WINDOWS, |b| percentile(b, 0.5)).ok_or("too few steps")?;
    let p90 = windowed(&steps, WINDOWS, |b| percentile(b, 0.9)).ok_or("too few steps")?;
    let p99 = show(windowed(&steps, WINDOWS, |b| percentile(b, 0.99)));
    let qps = windowed_rate(&steps, WINDOWS);
    println!(
        "# {} steps in {wall:.2} s; median over {WINDOWS} windows: \
         p50 {p50:.4} ms, p90 {p90:.4} ms, p99 {p99} ms, {qps:.1} steps/s; \
         setup median of {}",
        steps.len(),
        setups.len()
    );
    let mut out = RunResult {
        correct: tally.failed() == 0,
        attempted: tally.sent,
        failed: tally.failed(),
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
    mut caller: Caller,
    model: Arc<CompiledModel>,
    pool: ChurnPool,
    pinned: Option<Pinned>,
    seconds: f64,
    rng: &mut rand::rngs::StdRng,
) -> Result<RunResult, String> {
    // Untraced and traced phases alternate, so drift in the host's
    // speed falls on both sides of the overhead estimate alike. The
    // traced loop is the same loop: the spans it records are the step
    // timestamps the untraced loop also takes.
    let rounds = 3;
    let phase = seconds * 0.15 / rounds as f64;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..rounds {
        plain.push(churn(&mut caller, phase).0);
        traced.push(churn(&mut caller, phase).0);
    }
    let mut tally = Tally::default();
    let flat = |logs: &[CallerLog]| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.steps.iter().map(|&(_, v)| v))
            .collect()
    };
    for log in plain.iter().chain(&traced) {
        tally.add(&log.tally);
    }
    let gaps: Vec<f64> = plain
        .iter()
        .flat_map(|l| l.gaps_ms.iter().copied())
        .collect();

    // Stateless timed queries on the same server, for the queue/exec
    // split that session commands do not report.
    let shape = random_tree(&params());
    let names: Arc<dyn ModelNames + Send + Sync> = Arc::new(TreeNames::of(&shape));
    let mut requests = Vec::new();
    let mut timed_lines = Vec::new();
    let mut expected = Vec::new();
    let oracle = ShardState::new(SchedulerConfig::with_threads(1));
    for i in 0..32 {
        let target = pool.targets[rng.gen_range(0..pool.targets.len())];
        let (v, s) = pool.findings[i % pool.findings.len()];
        let mut ev = EvidenceSet::new();
        ev.observe(v, s);
        let body = format!(
            "{{\"target\": \"v{}\", \"evidence\": {{\"v{}\": \"{s}\"}}",
            target.index(),
            v.index()
        );
        timed_lines.push(format!("{body}, \"timing\": true}}"));
        expected.push(
            oracle
                .posterior(model.junction_tree(), model.graph(), target, &ev)
                .map_err(|e| e.to_string())?
                .data()
                .to_vec(),
        );
        requests.push(ServeRequest {
            model: 0,
            spec: None,
            line: format!("{body}}}"),
            target,
            evidence: ev,
        });
    }
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut k = 0usize;
    let timed = net::closed_loop(
        &mut conn,
        &timed_lines,
        &expected,
        Tolerance::Abs(1e-9),
        || {
            k += 1;
            k % 32
        },
        seconds * 0.05,
        64,
    );
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
    let (p_plain, p_traced) = (median(&flat(&plain)), median(&flat(&traced)));
    out.push("trace.overhead_frac", (p_traced - p_plain) / p_plain, "1");
    out.push("load.late_p99_ms", pct_or_max(&gaps, 0.99), "ms");

    caller
        .conn
        .round_trip(&format!(
            "{{\"cmd\": \"session-close\", \"session\": {}}}",
            caller.id
        ))
        .map_err(|e| e.to_string())?;
    drop(caller);
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
        &[("session_churn", Arc::clone(&model), Arc::clone(&names))],
        Duration::from_secs_f64(seconds * 0.05),
        &mut out,
    );
    drop(conn);
    drop(runtime);
    drop(server);
    // Kernel timings and real-thread rows run on every core.
    drop(pinned);

    let queries = requests
        .iter()
        .map(|r| (r.target, r.evidence.clone()))
        .collect();
    let layer_model = LayerModel {
        model,
        build_tree: Box::new(move || materialize(&shape, seed)),
        queries,
        pool,
    };
    layers::measure(
        &[layer_model],
        1,
        Duration::from_secs_f64(seconds * 0.4),
        rng,
        &mut out,
    );
    Ok(out)
}
