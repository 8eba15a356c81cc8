//! `small_serve`: many tiny queries over TCP against a two-model
//! registry.
//!
//! Propagation is 10–30 µs per query here, so the time goes to TCP,
//! the protocol, admission, dispatch, registry resolution and pool
//! handoffs. Independent clients make an open loop: requests arrive on
//! a seeded Poisson schedule over `nproc` connections at a fixed ladder
//! of rates, and each is timed from when it was due. The rest of the
//! run is a closed loop over the same connections, which gives the
//! bounded metrics.

use crate::churn::ChurnPool;
use crate::common::{check_response, ms, nproc, show, RunResult, Tally, Tolerance, Verdict};
use crate::layers::{self, LayerModel};
use crate::net::{self, Conn, OpenLoopLog};
use crate::serving::Server;
use crate::stats::{median, percentile, windowed, windowed_rate};
use evprop_bayesnet::bif::{self, BifNetwork};
use evprop_bayesnet::networks;
use evprop_core::{InferenceSession, SequentialEngine};
use evprop_potential::{EvidenceSet, VarId};
use evprop_registry::{ModelNames, ModelRegistry};
use evprop_serve::{RuntimeConfig, ShardedRuntime};
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates (q/s, all connections together), lowest first. Fixed
/// constants below the ~18k q/s capacity measured on a 2-core host when
/// the benchmark was defined; never recomputed per run.
const LADDER: [f64; 5] = [2_000.0, 4_000.0, 8_000.0, 12_000.0, 16_000.0];
/// The light rate: the threads of every hop go idle between requests,
/// so each handoff pays a cold wake-up.
const LIGHT: usize = 0;
/// The busy rate, well below capacity.
const BUSY: usize = 2;
/// Each rung runs in short windows, interleaved with the other rungs
/// round by round, and reports the median over its windows: a burst of
/// host noise then spoils a few windows of every rung instead of all of
/// one rung.
const WINDOW_SECS: f64 = 0.5;
/// A rung counts towards goodput when its p99, failures counted as
/// misses, stays within this limit.
const P99_LIMIT_MS: f64 = 50.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Share of a run spent on the open-loop ladder; the rest is a closed
/// loop over the same connections. The ladder's latencies and goodput
/// are printed; the bounded metrics come from the closed loop, because
/// open-loop latency on a 2-core virtual host follows the host's
/// wake-up delays and moved 2–3× between runs minutes apart.
const LADDER_SHARE: f64 = 0.4;
/// The closed loop is cut into this many windows of equal answer
/// counts, and each metric is the median over them.
const WINDOWS: usize = 10;
/// How long a rung waits for answers after its last request.
const DRAIN: Duration = Duration::from_secs(5);

/// The served models: registry name and network. Queries that name no
/// model resolve the first, the registry's default alias.
fn models() -> [(&'static str, String); 2] {
    [
        (
            "asia",
            bif::write(&bif::with_generated_names(networks::asia(), "asia")),
        ),
        (
            "student",
            bif::write(&bif::with_generated_names(networks::student(), "student")),
        ),
    ]
}

/// Every distinct request of the workload with its oracle answer.
struct Mix {
    lines: Vec<String>,
    timed_lines: Vec<String>,
    expected: Vec<Vec<f64>>,
    /// Request indices per model.
    by_model: [Vec<usize>; 2],
    queries: Vec<(usize, VarId, EvidenceSet)>,
}

/// One target and one hard finding per query, like `evprop-loadgen`;
/// answers from the sequential engine, computed before anything is
/// timed. Combinations the oracle cannot answer are left out.
fn mix(texts: &[(&'static str, String); 2]) -> Mix {
    let mut m = Mix {
        lines: Vec::new(),
        timed_lines: Vec::new(),
        expected: Vec::new(),
        by_model: [Vec::new(), Vec::new()],
        queries: Vec::new(),
    };
    for (k, (name, text)) in texts.iter().enumerate() {
        let parsed = bif::parse(text).expect("generated BIF parses");
        let session = InferenceSession::from_network(&parsed.network).expect("model compiles");
        let n = parsed.network.num_vars();
        for target in 0..n {
            for obs in (0..n).filter(|&o| o != target) {
                let card = parsed.network.var(VarId(obs as u32)).cardinality();
                for state in 0..card {
                    let mut ev = EvidenceSet::new();
                    ev.observe(VarId(obs as u32), state);
                    let Ok(answer) =
                        session.posterior(&SequentialEngine, VarId(target as u32), &ev)
                    else {
                        continue;
                    };
                    let model = if k == 0 {
                        String::new()
                    } else {
                        format!("\"model\": \"{name}\", ")
                    };
                    let body = format!(
                        "{{{model}\"target\": \"{}\", \"evidence\": {{\"{}\": \"{}\"}}",
                        parsed.var_names[target],
                        parsed.var_names[obs],
                        parsed.state_names[obs][state]
                    );
                    m.by_model[k].push(m.lines.len());
                    m.lines.push(format!("{body}}}"));
                    m.timed_lines.push(format!("{body}, \"timing\": true}}"));
                    m.expected.push(answer.data().to_vec());
                    m.queries.push((k, VarId(target as u32), ev));
                }
            }
        }
    }
    m
}

/// Half the queries name no model (so resolve the default alias
/// `asia`), half name `student`.
fn pick(m: &Mix, rng: &mut impl Rng) -> usize {
    let models = &m.by_model[rng.gen_range(0..2usize)];
    models[rng.gen_range(0..models.len())]
}

struct Booted {
    server: Server,
    registry: Arc<ModelRegistry>,
    names: Vec<Arc<BifNetwork>>,
    conn: Conn,
}

/// Model build to first answer: parse both BIF texts, compile, install
/// with warmup, boot 2 shards × 1 thread (the CLI defaults) behind the
/// TCP front-end, and answer one query over a fresh connection.
fn boot(texts: &[(&'static str, String); 2], m: &Mix) -> Result<(Booted, Duration), String> {
    let t0 = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    let mut names = Vec::new();
    for (name, text) in texts {
        let parsed = Arc::new(bif::parse(text).map_err(|e| e.to_string())?);
        let session = InferenceSession::from_network(&parsed.network).map_err(|e| e.to_string())?;
        registry
            .install(name, Arc::clone(session.model()), parsed.clone())
            .map_err(|e| e.to_string())?;
        names.push(parsed);
    }
    let runtime =
        ShardedRuntime::with_registry(Arc::clone(&registry), texts[0].0, RuntimeConfig::new(2, 1))
            .map_err(|e| e.to_string())?;
    let server = Server::start(Arc::new(runtime), names[0].clone())?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let first = conn.round_trip(&m.lines[0]).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    if check_response(Some(&first), &m.expected[0], Tolerance::Abs(1e-9)) != Verdict::Ok {
        return Err(format!("first answer is wrong: {first}"));
    }
    Ok((
        Booted {
            server,
            registry,
            names,
            conn,
        },
        elapsed,
    ))
}

/// What one open-loop window at one rate produced.
struct Window {
    secs: f64,
    tally: Tally,
    /// Due-to-answer latency of correct answers, ms.
    latencies: Vec<f64>,
    /// Same, with every failed request counted as an infinite miss.
    with_misses: Vec<f64>,
    late_ms: Vec<f64>,
    /// The correct answers' response lines.
    responses: Vec<String>,
    outstanding_mid: usize,
    outstanding_end: usize,
}

impl Window {
    fn backlog_grows(&self) -> bool {
        self.outstanding_end > (2 * self.outstanding_mid).max(8)
    }
}

/// One rung of the ladder: all its windows.
struct Rung {
    rate: f64,
    windows: Vec<Window>,
}

impl Rung {
    /// Median over the windows of a per-window statistic; `None` when
    /// any window has too few samples for it.
    fn per_window(&self, stat: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
        let xs: Option<Vec<f64>> = self.windows.iter().map(stat).collect();
        xs.filter(|v| !v.is_empty()).map(|v| median(&v))
    }

    fn p50(&self) -> Option<f64> {
        self.per_window(|w| percentile(&w.latencies, 0.5))
    }

    fn p90(&self) -> Option<f64> {
        self.per_window(|w| percentile(&w.latencies, 0.9))
    }

    fn p99(&self) -> Option<f64> {
        self.per_window(|w| percentile(&w.latencies, 0.99))
    }

    fn p99_with_misses(&self) -> Option<f64> {
        self.per_window(|w| percentile(&w.with_misses, 0.99))
    }

    fn backlog_grows(&self) -> bool {
        2 * self.windows.iter().filter(|w| w.backlog_grows()).count() > self.windows.len()
    }

    fn meets_limit(&self) -> bool {
        !self.backlog_grows() && self.p99_with_misses().is_some_and(|p| p <= P99_LIMIT_MS)
    }

    /// Correct answers per second.
    fn goodput(&self) -> f64 {
        self.per_window(|w| Some(w.tally.ok as f64 / w.secs))
            .unwrap_or(0.0)
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for w in &self.windows {
            t.add(&w.tally);
        }
        t
    }

    fn line(&self) -> String {
        let late: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.late_ms.iter().copied())
            .collect();
        format!(
            "# rung {:>6.0} q/s: {} windows, answered {}, median-of-window p50 {} ms, p90 {} ms, \
             p99 {} ms, late p99 {} ms, backlog grows: {}, meets {P99_LIMIT_MS} ms limit: {}",
            self.rate,
            self.windows.len(),
            self.tally().ok,
            show(self.p50()),
            show(self.p90()),
            show(self.p99()),
            show(percentile(&late, 0.99)),
            self.backlog_grows(),
            self.meets_limit()
        )
    }
}

/// Runs one open-loop phase at `rate` over `conns`, then checks every
/// answer.
fn run_rung(
    conns: &mut [Conn],
    m: &Mix,
    lines: &[String],
    rate: f64,
    secs: f64,
    rng: &mut impl Rng,
) -> Window {
    let per_conn = rate / conns.len() as f64;
    let schedules: Vec<Vec<(Duration, usize)>> = conns
        .iter()
        .map(|_| {
            net::poisson_offsets(rng, per_conn, secs)
                .into_iter()
                .map(|t| (t, pick(m, rng)))
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let logs: Vec<OpenLoopLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&schedules)
            .map(|(conn, sched)| s.spawn(move || net::open_loop(conn, lines, sched, start, DRAIN)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut rung = Window {
        secs,
        tally: Tally::default(),
        latencies: Vec::new(),
        with_misses: Vec::new(),
        late_ms: Vec::new(),
        responses: Vec::new(),
        outstanding_mid: 0,
        outstanding_end: 0,
    };
    for log in logs {
        if let Some(e) = &log.error {
            eprintln!("evbench: connection failed: {e}");
        }
        rung.outstanding_mid += log.outstanding_mid;
        rung.outstanding_end += log.outstanding_end;
        for sent in log.requests {
            let verdict = check_response(
                sent.response.as_deref(),
                &m.expected[sent.index],
                Tolerance::Abs(1e-9),
            );
            rung.tally.record(verdict);
            rung.late_ms.push(ms(sent.late));
            match (verdict, sent.latency, sent.response) {
                (Verdict::Ok, Some(l), Some(response)) => {
                    rung.latencies.push(ms(l));
                    rung.with_misses.push(ms(l));
                    rung.responses.push(response);
                }
                _ => rung.with_misses.push(f64::INFINITY),
            }
        }
    }
    rung
}

fn connect_all(server: &Server) -> Result<Vec<Conn>, String> {
    (0..nproc())
        .map(|_| Conn::connect(server.addr()).map_err(|e| e.to_string()))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let texts = models();
    let m = mix(&texts);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    if trace {
        return run_traced(&texts, &m, seconds, &mut rng);
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut booted: Option<Booted> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous instance down before timing the next.
        drop(booted.take());
        let (b, t) = boot(&texts, &m)?;
        setups.push(t.as_secs_f64());
        booted = Some(b);
    }
    let booted = booted.expect("at least one set-up");
    let mut conns = connect_all(&booted.server)?;

    // The open-loop ladder: latency at fixed offered rates and goodput.
    let rounds =
        ((seconds * LADDER_SHARE / (WINDOW_SECS * LADDER.len() as f64)).round() as usize).max(1);
    let mut rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rate| Rung {
            rate,
            windows: Vec::new(),
        })
        .collect();
    for _ in 0..rounds {
        for rung in &mut rungs {
            let w = run_rung(&mut conns, &m, &m.lines, rung.rate, WINDOW_SECS, &mut rng);
            rung.windows.push(w);
        }
    }
    let mut total = Tally::default();
    for r in &rungs {
        println!("{}", r.line());
        println!("{}", r.tally().line(&format!("rung {:.0}", r.rate)));
        total.add(&r.tally());
    }
    let goodput = rungs
        .iter()
        .rev()
        .find(|r| r.meets_limit())
        .map_or(0.0, Rung::goodput);
    let light = &rungs[LIGHT];
    let busy = &rungs[BUSY];
    let late: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.windows.iter().flat_map(|w| w.late_ms.iter().copied()))
        .collect();
    println!(
        "# light {:.0} q/s: p50 {} ms, p90 {} ms; busy {:.0} q/s: p50 {} ms, p90 {} ms, \
         p99 {} ms; goodput {goodput:.1} q/s (median over {rounds} windows per rung); \
         load.late_p99_ms {}",
        light.rate,
        show(light.p50()),
        show(light.p90()),
        busy.rate,
        show(busy.p50()),
        show(busy.p90()),
        show(busy.p99()),
        show(percentile(&late, 0.99)),
    );

    // The closed loop: every connection waits for each answer.
    let closed_secs = seconds * (1.0 - LADDER_SHARE);
    let seeds: Vec<u64> = conns.iter().map(|_| rng.gen()).collect();
    let phases: Vec<net::ClosedPhase> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(seeds)
            .map(|(conn, seed)| {
                let m = &m;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    net::closed_loop(
                        conn,
                        &m.lines,
                        &m.expected,
                        Tolerance::Abs(1e-9),
                        || pick(m, &mut rng),
                        closed_secs,
                        0,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    drop(conns);
    drop(booted);
    let mut closed = net::ClosedPhase::default();
    for phase in phases {
        closed.absorb(phase);
    }
    println!("{}", closed.tally.line("closed loop"));
    total.add(&closed.tally);
    println!("{}", total.line("all phases"));
    let p50 =
        windowed(&closed.samples, WINDOWS, |b| percentile(b, 0.5)).ok_or("too few answers")?;
    let p90 =
        windowed(&closed.samples, WINDOWS, |b| percentile(b, 0.9)).ok_or("too few answers")?;
    let p99 = show(windowed(&closed.samples, WINDOWS, |b| percentile(b, 0.99)));
    let qps = windowed_rate(&closed.samples, WINDOWS);
    println!(
        "# closed loop over {} connections: median over {WINDOWS} windows: p50 {p50:.4} ms, \
         p90 {p90:.4} ms, p99 {p99} ms, {qps:.1} q/s; fail_ratio {:.6}; setup median of \
         {SETUP_REPS}",
        nproc(),
        total.failed() as f64 / total.sent.max(1) as f64
    );

    let mut out = RunResult {
        correct: total.failed() == 0,
        attempted: total.sent,
        failed: total.failed(),
        metrics: Vec::new(),
    };
    out.push("setup_s", median(&setups), "s");
    out.push("qps", qps, "1/s");
    out.push("p50_ms", p50, "ms");
    out.push("p90_ms", p90, "ms");
    Ok(out)
}

/// The traced run: a short untraced and a short traced phase at the
/// light rate, then every layer costed in-process on the same models
/// and query mix.
fn run_traced(
    texts: &[(&'static str, String); 2],
    m: &Mix,
    seconds: f64,
    rng: &mut rand::rngs::StdRng,
) -> Result<RunResult, String> {
    let (mut booted, _) = boot(texts, m)?;
    let mut conns = connect_all(&booted.server)?;
    // Untraced and traced windows alternate, so drift in the host's
    // speed falls on both sides of the overhead estimate alike.
    let mut plain = Rung {
        rate: LADDER[LIGHT],
        windows: Vec::new(),
    };
    let mut timed = Rung {
        rate: LADDER[LIGHT],
        windows: Vec::new(),
    };
    let rounds = ((seconds * 0.3 / (2.0 * WINDOW_SECS)).round() as usize).max(1);
    for _ in 0..rounds {
        let w = run_rung(&mut conns, m, &m.lines, plain.rate, WINDOW_SECS, rng);
        plain.windows.push(w);
        let w = run_rung(&mut conns, m, &m.timed_lines, timed.rate, WINDOW_SECS, rng);
        timed.windows.push(w);
    }
    drop(conns);
    let mut tally = plain.tally();
    tally.add(&timed.tally());
    println!("{}", tally.line("traced phases"));
    let mut out = RunResult {
        correct: tally.failed() == 0,
        attempted: tally.sent,
        failed: tally.failed(),
        metrics: Vec::new(),
    };
    let responses: Vec<String> = timed
        .windows
        .iter()
        .flat_map(|w| w.responses.iter().cloned())
        .collect();
    let (queue, exec) = layers::timing_fields(&responses)?;
    out.push("serve.queue_us", queue, "us");
    out.push("serve.exec_us", exec, "us");
    let (p_timed, p_plain) = (
        timed.p50().unwrap_or(f64::NAN),
        plain.p50().unwrap_or(f64::NAN),
    );
    out.push("trace.overhead_frac", (p_timed - p_plain) / p_plain, "1");
    let late: Vec<f64> = plain
        .windows
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    out.push(
        "load.late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0.0),
        "ms",
    );

    let names: Vec<Arc<dyn ModelNames + Send + Sync>> = booted
        .names
        .iter()
        .map(|n| Arc::clone(n) as Arc<dyn ModelNames + Send + Sync>)
        .collect();
    let spec = |k: usize| (k > 0).then_some(texts[k].0);
    let requests: Vec<layers::ServeRequest> = (0..256)
        .map(|_| {
            let i = pick(m, rng);
            let (k, target, evidence) = &m.queries[i];
            layers::ServeRequest {
                model: *k,
                spec: spec(*k),
                line: m.lines[i].clone(),
                target: *target,
                evidence: evidence.clone(),
            }
        })
        .collect();
    let compiled: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let handle = booted.registry.resolve(name).expect("installed");
            (*name, Arc::clone(handle.model()), Arc::clone(&names[k]))
        })
        .collect();
    let pools: Vec<ChurnPool> = compiled
        .iter()
        .map(|(_, model, _)| ChurnPool::from_mpe(model))
        .collect();
    let sessions: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(k, pool)| (spec(k), pool.clone()))
        .collect();
    let runtime = Arc::clone(&booted.server.runtime);
    layers::serve_layer(
        &runtime,
        &mut booted.conn,
        &names,
        &requests,
        &sessions,
        Duration::from_secs_f64(seconds * 0.1),
        rng,
        &mut out,
    );
    layers::registry_layer(&compiled, Duration::from_secs_f64(seconds * 0.05), &mut out);
    drop(runtime);
    drop(booted);

    let layer_models: Vec<LayerModel> = compiled
        .iter()
        .enumerate()
        .map(|(k, (_, model, _))| {
            let text = texts[k].1.clone();
            LayerModel {
                model: Arc::clone(model),
                build_tree: Box::new(move || {
                    let parsed = bif::parse(&text).expect("generated BIF parses");
                    evprop_jtree::JunctionTree::from_network(&parsed.network)
                        .expect("network compiles")
                }),
                queries: m
                    .queries
                    .iter()
                    .filter(|(mk, _, _)| *mk == k)
                    .map(|(_, t, e)| (*t, e.clone()))
                    .collect(),
                pool: pools[k].clone(),
            }
        })
        .collect();
    layers::measure(
        &layer_models,
        1,
        Duration::from_secs_f64(seconds * 0.4),
        rng,
        &mut out,
    );
    Ok(out)
}
