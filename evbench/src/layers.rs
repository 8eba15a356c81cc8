//! Per-layer costs, measured in-process by timing calls into each
//! crate's public functions and reading the counters the crates
//! already expose (`ShardState::last_report`, `RuntimeStats`,
//! `plan_stats`, `SessionStats`). Nothing here runs inside the program.
//!
//! Every workload reports every metric, each measured on that
//! workload's own models and queries. Where a workload serves two
//! models, per-query figures are the mean of the per-model medians and
//! per-model figures are summed (the critical path takes the maximum).

use crate::churn::{ChurnPool, Delta, Stream};
use crate::common::{us, RunResult};
use crate::stats::{mean, median};
use evprop_core::{
    CompiledModel, InferenceSession, PooledEngine, Query, SequentialEngine, ShardState,
};
use evprop_incremental::{IncrementalSession, QueryMode};
use evprop_jtree::JunctionTree;
use evprop_potential::{EntryRange, EvidenceSet, PrimitiveKind, VarId};
use evprop_registry::{ModelNames, ModelRegistry};
use evprop_sched::SchedulerConfig;
use evprop_serve::{parse_json, Json, RuntimeConfig, ShardedRuntime};
use evprop_simcore::{CostModel, Policy};
use evprop_taskgraph::TaskKind;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real-thread counts costed for Fig. 7 (the recorded host has 2 cores).
pub const THREADS: [usize; 2] = [1, 2];

/// One served model and the workload's queries against it.
pub struct LayerModel {
    pub model: Arc<CompiledModel>,
    /// Rebuilds the junction tree from the workload's source (BIF text
    /// or tree generator), for `jtree.compile_ms`.
    pub build_tree: Box<dyn Fn() -> JunctionTree>,
    pub queries: Vec<(VarId, EvidenceSet)>,
    /// Findings and targets for session churn on this model.
    pub pool: ChurnPool,
}

/// Runs `f(i)` for `i = 0, 1, …` until `max` samples or the budget is
/// spent (at least one sample), returning the median in µs.
pub fn median_us(budget: Duration, max: usize, mut f: impl FnMut(usize) -> Duration) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0..max.max(1) {
        samples.push(us(f(i)));
        if start.elapsed() >= budget {
            break;
        }
    }
    median(&samples)
}

/// Medians of the `queue_us` and `exec_us` fields of timed responses.
pub fn timing_fields(responses: &[String]) -> Result<(f64, f64), String> {
    let mut queue = Vec::new();
    let mut exec = Vec::new();
    for line in responses {
        let json = parse_json(line)?;
        if let (Some(Json::Num(q)), Some(Json::Num(e))) =
            (json.get("queue_us"), json.get("exec_us"))
        {
            queue.push(*q);
            exec.push(*e);
        }
    }
    if queue.is_empty() {
        return Err("no timed responses".to_string());
    }
    Ok((median(&queue), median(&exec)))
}

/// One request of a workload as the serving layer sees it.
pub struct ServeRequest {
    /// Index into the names list.
    pub model: usize,
    /// The `"model"` field, if the request names one.
    pub spec: Option<&'static str>,
    pub line: String,
    pub target: VarId,
    pub evidence: EvidenceSet,
}

/// `serve.*` costs that need a live server: protocol parse/format,
/// the in-process runtime round trip, the TCP share of a round trip,
/// and a session step through the runtime.
#[allow(clippy::too_many_arguments)]
pub fn serve_layer(
    runtime: &ShardedRuntime,
    conn: &mut crate::net::Conn,
    names: &[Arc<dyn ModelNames + Send + Sync>],
    requests: &[ServeRequest],
    sessions: &[(Option<&'static str>, ChurnPool)],
    budget: Duration,
    rng: &mut impl rand::Rng,
    out: &mut RunResult,
) {
    let slice = budget / 5;
    let n = requests.len();
    // Each query in-process, then the same query over TCP: the paired
    // difference cancels the propagation's own variation.
    let mut runtime_us = Vec::new();
    let mut tcp_us = Vec::new();
    let start = Instant::now();
    for r in requests.iter().cycle().take(4 * n) {
        let t0 = Instant::now();
        runtime
            .submit_model(Query::new(r.target, r.evidence.clone()), r.spec)
            .and_then(|t| t.wait())
            .expect("in-process query answers");
        let t1 = Instant::now();
        conn.round_trip(&r.line).expect("TCP query answers");
        let t2 = Instant::now();
        runtime_us.push(us(t1 - t0));
        tcp_us.push(us(t2 - t1) - us(t1 - t0));
        if start.elapsed() >= 2 * slice {
            break;
        }
    }
    let parse_us = median_us(slice / 4, n, |i| {
        let r = &requests[i];
        let t0 = Instant::now();
        let parsed = evprop_serve::parse_request_line(&r.line, names[r.model].as_ref());
        let d = t0.elapsed();
        assert!(parsed.is_ok(), "benchmark requests parse");
        d
    });
    let answers: Vec<_> = requests
        .iter()
        .take(16)
        .map(|r| {
            runtime
                .submit_model(Query::new(r.target, r.evidence.clone()), r.spec)
                .and_then(|t| t.wait())
                .expect("in-process query answers")
        })
        .collect();
    let format_us = median_us(slice / 4, 4 * n, |i| {
        let k = i % answers.len();
        let r = &requests[k];
        let t0 = Instant::now();
        black_box(evprop_serve::format_response(
            names[r.model].as_ref(),
            r.target,
            &answers[k],
        ));
        t0.elapsed()
    });
    let mut session_us = Vec::new();
    for (spec, pool) in sessions {
        let stream = Stream::new(pool, 16, rng);
        let (id, _) = runtime.session_open_model(*spec).expect("session opens");
        for &(v, s) in &stream.base {
            runtime.session_set(id, v, s).expect("feasible finding");
        }
        runtime
            .session_query(id, stream.steps[0].target)
            .expect("feasible evidence");
        session_us.push(median_us(
            slice / sessions.len() as u32,
            stream.steps.len(),
            |i| {
                let step = stream.steps[i];
                let t0 = Instant::now();
                match step.delta {
                    Delta::Set(v, s) => runtime.session_set(id, v, s).expect("feasible finding"),
                    Delta::Retract(v) => {
                        runtime.session_retract(id, v).expect("open session");
                    }
                }
                runtime
                    .session_query(id, step.target)
                    .expect("feasible evidence");
                t0.elapsed()
            },
        ));
        runtime.session_close(id).expect("session closes");
    }
    let stats = runtime.stats();
    let served: u64 = stats.shards.iter().map(|s| s.served).sum();
    let batches: u64 = stats.shards.iter().map(|s| s.batches).sum();
    out.push("serve.parse_us", parse_us, "us");
    out.push("serve.format_us", format_us, "us");
    out.push("serve.runtime_us", median(&runtime_us), "us");
    out.push("serve.tcp_us", median(&tcp_us), "us");
    out.push(
        "serve.batch_mean",
        served as f64 / batches.max(1) as f64,
        "count",
    );
    out.push(
        "serve.queue_high_water",
        stats.queue_high_water as f64,
        "count",
    );
    out.push("serve.session_us", mean(&session_us), "us");
}

/// `registry.*`: installing the workload's models (warmup included)
/// into a fresh registry, and resolving them there.
pub fn registry_layer(
    models: &[(
        &'static str,
        Arc<CompiledModel>,
        Arc<dyn ModelNames + Send + Sync>,
    )],
    budget: Duration,
    out: &mut RunResult,
) {
    let registry = ModelRegistry::new();
    let install_us = median_us(budget / 2, 16, |_| {
        let fresh = ModelRegistry::new();
        let t0 = Instant::now();
        for (name, model, names) in models {
            fresh
                .install(name, Arc::clone(model), Arc::clone(names))
                .expect("model installs");
        }
        t0.elapsed()
    });
    for (name, model, names) in models {
        registry
            .install(name, Arc::clone(model), Arc::clone(names))
            .expect("model installs");
    }
    let resolve_us = median_us(budget / 2, 1024, |i| {
        let name = models[i % models.len()].0;
        let t0 = Instant::now();
        black_box(registry.resolve(name).expect("installed"));
        t0.elapsed()
    });
    out.push("registry.resolve_us", resolve_us, "us");
    out.push("registry.install_ms", install_us / 1e3, "ms");
}

/// The kernels, tree, task graph, scheduler, engines, simulator and
/// incremental sessions, costed on `models` with the server's
/// `threads` per shard.
pub fn measure(
    models: &[LayerModel],
    threads: usize,
    budget: Duration,
    rng: &mut impl rand::Rng,
    out: &mut RunResult,
) {
    let share = |f: f64| budget.mul_f64(f / models.len() as f64);
    potential_layer(models, share(0.15), out);
    jtree_layer(models, share(0.1), out);

    // Fresh compile, then the first (plan-interning) propagation.
    let warm_ms: f64 = models
        .iter()
        .map(|m| {
            let model = CompiledModel::from_junction_tree((m.build_tree)());
            let shard = ShardState::new(SchedulerConfig::with_threads(threads));
            let (target, ev) = &m.queries[0];
            let t0 = Instant::now();
            shard
                .posterior(model.junction_tree(), model.graph(), *target, ev)
                .expect("workload query answers");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .sum();
    out.push(
        "taskgraph.tasks",
        models
            .iter()
            .map(|m| m.model.graph().num_tasks())
            .sum::<usize>() as f64,
        "count",
    );
    out.push(
        "taskgraph.plans_interned",
        models
            .iter()
            .map(|m| m.model.plan_stats().interned)
            .sum::<u64>() as f64,
        "count",
    );
    out.push("taskgraph.warm_ms", warm_ms, "ms");

    sched_layer(models, threads, share(0.15), out);
    core_layer(models, share(0.3), out);
    incremental_layer(models, threads, share(0.2), rng, out);
}

fn potential_layer(models: &[LayerModel], budget: Duration, out: &mut RunResult) {
    let kinds = [
        (PrimitiveKind::Marginalize, "potential.marg_ns_per_entry"),
        (PrimitiveKind::Extend, "potential.extend_ns_per_entry"),
        (PrimitiveKind::Multiply, "potential.mul_ns_per_entry"),
        (PrimitiveKind::Divide, "potential.div_ns_per_entry"),
    ];
    let mut per_kind = vec![Vec::new(); kinds.len()];
    for m in models {
        let g = m.model.graph();
        let biggest = g
            .buffers()
            .iter()
            .map(|b| b.domain.size())
            .max()
            .unwrap_or(1);
        let big: Vec<f64> = (0..biggest).map(|i| 0.1 + (i % 97) as f64 / 97.0).collect();
        let mut scratch = vec![0.0f64; biggest];
        let mut scratch2 = vec![1.0f64; biggest];
        for (k, &(kind, _)) in kinds.iter().enumerate() {
            let tasks: Vec<usize> = (0..g.num_tasks())
                .filter(|&t| g.tasks()[t].kind.primitive() == kind)
                .collect();
            let entries: usize = tasks
                .iter()
                .map(|&t| g.partition_len(evprop_taskgraph::TaskId(t)))
                .sum();
            if entries == 0 {
                continue;
            }
            let plans: Vec<_> = tasks
                .iter()
                .map(|&t| {
                    let id = evprop_taskgraph::TaskId(t);
                    let len = g.partition_len(id);
                    let src_len = match g.tasks()[t].kind {
                        TaskKind::Marginalize { dst, .. } => g.buffers()[dst.index()].domain.size(),
                        TaskKind::Extend { src, .. } | TaskKind::Multiply { src, .. } => {
                            g.buffers()[src.index()].domain.size()
                        }
                        TaskKind::Divide { .. } => len,
                    };
                    (g.task_plan(id), len, src_len)
                })
                .collect();
            let ns = median_us(budget / kinds.len() as u32, 10_000, |_| {
                let t0 = Instant::now();
                for (plan, len, other) in &plans {
                    match (kind, plan) {
                        (PrimitiveKind::Marginalize, Some(p)) => {
                            let dst = &mut scratch[..*other];
                            dst.fill(0.0);
                            p.marginalize_sum_into(&big[..*len], dst)
                                .expect("shapes match");
                        }
                        (PrimitiveKind::Extend, Some(p)) => {
                            p.extend_into(&big[..*other], &mut scratch[..*len])
                                .expect("shapes match");
                        }
                        (PrimitiveKind::Multiply, Some(p)) => {
                            let dst = &mut scratch2[..*len];
                            dst.fill(1.0);
                            p.multiply_into(&big[..*other], dst).expect("shapes match");
                        }
                        _ => {
                            evprop_potential::plan::divide_planned(
                                &big[..*len],
                                &scratch2[..*len],
                                EntryRange::full(*len),
                                &mut scratch[..*len],
                            )
                            .expect("shapes match");
                        }
                    }
                }
                black_box(&scratch);
                t0.elapsed()
            }) * 1e3
                / entries as f64;
            per_kind[k].push(ns);
        }
    }
    for (k, (_, name)) in kinds.iter().enumerate() {
        out.push(*name, mean(&per_kind[k]), "ns");
    }
    // Computed, not measured: every buffer each task reads or writes,
    // once per propagation.
    let bytes: Vec<f64> = models
        .iter()
        .map(|m| {
            let g = m.model.graph();
            g.tasks()
                .iter()
                .map(|t| {
                    let size = |b: evprop_taskgraph::BufferId| g.buffers()[b.index()].domain.size();
                    (t.kind.reads().into_iter().map(size).sum::<usize>() + size(t.kind.dst())) * 8
                })
                .sum::<usize>() as f64
        })
        .collect();
    out.push("potential.bytes_per_prop", mean(&bytes), "bytes");
}

fn jtree_layer(models: &[LayerModel], budget: Duration, out: &mut RunResult) {
    let mut compile_ms = 0.0;
    let mut reroot_us = 0.0;
    for m in models {
        compile_ms += median_us(budget / 2, 16, |_| {
            let t0 = Instant::now();
            black_box((m.build_tree)());
            t0.elapsed()
        }) / 1e3;
        let tree = (m.build_tree)();
        reroot_us += median_us(budget / 2, 64, |_| {
            let mut jt = tree.clone();
            let t0 = Instant::now();
            let choice = evprop_jtree::select_root(jt.shape());
            jt.reroot(choice.root).expect("in-range root");
            let d = t0.elapsed();
            black_box(jt);
            d
        });
    }
    let critical = models
        .iter()
        .map(|m| m.model.root_choice().critical_path)
        .max()
        .unwrap_or(0);
    out.push("jtree.compile_ms", compile_ms, "ms");
    out.push("jtree.reroot_us", reroot_us, "us");
    out.push("jtree.critical_path", critical as f64, "count");
}

/// One pool job at a time on a shard with the server's thread count:
/// arena checkout + evidence reset, the job, and the marginal readout.
fn sched_layer(models: &[LayerModel], threads: usize, budget: Duration, out: &mut RunResult) {
    let mut job_ms = Vec::new();
    let mut checkout_us = Vec::new();
    let mut marginal_us = Vec::new();
    let (mut busy, mut overhead, mut spin) = (0.0, 0.0, 0.0);
    let (mut imbalance, mut subtasks, mut steals, mut jobs) = (0.0, 0.0, 0.0, 0usize);
    for m in models {
        let shard = ShardState::new(SchedulerConfig::with_threads(threads));
        let jt = m.model.junction_tree();
        let g = m.model.graph();
        // Warm: cold arena allocation and plan compilation are set-up.
        shard
            .posterior(jt, g, m.queries[0].0, &m.queries[0].1)
            .expect("workload query answers");
        let (mut jm, mut cu, mut mu) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        for (i, (target, ev)) in m.queries.iter().cycle().enumerate() {
            let t0 = Instant::now();
            let mut arena = shard.checkout(g, jt.potentials());
            arena.reset(g, jt.potentials(), ev);
            let t1 = Instant::now();
            shard.run_job(g, &arena).expect("job runs");
            let t2 = Instant::now();
            let buf = g
                .clique_buffer_containing(*target)
                .expect("target is in the tree");
            let table = &arena.tables_mut()[buf.index()];
            let mut marginal = table
                .marginalize(&table.domain().project(&[*target]))
                .expect("projection is a subdomain");
            marginal.normalize();
            let t3 = Instant::now();
            black_box(marginal);
            shard.recycle(arena);
            cu.push(us(t1 - t0));
            jm.push((t2 - t1).as_secs_f64() * 1e3);
            mu.push(us(t3 - t2));
            let report = shard.last_report().expect("a job ran");
            let b: f64 = report.threads.iter().map(|t| t.busy.as_secs_f64()).sum();
            let o: f64 = report
                .threads
                .iter()
                .map(|t| t.overhead.as_secs_f64())
                .sum();
            let total = (b + o).max(1e-12);
            busy += b / total;
            overhead += o / total;
            spin += report.total_idle_spin().as_secs_f64() / total;
            imbalance += report.imbalance();
            subtasks += report.subtasks_spawned as f64;
            steals += report.total_steals() as f64;
            jobs += 1;
            if i + 1 >= 4096 || start.elapsed() >= budget {
                break;
            }
        }
        job_ms.push(median(&jm));
        checkout_us.push(median(&cu));
        marginal_us.push(median(&mu));
    }
    let per_job = |x: f64| x / jobs.max(1) as f64;
    out.push("sched.job_ms", mean(&job_ms), "ms");
    out.push("sched.busy_frac", per_job(busy), "1");
    out.push("sched.overhead_frac", per_job(overhead), "1");
    out.push("sched.idle_spin_frac", per_job(spin), "1");
    out.push("sched.imbalance", per_job(imbalance), "x");
    out.push("sched.subtasks", per_job(subtasks), "count");
    out.push("sched.steals", per_job(steals), "count");
    out.push("core.checkout_us", mean(&checkout_us), "us");
    out.push("core.marginal_us", mean(&marginal_us), "us");
}

/// The honest Fig. 7 rows: sequential, pooled at each thread count,
/// real speedup, and the simulator's prediction for the same DAG.
fn core_layer(models: &[LayerModel], budget: Duration, out: &mut RunResult) {
    let slice = budget / (1 + THREADS.len() as u32);
    let seq: Vec<f64> = models
        .iter()
        .map(|m| {
            let session = InferenceSession::from_model(Arc::clone(&m.model));
            median_us(slice, 4096, |i| {
                let (target, ev) = &m.queries[i % m.queries.len()];
                let t0 = Instant::now();
                black_box(
                    session
                        .posterior(&SequentialEngine, *target, ev)
                        .expect("workload query answers"),
                );
                t0.elapsed()
            }) / 1e3
        })
        .collect();
    out.push("core.seq_ms", mean(&seq), "ms");
    let mut pooled = Vec::new();
    for &t in &THREADS {
        let per_model: Vec<f64> = models
            .iter()
            .map(|m| {
                let engine = PooledEngine::new(SchedulerConfig::with_threads(t));
                let jt = m.model.junction_tree();
                let g = m.model.graph();
                engine
                    .posterior(jt, g, m.queries[0].0, &m.queries[0].1)
                    .expect("workload query answers");
                median_us(slice, 4096, |i| {
                    let (target, ev) = &m.queries[i % m.queries.len()];
                    let t0 = Instant::now();
                    black_box(engine.posterior(jt, g, *target, ev).expect("answers"));
                    t0.elapsed()
                }) / 1e3
            })
            .collect();
        let ms = mean(&per_model);
        out.push(format!("core.pooled_ms.t{t}"), ms, "ms");
        pooled.push(ms);
    }
    for (i, &t) in THREADS.iter().enumerate().skip(1) {
        let real = pooled[0] / pooled[i];
        let predicted = mean(
            &models
                .iter()
                .map(|m| {
                    evprop_simcore::speedup(
                        m.model.graph(),
                        Policy::Collaborative {
                            // The servers' δ, so the simulator replays
                            // the same DAG split.
                            delta: RuntimeConfig::new(1, t).delta.map(|d| d as u64),
                            work_stealing: false,
                        },
                        t,
                        &CostModel::default(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        out.push(format!("core.speedup.t{t}"), real, "x");
        out.push(format!("simcore.speedup.t{t}"), predicted, "x");
        out.push(format!("core.speedup_gap.t{t}"), predicted / real, "x");
    }
}

/// Churn steps on an `IncrementalSession` driven directly.
fn incremental_layer(
    models: &[LayerModel],
    threads: usize,
    budget: Duration,
    rng: &mut impl rand::Rng,
    out: &mut RunResult,
) {
    let mut step_us = Vec::new();
    let (mut queries, mut sliced, mut zero_sep) = (0u64, 0u64, 0u64);
    let (mut dirty, mut slice_tasks) = (Vec::new(), Vec::new());
    for m in models {
        let stream = Stream::new(&m.pool, 32, rng);
        let shard = ShardState::new(SchedulerConfig::with_threads(threads));
        let mut session = IncrementalSession::new(Arc::clone(&m.model));
        for &(v, s) in &stream.base {
            session.observe(v, s).expect("feasible finding");
        }
        session
            .query(&shard, stream.steps[0].target)
            .expect("feasible evidence");
        let mut times = Vec::new();
        let start = Instant::now();
        for (i, step) in stream.steps.iter().cycle().enumerate() {
            let t0 = Instant::now();
            match step.delta {
                Delta::Set(v, s) => session.observe(v, s).expect("feasible finding"),
                Delta::Retract(v) => {
                    session.retract(v);
                }
            }
            let (_, mode) = session
                .query(&shard, step.target)
                .expect("feasible evidence");
            times.push(us(t0.elapsed()));
            if let QueryMode::Incremental { dirty_cliques, .. } = mode {
                dirty.push(dirty_cliques as f64);
                if let Some(report) = shard.last_report() {
                    slice_tasks.push(
                        report
                            .threads
                            .iter()
                            .map(|t| t.tasks_executed)
                            .sum::<usize>() as f64,
                    );
                }
            }
            if i + 1 >= 4 * stream.steps.len() || start.elapsed() >= budget {
                break;
            }
        }
        let stats = session.stats();
        queries += stats.queries;
        sliced += stats.incremental;
        zero_sep += stats.full_zero_separator;
        step_us.push(median(&times));
    }
    out.push("taskgraph.slice_tasks", mean(&slice_tasks), "count");
    out.push("incremental.step_us", mean(&step_us), "us");
    out.push(
        "incremental.slice_ratio",
        sliced as f64 / queries.max(1) as f64,
        "1",
    );
    out.push("incremental.full_zero_sep", zero_sep as f64, "count");
    out.push("incremental.dirty_mean", mean(&dirty), "count");
}
