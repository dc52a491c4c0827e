//! The traced run: one job driven through the public pipeline with a span
//! around every call into a layer.
//!
//! The steps mirror what `EFindRuntime::run` does for a fixed-plan mode:
//! `plans_for` → `compile_pipeline` → per MapReduce job `Runner::chunks`,
//! `execute_maps`, `finish`. Layers the benchmark cannot interpose on are
//! timed as *probes*: the same public function re-run on the same inputs
//! outside its parent step (DFS chunk reads before `execute_maps`; the map
//! schedule, partitioning, reduce execution and reduce schedule before
//! `finish`). A probe's wall time is extra work, so it is excluded from the
//! traced job time and subtracted from its parent's self time instead.

use std::sync::atomic::{AtomicUsize, Ordering};

use efind::analysis::analyze_job_in_env;
use efind::compile::{compile_pipeline, RuntimeEnv};
use efind::statsx::extract_operator_stats;
use efind::{
    fingerprint_operator, fingerprint_plan, EFindJobResult, EFindRuntime, IndexJobConf, MeasuredOp,
    Mode, OperatorPlan,
};
use efind_cluster::sched::{schedule_phase_chaos, schedule_phase_gray};
use efind_cluster::{SimTime, TaskSpec};
use efind_common::{Error, FxHashMap, Result};
use efind_dfs::{ChunkMeta, Dfs};
use efind_mapreduce::{JobStats, Runner};

use crate::measure::trim_heap;
use crate::trace::{SpanKind, Tracer};
use crate::workload::{workers, Workload};

/// Mirrors the runtime's private environment derivation: the constants
/// and injection plans compiled stages need.
fn runtime_env(rt: &EFindRuntime<'_>) -> RuntimeEnv {
    let c = &rt.config;
    RuntimeEnv {
        network: rt.cluster.network,
        t_cache: c.t_cache,
        cache_capacity: c.cache_capacity,
        shuffle_reducers: c
            .shuffle_reducers
            .unwrap_or_else(|| rt.cluster.total_reduce_slots()),
        intermediate_chunks: rt.cluster.total_map_slots() * 2,
        hard_colocation: c.hard_colocation,
        faults: c.faults.clone(),
        corruption: c.corruption.clone(),
        dfs_replication: rt.dfs.config().replication,
        chaos: c.chaos.clone(),
        cluster_nodes: rt.cluster.num_nodes() as usize,
        netsplit: c.netsplit.clone(),
        detector: c.detector,
        hedge: c.hedge,
        measured: Vec::new(),
        tenancy: c.tenancy.clone(),
        tenant: c.tenant.clone(),
    }
}

/// The measured-stats injections `Mode::Optimized` hands the analyzer:
/// operators planned from store history, with their EF023 probe costs.
fn measured_ops(rt: &EFindRuntime<'_>, ijob: &IndexJobConf, mode: &Mode) -> Vec<MeasuredOp> {
    if !matches!(mode, Mode::Optimized) {
        return Vec::new();
    }
    let env = rt.cost_env();
    let mut out = Vec::new();
    for (bound, placement) in ijob.operators() {
        if bound.volatile {
            continue;
        }
        let Some((shape, mut stats)) = rt.measured_for(bound, placement) else {
            continue;
        };
        for (j, (_, scheme)) in bound.caps().iter().enumerate() {
            if let Some(idx) = stats.indices.get_mut(j) {
                idx.has_partition_scheme = *scheme;
            }
        }
        out.push(MeasuredOp::probe(
            bound.op.name(),
            shape,
            &stats,
            &env,
            placement,
        ));
    }
    out
}

/// Mirrors the runtime's private job-boundary statistics sink: merged
/// counters and sketches feed the catalog and, when a store is attached,
/// one record per observed operator keyed by its shape fingerprint.
fn absorb(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    jobs: &[JobStats],
    plans: &FxHashMap<String, OperatorPlan>,
) {
    let (counters, sketches) = JobStats::merged(jobs);
    rt.catalog.absorb(&counters, &sketches, &ijob.descriptors());
    let Some(store) = rt.store.as_mut() else {
        return;
    };
    for (bound, placement) in ijob.operators() {
        if let Some(stats) = extract_operator_stats(&counters, &sketches, &bound.descriptor()) {
            let shape = fingerprint_operator(bound, placement);
            let plan_fp = plans
                .get(bound.op.name())
                .map_or(0, |p| fingerprint_plan(shape, p));
            store.record(shape, plan_fp, stats);
        }
    }
}

/// Reads every chunk the way map tasks do — `workers` threads pulling
/// chunks in order — so the probe's wall time matches the reads' share of
/// the map step.
fn read_chunks(dfs: &Dfs, input: &str, chunks: &[ChunkMeta], workers: usize) -> Result<()> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = chunks.get(i) else {
                        return Ok(());
                    };
                    dfs.read_chunk_shared(input, c.index)?;
                })
            })
            .collect();
        readers
            .into_iter()
            .try_for_each(|r| r.join().expect("chunk reader panicked"))
    })
}

/// Runs one traced job. Spans accumulate in `tracer`; the caller takes
/// them afterwards. Returns the job result, which the caller checks
/// against the untraced runs.
pub fn run_traced(w: &mut Workload, tracer: &Tracer) -> Result<EFindJobResult> {
    w.prepare();
    trim_heap();
    let mode = w.mode.clone();
    let ijob = w.ijob.clone();
    let mut rt = w.runtime();
    let root = tracer.open("job", None);
    tracer.set_hot(true);
    let res = traced_steps(&mut rt, &ijob, &mode, tracer, root);
    tracer.set_hot(false);
    tracer.close(root);
    res
}

fn traced_steps(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    mode: &Mode,
    tracer: &Tracer,
    root: usize,
) -> Result<EFindJobResult> {
    let (_, plans) = tracer.span("core.plan", SpanKind::Step, Some(root), 1, || {
        ijob.validate()?;
        rt.plans_for(ijob, mode)
    });
    let plans = plans?;
    let mut env = runtime_env(rt);
    env.measured = measured_ops(rt, ijob, mode);
    let (check, report) = tracer.span("analyze.check", SpanKind::Probe, None, 1, || {
        analyze_job_in_env(ijob, &plans, &env)
    });
    report?;
    let (compile, compiled) = tracer.span("core.compile", SpanKind::Step, Some(root), 1, || {
        let compiled = compile_pipeline(ijob, &plans, &env)?;
        for warning in compiled.analysis.warnings() {
            eprintln!("efind: {warning}");
        }
        Ok::<_, Error>(compiled)
    });
    tracer.adopt(check, compile);
    let compiled = compiled?;

    let config = rt.config.clone();
    let cluster = rt.cluster;
    let mut t = SimTime::ZERO;
    let mut jobs = Vec::with_capacity(compiled.jobs.len());
    let mut output = None;
    for conf in &compiled.jobs {
        let mut runner = Runner::with_chaos(cluster, rt.dfs, config.chaos.clone())
            .with_corruption(config.corruption.clone())
            .with_netsplit(config.netsplit.clone(), config.detector);
        let (_, chunks) = tracer.span("dfs.stat", SpanKind::Step, Some(root), 1, || {
            runner.chunks(conf)
        });
        let chunks = chunks?;
        let map_workers = workers(chunks.len());
        let (read, ok) = tracer.span("dfs.read", SpanKind::Probe, None, map_workers, || {
            read_chunks(runner.dfs, &conf.input, &chunks, map_workers)
        });
        ok?;
        let (map, exec) = tracer.span(
            "mapreduce.map",
            SpanKind::Step,
            Some(root),
            map_workers,
            || runner.execute_maps(conf, &chunks, 0),
        );
        tracer.adopt(read, map);
        let mut exec = exec?;

        let mut probes = Vec::new();
        let (id, map_schedule) = tracer.span("cluster.sched", SpanKind::Probe, None, 1, || {
            runner.schedule_maps(&exec, t)
        });
        probes.push(id);
        if conf.has_reduce() {
            let (id, sources) = tracer.span("probe.copy", SpanKind::Excluded, None, 1, || {
                exec.tasks
                    .iter()
                    .map(|task| task.output.clone())
                    .collect::<Vec<_>>()
            });
            probes.push(id);
            let (id, (partitions, _)) =
                tracer.span("mapreduce.partition", SpanKind::Probe, None, 1, || {
                    runner.partition_for_reduce(conf, sources)
                });
            probes.push(id);
            let reduce_workers = workers(partitions.len());
            let (id, execs) = tracer.span(
                "mapreduce.reduce",
                SpanKind::Probe,
                None,
                reduce_workers,
                || {
                    runner.execute_reduce_partitions_owned(
                        conf,
                        partitions.into_iter().enumerate().collect(),
                    )
                },
            );
            probes.push(id);
            let (id, specs) = tracer.span("probe.drop", SpanKind::Excluded, None, 1, || {
                execs.map(|execs| execs.into_iter().map(|e| e.spec).collect::<Vec<TaskSpec>>())
            });
            probes.push(id);
            let specs = specs?;
            // Mirrors the runner's private phase scheduler: the gray replay
            // only when the partition layer is armed.
            let gray = runner.profile().partition.is_armed();
            let (id, _) = tracer.span("cluster.sched", SpanKind::Probe, None, 1, || {
                if gray {
                    schedule_phase_gray(
                        cluster,
                        &specs,
                        map_schedule.makespan,
                        runner.chaos(),
                        runner.netsplit(),
                        runner.detector(),
                    )
                } else {
                    schedule_phase_chaos(cluster, &specs, map_schedule.makespan, runner.chaos())
                }
            });
            probes.push(id);
        }
        // Work inside `finish` is attributed through the probes above; the
        // wrappers stay quiet so it is not counted twice.
        tracer.set_hot(false);
        let (finish, res) = tracer.span("mapreduce.finish", SpanKind::Step, Some(root), 1, || {
            runner.finish(conf, &mut exec, t)
        });
        tracer.set_hot(true);
        for id in probes {
            tracer.adopt(id, finish);
        }
        let res = res?;
        t = res.stats.finished;
        jobs.push(res.stats);
        output = Some(res.output);
    }
    tracer.span("core.absorb", SpanKind::Step, Some(root), 1, || {
        absorb(rt, ijob, &jobs, &plans)
    });
    tracer.span("mapreduce.finish", SpanKind::Step, Some(root), 1, || {
        if !config.keep_intermediates {
            for tmp in &compiled.temp_files {
                rt.dfs.delete(tmp);
            }
        }
    });
    let output = output.ok_or_else(|| Error::Internal("pipeline produced no jobs".into()))?;
    Ok(EFindJobResult {
        output,
        total_time: t.since(SimTime::ZERO),
        jobs,
        plans: plans.into_iter().collect(),
        replanned: false,
    })
}
