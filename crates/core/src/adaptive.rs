//! Adaptive optimization (§4, Algorithm 1, Figs. 9–10).
//!
//! `Dynamic` mode starts a job with the baseline plan and no statistics.
//! When the first map wave completes (one task per map slot — the natural
//! statistics checkpoint the paper exploits), the runtime:
//!
//! 1. gates on cross-task variance of the collected statistics
//!    (Algorithm 1 lines 1–3),
//! 2. extracts operator statistics from the wave's counters and FM
//!    sketches, scaled to the remaining input,
//! 3. re-optimizes the map-side operators (line 5–6: operators at the
//!    reduce phase are ignored because their statistics do not exist yet),
//! 4. switches plans only if the predicted improvement exceeds the
//!    plan-change overhead (line 10).
//!
//! On a plan change, the completed wave's map outputs are *reused*: the
//! remaining input splits flow through the new plan's job chain, and the
//! final job's reduce consumes both the new plan's map outputs and the
//! wave-1 outputs — exactly the merge of Fig. 10(a). The plan changes at
//! most once per job.
//!
//! Every sub-step — wave execution, scheduling, the merged reduce, the
//! split reduce phase of Fig. 10(b), and the re-planned sub-jobs — runs
//! through the runtime's one [`Runner`](efind_mapreduce::Runner) and
//! finishes through its one job tail, so every runner-visible layer of
//! the configuration (node crashes, corruption, partitions and the
//! failure detector) applies to a dynamic job exactly as to a static one.

use efind_cluster::{SimDuration, SimTime};
use efind_common::{Error, FxHashMap, Record, Result};
use efind_mapreduce::{
    Counters, JobConf, JobResult, JobStats, MapPhaseExec, RecoveryLog, Sketches, TaskStats,
};

use crate::compile::compile_pipeline;
use crate::cost::cost_baseline;
use crate::jobconf::IndexJobConf;
use crate::plan::{forced_plan, optimize_operator, OperatorPlan, Strategy};
use crate::runtime::{EFindJobResult, EFindRuntime};
use crate::statsx::{extract_operator_stats, variance_ok};

/// Computes warm-start plans from the attached store's measured history.
///
/// Returns `None` — meaning "run the full adaptive protocol" — when no
/// store is attached, the store is empty, or any indexed, non-volatile
/// operator lacks a matching fingerprint. Volatile and index-less
/// operators take the baseline plan (as every mode forces), and an
/// operator whose history shows a failing index is pinned to baseline by
/// the same degradation gate the mid-job pass applies.
fn warm_start_plans(
    rt: &EFindRuntime<'_>,
    ijob: &IndexJobConf,
) -> Option<(
    FxHashMap<String, OperatorPlan>,
    Vec<crate::statstore::MeasuredOp>,
)> {
    let store = rt.store.as_ref()?;
    if store.is_empty() {
        return None;
    }
    let env = rt.cost_env();
    let degrade = rt.config.faults.degrade_threshold();
    let mut plans = FxHashMap::default();
    let mut measured = Vec::new();
    for (bound, placement) in ijob.operators() {
        let name = bound.op.name().to_owned();
        if bound.volatile || bound.indices.is_empty() {
            plans.insert(name, forced_plan(&bound.caps(), Strategy::Baseline));
            continue;
        }
        let (shape, mut stats) = rt.measured_for(bound, placement)?;
        // Partition-scheme availability is structural — refresh it from
        // the bound accessors, as every planning path does.
        for (j, (_, scheme)) in bound.caps().iter().enumerate() {
            if let Some(idx) = stats.indices.get_mut(j) {
                idx.has_partition_scheme = *scheme;
            }
        }
        if stats.indices.iter().any(|i| i.failure_rate > degrade) {
            plans.insert(name, forced_plan(&bound.caps(), Strategy::Baseline));
            continue;
        }
        let plan = optimize_operator(&stats, &env, placement, rt.config.enumeration);
        measured.push(crate::statstore::MeasuredOp::probe(
            &name, shape, &stats, &env, placement,
        ));
        plans.insert(name, plan);
    }
    Some((plans, measured))
}

/// Runs an enhanced job in dynamic (adaptive) mode.
pub(crate) fn run_dynamic(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
) -> Result<EFindJobResult> {
    let baseline_plans: FxHashMap<String, OperatorPlan> = ijob
        .operators()
        .map(|(b, _)| {
            (
                b.op.name().to_owned(),
                forced_plan(&b.caps(), Strategy::Baseline),
            )
        })
        .collect();

    // Without any operators there is nothing to re-plan at all; run the
    // baseline plan statically (statistics still collected). Jobs with
    // only tail operators still flow through the main path so the
    // reduce-phase branch of Algorithm 1 gets its chance.
    if ijob.head.is_empty() && ijob.body.is_empty() && ijob.tail.is_empty() {
        return rt.run_with_plans(ijob, baseline_plans, false);
    }

    // A mid-job plan change reuses the completed wave's outputs, which is
    // only sound when every lookup is a pure function of its key (§3.2).
    // A non-deterministic accessor (EF012, warned at compile time) thus
    // statically disables adaptive re-optimization: the job runs its
    // baseline plan end to end.
    if crate::analysis::has_nondeterministic_accessor(ijob) {
        return rt.run_with_plans(ijob, baseline_plans, false);
    }

    // Warm start from the cross-job store: when *every* indexed,
    // non-volatile operator has measured history for its fingerprint, the
    // winning plans are computed up front and the job runs statically —
    // no statistics wave, no mid-job replan. Any missing fingerprint
    // falls through to the full adaptive run below (a partial warm start
    // would skip the statistics wave the cold operators still need).
    if let Some((plans, measured)) = warm_start_plans(rt, ijob) {
        return rt.run_with_plans_measured(ijob, plans, false, measured);
    }

    let compiled = compile_pipeline(ijob, &baseline_plans, &rt.runtime_env())?;
    debug_assert_eq!(
        compiled.jobs.len(),
        1,
        "the baseline plan never inserts shuffle jobs"
    );
    let conf = compiled
        .jobs
        .into_iter()
        .next()
        .ok_or_else(|| Error::Internal("empty compiled pipeline".into()))?;

    let chunks = rt.runner().chunks(&conf)?;
    // When the whole map phase fits one wave there is no map-side
    // remainder to re-plan (remaining_in = 0 disables that branch), but
    // the reduce-phase branch below still applies.
    let wave_n = rt.runner().first_wave_count(chunks.len()).min(chunks.len());

    // ---- Wave 1 under the baseline plan (real execution). ----
    let mut exec1 = rt.runner().execute_maps(&conf, &chunks[..wave_n], 0)?;
    let mut wave_counters = Counters::new();
    let mut wave_sketches = Sketches::new();
    for t in &exec1.tasks {
        wave_counters.merge(&t.stats.counters);
        wave_sketches.merge(&t.stats.sketches);
    }
    let task_refs: Vec<&TaskStats> = exec1.tasks.iter().map(|t| &t.stats).collect();

    // ---- Algorithm 1: re-optimize map-side operators. ----
    let env = rt.cost_env();
    let wave_in: u64 = exec1.tasks.iter().map(|t| t.stats.input_records).sum();
    let total_in: u64 = chunks.iter().map(|c| c.records as u64).sum();
    let remaining_in = total_in.saturating_sub(wave_in);

    let mut new_plans = baseline_plans.clone();
    let mut predicted_gain = 0.0f64;
    if wave_in > 0 && remaining_in > 0 {
        for (bound, placement) in ijob
            .head
            .iter()
            .map(|b| (b, crate::cost::Placement::Head))
            .chain(ijob.body.iter().map(|b| (b, crate::cost::Placement::Body)))
        {
            if bound.volatile {
                continue; // §3.2: non-idempotent lookups stay baseline
            }
            let desc = bound.descriptor();
            if !variance_ok(&task_refs, &desc, rt.config.variance_threshold) {
                continue;
            }
            let Some(mut stats) = extract_operator_stats(&wave_counters, &wave_sketches, &desc)
            else {
                continue;
            };
            // Graceful degradation: when wave-1 counters show an index
            // failing or timing out beyond the configured threshold, the
            // operator stays on the baseline plan — committing a shuffle
            // job (or cached reuse) to an index that may be black-holed
            // compounds the damage, and baseline keeps the retry/breaker
            // machinery on the simplest path.
            let degrade = rt.config.faults.degrade_threshold();
            if stats.indices.iter().any(|i| i.failure_rate > degrade) {
                continue;
            }
            // Scale the volume statistic to the remaining input; averages
            // and ratios carry over unchanged.
            stats.n1 *= remaining_in as f64 / wave_in as f64;
            let current: f64 = (0..stats.indices.len())
                .map(|j| cost_baseline(&env, &stats, j))
                .sum();
            let plan = optimize_operator(&stats, &env, placement, rt.config.enumeration);
            if plan.est_cost_secs < current {
                predicted_gain += current - plan.est_cost_secs;
                new_plans.insert(bound.op.name().to_owned(), plan);
            }
        }
    }
    let replan = env.wall_secs(predicted_gain) > rt.config.plan_change_cost_secs;

    if !replan {
        // Continue with the baseline plan map-side: execute the remaining
        // splits. Algorithm 1's else-branch still applies — once the job
        // reaches its reduce phase, the tail operators (whose statistics
        // only exist now) get their own re-optimization chance.
        let exec2 = rt.runner().execute_maps(&conf, &chunks[wave_n..], wave_n)?;
        exec1.tasks.extend(exec2.tasks);
        return finish_reduce_phase(rt, ijob, &conf, exec1, baseline_plans);
    }

    // ---- Plan change (Fig. 10(a)). ----
    // Wave-1 tasks have already run; their elapsed time and outputs are
    // kept. The plan-change overhead models job resubmission.
    let wave_sched = rt.runner().schedule_maps(&exec1, SimTime::ZERO);
    let mut t = wave_sched.makespan + SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);

    // Crash-surviving re-plan: a wave-1 result on a node with a planned
    // death cannot be served to the re-planned job's (much later) reduce —
    // the node-local spill dies with the node. Those tasks are *lost*: the
    // re-plan reuses exactly the surviving results and sends the lost
    // tasks' input splits back through the new plan. The crashes that have
    // struck by now hit the DFS before the re-plan reads its input; later
    // ones strike inside the re-planned jobs. The re-plan's ledger records
    // the reuse split, so reports (and tests) can check the reuse is exact.
    let mut replan_log = RecoveryLog {
        crashed_attempts: wave_sched.crashed_attempts,
        ..RecoveryLog::default()
    };
    let mut lost: Vec<usize> = Vec::new();
    if !rt.config.chaos.is_quiet() {
        for a in &wave_sched.assignments {
            if rt.config.chaos.crash_time(a.node).is_some() {
                lost.push(a.task_id);
            }
        }
        lost.sort_unstable();
        rt.runner()
            .apply_crashes(SimTime::ZERO..=t, &mut replan_log);
        replan_log.lost_tasks = lost.clone();
        replan_log.surviving_tasks = wave_sched
            .assignments
            .iter()
            .map(|a| a.task_id)
            .filter(|id| !lost.contains(id))
            .collect();
        replan_log.surviving_tasks.sort_unstable();
        exec1.tasks.retain(|x| !lost.contains(&x.task_id));
    }

    // The remaining splits — plus the lost wave-1 splits, which must be
    // re-mapped — become the new plan's input (namespace bookkeeping only:
    // no data moves, so no time is charged). Wave-1 task ids equal their
    // chunk indices, and a read whose last replica died with a node fails
    // with a diagnosable `DataLoss` instead of silently dropping input.
    let remaining_name = format!("{}.remaining", ijob.name);
    let mut remaining_records = Vec::new();
    for id in &lost {
        remaining_records.extend_from_slice(rt.dfs.read_chunk(&conf.input, *id)?);
    }
    for chunk in &chunks[wave_n..] {
        remaining_records.extend_from_slice(rt.dfs.read_chunk(&conf.input, chunk.index)?);
    }
    rt.dfs.write_file_with_chunks(
        &remaining_name,
        remaining_records,
        chunks.len() - wave_n + lost.len(),
    );

    let mut ijob2 = ijob.clone();
    ijob2.name = format!("{}-replan", ijob.name);
    ijob2.input = remaining_name.clone();
    debug_assert!(
        crate::analysis::passes(&ijob2, &new_plans),
        "adaptive map-side replan produced an analyzer-rejected plan"
    );
    let compiled2 = compile_pipeline(&ijob2, &new_plans, &rt.runtime_env())?;

    let mut job_stats: Vec<JobStats> = Vec::new();
    let (last, leading) = compiled2
        .jobs
        .split_last()
        .ok_or_else(|| Error::Internal("empty re-planned pipeline".into()))?;
    for conf2 in leading {
        let res = rt.runner().run(conf2, t)?;
        t = res.stats.finished;
        job_stats.push(res.stats);
    }

    // Merge: the final reduce consumes the new plan's map outputs plus the
    // reused wave-1 outputs; a map-only final job appends them to its
    // output instead.
    let mut runner = rt.runner();
    let mut lexec = runner.execute_maps(last, &runner.chunks(last)?, 0)?;
    if last.has_reduce() {
        lexec.reused = exec1.take_outputs();
    }
    let mut res = runner.finish(last, &mut lexec, t)?;
    let stats = &mut res.stats;
    stats.recovery.graft(replan_log, &mut stats.counters);
    let output = if last.has_reduce() {
        res.output
    } else {
        let mut all: Vec<_> = exec1.take_outputs().into_iter().flatten().collect();
        all.extend(rt.dfs.read_file(&ijob.output)?);
        rt.dfs.write_file(&ijob.output, all)
    };
    let total_end = res.stats.finished;
    job_stats.push(res.stats);

    if !rt.config.keep_intermediates {
        for tmp in &compiled2.temp_files {
            rt.dfs.delete(tmp);
        }
        rt.dfs.delete(&remaining_name);
    }

    // Catalog and store: wave-1 statistics plus everything the new plan
    // collected, recorded under the plans that actually executed.
    let mut counters = wave_counters;
    let mut sketches = wave_sketches;
    for j in &job_stats {
        counters.merge(&j.counters);
        sketches.merge(&j.sketches);
    }
    rt.record_observations(ijob, &counters, &sketches, &new_plans);

    Ok(EFindJobResult {
        output,
        total_time: total_end.since(SimTime::ZERO),
        jobs: job_stats,
        plans: new_plans.into_iter().collect(),
        replanned: true,
    })
}

/// The result of a dynamic job that kept its baseline plan end to end.
fn unchanged(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    res: JobResult,
    plans: FxHashMap<String, OperatorPlan>,
) -> EFindJobResult {
    rt.absorb_stats(ijob, std::slice::from_ref(&res.stats), &plans);
    EFindJobResult {
        output: res.output,
        total_time: res.stats.makespan(),
        jobs: vec![res.stats],
        // efind-lint: allow(unordered-iter, map-to-map collect; the destination is keyed and no order survives)
        plans: plans.into_iter().collect(),
        replanned: false,
    }
}

/// Finishes a dynamic job whose map side kept the baseline plan, giving
/// Fig. 10(b) / Algorithm 1's reduce-phase branch its chance: when the
/// job's reduce runs in multiple waves and the tail operators (running
/// baseline inside `reduce_post`) turn out to be worth a shuffle strategy,
/// the completed wave's outputs move to the job output, the remaining
/// reduce tasks run *without* the tail chains, and a re-planned tail
/// pipeline processes their outputs. Otherwise — the preconditions do not
/// hold, or the gain does not cover the plan-change cost — the job
/// finishes under its current plan, reusing the reduce wave already run.
fn finish_reduce_phase(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    conf: &JobConf,
    mut exec: MapPhaseExec,
    baseline_plans: FxHashMap<String, OperatorPlan>,
) -> Result<EFindJobResult> {
    let reduce_slots = rt.cluster.total_reduce_slots();
    if ijob.tail.is_empty() || !conf.has_reduce() || conf.num_reducers <= reduce_slots {
        let res = rt.runner().finish(conf, &mut exec, SimTime::ZERO)?;
        return Ok(unchanged(rt, ijob, res, baseline_plans));
    }

    // Map phase timeline, recovery, and the verified shuffle.
    let mut job = rt.runner().open(conf, &mut exec, SimTime::ZERO)?;
    let partitions = rt.runner().shuffle(conf, &mut job, exec.take_outputs());
    let mut buckets = partitions.into_iter().enumerate();
    let first: Vec<(usize, Vec<Record>)> = buckets.by_ref().take(reduce_slots).collect();
    let rest: Vec<(usize, Vec<Record>)> = buckets.collect();
    let remaining_in: u64 = rest.iter().map(|(_, p)| p.len() as u64).sum();

    // ---- Reduce wave 1 under the current (tail-baseline) plan. ----
    let wave1 = rt.runner().reduce_tasks(conf, &job, first)?;
    let wave_schedule = rt.runner().schedule_reduces(&wave1, job.reduce_start);

    // ---- Re-optimize the tail operators from wave-1 statistics. ----
    let mut wave_counters = Counters::new();
    let mut wave_sketches = Sketches::new();
    for t in &wave1 {
        wave_counters.merge(&t.stats.counters);
        wave_sketches.merge(&t.stats.sketches);
    }
    let task_stats: Vec<&TaskStats> = wave1.iter().map(|t| &t.stats).collect();
    let wave_in: u64 = wave1.iter().map(|t| t.stats.input_records).sum();

    let mut change = false;
    let mut tail_plans: FxHashMap<String, OperatorPlan> = FxHashMap::default();
    if wave_in > 0 && remaining_in > 0 {
        let env = rt.cost_env();
        let mut predicted_gain = 0.0f64;
        for bound in &ijob.tail {
            // Operators skipped by a gate stay on the baseline plan — but
            // the compiled tail pipeline still needs a plan entry for them.
            let fallback = || forced_plan(&bound.caps(), Strategy::Baseline);
            if bound.volatile {
                // §3.2: non-idempotent lookups stay baseline
                tail_plans.insert(bound.op.name().to_owned(), fallback());
                continue;
            }
            let desc = bound.descriptor();
            if !variance_ok(&task_stats, &desc, rt.config.variance_threshold) {
                tail_plans.insert(bound.op.name().to_owned(), fallback());
                continue;
            }
            let Some(mut stats) = extract_operator_stats(&wave_counters, &wave_sketches, &desc)
            else {
                tail_plans.insert(bound.op.name().to_owned(), fallback());
                continue;
            };
            // Same degradation rule as the map-side pass: a failing index
            // keeps its operator on the baseline plan.
            let degrade = rt.config.faults.degrade_threshold();
            if stats.indices.iter().any(|i| i.failure_rate > degrade) {
                tail_plans.insert(bound.op.name().to_owned(), fallback());
                continue;
            }
            stats.n1 *= remaining_in as f64 / wave_in as f64;
            let current: f64 = (0..stats.indices.len())
                .map(|j| cost_baseline(&env, &stats, j))
                .sum();
            let plan = optimize_operator(
                &stats,
                &env,
                crate::cost::Placement::Tail,
                rt.config.enumeration,
            );
            if plan.est_cost_secs < current {
                predicted_gain += current - plan.est_cost_secs;
            }
            tail_plans.insert(bound.op.name().to_owned(), plan);
        }
        // Any beneficial plan (cache or a shuffle strategy) justifies the
        // change: the re-planned tail pipeline runs map-side either way.
        let improved = tail_plans
            .values()
            .any(|p| p.choices.iter().any(|c| c.strategy != Strategy::Baseline));
        change = env.wall_secs(predicted_gain) > rt.config.plan_change_cost_secs && improved;
    }

    if !change {
        // No plan change: the remaining reduce tasks run under the current
        // plan and the whole reduce phase is scheduled as one uninterrupted
        // phase — wave 1 is not executed again.
        let mut tasks = wave1;
        tasks.extend(rt.runner().reduce_tasks(conf, &job, rest)?);
        let mut runner = rt.runner();
        let schedule = runner.schedule_reduces(&tasks, job.reduce_start);
        let res = runner.close(conf, job, Some((tasks, schedule)), Vec::new());
        return Ok(unchanged(rt, ijob, res, baseline_plans));
    }

    // ---- Plan change (Fig. 10(b)). ----
    // Completed wave-1 outputs move straight to the job output; the
    // remaining reduce tasks run without the tail chains.
    let mut stripped = conf.clone();
    stripped.reduce_post = Vec::new();
    let mut rest = rt.runner().reduce_tasks(&stripped, &job, rest)?;
    let rest_start =
        wave_schedule.makespan + SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);
    let rest_schedule = rt.runner().schedule_reduces(&rest, rest_start);
    let mut t = rest_schedule.makespan;
    let mut schedule = wave_schedule;
    schedule.append(rest_schedule);

    // The re-planned tail pipeline consumes the stripped outputs.
    let rest_records: Vec<Record> = rest
        .iter_mut()
        .flat_map(|x| std::mem::take(&mut x.output))
        .collect();
    let tmp_in = format!("{}.tail-replan.in", ijob.name);
    rt.dfs
        .write_file_with_chunks(&tmp_in, rest_records, rt.cluster.total_map_slots());
    let tmp_out = format!("{}.tail-replan.out", ijob.name);
    let mut tail_ijob = IndexJobConf::new(format!("{}-tailreplan", ijob.name), &tmp_in, &tmp_out);
    tail_ijob.head = ijob.tail.clone();
    tail_ijob.cpu_per_record = ijob.cpu_per_record;
    debug_assert!(
        crate::analysis::passes(&tail_ijob, &tail_plans),
        "adaptive reduce-phase replan produced an analyzer-rejected plan"
    );
    let compiled = compile_pipeline(&tail_ijob, &tail_plans, &rt.runtime_env())?;
    let mut tail_jobs: Vec<JobStats> = Vec::new();
    for tconf in &compiled.jobs {
        let res = rt.runner().run(tconf, t)?;
        t = res.stats.finished;
        tail_jobs.push(res.stats);
    }
    let tail_output = rt.dfs.read_file(&tmp_out)?;
    if !rt.config.keep_intermediates {
        rt.dfs.delete(&tmp_in);
        rt.dfs.delete(&tmp_out);
        for tmp in &compiled.temp_files {
            rt.dfs.delete(tmp);
        }
    }

    // The split job's output merges its completed wave-1 outputs with the
    // tail pipeline's outputs (the stripped tasks' outputs moved above).
    // Its counters are only its own tasks' — the tail jobs follow as
    // separate entries, so anyone summing over `result.jobs` counts each
    // task once.
    let mut tasks = wave1;
    tasks.extend(rest);
    let res = rt
        .runner()
        .close(conf, job, Some((tasks, schedule)), tail_output);
    let mut jobs = vec![res.stats];
    jobs.extend(tail_jobs);
    // Head/body operators executed under the baseline plans; the tail
    // operators under their re-planned strategies.
    let mut final_plans = baseline_plans;
    // efind-lint: allow(unordered-iter, map-to-map merge; the destination is keyed and no order survives)
    final_plans.extend(tail_plans.iter().map(|(k, v)| (k.clone(), v.clone())));
    rt.absorb_stats(ijob, &jobs, &final_plans);

    Ok(EFindJobResult {
        output: res.output,
        total_time: t.since(SimTime::ZERO),
        jobs,
        // efind-lint: allow(unordered-iter, map-to-map collect; the destination is keyed and no order survives)
        plans: tail_plans.into_iter().collect(),
        replanned: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::jobconf::BoundOperator;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::runtime::{EFindConfig, Mode};
    use efind_cluster::Cluster;
    use efind_common::{Datum, Record};
    use efind_dfs::{Dfs, DfsConfig};
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    /// A workload with heavy global key duplication and an expensive
    /// index, so the optimizer should switch to re-partitioning.
    fn setup(n: i64, distinct: i64, serve_ms: u64) -> (Cluster, Dfs, IndexJobConf) {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 2048,
                replication: 2,
                seed: 11,
            },
        );
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(i, Datum::Int((i * 7919) % distinct)))
            .collect();
        dfs.write_file("in", records);

        let mut index = MemIndex::new(
            "vals",
            (0..distinct)
                .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![7u8; 256])]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(serve_ms);
        let op = operator_fn(
            "join",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.value.clone()),
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let hit = !values.first(0).is_empty();
                out.collect(Record::new(rec.value, i64::from(hit)));
            },
        );
        let ijob = IndexJobConf::new("dyn", "in", "out")
            .add_head_index_operator(BoundOperator::new(op).add_index(Arc::new(index)))
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            );
        (cluster, dfs, ijob)
    }

    fn cheap_change_config() -> EFindConfig {
        EFindConfig {
            plan_change_cost_secs: 0.01,
            variance_threshold: 5.0,
            ..EFindConfig::default()
        }
    }

    #[test]
    fn dynamic_replans_under_heavy_duplication() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "expected a plan change");
        let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
        assert!(plan.has_shuffle(), "expected a shuffle strategy: {plan:?}");
    }

    #[test]
    fn dynamic_output_matches_baseline_after_replan() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn dynamic_beats_pure_baseline_when_replanning() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();

        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let dynamic = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(
            dynamic.total_time < base.total_time,
            "dynamic {} vs baseline {}",
            dynamic.total_time,
            base.total_time
        );
    }

    #[test]
    fn dynamic_keeps_baseline_when_change_is_expensive() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let config = EFindConfig {
            plan_change_cost_secs: 1.0e9, // prohibitive
            ..EFindConfig::default()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    #[test]
    fn dynamic_keeps_baseline_when_no_redundancy() {
        // Unique keys, tiny serve time: baseline is already optimal.
        let (cluster, mut dfs, ijob) = setup(500, 1_000_000, 0);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    /// A job whose only expensive index is a *tail* operator with heavy
    /// global key duplication: the map-side pass finds nothing to re-plan,
    /// and the reduce-phase branch of Algorithm 1 must fire instead.
    fn tail_heavy_setup(n: i64) -> (Cluster, Dfs, IndexJobConf) {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(1)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 2048,
                replication: 2,
                seed: 13,
            },
        );
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(i, Datum::Int((i * 31) % 500)))
            .collect();
        dfs.write_file("in", records);

        let mut index = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(5);
        let tail_op = operator_fn(
            "tail-enrich",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                // Only 8 distinct keys over all reduce outputs → Θ is huge.
                keys.put(0, rec.key.as_int().unwrap_or(0) % 8);
            },
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: rec.key,
                    value: Datum::List(vec![rec.value, v]),
                });
            },
        );
        // A trivially cheap head operator keeps the map-side branch alive
        // but unprofitable.
        let head_op = operator_fn(
            "cheap-head",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _values: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        let cheap = MemIndex::new("noop", vec![]);
        let ijob = IndexJobConf::new("tailjob", "in", "out")
            .add_head_index_operator(BoundOperator::new(head_op).add_index(Arc::new(cheap)))
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                // More reducers than the 2 reduce slots → multiple waves.
                6,
            )
            .add_tail_index_operator(BoundOperator::new(tail_op).add_index(Arc::new(index)));
        (cluster, dfs, ijob)
    }

    #[test]
    fn reduce_phase_replan_fires_for_expensive_tail_ops() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            res.replanned,
            "tail operator should trigger a reduce-phase plan change"
        );
        let plan = &res
            .plans
            .iter()
            .find(|(n, _)| n == "tail-enrich")
            .unwrap()
            .1;
        assert!(
            plan.choices
                .iter()
                .all(|c| c.strategy != Strategy::Baseline),
            "the re-planned tail must leave the baseline: {plan:?}"
        );
    }

    #[test]
    fn reduce_phase_replan_preserves_output() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        let (cluster2, mut dfs2, ijob2) = tail_heavy_setup(3000);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_phase_replan_beats_tail_baseline() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();

        let (cluster2, mut dfs2, ijob2) = tail_heavy_setup(3000);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let dynamic = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(
            dynamic.total_time < base.total_time,
            "dynamic {} vs baseline {}",
            dynamic.total_time,
            base.total_time
        );
    }

    #[test]
    fn tail_no_change_path_preserves_all_output() {
        // Regression: when the reduce-phase branch evaluates a change and
        // declines (cheap tail lookups), the job must still produce the
        // complete output — the map outputs were already consumed by the
        // wave split and must not be lost.
        let (cluster, mut dfs, mut ijob) = tail_heavy_setup(2500);
        // Make the tail index too cheap to justify any plan change.
        let cheap = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        ijob.tail[0].indices[0] = Arc::new(cheap);

        let mut rt1 = EFindRuntime::new(&cluster, &mut dfs);
        rt1.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt1.dfs.read_file("out").unwrap();
        expected.sort();
        assert!(!expected.is_empty());

        let (cluster2, mut dfs2, mut ijob2) = tail_heavy_setup(2500);
        let cheap2 = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        ijob2.tail[0].indices[0] = Arc::new(cheap2);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(
            got.len(),
            expected.len(),
            "output lost on the no-change path"
        );
        assert_eq!(got, expected);
        let _ = res.replanned; // either decision is fine; output must match
    }

    #[test]
    fn no_reduce_phase_replan_when_reducers_fit_one_wave() {
        let (cluster, mut dfs, mut ijob) = tail_heavy_setup(2000);
        ijob.num_reducers = 2; // fits the 2 reduce slots → single wave
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    /// The virtual observables of a Dynamic run: total virtual time,
    /// per-job makespan, shuffle bytes, and counter fingerprint, plus the
    /// output file's fingerprint.
    fn observables(res: &EFindJobResult, dfs: &Dfs) -> Vec<(String, u64)> {
        use efind_common::fx_hash_bytes;
        use std::fmt::Write as _;
        let mut captured = vec![("total.nanos".to_owned(), res.total_time.as_nanos())];
        for (i, job) in res.jobs.iter().enumerate() {
            let mut text = String::new();
            for (k, v) in job.counters.iter_sorted() {
                let _ = writeln!(text, "{k}={v}");
            }
            captured.push((format!("job{i}.makespan.nanos"), job.makespan().as_nanos()));
            captured.push((format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
            captured.push((
                format!("job{i}.counters.fingerprint"),
                fx_hash_bytes(text.as_bytes()),
            ));
        }
        let mut buf = Vec::new();
        for rec in dfs.read_file("out").unwrap() {
            buf.extend_from_slice(&rec.encode());
        }
        captured.push(("output.fingerprint".to_owned(), fx_hash_bytes(&buf)));
        captured
    }

    fn goldens(values: &[(&str, u64)]) -> Vec<(String, u64)> {
        values.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    /// Quiet Fig. 10(b) plan change: the tail operator leaves the
    /// baseline and a re-planned tail pipeline follows the split reduce.
    #[test]
    fn quiet_reduce_phase_change_matches_golden() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "the tail operator must be re-planned");
        assert_eq!(res.jobs[0].name, "tailjob-j0", "the split job comes first");
        assert!(res.jobs.len() > 1, "the re-planned tail pipeline follows");
        let expected = goldens(&[
            ("total.nanos", 2783284426),
            ("job0.makespan.nanos", 2735527204),
            ("job0.shuffle.bytes", 54000),
            ("job0.counters.fingerprint", 13547036296144657316),
            ("job1.makespan.nanos", 47757222),
            ("job1.shuffle.bytes", 0),
            ("job1.counters.fingerprint", 17534291077667818422),
            ("output.fingerprint", 1541328545358312932),
        ]);
        assert_eq!(observables(&res, rt.dfs), expected);
    }

    /// Quiet Fig. 10(b) evaluation that declines the change: one job whose
    /// reduce phase runs every partition under the original plan.
    #[test]
    fn quiet_reduce_phase_no_change_matches_golden() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let config = EFindConfig {
            plan_change_cost_secs: 1.0e9, // prohibitive
            ..cheap_change_config()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned, "a prohibitive change cost keeps the plan");
        assert_eq!(res.jobs.len(), 1);
        let reduce = res.jobs[0].reduce.as_ref().unwrap();
        assert_eq!(reduce.tasks.len(), 6, "every partition reduced once");
        assert!(
            ijob.num_reducers > cluster.total_reduce_slots(),
            "the reduce phase spans several waves"
        );
        let expected = goldens(&[
            ("total.nanos", 7938034888),
            ("job0.makespan.nanos", 7938034888),
            ("job0.shuffle.bytes", 54000),
            ("job0.counters.fingerprint", 2979695702617021552),
            ("output.fingerprint", 1541328545358312932),
        ]);
        assert_eq!(observables(&res, rt.dfs), expected);
    }

    /// The reduce-phase re-plan runs its reducers through the runner's
    /// shuffle, so a corruption plan that hits shuffle payloads is caught
    /// and refetched there exactly as on a static plan.
    #[test]
    fn reduce_phase_replan_verifies_shuffle_payloads() {
        use efind_cluster::CorruptionPlan;
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut config = cheap_change_config();
        config.corruption = CorruptionPlan::new(3).shuffle(0.5);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "the tail operator must be re-planned");
        let refetches: i64 = res
            .jobs
            .iter()
            .map(|j| j.counters.get("mr.integrity.shuffle.refetches"))
            .sum();
        assert!(refetches > 0, "no shuffle payload was verified");
    }

    /// Wraps an accessor and declares its lookups non-deterministic.
    struct NonDetIndex(MemIndex);

    impl crate::accessor::IndexAccessor for NonDetIndex {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            self.0.lookup(key)
        }
        fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
            self.0.serve_time(key, result_bytes)
        }
        fn partition_scheme(&self) -> Option<Arc<dyn crate::accessor::PartitionScheme>> {
            self.0.partition_scheme()
        }
        fn deterministic(&self) -> bool {
            false
        }
    }

    #[test]
    fn non_deterministic_accessor_disables_result_reuse() {
        // The identical workload replans in
        // `dynamic_replans_under_heavy_duplication`; the only difference
        // here is the accessor declaring itself non-deterministic, which
        // must statically disable the adaptive path (EF012).
        let (cluster, mut dfs, mut ijob) = setup(2000, 10, 5);
        let mut index = MemIndex::new(
            "vals",
            (0..10i64)
                .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![7u8; 256])]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(5);
        ijob.head[0].indices[0] = Arc::new(NonDetIndex(index));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            !res.replanned,
            "result reuse must stay disabled for non-deterministic accessors"
        );
        let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
        assert!(
            plan.choices
                .iter()
                .all(|c| c.strategy == Strategy::Baseline),
            "the job must run its baseline plan end to end: {plan:?}"
        );
    }

    #[test]
    fn failing_index_blocks_replanning() {
        use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
        // The identical workload replans in
        // `dynamic_replans_under_heavy_duplication`; here the index fails
        // 70% of its attempts — past the 50% degradation threshold — so
        // the adaptive runtime must keep the operator on baseline instead
        // of committing a shuffle job to a failing index.
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.faults = FaultConfig::disabled().with_plan(FaultPlan::new(42).failures(0.7));
        config.faults.retry =
            RetryPolicy::bounded(8, SimDuration::from_micros(50), SimDuration::from_millis(5));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            !res.replanned,
            "a failing index must pin its operator to baseline"
        );
        // The harvested catalog carries the observed failure rate.
        let stats = rt.catalog.get("join").unwrap();
        assert!(
            stats.indices[0].failure_rate > 0.5,
            "failure rate {} should reflect the injected 70%",
            stats.indices[0].failure_rate
        );
    }

    #[test]
    fn healthy_fault_config_does_not_block_replanning() {
        use crate::fault::FaultConfig;
        // An *armed but quiet* fault layer (plan with zero rates) must not
        // change the adaptive decision.
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.faults = FaultConfig::disabled().with_plan(crate::fault::FaultPlan::new(1));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "quiet fault layer must not block the replan");
    }

    #[test]
    fn variance_gate_blocks_replanning() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let config = EFindConfig {
            plan_change_cost_secs: 0.01,
            // Even zero-variance statistics fail a negative threshold, so
            // the gate rejects everything.
            variance_threshold: -1.0,
            ..EFindConfig::default()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }
}
