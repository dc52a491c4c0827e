//! Turning one traced job's spans into per-layer self times, and one job
//! result into the exact counts that pin its behaviour.

use std::collections::BTreeMap;

use efind::EFindJobResult;

use crate::trace::{Hot, Span, SpanKind};

/// Per-layer time metrics, in report order.
pub const TIME_LAYERS: [&str; 12] = [
    "core.plan_s",
    "core.compile_s",
    "core.absorb_s",
    "analyze.check_s",
    "dfs.read_s",
    "mapreduce.map_s",
    "mapreduce.udf_s",
    "index.serve_s",
    "cluster.sched_s",
    "mapreduce.partition_s",
    "mapreduce.reduce_s",
    "mapreduce.finish_s",
];

/// Which layer metric a coarse span's self time belongs to.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "core.plan" => "core.plan_s",
        "core.compile" => "core.compile_s",
        "core.absorb" => "core.absorb_s",
        "analyze.check" => "analyze.check_s",
        "dfs.stat" | "dfs.read" => "dfs.read_s",
        "mapreduce.map" => "mapreduce.map_s",
        "cluster.sched" => "cluster.sched_s",
        "mapreduce.partition" => "mapreduce.partition_s",
        "mapreduce.reduce" => "mapreduce.reduce_s",
        "mapreduce.finish" => "mapreduce.finish_s",
        _ => return None,
    })
}

/// Where one traced job's wall time went.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Wall seconds of the job itself: the root span minus probe and
    /// bookkeeping time.
    pub job_wall: f64,
    /// Self seconds per layer metric (see [`TIME_LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Seconds on the map side: DFS reads, map framework, and the user
    /// code and index serving inside map tasks.
    pub map_side: f64,
    /// Seconds on the reduce side: partitioning, reduce execution (with
    /// its user code and index serving) and the rest of `finish`.
    pub reduce_side: f64,
}

impl Breakdown {
    /// Job wall time no span covers.
    pub fn untraced(&self) -> f64 {
        self.job_wall - self.layers.values().sum::<f64>()
    }
}

/// Attributes one traced job's spans to layers.
///
/// A span's self time is its wall time minus its probes' wall time minus
/// the hot (per-call) time recorded inside it. Hot time is thread time:
/// inside a step that ran on `workers` threads it is divided by `workers`
/// to give the share of the step's wall time it occupied.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut b = Breakdown::default();
    for name in TIME_LAYERS {
        b.layers.insert(name, 0.0);
    }
    let Some(root) = spans
        .iter()
        .position(|s| s.parent.is_none() && s.name == "job")
    else {
        return b;
    };
    let mut extra = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if i == root {
            continue;
        }
        let probes: f64 = spans
            .iter()
            .filter(|p| p.parent == Some(i) && p.kind == SpanKind::Probe)
            .map(Span::secs)
            .sum();
        if s.kind != SpanKind::Step {
            extra += s.secs();
        }
        if s.kind == SpanKind::Excluded {
            continue;
        }
        let w = s.workers as f64;
        let serve = s.hot.secs(Hot::Serve) / w;
        let udf = s.hot.secs(Hot::Udf) / w;
        let own = (s.secs() - probes - serve - udf).max(0.0);
        if let Some(layer) = layer_of(s.name) {
            *b.layers.entry(layer).or_default() += own;
        }
        *b.layers.entry("index.serve_s").or_default() += serve;
        *b.layers.entry("mapreduce.udf_s").or_default() += udf;
        let side = match s.name {
            "dfs.read" | "mapreduce.map" => Some(&mut b.map_side),
            "mapreduce.partition" | "mapreduce.reduce" | "mapreduce.finish" => {
                Some(&mut b.reduce_side)
            }
            _ => None,
        };
        if let Some(side) = side {
            *side += own + serve + udf;
        }
    }
    b.job_wall = spans[root].secs() - extra;
    b
}

/// Count and ratio metrics of one job result, in report order. They are
/// pure functions of the job's virtual execution, so they repeat exactly.
pub fn counts(res: &EFindJobResult) -> Vec<(&'static str, f64)> {
    // Sum of per-index counters `efind.<op>.<j>.<leaf>` over every job.
    let mut idx: BTreeMap<String, i64> = BTreeMap::new();
    for job in &res.jobs {
        for (name, v) in job.counters.iter_sorted() {
            let parts: Vec<&str> = name.splitn(4, '.').collect();
            if parts.len() == 4 && parts[0] == "efind" && parts[2].parse::<usize>().is_ok() {
                *idx.entry(parts[3].to_owned()).or_default() += v;
            }
        }
    }
    let c = |leaf: &str| idx.get(leaf).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let (mut shuffle, mut out_bytes, mut vmap, mut vreduce) = (0u64, 0u64, 0.0, 0.0);
    let (mut recomputed, mut refetches, mut suspected) = (0usize, 0u64, 0usize);
    let (mut tasks, mut wasted) = (0usize, 0usize);
    for job in &res.jobs {
        shuffle += job.shuffle_bytes;
        out_bytes += job.output_bytes;
        let map_end = job.map.schedule.makespan;
        vmap += map_end.since(job.started).as_secs_f64();
        vreduce += job.finished.since(map_end).as_secs_f64();
        recomputed += job.recovery.recomputed_map_tasks.len();
        let i = &job.integrity;
        refetches +=
            i.chunk_rereads + i.shuffle_refetches + i.lookup_refetches + i.cache_invalidations;
        suspected += job.partition.suspected;
        let phases = std::iter::once(&job.map).chain(job.reduce.as_ref());
        for phase in phases {
            tasks += phase.tasks.len();
            let s = &phase.schedule;
            wasted += s.retried_tasks + s.speculative_copies;
        }
        wasted += job.recovery.crashed_attempts
            + job.recovery.recomputed_map_tasks.len()
            + job.partition.replaced_tasks as usize;
    }
    vec![
        ("core.lookup_keys", c("nik")),
        ("index.lookups", c("lookups")),
        (
            "core.cache_hit_ratio",
            ratio(c("cache.hits"), c("cache.probes")),
        ),
        ("core.lookup_dedup_ratio", ratio(c("lookups"), c("nik"))),
        ("mapreduce.jobs", res.jobs.len() as f64),
        ("mapreduce.shuffle_bytes", shuffle as f64),
        ("dfs.output_bytes", out_bytes as f64),
        ("cluster.virtual_map_s", vmap),
        ("cluster.virtual_reduce_s", vreduce),
        ("core.fault_retries", c("fault.retries")),
        ("mapreduce.recomputed_tasks", recomputed as f64),
        ("mapreduce.integrity_refetches", refetches as f64),
        ("cluster.suspected_nodes", suspected as f64),
        ("core.hedge_fired", c("hedge.fired")),
        (
            "core.hedge_win_ratio",
            ratio(c("hedge.wins"), c("hedge.fired")),
        ),
        (
            "cluster.useful_attempt_ratio",
            ratio(tasks as f64, (tasks + wasted) as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HotTotals;

    fn span(name: &'static str, kind: SpanKind, parent: Option<usize>, t: (u64, u64)) -> Span {
        Span {
            name,
            start_ns: t.0,
            end_ns: t.1,
            parent,
            kind,
            workers: 1,
            hot: HotTotals::default(),
        }
    }

    #[test]
    fn probes_leave_the_job_and_their_parent() {
        let mut map = span("mapreduce.map", SpanKind::Step, Some(0), (100, 600));
        map.workers = 2;
        map.hot.nanos[Hot::Serve as usize] = 400; // 200 ns of the step's wall
        let spans = vec![
            span("job", SpanKind::Step, None, (0, 1_000)),
            span("dfs.read", SpanKind::Probe, Some(2), (10, 60)),
            map,
            span("probe.copy", SpanKind::Excluded, Some(4), (600, 650)),
            span("mapreduce.finish", SpanKind::Step, Some(0), (700, 900)),
            span("mapreduce.partition", SpanKind::Probe, Some(4), (650, 700)),
        ];
        let b = breakdown(&spans);
        let ns = |x: f64| (x * 1e9).round();
        // 1000 ns root − 50 read − 50 copy − 50 partition probes.
        assert_eq!(ns(b.job_wall), 850.0);
        assert_eq!(ns(b.layers["index.serve_s"]), 200.0);
        assert_eq!(ns(b.layers["dfs.read_s"]), 50.0);
        assert_eq!(ns(b.layers["mapreduce.map_s"]), 500.0 - 50.0 - 200.0);
        assert_eq!(ns(b.layers["mapreduce.partition_s"]), 50.0);
        assert_eq!(ns(b.layers["mapreduce.finish_s"]), 200.0 - 50.0);
        // Only the gaps between spans are untraced: 10 + 40 + 100.
        assert_eq!(ns(b.untraced()), 150.0);
    }
}
