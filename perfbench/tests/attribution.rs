//! Self-tests of the benchmark's attribution.
//!
//! These run the real workloads (scale 0.1 Q3), so they take tens of
//! seconds; the package's test profile is optimized for that reason.

use std::sync::Mutex;
use std::time::Duration;

use perfbench::bench::{prepare, timed_job, traced_loop, Prepared};
use perfbench::layers::{counts, Breakdown};
use perfbench::measure::median;
use perfbench::trace::Tracer;
use perfbench::workload::Kind;

const SEED: u64 = 7;

/// The tests time real jobs and each holds a workload of a few hundred
/// MiB, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `job_wall_s` bound recorded in `BENCHMARK.json`.
fn job_wall_bound() -> f64 {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let at = spec
        .find("\"job_wall_s\"")
        .expect("job_wall_s is an end-to-end metric");
    let rest = &spec[at..];
    let b = rest.find("\"bound\":").expect("job_wall_s has a bound") + "\"bound\":".len();
    let end = rest[b..].find('}').expect("bound ends the metric object") + b;
    rest[b..end].trim().parse().expect("bound is a number")
}

/// Median untraced job wall time (at the reference host speed, as
/// `job_wall_s` reports it) over `n` jobs, and the median traced
/// breakdown over `pairs` traced jobs.
fn measure(p: &mut Prepared, tracer: &Tracer, n: usize, pairs: usize) -> (f64, Breakdown) {
    let walls: Vec<f64> = (0..n)
        .map(|_| timed_job(&mut p.workload).1.scaled_wall())
        .collect();
    let traced = traced_loop(p, tracer, Duration::ZERO, pairs);
    assert!(traced.tally.correct(), "{:?}", traced.tally.first_error);
    let mut bs = traced.breakdowns;
    bs.sort_by(|a, b| a.job_wall.total_cmp(&b.job_wall));
    (median(&walls), bs.swap_remove(bs.len() / 2))
}

/// A busy-wait in the timing accessor wrapper — no program option, only
/// the wrapper — must push `q3_cache` job wall time past its bound, and
/// the traced run must attribute most of the added time to
/// `index.serve_s`.
#[test]
fn busy_wait_in_the_accessor_wrapper_lands_in_index_serve() {
    let _serial = serial();
    let bound = job_wall_bound();
    let quiet_tracer = Tracer::new();
    let mut quiet = prepare(Kind::Q3Cache, SEED, &quiet_tracer, 1).unwrap();
    let (quiet_wall, quiet_b) = measure(&mut quiet, &quiet_tracer, 5, 3);
    drop(quiet);

    // ~156k lookups × 3 µs on two map workers: about 0.23 s per job.
    let slow_tracer = Tracer::with_serve_spin(Duration::from_micros(3));
    let mut slow = prepare(Kind::Q3Cache, SEED, &slow_tracer, 1).unwrap();
    let (slow_wall, slow_b) = measure(&mut slow, &slow_tracer, 5, 3);

    assert!(
        slow_wall > quiet_wall * (1.0 + bound),
        "job_wall_s {slow_wall:.4} s vs {quiet_wall:.4} s is within the {bound} bound"
    );
    let added = slow_b.job_wall - quiet_b.job_wall;
    let serve = slow_b.layers["index.serve_s"] - quiet_b.layers["index.serve_s"];
    println!(
        "job_wall_s {quiet_wall:.4} -> {slow_wall:.4} s; traced job +{added:.4} s, \
         index.serve_s +{serve:.4} s"
    );
    assert!(
        serve > 0.5 * added,
        "index.serve_s took {serve:.4} s of the {added:.4} s added"
    );
    for (layer, v) in &slow_b.layers {
        let delta = v - quiet_b.layers[layer];
        assert!(
            *layer == "index.serve_s" || delta < serve,
            "{layer} moved {delta:.4} s, more than index.serve_s ({serve:.4} s)"
        );
    }
}

/// Every injection count is nonzero on `q3_gray` and zero on its quiet
/// control, while both produce the reference answer.
#[test]
fn injection_counts_separate_q3_gray_from_q3_cache() {
    let _serial = serial();
    const INJECTION: [&str; 5] = [
        "core.fault_retries",
        "mapreduce.recomputed_tasks",
        "mapreduce.integrity_refetches",
        "cluster.suspected_nodes",
        "core.hedge_fired",
    ];
    for (kind, armed) in [(Kind::Q3Cache, false), (Kind::Q3Gray, true)] {
        let tracer = Tracer::new();
        let mut p = prepare(kind, SEED, &tracer, 1).unwrap();
        let (res, _) = timed_job(&mut p.workload);
        let res = res.unwrap();
        p.oracle.check(&p.workload.output().unwrap()).unwrap();
        let c = counts(&res);
        for name in INJECTION {
            let v = c.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(v > 0.0, armed, "{}: {name} = {v}", kind.name());
        }
    }
}
