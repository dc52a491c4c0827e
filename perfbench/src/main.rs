//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <q3_cache|q9_warm|q3_gray> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up several times, then times
//! jobs for `--seconds` and reports the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced jobs and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Each run also appends a record (machine tag, behaviour pin, metrics) to
//! `perfbench/out/runs.jsonl` and, when traced, writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::bench::{self, median_of, Behaviour, Tally, SETUP_REPS};
use perfbench::layers::TIME_LAYERS;
use perfbench::measure::{
    machine_tag, median, peak_rss_mb, steal_secs, tail_percentile, Json, CALIBRATION_REFERENCE_S,
};
use perfbench::trace::{Span, Tracer};
use perfbench::workload::Kind;

const OUT_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s >= 1)
            .ok_or("--seconds ≥ 1 is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric for the result line: name, value, unit.
type Metric = (String, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> String {
    let mut j = Json::default();
    for (name, value, unit) in metrics {
        let mut m = Json::default();
        m.num("value", *value).str("unit", unit);
        j.raw(name, &m.end());
    }
    j.end()
}

fn behaviour_json(b: &Option<Behaviour>) -> String {
    let Some(b) = b else {
        return "null".to_owned();
    };
    let mut counts = Json::default();
    for (name, v) in &b.counts {
        counts.num(name, *v);
    }
    let mut j = Json::default();
    j.num("virtual_s", b.virtual_s)
        .str("fingerprint", &format!("{:016x}", b.fingerprint))
        .raw("counts", &counts.end());
    j.end()
}

fn spans_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let mut j = Json::default();
        j.num("id", i as f64)
            .str("name", span.name)
            .num("start_ns", span.start_ns as f64)
            .num("end_ns", span.end_ns as f64)
            .num("parent", span.parent.map_or(f64::NAN, |p| p as f64))
            .str("kind", &format!("{:?}", span.kind).to_lowercase())
            .num("workers", span.workers as f64)
            .num("serve_thread_ns", span.hot.nanos[0] as f64)
            .num("serve_calls", span.hot.calls[0] as f64)
            .num("udf_thread_ns", span.hot.nanos[1] as f64)
            .num("udf_calls", span.hot.calls[1] as f64);
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(s, "  {}{sep}", j.end());
    }
    s.push(']');
    s
}

/// Appends the run record; a failure to write it is reported but does not
/// fail the run.
fn log_run(args: &Args, tally: &Tally, metrics: &[Metric], steal: f64) {
    let mut j = Json::default();
    j.str("workload", args.kind.name())
        .num("seed", args.seed as f64)
        .num("trace", args.trace as u8 as f64)
        .num("seconds", args.seconds as f64)
        .str("machine", &machine_tag())
        .num("steal_frac", steal)
        .raw("correct", if tally.correct() { "true" } else { "false" })
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64)
        .raw("behaviour", &behaviour_json(&tally.behaviour))
        .raw("metrics", &metrics_json(metrics));
    let line = j.end();
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{OUT_DIR}/runs.jsonl"))?;
        writeln!(f, "{line}")
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not append the run record: {e}");
    }
}

fn print_tally(tally: &Tally) {
    println!(
        "  failed_frac  {:.4}  ({} of {} jobs failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if let Some(why) = &tally.first_error {
        println!("  FIRST ERROR: {why}");
    }
    if let Some(b) = &tally.behaviour {
        println!(
            "  behaviour: virtual_s={} fingerprint={:016x}",
            b.virtual_s, b.fingerprint
        );
        let counts: Vec<String> = b.counts.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!("  counts: {}", counts.join(" "));
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let budget = Duration::from_secs(args.seconds);
    let tracer = Tracer::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut prepared =
        bench::prepare(args.kind, args.seed, &tracer, reps).map_err(|e| e.to_string())?;
    println!(
        "perfbench {} seed {} ({})",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    println!("  machine: {}", machine_tag());
    if !args.trace {
        let timed = bench::timed_loop(&mut prepared, budget, 3);
        let walls: Vec<f64> = timed.samples.iter().map(|s| s.scaled_wall()).collect();
        let cpus: Vec<f64> = timed.samples.iter().map(|s| s.scaled_cpu()).collect();
        let raw =
            |f: fn(&bench::Sample) -> f64| median(&timed.samples.iter().map(f).collect::<Vec<_>>());
        let n = walls.len();
        let tail = tail_percentile(&walls)
            .map_or("no percentile has 10 samples beyond it".into(), |(p, v)| {
                format!("p{p} {v:.4} s")
            });
        let virtual_s = timed
            .tally
            .behaviour
            .as_ref()
            .map_or(f64::NAN, |b| b.virtual_s);
        let metrics: Vec<Metric> = vec![
            ("job_wall_s".into(), median(&walls), "s"),
            ("cpu_s".into(), median(&cpus), "s"),
            ("virtual_s".into(), virtual_s, "s"),
            ("setup_s".into(), median(&prepared.scaled_setup_secs()), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ];
        println!(
            "  job_wall_s   {:.4} s  median of n={n}; {tail}",
            metrics[0].1
        );
        println!("  cpu_s        {:.4} s  median of n={n}", metrics[1].1);
        println!(
            "  host speed   calibration {:.4} s (reference {CALIBRATION_REFERENCE_S} s); unscaled: \
             job wall {:.4} s, cpu {:.4} s, set-up {:.4} s",
            raw(|s| s.calibration),
            raw(|s| s.wall),
            raw(|s| s.cpu),
            median(&prepared.setup_secs)
        );
        println!(
            "  virtual_s    {:.6} s  (identical on every run)",
            metrics[2].1
        );
        println!(
            "  setup_s      {:.4} s  median of n={}",
            metrics[3].1,
            prepared.setup_secs.len()
        );
        println!(
            "  peak_rss_mb  {:.1} MiB  (this process ran only this workload)",
            metrics[4].1
        );
        print_tally(&timed.tally);
        return Ok((timed.tally, metrics));
    }

    let traced = bench::traced_loop(&mut prepared, &tracer, budget, 2);
    let bs = &traced.breakdowns;
    let mut metrics: Vec<Metric> = Vec::new();
    for name in TIME_LAYERS {
        metrics.push((name.into(), median_of(bs, |b| b.layers[name]), "s"));
    }
    if let Some(b) = &traced.tally.behaviour {
        for (name, v) in &b.counts {
            let unit = if name.ends_with("_ratio") {
                "ratio"
            } else if name.ends_with("_s") {
                "s"
            } else if name.ends_with("_bytes") {
                "bytes"
            } else {
                "count"
            };
            metrics.push(((*name).into(), *v, unit));
        }
    }
    let traced_wall = median_of(bs, |b| b.job_wall);
    let untraced_wall = median(&traced.untraced_walls);
    metrics.push(("untraced_s".into(), median_of(bs, |b| b.untraced()), "s"));
    metrics.push(("trace_overhead_s".into(), traced_wall - untraced_wall, "s"));
    metrics.push((
        "trace.coverage".into(),
        median_of(bs, |b| 1.0 - b.untraced() / b.job_wall),
        "ratio",
    ));
    println!(
        "  traced job wall {traced_wall:.4} s vs untraced {untraced_wall:.4} s (n={} pairs)",
        bs.len()
    );
    println!(
        "  map side {:.1}%, reduce side {:.1}% of the traced job",
        100.0 * median_of(bs, |b| b.map_side / b.job_wall),
        100.0 * median_of(bs, |b| b.reduce_side / b.job_wall)
    );
    for (name, v, unit) in &metrics {
        let share = if *unit == "s" && TIME_LAYERS.contains(&name.as_str()) {
            format!("  {:5.1}%", 100.0 * v / traced_wall)
        } else {
            String::new()
        };
        println!("  {name:<32} {v:>14.6} {unit}{share}");
    }
    print_tally(&traced.tally);
    let path = format!("{OUT_DIR}/trace-{}-{}.json", args.kind.name(), args.seed);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans_json(&traced.spans)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    Ok((traced.tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <q3_cache|q9_warm|q3_gray> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (steal0, t0) = (steal_secs(), Instant::now());
    let (tally, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    let steal = (steal_secs() - steal0) / (t0.elapsed().as_secs_f64() * cpus);
    println!(
        "  host: other guests took {:.1}% of this machine's CPU time during the run",
        100.0 * steal
    );
    log_run(&args, &tally, &metrics, steal);
    let mut j = Json::default();
    j.raw("correct", if tally.correct() { "true" } else { "false" })
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64)
        .raw("metrics", &metrics_json(&metrics));
    println!("{}", j.end());
    ExitCode::SUCCESS
}
