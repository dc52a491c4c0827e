//! One benchmark run: set-up, then a closed loop of timed jobs or of
//! untraced/traced job pairs, every output checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use efind::{EFindJobResult, EFindRuntime};
use efind_common::{Error, Result};

use crate::layers::{self, Breakdown};
use crate::measure::{
    at_reference_speed, calibrate, median, process_cpu_secs, steal_secs, trim_heap,
};
use crate::oracle::{fingerprint, Oracle};
use crate::pipeline::run_traced;
use crate::trace::Tracer;
use crate::workload::{self, Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A set-up workload with its oracle.
pub struct Prepared {
    /// The workload, ready to run.
    pub workload: Workload,
    /// Checks each job's output.
    pub oracle: Oracle,
    /// Wall seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// CPU seconds of the calibration kernel run just before each set-up.
    pub setup_calibrations: Vec<f64>,
}

impl Prepared {
    /// Set-up wall seconds at the reference host speed.
    pub fn scaled_setup_secs(&self) -> Vec<f64> {
        let pairs = self.setup_secs.iter().zip(&self.setup_calibrations);
        pairs.map(|(&s, &c)| at_reference_speed(s, c)).collect()
    }
}

/// Sets the workload up `reps` times (keeping the last), each right after
/// the calibration kernel, and builds its oracle. Oracle work — the serial
/// reference and, for `q3_gray`, the quiet control run — is not set-up
/// time.
pub fn prepare(kind: Kind, seed: u64, tracer: &Arc<Tracer>, reps: usize) -> Result<Prepared> {
    let mut setup_secs = Vec::with_capacity(reps);
    let mut setup_calibrations = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous set-up first, so each one starts from the
        // same memory state.
        drop(last.take());
        setup_calibrations.push(calibrate());
        trim_heap();
        let t0 = Instant::now();
        let built = workload::setup(kind, seed, tracer)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (mut workload, mut data) = last.expect("at least one set-up ran");
    let oracle = match kind {
        Kind::Q3Cache => Oracle::q3(&data),
        Kind::Q9Warm => Oracle::q9(&data),
        Kind::Q3Gray => {
            let reference = Oracle::q3(&data);
            workload.prepare();
            let mut rt = EFindRuntime::new(&workload.cluster, &mut workload.dfs);
            rt.run(&workload.ijob, workload.mode.clone())?;
            let quiet = workload.output()?;
            reference
                .check(&quiet)
                .map_err(|why| Error::Internal(format!("quiet q3_cache control: {why}")))?;
            // Every armed run starts from the pristine DFS the quiet run saw.
            workload.keep_for_reset(std::mem::take(&mut data.lineitem));
            reference.with_exact(fingerprint(&quiet))
        }
    };
    drop(data);
    trim_heap();
    Ok(Prepared {
        workload,
        oracle,
        setup_secs,
        setup_calibrations,
    })
}

/// What pins a job's behaviour: its virtual time, its output and its
/// counts. Equal code on equal inputs reproduces all of it bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Behaviour {
    /// `EFindJobResult::total_time` in seconds.
    pub virtual_s: f64,
    /// Order-free fingerprint of the output rows.
    pub fingerprint: u64,
    /// Count and ratio metrics.
    pub counts: Vec<(&'static str, f64)>,
}

/// Success and failure tallies of a run's jobs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs run (timed, traced and warm-up).
    pub attempted: usize,
    /// Jobs that errored or whose output failed the oracle.
    pub failed: usize,
    /// The first failure's reason.
    pub first_error: Option<String>,
    /// Behaviour of the first successful job.
    pub behaviour: Option<Behaviour>,
    /// Whether every successful job had the first one's behaviour.
    pub stable: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            stable: true,
            ..Tally::default()
        }
    }

    /// Checks one job and records the outcome.
    fn record(&mut self, w: &Workload, oracle: &Oracle, res: Result<EFindJobResult>) {
        self.attempted += 1;
        let checked = res.map_err(|e| e.to_string()).and_then(|res| {
            let out = w.output().map_err(|e| e.to_string())?;
            oracle.check(&out)?;
            Ok(Behaviour {
                virtual_s: res.total_time.as_secs_f64(),
                fingerprint: fingerprint(&out),
                counts: layers::counts(&res),
            })
        });
        match checked {
            Ok(b) => match &self.behaviour {
                None => self.behaviour = Some(b),
                Some(first) => {
                    if *first != b {
                        self.stable = false;
                        self.first_error.get_or_insert_with(|| {
                            format!("behaviour changed between runs: {first:?} vs {b:?}")
                        });
                    }
                }
            },
            Err(why) => {
                self.failed += 1;
                self.first_error.get_or_insert(why);
            }
        }
    }

    /// True when every job succeeded with one behaviour.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.stable && self.behaviour.is_some()
    }
}

/// One job's host cost.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall seconds of the `EFindRuntime::run` call.
    pub wall: f64,
    /// Process CPU seconds during the call, plus the CPU time the
    /// hypervisor stole from this machine meanwhile.
    pub cpu: f64,
    /// CPU seconds of the calibration kernel run just before the call;
    /// [`timed_loop`] replaces it with the mean of the runs before and
    /// after the call.
    pub calibration: f64,
}

impl Sample {
    /// `wall` at the reference host speed.
    pub fn scaled_wall(&self) -> f64 {
        at_reference_speed(self.wall, self.calibration)
    }

    /// `cpu` at the reference host speed.
    pub fn scaled_cpu(&self) -> f64 {
        at_reference_speed(self.cpu, self.calibration)
    }
}

/// Runs one untraced job right after the calibration kernel, timing only
/// the `EFindRuntime::run` call.
pub fn timed_job(w: &mut Workload) -> (Result<EFindJobResult>, Sample) {
    w.prepare();
    let calibration = calibrate();
    trim_heap();
    let mode = w.mode.clone();
    let ijob = w.ijob.clone();
    let mut rt = w.runtime();
    let (c0, s0) = (process_cpu_secs(), steal_secs());
    let t0 = Instant::now();
    let res = rt.run(&ijob, mode);
    let wall = t0.elapsed().as_secs_f64();
    // Linux leaves stolen time out of the process clock, and while one
    // of the job's threads is stolen the others run alone, faster, so the
    // job's CPU time would fall with the neighbours' load (by about the
    // steal, on q9_warm). Adding the steal back counts the time the job's
    // threads held a CPU, as on an unshared host. The benchmark is the
    // only busy process on the machine, so the machine's steal is the
    // job's.
    let cpu = process_cpu_secs() - c0 + (steal_secs() - s0);
    (
        res,
        Sample {
            wall,
            cpu,
            calibration,
        },
    )
}

/// Result of the timed loop.
pub struct Timed {
    /// Host cost of each timed job.
    pub samples: Vec<Sample>,
    /// Outcomes of every job run (the warm-up included).
    pub tally: Tally,
}

/// One untimed warm-up job, then timed jobs until `budget` has passed and
/// at least `min_runs` were timed. Each job's calibration is the mean of
/// the kernel runs just before and just after it, so it brackets the job.
pub fn timed_loop(p: &mut Prepared, budget: Duration, min_runs: usize) -> Timed {
    let mut tally = Tally::new();
    let (res, _) = timed_job(&mut p.workload);
    tally.record(&p.workload, &p.oracle, res);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_runs || start.elapsed() < budget {
        let (res, sample) = timed_job(&mut p.workload);
        tally.record(&p.workload, &p.oracle, res);
        samples.push(sample);
    }
    let after: Vec<f64> = samples[1..]
        .iter()
        .map(|s| s.calibration)
        .chain([calibrate()])
        .collect();
    for (s, a) in samples.iter_mut().zip(after) {
        s.calibration = (s.calibration + a) / 2.0;
    }
    Timed { samples, tally }
}

/// Result of the traced loop.
pub struct Traced {
    /// Breakdown of each traced job.
    pub breakdowns: Vec<Breakdown>,
    /// Wall seconds of each untraced job run alongside.
    pub untraced_walls: Vec<f64>,
    /// Outcomes of every job run.
    pub tally: Tally,
    /// Spans of the last traced job, for the trace file.
    pub spans: Vec<crate::trace::Span>,
}

/// Alternates untraced and traced jobs until `budget` has passed and at
/// least `min_pairs` pairs ran. Untraced and traced jobs must behave
/// identically.
pub fn traced_loop(
    p: &mut Prepared,
    tracer: &Tracer,
    budget: Duration,
    min_pairs: usize,
) -> Traced {
    let mut tally = Tally::new();
    let (res, _) = timed_job(&mut p.workload);
    tally.record(&p.workload, &p.oracle, res);
    let start = Instant::now();
    let mut out = Traced {
        breakdowns: Vec::new(),
        untraced_walls: Vec::new(),
        tally: Tally::new(),
        spans: Vec::new(),
    };
    while out.breakdowns.len() < min_pairs || start.elapsed() < budget {
        let (res, sample) = timed_job(&mut p.workload);
        tally.record(&p.workload, &p.oracle, res);
        out.untraced_walls.push(sample.wall);
        tracer.take_spans();
        let res = run_traced(&mut p.workload, tracer);
        tally.record(&p.workload, &p.oracle, res);
        let spans = tracer.take_spans();
        out.breakdowns.push(layers::breakdown(&spans));
        out.spans = spans;
    }
    out.tally = tally;
    out
}

/// Median over traced jobs of one breakdown quantity.
pub fn median_of(bs: &[Breakdown], f: impl Fn(&Breakdown) -> f64) -> f64 {
    median(&bs.iter().map(f).collect::<Vec<_>>())
}
