//! Host measurements: process CPU time, host speed, peak memory, the
//! machine tag, and the order statistics the report uses.

use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the OS (glibc `malloc_trim`),
/// so every set-up and job starts from the same resident footprint instead
/// of whatever the previous one left fragmented. Peak memory then measures
/// the largest single phase, as it would in a fresh process, and does not
/// drift with allocator history. Called outside timed regions only.
pub fn trim_heap() {
    const _: () = assert!(
        cfg!(target_env = "gnu"),
        "trim_heap calls glibc's malloc_trim"
    );
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds free; glibc makes it safe to call from any
    // thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, every thread, live or exited) this process
/// has used so far.
pub fn process_cpu_secs() -> f64 {
    const _: () = assert!(
        cfg!(target_os = "linux") && std::mem::size_of::<usize>() == 8,
        "the benchmark reads CLOCK_PROCESS_CPUTIME_ID through the 64-bit Linux timespec layout"
    );
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, checked above) and the clock id is a valid constant;
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds [`calibrate`] takes at the reference host speed: a round
/// figure near its time on a 2-vCPU Intel Xeon virtual machine, where it
/// measured 0.08–0.10 s. Host times are reported at this speed.
pub const CALIBRATION_REFERENCE_S: f64 = 0.1;

/// Scales host seconds measured beside a calibration that took
/// `calibration` CPU seconds to the reference host speed.
pub fn at_reference_speed(secs: f64, calibration: f64) -> f64 {
    secs * CALIBRATION_REFERENCE_S / calibration
}

/// Runs a fixed kernel on every CPU and returns the process CPU seconds
/// it took: how fast this host executes right now.
///
/// On a shared virtual machine the neighbours' load changes the speed of
/// every instruction (shared cores, caches, memory bandwidth) by tens of
/// percent over minutes, and the guest's CPU clock does not see it. The
/// kernel is the benchmark's own code and never changes with the program,
/// so a job timed right after it can be scaled to a reference speed with
/// [`at_reference_speed`]. It mixes what the jobs spend their time on:
/// random reads and writes over a 2 MiB table, and building and probing
/// a hash map with small heap values. It holds about 4 MiB per thread, so
/// it does not raise the process's peak memory.
pub fn calibrate() -> f64 {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, DefaultHasher};

    fn next(x: u64) -> u64 {
        let x = x ^ (x << 13);
        let x = x ^ (x >> 7);
        x ^ (x << 17)
    }
    fn kernel(t: u64) -> u64 {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let n = 1usize << 18;
        let mut x = MIX ^ (t + 1);
        let mut acc = 0u64;
        for _ in 0..3 {
            let mut table = vec![t; n];
            for _ in 0..1_000_000 {
                x = next(x);
                let i = x as usize & (n - 1);
                acc = acc.wrapping_add(table[i]).rotate_left(5);
                table[i] = acc;
            }
            drop(table);
            let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> =
                HashMap::default();
            for i in 0..25_000u64 {
                map.insert(i.wrapping_mul(MIX) ^ t, vec![i as u8; 24]);
            }
            for _ in 0..200_000 {
                x = next(x);
                let key = (x % 32_768).wrapping_mul(MIX) ^ t;
                acc = acc.wrapping_add(map.get(&key).map_or(1, |v| v.len() as u64));
            }
        }
        acc
    }

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    let c0 = process_cpu_secs();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || std::hint::black_box(kernel(t)));
        }
    });
    process_cpu_secs() - c0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds the hypervisor ran other guests on this machine's CPUs
/// (`steal` in `/proc/stat`), summed over CPUs; 0 where not reported.
/// Linux leaves it out of process CPU clocks.
pub fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// What the numbers were measured on: only runs with equal tags may have
/// their timings compared.
pub fn machine_tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).trim())
        .unwrap_or("unknown");
    format!("nproc={nproc}; cpu={model}; {}", env!("PERFBENCH_RUSTC"))
}

/// The median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the usual percentiles that has at least ten samples
/// above it, with its nearest-rank value; `None` below twenty samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p: f64| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
        })
}

/// Minimal JSON object writer for the result line and the run log.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, " {}: ", quote(k));
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(&quote(v));
        self
    }

    /// Adds a number field (non-finite numbers are written as `null`).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Adds an already-serialized JSON value.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(v);
        self
    }

    /// The finished object.
    pub fn end(&self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            format!("{}}}", self.0)
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_tails() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 samples has exactly ten above it.
        assert_eq!(tail_percentile(&xs), Some((75.0, 30.0)));
    }

    #[test]
    fn json_objects() {
        let mut j = Json::default();
        j.str("a\"b", "x")
            .num("n", 1.5)
            .num("bad", f64::NAN)
            .raw("o", "{}");
        assert_eq!(j.end(), r#"{ "a\"b": "x", "n": 1.5, "bad": null, "o": {}}"#);
    }

    #[test]
    fn process_clock_advances() {
        let a = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() > a);
    }

    #[test]
    fn calibration_scales_to_the_reference() {
        assert!(calibrate() > 0.0);
        assert_eq!(at_reference_speed(1.0, CALIBRATION_REFERENCE_S), 1.0);
        assert_eq!(at_reference_speed(1.0, 2.0 * CALIBRATION_REFERENCE_S), 0.5);
    }
}
