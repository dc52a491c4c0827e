//! The three benchmark workloads: inputs from a seed, set-up, and one job.
//!
//! * `q3_cache` — TPC-H Q3 at scale 0.1 under the uniform cache strategy:
//!   the lookup path (map, carrier, cache, index serve).
//! * `q9_warm` — TPC-H Q9 at scale 0.03, five indices. Set-up runs it once
//!   under `Mode::Dynamic` into a statistics store; the measured runs are
//!   the recurring job planned by `Mode::Optimized` from that store
//!   (shuffle, sort and reduce; the only workload that runs the planner).
//! * `q3_gray` — `q3_cache` with all five injection layers armed: lookup
//!   faults with retries, a node crash, corruption on every surface, a
//!   transient partition watched by the failure detector, and hedged
//!   lookups. `q3_cache` is its quiet control.
//!
//! Every workload is a closed loop with one client: the next job starts
//! when the previous one has returned.

use std::sync::Arc;

use efind::{
    EFindConfig, EFindRuntime, FaultConfig, FaultPlan, HedgeConfig, HedgePolicy, IndexJobConf,
    MissPolicy, Mode, RetryPolicy, StatStore, Strategy,
};
use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, DetectorConfig, NodeId, PartitionPlan, SimDuration, SimTime,
};
use efind_common::{Record, Result};
use efind_dfs::{Dfs, DfsConfig};
use efind_workloads::tpch::{self, TpchConfig, TpchData};

use crate::trace::{instrument, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// TPC-H Q3, uniform cache strategy.
    Q3Cache,
    /// TPC-H Q9, optimized from a warmed statistics store.
    Q9Warm,
    /// `Q3Cache` with every injection layer armed.
    Q3Gray,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 3] = [Kind::Q3Cache, Kind::Q9Warm, Kind::Q3Gray];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Q3Cache => "q3_cache",
            Kind::Q9Warm => "q9_warm",
            Kind::Q3Gray => "q3_gray",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn tpch(self, seed: u64) -> TpchConfig {
        TpchConfig {
            scale: match self {
                Kind::Q3Cache | Kind::Q3Gray => 0.1,
                Kind::Q9Warm => 0.03,
            },
            dup_lineitem: 1,
            chunks: 150,
            seed,
        }
    }
}

/// Seed of every injection plan on `q3_gray`. Fixed, so that only the
/// generated data varies with the workload seed; the plans below were
/// chosen so every armed layer acts and every run still succeeds.
const GRAY_SEED: u64 = 0x6EA7_0011;

/// The armed configuration of `q3_gray`.
pub fn gray_config() -> EFindConfig {
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    EFindConfig {
        faults: FaultConfig {
            retry: RetryPolicy::bounded(
                12,
                SimDuration::from_micros(200),
                SimDuration::from_millis(5),
            ),
            // An exhausted lookup aborts the job instead of dropping rows,
            // so a badly tuned plan shows as a failed run.
            miss_policy: MissPolicy::FailJob,
            ..FaultConfig::disabled()
        }
        .with_plan(
            FaultPlan::new(GRAY_SEED)
                .failures(0.01)
                .timeouts(0.005)
                .slowdowns(0.05, 4.0),
        ),
        // Late enough that node 5 has finished map tasks whose outputs die
        // with it, so the crash forces a recompute wave.
        chaos: ChaosPlan::new(GRAY_SEED).kill(NodeId(5), at(800)),
        corruption: CorruptionPlan::new(GRAY_SEED)
            .chunks(0.03)
            .shuffle(0.05)
            .cache(0.001)
            .responses(0.002),
        netsplit: PartitionPlan::new(GRAY_SEED)
            .split(&[NodeId(9)], at(100), Some(at(160)))
            .slow_link(NodeId(2), at(0), Some(at(300)), 2.0),
        detector: DetectorConfig::default(),
        // Above a normal lookup's latency, so only slowed lookups hedge.
        hedge: HedgeConfig {
            seed: GRAY_SEED,
            threshold: Some(SimDuration::from_millis(1)),
            policy: HedgePolicy::ChargeWinner,
        },
        ..EFindConfig::default()
    }
}

/// A set-up workload, ready to run jobs.
pub struct Workload {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// The DFS holding the input (and the job's output after a run).
    pub dfs: Dfs,
    /// The job, with the tracer's wrappers installed.
    pub ijob: IndexJobConf,
    /// Runtime configuration of the measured runs.
    pub config: EFindConfig,
    /// Mode of the measured runs.
    pub mode: Mode,
    /// Statistics store warmed during set-up (`q9_warm`).
    pub store: Option<StatStore>,
    /// LineItem records the DFS is rebuilt from before each run.
    reset: Option<Vec<Record>>,
    chunks: usize,
}

/// A DFS holding `lineitem` as `tpch.lineitem`. The run's corruption plan
/// is installed before the write, so an armed integrity layer checksums
/// chunks as they are written (set-up work) rather than lazily on the
/// first read inside a job.
fn load_dfs(cluster: &Cluster, config: &EFindConfig, lineitem: Vec<Record>, chunks: usize) -> Dfs {
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.set_corruption(config.corruption.clone());
    dfs.write_file_with_chunks("tpch.lineitem", lineitem, chunks);
    dfs
}

/// Builds a workload: generates its inputs from `seed`, loads the DFS,
/// builds the indices and (for `q9_warm`) runs the warm-up job. Everything
/// this function does is the workload's set-up time. The generated tables
/// are returned for the oracle.
pub fn setup(kind: Kind, seed: u64, tracer: &Arc<Tracer>) -> Result<(Workload, TpchData)> {
    let tc = kind.tpch(seed);
    let config = match kind {
        Kind::Q3Gray => gray_config(),
        Kind::Q3Cache | Kind::Q9Warm => EFindConfig::default(),
    };
    let data = tpch::generate(&tc);
    let cluster = Cluster::edbt_testbed();
    let dfs = load_dfs(&cluster, &config, data.lineitem.clone(), tc.chunks);
    let mut ijob = match kind {
        Kind::Q3Cache | Kind::Q3Gray => tpch::q3_job(&cluster, &data),
        Kind::Q9Warm => tpch::q9_job(&cluster, &data),
    };
    instrument(&mut ijob, tracer);
    let mut w = Workload {
        cluster,
        dfs,
        ijob,
        config,
        mode: Mode::Uniform(Strategy::Cache),
        store: None,
        reset: None,
        chunks: tc.chunks,
    };
    match kind {
        Kind::Q3Cache | Kind::Q3Gray => {}
        Kind::Q9Warm => {
            let mut rt = EFindRuntime::with_config(&w.cluster, &mut w.dfs, w.config.clone());
            rt.attach_store(StatStore::new(efind::statstore::DEFAULT_HISTORY));
            rt.run(&w.ijob, Mode::Dynamic)?;
            w.store = rt.store.take();
            w.mode = Mode::Optimized;
        }
    }
    Ok((w, data))
}

impl Workload {
    /// Keeps the LineItem records to rebuild the DFS from before every
    /// run, for a workload whose runs mutate it (`q3_gray`: its crash
    /// strips the dead node's replicas and re-replicates).
    pub fn keep_for_reset(&mut self, lineitem: Vec<Record>) {
        self.reset = Some(lineitem);
    }

    /// Restores the state every run starts from (untimed): rebuilds the
    /// DFS when [`Workload::keep_for_reset`] was called.
    pub fn prepare(&mut self) {
        if let Some(lineitem) = &self.reset {
            // Free the used DFS before loading its replacement.
            self.dfs = Dfs::new(self.cluster.clone(), DfsConfig::default());
            self.dfs = load_dfs(&self.cluster, &self.config, lineitem.clone(), self.chunks);
        }
    }

    /// A fresh runtime for one measured job: the workload's configuration
    /// and a copy of the warmed store, so every run plans from the same
    /// history.
    pub fn runtime(&mut self) -> EFindRuntime<'_> {
        let mut rt = EFindRuntime::with_config(&self.cluster, &mut self.dfs, self.config.clone());
        if let Some(store) = &self.store {
            rt.attach_store(store.clone());
        }
        rt
    }

    /// Reads the job output left by the last run.
    pub fn output(&self) -> Result<Vec<Record>> {
        self.dfs.read_file(&self.ijob.output)
    }
}

/// Number of tasks a `Runner` phase runs in parallel on this host.
pub fn workers(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(tasks)
        .max(1)
}
