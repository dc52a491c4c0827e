//! In-memory span tracer and the delegating wrappers that feed it.
//!
//! Two kinds of span are recorded:
//!
//! * **Coarse spans** — one per call the benchmark makes into a layer's
//!   public function (`plans_for`, `compile_pipeline`, `execute_maps`,
//!   `finish`, …). Each carries a name, start, end and parent and is kept
//!   in memory until the run writes its trace file.
//! * **Hot spans** — one per index lookup or user-code call, timed by the
//!   wrappers installed on the job's accessors, operators, mapper and
//!   reducer. There are hundreds of thousands per job, so they are summed
//!   per layer (thread time plus a call count) rather than stored one by
//!   one; a coarse span records the hot totals that accrued inside it.
//!
//! Tracing is switched on per job. While it is off every wrapper is a plain
//! delegation plus one relaxed atomic load, so the untraced timed runs pay
//! next to nothing for the wrappers being installed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use efind::{IndexAccessor, IndexInput, IndexOperator, IndexOutput, LookupResult, PartitionScheme};
use efind_cluster::SimDuration;
use efind_common::{Datum, KeyKind, Record};
use efind_mapreduce::{Collector, Mapper, MapperFactory, Reducer, ReducerFactory, TaskCtx};

/// Layers timed per call by the wrappers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hot {
    /// `IndexAccessor::lookup` / `try_lookup`: the index serving a key.
    Serve = 0,
    /// Mapper, reducer and operator pre/post code.
    Udf = 1,
}

const HOT_LAYERS: usize = 2;
/// Per-thread shards of the hot accumulators, so the map workers do not
/// bounce one cache line between them on every lookup.
const SHARDS: usize = 8;

#[repr(align(128))]
#[derive(Default)]
struct Shard {
    nanos: [AtomicU64; HOT_LAYERS],
    calls: [AtomicU64; HOT_LAYERS],
}

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Hot-span totals at one instant: thread nanoseconds and calls per layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotTotals {
    /// Thread nanoseconds per [`Hot`] layer.
    pub nanos: [u64; HOT_LAYERS],
    /// Calls per [`Hot`] layer.
    pub calls: [u64; HOT_LAYERS],
}

impl HotTotals {
    fn minus(&self, earlier: &HotTotals) -> HotTotals {
        let mut d = HotTotals::default();
        for i in 0..HOT_LAYERS {
            d.nanos[i] = self.nanos[i] - earlier.nanos[i];
            d.calls[i] = self.calls[i] - earlier.calls[i];
        }
        d
    }

    /// Thread seconds spent in `layer`.
    pub fn secs(&self, layer: Hot) -> f64 {
        self.nanos[layer as usize] as f64 / 1e9
    }
}

/// How a coarse span's time counts towards the traced job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A call the job itself makes; its wall time is part of the job.
    Step,
    /// A re-run of a public function on the same inputs, standing in for a
    /// call hidden inside its parent step. Its wall time is extra work, not
    /// part of the job; its duration is subtracted from the parent's self
    /// time instead.
    Probe,
    /// Benchmark bookkeeping (copying inputs for a probe); neither part of
    /// the job nor attributed to any layer.
    Excluded,
}

/// One recorded coarse span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `mapreduce.map`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same job, if any. For a probe this
    /// is the step whose hidden call it stands in for.
    pub parent: Option<usize>,
    /// Step, probe or excluded.
    pub kind: SpanKind,
    /// Threads the span's work ran on (hot totals and probes inside a
    /// parallel step are thread time; dividing by this converts them to
    /// the step's wall time).
    pub workers: usize,
    /// Hot-span totals that accrued inside this span.
    pub hot: HotTotals,
}

impl Span {
    /// Wall seconds of the span.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The tracer shared by the wrappers of one workload.
pub struct Tracer {
    epoch: Instant,
    /// Whether wrappers time their calls.
    hot_on: AtomicBool,
    shards: [Shard; SHARDS],
    spans: Mutex<Vec<Span>>,
    /// Busy-wait added to every index lookup by the accessor wrapper. Zero
    /// in the benchmark; the attribution self-test sets it to check that an
    /// injected slowdown lands in `index.serve_s`.
    serve_spin: Duration,
}

impl Tracer {
    /// A tracer with tracing off.
    pub fn new() -> Arc<Tracer> {
        Self::with_serve_spin(Duration::ZERO)
    }

    /// A tracer whose accessor wrapper busy-waits `spin` on every lookup,
    /// traced or not.
    pub fn with_serve_spin(spin: Duration) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            hot_on: AtomicBool::new(false),
            shards: Default::default(),
            spans: Mutex::new(Vec::new()),
            serve_spin: spin,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Turns per-call timing in the wrappers on or off.
    pub fn set_hot(&self, on: bool) {
        self.hot_on.store(on, Ordering::Relaxed);
    }

    /// Current hot-span totals, summed over shards.
    pub fn hot_totals(&self) -> HotTotals {
        let mut t = HotTotals::default();
        for s in &self.shards {
            for i in 0..HOT_LAYERS {
                t.nanos[i] += s.nanos[i].load(Ordering::Relaxed);
                t.calls[i] += s.calls[i].load(Ordering::Relaxed);
            }
        }
        t
    }

    /// Runs `f`, timing it into `layer` when tracing is on.
    #[inline]
    fn hot<R>(&self, layer: Hot, f: impl FnOnce() -> R) -> R {
        if !self.hot_on.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        SHARD.with(|&s| {
            let shard = &self.shards[s];
            shard.nanos[layer as usize].fetch_add(ns, Ordering::Relaxed);
            shard.calls[layer as usize].fetch_add(1, Ordering::Relaxed);
        });
        r
    }

    fn spin(&self) {
        if self.serve_spin.is_zero() {
            return;
        }
        let t0 = Instant::now();
        while t0.elapsed() < self.serve_spin {
            std::hint::spin_loop();
        }
    }

    /// Records a coarse span around `f` and returns its index and result.
    pub fn span<R>(
        &self,
        name: &'static str,
        kind: SpanKind,
        parent: Option<usize>,
        workers: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let hot0 = self.hot_totals();
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let hot = self.hot_totals().minus(&hot0);
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked worker");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            kind,
            workers: workers.max(1),
            hot,
        });
        (spans.len() - 1, r)
    }

    /// Opens a span whose end is set later with [`Tracer::close`]: the job
    /// root, which its children name as parent before it ends.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked worker");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            kind: SpanKind::Step,
            workers: 1,
            hot: HotTotals::default(),
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked worker");
        spans[id].end_ns = end;
    }

    /// Makes `parent` the parent of the probe `id`, recorded before the
    /// step it stands in for.
    pub fn adopt(&self, id: usize, parent: usize) {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked worker");
        spans[id].parent = Some(parent);
    }

    /// Moves the recorded spans out, leaving the list empty.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicked worker"),
        )
    }
}

/// Delegating accessor that times every lookup as `index.serve`.
struct TimedAccessor {
    inner: Arc<dyn IndexAccessor>,
    tracer: Arc<Tracer>,
}

impl IndexAccessor for TimedAccessor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.tracer.hot(Hot::Serve, || {
            self.tracer.spin();
            self.inner.lookup(key)
        })
    }
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        self.tracer.hot(Hot::Serve, || {
            self.tracer.spin();
            self.inner.try_lookup(key)
        })
    }
    fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
        self.inner.serve_time(key, result_bytes)
    }
    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        self.inner.partition_scheme()
    }
    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }
    fn key_kind(&self) -> KeyKind {
        self.inner.key_kind()
    }
}

/// Delegating operator that times pre/post processing as user code.
struct TimedOperator {
    inner: Arc<dyn IndexOperator>,
    tracer: Arc<Tracer>,
}

impl IndexOperator for TimedOperator {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_indices(&self) -> usize {
        self.inner.num_indices()
    }
    fn pre_process(&self, rec: &mut Record, keys: &mut IndexInput) {
        self.tracer
            .hot(Hot::Udf, || self.inner.pre_process(rec, keys))
    }
    fn post_process(&self, rec: Record, values: &IndexOutput, out: &mut dyn Collector) {
        self.tracer
            .hot(Hot::Udf, || self.inner.post_process(rec, values, out))
    }
}

struct TimedMapper {
    inner: Box<dyn Mapper>,
    tracer: Arc<Tracer>,
}

impl Mapper for TimedMapper {
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        let inner = &mut self.inner;
        self.tracer.hot(Hot::Udf, || inner.map(rec, out, ctx))
    }
    fn flush(&mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        let inner = &mut self.inner;
        self.tracer.hot(Hot::Udf, || inner.flush(out, ctx))
    }
}

struct TimedReducer {
    inner: Box<dyn Reducer>,
    tracer: Arc<Tracer>,
}

impl Reducer for TimedReducer {
    fn reduce(
        &mut self,
        key: Datum,
        values: Vec<Datum>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        let inner = &mut self.inner;
        self.tracer
            .hot(Hot::Udf, || inner.reduce(key, values, out, ctx))
    }
    fn flush(&mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        let inner = &mut self.inner;
        self.tracer.hot(Hot::Udf, || inner.flush(out, ctx))
    }
}

/// Wraps every accessor, operator, mapper and the reducer of `ijob` in the
/// timing wrappers. Names, arities, key kinds, partition schemes and
/// determinism flags are delegated, so plans, fingerprints and every
/// virtual observable are those of the unwrapped job.
pub fn instrument(ijob: &mut efind::IndexJobConf, tracer: &Arc<Tracer>) {
    for bound in ijob
        .head
        .iter_mut()
        .chain(ijob.body.iter_mut())
        .chain(ijob.tail.iter_mut())
    {
        bound.op = Arc::new(TimedOperator {
            inner: bound.op.clone(),
            tracer: tracer.clone(),
        });
        for acc in &mut bound.indices {
            *acc = Arc::new(TimedAccessor {
                inner: acc.clone(),
                tracer: tracer.clone(),
            });
        }
    }
    for factory in &mut ijob.map {
        let inner = factory.clone();
        let tracer = tracer.clone();
        *factory = Arc::new(move || -> Box<dyn Mapper> {
            Box::new(TimedMapper {
                inner: inner(),
                tracer: tracer.clone(),
            })
        }) as MapperFactory;
    }
    if let Some(factory) = ijob.reducer.take() {
        let tracer = tracer.clone();
        ijob.reducer = Some(Arc::new(move || -> Box<dyn Reducer> {
            Box::new(TimedReducer {
                inner: factory(),
                tracer: tracer.clone(),
            })
        }) as ReducerFactory);
    }
}
