//! The batch engine: a job queue feeding a persistent worker pool, fused
//! with the content-addressed [`ResultCache`].
//!
//! [`Engine::submit`] shards one [`SweepSpec`] into per-cell work units
//! (one unit per configuration; the scenario, horizon and seed are shared)
//! and enqueues them. A fixed pool of worker threads — sized like
//! [`malec_core::parallel`]'s fan-out, but *persistent* across jobs instead
//! of scoped per call — drains the queue. For each unit a worker:
//!
//! 1. looks the cell's [`cache_key`] up: a **hit** finishes the cell with
//!    the stored summary, zero simulation;
//! 2. otherwise checks the **in-flight** table: if an identical cell is
//!    already simulating (a concurrent overlapping job), the unit parks as
//!    a waiter and is finished by whoever simulates it — the cache answers
//!    `N` concurrent identical submissions with **one** simulation;
//! 3. otherwise claims the key, simulates, inserts the summary into the
//!    cache (persisting it), and finishes the cell plus every parked
//!    waiter.
//!
//! Everything a worker produces is deterministic, so a cell served from
//! cache, from a waiter hand-off, or from a fresh simulation is
//! bit-identical — the job report cannot tell (and records which path each
//! cell took anyway, for the cache-stats endpoint and the acceptance
//! tests).
//!
//! With a [`ShardMap`] installed ([`Engine::set_shard`]), the engine is
//! one peer of a sharded cluster. Two mechanisms kick in, both built on
//! the same determinism:
//!
//! * **scatter/gather** — [`Engine::submit_with_source`] partitions a
//!   job's config groups by their owners (a group routes by its
//!   replicate-0 cache key, and an explicit `[compare]` pair clusters as
//!   one so paired growth stays on one owner), forwards each remote
//!   cluster to its owner as a `?configs=`-filtered sub-job, polls it
//!   with the backoff client, and lands the fetched records as
//!   [`Provenance::Fetched`] cells;
//! * **peer-miss fetch** — a worker claiming a cell this peer does not
//!   own first asks the owner for the record
//!   (`GET /v1/cache/record/<key>`) and only simulates on a miss.
//!
//! Both degrade, never fail: an unreachable owner means the work runs
//! locally — exactly what a standalone server would have done.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::sync::lock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use malec_core::compare::{paired_converged, Alpha, CompareStats};
use malec_core::parallel::worker_count;
use malec_core::stats::{replicate_seed, ReplicateStats};
use malec_core::{RunSummary, ScenarioSource, Simulator};
use malec_trace::Scenario;
use malec_types::error::{Failure, FailureKind};
use malec_types::SimConfig;

use crate::cache::{cache_key, CacheStats, CompactOutcome, FsyncPolicy, ResultCache, SyncReport};
use crate::client::{Client, RetryPolicy};
use crate::fault::{FaultAction, Faults};
use crate::report::{render, render_compare, CellResult, CompareReportMeta, ReportMeta};
use crate::shard::ShardMap;
use crate::spec::{SpecError, SweepSpec};

/// Server-side job identifier.
pub type JobId = u64;

/// Default for [`EngineOptions::retain_done`]: terminal jobs retained for
/// status/report queries. Beyond this, the oldest terminal jobs are
/// evicted at submit time (their results stay in the cache; only the
/// per-job bookkeeping goes), so a long-lived server's memory is bounded
/// by its workload, not its uptime. Evicted ids answer like unknown ids.
const MAX_RETAINED_DONE: usize = 256;

/// Construction knobs for an [`Engine`]. `Default` matches what
/// `Engine::new(None, None)` always did: fan-out workers, in-memory
/// cache, no fault injection, 256 retained terminal jobs, no TTL.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Pool threads (`None`: the sweep fan-out [`worker_count`]).
    pub workers: Option<usize>,
    /// Cache-log path (`None`: in-memory cache).
    pub cache_path: Option<PathBuf>,
    /// When the cache log reaches stable storage.
    pub fsync: FsyncPolicy,
    /// Failpoint registry (disarmed in production).
    pub faults: Arc<Faults>,
    /// Terminal jobs retained for status/report queries before the oldest
    /// are evicted at submit time.
    pub retain_done: usize,
    /// Additionally expire terminal jobs this long after they settle
    /// (`None`: count-based eviction only).
    pub job_ttl: Option<Duration>,
    /// Cap on live cache bytes (`None`: unbounded). Past it, the
    /// least-recently-used entries are evicted from memory — and from disk
    /// at the next compaction.
    pub cache_max_bytes: Option<u64>,
    /// Auto-compaction trigger: when the log's dead-byte ratio reaches
    /// this fraction, the append that crossed it compacts the log in
    /// place (`None`: compaction only on demand via
    /// [`Engine::compact_cache`]).
    pub compact_threshold: Option<f64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: None,
            cache_path: None,
            fsync: FsyncPolicy::default(),
            faults: Faults::disarmed(),
            retain_done: MAX_RETAINED_DONE,
            job_ttl: None,
            cache_max_bytes: None,
            compact_threshold: None,
        }
    }
}

/// How a finished cell got its summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Freshly simulated by a pool worker.
    Simulated,
    /// Served from the result cache without simulating.
    Cached,
    /// Attached to a concurrent identical simulation (no own simulation).
    Coalesced,
    /// Fetched from the owning peer's cache (sharded serving) — by the
    /// per-cell owner fetch or the scatter/gather path.
    Fetched,
}

/// One schedulable cell: a `(config, replicate)` pair of one job. The
/// cache key folds `(base seed, replicate)`; the simulation runs under the
/// derived `replicate_seed(seed, replicate)`.
struct WorkUnit {
    job: JobId,
    cell: usize,
    config: SimConfig,
    scenario: Arc<Scenario>,
    insts: u64,
    /// The job's base seed (replicate 0 runs it verbatim).
    seed: u64,
    /// Replicate index within the config's cell group.
    replicate: u32,
}

/// Replication progress of one config's cell group.
struct Group {
    /// Replicates enqueued so far (cells `0..planned` of this group exist).
    planned: u32,
    /// Whether the group stopped growing (seed cap or CI convergence).
    converged: bool,
    /// Replicates the CI target saved (`seeds - planned` once converged
    /// early; 0 otherwise).
    saved: u32,
}

/// One cell slot's lifecycle.
enum CellState {
    /// Queued or simulating.
    Pending,
    /// Finished with a summary, by the recorded path.
    Done(Arc<RunSummary>, Provenance),
    /// The simulation failed (a worker panic). The job reports `failed`
    /// with this payload; a resubmission re-runs only the failed cells —
    /// their siblings are already cached.
    Failed(Failure),
}

/// One submitted spec and its per-cell progress. `cells` and `units` grow
/// in lockstep when a CI-targeted group is extended by one replicate.
struct Job {
    spec: SweepSpec,
    scenario: Arc<Scenario>,
    /// `(config index, replicate index)` of each cell slot.
    units: Vec<(usize, u32)>,
    cells: Vec<CellState>,
    groups: Vec<Group>,
    /// Explicit `[compare]` pairing `(baseline group, candidate group,
    /// alpha)`: under a `ci_target` these two groups stop **jointly**
    /// through the paired-delta criterion instead of their marginal CIs.
    pair: Option<(usize, usize, Alpha)>,
    started: Instant,
    wall_seconds: Option<f64>,
    /// When the job settled (all cells terminal) — the TTL clock.
    settled_at: Option<Instant>,
}

impl Job {
    fn done(&self) -> bool {
        self.cells.iter().all(|c| matches!(c, CellState::Done(..)))
    }

    fn failed(&self) -> bool {
        self.cells.iter().any(|c| matches!(c, CellState::Failed(_)))
    }

    /// No cell is pending: every slot is `Done` or `Failed`. (A job is
    /// reported `failed` as soon as one cell fails — fast-fail lets the
    /// client resubmit immediately — but it *settles*, for TTL and drain
    /// purposes, only when its in-flight siblings also land.)
    fn settled(&self) -> bool {
        !self.cells.iter().any(|c| matches!(c, CellState::Pending))
    }

    fn state(&self) -> &'static str {
        if self.failed() {
            "failed"
        } else if self.done() {
            "done"
        } else {
            "running"
        }
    }

    fn first_error(&self) -> Option<&Failure> {
        self.cells.iter().find_map(|c| match c {
            CellState::Failed(f) => Some(f),
            _ => None,
        })
    }

    fn count(&self, p: Provenance) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, CellState::Done(_, q) if *q == p))
            .count()
    }

    fn count_failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, CellState::Failed(_)))
            .count()
    }

    /// This config group's finished replicate summaries, in replicate
    /// order; `None` while any planned replicate is still pending (or
    /// failed — a failed replicate never aggregates and never extends).
    fn group_replicates(&self, config: usize) -> Option<Vec<Arc<RunSummary>>> {
        let mut reps: Vec<(u32, Arc<RunSummary>)> = Vec::new();
        for (&(c, r), cell) in self.units.iter().zip(&self.cells) {
            if c == config {
                match cell {
                    CellState::Done(s, _) => reps.push((r, Arc::clone(s))),
                    CellState::Pending | CellState::Failed(_) => return None,
                }
            }
        }
        reps.sort_unstable_by_key(|&(r, _)| r);
        Some(reps.into_iter().map(|(_, s)| s).collect())
    }

    fn replicates_saved(&self) -> u32 {
        self.groups.iter().map(|g| g.saved).sum()
    }

    /// Records settlement (idempotently) for the wall clock and TTL, and
    /// wakes every thread blocked on `settled` (the caller holds the
    /// `jobs` lock, so no waiter can miss the transition).
    fn note_settled(&mut self, settled: &Condvar) {
        if self.settled() && self.settled_at.is_none() {
            self.settled_at = Some(Instant::now());
            self.wall_seconds = Some(self.started.elapsed().as_secs_f64());
            settled.notify_all();
        }
    }

    fn status(&self, id: JobId) -> JobStatus {
        let simulated = self.count(Provenance::Simulated);
        let cached = self.count(Provenance::Cached);
        let coalesced = self.count(Provenance::Coalesced);
        let fetched = self.count(Provenance::Fetched);
        let failed = self.count_failed();
        let finished = simulated + cached + coalesced + fetched + failed;
        JobStatus {
            id,
            scenario: self.spec.scenario.name.clone(),
            state: self.state(),
            cells: self.cells.len(),
            simulated,
            cached,
            coalesced,
            fetched,
            failed,
            pending: self.cells.len() - finished,
            replicates_saved: self.replicates_saved() as usize,
            wall_seconds: self.wall_seconds,
            error: self.first_error().map(Failure::to_string),
        }
    }
}

/// A done job's per-config replicate summaries: the one result set that
/// `GET /v1/jobs/<id>/report`, `GET /v1/jobs/<id>/compare` and the local
/// `malec-cli run` / `compare` pipelines all render from.
#[derive(Clone, Debug)]
pub struct JobResults {
    /// The submitted spec.
    pub spec: SweepSpec,
    /// Per config group (spec order), every replicate summary in replicate
    /// order (index 0 is the base-seed run).
    pub groups: Vec<Vec<RunSummary>>,
    /// Wall-clock seconds from submit to settle.
    pub wall_seconds: f64,
}

impl JobResults {
    /// One report row per config group: replicate 0 carries the single-seed
    /// columns, the stats block (replicated specs only) the replicate
    /// distribution. Replay digests equal the generator digests (see
    /// [`CellResult::from_generated`]).
    pub fn cells(&self) -> Vec<CellResult> {
        let rep = self.spec.replication;
        self.groups
            .iter()
            .map(|reps| {
                let cell = CellResult::from_generated(reps[0].clone());
                if rep.replicated() {
                    cell.with_stats(ReplicateStats::from_replicates(reps, rep.seeds))
                } else {
                    cell
                }
            })
            .collect()
    }

    /// The replicate groups of the spec's resolved comparison —
    /// `(baseline, candidate, alpha)`, paired by replicate index.
    ///
    /// # Errors
    ///
    /// The spec's pairing does not resolve (see
    /// [`SweepSpec::resolve_compare`]).
    pub fn pair(&self) -> Result<(&[RunSummary], &[RunSummary], Alpha), SpecError> {
        let r = self.spec.resolve_compare()?;
        Ok((&self.groups[r.baseline], &self.groups[r.candidate], r.alpha))
    }

    /// The paired comparison over [`JobResults::pair`].
    ///
    /// # Errors
    ///
    /// As [`JobResults::pair`].
    pub fn compare(&self) -> Result<CompareStats, SpecError> {
        let (base, cand, alpha) = self.pair()?;
        Ok(CompareStats::from_pairs(
            base,
            cand,
            self.spec.replication.seeds,
            alpha,
        ))
    }

    /// Renders `cells` as the sweep report (the `malec-cli run` schema).
    pub fn render_report(
        &self,
        cells: &[CellResult],
        spec_path: &str,
        workers: usize,
        wall_seconds: f64,
    ) -> String {
        let spec = &self.spec;
        render(
            &ReportMeta {
                spec_path,
                scenario: &spec.scenario.name,
                segments: &spec.scenario.segment_labels(),
                mtr_path: &spec.mtr,
                insts: spec.insts,
                seed: spec.seed,
                seeds: spec.replication.seeds,
                workers,
                wall_seconds,
            },
            cells,
        )
    }

    /// Renders `stats` as the compare report (the `malec-cli compare`
    /// schema).
    pub fn render_compare(
        &self,
        stats: &CompareStats,
        spec_path: &str,
        workers: usize,
        wall_seconds: f64,
    ) -> String {
        let spec = &self.spec;
        render_compare(
            &CompareReportMeta {
                spec_path,
                scenario: &spec.scenario.name,
                segments: &spec.scenario.segment_labels(),
                insts: spec.insts,
                seed: spec.seed,
                seeds: spec.replication.seeds,
                workers,
                wall_seconds,
            },
            stats,
        )
    }
}

/// A point-in-time view of one job, served by `GET /v1/jobs/<id>`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Scenario name of the submitted spec.
    pub scenario: String,
    /// `"running"`, `"done"`, or `"failed"`.
    pub state: &'static str,
    /// Total cells.
    pub cells: usize,
    /// Cells finished by a fresh simulation.
    pub simulated: usize,
    /// Cells served from the result cache.
    pub cached: usize,
    /// Cells that attached to a concurrent identical simulation.
    pub coalesced: usize,
    /// Cells fetched from their owning peer's cache (sharded serving).
    pub fetched: usize,
    /// Cells whose simulation failed (see [`JobStatus::error`]).
    pub failed: usize,
    /// Cells still queued or simulating.
    pub pending: usize,
    /// Replicates the CI target saved across all cell groups so far.
    pub replicates_saved: usize,
    /// Wall-clock seconds from submit to completion (`None` while
    /// running).
    pub wall_seconds: Option<f64>,
    /// The first failed cell's `kind: detail` payload, if any.
    pub error: Option<String>,
}

impl JobStatus {
    /// Cells that completed without a simulation of their own.
    pub fn served_without_simulation(&self) -> usize {
        self.cached + self.coalesced + self.fetched
    }
}

/// Why a comparison cannot be served for a known job.
#[derive(Clone, Debug)]
pub enum CompareError {
    /// The job is still running; the status says how far along it is.
    Running(JobStatus),
    /// The job is done but has no comparable pair (message says why).
    NotComparable(String),
}

/// Waiters parked on an in-flight simulation.
type Waiters = Vec<(JobId, usize)>;

struct EngineInner {
    cache: Mutex<ResultCache>,
    /// Cells currently simulating, with the units parked on each.
    in_flight: Mutex<HashMap<u128, Waiters>>,
    jobs: Mutex<HashMap<JobId, Job>>,
    /// Signalled (under the `jobs` lock) whenever a job settles.
    settled: Condvar,
    queue: Mutex<VecDeque<WorkUnit>>,
    available: Condvar,
    stop: AtomicBool,
    next_job: AtomicU64,
    workers: usize,
    faults: Arc<Faults>,
    retain_done: usize,
    job_ttl: Option<Duration>,
    compact_threshold: Option<f64>,
    /// Workers respawned after a panic escaped the per-cell guard.
    respawns: AtomicU64,
    /// Sharded-serving map (`None`: standalone). Locked **alone**, always:
    /// readers clone the `Arc` out and release immediately, so this mutex
    /// never participates in any lock ordering.
    shard: Mutex<Option<Arc<ShardMap>>>,
}

/// The engine: owns the cache, the jobs, and the worker pool. Cheap to
/// share (`Engine::handle`); [`shutdown`](Engine::shutdown) joins the pool.
pub struct Engine {
    inner: Arc<EngineInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Builds an engine with `workers` pool threads (defaulting to the
    /// sweep fan-out [`worker_count`]) over an in-memory or persisted
    /// cache — [`with_options`](Self::with_options) with everything else
    /// defaulted.
    ///
    /// # Errors
    ///
    /// Propagates cache-log open errors.
    pub fn new(workers: Option<usize>, cache_path: Option<&Path>) -> io::Result<Self> {
        Self::with_options(EngineOptions {
            workers,
            cache_path: cache_path.map(Path::to_owned),
            ..EngineOptions::default()
        })
    }

    /// Builds an engine from explicit [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// Propagates cache-log open errors.
    pub fn with_options(opts: EngineOptions) -> io::Result<Self> {
        let cache = match &opts.cache_path {
            Some(p) => ResultCache::open_with(p, opts.fsync, Arc::clone(&opts.faults))?,
            None => ResultCache::in_memory(),
        }
        .with_max_bytes(opts.cache_max_bytes);
        let workers = opts.workers.unwrap_or_else(worker_count).max(1);
        let inner = Arc::new(EngineInner {
            cache: Mutex::new(cache),
            in_flight: Mutex::new(HashMap::new()),
            jobs: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            workers,
            faults: opts.faults,
            retain_done: opts.retain_done.max(1),
            job_ttl: opts.job_ttl,
            compact_threshold: opts.compact_threshold,
            respawns: AtomicU64::new(0),
            shard: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_guard(&inner))
            })
            .collect();
        Ok(Self {
            inner,
            handles: Mutex::new(handles),
        })
    }

    /// Pool size.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Workers respawned after a panic escaped the per-cell guard (0 in a
    /// healthy process).
    pub fn respawns(&self) -> u64 {
        self.inner.respawns.load(Ordering::Relaxed)
    }

    /// This engine's failpoint registry.
    pub fn faults(&self) -> &Arc<Faults> {
        &self.inner.faults
    }

    /// Shards `spec` into per-cell units — one per `(config, replicate)`
    /// pair, starting with the replication policy's initial count — and
    /// enqueues them; returns the job id immediately (cells complete
    /// asynchronously; CI-targeted groups may grow by one replicate at a
    /// time until they converge or hit the seed cap).
    pub fn submit(&self, spec: SweepSpec) -> JobId {
        self.submit_with_source(spec, None)
    }

    /// [`Engine::submit`] plus the scatter half of sharded serving: when a
    /// [`ShardMap`] is installed **and** `source` carries the job's
    /// original spec text, config groups owned by other peers are not
    /// enqueued locally — each remote cluster is forwarded to its owner as
    /// a `?configs=`-filtered sub-job and gathered back as
    /// [`Provenance::Fetched`] cells by a detached thread. An unreachable
    /// owner degrades to local simulation; the job never fails for
    /// topology reasons. Forwarded sub-jobs arrive *without* a source
    /// (the server hands `None` for forwarded submissions), so they run
    /// owner-local and the scatter cannot recurse.
    pub fn submit_with_source(&self, spec: SweepSpec, source: Option<Arc<str>>) -> JobId {
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        let scenario = Arc::new(spec.scenario.clone());
        let initial = spec.replication.initial_count();
        let mut units: Vec<WorkUnit> = Vec::new();
        let mut unit_map: Vec<(usize, u32)> = Vec::new();
        for (config_idx, config) in spec.configs.iter().enumerate() {
            for replicate in 0..initial {
                unit_map.push((config_idx, replicate));
                units.push(WorkUnit {
                    job: id,
                    cell: units.len(),
                    config: config.clone(),
                    scenario: Arc::clone(&scenario),
                    insts: spec.insts,
                    seed: spec.seed,
                    replicate,
                });
            }
        }
        let unit_cfgs: Vec<usize> = unit_map.iter().map(|&(c, _)| c).collect();
        let job = Job {
            cells: (0..units.len()).map(|_| CellState::Pending).collect(),
            units: unit_map,
            groups: spec
                .configs
                .iter()
                .map(|_| Group {
                    planned: initial,
                    converged: false,
                    saved: 0,
                })
                .collect(),
            // Only an explicit [compare] couples the pair's stopping rule
            // (a defaulted comparison over a plain spec is an aggregation
            // concern, not a scheduling one).
            pair: spec
                .compare
                .is_some()
                .then(|| spec.resolve_compare().ok())
                .flatten()
                .map(|r| (r.baseline, r.candidate, r.alpha)),
            scenario,
            spec,
            started: Instant::now(),
            wall_seconds: None,
            settled_at: None,
        };
        // Scatter decision happens before the job is visible: groups with a
        // remote owner are withheld from the local queue and handed to
        // gather threads instead. (Shard mutex is locked alone, as always.)
        let shard = lock(&self.inner.shard).clone();
        let remote: Vec<(String, Vec<usize>)> = match (&shard, &source) {
            (Some(shard), Some(_)) if shard.peers().len() > 1 => remote_clusters(&job, shard),
            _ => Vec::new(),
        };
        {
            let mut jobs = lock(&self.inner.jobs);
            jobs.insert(id, job);
        }
        self.expire_terminal();
        let forwarded: HashSet<usize> =
            remote.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        let local: Vec<WorkUnit> = units
            .into_iter()
            .filter(|u| !forwarded.contains(&unit_cfgs[u.cell]))
            .collect();
        if !local.is_empty() {
            let mut q = lock(&self.inner.queue);
            q.extend(local);
        }
        self.inner.available.notify_all();
        if let Some(source) = source {
            for (owner, cfgs) in remote {
                let inner = Arc::clone(&self.inner);
                let source = Arc::clone(&source);
                std::thread::spawn(move || gather_cluster(&inner, id, &owner, &cfgs, &source));
            }
        }
        id
    }

    /// Evicts expired terminal jobs: any settled longer than the TTL ago,
    /// then the oldest beyond the retention count. Runs at every submit;
    /// results stay in the cache — only per-job bookkeeping goes, and
    /// evicted ids answer like unknown ids.
    pub fn expire_terminal(&self) {
        let mut jobs = lock(&self.inner.jobs);
        if let Some(ttl) = self.inner.job_ttl {
            let now = Instant::now();
            jobs.retain(|_, j| match j.settled_at {
                Some(at) => now.duration_since(at) < ttl,
                None => true,
            });
        }
        let mut terminal: Vec<JobId> = jobs
            .iter()
            .filter(|(_, j)| j.settled())
            .map(|(&k, _)| k)
            .collect();
        if terminal.len() > self.inner.retain_done {
            terminal.sort_unstable();
            for k in &terminal[..terminal.len() - self.inner.retain_done] {
                jobs.remove(k);
            }
        }
    }

    /// The current status of `job`, or `None` for an unknown id.
    pub fn job_status(&self, job: JobId) -> Option<JobStatus> {
        lock(&self.inner.jobs).get(&job).map(|j| j.status(job))
    }

    /// Blocks until `job` settles (no cell pending) or `timeout` elapses
    /// (`None`: no deadline), then returns its status — `None` for an
    /// unknown id.
    pub fn wait_settled(&self, job: JobId, timeout: Option<Duration>) -> Option<JobStatus> {
        let (jobs, _) = self.wait_for(timeout, |jobs| jobs.get(&job).is_none_or(Job::settled));
        jobs.get(&job).map(|j| j.status(job))
    }

    /// Waits on the settle notification until `done` holds over the job
    /// table or `timeout` elapses (`None`: no deadline). Returns the held
    /// `jobs` guard and whether `done` held.
    fn wait_for(
        &self,
        timeout: Option<Duration>,
        done: impl Fn(&HashMap<JobId, Job>) -> bool,
    ) -> (MutexGuard<'_, HashMap<JobId, Job>>, bool) {
        let until = timeout.map(|t| Instant::now() + t);
        let mut jobs = lock(&self.inner.jobs);
        loop {
            if done(&jobs) {
                return (jobs, true);
            }
            jobs = match until {
                None => self
                    .inner
                    .settled
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return (jobs, false);
                    }
                    self.inner
                        .settled
                        .wait_timeout(jobs, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// The done job's per-config replicate summaries, or `None` for an
    /// unknown id, or `Some(Err(status))` while the job is running or after
    /// it failed.
    pub fn job_results(&self, job: JobId) -> Option<Result<JobResults, JobStatus>> {
        let (spec, groups, wall_seconds) = {
            let jobs = lock(&self.inner.jobs);
            let j = jobs.get(&job)?;
            if !j.done() {
                return Some(Err(j.status(job)));
            }
            let groups: Vec<Vec<Arc<RunSummary>>> = (0..j.spec.configs.len())
                .map(|c| {
                    j.group_replicates(c)
                        .expect("job is done, every replicate finished")
                })
                .collect();
            (j.spec.clone(), groups, j.wall_seconds.unwrap_or(0.0))
        };
        let groups = groups
            .iter()
            .map(|reps| reps.iter().map(|s| (**s).clone()).collect())
            .collect();
        Some(Ok(JobResults {
            spec,
            groups,
            wall_seconds,
        }))
    }

    /// The finished job's report (same JSON schema as `malec-cli run`
    /// writes), or `None` for an unknown id, or `Some(Err(status))` while
    /// the job is still running.
    pub fn job_report(&self, job: JobId) -> Option<Result<String, JobStatus>> {
        Some(self.job_results(job)?.map(|r| {
            r.render_report(
                &r.cells(),
                &format!("job:{job}"),
                self.inner.workers,
                r.wall_seconds,
            )
        }))
    }

    /// The finished job's **paired comparison report** (the `malec-cli
    /// compare` JSON schema), assembled purely from the job's cache-keyed
    /// per-replicate cells — no simulation happens here, so a job served
    /// 100 % from cache compares for free. Pairs replicate `i` of the
    /// baseline group with replicate `i` of the candidate group (shared
    /// seed); the pairing comes from the spec's `[compare]` section or the
    /// default (Base1ldst vs MALEC at `alpha = 0.05`).
    ///
    /// Returns `None` for an unknown id; `Some(Err(..))` while the job is
    /// still running ([`CompareError::Running`]) or when the job cannot be
    /// compared ([`CompareError::NotComparable`] — pair not in the job's
    /// configs, or a single-seed sweep).
    pub fn job_compare(&self, job: JobId) -> Option<Result<String, CompareError>> {
        let r = match self.job_results(job)? {
            Ok(r) => r,
            Err(status) => return Some(Err(CompareError::Running(status))),
        };
        Some(match r.compare() {
            Ok(stats) => Ok(r.render_compare(
                &stats,
                &format!("job:{job}"),
                self.inner.workers,
                r.wall_seconds,
            )),
            Err(e) => Err(CompareError::NotComparable(e.to_string())),
        })
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.inner.cache).stats()
    }

    /// The cache-log path, if the cache is persisted.
    pub fn cache_path(&self) -> Option<std::path::PathBuf> {
        lock(&self.inner.cache).path().map(Path::to_owned)
    }

    /// Forces the cache log to stable storage (the graceful-shutdown
    /// flush; no-op for an in-memory cache).
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure.
    pub fn sync_cache(&self) -> io::Result<()> {
        lock(&self.inner.cache).sync()
    }

    /// Compacts the persisted cache log down to its live record set (see
    /// [`ResultCache::compact`]) — the `POST /v1/cache/compact` handler
    /// and the `--compact-threshold` trigger share this path.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an in-memory cache; otherwise propagates the
    /// rewrite's I/O errors (the live log is untouched on failure).
    pub fn compact_cache(&self) -> io::Result<CompactOutcome> {
        lock(&self.inner.cache).compact()
    }

    /// The live record set as shared summaries plus the exact cache-log
    /// byte length of the `GET /v1/cache/sync` body a fresh peer warms up
    /// from — the chunked sync handler streams from this without
    /// materializing the whole log.
    pub fn sync_records(&self) -> (Vec<(u128, Arc<RunSummary>)>, u64) {
        lock(&self.inner.cache).live_records()
    }

    /// Installs the sharded-serving map: from now on this engine forwards
    /// remotely-owned config groups at submit (when given the spec source)
    /// and asks owners before simulating cells it does not own.
    pub fn set_shard(&self, shard: ShardMap) {
        *lock(&self.inner.shard) = Some(Arc::new(shard));
    }

    /// The configured peer set (sorted, self included), or empty when
    /// standalone — the `peers` array of `/v1/healthz`.
    pub fn shard_peers(&self) -> Vec<String> {
        lock(&self.inner.shard)
            .as_ref()
            .map(|s| s.peers().iter().map(|p| p.as_str().to_owned()).collect())
            .unwrap_or_default()
    }

    /// One cached record in single-record cache-log format (header + one
    /// record), or `None` on a miss — the `GET /v1/cache/record/<key>`
    /// response body. Counts as a cache hit: a peer fetching this record
    /// is serving it to a job, same as a local lookup would.
    pub fn cache_record(&self, key: u128) -> Option<Vec<u8>> {
        let summary = lock(&self.inner.cache).lookup(key)?;
        let mut body = crate::cache::log_header().to_vec();
        body.extend_from_slice(&crate::cache::encode_record(key, &summary));
        Some(body)
    }

    /// Warms this engine's cache from a peer's `/v1/cache/sync` stream,
    /// verifying every record's checksum and persisting each one not
    /// already resident. Meant to run before serving traffic (`malec-cli
    /// serve --warm-from`): the cache lock is held for the whole ingest.
    ///
    /// # Errors
    ///
    /// Propagates connection errors, a non-200 peer answer, a stream that
    /// is not a cache log, and local append failures.
    pub fn warm_from(&self, addr: &str) -> io::Result<SyncReport> {
        let (status, _, mut stream) =
            crate::http::request_stream(addr, "GET", "/v1/cache/sync", Duration::from_secs(60))?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "peer {addr} answered {status} to GET /v1/cache/sync"
            )));
        }
        lock(&self.inner.cache).ingest(&mut stream)
    }

    /// Waits until every job settles (no cell pending — done or failed) or
    /// `deadline` elapses; returns whether everything settled. The drain
    /// half of graceful shutdown: the caller stops *submitting* first, so
    /// the pool runs the backlog dry.
    pub fn drain(&self, deadline: Duration) -> bool {
        self.wait_for(Some(deadline), |jobs| jobs.values().all(Job::settled))
            .1
    }

    /// Stops the pool after the current units finish and joins every
    /// worker. Queued-but-unstarted units are dropped; their jobs stay
    /// `running` forever, which only matters at process exit (drain first
    /// for a graceful stop).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        let mut handles = lock(&self.handles);
        for h in handles.drain(..) {
            // Report rather than re-panic: shutdown also runs from Drop,
            // and a panic inside Drop during unwinding aborts the process
            // with no diagnostic. (With the respawn guard in place a
            // worker handle only errors if the *guard itself* panicked.)
            if h.join().is_err() {
                eprintln!("malec-serve: a worker thread panicked; its cells stay unfinished");
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The outer guard every pool thread runs under: a panic that escapes
/// [`worker_loop`] — i.e. one *outside* the per-cell `catch_unwind`, which
/// should never happen but must not silently shrink the pool — is caught
/// here and the loop re-entered in place (same thread, same handle, so
/// [`Engine::shutdown`] still joins it).
fn worker_guard(inner: &EngineInner) {
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(inner))) {
            Ok(()) => return, // clean stop
            Err(_) => {
                inner.respawns.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "malec-serve: worker panicked outside the cell guard; respawning in place"
                );
            }
        }
    }
}

fn worker_loop(inner: &EngineInner) {
    loop {
        // The loop-level failpoint sits BEFORE the queue pop: a panic here
        // exercises the respawn guard without orphaning a popped unit.
        if let Some(FaultAction::Panic) = inner.faults.check("worker.loop.panic") {
            panic!("injected worker-loop panic (failpoint worker.loop.panic)");
        }
        let unit = {
            let mut q = lock(&inner.queue);
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                match q.pop_front() {
                    Some(unit) => break unit,
                    None => {
                        q = inner
                            .available
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        process(inner, unit);
    }
}

/// What the claim step decided for one unit.
enum Claim {
    Hit(Arc<RunSummary>),
    Parked,
    Run,
}

fn process(inner: &EngineInner, unit: WorkUnit) {
    let key = cache_key(
        &unit.config,
        &unit.scenario,
        unit.insts,
        unit.seed,
        unit.replicate,
    );
    let claim = {
        // Lock order: cache before in_flight, here and in the completion
        // path below.
        let mut cache = lock(&inner.cache);
        let mut in_flight = lock(&inner.in_flight);
        match cache.lookup(key) {
            Some(summary) => Claim::Hit(summary),
            None => match in_flight.get_mut(&key) {
                Some(waiters) => {
                    waiters.push((unit.job, unit.cell));
                    cache.count_coalesced();
                    Claim::Parked
                }
                None => {
                    in_flight.insert(key, Vec::new());
                    Claim::Run
                }
            },
        }
    };
    match claim {
        Claim::Hit(summary) => finish_cell(inner, unit.job, unit.cell, summary, Provenance::Cached),
        Claim::Parked => {}
        Claim::Run => {
            // Sharded serving: a cell this peer does not own is first asked
            // from its owner. Cells route by their *group* key (the
            // replicate-0 key), so a whole config group lands on one owner
            // and its replication growth stays owner-local. A dead or
            // missing owner degrades to local simulation below.
            let shard = lock(&inner.shard).clone();
            if let Some(shard) = shard {
                let route = if unit.replicate == 0 {
                    key
                } else {
                    cache_key(&unit.config, &unit.scenario, unit.insts, unit.seed, 0)
                };
                if !shard.is_owner(route) {
                    let owner = shard.owner(route).as_str().to_owned();
                    match fetch_from_owner(&owner, key) {
                        Ok(summary) => {
                            lock(&inner.cache).count_fetched();
                            complete_run(
                                inner,
                                &unit,
                                key,
                                &Arc::new(summary),
                                Provenance::Fetched,
                            );
                            return;
                        }
                        Err(failure) => eprintln!(
                            "malec-serve: fetch of key {key:032x} from owner {owner} failed \
                             ({failure}); simulating locally"
                        ),
                    }
                }
            }
            // A miss is counted where the simulation actually starts, so a
            // cluster-wide sum of per-peer misses equals cells simulated
            // exactly once (peer-fetched cells count as fetches, not
            // misses).
            lock(&inner.cache).count_miss();
            inner.faults.check_delay("engine.cell.slow");
            // The per-cell panic guard: a panicking simulation (real bug
            // or the worker.panic failpoint) fails this cell — and every
            // waiter parked on it — with the panic payload, instead of
            // killing the worker thread.
            let simulated = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(FaultAction::Panic) = inner.faults.check("worker.panic") {
                    panic!("injected worker panic (failpoint worker.panic)");
                }
                Simulator::new(unit.config.clone())
                    .run_source(
                        &ScenarioSource::Scenario((*unit.scenario).clone()),
                        unit.insts,
                        replicate_seed(unit.seed, unit.replicate),
                    )
                    .expect("generator sources cannot fail")
            }));
            let summary = match simulated {
                Ok(summary) => Arc::new(summary),
                Err(payload) => {
                    // Release the claim first: a resubmitted cell must be
                    // able to start a fresh simulation, not park behind a
                    // claim nobody will ever finish.
                    let waiters = lock(&inner.in_flight).remove(&key).unwrap_or_default();
                    let failure = Failure::panic(panic_detail(payload.as_ref()));
                    eprintln!(
                        "malec-serve: cell simulation panicked ({}); job {} cell {} failed",
                        failure.detail, unit.job, unit.cell
                    );
                    fail_cell(inner, unit.job, unit.cell, failure.clone());
                    for (job, cell) in waiters {
                        fail_cell(inner, job, cell, failure.clone());
                    }
                    return;
                }
            };
            complete_run(inner, &unit, key, &summary, Provenance::Simulated);
        }
    }
}

/// Lands a completed cell, however it completed (own simulation or a fetch
/// from the owning peer): publishes the summary and releases the in-flight
/// claim (cache before in_flight — the one permitted nesting), persists
/// outside the locks, then finishes the owning cell with `provenance` and
/// every parked waiter as [`Provenance::Coalesced`].
fn complete_run(
    inner: &EngineInner,
    unit: &WorkUnit,
    key: u128,
    summary: &Arc<RunSummary>,
    provenance: Provenance,
) {
    let (waiters, appender) = {
        let mut cache = lock(&inner.cache);
        let mut in_flight = lock(&inner.in_flight);
        cache.insert(key, Arc::clone(summary));
        (in_flight.remove(&key).unwrap_or_default(), cache.appender())
    };
    // Persist outside the map/in-flight locks: a disk flush must
    // not block concurrent claim steps. The key is already resident
    // in memory, so no other worker can race this append.
    if let Some(appender) = appender {
        match appender.append(key, summary) {
            Ok(bytes) => {
                let mut cache = lock(&inner.cache);
                cache.note_appended(bytes);
                maybe_compact(inner, &mut cache);
            }
            // The in-memory entry took effect; losing persistence
            // costs warm restarts, not correctness. (A torn append
            // was already rolled back in place by the appender.)
            Err(e) => eprintln!("malec-serve: cache append failed: {e}"),
        }
    }
    finish_cell(inner, unit.job, unit.cell, Arc::clone(summary), provenance);
    for (job, cell) in waiters {
        finish_cell(inner, job, cell, Arc::clone(summary), Provenance::Coalesced);
    }
}

/// Asks `owner` for the record of `key` over the retrying client. Every
/// failure maps to [`FailureKind::Unavailable`]; the caller's recourse is
/// local simulation, never failing the cell.
fn fetch_from_owner(owner: &str, key: u128) -> Result<RunSummary, Failure> {
    Client::new(owner)
        .with_retry(RetryPolicy::retries(FETCH_RETRIES))
        .fetch_record(key)
        .map_err(|e| Failure::new(FailureKind::Unavailable, e))
}

/// How long a gather thread waits for a forwarded sub-job to finish.
const GATHER_TIMEOUT: Duration = Duration::from_secs(600);
/// Retries for the scatter/gather calls against an owning peer.
const GATHER_RETRIES: u32 = 2;
/// Retries for a per-cell record fetch from an owning peer.
const FETCH_RETRIES: u32 = 2;

/// Partitions a job's config groups into ownership clusters and keeps the
/// remotely-owned ones: an explicit `[compare]` pair is **one** cluster
/// (routed by the baseline's replicate-0 key, so paired joint growth stays
/// on one owner); every other config is a singleton routed by its own
/// replicate-0 key.
fn remote_clusters(j: &Job, shard: &ShardMap) -> Vec<(String, Vec<usize>)> {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let paired: HashSet<usize> = match j.pair {
        Some((b, c, _)) => {
            clusters.push(vec![b, c]);
            [b, c].into_iter().collect()
        }
        None => HashSet::new(),
    };
    for idx in 0..j.spec.configs.len() {
        if !paired.contains(&idx) {
            clusters.push(vec![idx]);
        }
    }
    clusters
        .into_iter()
        .filter_map(|cfgs| {
            let route = cache_key(
                &j.spec.configs[cfgs[0]],
                &j.scenario,
                j.spec.insts,
                j.spec.seed,
                0,
            );
            (!shard.is_owner(route)).then(|| (shard.owner(route).as_str().to_owned(), cfgs))
        })
        .collect()
}

/// Gather thread for one remote cluster: forward, wait, fetch, land. Any
/// failure — owner down, sub-job failed, a record missing — falls back to
/// enqueueing the cluster's pending cells locally, so topology never fails
/// a job (the cells simulate here exactly as a standalone server would).
fn gather_cluster(inner: &Arc<EngineInner>, job: JobId, owner: &str, cfgs: &[usize], source: &str) {
    if let Err(detail) = gather_remote(inner, job, owner, cfgs, source) {
        let failure = Failure::new(FailureKind::Unavailable, detail);
        eprintln!(
            "malec-serve: gather from owner {owner} for job {job} failed ({failure}); \
             falling back to local simulation"
        );
        enqueue_cluster_locally(inner, job, cfgs);
    }
}

/// The success path of [`gather_cluster`]: submits the cluster's configs
/// to their owner as a `?configs=`-filtered sub-job, waits with the
/// backoff client, fetches **every** per-replicate record before landing
/// any (all-or-nothing: a partial gather falls back cleanly), then grows
/// the local groups to the owner's converged counts and finishes each
/// cell as [`Provenance::Fetched`].
fn gather_remote(
    inner: &Arc<EngineInner>,
    job: JobId,
    owner: &str,
    cfgs: &[usize],
    source: &str,
) -> Result<(), String> {
    let (labels, snapshot, scenario, insts, seed) = {
        let jobs = lock(&inner.jobs);
        let j = jobs
            .get(&job)
            .ok_or_else(|| "job expired before gather started".to_owned())?;
        (
            cfgs.iter()
                .map(|&c| j.spec.configs[c].label())
                .collect::<Vec<String>>(),
            cfgs.iter()
                .map(|&c| j.spec.configs[c].clone())
                .collect::<Vec<SimConfig>>(),
            Arc::clone(&j.scenario),
            j.spec.insts,
            j.spec.seed,
        )
    };
    let client = Client::new(owner).with_retry(RetryPolicy::retries(GATHER_RETRIES));
    let sub = client.submit_configs(source, &labels)?;
    let view = client.wait(sub, GATHER_TIMEOUT)?;
    if view.state != "done" {
        return Err(format!(
            "sub-job {sub} at {owner} ended {}{}",
            view.state,
            view.error.map(|e| format!(" ({e})")).unwrap_or_default()
        ));
    }
    if view.cells == 0 || view.cells % cfgs.len() as u64 != 0 {
        return Err(format!(
            "sub-job {sub} at {owner} reported {} cells for {} configs",
            view.cells,
            cfgs.len()
        ));
    }
    // The pair (and any singleton) grows every group in the cluster in
    // lockstep, so per-group counts divide evenly.
    let per_group = (view.cells / cfgs.len() as u64) as u32;
    let saved_per_group = (view.replicates_saved / cfgs.len() as u64) as u32;
    let mut fetched: Vec<(usize, u32, u128, Arc<RunSummary>)> = Vec::new();
    for (ci, config) in cfgs.iter().zip(&snapshot) {
        for r in 0..per_group {
            let key = cache_key(config, &scenario, insts, seed, r);
            let summary = client.fetch_record(key)?;
            fetched.push((*ci, r, key, Arc::new(summary)));
        }
    }
    // Persist into the local cache (lock taken alone): losing an append
    // costs warm restarts, not correctness, so append errors only log.
    {
        let mut cache = lock(&inner.cache);
        for (_, _, key, summary) in &fetched {
            if !cache.contains(*key) {
                cache.count_fetched();
                if let Err(e) = cache.insert_persist(*key, Arc::clone(summary)) {
                    eprintln!("malec-serve: cache append failed: {e}");
                }
            }
        }
    }
    let cells: Vec<(usize, Arc<RunSummary>)> = {
        let mut jobs = lock(&inner.jobs);
        let j = jobs
            .get_mut(&job)
            .ok_or_else(|| "job expired during gather".to_owned())?;
        for &ci in cfgs {
            if per_group < j.groups[ci].planned {
                return Err(format!(
                    "sub-job {sub} at {owner} returned {per_group} replicates for `{}`, \
                     fewer than the {} already planned",
                    j.spec.configs[ci].label(),
                    j.groups[ci].planned
                ));
            }
            // Grow the group to the owner's count and mark it converged
            // BEFORE any cell finishes: the owner already ran the stopping
            // rule, so extend_after_finish must be a no-op here.
            for r in j.groups[ci].planned..per_group {
                j.units.push((ci, r));
                j.cells.push(CellState::Pending);
            }
            let g = &mut j.groups[ci];
            g.planned = per_group;
            g.converged = true;
            g.saved = saved_per_group;
        }
        fetched
            .iter()
            .map(|(ci, r, _, summary)| {
                j.units
                    .iter()
                    .position(|&(c, rr)| c == *ci && rr == *r)
                    .map(|cell| (cell, Arc::clone(summary)))
                    .ok_or_else(|| format!("no cell slot for config {ci} replicate {r}"))
            })
            .collect::<Result<_, _>>()?
    };
    for (cell, summary) in cells {
        finish_cell(inner, job, cell, summary, Provenance::Fetched);
    }
    Ok(())
}

/// The fallback half of [`gather_cluster`]: enqueues every still-pending
/// cell of the cluster's configs for local simulation.
fn enqueue_cluster_locally(inner: &Arc<EngineInner>, job: JobId, cfgs: &[usize]) {
    let units: Vec<WorkUnit> = {
        let jobs = lock(&inner.jobs);
        let Some(j) = jobs.get(&job) else {
            return;
        };
        j.units
            .iter()
            .enumerate()
            .filter(|&(cell, &(ci, _))| {
                cfgs.contains(&ci) && matches!(j.cells[cell], CellState::Pending)
            })
            .map(|(cell, &(ci, replicate))| WorkUnit {
                job,
                cell,
                config: j.spec.configs[ci].clone(),
                scenario: Arc::clone(&j.scenario),
                insts: j.spec.insts,
                seed: j.spec.seed,
                replicate,
            })
            .collect()
    };
    if !units.is_empty() {
        let mut q = lock(&inner.queue);
        q.extend(units);
        drop(q);
        inner.available.notify_all();
    }
}

/// Auto-compaction floor: a log smaller than this never auto-compacts,
/// whatever its dead ratio — rewriting a near-empty log over and over buys
/// nothing.
const MIN_AUTO_COMPACT_BYTES: u64 = 4096;

/// The `--compact-threshold` trigger, run after every successful append
/// (under the cache lock the caller already holds): once dead bytes reach
/// the configured fraction of the log's payload, rewrite in place. A
/// failed compaction is logged and retried naturally at the next append.
fn maybe_compact(inner: &EngineInner, cache: &mut ResultCache) {
    let Some(threshold) = inner.compact_threshold else {
        return;
    };
    let stats = cache.stats();
    if stats.log_bytes < MIN_AUTO_COMPACT_BYTES || cache.dead_ratio() < threshold {
        return;
    }
    match cache.compact() {
        Ok(o) => eprintln!(
            "malec-serve: auto-compacted cache log {} -> {} bytes ({} live records)",
            o.bytes_before, o.bytes_after, o.records
        ),
        Err(e) => eprintln!("malec-serve: auto-compaction failed: {e}"),
    }
}

/// Renders a caught panic payload as the human-readable failure detail.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Marks one cell failed (idempotently — a cell can only fail out of
/// `Pending`) and settles the job if that was its last outstanding cell.
fn fail_cell(inner: &EngineInner, job: JobId, cell: usize, failure: Failure) {
    let mut jobs = lock(&inner.jobs);
    let Some(j) = jobs.get_mut(&job) else {
        return;
    };
    if matches!(j.cells[cell], CellState::Pending) {
        j.cells[cell] = CellState::Failed(failure);
    }
    j.note_settled(&inner.settled);
}

fn finish_cell(
    inner: &EngineInner,
    job: JobId,
    cell: usize,
    summary: Arc<RunSummary>,
    provenance: Provenance,
) {
    let new_units = {
        let mut jobs = lock(&inner.jobs);
        let Some(j) = jobs.get_mut(&job) else {
            return;
        };
        if matches!(j.cells[cell], CellState::Pending) {
            j.cells[cell] = CellState::Done(summary, provenance);
        }
        let (config_idx, _) = j.units[cell];
        let new_units = extend_after_finish(j, job, config_idx);
        j.note_settled(&inner.settled);
        new_units
    };
    // Enqueue outside the jobs lock (lock order everywhere: jobs before
    // queue is never held; queue is only ever taken alone).
    if !new_units.is_empty() {
        let mut q = lock(&inner.queue);
        q.extend(new_units);
        drop(q);
        inner.available.notify_all();
    }
}

/// Replication step after one cell of `config_idx` finished. Groups paired
/// by an explicit `[compare]` section route to [`extend_pair`] (the paired
/// delta is their stopping criterion); every other group keeps the
/// marginal rule of [`extend_group`].
fn extend_after_finish(j: &mut Job, job: JobId, config_idx: usize) -> Vec<WorkUnit> {
    if let Some((b, c, alpha)) = j.pair {
        if config_idx == b || config_idx == c {
            return extend_pair(j, job, b, c, alpha);
        }
    }
    extend_group(j, job, config_idx).into_iter().collect()
}

/// Marginal replication step for one config group: once every planned
/// replicate has finished, either certify convergence (CI target met, or
/// the seed cap reached) or grow the group by exactly one replicate.
/// Growing one at a time makes the final count the smallest prefix
/// satisfying the policy — the same count a serial driver picks.
fn extend_group(j: &mut Job, job: JobId, config_idx: usize) -> Option<WorkUnit> {
    let rep = j.spec.replication;
    if j.groups[config_idx].converged {
        return None;
    }
    let replicates = j.group_replicates(config_idx)?;
    if rep.converged(replicates.iter().map(Arc::as_ref)) {
        certify(j, job, config_idx);
        return None;
    }
    Some(push_unit(j, job, config_idx))
}

/// Paired replication step for the `[compare]` groups: once **both**
/// groups' planned replicates have finished, either certify joint
/// convergence (the paired-delta criterion of
/// [`malec_core::compare::paired_converged`], a pure prefix function) or
/// grow *both* groups by one shared seed.
fn extend_pair(j: &mut Job, job: JobId, b: usize, c: usize, alpha: Alpha) -> Vec<WorkUnit> {
    let rep = j.spec.replication;
    if j.groups[b].converged || j.groups[c].converged {
        return Vec::new();
    }
    let (Some(base), Some(cand)) = (j.group_replicates(b), j.group_replicates(c)) else {
        return Vec::new(); // one side still has pending replicates
    };
    let n = base.len().min(cand.len());
    let pairs = (0..n).map(|i| (base[i].as_ref(), cand[i].as_ref()));
    if paired_converged(&rep, alpha, pairs) {
        certify(j, job, b);
        certify(j, job, c);
        return Vec::new();
    }
    vec![push_unit(j, job, b), push_unit(j, job, c)]
}

/// Marks one group converged and prices what the CI target saved.
fn certify(j: &mut Job, job: JobId, config_idx: usize) {
    let rep = j.spec.replication;
    let g = &mut j.groups[config_idx];
    g.converged = true;
    g.saved = rep.seeds.saturating_sub(g.planned);
    if g.saved > 0 {
        eprintln!(
            "malec-serve: job {job} `{}` converged after {}/{} replicates ({} saved)",
            j.spec.configs[config_idx].label(),
            g.planned,
            rep.seeds,
            g.saved,
        );
    }
}

/// Appends one more replicate slot to a group and builds its work unit.
fn push_unit(j: &mut Job, job: JobId, config_idx: usize) -> WorkUnit {
    let replicate = j.groups[config_idx].planned;
    j.groups[config_idx].planned += 1;
    j.units.push((config_idx, replicate));
    j.cells.push(CellState::Pending);
    WorkUnit {
        job,
        cell: j.cells.len() - 1,
        config: j.spec.configs[config_idx].clone(),
        scenario: Arc::clone(&j.scenario),
        insts: j.spec.insts,
        seed: j.spec.seed,
        replicate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;
    use std::time::Duration;

    const SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                        [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 2000\nseed = 5\n";

    fn wait_settled(engine: &Engine, job: JobId) -> JobStatus {
        let status = engine
            .wait_settled(job, Some(Duration::from_secs(60)))
            .expect("job exists");
        assert_eq!(status.pending, 0, "job {job} never settled");
        status
    }

    fn wait_done(engine: &Engine, job: JobId) -> JobStatus {
        let status = wait_settled(engine, job);
        assert_eq!(status.state, "done", "job {job} did not finish");
        status
    }

    #[test]
    fn submit_runs_to_done_and_resubmit_is_fully_cached() {
        let engine = Engine::new(Some(2), None).expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let first = engine.submit(spec.clone());
        let status = wait_done(&engine, first);
        assert_eq!(status.cells, 2);
        assert_eq!(status.simulated, 2, "cold cache simulates everything");
        assert!(status.wall_seconds.is_some());

        let second = engine.submit(spec);
        let status = wait_done(&engine, second);
        assert_eq!(
            status.served_without_simulation(),
            status.cells,
            "an identical resubmission must not simulate anything"
        );
        assert_eq!(status.simulated, 0);
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.hits >= 2);
        engine.shutdown();
    }

    #[test]
    fn reports_are_identical_across_cache_paths() {
        let engine = Engine::new(Some(2), None).expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let a = engine.submit(spec.clone());
        wait_done(&engine, a);
        let b = engine.submit(spec);
        wait_done(&engine, b);
        let ra = engine.job_report(a).expect("known").expect("done");
        let rb = engine.job_report(b).expect("known").expect("done");
        // Same cells block bit for bit; only the job id and wall clock may
        // differ.
        let cells = |r: &str| r[r.find("\"cells\": [").expect("cells")..].to_owned();
        assert_eq!(cells(&ra), cells(&rb));
        engine.shutdown();
    }

    #[test]
    fn resubmission_with_more_seeds_only_simulates_the_new_replicates() {
        let engine = Engine::new(Some(2), None).expect("engine");
        let base = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                    [sweep]\nconfigs = [\"MALEC\"]\ninsts = 2000\nseed = 5\nseeds = ";
        let four = parse_spec(&format!("{base}4\n")).expect("spec");
        let eight = parse_spec(&format!("{base}8\n")).expect("spec");

        let first = engine.submit(four);
        let status = wait_done(&engine, first);
        assert_eq!(status.cells, 4, "1 config x 4 replicates");
        assert_eq!(status.simulated, 4);

        let second = engine.submit(eight);
        let status = wait_done(&engine, second);
        assert_eq!(status.cells, 8);
        assert_eq!(
            status.simulated, 4,
            "replicates 0-3 are cache hits; only 4-7 simulate"
        );
        assert_eq!(status.cached, 4);
        assert_eq!(engine.cache_stats().entries, 8);

        // The report carries replicate statistics for every cell group.
        let report = engine.job_report(second).expect("known").expect("done");
        assert!(report.contains("\"replicates\": 8"), "{report}");
        assert!(report.contains("\"metrics\""));
        engine.shutdown();
    }

    #[test]
    fn ci_target_stops_spawning_replicates_and_reports_the_savings() {
        let engine = Engine::new(Some(2), None).expect("engine");
        // A generous 50% relative CI target converges at min_seeds for any
        // sane workload, saving the rest of the 16-seed budget.
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 2000\nseed = 5\n\
             seeds = 16\nmin_seeds = 3\nci_target = 0.5\n",
        )
        .expect("spec");
        let job = engine.submit(spec);
        let status = wait_done(&engine, job);
        assert!(
            status.cells < 16,
            "early stopping must cut the replicate count, got {}",
            status.cells
        );
        assert!(status.cells >= 3, "never below min_seeds");
        assert_eq!(
            status.replicates_saved,
            16 - status.cells,
            "savings are reported"
        );
        let report = engine.job_report(job).expect("known").expect("done");
        assert!(
            report.contains(&format!(
                "\"replicates_saved\": {}",
                status.replicates_saved
            )),
            "{report}"
        );
        engine.shutdown();
    }

    #[test]
    fn unknown_job_is_none_and_running_report_is_err() {
        let engine = Engine::new(Some(1), None).expect("engine");
        assert!(engine.job_status(999).is_none());
        assert!(engine.job_report(999).is_none());
        assert!(engine.job_compare(999).is_none());
        engine.shutdown();
    }

    #[test]
    fn compare_reports_assemble_from_replicate_cells_and_match_local_pairing() {
        use malec_core::compare::{compare_digest, Alpha, CompareStats};
        let engine = Engine::new(Some(2), None).expect("engine");
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n\
             [sweep]\ninsts = 2000\nseed = 5\nseeds = 4\n",
        )
        .expect("spec");
        let job = engine.submit(spec.clone());
        let status = wait_done(&engine, job);
        assert_eq!(status.cells, 8, "2 configs x 4 shared seeds");
        let report = engine.job_compare(job).expect("known").expect("done");
        assert!(report.contains("\"bench\": \"malec_compare\""), "{report}");
        assert!(report.contains("\"verdict\""));

        // The served digest equals a locally assembled pairing over the
        // same seeds — the endpoint is pure aggregation, no simulation.
        use malec_core::stats::replicate_seed;
        use malec_core::{ScenarioSource, Simulator};
        let source = ScenarioSource::Scenario(spec.scenario.clone());
        let runs = |cfg: &malec_types::SimConfig| -> Vec<malec_core::RunSummary> {
            (0..4)
                .map(|r| {
                    Simulator::new(cfg.clone())
                        .run_source(&source, spec.insts, replicate_seed(spec.seed, r))
                        .expect("generator sources cannot fail")
                })
                .collect()
        };
        let stats = CompareStats::from_pairs(
            &runs(&spec.configs[0]),
            &runs(&spec.configs[1]),
            4,
            Alpha::Five,
        );
        assert!(
            report.contains(&format!("{:#018x}", compare_digest(&stats))),
            "served deltas must be bit-identical to the local pairing"
        );
        engine.shutdown();
    }

    #[test]
    fn paired_ci_target_stops_both_groups_jointly() {
        let engine = Engine::new(Some(3), None).expect("engine");
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [compare]\n\
             [sweep]\ninsts = 2000\nseed = 5\nseeds = 16\nmin_seeds = 3\nci_target = 0.5\n",
        )
        .expect("spec");
        let job = engine.submit(spec);
        let status = wait_done(&engine, job);
        assert!(
            status.cells < 32,
            "paired early stopping must cut the pair count, got {}",
            status.cells
        );
        assert_eq!(
            status.cells % 2,
            0,
            "the pair grows jointly: both sides always hold the same count"
        );
        assert!(status.cells >= 6, "never below min_seeds per side");
        let report = engine.job_compare(job).expect("known").expect("done");
        let n = status.cells / 2;
        assert!(report.contains(&format!("\"replicates\": {n}")), "{report}");
        assert!(report.contains(&format!("\"replicates_saved\": {}", 16 - n)));
        engine.shutdown();
    }

    #[test]
    fn injected_cell_panic_fails_the_job_and_resubmission_recovers() {
        let faults = Faults::disarmed();
        // The first simulated cell panics; every later cell is clean.
        faults.arm("worker.panic", 1, None);
        let engine = Engine::with_options(EngineOptions {
            workers: Some(1), // serial: the panic lands on cell 0
            faults: faults.clone(),
            ..EngineOptions::default()
        })
        .expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let first = engine.submit(spec.clone());
        let status = wait_settled(&engine, first);
        assert_eq!(status.state, "failed");
        assert_eq!(status.failed, 1);
        assert_eq!(status.simulated, 1, "the sibling cell still finished");
        let error = status.error.expect("failed job carries its error");
        assert!(error.starts_with("panic:"), "{error}");
        assert!(error.contains("injected worker panic"), "{error}");
        assert!(status.wall_seconds.is_some(), "settled jobs have a clock");
        assert!(
            matches!(engine.job_report(first), Some(Err(s)) if s.state == "failed"),
            "no report for a failed job"
        );

        // Idempotent resubmission: the failed cell re-simulates, the
        // finished sibling is a cache hit — and the pool is intact (the
        // panic was caught per-cell, no respawn needed).
        let second = engine.submit(spec);
        let status = wait_settled(&engine, second);
        assert_eq!(status.state, "done");
        assert_eq!((status.simulated, status.cached), (1, 1));
        assert_eq!(engine.respawns(), 0);
        assert!(faults.exhausted());
        engine.shutdown();
    }

    #[test]
    fn panicking_cell_fails_parked_waiters_too() {
        let faults = Faults::disarmed();
        faults.arm("worker.panic", 1, None);
        let engine = Engine::with_options(EngineOptions {
            workers: Some(4),
            faults: faults.clone(),
            // Slow the doomed cell so the overlapping submissions park on
            // its in-flight claim before it panics.
            ..EngineOptions::default()
        })
        .expect("engine");
        faults.arm("engine.cell.slow", 1, Some(150));
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 2000\nseed = 5\n",
        )
        .expect("spec");
        let a = engine.submit(spec.clone());
        std::thread::sleep(Duration::from_millis(40));
        let b = engine.submit(spec.clone());
        let sa = wait_settled(&engine, a);
        let sb = wait_settled(&engine, b);
        assert_eq!(sa.state, "failed");
        assert_eq!(
            sb.state, "failed",
            "a waiter parked on the panicking cell fails with it"
        );
        assert!(sb.error.expect("waiter error").contains("injected"));

        // Both resubmit cleanly: the claim was released with the failure.
        let c = engine.submit(spec);
        assert_eq!(wait_settled(&engine, c).state, "done");
        engine.shutdown();
    }

    #[test]
    fn loop_panic_respawns_the_worker_and_work_continues() {
        let faults = Faults::disarmed();
        faults.arm("worker.loop.panic", 2, None);
        let engine = Engine::with_options(EngineOptions {
            workers: Some(1), // the sole worker must die and come back
            faults: faults.clone(),
            ..EngineOptions::default()
        })
        .expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let job = engine.submit(spec);
        let status = wait_done(&engine, job);
        assert_eq!(status.simulated, 2, "work completes despite the crash");
        assert_eq!(engine.respawns(), 1, "the pool healed itself");
        assert!(faults.exhausted());
        engine.shutdown();
    }

    #[test]
    fn terminal_jobs_expire_by_count_and_ttl() {
        let engine = Engine::with_options(EngineOptions {
            workers: Some(2),
            retain_done: 2,
            job_ttl: Some(Duration::from_millis(60)),
            ..EngineOptions::default()
        })
        .expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let ids: Vec<JobId> = (0..4).map(|_| engine.submit(spec.clone())).collect();
        for &id in &ids {
            wait_done(&engine, id);
        }
        // Count-based eviction: only the newest `retain_done` survive a
        // sweep.
        engine.expire_terminal();
        assert!(engine.job_status(ids[0]).is_none(), "oldest evicted");
        assert!(engine.job_status(ids[1]).is_none());
        assert!(engine.job_status(ids[2]).is_some());
        assert!(engine.job_status(ids[3]).is_some());
        // TTL eviction: past the deadline everything terminal goes.
        std::thread::sleep(Duration::from_millis(90));
        engine.expire_terminal();
        for &id in &ids {
            assert!(engine.job_status(id).is_none(), "job {id} outlived its TTL");
        }
        engine.shutdown();
    }

    #[test]
    fn drain_waits_for_inflight_work() {
        let faults = Faults::disarmed();
        faults.arm("engine.cell.slow", 1, Some(120));
        let engine = Engine::with_options(EngineOptions {
            workers: Some(2),
            faults,
            ..EngineOptions::default()
        })
        .expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let job = engine.submit(spec);
        assert!(
            engine.drain(Duration::from_secs(30)),
            "drain must outwait the slowed cell"
        );
        let status = engine.job_status(job).expect("drained job retained");
        assert_eq!(status.state, "done");
        assert_eq!(status.pending, 0);
        engine.shutdown();
    }

    #[test]
    fn single_seed_jobs_are_not_comparable() {
        let engine = Engine::new(Some(1), None).expect("engine");
        let spec = parse_spec(SPEC).expect("spec");
        let job = engine.submit(spec);
        wait_done(&engine, job);
        match engine.job_compare(job) {
            Some(Err(CompareError::NotComparable(msg))) => {
                assert!(msg.contains("`seeds` >= 2"), "{msg}");
            }
            other => panic!("expected NotComparable, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn wait_settled_times_out_on_a_running_job_and_answers_unknown_ids() {
        let faults = Faults::disarmed();
        faults.arm("engine.cell.slow", 1, Some(500));
        let engine = Engine::with_options(EngineOptions {
            workers: Some(1),
            faults,
            ..EngineOptions::default()
        })
        .expect("engine");
        assert!(engine.wait_settled(999, None).is_none(), "unknown id");
        let job = engine.submit(parse_spec(SPEC).expect("spec"));
        let early = engine
            .wait_settled(job, Some(Duration::from_millis(20)))
            .expect("job exists");
        assert_eq!(early.state, "running", "the deadline beats the slowed cell");
        assert!(early.pending > 0);
        let settled = engine.wait_settled(job, None).expect("job exists");
        assert_eq!((settled.state, settled.pending), ("done", 0));
        engine.shutdown();
    }

    /// Runs `spec` to completion on a fresh engine of `workers` threads.
    fn results_at(workers: usize, spec: &SweepSpec) -> JobResults {
        let engine = Engine::new(Some(workers), None).expect("engine");
        let job = engine.submit(spec.clone());
        wait_done(&engine, job);
        let results = engine.job_results(job).expect("known").expect("done");
        engine.shutdown();
        results
    }

    /// Same replicate count per group and bit-identical summaries.
    fn assert_bit_identical(a: &[Vec<RunSummary>], b: &[Vec<RunSummary>]) {
        use malec_core::digest;
        assert_eq!(a.len(), b.len());
        for (ga, gb) in a.iter().zip(b) {
            assert_eq!(ga.len(), gb.len(), "replicate counts differ");
            for (x, y) in ga.iter().zip(gb) {
                assert_eq!(digest(x), digest(y), "replicate summaries differ");
            }
        }
    }

    #[test]
    fn replicated_sweep_is_bit_identical_serial_vs_parallel() {
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 2000\nseed = 3\nseeds = 4\n",
        )
        .expect("spec");
        let serial = results_at(1, &spec);
        let parallel = results_at(4, &spec);
        assert_eq!(
            serial.groups.iter().map(Vec::len).collect::<Vec<_>>(),
            [4, 4]
        );
        assert_bit_identical(&serial.groups, &parallel.groups);
        for (s, p) in serial.cells().iter().zip(&parallel.cells()) {
            let s = s.stats.as_ref().expect("replicated cell");
            let p = p.stats.as_ref().expect("replicated cell");
            for ((sn, sm), (pn, pm)) in s.metrics.iter().zip(&p.metrics) {
                assert_eq!(sn, pn);
                assert_eq!(sm.mean.to_bits(), pm.mean.to_bits(), "{sn}");
            }
        }
    }

    #[test]
    fn replicate_zero_matches_the_single_seed_path() {
        use malec_core::digest;
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 2000\nseed = 3\nseeds = 3\n",
        )
        .expect("spec");
        let results = results_at(2, &spec);
        let single = Simulator::new(SimConfig::malec())
            .run_source(
                &ScenarioSource::Scenario(spec.scenario.clone()),
                spec.insts,
                spec.seed,
            )
            .expect("generator sources cannot fail");
        let reps = &results.groups[0];
        assert_eq!(
            digest(&reps[0]),
            digest(&single),
            "replicate 0 is the base-seed path, bit for bit"
        );
        assert_ne!(
            digest(&reps[0]),
            digest(&reps[1]),
            "later replicates run other seeds"
        );
    }

    #[test]
    fn ci_target_stops_at_the_same_count_at_any_worker_count() {
        // A tight target grows the group past min_seeds one replicate at a
        // time; the stop must land on the same prefix however many workers
        // race through the cells.
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 2000\nseed = 5\n\
             seeds = 16\nmin_seeds = 3\nci_target = 0.01\n",
        )
        .expect("spec");
        let serial = results_at(1, &spec);
        let parallel = results_at(4, &spec);
        let n = serial.groups[0].len();
        assert!(n > 3 && n < 16, "the group grew, then stopped early: {n}");
        assert_bit_identical(&serial.groups, &parallel.groups);
        let stats = serial.cells()[0].stats.clone().expect("replicated cell");
        assert_eq!(stats.saved, 16 - n as u32, "savings priced against the cap");
    }

    #[test]
    fn paired_groups_stay_in_lockstep_at_any_worker_count() {
        use malec_core::compare::compare_digest;
        let spec = parse_spec(
            "[scenario]\nmode = \"preset\"\npreset = \"mixed_int_media_thrash\"\n\
             [compare]\n\
             [sweep]\ninsts = 2000\nseed = 7\nseeds = 8\nmin_seeds = 2\nci_target = 0.05\n",
        )
        .expect("spec");
        let serial = results_at(1, &spec);
        let parallel = results_at(4, &spec);
        let (base, cand, _) = serial.pair().expect("pair resolves");
        assert_eq!(base.len(), cand.len(), "sides stay in lockstep");
        let n = base.len();
        assert!(
            n > 2 && n < 8,
            "the pair grew jointly, then stopped early: {n}"
        );
        assert_bit_identical(&serial.groups, &parallel.groups);
        assert_eq!(
            compare_digest(&serial.compare().expect("comparable")),
            compare_digest(&parallel.compare().expect("comparable")),
        );
    }

    #[test]
    fn a_compare_pair_and_a_third_config_grow_in_one_job_as_they_do_alone() {
        // Under one ci_target the [compare] pair stops jointly on its paired
        // delta and the third config on its own marginal CI. Sharing a job
        // must couple neither rule: each side reaches the count and the
        // summaries it reaches when submitted alone.
        let spec = |preset: &str, seed: u64, ci_target: f64, compare: &str, configs: &str| {
            parse_spec(&format!(
                "[scenario]\nmode = \"preset\"\npreset = \"{preset}\"\n{compare}\
                 [sweep]\n{configs}insts = 2000\nseed = {seed}\nseeds = 16\nmin_seeds = 3\n\
                 ci_target = {ci_target}\n"
            ))
            .expect("spec")
        };
        // Base1ldst / Base2ld1st / MALEC replicates: the third config grows
        // in one case, the pair (and the third, to the seed cap) in the other.
        for (preset, seed, ci_target, counts) in [
            ("tlb_thrash", 5, 0.01, [3, 9, 3]),
            ("mixed_int_media_thrash", 7, 0.03, [5, 16, 5]),
        ] {
            let all = "configs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\n";
            let mixed = spec(preset, seed, ci_target, "[compare]\n", all);
            let pair = results_at(1, &spec(preset, seed, ci_target, "[compare]\n", ""));
            let third = spec(preset, seed, ci_target, "", "configs = [\"Base2ld1st\"]\n");
            let third = results_at(1, &third);
            let alone = [
                pair.groups[0].clone(),
                third.groups[0].clone(),
                pair.groups[1].clone(),
            ];
            for workers in [1, 4] {
                let got = results_at(workers, &mixed);
                let got_counts: Vec<usize> = got.groups.iter().map(Vec::len).collect();
                assert_eq!(got_counts, counts, "{preset} at {workers} workers");
                assert_bit_identical(&got.groups, &alone);
            }
        }
    }
}
