//! The batch engine: a job queue feeding a persistent worker pool, fused
//! with the content-addressed [`ResultCache`].
//!
//! [`Engine::submit`] plans one [`SweepSpec`] as *clusters* — the explicit
//! `[compare]` pair, which grows jointly, or a single config — and enqueues
//! one work unit per `(config, replicate)` cell (the scenario, horizon and
//! seed are shared). A fixed pool of worker threads — sized like
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
//! one peer of a sharded cluster. Each cluster routes by the replicate-0
//! cache key of its first config (the pair's baseline), so a compared pair
//! is owned as one: its owner simulates both sides.
//! [`Engine::submit_with_source`] forwards each cluster another peer owns
//! to that owner as a `?configs=`-filtered sub-job and waits for it, then
//! queues the cluster's cells here. A worker claiming a cell of a cluster
//! this peer does not own first asks the owner for the record
//! (`GET /v1/cache/record/<key>`), lands it as [`Provenance::Fetched`], and
//! simulates only on a miss.
//!
//! This degrades, never fails: an unreachable owner means the work runs
//! locally — exactly what a standalone server would have done.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::Path;
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

use crate::cache::{cache_key, CacheStats, CompactOutcome, ResultCache, SyncReport};
use crate::client::{Client, JobView, RetryPolicy};
use crate::fault::{FaultAction, Faults};
use crate::report::{render, render_compare, CellResult, CompareReportMeta, ReportMeta};
use crate::server::ServeOptions;
use crate::shard::ShardMap;
use crate::spec::{SpecError, SweepSpec};

/// Server-side job identifier.
pub type JobId = u64;

/// How a finished cell got its summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Freshly simulated by a pool worker.
    Simulated,
    /// Served from the result cache without simulating.
    Cached,
    /// Attached to a concurrent identical simulation (no own simulation).
    Coalesced,
    /// Fetched from the peer owning the cell's cluster (sharded serving).
    Fetched,
}

/// A cell's place in its job: `(config index, replicate index)`.
type CellId = (usize, u32);

/// One schedulable cell of one job. The cache key folds `(base seed,
/// replicate)`; the simulation runs under the derived
/// `replicate_seed(seed, replicate)`.
struct WorkUnit {
    job: JobId,
    cell: CellId,
    config: SimConfig,
    scenario: Arc<Scenario>,
    insts: u64,
    /// The job's base seed (replicate 0 runs it verbatim).
    seed: u64,
    /// The owner-routing key of the cell's cluster.
    route: u128,
}

/// A job's unit of ownership and replication: the explicit `[compare]`
/// pair, which stops jointly on the paired-delta rule, or one config on
/// its marginal rule.
struct Cluster {
    /// Config indices; the pair lists its baseline first.
    configs: Vec<usize>,
    /// The pair's verdict level (`None` for a single config).
    alpha: Option<Alpha>,
    /// The replicate-0 cache key of `configs[0]`, which picks the owner.
    route: u128,
    /// Whether the cluster stopped growing (seed cap or CI convergence).
    converged: bool,
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

/// One submitted spec, planned as clusters, and its per-cell progress.
struct Job {
    id: JobId,
    spec: SweepSpec,
    scenario: Arc<Scenario>,
    clusters: Vec<Cluster>,
    /// `cells[config][replicate]`: a growing cluster appends one replicate
    /// to each of its configs.
    cells: Vec<Vec<CellState>>,
    started: Instant,
    wall_seconds: Option<f64>,
    /// When the job settled (all cells terminal) — the TTL clock.
    settled_at: Option<Instant>,
}

impl Job {
    /// Lowers `spec` into its plan: the explicit `[compare]` pair as one
    /// cluster (a defaulted comparison over a plain spec is an aggregation
    /// concern, not a scheduling one), every other config as its own, and
    /// the replication policy's initial replicates pending for each.
    fn new(id: JobId, spec: SweepSpec) -> Self {
        let scenario = Arc::new(spec.scenario.clone());
        let pair = spec
            .compare
            .as_ref()
            .and_then(|_| spec.resolve_compare().ok());
        let mut plan: Vec<(Vec<usize>, Option<Alpha>)> = pair
            .iter()
            .map(|r| (vec![r.baseline, r.candidate], Some(r.alpha)))
            .collect();
        plan.extend(
            (0..spec.configs.len())
                .filter(|&c| !pair.is_some_and(|r| c == r.baseline || c == r.candidate))
                .map(|c| (vec![c], None)),
        );
        let clusters = plan
            .into_iter()
            .map(|(configs, alpha)| Cluster {
                route: cache_key(
                    &spec.configs[configs[0]],
                    &scenario,
                    spec.insts,
                    spec.seed,
                    0,
                ),
                configs,
                alpha,
                converged: false,
            })
            .collect();
        let initial = spec.replication.initial_count();
        Self {
            id,
            cells: spec
                .configs
                .iter()
                .map(|_| (0..initial).map(|_| CellState::Pending).collect())
                .collect(),
            clusters,
            scenario,
            spec,
            started: Instant::now(),
            wall_seconds: None,
            settled_at: None,
        }
    }

    fn all_cells(&self) -> impl Iterator<Item = &CellState> {
        self.cells.iter().flatten()
    }

    fn done(&self) -> bool {
        self.all_cells().all(|c| matches!(c, CellState::Done(..)))
    }

    fn failed(&self) -> bool {
        self.all_cells().any(|c| matches!(c, CellState::Failed(_)))
    }

    /// No cell is pending: every slot is `Done` or `Failed`. (A job is
    /// reported `failed` as soon as one cell fails — fast-fail lets the
    /// client resubmit immediately — but it *settles*, for TTL and drain
    /// purposes, only when its in-flight siblings also land.)
    fn settled(&self) -> bool {
        !self.all_cells().any(|c| matches!(c, CellState::Pending))
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
        self.all_cells().find_map(|c| match c {
            CellState::Failed(f) => Some(f),
            _ => None,
        })
    }

    fn count(&self, p: Provenance) -> u64 {
        self.all_cells()
            .filter(|c| matches!(c, CellState::Done(_, q) if *q == p))
            .count() as u64
    }

    fn count_failed(&self) -> u64 {
        self.all_cells()
            .filter(|c| matches!(c, CellState::Failed(_)))
            .count() as u64
    }

    /// One config's finished replicate summaries, in replicate order;
    /// `None` while any planned replicate is still pending (or failed — a
    /// failed replicate never aggregates and never grows its cluster).
    fn replicates(&self, config: usize) -> Option<Vec<Arc<RunSummary>>> {
        self.cells[config]
            .iter()
            .map(|c| match c {
                CellState::Done(s, _) => Some(Arc::clone(s)),
                CellState::Pending | CellState::Failed(_) => None,
            })
            .collect()
    }

    /// Replicates the CI target saved: the seed cap minus the count, for
    /// each config of a converged cluster.
    fn replicates_saved(&self) -> u64 {
        let seeds = u64::from(self.spec.replication.seeds);
        self.clusters
            .iter()
            .filter(|k| k.converged)
            .flat_map(|k| &k.configs)
            .map(|&c| seeds.saturating_sub(self.cells[c].len() as u64))
            .sum()
    }

    /// The work unit of cell `(config, replicate)` of cluster `k`.
    fn unit(&self, k: usize, (config, replicate): CellId) -> WorkUnit {
        WorkUnit {
            job: self.id,
            cell: (config, replicate),
            config: self.spec.configs[config].clone(),
            scenario: Arc::clone(&self.scenario),
            insts: self.spec.insts,
            seed: self.spec.seed,
            route: self.clusters[k].route,
        }
    }

    /// Work units for every pending cell of the clusters `keep` selects.
    fn pending_units(&self, keep: impl Fn(&Cluster) -> bool) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for (k, cluster) in self.clusters.iter().enumerate() {
            if !keep(cluster) {
                continue;
            }
            for &c in &cluster.configs {
                for (r, cell) in self.cells[c].iter().enumerate() {
                    if matches!(cell, CellState::Pending) {
                        units.push(self.unit(k, (c, r as u32)));
                    }
                }
            }
        }
        units
    }

    /// Replication step for cluster `k` after one of its cells finished.
    /// Once every planned replicate of every member has finished, it
    /// either marks the cluster converged or grows every member by one
    /// shared replicate and returns the new units. The pair stops on the
    /// paired-delta rule ([`paired_converged`]), a single config on
    /// [`Replication::converged`](malec_core::stats::Replication::converged);
    /// both stop at the seed cap. Growing one replicate at a time makes
    /// the final count the smallest prefix satisfying the policy — the
    /// same count at any worker count, on any peer.
    fn grow(&mut self, k: usize) -> Vec<WorkUnit> {
        let rep = self.spec.replication;
        let cluster = &self.clusters[k];
        if cluster.converged {
            return Vec::new();
        }
        let Some(reps) = cluster
            .configs
            .iter()
            .map(|&c| self.replicates(c))
            .collect::<Option<Vec<_>>>()
        else {
            return Vec::new(); // a member still has pending replicates
        };
        let converged = match (cluster.alpha, reps.as_slice()) {
            (Some(alpha), [base, cand]) => paired_converged(
                &rep,
                alpha,
                base.iter().zip(cand).map(|(b, c)| (b.as_ref(), c.as_ref())),
            ),
            _ => reps
                .iter()
                .all(|r| rep.converged(r.iter().map(Arc::as_ref))),
        };
        let configs = cluster.configs.clone();
        if converged {
            self.clusters[k].converged = true;
            let n = reps.first().map_or(0, Vec::len) as u32;
            if n < rep.seeds {
                let labels: Vec<String> = configs
                    .iter()
                    .map(|&c| self.spec.configs[c].label())
                    .collect();
                eprintln!(
                    "malec-serve: job {} `{}` converged after {n}/{} replicates ({} saved)",
                    self.id,
                    labels.join("` + `"),
                    rep.seeds,
                    rep.seeds - n,
                );
            }
            return Vec::new();
        }
        configs
            .into_iter()
            .map(|c| {
                let replicate = self.cells[c].len() as u32;
                self.cells[c].push(CellState::Pending);
                self.unit(k, (c, replicate))
            })
            .collect()
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

    fn status(&self) -> JobView {
        let simulated = self.count(Provenance::Simulated);
        let cached = self.count(Provenance::Cached);
        let coalesced = self.count(Provenance::Coalesced);
        let fetched = self.count(Provenance::Fetched);
        let failed = self.count_failed();
        let cells = self.all_cells().count() as u64;
        JobView {
            job: self.id,
            scenario: self.spec.scenario.name.clone(),
            state: self.state().to_owned(),
            cells,
            simulated,
            cached,
            coalesced,
            fetched,
            failed,
            pending: cells - (simulated + cached + coalesced + fetched + failed),
            replicates_saved: self.replicates_saved(),
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

/// Why a comparison cannot be served for a known job.
#[derive(Clone, Debug)]
pub enum CompareError {
    /// The job is still running; the status says how far along it is.
    Running(JobView),
    /// The job is done but has no comparable pair (message says why).
    NotComparable(String),
}

/// Waiters parked on an in-flight simulation.
type Waiters = Vec<(JobId, CellId)>;

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
        Self::with_options(&ServeOptions {
            workers,
            cache_path: cache_path.map(Path::to_owned),
            ..ServeOptions::default()
        })
    }

    /// Builds an engine from the pool and cache fields of `opts` (the
    /// request-lifecycle fields belong to the [`Server`](crate::server::Server)).
    ///
    /// # Errors
    ///
    /// Propagates cache-log open errors.
    pub fn with_options(opts: &ServeOptions) -> io::Result<Self> {
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
            faults: Arc::clone(&opts.faults),
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

    /// Plans `spec` as clusters (see the module docs) and enqueues one unit
    /// per initial cell; returns the job id immediately (cells complete
    /// asynchronously; CI-targeted clusters may grow by one replicate at a
    /// time until they converge or hit the seed cap).
    pub fn submit(&self, spec: SweepSpec) -> JobId {
        self.submit_with_source(spec, None)
    }

    /// [`Engine::submit`] plus the scatter half of sharded serving: when a
    /// [`ShardMap`] is installed **and** `source` carries the job's
    /// original spec text, each cluster another peer owns is not enqueued
    /// at once. A detached thread forwards it to its owner as a
    /// `?configs=`-filtered sub-job, waits for it, then enqueues the
    /// cluster's cells, which land through the owner fetch as
    /// [`Provenance::Fetched`]. An unreachable owner degrades to local
    /// simulation; the job never fails for topology reasons. Forwarded
    /// sub-jobs arrive *without* a source (the server hands `None` for
    /// forwarded submissions), so they run owner-local and the scatter
    /// cannot recurse.
    pub fn submit_with_source(&self, spec: SweepSpec, source: Option<Arc<str>>) -> JobId {
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        let job = Job::new(id, spec);
        // The scatter decision happens before the job is visible. (The
        // shard mutex is locked alone, as always.)
        let shard = lock(&self.inner.shard).clone();
        let forwards: Vec<(String, Vec<String>, u128)> = match (&shard, &source) {
            (Some(shard), Some(_)) => job
                .clusters
                .iter()
                .filter(|k| !shard.is_owner(k.route))
                .map(|k| {
                    let labels = k.configs.iter().map(|&c| job.spec.configs[c].label());
                    let owner = shard.owner(k.route).as_str().to_owned();
                    (owner, labels.collect(), k.route)
                })
                .collect(),
            _ => Vec::new(),
        };
        let local = job.pending_units(|k| !forwards.iter().any(|(_, _, r)| *r == k.route));
        lock(&self.inner.jobs).insert(id, job);
        self.expire_terminal();
        enqueue(&self.inner, local);
        if let Some(source) = source {
            for (owner, labels, route) in forwards {
                let inner = Arc::clone(&self.inner);
                let source = Arc::clone(&source);
                std::thread::spawn(move || scatter(&inner, id, &owner, &labels, route, &source));
            }
        }
        id
    }

    /// Evicts expired terminal jobs: any settled longer than the TTL ago,
    /// then the oldest beyond the retention count. Runs at every submit;
    /// results stay in the cache — only per-job bookkeeping goes, and
    /// evicted ids answer like unknown ids.
    fn expire_terminal(&self) {
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
    pub fn job_status(&self, job: JobId) -> Option<JobView> {
        lock(&self.inner.jobs).get(&job).map(Job::status)
    }

    /// Blocks until `job` settles (no cell pending) or `timeout` elapses
    /// (`None`: no deadline), then returns its status — `None` for an
    /// unknown id.
    pub fn wait_settled(&self, job: JobId, timeout: Option<Duration>) -> Option<JobView> {
        let (jobs, _) = self.wait_for(timeout, |jobs| jobs.get(&job).is_none_or(Job::settled));
        jobs.get(&job).map(Job::status)
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
    pub fn job_results(&self, job: JobId) -> Option<Result<JobResults, JobView>> {
        let (spec, groups, wall_seconds) = {
            let jobs = lock(&self.inner.jobs);
            let j = jobs.get(&job)?;
            if !j.done() {
                return Some(Err(j.status()));
            }
            let groups: Vec<Vec<Arc<RunSummary>>> = (0..j.spec.configs.len())
                .map(|c| {
                    j.replicates(c)
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
    pub fn job_report(&self, job: JobId) -> Option<Result<String, JobView>> {
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
    /// remotely-owned clusters at submit (when given the spec source) and
    /// asks owners before simulating cells of clusters it does not own.
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
    /// serve --warm-from`): the cache lock is held for the whole ingest,
    /// and only for it.
    ///
    /// # Errors
    ///
    /// Propagates connection errors, a non-200 peer answer, a stream that
    /// is not a cache log, and local append failures.
    pub fn warm_from(&self, addr: &str) -> io::Result<SyncReport> {
        let mut stream = Client::new(addr).sync_stream().map_err(io::Error::other)?;
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
    let (_, replicate) = unit.cell;
    let key = cache_key(
        &unit.config,
        &unit.scenario,
        unit.insts,
        unit.seed,
        replicate,
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
            // Sharded serving: a cell of a cluster this peer does not own is
            // first asked from the cluster's owner. This lands a scattered
            // cluster once its owner has run it, and serves any other cell
            // the owner already holds. A dead or missing owner degrades to
            // local simulation below.
            let shard = lock(&inner.shard).clone();
            if let Some(shard) = shard.filter(|s| !s.is_owner(unit.route)) {
                let owner = shard.owner(unit.route).as_str();
                match fetch_from_owner(owner, key) {
                    Ok(summary) => {
                        lock(&inner.cache).count_fetched();
                        complete_run(inner, &unit, key, &Arc::new(summary), Provenance::Fetched);
                        return;
                    }
                    Err(failure) => eprintln!(
                        "malec-serve: fetch of key {key:032x} from owner {owner} failed \
                         ({failure}); simulating locally"
                    ),
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
                        replicate_seed(unit.seed, replicate),
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
                        "malec-serve: cell simulation panicked ({}); job {} `{}` replicate {} failed",
                        failure.detail,
                        unit.job,
                        unit.config.label(),
                        replicate
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

/// Retries for every call against an owning peer: the forward, its wait
/// and each record fetch.
const PEER_RETRIES: u32 = 2;
/// How long a scatter thread waits for a forwarded sub-job to finish.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(600);

/// Asks `owner` for the record of `key` over the retrying client. Every
/// failure maps to [`FailureKind::Unavailable`]; the caller's recourse is
/// local simulation, never failing the cell.
fn fetch_from_owner(owner: &str, key: u128) -> Result<RunSummary, Failure> {
    Client::new(owner)
        .with_retry(RetryPolicy::retries(PEER_RETRIES))
        .fetch_record(key)
        .map_err(|e| Failure::new(FailureKind::Unavailable, e))
}

/// Scatter thread for the cluster routed by `route`: forwards its configs
/// (`labels`) to `owner` as a `?configs=`-filtered sub-job, waits for it,
/// then enqueues the cluster's cells here, where [`process`] lands each
/// one through the owner fetch. A failed forward only logs: the cells
/// queue all the same, and each one the owner cannot serve simulates
/// locally, exactly as a standalone server would.
fn scatter(
    inner: &EngineInner,
    job: JobId,
    owner: &str,
    labels: &[String],
    route: u128,
    source: &str,
) {
    let client = Client::new(owner).with_retry(RetryPolicy::retries(PEER_RETRIES));
    let forwarded = client
        .submit_configs(source, labels)
        .and_then(|sub| client.wait(sub, FORWARD_TIMEOUT));
    let failure = match forwarded {
        Ok(view) if view.state == "done" => None,
        Ok(view) => Some(format!(
            "sub-job {} ended {}{}",
            view.job,
            view.state,
            view.error.map(|e| format!(" ({e})")).unwrap_or_default()
        )),
        Err(e) => Some(e),
    };
    if let Some(failure) = failure {
        eprintln!(
            "malec-serve: forward of job {job} to owner {owner} failed ({failure}); \
             cells the owner cannot serve simulate locally"
        );
    }
    let units = match lock(&inner.jobs).get(&job) {
        Some(j) => j.pending_units(|k| k.route == route),
        None => Vec::new(),
    };
    enqueue(inner, units);
}

/// Appends `units` to the work queue and wakes the pool. The queue lock is
/// always taken alone.
fn enqueue(inner: &EngineInner, units: Vec<WorkUnit>) {
    if !units.is_empty() {
        lock(&inner.queue).extend(units);
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
fn fail_cell(inner: &EngineInner, job: JobId, (config, replicate): CellId, failure: Failure) {
    let mut jobs = lock(&inner.jobs);
    let Some(j) = jobs.get_mut(&job) else {
        return;
    };
    let slot = &mut j.cells[config][replicate as usize];
    if matches!(slot, CellState::Pending) {
        *slot = CellState::Failed(failure);
    }
    j.note_settled(&inner.settled);
}

/// Finishes one cell, runs its cluster's replication step, and enqueues
/// any replicates the step added.
fn finish_cell(
    inner: &EngineInner,
    job: JobId,
    (config, replicate): CellId,
    summary: Arc<RunSummary>,
    provenance: Provenance,
) {
    let new_units = {
        let mut jobs = lock(&inner.jobs);
        let Some(j) = jobs.get_mut(&job) else {
            return;
        };
        let slot = &mut j.cells[config][replicate as usize];
        if matches!(slot, CellState::Pending) {
            *slot = CellState::Done(summary, provenance);
        }
        let cluster = j.clusters.iter().position(|k| k.configs.contains(&config));
        let new_units = cluster.map(|k| j.grow(k)).unwrap_or_default();
        j.note_settled(&inner.settled);
        new_units
    };
    // Enqueue outside the jobs lock: the queue is only ever taken alone.
    enqueue(inner, new_units);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;
    use std::time::Duration;

    const SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                        [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 2000\nseed = 5\n";

    fn wait_settled(engine: &Engine, job: JobId) -> JobView {
        let status = engine
            .wait_settled(job, Some(Duration::from_secs(60)))
            .expect("job exists");
        assert_eq!(status.pending, 0, "job {job} never settled");
        status
    }

    fn wait_done(engine: &Engine, job: JobId) -> JobView {
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(1), // serial: the panic lands on cell 0
            faults: faults.clone(),
            ..ServeOptions::default()
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(4),
            faults: faults.clone(),
            // Slow the doomed cell so the overlapping submissions park on
            // its in-flight claim before it panics.
            ..ServeOptions::default()
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(1), // the sole worker must die and come back
            faults: faults.clone(),
            ..ServeOptions::default()
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(2),
            retain_done: 2,
            job_ttl: Some(Duration::from_millis(60)),
            ..ServeOptions::default()
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(2),
            faults,
            ..ServeOptions::default()
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
        let engine = Engine::with_options(&ServeOptions {
            workers: Some(1),
            faults,
            ..ServeOptions::default()
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
        assert_eq!((settled.state.as_str(), settled.pending), ("done", 0));
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
    fn a_bare_benchmark_cell_is_simulator_run_byte_for_byte() {
        use malec_core::summary_to_bytes;
        let spec = parse_spec(
            "[scenario]\nmode = \"benchmark\"\nbenchmark = \"mcf\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 3000\nseed = 7\n",
        )
        .expect("spec");
        let served = &results_at(1, &spec).groups[0][0];
        let mcf = malec_trace::benchmark_named("mcf").expect("mcf exists");
        let direct = Simulator::new(SimConfig::malec()).run(&mcf, 3000, 7);
        assert_eq!(served.suite, mcf.suite.name(), "the profile's suite");
        assert_eq!(
            summary_to_bytes(served),
            summary_to_bytes(&direct),
            "a bare-benchmark cell is the plain profile run, suite included"
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
