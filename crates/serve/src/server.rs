//! The HTTP front of the batch service: routes the v1 API onto an
//! [`Engine`].
//!
//! | Endpoint                  | Method | Meaning                                   |
//! |---------------------------|--------|-------------------------------------------|
//! | `/v1/jobs`                | POST   | body = TOML sweep spec → `202` + job id   |
//! | `/v1/jobs/<id>`           | GET    | job status (cells done / cached / running)|
//! | `/v1/jobs/<id>?wait=<ms>` | GET    | the same status, held until the job settles (at most 20 s) |
//! | `/v1/jobs/<id>/report`    | GET    | finished job's report (`run` JSON schema) |
//! | `/v1/jobs/<id>/compare`   | GET    | paired delta report (`compare` schema)    |
//! | `/v1/cache/stats`         | GET    | result-cache counters                     |
//! | `/v1/cache/compact`       | POST   | rewrite the cache log to its live records |
//! | `/v1/cache/sync`          | GET    | stream the live record set (peer warm-up) |
//! | `/v1/cache/record/<key>`  | GET    | one verified record (peer-miss fetch)     |
//! | `/v1/healthz`             | GET    | liveness probe (+ pool health counters)   |
//! | `/v1/shutdown`            | POST   | graceful drain + stop (`?mode=abort` to skip the drain) |
//!
//! Submissions are asynchronous: `POST /v1/jobs` returns as soon as the
//! spec is sharded into the queue, and clients poll the status endpoint.
//! A poll with `?wait=<ms>` is held for up to `ms` milliseconds (20 s at
//! most) and answers as soon as the job settles or the engine stops, with
//! the same status JSON: a `running` answer means the hold ran out or the
//! server is stopping.
//! Each connection carries one request (`Connection: close`); connections
//! are handled on their own threads, so slow clients never block the
//! accept loop or each other.
//!
//! The request lifecycle is bounded end to end: at most
//! [`ServeOptions::max_connections`] handlers run at once (excess
//! connections get `503` + `Retry-After` without being read — except a
//! small reserved control lane, which still reads the request and serves
//! it if it is a health check or a shutdown: saturation must never make
//! the server unobservable or unstoppable), each request
//! must arrive within [`ServeOptions::request_deadline`] **total** (the
//! slow-loris bound), and writes time out after a fixed 60 s. A held
//! status poll occupies its handler slot for its hold; the control lane
//! is unaffected.
//! Shutdown defaults to graceful: stop accepting, let in-flight jobs run
//! to completion (bounded by [`ServeOptions::drain_timeout`]), fsync the
//! cache log, exit. `POST /v1/shutdown?mode=abort` skips the drain.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CacheStats, FsyncPolicy};
use crate::fault::{FaultAction, Faults};
use crate::http::{read_request_deadline, write_response, write_response_head, Request};
use crate::report::esc;
use crate::scheduler::{CompareError, Engine};
use crate::spec::parse_spec;

/// The default address `malec-cli serve` binds and its clients target.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4173";

/// Construction knobs for a [`Server`] and its [`Engine`]
/// (`Engine::with_options` reads the pool and cache fields).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Pool threads (`None`: the sweep fan-out
    /// [`worker_count`](malec_core::parallel::worker_count)).
    pub workers: Option<usize>,
    /// Cache-log path (`None`: in-memory cache).
    pub cache_path: Option<PathBuf>,
    /// When the cache log reaches stable storage.
    pub fsync: FsyncPolicy,
    /// Failpoint registry (disarmed in production).
    pub faults: Arc<Faults>,
    /// Concurrent connection handlers; excess connections are answered
    /// `503` + `Retry-After: 1` without reading the request.
    pub max_connections: usize,
    /// Total budget for reading one request off the wire — however slowly
    /// the client drips bytes (the slow-loris bound).
    pub request_deadline: Duration,
    /// How long a graceful shutdown waits for in-flight jobs to settle
    /// before stopping anyway.
    pub drain_timeout: Duration,
    /// Terminal jobs retained for status/report queries. Beyond this, the
    /// oldest terminal jobs are evicted at submit time (their results stay
    /// in the cache; only the per-job bookkeeping goes), so a long-lived
    /// server's memory is bounded by its workload, not its uptime. Evicted
    /// ids answer like unknown ids.
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
    /// `Engine::compact_cache`).
    pub compact_threshold: Option<f64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: None,
            cache_path: None,
            fsync: FsyncPolicy::default(),
            faults: Faults::disarmed(),
            max_connections: 64,
            request_deadline: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            retain_done: 256,
            job_ttl: None,
            cache_max_bytes: None,
            compact_threshold: None,
        }
    }
}

/// How the accept loop was asked to stop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShutdownMode {
    /// Stop accepting, wait for in-flight jobs (bounded), flush the cache.
    Drain,
    /// Stop immediately; queued units are dropped (results already in the
    /// cache survive — appends are synchronous).
    Abort,
}

/// A bound, ready-to-run service.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    /// `true` once a `?mode=abort` shutdown was requested.
    abort: Arc<AtomicBool>,
    opts: ServeOptions,
}

impl Server {
    /// Binds `addr` and builds the engine (`workers` pool threads over an
    /// optionally persisted cache) with every other option defaulted. Use
    /// port `0` for an ephemeral port and read it back with
    /// [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-open errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        workers: Option<usize>,
        cache_path: Option<&Path>,
    ) -> io::Result<Self> {
        Self::bind_with(
            addr,
            ServeOptions {
                workers,
                cache_path: cache_path.map(Path::to_owned),
                ..ServeOptions::default()
            },
        )
    }

    /// Binds `addr` with explicit [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-open errors.
    pub fn bind_with(addr: impl ToSocketAddrs, opts: ServeOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let engine = Arc::new(Engine::with_options(&opts)?);
        Ok(Self {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            abort: Arc::new(AtomicBool::new(false)),
            opts,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine behind this server (tests reach through for stats).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Serves until a `POST /v1/shutdown` arrives, then stops: gracefully
    /// by default — drain in-flight jobs (bounded by the drain timeout),
    /// flush the cache log to disk, join the pool — or immediately under
    /// `?mode=abort`. Connection handlers run on their own threads.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop errors (per-connection errors are answered
    /// with an HTTP status and do not stop the server).
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let active = Arc::new(AtomicUsize::new(0));
        let control_active = Arc::new(AtomicUsize::new(0));
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                // A long-running service must survive transient accept
                // failures (aborted handshakes, fd exhaustion under a
                // connection burst) instead of dying with queued work.
                Err(e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    eprintln!("malec-serve: accept failed (retrying): {e}");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    continue;
                }
            };
            stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
            // The saturation gate: when every handler slot is taken, shed
            // the connection with a retryable 503 *without reading it* — a
            // saturated server must spend no parsing work on load it is
            // refusing. The response goes out on its own thread so a slow
            // receiver cannot block the accept loop either. A few reserved
            // control slots do read the request, but answer it only for
            // `/v1/healthz` and `/v1/shutdown`: liveness probes and the
            // stop switch must keep working under full load.
            let slot = SlotGuard::claim(&active, self.opts.max_connections);
            let Some(slot) = slot else {
                match SlotGuard::claim(&control_active, CONTROL_SLOTS) {
                    Some(slot) => {
                        let engine = Arc::clone(&self.engine);
                        let stop = Arc::clone(&self.stop);
                        let abort = Arc::clone(&self.abort);
                        let deadline = self.opts.request_deadline;
                        std::thread::spawn(move || {
                            let _slot = slot;
                            let mut stream = stream;
                            handle_saturated(&mut stream, &engine, &stop, &abort, addr, deadline);
                        });
                    }
                    None => {
                        std::thread::spawn(move || {
                            let mut stream = stream;
                            shed(&mut stream);
                        });
                    }
                }
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            };
            // Every admitted connection gets a handler — even ones racing a
            // shutdown, so a real client caught in the race still receives
            // an HTTP response instead of a bare closed socket (the
            // shutdown wake connection's handler just fails its read and
            // exits).
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&self.stop);
            let abort = Arc::clone(&self.abort);
            let deadline = self.opts.request_deadline;
            std::thread::spawn(move || {
                let _slot = slot;
                let mut stream = stream;
                handle_connection(&mut stream, &engine, &stop, &abort, addr, deadline);
            });
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if self.abort.load(Ordering::SeqCst) {
            eprintln!("malec-serve: abort shutdown; dropping queued work");
        } else {
            // Graceful drain: no new submissions can arrive (the accept
            // loop is done), so the pool runs the backlog dry — bounded,
            // because a wedged cell must not hold the process hostage.
            if !self.engine.drain(self.opts.drain_timeout) {
                eprintln!(
                    "malec-serve: drain timed out after {:?}; stopping with work pending",
                    self.opts.drain_timeout
                );
            }
        }
        self.engine.shutdown();
        // The one fsync FsyncPolicy::OnClose promises. Under Always it is
        // a cheap no-op; under abort it still costs nothing and saves what
        // the page cache holds.
        if let Err(e) = self.engine.sync_cache() {
            eprintln!("malec-serve: cache fsync at shutdown failed: {e}");
        }
        Ok(())
    }

    /// Runs the server on a background thread (tests and the `serve-smoke`
    /// CI job drive it through the client).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let handle = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, handle })
    }
}

/// A background server: its address and the join handle.
pub struct ServerHandle {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (send `POST /v1/shutdown` first).
    ///
    /// # Errors
    ///
    /// Propagates the server's exit error.
    ///
    /// # Panics
    ///
    /// Panics if the server thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.handle.join().expect("server thread panicked")
    }
}

/// Reserved handler slots for control requests (`/v1/healthz`,
/// `/v1/shutdown`) once the [`ServeOptions::max_connections`] data slots
/// are saturated. Small and fixed: the control lane exists to keep the
/// server observable and stoppable, not to serve traffic.
const CONTROL_SLOTS: usize = 4;

/// Socket write timeout for every response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(60);

/// The longest a held status poll (`GET /v1/jobs/<id>?wait=<ms>`) waits
/// for its job to settle; a longer `wait` is cut to this.
pub(crate) const MAX_POLL_HOLD: Duration = Duration::from_secs(20);

/// One claimed handler slot; dropping it frees the slot.
struct SlotGuard(Arc<AtomicUsize>);

impl SlotGuard {
    /// Claims a slot if fewer than `max` are taken.
    fn claim(active: &Arc<AtomicUsize>, max: usize) -> Option<Self> {
        // fetch_update never overshoots, so a burst of connections cannot
        // momentarily exceed the cap the way fetch_add/fetch_sub would.
        active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .ok()
            .map(|_| Self(Arc::clone(active)))
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    abort: &AtomicBool,
    self_addr: SocketAddr,
    deadline: Duration,
) {
    // Failpoint: stall before reading, so a test can hold this handler's
    // slot (or trip the client's timeout) deterministically.
    engine.faults().check_delay("http.read.stall");
    let request = match read_request_deadline(stream, deadline) {
        Ok(r) => r,
        Err(e) => {
            let status = if e.kind() == io::ErrorKind::TimedOut {
                408
            } else {
                400
            };
            respond_error(stream, status, &e.to_string());
            return;
        }
    };
    // Failpoint: answer with a 500 before routing — the retryable server
    // error the client's backoff is built for.
    if let Some(FaultAction::Error) = engine.faults().check("http.respond.500") {
        respond_error(
            stream,
            500,
            "injected server error (failpoint http.respond.500)",
        );
        return;
    }
    dispatch(stream, engine, stop, abort, self_addr, &request);
}

/// Routes one parsed request and runs the shutdown protocol if it asked
/// for one — shared by the normal handler and the saturated control lane.
fn dispatch(
    stream: &mut TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    abort: &AtomicBool,
    self_addr: SocketAddr,
    request: &Request,
) {
    if let Some(mode) = route(stream, engine, request) {
        if mode == ShutdownMode::Abort {
            abort.store(true, Ordering::SeqCst);
        }
        stop.store(true, Ordering::SeqCst);
        // The accept loop is parked in accept(); poke it awake so it
        // observes the flag and exits. A listener bound to the unspecified
        // address is not connectable on every platform — aim the poke at
        // loopback instead.
        let mut wake = self_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
            } else {
                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
            });
        }
        TcpStream::connect(wake).ok();
    }
}

/// The saturated-server control lane: reads the request (bounded by the
/// same deadline as a normal handler) and serves it only if it is a
/// control route; everything else is shed exactly like a slot-less
/// connection. No failpoints here — they live in [`handle_connection`],
/// and the control lane must stay dependable precisely when the rest of
/// the server is being tortured.
fn handle_saturated(
    stream: &mut TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    abort: &AtomicBool,
    self_addr: SocketAddr,
    deadline: Duration,
) {
    let Ok(request) = read_request_deadline(stream, deadline) else {
        shed(stream);
        return;
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") | ("POST", "/v1/shutdown") => {
            dispatch(stream, engine, stop, abort, self_addr, &request);
        }
        _ => shed(stream),
    }
}

/// The shed response: a retryable `503` with `Retry-After: 1`.
fn shed(stream: &mut TcpStream) {
    write_response(
        stream,
        503,
        "application/json",
        &[("Retry-After", "1")],
        b"{\n  \"error\": \"server saturated, retry shortly\"\n}\n",
    )
    .ok();
}

/// Dispatches one request; returns the shutdown mode for a shutdown
/// request.
fn route(stream: &mut TcpStream, engine: &Engine, request: &Request) -> Option<ShutdownMode> {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/v1/jobs") => handle_submit(stream, engine, request),
        ("GET", "/v1/cache/stats") => {
            let body = cache_stats_json(&engine.cache_stats(), engine);
            respond_json(stream, 200, &body);
        }
        ("POST", "/v1/cache/compact") => match engine.compact_cache() {
            Ok(o) => respond_json(
                stream,
                200,
                &format!(
                    "{{\n  \"compacted\": true,\n  \"bytes_before\": {},\n  \"bytes_after\": {},\n  \"live_records\": {}\n}}\n",
                    o.bytes_before, o.bytes_after, o.records,
                ),
            ),
            // In-memory caches have no log; a 400, not a server fault.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                respond_error(stream, 400, &e.to_string());
            }
            Err(e) => respond_error(stream, 500, &e.to_string()),
        },
        ("GET", "/v1/cache/sync") => handle_cache_sync(stream, engine),
        ("GET", _) if path.starts_with("/v1/cache/record/") => {
            handle_cache_record(stream, engine, path);
        }
        ("GET", "/v1/healthz") => {
            let peers = engine
                .shard_peers()
                .iter()
                .map(|p| format!("\"{}\"", esc(p)))
                .collect::<Vec<String>>()
                .join(", ");
            let body = format!(
                "{{\n  \"ok\": true,\n  \"workers\": {},\n  \"respawns\": {},\n  \"faults_fired\": {},\n  \"peers\": [{peers}]\n}}\n",
                engine.workers(),
                engine.respawns(),
                engine.faults().fired_total(),
            );
            respond_json(stream, 200, &body);
        }
        ("POST", "/v1/shutdown") => {
            let mode = match request.query_param("mode") {
                Some("abort") => ShutdownMode::Abort,
                Some("drain") | None => ShutdownMode::Drain,
                Some(other) => {
                    respond_error(
                        stream,
                        400,
                        &format!("unknown shutdown mode `{other}` (want `drain` or `abort`)"),
                    );
                    return None;
                }
            };
            let label = match mode {
                ShutdownMode::Drain => "drain",
                ShutdownMode::Abort => "abort",
            };
            respond_json(
                stream,
                200,
                &format!("{{\n  \"stopping\": true,\n  \"mode\": \"{label}\"\n}}\n"),
            );
            return Some(mode);
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => handle_job_get(stream, engine, request),
        _ => respond_error(
            stream,
            404,
            &format!("no route for {} {path}", request.method),
        ),
    }
    None
}

fn handle_submit(stream: &mut TcpStream, engine: &Engine, request: &Request) {
    let text = match request.body_utf8() {
        Ok(t) => t,
        Err(_) => {
            respond_error(stream, 400, "spec body must be UTF-8 TOML");
            return;
        }
    };
    match parse_spec(text) {
        Ok(mut spec) => {
            // A scatter sub-job (`?configs=A,B`) restricts the spec to the
            // named groups and carries no source text, so a forwarded
            // sub-job runs owner-local and the scatter cannot recurse.
            let source = match request.query_param("configs") {
                Some(list) => {
                    let labels: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
                    if let Err(e) = spec.restrict_configs(&labels) {
                        respond_error(stream, 400, &format!("?configs=: {e}"));
                        return;
                    }
                    None
                }
                None => Some(Arc::from(text)),
            };
            // Cells initially enqueued: configs x launch replicates (a CI
            // target may grow this later, so it is a floor, not a total).
            let cells = spec.configs.len() * spec.replication.initial_count() as usize;
            let job = engine.submit_with_source(spec, source);
            let body = format!(
                "{{\n  \"job\": {job},\n  \"cells\": {cells},\n  \"status_url\": \"/v1/jobs/{job}\"\n}}\n"
            );
            respond_json(stream, 202, &body);
        }
        Err(e) => respond_error(stream, 400, &e.to_string()),
    }
}

/// Records per write of the sync stream — bounds the encode buffer however
/// large the live set is.
const SYNC_CHUNK_RECORDS: usize = 64;

/// Streams the live record set in cache-log format, framing bounded
/// chunks of the stored bodies from a snapshot instead of materializing the
/// whole log as one buffer. Stream errors are logged, not swallowed.
fn handle_cache_sync(stream: &mut TcpStream, engine: &Engine) {
    if let Err(e) = stream_cache_sync(stream, engine) {
        eprintln!("malec-serve: cache sync stream failed: {e}");
    }
}

/// The fallible body of [`handle_cache_sync`]. The `cache.sync.stall`
/// failpoint sits between the header and each chunk, so tests can
/// deterministically cut or delay a sync mid-stream — the receiver's
/// record-by-record verification keeps the delivered prefix either way.
fn stream_cache_sync(stream: &mut TcpStream, engine: &Engine) -> io::Result<()> {
    let (records, body_len) = engine.sync_records();
    write_response_head(
        stream,
        200,
        "application/octet-stream",
        &[],
        body_len as usize,
    )?;
    stream.write_all(&crate::cache::log_header())?;
    stream.flush()?;
    let mut buf = Vec::new();
    for chunk in records.chunks(SYNC_CHUNK_RECORDS) {
        engine.faults().check_delay("cache.sync.stall");
        buf.clear();
        for (key, stored) in chunk {
            crate::cache::write_record(&mut buf, *key, stored);
        }
        stream.write_all(&buf)?;
        stream.flush()?;
    }
    Ok(())
}

/// Serves one cached record in single-record cache-log format — the
/// peer-miss fetch path of sharded serving. A 404 is an answer, not an
/// error: the asking peer falls back to simulating locally.
fn handle_cache_record(stream: &mut TcpStream, engine: &Engine, path: &str) {
    let hex = &path["/v1/cache/record/".len()..];
    let Ok(key) = u128::from_str_radix(hex, 16) else {
        respond_error(
            stream,
            400,
            &format!("bad record key `{hex}` (want hex digits)"),
        );
        return;
    };
    match engine.cache_record(key) {
        Some(body) => {
            write_response(stream, 200, "application/octet-stream", &[], &body).ok();
        }
        None => respond_error(stream, 404, &format!("no record for key {key:032x}")),
    }
}

/// What a `/v1/jobs/<id>...` GET asks for.
enum JobQuery {
    Status,
    Report,
    Compare,
}

fn handle_job_get(stream: &mut TcpStream, engine: &Engine, request: &Request) {
    let rest = &request.path["/v1/jobs/".len()..];
    let (id_text, query) = if let Some(id) = rest.strip_suffix("/report") {
        (id, JobQuery::Report)
    } else if let Some(id) = rest.strip_suffix("/compare") {
        (id, JobQuery::Compare)
    } else {
        (rest, JobQuery::Status)
    };
    let Ok(id) = id_text.parse::<u64>() else {
        respond_error(stream, 400, &format!("bad job id `{id_text}`"));
        return;
    };
    match query {
        JobQuery::Report => match engine.job_report(id) {
            None => respond_error(stream, 404, &format!("unknown job {id}")),
            Some(Err(status)) => {
                // 409: the resource exists but is not in a fetchable state.
                respond_json(stream, 409, &status.to_json());
            }
            Some(Ok(report)) => respond_json(stream, 200, &report),
        },
        JobQuery::Compare => match engine.job_compare(id) {
            None => respond_error(stream, 404, &format!("unknown job {id}")),
            Some(Err(CompareError::Running(status))) => {
                respond_json(stream, 409, &status.to_json());
            }
            Some(Err(CompareError::NotComparable(msg))) => respond_error(stream, 400, &msg),
            Some(Ok(report)) => respond_json(stream, 200, &report),
        },
        JobQuery::Status => {
            let status = match request.query_param("wait").map(str::parse::<u64>) {
                None => engine.job_status(id),
                Some(Ok(ms)) => {
                    let hold = Duration::from_millis(ms).min(MAX_POLL_HOLD);
                    engine.wait_settled(id, Some(hold))
                }
                Some(Err(_)) => {
                    respond_error(stream, 400, "bad `wait` (want milliseconds)");
                    return;
                }
            };
            match status {
                None => respond_error(stream, 404, &format!("unknown job {id}")),
                Some(status) => respond_json(stream, 200, &status.to_json()),
            }
        }
    }
}

/// Renders the cache-stats endpoint JSON.
fn cache_stats_json(stats: &CacheStats, engine: &Engine) -> String {
    format!(
        "{{\n  \"entries\": {},\n  \"loaded_from_disk\": {},\n  \"hits\": {},\n  \"misses\": {},\n  \"coalesced\": {},\n  \"fetched\": {},\n  \"bytes_appended\": {},\n  \"log_bytes\": {},\n  \"live_bytes\": {},\n  \"evicted\": {},\n  \"compactions\": {},\n  \"persisted\": {},\n  \"workers\": {}\n}}\n",
        stats.entries,
        stats.loaded,
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.fetched,
        stats.bytes_appended,
        stats.log_bytes,
        stats.live_bytes,
        stats.evicted,
        stats.compactions,
        engine
            .cache_path()
            .map_or_else(|| "null".to_owned(), |p| format!("\"{}\"", esc(&p.display().to_string()))),
        engine.workers(),
    )
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &str) {
    write_response(stream, status, "application/json", &[], body.as_bytes()).ok();
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    let body = format!("{{\n  \"error\": \"{}\"\n}}\n", esc(message));
    respond_json(stream, status, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobView;
    use crate::json::{parse, Value};
    use std::time::{Duration, Instant};

    const SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"bank_conflict\"\n\
                        [sweep]\nconfigs = [\"MALEC\"]\ninsts = 1500\nseed = 3\n";

    fn start() -> ServerHandle {
        Server::bind("127.0.0.1:0", Some(2), None)
            .expect("bind")
            .spawn()
            .expect("spawn")
    }

    /// One raw round trip: the status and the whole body as text.
    fn round_trip(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, String)> {
        let resp = crate::http::request(addr, method, path, body, Duration::from_secs(60))?;
        Ok((resp.status, resp.text()?))
    }

    fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
        let (status, body) = round_trip(addr, "GET", path, b"").expect("request");
        (
            status,
            parse(&body).unwrap_or_else(|e| panic!("{path}: {e}\n{body}")),
        )
    }

    fn state(v: &Value) -> Option<&str> {
        v.get("state").and_then(Value::as_str)
    }

    #[test]
    fn submit_poll_report_shutdown() {
        let server = start();
        let addr = server.addr();

        let (status, body) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202, "{body}");
        let v = parse(&body).expect("submit response parses");
        let job = v.get("job").and_then(Value::as_u64).expect("job id");
        assert_eq!(v.get("cells").and_then(Value::as_u64), Some(1));

        let (status, v) = get_json(addr, &format!("/v1/jobs/{job}?wait=20000"));
        assert_eq!((status, state(&v)), (200, Some("done")), "{v:?}");
        let (status, report) =
            round_trip(addr, "GET", &format!("/v1/jobs/{job}/report"), b"").expect("report");
        assert_eq!(status, 200);
        let report = parse(&report).expect("report is valid JSON");
        assert_eq!(
            report.get("bench").and_then(Value::as_str),
            Some("malec_scenario_sweep"),
            "the report keeps the run schema"
        );
        assert_eq!(
            report.get("cells").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );

        let (status, stats) = get_json(addr, "/v1/cache/stats");
        assert_eq!(status, 200);
        assert_eq!(stats.get("entries").and_then(Value::as_u64), Some(1));

        // The compare route is wired: a single-seed job is done but not
        // comparable, which is a clean 400 with the resolver's reason.
        let (status, v) = get_json(addr, &format!("/v1/jobs/{job}/compare"));
        assert_eq!(status, 400);
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("`seeds` >= 2")));
        let (status, _) = get_json(addr, "/v1/jobs/999/compare");
        assert_eq!(status, 404);

        let (status, _) = round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        assert_eq!(status, 200);
        server.join().expect("clean exit");
    }

    /// A one-worker server whose first cell sleeps `ms` before it
    /// simulates.
    fn slowed(ms: u64) -> ServerHandle {
        let faults = Faults::disarmed();
        faults.arm("engine.cell.slow", 1, Some(ms));
        Server::bind_with(
            "127.0.0.1:0",
            ServeOptions {
                workers: Some(1),
                faults,
                ..ServeOptions::default()
            },
        )
        .expect("bind")
        .spawn()
        .expect("spawn")
    }

    #[test]
    fn a_held_poll_answers_as_soon_as_its_job_settles() {
        let server = slowed(300);
        let addr = server.addr();
        let (status, _) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202);
        let start = Instant::now();
        let (status, v) = get_json(addr, "/v1/jobs/1?wait=20000");
        let held = start.elapsed();
        assert_eq!((status, state(&v)), (200, Some("done")), "{v:?}");
        assert!(held < Duration::from_secs(10), "held for {held:?}");
        round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn a_held_poll_on_a_running_job_answers_running_after_its_hold() {
        let server = slowed(1500);
        let addr = server.addr();
        let (status, _) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202);
        let start = Instant::now();
        let (status, v) = get_json(addr, "/v1/jobs/1?wait=50");
        let held = start.elapsed();
        assert_eq!((status, state(&v)), (200, Some("running")), "{v:?}");
        assert!(held >= Duration::from_millis(50), "held for only {held:?}");
        round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn an_abort_shutdown_releases_a_held_poll_at_once() {
        use std::io::Read;

        // The cell sleeps 3 s, so a poll that answers `running` well
        // before then was released by the abort, not by the job settling.
        let server = slowed(3000);
        let addr = server.addr();
        let (status, _) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202);
        // Connected before the abort, so the accept loop admits the poll
        // first; it parks on the job, or finds the engine already stopped.
        let mut poll = TcpStream::connect(addr).expect("connect");
        poll.write_all(b"GET /v1/jobs/1?wait=20000 HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send the held poll");
        let start = Instant::now();
        let (status, _) = round_trip(addr, "POST", "/v1/shutdown?mode=abort", b"").expect("abort");
        assert_eq!(status, 200);
        let mut answer = String::new();
        poll.read_to_string(&mut answer).expect("held poll answer");
        let released = start.elapsed();
        let (head, body) = answer.split_once("\r\n\r\n").expect("a response");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let v = parse(body).expect("status JSON");
        assert_eq!(state(&v), Some("running"), "{v:?}");
        assert!(
            released < Duration::from_secs(2),
            "released after {released:?}"
        );
        server.join().expect("clean exit");
    }

    #[test]
    fn status_json_escapes_control_characters() {
        // TOML strings legally contain \n / \t escapes; the status JSON
        // must stay parseable anyway.
        let s = JobView {
            job: 1,
            scenario: "a\nb\"c".into(),
            state: "failed".into(),
            cells: 1,
            simulated: 0,
            cached: 0,
            coalesced: 0,
            fetched: 0,
            failed: 1,
            pending: 0,
            replicates_saved: 0,
            wall_seconds: None,
            error: Some("panic: index out of \"bounds\"".into()),
        };
        let v = parse(&s.to_json()).expect("valid JSON despite control chars");
        assert_eq!(v.get("scenario").and_then(Value::as_str), Some("a\nb\"c"));
        assert_eq!(v.get("state").and_then(Value::as_str), Some("failed"));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("panic: index out of \"bounds\"")
        );
    }

    #[test]
    fn error_paths_are_clean_statuses() {
        let server = start();
        let addr = server.addr();

        let (status, body) = round_trip(addr, "POST", "/v1/jobs", b"not = toml [").expect("submit");
        assert_eq!(status, 400, "{body}");
        assert!(parse(&body).expect("error is JSON").get("error").is_some());

        let (status, _) = get_json(addr, "/v1/jobs/12345");
        assert_eq!(status, 404);
        // A held poll on an unknown id is a 404 at once, not after its hold.
        let start = Instant::now();
        let (status, _) = get_json(addr, "/v1/jobs/12345?wait=20000");
        assert_eq!(status, 404);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "an unknown id was held"
        );

        let (status, _) = round_trip(addr, "GET", "/v1/jobs/abc", b"").expect("bad id");
        assert_eq!(status, 400);
        for bad in ["abc", "-1", "", "1.5"] {
            let (status, v) = get_json(addr, &format!("/v1/jobs/12345?wait={bad}"));
            assert_eq!(status, 400, "?wait={bad}: {v:?}");
        }

        let (status, _) = round_trip(addr, "DELETE", "/v1/jobs", b"").expect("bad method");
        assert_eq!(status, 404);

        let (status, v) = get_json(addr, "/v1/healthz");
        assert_eq!(status, 200);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("respawns").and_then(Value::as_u64), Some(0));

        round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn shutdown_modes_echo_and_unknown_mode_is_rejected() {
        let server = start();
        let addr = server.addr();
        let (status, v) = {
            let (s, b) = round_trip(addr, "POST", "/v1/shutdown?mode=nope", b"").expect("bad mode");
            (s, parse(&b).expect("JSON"))
        };
        assert_eq!(status, 400);
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("unknown shutdown mode")));
        // A rejected mode must NOT stop the server.
        let (status, _) = get_json(addr, "/v1/healthz");
        assert_eq!(status, 200);

        let (status, body) =
            round_trip(addr, "POST", "/v1/shutdown?mode=abort", b"").expect("abort shutdown");
        assert_eq!(status, 200);
        let v = parse(&body).expect("JSON");
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("abort"));
        server.join().expect("clean exit");
    }

    #[test]
    fn saturated_server_sheds_data_routes_but_answers_healthz_and_shutdown() {
        use std::io::Write;

        let server = Server::bind_with(
            "127.0.0.1:0",
            ServeOptions {
                workers: Some(1),
                max_connections: 1,
                request_deadline: Duration::from_secs(2),
                ..ServeOptions::default()
            },
        )
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = server.addr();

        // Occupy the single data slot with a connection that never
        // finishes its request (cut off at the request deadline).
        let mut hog = std::net::TcpStream::connect(addr).expect("connect");
        hog.write_all(b"GET /v1/healthz HT").expect("partial write");
        std::thread::sleep(Duration::from_millis(100));

        // A data route is shed with a retryable 503...
        let resp = crate::http::request(
            addr,
            "POST",
            "/v1/jobs",
            SPEC.as_bytes(),
            Duration::from_secs(5),
        )
        .expect("shed response");
        let (status, retry_after) = (resp.status, resp.retry_after);
        let body = resp.text().expect("shed body");
        assert_eq!(status, 503, "{body}");
        assert_eq!(retry_after, Some(1), "503 carries Retry-After");
        assert!(body.contains("saturated"), "{body}");

        // ...but a health check still answers through the control lane —
        // saturation must not make the server look dead.
        let (status, v) = get_json(addr, "/v1/healthz");
        assert_eq!(status, 200, "healthz answers while saturated");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));

        // ...and so does the stop switch: a shutdown is never locked out by
        // the very load it is supposed to relieve.
        let (status, body) =
            round_trip(addr, "POST", "/v1/shutdown?mode=abort", b"").expect("shutdown");
        assert_eq!(status, 200, "shutdown accepted while saturated: {body}");
        drop(hog);
        server.join().expect("clean exit");
    }

    #[test]
    fn cache_compact_and_sync_endpoints_work_end_to_end() {
        use std::io::Read;

        let dir = std::env::temp_dir().join(format!("malec_srv_lifecycle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let cache_path = dir.join("results.cache");
        std::fs::remove_file(&cache_path).ok();

        let server = Server::bind_with(
            "127.0.0.1:0",
            ServeOptions {
                workers: Some(2),
                cache_path: Some(cache_path.clone()),
                ..ServeOptions::default()
            },
        )
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = server.addr();

        let (status, _) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202);
        let (_, v) = get_json(addr, "/v1/jobs/1?wait=20000");
        assert_eq!(state(&v), Some("done"), "{v:?}");

        // The stats endpoint reports the new lifecycle counters.
        let (_, stats) = get_json(addr, "/v1/cache/stats");
        let log_bytes = stats
            .get("log_bytes")
            .and_then(Value::as_u64)
            .expect("log_bytes");
        let live_bytes = stats
            .get("live_bytes")
            .and_then(Value::as_u64)
            .expect("live_bytes");
        assert!(log_bytes > 5 && live_bytes > 0, "{stats:?}");
        assert_eq!(stats.get("evicted").and_then(Value::as_u64), Some(0));

        // Compaction over a duplicate-free log is a no-op in size but a
        // real rewrite (the counter moves).
        let (status, body) = round_trip(addr, "POST", "/v1/cache/compact", b"").expect("compact");
        assert_eq!(status, 200, "{body}");
        let v = parse(&body).expect("compact response parses");
        assert_eq!(v.get("compacted").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("bytes_after").and_then(Value::as_u64),
            Some(log_bytes)
        );
        let (_, stats) = get_json(addr, "/v1/cache/stats");
        assert_eq!(stats.get("compactions").and_then(Value::as_u64), Some(1));

        // The sync stream is a valid cache log: header + the live records.
        let mut body =
            crate::http::request(addr, "GET", "/v1/cache/sync", b"", Duration::from_secs(10))
                .expect("sync stream");
        assert_eq!(body.status, 200);
        let mut snapshot = Vec::new();
        body.read_to_end(&mut snapshot).expect("read stream");
        assert_eq!(&snapshot[..4], b"MSRC", "stream is a cache log");
        assert_eq!(
            snapshot.len() as u64,
            5 + live_bytes,
            "exactly the live set"
        );

        round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        server.join().expect("clean exit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compacting_an_in_memory_cache_is_a_clean_400() {
        let server = start();
        let addr = server.addr();
        let (status, body) = round_trip(addr, "POST", "/v1/cache/compact", b"").expect("compact");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("in-memory"), "{body}");
        round_trip(addr, "POST", "/v1/shutdown?mode=abort", b"").expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn graceful_shutdown_drains_inflight_jobs_before_exit() {
        let dir = std::env::temp_dir().join(format!("malec_srv_drain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let cache_path = dir.join("results.cache");
        std::fs::remove_file(&cache_path).ok();

        let faults = Faults::disarmed();
        // Slow the first cell so the shutdown provably races in-flight
        // work.
        faults.arm("engine.cell.slow", 1, Some(200));
        let server = Server::bind_with(
            "127.0.0.1:0",
            ServeOptions {
                workers: Some(2),
                cache_path: Some(cache_path.clone()),
                faults,
                ..ServeOptions::default()
            },
        )
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = server.addr();

        let (status, _) = round_trip(addr, "POST", "/v1/jobs", SPEC.as_bytes()).expect("submit");
        assert_eq!(status, 202);
        // Immediately request a graceful shutdown: the job's single cell is
        // still queued or sleeping in its slow-down failpoint.
        let (status, body) = round_trip(addr, "POST", "/v1/shutdown", b"").expect("shutdown");
        assert_eq!(status, 200);
        assert!(body.contains("\"mode\": \"drain\""), "{body}");
        server.join().expect("clean exit");

        // The drain let the in-flight cell finish and the log was flushed:
        // a cold reopen of the cache file sees the completed result.
        let cache = crate::cache::ResultCache::open(&cache_path).expect("reopen");
        assert_eq!(
            cache.stats().loaded,
            1,
            "in-flight work completed and persisted before exit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
