//! The client side of the v1 API: one round trip per call, JSON parsed
//! into small typed views. `malec-cli submit` / `status` are thin wrappers
//! over this module, and the integration tests drive servers through it.
//!
//! Every v1 request is **idempotent** — job submission is content-addressed
//! (an identical resubmission dedups against the cache and any in-flight
//! simulation), and status/report/shutdown are safe to repeat — so the
//! client may retry any call. [`RetryPolicy`] retries connection failures,
//! timeouts, and retryable statuses (408/429/5xx) with capped exponential
//! backoff and deterministic jitter, honoring a server `Retry-After` up to
//! the policy's own backoff ceiling — a misbehaving peer advertising
//! `Retry-After: 86400` must not park a client for a day.

use std::io::Read;
use std::time::{Duration, Instant};

use crate::cache::{decode_single_record, CacheStats};
use crate::http::{request_meta, request_stream};
use crate::json::{parse, Value};

use malec_core::RunSummary;

/// Total per-request budget (connect + write + read).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// When and how often to retry a failed call.
///
/// The delay before retry `n` (1-based) is drawn from the *equal jitter*
/// scheme: half of `min(base * 2^(n-1), cap)` is fixed, the other half is a
/// deterministic pseudo-random fraction keyed on the request path and
/// attempt number — concurrent clients spread out, yet every run of the
/// same workload backs off identically. A server-provided `Retry-After`
/// overrides the computed delay, clamped to [`cap`](Self::cap).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// First-retry backoff ceiling.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Status-poll cadence for [`Client::wait`]'s first polls.
    pub poll_interval: Duration,
    /// Ceiling the poll cadence backs off toward on long-running jobs, so
    /// a million-cell sweep does not hammer the status endpoint at the
    /// short-job cadence for its whole runtime.
    pub poll_max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    #[must_use]
    pub fn none() -> Self {
        Self {
            retries: 0,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            poll_interval: Duration::from_millis(50),
            poll_max: Duration::from_millis(500),
        }
    }

    /// `retries` retries with the standard backoff (100 ms base, 5 s cap).
    #[must_use]
    pub fn retries(retries: u32) -> Self {
        Self {
            retries,
            ..Self::none()
        }
    }

    /// The delay before retry `attempt` (1-based) of a call to `path`.
    #[must_use]
    pub fn backoff(&self, attempt: u32, path: &str) -> Duration {
        let exp = attempt.min(20).saturating_sub(1);
        let ceiling = self
            .base
            .saturating_mul(1u32 << exp.min(16))
            .min(self.cap)
            .max(Duration::from_millis(1));
        let half = ceiling / 2;
        // FNV-1a over (path, attempt): deterministic jitter in [0, half].
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in path.bytes().chain(attempt.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let jitter_ms = h % (half.as_millis().max(1) as u64 + 1);
        half + Duration::from_millis(jitter_ms)
    }

    /// The delay before retry `attempt` of a call to `path`: the server's
    /// `Retry-After` when it sent one, clamped to [`cap`](Self::cap) — one
    /// misbehaving peer must not park a client for a day — and the computed
    /// [`backoff`](Self::backoff) otherwise.
    fn retry_delay(&self, attempt: u32, path: &str, retry_after: Option<u64>) -> Duration {
        retry_after.map_or_else(
            || self.backoff(attempt, path),
            |s| Duration::from_secs(s).min(self.cap),
        )
    }

    /// The delay before the next status poll, given how many polls have
    /// already happened: starts at [`poll_interval`](Self::poll_interval)
    /// and doubles toward [`poll_max`](Self::poll_max) — a short job is
    /// observed promptly, a long one settles into the slow cadence.
    #[must_use]
    pub fn poll_cadence(&self, polls: u32) -> Duration {
        self.poll_interval
            .saturating_mul(1u32 << polls.min(16))
            .min(self.poll_max)
            .max(Duration::from_millis(1))
    }
}

/// Whether a response status is worth retrying: the request never ran to
/// completion (408 read deadline), the server shed load (429/503), or it
/// failed internally (5xx). Client errors (other 4xx) are deterministic
/// and retried never.
fn retryable_status(status: u16) -> bool {
    status == 408 || status == 429 || (500..600).contains(&status)
}

/// Why one record-fetch attempt failed.
enum FetchFailure {
    /// A deterministic answer: `404`, or a status the policy never retries.
    Final(String),
    /// Transport trouble, a damaged body or a retryable status, with the
    /// server's `Retry-After` seconds when it sent them.
    Retry(String, Option<u64>),
}

/// A client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    retry: RetryPolicy,
}

/// A client-side view of one job's status.
#[derive(Clone, Debug)]
pub struct JobView {
    /// The job id.
    pub job: u64,
    /// Scenario name.
    pub scenario: String,
    /// `"running"`, `"done"`, or `"failed"`.
    pub state: String,
    /// Total cells.
    pub cells: u64,
    /// Cells finished by fresh simulation.
    pub simulated: u64,
    /// Cells served from the result cache.
    pub cached: u64,
    /// Cells attached to a concurrent identical simulation.
    pub coalesced: u64,
    /// Cells fetched from their owning peer's cache (sharded serving).
    pub fetched: u64,
    /// Cells that failed (worker panic or injected fault).
    pub failed: u64,
    /// Cells still queued or simulating.
    pub pending: u64,
    /// Replicates a CI target saved across the job's cell groups.
    pub replicates_saved: u64,
    /// Submit-to-done wall clock, once finished.
    pub wall_seconds: Option<f64>,
    /// The first cell failure, when `state` is `"failed"`.
    pub error: Option<String>,
}

impl JobView {
    /// Cells that completed without a simulation of their own.
    pub fn served_without_simulation(&self) -> u64 {
        self.cached + self.coalesced + self.fetched
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        self.state == "done" || self.state == "failed"
    }
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("response lacks `{key}`: {v:?}"))
}

/// Parses a status-endpoint JSON object into a [`JobView`] (shared by the
/// one-shot [`Client::status`] and the polling loop of [`Client::wait`]).
fn parse_view(v: &Value) -> Result<JobView, String> {
    Ok(JobView {
        job: field(v, "job")?,
        scenario: v
            .get("scenario")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        state: v
            .get("state")
            .and_then(Value::as_str)
            .ok_or("response lacks `state`")?
            .to_owned(),
        cells: field(v, "cells")?,
        simulated: field(v, "simulated")?,
        cached: field(v, "cached")?,
        coalesced: field(v, "coalesced")?,
        // Absent on pre-sharding servers; default rather than fail.
        fetched: v.get("fetched").and_then(Value::as_u64).unwrap_or(0),
        // Absent on pre-fault-tolerance servers; default rather than fail.
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
        pending: field(v, "pending")?,
        // Absent on pre-replication servers; default rather than fail.
        replicates_saved: v
            .get("replicates_saved")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        wall_seconds: v.get("wall_seconds").and_then(Value::as_f64),
        error: v
            .get("error")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .filter(|e| !e.is_empty()),
    })
}

impl Client {
    /// A client for `addr` (`host:port`), failing fast (no retries).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            retry: RetryPolicy::none(),
        }
    }

    /// The same client with a different retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// One call under the retry policy. Connection errors, timeouts, and
    /// retryable statuses back off and retry; everything else returns on
    /// the first attempt. A `Retry-After` header overrides the backoff.
    fn call(&self, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
        let mut attempt = 0u32;
        loop {
            let outcome = request_meta(&self.addr, method, path, body, REQUEST_TIMEOUT);
            let (fail, retry_after) = match &outcome {
                Ok(resp) if !retryable_status(resp.status) => {
                    return Ok((resp.status, resp.body.clone()))
                }
                Ok(resp) => (format!("server returned {}", resp.status), resp.retry_after),
                Err(e) => (e.to_string(), None),
            };
            attempt += 1;
            if attempt > self.retry.retries {
                return match outcome {
                    Ok(resp) => Ok((resp.status, resp.body)),
                    Err(_) => Err(format!(
                        "{method} {} at {}: {fail} ({attempt} attempt{})",
                        path,
                        self.addr,
                        if attempt == 1 { "" } else { "s" }
                    )),
                };
            }
            std::thread::sleep(self.retry.retry_delay(attempt, path, retry_after));
        }
    }

    fn call_json(&self, method: &str, path: &str, body: &[u8]) -> Result<Value, String> {
        let (status, text) = self.call(method, path, body)?;
        let v = parse(&text).map_err(|e| format!("{path}: malformed response: {e}"))?;
        if (200..300).contains(&status) {
            Ok(v)
        } else {
            let detail = v
                .get("error")
                .and_then(Value::as_str)
                .map_or_else(|| text.clone(), str::to_owned);
            Err(format!("{path}: server returned {status}: {detail}"))
        }
    }

    /// Submits a TOML spec; returns the job id.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and server-side rejections
    /// (spec parse errors arrive as `400` with the parser's message).
    pub fn submit(&self, spec_toml: &str) -> Result<u64, String> {
        let v = self.call_json("POST", "/v1/jobs", spec_toml.as_bytes())?;
        field(&v, "job")
    }

    /// Submits a TOML spec restricted to the named config labels — the
    /// scatter sub-job form (`POST /v1/jobs?configs=A,B`). The server
    /// parses the full spec, then keeps only the listed configs.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); a label not in the spec is a `400`.
    pub fn submit_configs(&self, spec_toml: &str, labels: &[String]) -> Result<u64, String> {
        let path = format!("/v1/jobs?configs={}", labels.join(","));
        let v = self.call_json("POST", &path, spec_toml.as_bytes())?;
        field(&v, "job")
    }

    /// Fetches one verified record from this peer's
    /// `GET /v1/cache/record/<key>` endpoint — the peer-miss path of
    /// sharded serving. The response is a single log-format record; its
    /// checksum and key are verified before the summary is returned.
    /// Retries follow the policy of every other call: transport failures,
    /// a damaged body and retryable statuses back off (a `Retry-After`
    /// capped at the policy ceiling); a `404` (the peer has no such record)
    /// and every other status are deterministic and return at once.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures, a missing record, a
    /// non-retryable status, and a damaged or mismatched response body.
    pub fn fetch_record(&self, key: u128) -> Result<RunSummary, String> {
        let path = format!("/v1/cache/record/{key:032x}");
        let mut attempt = 0u32;
        loop {
            let (fail, retry_after) = match self.try_fetch_record(&path, key) {
                Ok(summary) => return Ok(summary),
                Err(FetchFailure::Final(e)) => return Err(e),
                Err(FetchFailure::Retry(e, retry_after)) => (e, retry_after),
            };
            attempt += 1;
            if attempt > self.retry.retries {
                return Err(format!(
                    "GET {path} at {}: {fail} ({attempt} attempt{})",
                    self.addr,
                    if attempt == 1 { "" } else { "s" }
                ));
            }
            std::thread::sleep(self.retry.retry_delay(attempt, &path, retry_after));
        }
    }

    /// One record-fetch attempt.
    fn try_fetch_record(&self, path: &str, key: u128) -> Result<RunSummary, FetchFailure> {
        let retry = |e: String| FetchFailure::Retry(e, None);
        let (status, retry_after, mut stream) =
            request_stream(&self.addr, "GET", path, REQUEST_TIMEOUT)
                .map_err(|e| retry(e.to_string()))?;
        if status != 200 {
            return Err(match status {
                404 => FetchFailure::Final(format!("{}: no record for key {key:032x}", self.addr)),
                s if retryable_status(s) => {
                    FetchFailure::Retry(format!("server returned {s}"), retry_after)
                }
                s => {
                    FetchFailure::Final(format!("GET {path} at {}: server returned {s}", self.addr))
                }
            });
        }
        let mut body = Vec::new();
        stream
            .read_to_end(&mut body)
            .map_err(|e| retry(e.to_string()))?;
        let (got, summary) = decode_single_record(&body).map_err(|e| retry(e.to_string()))?;
        if got != key {
            return Err(retry(format!(
                "record key mismatch (asked {key:032x}, got {got:032x})"
            )));
        }
        Ok(summary)
    }

    /// Fetches one job's status.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures, unknown jobs, and
    /// malformed responses.
    pub fn status(&self, job: u64) -> Result<JobView, String> {
        let v = self.call_json("GET", &format!("/v1/jobs/{job}"), b"")?;
        parse_view(&v)
    }

    /// Polls until the job reaches a terminal state — `done` *or* `failed`.
    /// A failed job is returned as a view, not an error: inspect
    /// [`JobView::state`] and [`JobView::error`].
    ///
    /// The cadence is [`RetryPolicy::poll_cadence`]: `poll_interval`
    /// doubling toward `poll_max`. A shed poll (the saturation gate's
    /// `503`) or transient server error does **not** abort the wait — the
    /// job keeps running server-side regardless — it just delays the next
    /// poll, by the server's `Retry-After` when one is sent. Transport
    /// errors are bounded by the policy's `retries` (consecutive);
    /// deterministic client errors (`404` for an expired job) are fatal
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns a message when the deadline passes, the server answers a
    /// non-retryable error, or `retries + 1` consecutive transport
    /// failures occur.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        let path = format!("/v1/jobs/{job}");
        let mut polls = 0u32;
        let mut transport_failures = 0u32;
        loop {
            match request_meta(&self.addr, "GET", &path, b"", REQUEST_TIMEOUT) {
                Ok(resp) if (200..300).contains(&resp.status) => {
                    transport_failures = 0;
                    let v = parse(&resp.body)
                        .map_err(|e| format!("{path}: malformed response: {e}"))?;
                    let view = parse_view(&v)?;
                    if view.is_terminal() {
                        return Ok(view);
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "job {job} still {} after {timeout:?} ({} of {} cells pending)",
                            view.state, view.pending, view.cells
                        ));
                    }
                    std::thread::sleep(self.retry.poll_cadence(polls));
                    polls += 1;
                }
                Ok(resp) if retryable_status(resp.status) => {
                    // The server answered, so it is alive — a shed or
                    // failed poll never gives up on the job. Honor its
                    // pacing hint when it sent one.
                    transport_failures = 0;
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "job {job}: server still answering {} to status polls at the \
                             {timeout:?} deadline",
                            resp.status
                        ));
                    }
                    // Clamped like the call path: the hint paces, the
                    // policy bounds.
                    let delay = resp.retry_after.map_or_else(
                        || self.retry.poll_cadence(polls),
                        |s| Duration::from_secs(s).min(self.retry.cap),
                    );
                    std::thread::sleep(delay);
                    polls += 1;
                }
                Ok(resp) => {
                    // Deterministic client error (404: unknown/expired job).
                    let detail = parse(&resp.body)
                        .ok()
                        .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_owned))
                        .unwrap_or(resp.body);
                    return Err(format!("{path}: server returned {}: {detail}", resp.status));
                }
                Err(e) => {
                    transport_failures += 1;
                    if transport_failures > self.retry.retries {
                        return Err(format!(
                            "GET {path} at {}: {e} ({transport_failures} consecutive failure{})",
                            self.addr,
                            if transport_failures == 1 { "" } else { "s" }
                        ));
                    }
                    std::thread::sleep(self.retry.backoff(transport_failures, &path));
                }
            }
        }
    }

    /// Submits `spec` and waits for `done`, resubmitting up to `resubmits`
    /// times if the job **fails** (a worker panic, say). Resubmission is
    /// cheap and safe: cells that completed before the failure were cached,
    /// so each retry re-simulates only the cells that actually failed.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec is rejected, the deadline passes, or
    /// every submission fails.
    pub fn run_to_completion(
        &self,
        spec: &str,
        timeout: Duration,
        resubmits: u32,
    ) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        let mut last = String::new();
        for round in 0..=resubmits {
            let job = self.submit(spec)?;
            let left = deadline.saturating_duration_since(Instant::now());
            let view = self.wait(job, left)?;
            if view.state == "done" {
                return Ok(view);
            }
            last = view.error.unwrap_or_else(|| "unknown failure".to_owned());
            if round < resubmits {
                std::thread::sleep(self.retry.backoff(round + 1, "resubmit"));
            }
        }
        Err(format!(
            "job failed after {} submission(s): {last}",
            u64::from(resubmits) + 1
        ))
    }

    /// Fetches a finished job's report JSON (the `malec-cli run` schema).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown jobs and jobs still running (`409`).
    pub fn report(&self, job: u64) -> Result<String, String> {
        let (status, text) = self.call("GET", &format!("/v1/jobs/{job}/report"), b"")?;
        if status == 200 {
            Ok(text)
        } else {
            Err(format!("report for job {job}: server returned {status}"))
        }
    }

    /// Fetches a finished job's paired-comparison report JSON (the
    /// `malec-cli compare` schema), assembled server-side from the job's
    /// cache-keyed per-replicate cells.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown jobs, jobs still running (`409`), and
    /// jobs with no comparable pair (`400`, with the server's reason).
    pub fn compare(&self, job: u64) -> Result<String, String> {
        let (status, text) = self.call("GET", &format!("/v1/jobs/{job}/compare"), b"")?;
        if status == 200 {
            Ok(text)
        } else {
            let detail = parse(&text)
                .ok()
                .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_owned))
                .unwrap_or_default();
            Err(format!(
                "compare for job {job}: server returned {status}{}",
                if detail.is_empty() {
                    String::new()
                } else {
                    format!(": {detail}")
                }
            ))
        }
    }

    /// Fetches the cache counters.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and malformed responses.
    pub fn cache_stats(&self) -> Result<CacheStats, String> {
        let v = self.call_json("GET", "/v1/cache/stats", b"")?;
        // The lifecycle counters are absent on pre-lifecycle servers;
        // default rather than fail.
        let opt = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        Ok(CacheStats {
            entries: field(&v, "entries")?,
            loaded: field(&v, "loaded_from_disk")?,
            hits: field(&v, "hits")?,
            misses: field(&v, "misses")?,
            coalesced: field(&v, "coalesced")?,
            fetched: opt("fetched"),
            bytes_appended: field(&v, "bytes_appended")?,
            log_bytes: opt("log_bytes"),
            live_bytes: opt("live_bytes"),
            evicted: opt("evicted"),
            compactions: opt("compactions"),
        })
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures.
    pub fn shutdown(&self) -> Result<(), String> {
        self.call_json("POST", "/v1/shutdown", b"").map(|_| ())
    }

    /// Whether a server is answering at this address.
    pub fn healthy(&self) -> bool {
        self.call_json("GET", "/v1/healthz", b"")
            .map(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
            .unwrap_or(false)
    }

    /// The peer set a sharded server is configured with (self included),
    /// from `/v1/healthz`. Empty for a standalone or pre-sharding server.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and malformed responses.
    pub fn peers(&self) -> Result<Vec<String>, String> {
        let v = self.call_json("GET", "/v1/healthz", b"")?;
        Ok(v.get("peers")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|p| p.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    const SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
                        [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 1200\nseed = 9\n";

    #[test]
    fn full_client_session() {
        let server = Server::bind("127.0.0.1:0", Some(2), None)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let client = Client::new(server.addr().to_string());
        assert!(client.healthy());

        let job = client.submit(SPEC).expect("submit");
        let view = client.wait(job, Duration::from_secs(60)).expect("wait");
        assert_eq!(view.cells, 2);
        assert_eq!(view.pending, 0);
        let report = client.report(job).expect("report");
        assert!(report.contains("malec_scenario_sweep"));

        let again = client.submit(SPEC).expect("resubmit");
        let view = client.wait(again, Duration::from_secs(60)).expect("wait");
        assert_eq!(
            view.served_without_simulation(),
            view.cells,
            "resubmission must be served from cache"
        );
        let stats = client.cache_stats().expect("stats");
        assert_eq!(stats.entries, 2);
        assert!(stats.hits >= 2);

        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn submit_of_a_bad_spec_reports_the_parser_message() {
        let server = Server::bind("127.0.0.1:0", Some(1), None)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let client = Client::new(server.addr().to_string());
        let err = client
            .submit("[scenario]\nname = \"x\"\n")
            .expect_err("bad spec");
        assert!(err.contains("400"), "{err}");
        assert!(err.contains("phase"), "the parser message travels: {err}");
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    fn faulty_server(arm: &[(&str, u64, Option<u64>)]) -> crate::server::ServerHandle {
        let faults = crate::fault::Faults::disarmed();
        for &(name, at, param) in arm {
            faults.arm(name, at, param);
        }
        Server::bind_with(
            "127.0.0.1:0",
            crate::server::ServeOptions {
                workers: Some(1),
                faults,
                ..crate::server::ServeOptions::default()
            },
        )
        .expect("bind")
        .spawn()
        .expect("spawn")
    }

    #[test]
    fn backoff_is_capped_deterministic_and_grows() {
        let p = RetryPolicy::retries(8);
        let d1 = p.backoff(1, "/v1/jobs");
        let d2 = p.backoff(2, "/v1/jobs");
        assert_eq!(d1, p.backoff(1, "/v1/jobs"), "same inputs, same delay");
        assert_ne!(
            p.backoff(1, "/v1/jobs"),
            p.backoff(1, "/v1/healthz"),
            "jitter separates concurrent callers"
        );
        assert!(d1 >= Duration::from_millis(50) && d1 <= Duration::from_millis(100));
        assert!(d2 >= Duration::from_millis(100) && d2 <= Duration::from_millis(200));
        for attempt in 1..40 {
            assert!(p.backoff(attempt, "x") <= p.cap, "cap holds at {attempt}");
        }
    }

    #[test]
    fn retry_rides_out_an_injected_500() {
        let server = faulty_server(&[("http.respond.500", 1, None)]);
        let addr = server.addr().to_string();

        // Fail-fast client sees the injected failure...
        let err = Client::new(&addr).cache_stats().expect_err("500 surfaces");
        assert!(err.contains("500"), "{err}");
        // ...a retrying client rides it out. (The failpoint fires exactly
        // once; only the first request is damaged.)
        let server2 = faulty_server(&[("http.respond.500", 1, None)]);
        let addr2 = server2.addr().to_string();
        let client = Client::new(&addr2).with_retry(RetryPolicy::retries(2));
        client.cache_stats().expect("retry recovers");

        for a in [addr, addr2] {
            Client::new(a).shutdown().expect("shutdown");
        }
        server.join().expect("clean exit");
        server2.join().expect("clean exit");
    }

    #[test]
    fn wait_is_terminal_on_failure_and_resubmission_completes() {
        let server = faulty_server(&[("worker.panic", 1, None)]);
        let client = Client::new(server.addr().to_string());

        let job = client.submit(SPEC).expect("submit");
        let view = client.wait(job, Duration::from_secs(60)).expect("wait");
        assert_eq!(view.state, "failed", "wait returned on the failure");
        assert_eq!(view.failed, 1);
        assert!(
            view.error
                .as_deref()
                .is_some_and(|e| e.starts_with("panic:")),
            "{view:?}"
        );

        // The failure consumed the failpoint, so a resubmission completes —
        // and the sibling cell that survived round one is served from cache.
        let view = client
            .wait(
                client.submit(SPEC).expect("resubmit"),
                Duration::from_secs(60),
            )
            .expect("wait");
        assert_eq!(view.state, "done");
        assert_eq!(
            view.served_without_simulation(),
            1,
            "the surviving cell was reused, not re-simulated: {view:?}"
        );

        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn run_to_completion_recovers_from_a_worker_panic() {
        let server = faulty_server(&[("worker.panic", 1, None)]);
        let client = Client::new(server.addr().to_string());
        let view = client
            .run_to_completion(SPEC, Duration::from_secs(60), 1)
            .expect("second submission completes");
        assert_eq!(view.state, "done");
        assert_eq!(view.pending, 0);
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn poll_cadence_doubles_from_interval_to_max() {
        let p = RetryPolicy::none();
        assert_eq!(p.poll_cadence(0), Duration::from_millis(50));
        assert_eq!(p.poll_cadence(1), Duration::from_millis(100));
        assert_eq!(p.poll_cadence(2), Duration::from_millis(200));
        assert_eq!(p.poll_cadence(3), Duration::from_millis(400));
        assert_eq!(p.poll_cadence(4), Duration::from_millis(500), "capped");
        for polls in 4..64 {
            assert_eq!(p.poll_cadence(polls), p.poll_max, "stays at the cap");
        }
    }

    /// One scripted reply: status, extra headers, body.
    type Reply = (u16, Vec<(&'static str, &'static str)>, &'static str);

    /// A hand-rolled one-route server: answers `replies[i]` to request
    /// `i` (reading each request first), then exits.
    fn scripted_server(replies: Vec<Reply>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let n = replies.len();
        let handle = std::thread::spawn(move || {
            for (conn, (status, headers, body)) in listener.incoming().take(n).zip(replies) {
                let mut conn = conn.expect("accept");
                let _ = crate::http::read_request_deadline(&conn, Duration::from_secs(5));
                crate::http::write_response_with(
                    &mut conn,
                    status,
                    "application/json",
                    &headers,
                    body.as_bytes(),
                )
                .expect("write response");
            }
        });
        (addr, handle)
    }

    /// A policy whose ceilings are tight enough that an honored-verbatim
    /// day-long Retry-After is unmistakable.
    fn tight_policy() -> RetryPolicy {
        RetryPolicy {
            retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            poll_interval: Duration::from_millis(1),
            poll_max: Duration::from_millis(10),
        }
    }

    #[test]
    fn call_caps_a_hostile_retry_after_at_the_policy_ceiling() {
        // A JSON call, then a record fetch, each first answered by a 503
        // claiming `Retry-After: 86400`. Honored verbatim, a retry would
        // sleep a day; capped, it sleeps ≤50 ms and the second answer
        // lands.
        let (addr, server) = scripted_server(vec![
            (503, vec![("Retry-After", "86400")], "{}\n"),
            (
                200,
                vec![],
                "{\n  \"entries\": 0,\n  \"loaded_from_disk\": 0,\n  \"hits\": 0,\n  \
                 \"misses\": 0,\n  \"coalesced\": 0,\n  \"bytes_appended\": 0\n}\n",
            ),
            (503, vec![("Retry-After", "86400")], "{}\n"),
            (404, vec![], "{}\n"),
        ]);
        let client = Client::new(addr).with_retry(tight_policy());
        let start = Instant::now();
        client.cache_stats().expect("second attempt succeeds");
        let err = client
            .fetch_record(7)
            .expect_err("the retry finds no record");
        assert!(err.contains("no record for key"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "a day-long Retry-After must be capped at the policy ceiling, waited {:?}",
            start.elapsed()
        );
        server.join().expect("server thread");
    }

    #[test]
    fn fetch_record_returns_a_deterministic_4xx_at_once() {
        // A 400 cannot change on retry: the error names it, and the 404
        // scripted behind it is left for the next call.
        let (addr, server) = scripted_server(vec![
            (400, vec![], "{\"error\": \"bad record key\"}\n"),
            (404, vec![], "{}\n"),
        ]);
        let client = Client::new(addr).with_retry(RetryPolicy::retries(2));
        let err = client.fetch_record(7).expect_err("a 400 fails the fetch");
        assert!(err.contains("server returned 400"), "{err}");
        let err = client.fetch_record(7).expect_err("the 404 answers next");
        assert!(err.contains("no record for key"), "{err}");
        server.join().expect("server thread");
    }

    #[test]
    fn wait_caps_a_hostile_retry_after_at_the_policy_ceiling() {
        // First status poll: shed with a day-long Retry-After. Second:
        // the finished job.
        let (addr, server) = scripted_server(vec![
            (503, vec![("Retry-After", "86400")], "{}\n"),
            (
                200,
                vec![],
                "{\n  \"job\": 1,\n  \"scenario\": \"x\",\n  \"state\": \"done\",\n  \
                 \"cells\": 1,\n  \"simulated\": 1,\n  \"cached\": 0,\n  \"coalesced\": 0,\n  \
                 \"failed\": 0,\n  \"pending\": 0\n}\n",
            ),
        ]);
        let client = Client::new(addr).with_retry(tight_policy());
        let start = Instant::now();
        let view = client.wait(1, Duration::from_secs(30)).expect("wait");
        assert_eq!(view.state, "done");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "a day-long Retry-After must not stall the poll loop, waited {:?}",
            start.elapsed()
        );
        server.join().expect("server thread");
    }

    #[test]
    fn wait_rides_out_a_shed_or_failed_status_poll() {
        // Request 1 is the submit; request 2 — the first status poll — gets
        // an injected 500. A failed *poll* says nothing about the job, so
        // even a fail-fast (no-retry) client must keep polling and return
        // the completed view.
        let server = faulty_server(&[("http.respond.500", 2, None)]);
        let client = Client::new(server.addr().to_string());
        let job = client.submit(SPEC).expect("submit");
        let view = client.wait(job, Duration::from_secs(60)).expect("wait");
        assert_eq!(view.state, "done");
        assert_eq!(view.pending, 0);
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn run_to_completion_gives_up_after_the_resubmit_budget() {
        // Arm enough panics to defeat one resubmission.
        let server = faulty_server(&[("worker.panic", 1, None), ("worker.panic", 3, None)]);
        let client = Client::new(server.addr().to_string());
        let err = client
            .run_to_completion(SPEC, Duration::from_secs(60), 1)
            .expect_err("both submissions fail");
        assert!(err.contains("after 2 submission(s)"), "{err}");
        assert!(err.contains("panic:"), "{err}");
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }
}
