//! The client side of the v1 API: one round trip per call, JSON parsed
//! into small typed views. Every call a process makes to a server goes
//! through [`Client`] — `malec-cli`'s remote commands, a sharded peer's
//! forward, wait and owner fetch, a peer's cache warm-up and the
//! integration tests — and every [`Client`] method goes through one
//! private retry loop over one [`http::request`](crate::http::request).
//!
//! Every v1 request is **idempotent** — job submission is content-addressed
//! (an identical resubmission dedups against the cache and any in-flight
//! simulation), and status/report/shutdown are safe to repeat — so the
//! client may retry any call. [`RetryPolicy`] retries connection failures,
//! timeouts, and retryable statuses (408/429/5xx) with capped exponential
//! backoff and deterministic jitter, honoring a server `Retry-After` up to
//! the policy's own backoff ceiling — a misbehaving peer advertising
//! `Retry-After: 86400` must not park a client for a day.

use std::io;
use std::time::{Duration, Instant};

use crate::cache::{
    decode_single_record, read_single_record, CacheStats, CompactOutcome, StoredSummary,
};
use crate::http::{request, Response};
use crate::json::{parse, Value};
use crate::report::esc;
use crate::server::MAX_POLL_HOLD;

use malec_core::RunSummary;
use malec_types::stable::fnv1a64;

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
    fn backoff(&self, attempt: u32, path: &str) -> Duration {
        let exp = attempt.min(20).saturating_sub(1);
        let ceiling = self
            .base
            .saturating_mul(1u32 << exp.min(16))
            .min(self.cap)
            .max(Duration::from_millis(1));
        let half = ceiling / 2;
        // FNV-1a over (path, attempt): deterministic jitter in [0, half].
        let h = fnv1a64(path.bytes().chain(attempt.to_le_bytes()));
        let jitter_ms = h % (half.as_millis().max(1) as u64 + 1);
        half + Duration::from_millis(jitter_ms)
    }

    /// The delay before retry `attempt` of a call to `path`: the server's
    /// `Retry-After` when it sent one, clamped to [`cap`](Self::cap) — one
    /// misbehaving peer must not park a client for a day — and the computed
    /// backoff otherwise.
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

/// Why a call's `accept` refused one response.
enum CallError {
    /// A damaged body or a retryable status, with the server's
    /// `Retry-After` seconds when it sent them: worth another attempt.
    Retry(String, Option<u64>),
    /// A deterministic answer (a `404`, another 4xx, a malformed body):
    /// the call fails at once.
    Final(String),
}

/// Sorts a response the caller cannot use by its status: a retry for
/// 408/429/5xx, carrying the server's `Retry-After`, a final answer
/// otherwise. Either carries the body's `error` message when it has one.
fn status_error(resp: Response) -> CallError {
    let (status, retry_after) = (resp.status, resp.retry_after);
    let json = parse(&resp.text().unwrap_or_default()).ok();
    let reason = match json.as_ref().and_then(|v| v.get("error")?.as_str()) {
        Some(detail) => format!("server returned {status}: {detail}"),
        None => format!("server returned {status}"),
    };
    if retryable_status(status) {
        CallError::Retry(reason, retry_after)
    } else {
        CallError::Final(reason)
    }
}

/// The body of a 2xx response as text; any other status goes to
/// [`status_error`].
fn success_text(resp: Response) -> Result<String, CallError> {
    if !(200..300).contains(&resp.status) {
        return Err(status_error(resp));
    }
    resp.text()
        .map_err(|e| CallError::Retry(e.to_string(), None))
}

/// The body of a 2xx response as JSON.
fn success_json(resp: Response) -> Result<Value, CallError> {
    let text = success_text(resp)?;
    parse(&text).map_err(|e| CallError::Final(format!("malformed response: {e}")))
}

/// A client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    retry: RetryPolicy,
}

/// A point-in-time view of one job: what `Engine::job_status` returns,
/// `GET /v1/jobs/<id>` serves (`JobView::to_json`) and [`Client::status`]
/// parses back.
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
    /// Replicates a CI target saved across the job's clusters so far.
    pub replicates_saved: u64,
    /// Submit-to-settle wall clock (`None` while running).
    pub wall_seconds: Option<f64>,
    /// The first failed cell's `kind: detail` payload, if any.
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

    /// Renders this view as the status-endpoint JSON, the format
    /// [`Client::status`] parses back.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\n  \"job\": {},\n  \"scenario\": \"{}\",\n  \"state\": \"{}\",\n  \"cells\": {},\n  \"simulated\": {},\n  \"cached\": {},\n  \"coalesced\": {},\n  \"fetched\": {},\n  \"failed\": {},\n  \"pending\": {},\n  \"replicates_saved\": {},\n  \"wall_seconds\": {},\n  \"error\": {}\n}}\n",
            self.job,
            esc(&self.scenario),
            esc(&self.state),
            self.cells,
            self.simulated,
            self.cached,
            self.coalesced,
            self.fetched,
            self.failed,
            self.pending,
            self.replicates_saved,
            self.wall_seconds
                .map_or_else(|| "null".to_owned(), |w| format!("{w:.4}")),
            self.error
                .as_deref()
                .map_or_else(|| "null".to_owned(), |e| format!("\"{}\"", esc(e))),
        )
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
        fetched: field(v, "fetched")?,
        failed: field(v, "failed")?,
        pending: field(v, "pending")?,
        replicates_saved: field(v, "replicates_saved")?,
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

    /// The one call path: one round trip per attempt under the retry
    /// policy. `accept` turns a response into the caller's value or sorts
    /// it into a [`CallError`]. A transport failure or a `Retry` backs off
    /// (a `Retry-After` overrides the computed backoff, capped at the
    /// policy ceiling) and tries again until the retries run out; a
    /// `Final` fails the call at once.
    fn call<T>(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        accept: impl Fn(Response) -> Result<T, CallError>,
    ) -> Result<T, String> {
        let context = |e: String| format!("{method} {path} at {}: {e}", self.addr);
        let mut attempt = 0u32;
        loop {
            let (fail, retry_after) = match request(&self.addr, method, path, body, REQUEST_TIMEOUT)
            {
                Ok(resp) => match accept(resp) {
                    Ok(value) => return Ok(value),
                    Err(CallError::Final(e)) => return Err(context(e)),
                    Err(CallError::Retry(e, retry_after)) => (e, retry_after),
                },
                Err(e) => (e.to_string(), None),
            };
            attempt += 1;
            if attempt > self.retry.retries {
                let plural = if attempt == 1 { "" } else { "s" };
                return Err(context(format!("{fail} ({attempt} attempt{plural})")));
            }
            std::thread::sleep(self.retry.retry_delay(attempt, path, retry_after));
        }
    }

    /// Submits a TOML spec; returns the job id.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and server-side rejections
    /// (spec parse errors arrive as `400` with the parser's message).
    pub fn submit(&self, spec_toml: &str) -> Result<u64, String> {
        let v = self.call("POST", "/v1/jobs", spec_toml.as_bytes(), success_json)?;
        field(&v, "job")
    }

    /// Submits a TOML spec restricted to the named config labels — the
    /// scatter sub-job form (`POST /v1/jobs?configs=A,B`). The server
    /// parses the full spec, then keeps only the listed configs.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); a label not in the spec is a `400`.
    pub(crate) fn submit_configs(&self, spec_toml: &str, labels: &[String]) -> Result<u64, String> {
        let path = format!("/v1/jobs?configs={}", labels.join(","));
        let v = self.call("POST", &path, spec_toml.as_bytes(), success_json)?;
        field(&v, "job")
    }

    /// Fetches one verified record from this peer's
    /// `GET /v1/cache/record/<key>` endpoint — the peer-miss path of
    /// sharded serving. The response is a single log-format record of at
    /// most 4 MiB; its checksum and key are verified before the summary is
    /// returned. Retries follow the policy of every other call: transport
    /// failures, a damaged or oversized body and retryable statuses back
    /// off (a `Retry-After` capped at the policy ceiling); a `404` (the
    /// peer has no such record) and every other status are deterministic
    /// and return at once.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures, a missing record, a
    /// non-retryable status, and a damaged or mismatched response body.
    pub fn fetch_record(&self, key: u128) -> Result<RunSummary, String> {
        self.fetch(key, decode_single_record)
    }

    /// [`fetch_record`](Self::fetch_record), keeping the body as stored
    /// once it decodes: the owner fetch lands it in the local cache as it
    /// came.
    ///
    /// # Errors
    ///
    /// As [`fetch_record`](Self::fetch_record).
    pub(crate) fn fetch_stored(&self, key: u128) -> Result<StoredSummary, String> {
        self.fetch(key, read_single_record)
    }

    /// The one record-fetch round trip; `read` verifies the single-record
    /// body and yields its key and value.
    fn fetch<T>(
        &self,
        key: u128,
        read: impl Fn(&[u8]) -> io::Result<(u128, T)>,
    ) -> Result<T, String> {
        let path = format!("/v1/cache/record/{key:032x}");
        self.call("GET", &path, b"", |resp| {
            match resp.status {
                200 => {}
                404 => return Err(CallError::Final(format!("no record for key {key:032x}"))),
                _ => return Err(status_error(resp)),
            }
            let retry = |e: String| CallError::Retry(e, None);
            let body = resp.bytes().map_err(|e| retry(e.to_string()))?;
            let (got, value) = read(&body).map_err(|e| retry(format!("record {key:032x}: {e}")))?;
            if got != key {
                return Err(retry(format!(
                    "record key mismatch (asked {key:032x}, got {got:032x})"
                )));
            }
            Ok(value)
        })
    }

    /// Fetches one job's status.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures, unknown jobs, and
    /// malformed responses.
    pub fn status(&self, job: u64) -> Result<JobView, String> {
        let v = self.call("GET", &format!("/v1/jobs/{job}"), b"", success_json)?;
        parse_view(&v)
    }

    /// Polls until the job reaches a terminal state — `done` *or* `failed`.
    /// A failed job is returned as a view, not an error: inspect
    /// [`JobView::state`] and [`JobView::error`].
    ///
    /// The cadence is [`RetryPolicy::poll_cadence`]: `poll_interval`
    /// doubling toward `poll_max`, so a job that settles just after a poll
    /// is seen up to one interval late. Each poll answers at once; the
    /// sharded forward's wait on its owner instead holds each poll on the
    /// server until the job settles. A shed poll (the saturation gate's
    /// `503`) or transient server error does **not** abort the wait — the
    /// job keeps running server-side regardless — it just delays the next
    /// poll, by the server's `Retry-After` (capped at the policy ceiling)
    /// when one is sent. Each poll retries transport errors up to the
    /// policy's `retries`; deterministic client errors (`404` for an
    /// expired job) are fatal immediately.
    ///
    /// # Errors
    ///
    /// Returns a message when the deadline passes, the server answers a
    /// non-retryable error, or `retries + 1` consecutive transport
    /// failures occur.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<JobView, String> {
        self.poll_until_settled(job, timeout, None)
    }

    /// [`wait`](Self::wait) in held polls, the sharded forward's wait on
    /// its owner: each poll sends `?wait=<ms>` for the server's whole hold
    /// ([`MAX_POLL_HOLD`]) or the time left, whichever is shorter, and a
    /// non-final answer is polled again at once. Only a shed or failed
    /// poll sleeps, as in `wait`.
    pub(crate) fn wait_held(&self, job: u64, timeout: Duration) -> Result<JobView, String> {
        self.poll_until_settled(job, timeout, Some(MAX_POLL_HOLD))
    }

    /// The one status-poll loop: `hold` is how long each poll asks the
    /// server to hold it (`None`: unheld polls at the policy cadence).
    fn poll_until_settled(
        &self,
        job: u64,
        timeout: Duration,
        hold: Option<Duration>,
    ) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        let status = format!("/v1/jobs/{job}");
        let mut polls = 0u32;
        loop {
            let path = match hold {
                Some(hold) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    format!("{status}?wait={}", hold.min(left).as_millis())
                }
                None => status.clone(),
            };
            // A shed or failed poll says nothing about the job, so it comes
            // back as a value that paces the next poll, never as a retry
            // that spends the budget.
            let poll = self.call("GET", &path, b"", |resp| {
                if retryable_status(resp.status) {
                    return Ok(Err((resp.status, resp.retry_after)));
                }
                parse_view(&success_json(resp)?)
                    .map(Ok)
                    .map_err(CallError::Final)
            })?;
            let delay = match poll {
                Ok(view) if view.is_terminal() => return Ok(view),
                Ok(view) if Instant::now() >= deadline => {
                    return Err(format!(
                        "job {job} still {} after {timeout:?} ({} of {} cells pending)",
                        view.state, view.pending, view.cells
                    ));
                }
                // The server already held this poll: ask again at once.
                Ok(_) if hold.is_some() => continue,
                Ok(_) => self.retry.poll_cadence(polls),
                Err((status, _)) if Instant::now() >= deadline => {
                    return Err(format!(
                        "job {job}: server still answering {status} to status polls at the \
                         {timeout:?} deadline"
                    ));
                }
                // Clamped like a retry: the hint paces, the policy bounds.
                Err((_, retry_after)) => retry_after.map_or_else(
                    || self.retry.poll_cadence(polls),
                    |s| Duration::from_secs(s).min(self.retry.cap),
                ),
            };
            std::thread::sleep(delay);
            polls += 1;
        }
    }

    /// Waits for `job`, already submitted from `spec`, to reach `done`; if
    /// it **fails** (a worker panic, say), backs off and resubmits `spec`,
    /// up to `resubmits` times. Resubmission is cheap and safe: cells that
    /// completed before the failure were cached, so each round re-simulates
    /// only the cells that actually failed. Each round waits up to
    /// `round_timeout`. Returns the id and view of the job that finished.
    ///
    /// # Errors
    ///
    /// Returns a message if a resubmission is rejected, a round's wait
    /// fails, or the last allowed submission fails too.
    pub fn wait_with_resubmits(
        &self,
        spec: &str,
        mut job: u64,
        round_timeout: Duration,
        resubmits: u32,
    ) -> Result<(u64, JobView), String> {
        let mut round = 0u32;
        loop {
            let view = self.wait(job, round_timeout)?;
            if view.state == "done" {
                return Ok((job, view));
            }
            round += 1;
            let detail = view.error.as_deref().unwrap_or("unknown failure");
            if round > resubmits {
                return Err(format!(
                    "job {job} failed after {round} submission(s): {detail}"
                ));
            }
            eprintln!(
                "malec-serve: job {job} failed ({detail}); resubmitting ({round}/{resubmits})"
            );
            std::thread::sleep(self.retry.backoff(round, "resubmit"));
            job = self.submit(spec)?;
        }
    }

    /// Fetches a finished job's report JSON (the `malec-cli run` schema).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown jobs and jobs still running (`409`).
    pub fn report(&self, job: u64) -> Result<String, String> {
        self.call("GET", &format!("/v1/jobs/{job}/report"), b"", success_text)
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
        self.call("GET", &format!("/v1/jobs/{job}/compare"), b"", success_text)
    }

    /// Fetches the cache counters.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and malformed responses.
    pub fn cache_stats(&self) -> Result<CacheStats, String> {
        let v = self.call("GET", "/v1/cache/stats", b"", success_json)?;
        Ok(CacheStats {
            entries: field(&v, "entries")?,
            loaded: field(&v, "loaded_from_disk")?,
            hits: field(&v, "hits")?,
            misses: field(&v, "misses")?,
            coalesced: field(&v, "coalesced")?,
            fetched: field(&v, "fetched")?,
            bytes_appended: field(&v, "bytes_appended")?,
            log_bytes: field(&v, "log_bytes")?,
            live_bytes: field(&v, "live_bytes")?,
            evicted: field(&v, "evicted")?,
            compactions: field(&v, "compactions")?,
        })
    }

    /// Asks the server to rewrite its cache log keeping only live records.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures, a server without a
    /// persisted cache (`400`) and a failed rewrite.
    pub fn compact(&self) -> Result<CompactOutcome, String> {
        let v = self.call("POST", "/v1/cache/compact", b"", success_json)?;
        Ok(CompactOutcome {
            bytes_before: field(&v, "bytes_before")?,
            bytes_after: field(&v, "bytes_after")?,
            records: field(&v, "live_records")?,
        })
    }

    /// Opens the server's `/v1/cache/sync` stream: its live record set in
    /// cache-log format, for `ResultCache::ingest` to verify record by
    /// record as it arrives. Only the response head has been read.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and a non-`200` answer.
    pub fn sync_stream(&self) -> Result<Response, String> {
        self.call("GET", "/v1/cache/sync", b"", |resp| match resp.status {
            200 => Ok(resp),
            _ => Err(status_error(resp)),
        })
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures.
    pub fn shutdown(&self) -> Result<(), String> {
        self.call("POST", "/v1/shutdown", b"", success_json)
            .map(|_| ())
    }

    /// The peer set a sharded server is configured with (self included),
    /// from `/v1/healthz`. Empty for a standalone server.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures and malformed responses.
    pub fn peers(&self) -> Result<Vec<String>, String> {
        let v = self.call("GET", "/v1/healthz", b"", success_json)?;
        let peers = v
            .get("peers")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("response lacks `peers`: {v:?}"))?;
        Ok(peers
            .iter()
            .filter_map(|p| p.as_str().map(str::to_owned))
            .collect())
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
    fn wait_with_resubmits_recovers_from_a_worker_panic() {
        let server = faulty_server(&[("worker.panic", 1, None)]);
        let client = Client::new(server.addr().to_string());
        let first = client.submit(SPEC).expect("submit");
        let (job, view) = client
            .wait_with_resubmits(SPEC, first, Duration::from_secs(60), 1)
            .expect("second submission completes");
        assert_ne!(job, first, "the finished job is the resubmission");
        assert_eq!(view.job, job);
        assert_eq!(view.state, "done");
        assert_eq!(view.pending, 0);
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn wait_with_resubmits_keeps_a_job_that_finishes_first_time() {
        let server = faulty_server(&[]);
        let client = Client::new(server.addr().to_string());
        let first = client.submit(SPEC).expect("submit");
        let (job, view) = client
            .wait_with_resubmits(SPEC, first, Duration::from_secs(60), 3)
            .expect("the first submission completes");
        assert_eq!(job, first, "no failure, no resubmission");
        assert_eq!(view.job, first);
        assert_eq!(view.state, "done");
        assert_eq!(view.simulated, view.cells, "simulated once, not retried");
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
    /// `i` (reading each request first), then exits, returning each
    /// request's target (`path?query`).
    fn scripted_server(replies: Vec<Reply>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let n = replies.len();
        let handle = std::thread::spawn(move || {
            let mut targets = Vec::new();
            for (conn, (status, headers, body)) in listener.incoming().take(n).zip(replies) {
                let mut conn = conn.expect("accept");
                let request = crate::http::read_request_deadline(&conn, Duration::from_secs(5));
                targets.push(request.map_or_else(
                    |e| format!("unreadable request: {e}"),
                    |r| match r.query.as_str() {
                        "" => r.path,
                        query => format!("{}?{query}", r.path),
                    },
                ));
                crate::http::write_response(
                    &mut conn,
                    status,
                    "application/json",
                    &headers,
                    body.as_bytes(),
                )
                .expect("write response");
            }
            targets
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

    /// A `/v1/cache/stats` body with every counter a server sends.
    const STATS_BODY: &str = "{\n  \"entries\": 0,\n  \"loaded_from_disk\": 0,\n  \"hits\": 0,\n  \
         \"misses\": 0,\n  \"coalesced\": 0,\n  \"fetched\": 0,\n  \"bytes_appended\": 0,\n  \
         \"log_bytes\": 5,\n  \"live_bytes\": 0,\n  \"evicted\": 0,\n  \"compactions\": 0\n}\n";

    #[test]
    fn cache_stats_refuses_a_body_missing_a_counter() {
        let (addr, server) = scripted_server(vec![
            (200, vec![], STATS_BODY),
            (
                200,
                vec![],
                "{\"entries\": 0, \"loaded_from_disk\": 0, \"hits\": 0, \"misses\": 0, \
                 \"coalesced\": 0, \"fetched\": 0, \"bytes_appended\": 0, \"live_bytes\": 0, \
                 \"evicted\": 0, \"compactions\": 0}\n",
            ),
        ]);
        let client = Client::new(addr);
        assert_eq!(client.cache_stats().expect("every counter").log_bytes, 5);
        let err = client
            .cache_stats()
            .expect_err("a body without log_bytes is refused");
        assert!(err.contains("lacks `log_bytes`"), "{err}");
        server.join().expect("server thread");
    }

    #[test]
    fn call_caps_a_hostile_retry_after_at_the_policy_ceiling() {
        // A JSON call, then a record fetch, each first answered by a 503
        // claiming `Retry-After: 86400`. Honored verbatim, a retry would
        // sleep a day; capped, it sleeps ≤50 ms and the second answer
        // lands.
        let (addr, server) = scripted_server(vec![
            (503, vec![("Retry-After", "86400")], "{}\n"),
            (200, vec![], STATS_BODY),
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
    fn fetch_record_stops_reading_a_body_past_the_cap() {
        // A faulty owner answers a record fetch with `200` and writes, in
        // chunks, a body eight times the 4 MiB cap. The fetch must fail
        // once the cap is passed and hang up, so the peer never gets to
        // write the whole body.
        use std::io::Write;
        const DECLARED: usize = 32 << 20;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = crate::http::read_request_deadline(&conn, Duration::from_secs(5));
            let octets = "application/octet-stream";
            crate::http::write_response_head(&mut conn, 200, octets, &[], DECLARED)
                .expect("write head");
            let chunk = [0u8; 64 * 1024];
            let mut written = 0;
            while written < DECLARED && conn.write_all(&chunk).is_ok() {
                written += chunk.len();
            }
            written
        });
        let err = Client::new(addr)
            .fetch_record(7)
            .expect_err("an oversized body fails the fetch");
        let written = peer.join().expect("peer thread");
        assert!(
            written < DECLARED,
            "the client read all {written} bytes the peer declared"
        );
        assert!(err.contains("too large"), "{err}");
    }

    /// The status body of job 1, finished.
    const DONE_VIEW: &str = "{\n  \"job\": 1,\n  \"scenario\": \"x\",\n  \"state\": \"done\",\n  \
         \"cells\": 1,\n  \"simulated\": 1,\n  \"cached\": 0,\n  \"coalesced\": 0,\n  \
         \"fetched\": 0,\n  \"failed\": 0,\n  \"pending\": 0,\n  \"replicates_saved\": 0\n}\n";

    /// The status body of job 1, still running.
    const RUNNING_VIEW: &str =
        "{\n  \"job\": 1,\n  \"scenario\": \"x\",\n  \"state\": \"running\",\n  \
         \"cells\": 1,\n  \"simulated\": 0,\n  \"cached\": 0,\n  \"coalesced\": 0,\n  \
         \"fetched\": 0,\n  \"failed\": 0,\n  \"pending\": 1,\n  \"replicates_saved\": 0\n}\n";

    #[test]
    fn wait_caps_a_hostile_retry_after_at_the_policy_ceiling() {
        // First status poll: shed with a day-long Retry-After. Second:
        // the finished job. The held wait sleeps after a shed as well.
        type Wait = fn(&Client, u64, Duration) -> Result<JobView, String>;
        let waits: [(&str, Wait); 2] = [("wait", Client::wait), ("wait_held", Client::wait_held)];
        for (name, wait) in waits {
            let (addr, server) = scripted_server(vec![
                (503, vec![("Retry-After", "86400")], "{}\n"),
                (200, vec![], DONE_VIEW),
            ]);
            let client = Client::new(addr).with_retry(tight_policy());
            let start = Instant::now();
            let view = wait(&client, 1, Duration::from_secs(30)).expect(name);
            assert_eq!(view.state, "done", "{name}");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{name}: a day-long Retry-After must not stall the poll loop, waited {:?}",
                start.elapsed()
            );
            server.join().expect("server thread");
        }
    }

    #[test]
    fn the_held_wait_asks_for_a_hold_on_every_poll_and_repolls_at_once() {
        // Six non-final answers, then the finished job. At the 50 ms
        // cadence the unheld `wait` keeps, the sleeps alone would take
        // 1.75 s; the held wait polls again at once.
        let mut replies: Vec<Reply> = vec![(200, vec![], RUNNING_VIEW); 6];
        replies.push((200, vec![], DONE_VIEW));
        let (addr, server) = scripted_server(replies);
        let client = Client::new(addr);
        let start = Instant::now();
        let view = client
            .wait_held(1, Duration::from_secs(30))
            .expect("wait_held");
        let waited = start.elapsed();
        assert_eq!(view.state, "done");
        let targets = server.join().expect("server thread");
        assert_eq!(
            targets,
            vec!["/v1/jobs/1?wait=20000"; 7],
            "every poll asks for the server's whole hold"
        );
        assert!(
            waited < Duration::from_secs(1),
            "slept between polls: {waited:?}"
        );

        // With less time left than the server's hold, a poll asks for the
        // time left.
        let (addr, server) = scripted_server(vec![(200, vec![], DONE_VIEW)]);
        Client::new(addr)
            .wait_held(1, Duration::from_secs(5))
            .expect("wait_held");
        let targets = server.join().expect("server thread");
        let asked: Vec<u64> = targets
            .iter()
            .filter_map(|t| t.strip_prefix("/v1/jobs/1?wait=")?.parse().ok())
            .collect();
        assert!(
            matches!(asked.as_slice(), [ms] if (4_000..=5_000).contains(ms)),
            "{targets:?}"
        );
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
    fn wait_with_resubmits_gives_up_after_the_resubmit_budget() {
        // Arm enough panics to defeat one resubmission.
        let server = faulty_server(&[("worker.panic", 1, None), ("worker.panic", 3, None)]);
        let client = Client::new(server.addr().to_string());
        let first = client.submit(SPEC).expect("submit");
        let err = client
            .wait_with_resubmits(SPEC, first, Duration::from_secs(60), 1)
            .expect_err("both submissions fail");
        assert!(err.contains("after 2 submission(s)"), "{err}");
        assert!(err.contains("panic:"), "{err}");
        client.shutdown().expect("shutdown");
        server.join().expect("clean exit");
    }
}
