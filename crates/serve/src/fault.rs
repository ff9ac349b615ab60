//! Deterministic fault injection: named failpoints armed on a schedule.
//!
//! Every failure test in this workspace must be **reproducible** — the same
//! discipline the golden digests impose on results applies to crashes. A
//! [`Faults`] registry holds named failpoints (compiled into the serving
//! code at the exact sites that can fail in production); each point counts
//! how many times execution reaches it, and an armed schedule fires an
//! action at exact hit counts. Disarmed (the default, and the only state a
//! production binary ever sees unless the operator passes `serve
//! --faults`), a failpoint is one mutex-free atomic check.
//!
//! The failpoints, and what firing them does:
//!
//! | name                | action             | site                                   |
//! |---------------------|--------------------|----------------------------------------|
//! | `worker.panic`      | panic              | inside a worker's per-cell simulation  |
//! | `worker.loop.panic` | panic              | worker loop, outside the per-cell guard|
//! | `cache.append.torn` | torn write (`:N` keeps N bytes) | the cache-log append      |
//! | `cache.append.fsync`| fail the `fsync`   | the cache-log append under `--fsync always` |
//! | `cache.compact.torn`| torn rewrite (`:N` keeps N records) | the compaction temp file |
//! | `cache.sync.stall`  | sleep (`:N` ms)    | mid-stream in `/v1/cache/sync`         |
//! | `engine.cell.slow`  | sleep (`:N` ms)    | before a cell simulates                |
//! | `http.read.stall`   | sleep (`:N` ms)    | before the server reads a request      |
//! | `http.respond.500`  | reply `500`        | before the server routes a request     |
//!
//! Schedules are written `name@hit[:param]`, separated by `;`:
//!
//! ```text
//! worker.panic@2;cache.append.torn@3:7;http.respond.500@1
//! ```
//!
//! fires a panic at the **second** cell simulation, tears the **third**
//! cache append down to 7 bytes, and answers the **first** HTTP request
//! with a 500. Hit counts are 1-based and exact: the schedule fires once
//! per entry, then the point goes quiet again — so a retrying client
//! converges, and a test can assert `fired()` counts afterwards.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::sync::lock;

/// What a fired failpoint does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an "injected" message (caught by the worker guards).
    Panic,
    /// Truncate the write to the first `keep` bytes of the record.
    Torn {
        /// Bytes of the record that reach the file before the "crash".
        keep: u64,
    },
    /// Sleep for `ms` milliseconds before proceeding.
    Delay {
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// Fail at the site: the server answers the request with a `500`
    /// instead of routing it, and the cache-log append fails its `fsync`.
    Error,
}

/// One schedule entry: fire `action` at the `at`-th hit (1-based).
#[derive(Clone, Copy, Debug)]
struct Trigger {
    at: u64,
    action: FaultAction,
    fired: bool,
}

#[derive(Debug, Default)]
struct Point {
    hits: u64,
    fired: u64,
    triggers: Vec<Trigger>,
}

/// A failpoint registry. Instance-scoped (each [`Engine`] owns one), so
/// parallel tests arming different schedules never interfere; a disarmed
/// registry costs one relaxed atomic load per check.
///
/// [`Engine`]: crate::scheduler::Engine
#[derive(Debug, Default)]
pub struct Faults {
    armed: AtomicBool,
    points: Mutex<HashMap<String, Point>>,
}

/// A malformed schedule string.
#[derive(Clone, Debug)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FaultParseError {}

/// The failpoint names the serving code compiles in. Arming any other name
/// is a schedule typo and is rejected loudly.
const KNOWN_POINTS: &[&str] = &[
    "worker.panic",
    "worker.loop.panic",
    "cache.append.torn",
    "cache.append.fsync",
    "cache.compact.torn",
    "cache.sync.stall",
    "engine.cell.slow",
    "http.read.stall",
    "http.respond.500",
];

/// The action kind a failpoint name implies (its `:param` meaning).
fn default_action(name: &str, param: Option<u64>) -> Option<FaultAction> {
    match name {
        "worker.panic" | "worker.loop.panic" => Some(FaultAction::Panic),
        "cache.append.torn" => Some(FaultAction::Torn {
            keep: param.unwrap_or(4),
        }),
        // For the compaction rewrite, `keep` counts complete RECORDS let
        // through before the tear (the torn half-record follows), not
        // bytes — a rewrite "crashes" at a record granularity.
        "cache.compact.torn" => Some(FaultAction::Torn {
            keep: param.unwrap_or(1),
        }),
        "engine.cell.slow" | "http.read.stall" | "cache.sync.stall" => Some(FaultAction::Delay {
            ms: param.unwrap_or(50),
        }),
        "http.respond.500" | "cache.append.fsync" => Some(FaultAction::Error),
        _ => None,
    }
}

impl Faults {
    /// A disarmed registry (the production default).
    pub fn disarmed() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Parses a `name@hit[:param];...` schedule into an armed registry.
    ///
    /// # Errors
    ///
    /// Rejects unknown failpoint names, missing/zero hit counts, and
    /// non-numeric fields — a typo'd schedule must fail loudly, not
    /// silently test nothing.
    pub fn parse(schedule: &str) -> Result<Arc<Self>, FaultParseError> {
        let faults = Self::default();
        for entry in schedule.split(';').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (name, rest) = entry.split_once('@').ok_or_else(|| {
                FaultParseError(format!(
                    "fault entry `{entry}` lacks `@hit` (want name@hit[:param])"
                ))
            })?;
            let (hit_text, param) = match rest.split_once(':') {
                Some((h, p)) => {
                    let p: u64 = p.parse().map_err(|_| {
                        FaultParseError(format!("fault entry `{entry}`: bad param `{p}`"))
                    })?;
                    (h, Some(p))
                }
                None => (rest, None),
            };
            let at: u64 = hit_text.parse().map_err(|_| {
                FaultParseError(format!("fault entry `{entry}`: bad hit count `{hit_text}`"))
            })?;
            if at == 0 {
                return Err(FaultParseError(format!(
                    "fault entry `{entry}`: hit counts are 1-based (first hit = 1)"
                )));
            }
            let action = default_action(name, param).ok_or_else(|| {
                FaultParseError(format!(
                    "unknown failpoint `{name}` (known: {})",
                    KNOWN_POINTS.join(", ")
                ))
            })?;
            faults.arm_action(name, at, action);
        }
        Ok(Arc::new(faults))
    }

    /// Arms `name` to fire its default action at the `at`-th hit
    /// (1-based). `param` is the action's knob (torn bytes kept, stall
    /// milliseconds); ignored by parameterless points.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the compiled-in failpoints — tests arming a
    /// nonexistent site would otherwise silently test nothing.
    pub fn arm(&self, name: &str, at: u64, param: Option<u64>) {
        let action =
            default_action(name, param).unwrap_or_else(|| panic!("unknown failpoint `{name}`"));
        self.arm_action(name, at, action);
    }

    fn arm_action(&self, name: &str, at: u64, action: FaultAction) {
        let mut points = lock(&self.points);
        points
            .entry(name.to_owned())
            .or_default()
            .triggers
            .push(Trigger {
                at,
                action,
                fired: false,
            });
        self.armed.store(true, Ordering::Release);
    }

    /// Evaluates the failpoint `name`: counts the hit and returns the
    /// scheduled action if this exact hit is armed. The caller performs
    /// the action (panicking, tearing a write, sleeping) **at its own
    /// site** — the registry only decides *when*.
    pub(crate) fn check(&self, name: &str) -> Option<FaultAction> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut points = lock(&self.points);
        let point = points.get_mut(name)?;
        point.hits += 1;
        let hit = point.hits;
        let trigger = point
            .triggers
            .iter_mut()
            .find(|t| !t.fired && t.at == hit)?;
        trigger.fired = true;
        point.fired += 1;
        Some(trigger.action)
    }

    /// [`check`](Self::check), performing `Delay` actions in place (the
    /// common case for stall-style points).
    pub(crate) fn check_delay(&self, name: &str) {
        if let Some(FaultAction::Delay { ms }) = self.check(name) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// How many times `name` has fired (0 for unknown or disarmed points).
    pub fn fired(&self, name: &str) -> u64 {
        lock(&self.points).get(name).map_or(0, |p| p.fired)
    }

    /// How many times `name` has been evaluated.
    pub fn hits(&self, name: &str) -> u64 {
        lock(&self.points).get(name).map_or(0, |p| p.hits)
    }

    /// Total fires across every point (the healthz endpoint reports it).
    pub fn fired_total(&self) -> u64 {
        lock(&self.points).values().map(|p| p.fired).sum()
    }

    /// Whether every armed trigger has fired — a chaos test's "the whole
    /// schedule actually happened" assertion.
    pub fn exhausted(&self) -> bool {
        lock(&self.points)
            .values()
            .all(|p| p.triggers.iter().all(|t| t.fired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_never_fires() {
        let f = Faults::disarmed();
        for _ in 0..100 {
            assert_eq!(f.check("worker.panic"), None);
        }
        assert_eq!(f.fired_total(), 0);
        // Disarmed points do not even count hits (the fast path skips the
        // map entirely).
        assert_eq!(f.hits("worker.panic"), 0);
    }

    #[test]
    fn fires_at_the_exact_hit_count_once() {
        let f = Faults::disarmed();
        f.arm("worker.panic", 3, None);
        assert_eq!(f.check("worker.panic"), None);
        assert_eq!(f.check("worker.panic"), None);
        assert_eq!(f.check("worker.panic"), Some(FaultAction::Panic));
        assert_eq!(f.check("worker.panic"), None, "fires exactly once");
        assert_eq!(f.fired("worker.panic"), 1);
        assert_eq!(f.hits("worker.panic"), 4);
        assert!(f.exhausted());
    }

    #[test]
    fn parses_schedules_with_params() {
        let f = Faults::parse("worker.panic@2; cache.append.torn@1:9;engine.cell.slow@4:120")
            .expect("parses");
        assert_eq!(
            f.check("cache.append.torn"),
            Some(FaultAction::Torn { keep: 9 })
        );
        assert_eq!(f.check("worker.panic"), None);
        assert_eq!(f.check("worker.panic"), Some(FaultAction::Panic));
        for _ in 0..3 {
            assert_eq!(f.check("engine.cell.slow"), None);
        }
        assert_eq!(
            f.check("engine.cell.slow"),
            Some(FaultAction::Delay { ms: 120 })
        );
        assert!(f.exhausted());
        assert_eq!(f.fired_total(), 3);
    }

    #[test]
    fn multiple_triggers_on_one_point() {
        let f = Faults::parse("http.respond.500@1;http.respond.500@2").expect("parses");
        assert_eq!(f.check("http.respond.500"), Some(FaultAction::Error));
        assert_eq!(f.check("http.respond.500"), Some(FaultAction::Error));
        assert_eq!(f.check("http.respond.500"), None);
        assert_eq!(f.fired("http.respond.500"), 2);
    }

    #[test]
    fn rejects_malformed_schedules() {
        for (bad, needle) in [
            ("worker.panic", "lacks `@hit`"),
            ("worker.panic@x", "bad hit count"),
            ("worker.panic@0", "1-based"),
            ("cache.append.torn@1:z", "bad param"),
            ("no.such.point@1", "unknown failpoint"),
        ] {
            let e = Faults::parse(bad).expect_err(bad);
            assert!(e.to_string().contains(needle), "`{e}` lacks `{needle}`");
        }
    }

    #[test]
    fn empty_schedule_is_disarmed() {
        let f = Faults::parse("  ").expect("parses");
        assert_eq!(f.check("worker.panic"), None);
        assert!(f.exhausted(), "nothing armed, trivially exhausted");
    }
}
