//! The content-addressed result cache.
//!
//! Every simulation cell the service runs is a pure function: one
//! `(SimConfig, scenario, seed, horizon)` tuple maps to one [`RunSummary`],
//! bit for bit, forever — PRs 1–2 proved that with golden digests and
//! replay verification, and it is exactly the property that makes a result
//! cache *sound*. [`cache_key`] derives a 128-bit stable key from the tuple
//! (via [`malec_types::stable`]); [`ResultCache`] maps keys to summaries
//! and persists every insertion to a compact append-only log, so a
//! restarted server comes back warm.
//!
//! Log format (`MSRC` magic, little-endian):
//!
//! ```text
//! magic "MSRC"  version u8
//! record*:
//!   key   u128
//!   ver   u8            — the KEY_VERSION the record was written under
//!   len   u32           — byte length of the summary encoding
//!   sum   u64           — FNV-1a-64 over key ‖ ver ‖ len ‖ body
//!   body  [u8; len]     — malec_core::digest::summary_to_bytes encoding
//! ```
//!
//! On open, the log is replayed into memory. Recovery salvages the
//! **longest valid prefix**: replay stops at the first record that is
//! short (a crash mid-append), fails its checksum (a flipped byte), or
//! does not decode, and the file is truncated there — every record before
//! the damage is kept, everything from it on is dropped with a warning.
//! Because each FNV-1a step is a bijection on the running state, any
//! single corrupted byte inside a record is guaranteed to change its
//! checksum, so a damaged record can never be served as a result. A log
//! with the wrong magic or version is still refused rather than silently
//! rebuilt — deleting a stale cache is an operator decision.
//!
//! Replay is **last-record-wins**: a duplicate-key append (a resubmission
//! racing a failed-append rollback, or a compaction racing a pending
//! append) is legal on disk, and reopening keeps only the newest record
//! per key. Records written under a superseded `KEY_VERSION` are skipped
//! without decoding — their keys can never be looked up again. Both kinds
//! of superseded record are *dead bytes*: they stay on disk until
//! [`compact`](ResultCache::compact) rewrites the log with only the live
//! record set (atomically: write `<path>.compact`, fsync, rename — a crash
//! at any point leaves either the old log intact or the new log complete).
//!
//! The in-memory map is LRU-ordered and optionally size-bounded
//! ([`with_max_bytes`](ResultCache::with_max_bytes)): past the cap, the
//! least-recently-used entries are dropped from memory immediately (and
//! from disk at the next compaction), so a long-lived server holds a
//! steady-state footprint. The live record set can also be streamed in log
//! format ([`live_records`](ResultCache::live_records) /
//! [`ingest`](ResultCache::ingest)) — the `/v1/cache/sync` wire format a
//! fresh peer warms up from, verified record by record with the same
//! per-record checksums.
//!
//! Durability is a policy knob ([`FsyncPolicy`]): every append is written
//! and flushed synchronously (a crash of *this process* never loses an
//! acknowledged record), and `fsync` runs either per append (`always`) or
//! once at graceful shutdown (`on-close`, the default — an OS crash can
//! lose the page-cache tail, which recovery then truncates). A *failed*
//! append — disk error, or the [`cache.append.torn`](crate::fault)
//! failpoint — is rolled back in place (`set_len` to the last good byte)
//! so a live server's log never accumulates mid-file damage.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use crate::sync::lock;

use malec_core::digest::{read_summary, summary_to_bytes};
use malec_core::RunSummary;
use malec_trace::Scenario;
use malec_types::stable::{fnv1a64, StableHasher, StableKey};
use malec_types::SimConfig;

use crate::fault::{FaultAction, Faults};

const MAGIC: &[u8; 4] = b"MSRC";
const VERSION: u8 = 3;

/// Bytes of the log header (magic + version).
const HEADER_LEN: u64 = 5;

/// The per-record checksum: FNV-1a-64 over `key ‖ ver ‖ len ‖ body`.
fn record_sum(key: u128, ver: u8, body: &[u8]) -> u64 {
    let len = (body.len() as u32).to_le_bytes();
    fnv1a64(
        key.to_le_bytes()
            .into_iter()
            .chain([ver])
            .chain(len)
            .chain(body.iter().copied()),
    )
}

/// When the cache log reaches the platters, not just the page cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` once at graceful shutdown. Appends are still written and
    /// flushed synchronously, so a process crash loses nothing; an OS
    /// crash can lose the page-cache tail, which recovery truncates. The
    /// default.
    #[default]
    OnClose,
    /// `fsync` after every append: durable against power loss, at a
    /// per-record disk round trip.
    Always,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(Self::Always),
            "on-close" | "onclose" => Ok(Self::OnClose),
            other => Err(format!(
                "unknown fsync policy `{other}` (want `always` or `on-close`)"
            )),
        }
    }
}

/// Version tag folded into every cache key **and** written into every log
/// record. Bump when any [`StableKey`] encoding (or the summary codec)
/// changes, so persisted logs from older encodings can never alias new
/// keys — replay skips records carrying a superseded tag without decoding
/// them, and compaction drops them from disk. (v2: the replicate index
/// joined the key, so replicate cells can never collide with each other or
/// with legacy single-seed cells.)
const KEY_VERSION: u8 = 2;

/// Derives the stable 128-bit cache key of one simulation cell.
///
/// `seed` is the **base** seed of the submission and `replicate` the cell's
/// replicate index; the pair is folded (not the derived per-replicate
/// seed), so a legacy single-seed cell — always `(seed, 0)` — and every
/// replicate address distinct entries even under adversarial seed choices
/// (e.g. a base seed equal to another submission's derived replicate seed).
pub fn cache_key(
    config: &SimConfig,
    scenario: &Scenario,
    insts: u64,
    seed: u64,
    replicate: u32,
) -> u128 {
    let mut h = StableHasher::new();
    h.write_u8(KEY_VERSION);
    config.fold(&mut h);
    scenario.fold(&mut h);
    h.write_u64(insts);
    h.write_u64(seed);
    replicate.fold(&mut h);
    h.finish()
}

/// Running cache counters, served by `GET /v1/cache/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: u64,
    /// Entries replayed from the persisted log at open.
    pub loaded: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (each one becomes a simulation).
    pub misses: u64,
    /// Cells that attached to an identical in-flight simulation instead of
    /// starting their own (the scheduler reports these).
    pub coalesced: u64,
    /// Records fetched from an owning peer's cache instead of simulated
    /// locally (sharded serving — the scheduler's owner fetch reports
    /// these).
    pub fetched: u64,
    /// Bytes appended to the log over this process lifetime.
    pub bytes_appended: u64,
    /// The log's current on-disk length (header + every record, live or
    /// dead) — `good_len` at open plus appends, reset by compaction. This
    /// is the number the old `bytes_appended` counter was mistaken for: a
    /// warm-restarted server reports the real file size here, not ~0.
    pub log_bytes: u64,
    /// Bytes of the log occupied by **live** records (one per resident
    /// key). `log_bytes - 5 - live_bytes` is the dead-record delta that
    /// drives the compaction trigger.
    pub live_bytes: u64,
    /// Entries evicted by the size cap over this process lifetime.
    pub evicted: u64,
    /// Compactions completed over this process lifetime.
    pub compactions: u64,
}

/// The log file plus the high-water mark of its last known-good record
/// boundary — the rollback point for failed appends.
#[derive(Debug)]
struct AppendFile {
    file: File,
    good_len: u64,
}

/// A shareable append handle to the cache log, locked independently of the
/// in-memory map: the scheduler serializes a fresh summary and appends it
/// **outside** the map mutex, so a disk flush never blocks concurrent
/// claim-step lookups (or the stats endpoint).
#[derive(Clone, Debug)]
pub struct LogAppender {
    inner: Arc<Mutex<AppendFile>>,
    fsync: FsyncPolicy,
    faults: Arc<Faults>,
}

impl LogAppender {
    /// Appends one record and flushes (a crash after `append` returns must
    /// not lose the record). Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the log file. A failed append — a real
    /// short write, or the `cache.append.torn` failpoint — is rolled back
    /// to the last good record boundary before the error returns, so the
    /// live log never carries mid-file damage into later appends.
    pub fn append(&self, key: u128, summary: &RunSummary) -> io::Result<u64> {
        let rec = encode_record(key, summary);

        let mut log = lock(&self.inner);
        let written = match self.faults.check("cache.append.torn") {
            Some(FaultAction::Torn { keep }) => {
                let keep = (keep as usize).min(rec.len());
                // analyze: allow(panic-surface) keep is clamped to rec.len() on the line above
                log.file.write_all(&rec[..keep]).and_then(|()| {
                    Err(io::Error::other(
                        "injected torn append (failpoint cache.append.torn)",
                    ))
                })
            }
            _ => log.file.write_all(&rec),
        };
        match written {
            Ok(()) => {
                if self.fsync == FsyncPolicy::Always {
                    log.file.sync_data()?;
                }
                log.good_len += rec.len() as u64;
                Ok(rec.len() as u64)
            }
            Err(e) => {
                // Roll the torn bytes back; best-effort — if even the
                // truncate fails, reopen-time recovery still salvages the
                // prefix before the damage.
                let good = log.good_len;
                let _ = log
                    .file
                    .set_len(good)
                    .and_then(|()| log.file.seek(SeekFrom::Start(good)));
                Err(e)
            }
        }
    }

    /// Forces the log to stable storage (`fsync`). Graceful shutdown calls
    /// this regardless of policy; `FsyncPolicy::Always` makes it a no-op.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure.
    pub fn sync(&self) -> io::Result<()> {
        lock(&self.inner).file.sync_all()
    }
}

/// One resident entry: the summary plus its on-disk record size and its
/// LRU stamp (the key into the recency index).
#[derive(Debug)]
struct Entry {
    summary: Arc<RunSummary>,
    /// Full record size on disk (header + body), for live-byte accounting.
    bytes: u64,
    /// LRU stamp; larger = more recently used.
    seq: u64,
}

/// What one completed compaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Log length before (header + live + dead records).
    pub bytes_before: u64,
    /// Log length after (header + live records only).
    pub bytes_after: u64,
    /// Live records written to the compacted log.
    pub records: u64,
}

/// What one sync-stream ingestion saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Checksum-verified records received.
    pub records: u64,
    /// Stream bytes consumed (header + verified records).
    pub bytes: u64,
    /// Records actually inserted (the rest were already resident).
    pub inserted: u64,
    /// Why the stream stopped early, if it broke mid-record — the verified
    /// prefix before the damage is kept (the receive side of the same
    /// longest-valid-prefix rule recovery uses).
    pub damaged: Option<String>,
}

/// The in-memory map plus its append-only persistence.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<u128, Entry>,
    /// Recency index: LRU stamp → key, oldest first.
    lru: BTreeMap<u64, u128>,
    /// Monotone LRU clock.
    clock: u64,
    /// Live-byte cap; past it the LRU tail is evicted from memory.
    max_bytes: Option<u64>,
    log: Option<LogAppender>,
    path: Option<PathBuf>,
    stats: CacheStats,
}

impl ResultCache {
    /// A purely in-memory cache (no persistence).
    pub fn in_memory() -> Self {
        Self {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            max_bytes: None,
            log: None,
            path: None,
            stats: CacheStats::default(),
        }
    }

    /// Opens (or creates) a persisted cache at `path` with the default
    /// durability policy and no fault injection — see
    /// [`open_with`](Self::open_with).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidData` if the file exists but
    /// is not a cache log of the supported version.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with(path, FsyncPolicy::default(), Faults::disarmed())
    }

    /// Opens (or creates) a persisted cache at `path`, replaying any
    /// existing log into memory. Recovery keeps the longest valid record
    /// prefix: the first short, checksum-failing, or undecodable record
    /// stops the replay and the file is truncated there (a warning names
    /// the byte offset and what was dropped). Duplicate-key records replay
    /// last-record-wins; records under a superseded `KEY_VERSION` are
    /// skipped. A stale `<path>.compact` temp (a crash mid-compaction) is
    /// deleted — the old log it would have replaced is still intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidData` if the file exists but
    /// is not a cache log of the supported version (wrong magic/version is
    /// *refused*, never auto-rebuilt).
    pub fn open_with(path: &Path, fsync: FsyncPolicy, faults: Arc<Faults>) -> io::Result<Self> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        // A leftover compaction temp means a crash landed between writing
        // it and renaming it over the log. The rename never happened, so
        // the log is the authority; the temp is garbage.
        let stale = compact_path(path);
        if stale.exists() && std::fs::remove_file(&stale).is_ok() {
            eprintln!(
                "malec-serve: removed stale compaction temp {} (crash mid-compaction; the log is intact)",
                stale.display()
            );
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut cache = Self::in_memory();
        let mut good_end = HEADER_LEN;
        let mut duplicates = 0u64;
        let mut superseded = 0u64;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            file.write_all(&log_header())?;
        } else {
            {
                let mut reader = BufReader::new(&mut file);
                check_header(&mut reader).map_err(|e| in_context(path.display(), e))?;
                loop {
                    match read_record(&mut reader) {
                        Ok(RawRecord::Live(key, summary, len)) => {
                            // Last-record-wins: a newer record for a key
                            // already replayed supersedes it (the older
                            // copy becomes dead bytes).
                            if cache.place(key, Arc::new(*summary), len) {
                                duplicates += 1;
                            }
                            good_end += len;
                        }
                        // A valid record under a superseded KEY_VERSION:
                        // its key can never be looked up again. Skip it
                        // (dead bytes), keep replaying.
                        Ok(RawRecord::Stale(len)) => {
                            superseded += 1;
                            good_end += len;
                        }
                        // Clean EOF at a record boundary: the log is good.
                        Ok(RawRecord::Eof) => break,
                        // Damage — a record cut short by a crash
                        // mid-append, a checksum-failing flipped byte, or
                        // an undecodable body. Salvage the valid prefix,
                        // truncate the rest: a corrupt record must never
                        // be served, and the records before it are known
                        // good (each carries its own checksum).
                        Err(e) => {
                            let dropped = file_len.saturating_sub(good_end);
                            eprintln!(
                                "malec-serve: cache log {}: {e} at byte {good_end}; \
                                 keeping {} recovered entr{}, dropping {dropped} damaged byte{}",
                                path.display(),
                                cache.map.len(),
                                if cache.map.len() == 1 { "y" } else { "ies" },
                                if dropped == 1 { "" } else { "s" },
                            );
                            break;
                        }
                    }
                }
            }
            file.set_len(good_end)?;
        }
        if duplicates + superseded > 0 {
            eprintln!(
                "malec-serve: cache log {}: {duplicates} superseded duplicate(s) and \
                 {superseded} stale-key-version record(s) skipped (dead bytes until compaction)",
                path.display(),
            );
        }
        file.seek(SeekFrom::Start(good_end))?;
        cache.stats.entries = cache.map.len() as u64;
        cache.stats.loaded = cache.map.len() as u64;
        cache.stats.log_bytes = good_end;
        cache.log = Some(LogAppender {
            inner: Arc::new(Mutex::new(AppendFile {
                file,
                good_len: good_end,
            })),
            fsync,
            faults,
        });
        cache.path = Some(path.to_owned());
        Ok(cache)
    }

    /// Caps the live set at `max` bytes (record sizes, not summaries),
    /// enforcing the cap immediately — a log replayed past the cap evicts
    /// its least-recently-written tail right away. `None` lifts the cap.
    #[must_use]
    pub fn with_max_bytes(mut self, max: Option<u64>) -> Self {
        self.max_bytes = max;
        self.enforce_cap();
        self
    }

    /// Looks `key` up, counting a hit and touching its recency (a served
    /// entry is the last the size cap evicts). A `None` result is **not**
    /// counted here: the scheduler distinguishes a true miss (a simulation
    /// starts — [`count_miss`](Self::count_miss)) from attaching to an
    /// identical in-flight simulation
    /// ([`count_coalesced`](Self::count_coalesced)).
    pub fn lookup(&mut self, key: u128) -> Option<Arc<RunSummary>> {
        let hit = self.map.get(&key).map(|e| Arc::clone(&e.summary));
        if hit.is_some() {
            self.stats.hits += 1;
            self.touch(key);
        }
        hit
    }

    /// Counts one true miss (a cell that goes on to simulate).
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Counts one peer-fetched record (see [`CacheStats::fetched`]).
    pub fn count_fetched(&mut self) {
        self.stats.fetched += 1;
    }

    /// Inserts a summary into the in-memory map (replacing any entry the
    /// key already had) and enforces the size cap — the just-inserted
    /// entry is never the one evicted, so the cap can be exceeded by at
    /// most one record. Persistence is separate: append through
    /// [`appender`](Self::appender) (outside the map lock) and record the
    /// outcome with [`note_appended`](Self::note_appended), or use
    /// [`insert_persist`](Self::insert_persist) where lock splitting does
    /// not matter.
    pub fn insert(&mut self, key: u128, summary: Arc<RunSummary>) {
        let bytes = (RECORD_HEADER + summary_to_bytes(&summary).len()) as u64;
        if !self.place(key, summary, bytes) {
            self.stats.entries += 1;
        }
        self.enforce_cap();
    }

    /// Places one entry, replacing any previous record for the key and
    /// keeping the live-byte sum exact. Returns whether the key was
    /// already resident. Shared by [`insert`](Self::insert) and the replay
    /// loop (which must dedupe without counting `entries` twice).
    fn place(&mut self, key: u128, summary: Arc<RunSummary>, bytes: u64) -> bool {
        self.clock += 1;
        let entry = Entry {
            summary,
            bytes,
            seq: self.clock,
        };
        self.lru.insert(self.clock, key);
        self.stats.live_bytes += bytes;
        match self.map.insert(key, entry) {
            Some(old) => {
                self.lru.remove(&old.seq);
                self.stats.live_bytes -= old.bytes;
                true
            }
            None => false,
        }
    }

    /// Marks `key` most-recently-used.
    fn touch(&mut self, key: u128) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.map.get_mut(&key) {
            self.lru.remove(&e.seq);
            e.seq = clock;
            self.lru.insert(clock, key);
        }
    }

    /// Evicts LRU-first until the live set fits the cap. The newest entry
    /// is never evicted (so an insert always lands, and the cap is
    /// exceeded by at most that one record). Evicted keys leave memory
    /// now; their disk records become dead bytes until compaction.
    fn enforce_cap(&mut self) {
        let Some(max) = self.max_bytes else { return };
        while self.stats.live_bytes > max && self.map.len() > 1 {
            // analyze: allow(panic-surface) loop guard holds map.len() > 1, and lru mirrors map
            let (&seq, &key) = self.lru.iter().next().expect("non-empty map has an LRU");
            self.lru.remove(&seq);
            // analyze: allow(panic-surface) every lru entry is inserted alongside its map entry
            let old = self.map.remove(&key).expect("LRU entries are resident");
            self.stats.live_bytes -= old.bytes;
            self.stats.entries -= 1;
            self.stats.evicted += 1;
        }
    }

    /// The log's append handle, if this cache is persisted.
    pub fn appender(&self) -> Option<LogAppender> {
        self.log.clone()
    }

    /// Records bytes a [`LogAppender::append`] wrote (the appender runs
    /// outside this struct's lock, so the stat arrives separately).
    pub fn note_appended(&mut self, bytes: u64) {
        self.stats.bytes_appended += bytes;
        self.stats.log_bytes += bytes;
    }

    /// [`insert`](Self::insert) plus a synchronous log append — the
    /// convenience path for tests and single-threaded embedders.
    ///
    /// # Errors
    ///
    /// Propagates log-append I/O errors (the in-memory insert still took
    /// effect).
    pub fn insert_persist(&mut self, key: u128, summary: Arc<RunSummary>) -> io::Result<()> {
        self.insert(key, Arc::clone(&summary));
        if let Some(log) = self.appender() {
            let bytes = log.append(key, &summary)?;
            self.note_appended(bytes);
        }
        Ok(())
    }

    /// Counts one coalesced cell (see [`CacheStats::coalesced`]).
    pub fn count_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Bytes of the log occupied by dead records: duplicates superseded by
    /// a newer append, stale-`KEY_VERSION` records, and records whose keys
    /// were evicted from memory.
    fn dead_bytes(&self) -> u64 {
        self.stats
            .log_bytes
            .saturating_sub(HEADER_LEN)
            .saturating_sub(self.stats.live_bytes)
    }

    /// The dead fraction of the log's record payload (0.0 for an empty or
    /// in-memory cache) — the compaction trigger compares this against the
    /// `--compact-threshold` ratio.
    pub fn dead_ratio(&self) -> f64 {
        let payload = self.stats.log_bytes.saturating_sub(HEADER_LEN);
        if payload == 0 {
            return 0.0;
        }
        self.dead_bytes() as f64 / payload as f64
    }

    /// Rewrites the log to exactly the live record set — one record per
    /// resident key, LRU order (so a reopen reconstructs today's recency) —
    /// atomically: the new log is written to `<path>.compact`, fsynced,
    /// and renamed over the old one. A crash at any point leaves either
    /// the old log intact (rename never ran; the temp is deleted at next
    /// open) or the new log complete — never neither. Appends block for
    /// the duration (the appender lock is held), which is the point: the
    /// swap must not race a write to the old file.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an in-memory cache; propagates I/O
    /// errors (including the `cache.compact.torn` failpoint, which tears
    /// the temp file mid-record and returns before the rename — the live
    /// log is untouched).
    pub fn compact(&mut self) -> io::Result<CompactOutcome> {
        let log = self.log.clone().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "cache is in-memory; nothing to compact",
            )
        })?;
        // analyze: allow(panic-surface) self.log is Some (checked above), and log and path are set together
        let path = self.path.clone().expect("a persisted cache has a path");
        let tmp = compact_path(&path);
        let mut af = lock(&log.inner);
        let bytes_before = af.good_len;

        // The failpoint decides up front how many complete records the
        // "crash" lets through; the torn write below is what kill -9
        // mid-compaction leaves on disk.
        let tear_after = match log.faults.check("cache.compact.torn") {
            Some(FaultAction::Torn { keep }) => Some(keep),
            _ => None,
        };
        let mut out = File::create(&tmp)?;
        out.write_all(&log_header())?;
        let mut written = 0u64;
        for &key in self.lru.values() {
            // analyze: allow(panic-surface) lru values are exactly the resident map keys
            let rec = encode_record(key, &self.map[&key].summary);
            if tear_after == Some(written) {
                // analyze: allow(panic-surface) rec.len()/2 is always in bounds
                out.write_all(&rec[..rec.len() / 2])?;
                out.sync_all()?;
                return Err(io::Error::other(
                    "injected torn compaction (failpoint cache.compact.torn)",
                ));
            }
            out.write_all(&rec)?;
            written += 1;
        }
        out.sync_all()?;
        drop(out);
        std::fs::rename(&tmp, &path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        af.file = file;
        af.good_len = len;
        self.stats.log_bytes = len;
        self.stats.compactions += 1;
        Ok(CompactOutcome {
            bytes_before,
            bytes_after: len,
            records: written,
        })
    }

    /// A snapshot of the live set for chunked streaming: `(key, summary)`
    /// handles in LRU order (`Arc` clones, not encoded bytes), plus the
    /// exact byte length of the corresponding log stream ([`log_header`] +
    /// one [`encode_record`] per entry). The `/v1/cache/sync` handler
    /// encodes and writes chunk by chunk from this instead of materializing
    /// the whole byte body under the cache lock — summaries are immutable
    /// once inserted, so the handles stay a consistent snapshot after the
    /// lock is released. A receiver feeds the stream to
    /// [`ingest`](Self::ingest), which verifies every record's checksum
    /// before accepting it.
    pub fn live_records(&self) -> (Vec<(u128, Arc<RunSummary>)>, u64) {
        let mut records = Vec::with_capacity(self.map.len());
        for &key in self.lru.values() {
            // analyze: allow(panic-surface) lru values are exactly the resident map keys
            records.push((key, Arc::clone(&self.map[&key].summary)));
        }
        (records, HEADER_LEN + self.stats.live_bytes)
    }

    /// Streams a log-format record set (a `/v1/cache/sync` body) into this
    /// cache, verifying each record's checksum and persisting every record
    /// not already resident. Damage mid-stream keeps the verified prefix
    /// and reports it in [`SyncReport::damaged`] — the receive side of
    /// longest-valid-prefix recovery.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a stream that is not a cache log of the
    /// supported version; propagates local append errors.
    pub fn ingest(&mut self, r: &mut impl Read) -> io::Result<SyncReport> {
        check_header(r).map_err(|e| in_context("sync stream", e))?;
        let mut report = SyncReport {
            bytes: HEADER_LEN,
            ..SyncReport::default()
        };
        loop {
            match read_record(r) {
                Ok(RawRecord::Live(key, summary, len)) => {
                    report.records += 1;
                    report.bytes += len;
                    if !self.map.contains_key(&key) {
                        self.insert_persist(key, Arc::new(*summary))?;
                        report.inserted += 1;
                    }
                }
                Ok(RawRecord::Stale(len)) => {
                    report.bytes += len;
                }
                Ok(RawRecord::Eof) => break,
                Err(e) => {
                    report.damaged = Some(e.to_string());
                    break;
                }
            }
        }
        Ok(report)
    }

    /// Forces the persisted log to stable storage (no-op for an in-memory
    /// cache). Graceful shutdown calls this so `FsyncPolicy::OnClose` gets
    /// its one `fsync`.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure.
    pub fn sync(&self) -> io::Result<()> {
        match &self.log {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The log path, if persisted.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// The atomic-compaction temp path: `<path>.compact` (appended, never
/// substituted — `results.cache` must map to `results.cache.compact`, not
/// `results.compact`).
fn compact_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".compact");
    PathBuf::from(os)
}

/// The 5-byte log header (magic + version) — exposed so tests and tools
/// can hand-build logs in the current format.
pub fn log_header() -> [u8; 5] {
    let [m0, m1, m2, m3] = *MAGIC;
    [m0, m1, m2, m3, VERSION]
}

/// Encodes one record in the current log format (current `KEY_VERSION`).
pub fn encode_record(key: u128, summary: &RunSummary) -> Vec<u8> {
    encode_record_raw(key, KEY_VERSION, &summary_to_bytes(summary))
}

/// Reads and verifies a 5-byte cache-log header (magic + version). The
/// refusal names no source: each caller prefixes what it was reading.
fn check_header(r: &mut impl Read) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN as usize];
    let refusal = match r.read_exact(&mut header).map(|()| header) {
        Err(_) => "not a cache log (short header)".to_owned(),
        Ok([magic @ .., _]) if &magic != MAGIC => "bad cache-log magic".to_owned(),
        Ok([.., version]) if version != VERSION => {
            format!("cache-log version {version} unsupported (want {VERSION})")
        }
        Ok(_) => return Ok(()),
    };
    Err(io::Error::new(io::ErrorKind::InvalidData, refusal))
}

/// `e` with `context`, what was being read, in front of its message.
fn in_context(context: impl std::fmt::Display, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{context}: {e}"))
}

/// Decodes a single-record stream — a cache-log header followed by exactly
/// one record, the `GET /v1/cache/record/<key>` response body — verifying
/// the magic, version, and the record's checksum. Errors name no source:
/// the caller knows which record it fetched.
///
/// # Errors
///
/// `InvalidData` for a wrong header, a short/damaged/checksum-failing
/// record, a record under a superseded `KEY_VERSION`, or an empty stream.
pub fn decode_single_record(bytes: &[u8]) -> io::Result<(u128, RunSummary)> {
    let mut r = bytes;
    check_header(&mut r)?;
    match read_record(&mut r)? {
        RawRecord::Live(key, summary, _) => Ok((key, *summary)),
        RawRecord::Stale(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record is under a superseded key version",
        )),
        RawRecord::Eof => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record stream is empty",
        )),
    }
}

fn encode_record_raw(key: u128, ver: u8, body: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + body.len());
    rec.extend_from_slice(&key.to_le_bytes());
    rec.push(ver);
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&record_sum(key, ver, body).to_le_bytes());
    rec.extend_from_slice(body);
    rec
}

/// Upper bound on one record's body. A summary encodes to well under a
/// kilobyte; a length beyond this is log corruption, and bounding it keeps
/// a corrupt length field from demanding a multi-gigabyte allocation at
/// open (the torn-tail recovery then kicks in instead).
const MAX_RECORD: usize = 1024 * 1024;

/// Bytes before a record's body: key `u128`, key-version `u8`, length
/// `u32`, checksum `u64`.
const RECORD_HEADER: usize = 16 + 1 + 4 + 8;

/// One frame off the log, as the replay loop sees it.
enum RawRecord {
    /// A checksum-verified record at the current `KEY_VERSION`, decoded.
    /// The `u64` is its full on-disk size.
    Live(u128, Box<RunSummary>, u64),
    /// A checksum-verified record under a superseded `KEY_VERSION` — its
    /// key can never be looked up, and its body may not even decode under
    /// today's codec, so it is skipped without decoding. The `u64` is its
    /// full on-disk size (dead bytes).
    Stale(u64),
    /// Clean EOF at a record boundary.
    Eof,
}

/// Reads one log record, verifying its checksum. Every error return means
/// "damage starts here" to the recovery loop — a short read, an absurd
/// length, a checksum mismatch, and an undecodable body are all the same
/// cut point.
fn read_record(r: &mut impl Read) -> io::Result<RawRecord> {
    let mut key = [0u8; 16];
    match r.read_exact(&mut key) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(RawRecord::Eof),
        Err(e) => return Err(e),
    }
    let mut ver = [0u8; 1];
    r.read_exact(&mut ver)?;
    let [ver] = ver;
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_RECORD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cache record length {len} exceeds {MAX_RECORD}"),
        ));
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let sum = u64::from_le_bytes(sum);
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let key = u128::from_le_bytes(key);
    let want = record_sum(key, ver, &body);
    if sum != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cache record checksum mismatch (stored {sum:#018x}, computed {want:#018x})"),
        ));
    }
    let size = (RECORD_HEADER + len) as u64;
    if ver != KEY_VERSION {
        return Ok(RawRecord::Stale(size));
    }
    let summary = read_summary(&mut body.as_slice())?;
    Ok(RawRecord::Live(key, Box::new(summary), size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_core::digest::digest;
    use malec_core::{ScenarioSource, Simulator};
    use malec_trace::scenario::preset_named;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("malec_serve_cache_{name}_{}", std::process::id()))
    }

    fn sample(seed: u64) -> RunSummary {
        let scenario = preset_named("store_burst").expect("preset");
        Simulator::new(SimConfig::malec())
            .run_source(&ScenarioSource::Scenario(scenario), 2_000, seed)
            .expect("generator sources cannot fail")
    }

    /// The on-disk record size of one summary.
    fn record_size(s: &RunSummary) -> u64 {
        (RECORD_HEADER + summary_to_bytes(s).len()) as u64
    }

    #[test]
    fn keys_separate_config_scenario_seed_horizon_and_replicate() {
        let s1 = preset_named("store_burst").expect("preset");
        let s2 = preset_named("tlb_thrash").expect("preset");
        let base = cache_key(&SimConfig::malec(), &s1, 1_000, 1, 0);
        assert_eq!(base, cache_key(&SimConfig::malec(), &s1, 1_000, 1, 0));
        assert_ne!(base, cache_key(&SimConfig::base1ldst(), &s1, 1_000, 1, 0));
        assert_ne!(base, cache_key(&SimConfig::malec(), &s2, 1_000, 1, 0));
        assert_ne!(base, cache_key(&SimConfig::malec(), &s1, 2_000, 1, 0));
        assert_ne!(base, cache_key(&SimConfig::malec(), &s1, 1_000, 2, 0));
        assert_ne!(base, cache_key(&SimConfig::malec(), &s1, 1_000, 1, 1));
    }

    #[test]
    fn cache_keys_never_move() {
        // Recorded before bare-benchmark scenarios existed: a persisted log
        // stays valid only while these keys hold.
        for (preset, config, want) in [
            (
                "store_burst",
                SimConfig::malec(),
                0x8f8d0f824e2c4febdd23bb2cbd52cf01u128,
            ),
            (
                "phased_compress_decode",
                SimConfig::base1ldst(),
                0x932860a66dcc42c8e3cfd25586a2a604,
            ),
            (
                "mixed_int_media_thrash",
                SimConfig::base2ld1st(),
                0x4274203df2e281bfdbc55d98c80f06ae,
            ),
        ] {
            let s = preset_named(preset).expect("preset");
            assert_eq!(cache_key(&config, &s, 20_000, 2013, 0), want, "{preset}");
        }

        // A bare profile keys apart from a one-phase scenario of the same
        // profile and name: the two draw different streams.
        let gzip = malec_trace::benchmark_named("gzip").expect("gzip exists");
        let bare = Scenario::benchmark(gzip.clone());
        let phased = Scenario::single("gzip", malec_trace::SegmentKind::Benchmark(gzip));
        assert_eq!(bare.name, phased.name);
        assert_ne!(
            cache_key(&SimConfig::malec(), &bare, 20_000, 2013, 0),
            cache_key(&SimConfig::malec(), &phased, 20_000, 2013, 0)
        );
    }

    #[test]
    fn replicate_cells_never_collide_with_legacy_or_each_other() {
        use malec_trace::seed::replicate_seed;
        let s = preset_named("store_burst").expect("preset");
        let cfg = SimConfig::malec();
        // Adversarial base seed: another submission's derived replicate
        // seed. Folding (base, replicate) instead of the derived seed keeps
        // the cells distinct.
        let derived = replicate_seed(1, 3);
        assert_ne!(
            cache_key(&cfg, &s, 1_000, 1, 3),
            cache_key(&cfg, &s, 1_000, derived, 0),
            "replicate 3 of base 1 must not alias a legacy cell at the derived seed"
        );
        let keys: Vec<u128> = (0..16).map(|r| cache_key(&cfg, &s, 1_000, 1, r)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "replicates of one cell must key distinctly");
            }
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut cache = ResultCache::in_memory();
        let key = 42u128;
        assert!(cache.lookup(key).is_none());
        cache.count_miss(); // the scheduler counts the miss when it claims
        cache
            .insert_persist(key, Arc::new(sample(1)))
            .expect("insert");
        assert!(cache.lookup(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn persisted_cache_survives_reopen_bit_for_bit() {
        let path = tmp("reopen");
        std::fs::remove_file(&path).ok();
        let a = sample(7);
        let b = sample(8);
        {
            let mut cache = ResultCache::open(&path).expect("open fresh");
            cache
                .insert_persist(1, Arc::new(a.clone()))
                .expect("insert");
            cache
                .insert_persist(2, Arc::new(b.clone()))
                .expect("insert");
        }
        let mut cache = ResultCache::open(&path).expect("reopen");
        assert_eq!(cache.stats().loaded, 2);
        let got_a = cache.lookup(1).expect("a persisted");
        let got_b = cache.lookup(2).expect("b persisted");
        assert_eq!(digest(&got_a), digest(&a), "lossless persistence");
        assert_eq!(digest(&got_b), digest(&b));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_bytes_survive_reopen_but_bytes_appended_do_not() {
        // The accounting bugfix: a warm-restarted cache knows its real log
        // size, while bytes_appended stays a this-process counter.
        let path = tmp("logbytes");
        std::fs::remove_file(&path).ok();
        let (a, b) = (sample(7), sample(8));
        let full = HEADER_LEN + record_size(&a) + record_size(&b);
        {
            let mut cache = ResultCache::open(&path).expect("open fresh");
            cache.insert_persist(1, Arc::new(a)).expect("insert");
            cache.insert_persist(2, Arc::new(b)).expect("insert");
            let s = cache.stats();
            assert_eq!(s.log_bytes, full);
            assert_eq!(s.bytes_appended, full - HEADER_LEN);
            assert_eq!(s.live_bytes, full - HEADER_LEN);
        }
        let cache = ResultCache::open(&path).expect("reopen");
        let s = cache.stats();
        assert_eq!(s.log_bytes, full, "log length is known after a restart");
        assert_eq!(s.live_bytes, full - HEADER_LEN);
        assert_eq!(s.bytes_appended, 0, "nothing appended this lifetime");
        assert_eq!(cache.dead_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_log_stays_appendable() {
        let path = tmp("truncated");
        std::fs::remove_file(&path).ok();
        let a = sample(9);
        {
            let mut cache = ResultCache::open(&path).expect("open");
            cache
                .insert_persist(1, Arc::new(a.clone()))
                .expect("insert");
            cache
                .insert_persist(2, Arc::new(sample(10)))
                .expect("insert");
        }
        // Simulate a crash mid-append: cut into the second record.
        let full = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(full - 10).expect("truncate");
        drop(f);
        {
            let mut cache = ResultCache::open(&path).expect("reopen survives");
            assert_eq!(cache.stats().loaded, 1, "only the complete record");
            assert!(cache.lookup(1).is_some());
            assert!(cache.lookup(2).is_none());
            cache
                .insert_persist(3, Arc::new(sample(11)))
                .expect("append works");
        }
        let cache = ResultCache::open(&path).expect("reopen again");
        assert_eq!(cache.stats().loaded, 2, "entry 1 + appended entry 3");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a cache log").expect("write");
        let err = ResultCache::open(&path).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn other_version_log_is_refused_naming_the_path() {
        let path = tmp("version");
        let mut log = log_header();
        log[4] = VERSION + 1;
        std::fs::write(&path, log).expect("write");
        let err = ResultCache::open(&path).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains("version"), "{msg}");
        assert_eq!(std::fs::read(&path).expect("read"), log, "left as it was");
        // The same bytes as a sync stream are labelled as one.
        let err = ResultCache::in_memory()
            .ingest(&mut log.as_slice())
            .expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("sync stream: "), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_mid_log_salvages_the_prefix() {
        let path = tmp("flip");
        std::fs::remove_file(&path).ok();
        let a = sample(21);
        {
            let mut cache = ResultCache::open(&path).expect("open");
            cache
                .insert_persist(1, Arc::new(a.clone()))
                .expect("insert");
            cache
                .insert_persist(2, Arc::new(sample(22)))
                .expect("insert");
            cache
                .insert_persist(3, Arc::new(sample(23)))
                .expect("insert");
        }
        // Flip one byte inside the SECOND record's body. Records are
        // equal-sized here (same scenario shape), so locate it by arithmetic.
        let mut bytes = std::fs::read(&path).expect("read");
        let record = (bytes.len() - 5) / 3;
        let victim = 5 + record + RECORD_HEADER + record / 2;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupt log");

        let mut cache = ResultCache::open(&path).expect("recovery, not refusal");
        assert_eq!(cache.stats().loaded, 1, "records 2 and 3 dropped");
        let got = cache.lookup(1).expect("record 1 salvaged");
        assert_eq!(digest(&got), digest(&a), "salvaged record is intact");
        assert!(cache.lookup(2).is_none(), "damaged record never served");
        assert!(cache.lookup(3).is_none(), "records behind damage dropped");
        cache
            .insert_persist(4, Arc::new(sample(24)))
            .expect("truncated log stays appendable");
        drop(cache);
        let cache = ResultCache::open(&path).expect("reopen");
        assert_eq!(cache.stats().loaded, 2, "entry 1 + appended entry 4");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_append_rolls_back_and_log_stays_valid() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let faults = Faults::disarmed();
        faults.arm("cache.append.torn", 2, Some(11));
        {
            let mut cache =
                ResultCache::open_with(&path, FsyncPolicy::Always, faults.clone()).expect("open");
            cache
                .insert_persist(1, Arc::new(sample(31)))
                .expect("first append clean");
            let err = cache
                .insert_persist(2, Arc::new(sample(32)))
                .expect_err("second append torn");
            assert!(err.to_string().contains("injected torn append"), "{err}");
            // In-memory entry survives the failed persist; the log rolled
            // the 11 torn bytes back in place, so the next append lands on
            // a clean boundary.
            assert!(cache.lookup(2).is_some());
            cache
                .insert_persist(3, Arc::new(sample(33)))
                .expect("append after rollback");
        }
        assert_eq!(faults.fired("cache.append.torn"), 1);
        let mut cache = ResultCache::open(&path).expect("reopen");
        assert_eq!(cache.stats().loaded, 2, "torn record 2 was rolled back");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(2).is_none(), "torn record is not on disk");
        assert!(cache.lookup(3).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_key_records_replay_last_record_wins() {
        // A hand-built log with three records for two keys: key 1 appears
        // twice, and the LATER record must win the replay (this is what a
        // resubmission racing a failed-append rollback leaves on disk).
        let path = tmp("dup");
        std::fs::remove_file(&path).ok();
        let (old, new, other) = (sample(41), sample(42), sample(43));
        let mut log = log_header().to_vec();
        log.extend_from_slice(&encode_record(1, &old));
        log.extend_from_slice(&encode_record(2, &other));
        log.extend_from_slice(&encode_record(1, &new));
        std::fs::write(&path, &log).expect("write log");

        let mut cache = ResultCache::open(&path).expect("open");
        let s = cache.stats();
        assert_eq!(s.loaded, 2, "two keys, not three records");
        assert_eq!(s.entries, 2);
        assert_eq!(
            s.live_bytes,
            record_size(&new) + record_size(&other),
            "the superseded duplicate is dead, not live"
        );
        assert_eq!(cache.dead_bytes(), record_size(&old));
        let got = cache.lookup(1).expect("key 1 resident");
        assert_eq!(digest(&got), digest(&new), "the LAST record wins");
        assert_eq!(
            digest(&cache.lookup(2).expect("key 2 resident")),
            digest(&other)
        );

        // Compaction drops the dead duplicate; a reopen is bit-identical.
        let outcome = cache.compact().expect("compact");
        assert_eq!(outcome.bytes_before, log.len() as u64);
        assert_eq!(
            outcome.bytes_after,
            HEADER_LEN + record_size(&new) + record_size(&other)
        );
        assert_eq!(outcome.records, 2);
        assert_eq!(cache.dead_bytes(), 0);
        drop(cache);
        let mut reopened = ResultCache::open(&path).expect("reopen");
        assert_eq!(reopened.stats().loaded, 2);
        assert_eq!(
            digest(&reopened.lookup(1).expect("key 1")),
            digest(&new),
            "compacted log serves the same bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_key_version_records_are_skipped_not_served() {
        // A record tagged with a superseded KEY_VERSION is valid on disk
        // (checksum passes) but its key can never be looked up — replay
        // must skip it without decoding, and compaction must drop it.
        let path = tmp("stalever");
        std::fs::remove_file(&path).ok();
        let live = sample(51);
        let mut log = log_header().to_vec();
        // A stale-version record whose body is NOT a valid summary
        // encoding — exactly what a codec change leaves behind.
        log.extend_from_slice(&encode_record_raw(9, KEY_VERSION - 1, b"old-codec-bytes"));
        log.extend_from_slice(&encode_record(1, &live));
        std::fs::write(&path, &log).expect("write log");

        let mut cache = ResultCache::open(&path).expect("open skips, not refuses");
        assert_eq!(cache.stats().loaded, 1, "only the current-version record");
        assert!(cache.lookup(9).is_none(), "stale record is never served");
        assert!(cache.lookup(1).is_some());
        assert_eq!(
            cache.dead_bytes(),
            (RECORD_HEADER + b"old-codec-bytes".len()) as u64
        );
        cache.compact().expect("compact");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            HEADER_LEN + record_size(&live),
            "compaction dropped the stale record from disk"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn size_cap_evicts_lru_first_and_never_the_newest() {
        let path = tmp("evict");
        std::fs::remove_file(&path).ok();
        let samples: Vec<RunSummary> = (61..66).map(sample).collect();
        let one = record_size(&samples[0]);
        // Room for two records (records of one scenario shape are
        // equal-sized).
        let cap = 2 * one;
        let mut cache = ResultCache::open(&path)
            .expect("open")
            .with_max_bytes(Some(cap));
        for (i, s) in samples.iter().enumerate() {
            cache
                .insert_persist(i as u128, Arc::new(s.clone()))
                .expect("insert");
            assert!(
                cache.stats().live_bytes <= cap,
                "cap holds after insert {i}"
            );
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "cap admits exactly two records");
        assert_eq!(s.evicted, 3);
        assert!(cache.lookup(4).is_some(), "newest survives");
        assert!(cache.lookup(0).is_none(), "oldest evicted");

        // Touching an entry protects it: after a lookup of key 3, the next
        // insert evicts key 4 (now the least recently used) instead.
        assert!(cache.lookup(3).is_some());
        cache
            .insert_persist(99, Arc::new(samples[0].clone()))
            .expect("insert");
        assert!(cache.lookup(3).is_some(), "recently served entry survives");
        assert!(cache.lookup(4).is_none(), "LRU entry went instead");

        // Evicted keys are gone from memory but still on disk until a
        // compaction; an uncapped reopen sees every record.
        drop(cache);
        let reopened = ResultCache::open(&path).expect("reopen uncapped");
        assert_eq!(reopened.stats().loaded, 6, "disk still holds all six");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capped_reopen_evicts_the_replayed_tail_immediately() {
        let path = tmp("evict_reopen");
        std::fs::remove_file(&path).ok();
        let samples: Vec<RunSummary> = (71..75).map(sample).collect();
        let one = record_size(&samples[0]);
        {
            let mut cache = ResultCache::open(&path).expect("open");
            for (i, s) in samples.iter().enumerate() {
                cache
                    .insert_persist(i as u128, Arc::new(s.clone()))
                    .expect("insert");
            }
        }
        let mut cache = ResultCache::open(&path)
            .expect("reopen")
            .with_max_bytes(Some(2 * one));
        let s = cache.stats();
        assert_eq!(s.loaded, 4, "all four replayed before the cap applied");
        assert_eq!(s.entries, 2, "then the cap evicted the replay-oldest");
        assert!(cache.lookup(3).is_some(), "newest on disk survives");
        assert!(cache.lookup(0).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_reopens_bit_identical_and_resets_dead_bytes() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let samples: Vec<RunSummary> = (81..85).map(sample).collect();
        let mut cache = ResultCache::open(&path).expect("open");
        for (i, s) in samples.iter().enumerate() {
            cache
                .insert_persist(i as u128, Arc::new(s.clone()))
                .expect("insert");
        }
        // Manufacture dead bytes: re-persist two keys (duplicates on disk).
        for i in [0usize, 2] {
            cache
                .insert_persist(i as u128, Arc::new(samples[i].clone()))
                .expect("re-insert");
        }
        let dead = cache.dead_bytes();
        assert_eq!(dead, 2 * record_size(&samples[0]));
        assert!(cache.dead_ratio() > 0.3, "{}", cache.dead_ratio());

        let before = std::fs::metadata(&path).expect("meta").len();
        let outcome = cache.compact().expect("compact");
        assert_eq!(outcome.bytes_before, before);
        assert_eq!(outcome.bytes_after, before - dead);
        assert_eq!(cache.stats().compactions, 1);
        assert_eq!(cache.dead_bytes(), 0);
        assert!((cache.dead_ratio() - 0.0).abs() < f64::EPSILON);

        // The compacted log is appendable and reopens bit-identically.
        cache
            .insert_persist(99, Arc::new(sample(86)))
            .expect("append after compact");
        drop(cache);
        let mut reopened = ResultCache::open(&path).expect("reopen");
        assert_eq!(reopened.stats().loaded, 5);
        for (i, s) in samples.iter().enumerate() {
            let got = reopened.lookup(i as u128).expect("key resident");
            assert_eq!(digest(&got), digest(s), "key {i} bit-identical");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_compaction_leaves_the_old_log_intact() {
        let path = tmp("compact_torn");
        std::fs::remove_file(&path).ok();
        let faults = Faults::disarmed();
        // The "crash" lands after 1 complete record of the rewrite.
        faults.arm("cache.compact.torn", 1, Some(1));
        let mut cache =
            ResultCache::open_with(&path, FsyncPolicy::default(), faults.clone()).expect("open");
        for i in 0..3u128 {
            cache
                .insert_persist(i, Arc::new(sample(90 + i as u64)))
                .expect("insert");
        }
        cache.insert_persist(0, Arc::new(sample(90))).expect("dup");
        let before = std::fs::read(&path).expect("read log");

        let err = cache.compact().expect_err("injected tear");
        assert!(
            err.to_string().contains("injected torn compaction"),
            "{err}"
        );
        assert_eq!(faults.fired("cache.compact.torn"), 1);
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            before,
            "the live log is untouched — the tear hit only the temp"
        );
        assert!(compact_path(&path).exists(), "the torn temp is on disk");

        // The cache keeps serving, and appends still work mid-"crash".
        assert!(cache.lookup(1).is_some());
        cache
            .insert_persist(7, Arc::new(sample(97)))
            .expect("append after failed compaction");
        drop(cache);

        // Reopen: the stale temp is swept, the log replays fully, and a
        // retried compaction completes.
        let mut reopened = ResultCache::open(&path).expect("reopen");
        assert!(!compact_path(&path).exists(), "stale temp removed at open");
        assert_eq!(reopened.stats().loaded, 4);
        let outcome = reopened.compact().expect("retried compaction");
        assert_eq!(outcome.records, 4);
        assert_eq!(reopened.dead_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// The `/v1/cache/sync` body the server streams for `cache`:
    /// [`log_header`] plus one [`encode_record`] per live record.
    fn sync_stream(cache: &ResultCache) -> Vec<u8> {
        let (records, _) = cache.live_records();
        let mut stream = log_header().to_vec();
        for (key, summary) in &records {
            stream.extend_from_slice(&encode_record(*key, summary));
        }
        stream
    }

    #[test]
    fn sync_stream_ingest_round_trips_bit_identical() {
        let path_a = tmp("sync_a");
        let path_b = tmp("sync_b");
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
        let samples: Vec<RunSummary> = (101..104).map(sample).collect();
        let mut a = ResultCache::open(&path_a).expect("open a");
        for (i, s) in samples.iter().enumerate() {
            a.insert_persist(i as u128, Arc::new(s.clone()))
                .expect("insert");
        }
        let stream = sync_stream(&a);
        assert_eq!(
            stream.len() as u64,
            HEADER_LEN + a.stats().live_bytes,
            "the stream is exactly the live record set"
        );

        let mut b = ResultCache::open(&path_b).expect("open b");
        // Seed one key so the ingest has something to skip.
        b.insert_persist(1, Arc::new(samples[1].clone()))
            .expect("seed");
        let report = b.ingest(&mut stream.as_slice()).expect("ingest");
        assert_eq!(report.records, 3);
        assert_eq!(report.inserted, 2, "the resident key was skipped");
        assert_eq!(report.bytes, stream.len() as u64);
        assert!(report.damaged.is_none());
        for (i, s) in samples.iter().enumerate() {
            let got = b.lookup(i as u128).expect("warmed");
            assert_eq!(digest(&got), digest(s), "warmed key {i} bit-identical");
        }
        // The warm-up persisted: a cold reopen of B serves everything.
        drop(b);
        let reopened = ResultCache::open(&path_b).expect("reopen b");
        assert_eq!(reopened.stats().loaded, 3);

        // A damaged stream keeps the verified prefix and reports the cut.
        let mut damaged = stream.clone();
        let cut = damaged.len() - 20;
        damaged.truncate(cut);
        let mut c = ResultCache::in_memory();
        let report = c.ingest(&mut damaged.as_slice()).expect("prefix survives");
        assert_eq!(report.records, 2, "the torn third record is dropped");
        assert!(report.damaged.is_some());

        // A stream that is not a cache log is refused outright.
        let err = ResultCache::in_memory()
            .ingest(&mut b"not a log at all".as_slice())
            .expect_err("bad magic refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn single_record_stream_round_trips_and_rejects_damage() {
        let s = sample(111);
        let mut body = log_header().to_vec();
        body.extend_from_slice(&encode_record(7, &s));
        let (key, got) = decode_single_record(&body).expect("round trip");
        assert_eq!(key, 7);
        assert_eq!(digest(&got), digest(&s), "decoded record is bit-identical");

        let mut flipped = body.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(
            decode_single_record(&flipped).is_err(),
            "checksum catches a flip"
        );
        assert!(
            decode_single_record(&log_header()).is_err(),
            "empty stream refused"
        );
        assert!(decode_single_record(b"nope").is_err(), "bad header refused");
        let mut stale = log_header().to_vec();
        stale.extend_from_slice(&encode_record_raw(7, KEY_VERSION - 1, b"old"));
        assert!(
            decode_single_record(&stale).is_err(),
            "stale version refused"
        );
    }

    #[test]
    fn live_records_declare_the_exact_sync_stream_length() {
        let mut cache = ResultCache::in_memory();
        for i in 0..3u128 {
            cache
                .insert_persist(i, Arc::new(sample(120 + i as u64)))
                .expect("insert");
        }
        let (_, len) = cache.live_records();
        assert_eq!(
            len,
            sync_stream(&cache).len() as u64,
            "declared length is exact"
        );
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("on-close".parse::<FsyncPolicy>(), Ok(FsyncPolicy::OnClose));
        assert_eq!("onclose".parse::<FsyncPolicy>(), Ok(FsyncPolicy::OnClose));
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::OnClose);
    }

    #[test]
    fn single_byte_flips_always_change_the_checksum() {
        // The bijectivity argument behind the checksum: with identical
        // subsequent bytes, flipping any single body byte flips the sum.
        let body: Vec<u8> = (0u16..200).map(|i| (i % 251) as u8).collect();
        let base = record_sum(99, KEY_VERSION, &body);
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(
                    record_sum(99, KEY_VERSION, &flipped),
                    base,
                    "flip at byte {i} bit {bit} must change the sum"
                );
            }
        }
        // The version byte is covered too.
        assert_ne!(record_sum(99, KEY_VERSION - 1, &body), base);
    }
}
