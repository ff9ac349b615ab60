//! The serving workload: one client thread drives two sharded in-process
//! peers through `malec_serve::Client` in a closed loop (the next job is
//! submitted only after the previous report arrived). Every server runs
//! one worker.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use malec_core::stats::ReplicateStats;
use malec_core::{digest, RunSummary};
use malec_serve::cache::{decode_single_record, encode_record, log_header};
use malec_serve::client::{Client, JobView, RetryPolicy};
use malec_serve::report::{render, CellResult, ReportMeta};
use malec_serve::server::{ServeOptions, Server, ServerHandle};
use malec_serve::{cache_key, parse_spec, ShardMap};
use malec_trace::replicate_seed;

use crate::stats::{mean, median, ratio, tail};
use crate::{peak_rss_mb, repeat_setup, Args, Outcome, Spans};

/// Instructions per cell of the job spec: small, so a cold job's
/// simulation stays inside the clients' first poll interval and the
/// serving path, not the simulator, sets its latency.
const SPEC_INSTS: u64 = 4_000;
/// Replicate seeds per config of the job spec.
const SPEC_SEEDS: u32 = 8;
/// Cells per job: 3 configs x [`SPEC_SEEDS`].
const CELLS: u64 = 24;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs per throughput sample: one cold and three warm.
const BLOCK: usize = 4;
/// Give up after this many jobs in a row fail to complete.
const MAX_CONSECUTIVE_ERRORS: u32 = 10;

/// The job: a djpeg + store-burst mix under the three Table I configs.
fn spec_text(seed: u64) -> String {
    format!(
        "[scenario]\nname = \"bench_mix\"\nmode = \"mixed\"\nblock = 32\n\n\
         [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"djpeg\"\nweight = 2\n\n\
         [[scenario.part]]\nkind = \"store_burst\"\nburst = 20\n\n\
         [sweep]\nconfigs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\n\
         insts = {SPEC_INSTS}\nseed = {seed}\nseeds = {SPEC_SEEDS}\n"
    )
}

/// Spec seeds are TOML integers, which are signed.
fn spec_seed(seed: u64) -> u64 {
    seed & i64::MAX as u64
}

/// The seed of the `k`-th job when it is cold: new to the cluster.
fn cold_seed(seed: u64, k: u64) -> u64 {
    spec_seed(replicate_seed(seed, 1_000_000 + k as u32))
}

/// The per-cell rows of a report: everything except timing.
fn cells_section(report: &str) -> Option<&str> {
    report.find("\"cells\": [").map(|i| &report[i..])
}

/// In-process servers and a client for each; the first is the front door.
struct Fleet {
    handles: Vec<ServerHandle>,
    clients: Vec<Client>,
    dir: Option<PathBuf>,
}

fn bind(cache_path: Option<PathBuf>) -> Result<Server, String> {
    Server::bind_with(
        "127.0.0.1:0",
        ServeOptions {
            workers: Some(1),
            cache_path,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("bind server: {e}"))
}

impl Fleet {
    /// One standalone server with an in-memory cache.
    fn standalone() -> Result<Self, String> {
        let handle = bind(None)?.spawn().map_err(|e| e.to_string())?;
        Ok(Self {
            clients: vec![Client::new(handle.addr().to_string())],
            handles: vec![handle],
            dir: None,
        })
    }

    /// Two peers sharing one shard map, each with a fresh cache log in `dir`.
    /// The front door is the peer owning fewer of `spec`'s config groups, so
    /// warm jobs always scatter and gather whichever ephemeral ports the
    /// peers got (ownership hashes the address).
    fn cluster(dir: PathBuf, spec: &str) -> Result<Self, String> {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let servers = [
            bind(Some(dir.join("peer-a.log")))?,
            bind(Some(dir.join("peer-b.log")))?,
        ];
        let addrs = servers
            .iter()
            .map(|s| {
                s.local_addr()
                    .map(|a| a.to_string())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = parse_spec(spec).map_err(|e| e.to_string())?;
        let mut owned = Vec::new();
        for (server, addr) in servers.iter().zip(&addrs) {
            let map = ShardMap::new(addrs.clone(), addr)?;
            owned.push(
                spec.configs
                    .iter()
                    .filter(|c| {
                        map.is_owner(cache_key(c, &spec.scenario, spec.insts, spec.seed, 0))
                    })
                    .count(),
            );
            server.engine().set_shard(map);
        }
        let handles = servers
            .into_iter()
            .map(|s| s.spawn().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut clients: Vec<Client> = addrs.into_iter().map(Client::new).collect();
        if owned[1] < owned[0] {
            clients.swap(0, 1);
        }
        Ok(Self {
            clients,
            handles,
            dir: Some(dir),
        })
    }

    fn front(&self) -> &Client {
        &self.clients[0]
    }

    /// Cache (hits, misses, fetched), summed over every server.
    fn cache_counts(&self) -> Result<(u64, u64, u64), String> {
        self.clients.iter().try_fold((0, 0, 0), |acc, c| {
            let s = c.cache_stats()?;
            Ok((acc.0 + s.hits, acc.1 + s.misses, acc.2 + s.fetched))
        })
    }

    fn stop(self) -> Result<(), String> {
        for c in &self.clients {
            c.shutdown()?;
        }
        for h in self.handles {
            h.join().map_err(|e| format!("server exit: {e}"))?;
        }
        if let Some(dir) = self.dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// A job the timed loop completed.
struct Done {
    cold: bool,
    traced: bool,
    latency_ms: f64,
    end: Instant,
}

/// One job, submit to report.
struct Job {
    latency_s: f64,
    view: JobView,
    report: String,
}

fn plain_job(client: &Client, spec: &str) -> Result<Job, String> {
    let t = Instant::now();
    let id = client.submit(spec)?;
    let view = client.wait(id, JOB_TIMEOUT)?;
    let report = client.report(id)?;
    Ok(Job {
        latency_s: t.elapsed().as_secs_f64(),
        view,
        report,
    })
}

/// Client-side layer times of traced jobs.
#[derive(Default)]
struct ClientLayers {
    submit_ms: Vec<f64>,
    report_ms: Vec<f64>,
    polls: Vec<f64>,
    poll_wait_ms: Vec<f64>,
    settle_ms: Vec<f64>,
}

/// A job with a span per client call. It polls with `Client::status` at
/// the cadence `Client::wait` uses, so polls can be counted.
fn traced_job(
    client: &Client,
    spec: &str,
    spans: &mut Spans,
    acc: &mut ClientLayers,
) -> Result<Job, String> {
    let cadence = RetryPolicy::none();
    let job_span = spans.reserve();
    let t = Instant::now();
    let s = Instant::now();
    let id = client.submit(spec)?;
    acc.submit_ms.push(s.elapsed().as_secs_f64() * 1e3);
    spans.record("client.submit", job_span, s);
    let mut polls = 0u32;
    let view = loop {
        let p = Instant::now();
        let view = client.status(id)?;
        spans.record("client.status", job_span, p);
        polls += 1;
        if view.is_terminal() {
            break view;
        }
        if t.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} still running after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(cadence.poll_cadence(polls - 1));
    };
    let r = Instant::now();
    let report = client.report(id)?;
    acc.report_ms.push(r.elapsed().as_secs_f64() * 1e3);
    spans.record("client.report", job_span, r);
    let latency_s = t.elapsed().as_secs_f64();
    let settle_ms = view.wall_seconds.unwrap_or(0.0) * 1e3;
    acc.polls.push(f64::from(polls));
    acc.settle_ms.push(settle_ms);
    acc.poll_wait_ms.push(latency_s * 1e3 - settle_ms);
    spans.close(
        job_span,
        "job",
        0,
        t,
        vec![("polls", f64::from(polls)), ("engine_settle_ms", settle_ms)],
    );
    Ok(Job {
        latency_s,
        view,
        report,
    })
}

/// The warm job's records, for timing the spec, key, codec and report
/// layers by direct calls.
struct Direct {
    spec: String,
    /// `(key, summary)` per cell, config-major.
    records: Vec<(u128, RunSummary)>,
    cells: String,
}

#[derive(Default)]
struct DirectLayers {
    parse_us: Vec<f64>,
    key_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    render_us: Vec<f64>,
}

impl Direct {
    fn fetch(client: &Client, spec: &str, cells: &str) -> Result<Self, String> {
        let parsed = parse_spec(spec).map_err(|e| e.to_string())?;
        let mut records = Vec::new();
        for config in &parsed.configs {
            for r in 0..SPEC_SEEDS {
                let key = cache_key(config, &parsed.scenario, parsed.insts, parsed.seed, r);
                records.push((key, client.fetch_record(key)?));
            }
        }
        Ok(Self {
            spec: spec.to_owned(),
            records,
            cells: cells.to_owned(),
        })
    }

    /// Times each layer once over the warm job and checks every result:
    /// same keys, lossless codec round trip, and a rendered report whose
    /// cells match the server's.
    fn run(&self, spans: &mut Spans, acc: &mut DirectLayers) -> Result<(), String> {
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let spec = parse_spec(&self.spec).map_err(|e| e.to_string())?;
        acc.parse_us.push(us(t));
        spans.record("spec.parse", 0, t);
        let mut reps = self.records.iter();
        for config in &spec.configs {
            for r in 0..SPEC_SEEDS {
                let (want, summary) = reps.next().ok_or("fewer records than cells")?;
                let t = Instant::now();
                let key = cache_key(config, &spec.scenario, spec.insts, spec.seed, r);
                acc.key_us.push(us(t));
                let t = Instant::now();
                let record = encode_record(key, summary);
                acc.encode_us.push(us(t));
                let mut stream = log_header().to_vec();
                stream.extend_from_slice(&record);
                let t = Instant::now();
                let (got, decoded) = decode_single_record(&stream).map_err(|e| e.to_string())?;
                acc.decode_us.push(us(t));
                if key != *want || got != key || digest(&decoded) != digest(summary) {
                    return Err(format!(
                        "key or codec mismatch at {} replicate {r}",
                        config.label()
                    ));
                }
            }
        }
        let cells: Vec<CellResult> = self
            .records
            .chunks(SPEC_SEEDS as usize)
            .map(|group| {
                let owned: Vec<RunSummary> = group.iter().map(|(_, s)| s.clone()).collect();
                CellResult::from_generated(owned[0].clone())
                    .with_stats(ReplicateStats::from_replicates(&owned, SPEC_SEEDS))
            })
            .collect();
        let segments = spec.scenario.segment_labels();
        let t = Instant::now();
        let report = render(
            &ReportMeta {
                spec_path: "perfbench",
                scenario: &spec.scenario.name,
                segments: &segments,
                mtr_path: &spec.mtr,
                insts: spec.insts,
                seed: spec.seed,
                seeds: SPEC_SEEDS,
                workers: 1,
                wall_seconds: 0.0,
            },
            &cells,
        );
        acc.render_us.push(us(t));
        spans.record("report.render", 0, t);
        if cells_section(&report) != Some(self.cells.as_str()) {
            return Err("rendered report differs from the server's".to_owned());
        }
        Ok(())
    }
}

fn tail_note(name: &str, xs: &[f64]) -> String {
    match (median(xs), tail(xs)) {
        (Some(p50), Some(t)) => format!(
            "{name}_p50_ms {p50:.3}; {name}_tail_ms {:.3} at p{} over {} jobs ({} beyond)",
            t.value, t.percentile, t.samples, t.beyond
        ),
        (Some(p50), None) => format!(
            "{name}_p50_ms {p50:.3}; too few jobs ({}) for a tail",
            xs.len()
        ),
        _ => format!("{name}: no jobs"),
    }
}

pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let work_dir = args.out.join(format!("work-{}", std::process::id()));
    let warm_spec = spec_text(spec_seed(args.seed));
    let mut setups = 0;
    let ((fleet, warm_cells), setup_s) = repeat_setup(
        started,
        || {
            setups += 1;
            let fleet = Fleet::cluster(work_dir.join(format!("setup{setups}")), &warm_spec)?;
            let job = plain_job(fleet.front(), &warm_spec)?;
            let v = &job.view;
            if v.state != "done" || v.cells != CELLS || v.cached != 0 || v.failed != 0 {
                return Err(format!("warm-up job did not simulate cleanly: {v:?}"));
            }
            let cells = cells_section(&job.report).ok_or("warm-up report has no cells")?;
            Ok((fleet, cells.to_owned()))
        },
        |(fleet, _)| fleet.stop(),
    )?;

    let mut spans = Spans::new(started);
    let mut client_layers = ClientLayers::default();
    let mut direct_layers = DirectLayers::default();
    let direct = if args.trace {
        Some(Direct::fetch(fleet.front(), &warm_spec, &warm_cells)?)
    } else {
        None
    };
    let before = fleet.cache_counts()?;
    let window = Duration::from_secs_f64(args.seconds);
    let mut jobs: Vec<Done> = Vec::new();
    let mut cold_reports: Vec<(u64, String)> = Vec::new();
    let (mut attempted, mut failed, mut in_a_row) = (0u64, 0u64, 0u32);
    let mut notes = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < window && in_a_row < MAX_CONSECUTIVE_ERRORS {
        let k = attempted;
        attempted += 1;
        let cold = k % BLOCK as u64 == 3;
        // Blocks of four, so cold jobs fall evenly on both sides.
        let traced = args.trace && (k / BLOCK as u64) % 2 == 1;
        let seed = if cold {
            cold_seed(args.seed, k)
        } else {
            spec_seed(args.seed)
        };
        let cold_spec;
        let spec = if cold {
            cold_spec = spec_text(seed);
            &cold_spec
        } else {
            &warm_spec
        };
        let result = if traced {
            traced_job(fleet.front(), spec, &mut spans, &mut client_layers)
        } else {
            plain_job(fleet.front(), spec)
        };
        let end = Instant::now();
        let job = match result {
            Ok(job) => job,
            Err(e) => {
                if failed == 0 {
                    notes.push(format!("first failure: {e}"));
                }
                failed += 1;
                in_a_row += 1;
                continue;
            }
        };
        in_a_row = 0;
        let v = &job.view;
        let mut ok = v.state == "done" && v.failed == 0 && v.cells == CELLS;
        if cold {
            ok &= v.cached == 0;
            let cells = cells_section(&job.report).unwrap_or_default();
            cold_reports.push((seed, cells.to_owned()));
        } else {
            ok &= v.simulated == 0 && cells_section(&job.report) == Some(warm_cells.as_str());
        }
        if let (true, Some(d)) = (traced, &direct) {
            if let Err(e) = d.run(&mut spans, &mut direct_layers) {
                notes.push(format!("direct-call check failed: {e}"));
                ok = false;
            }
        }
        if !ok {
            failed += 1;
        }
        jobs.push(Done {
            cold,
            traced,
            latency_ms: job.latency_s * 1e3,
            end,
        });
    }
    let window_s = t0.elapsed().as_secs_f64();
    let after = fleet.cache_counts()?;

    // Exactly-once simulation: the warm-up and every cold job's cells.
    let n_cold = cold_reports.len() as u64;
    let want_misses = CELLS * (1 + n_cold);
    let mut checks_ok = after.1 == want_misses;
    if !checks_ok {
        notes.push(format!(
            "cache misses {} != {want_misses} cells simulated",
            after.1
        ));
    }
    // Cluster reports must match a standalone server's.
    let reference = Fleet::standalone()?;
    let warm = plain_job(reference.front(), &warm_spec)?;
    if cells_section(&warm.report) != Some(warm_cells.as_str()) {
        notes.push("warm report differs from standalone".to_owned());
        checks_ok = false;
    }
    for (seed, cells) in &cold_reports {
        let job = plain_job(reference.front(), &spec_text(*seed))?;
        if cells_section(&job.report) != Some(cells.as_str()) {
            notes.push(format!("cold job at seed {seed} differs from standalone"));
            failed += 1;
        }
    }
    reference.stop()?;
    fleet.stop()?;
    std::fs::remove_dir_all(&work_dir).ok();

    let lat = |f: &dyn Fn(&Done) -> bool| -> Vec<f64> {
        jobs.iter().filter(|j| f(j)).map(|j| j.latency_ms).collect()
    };
    notes.insert(
        0,
        format!(
            "{}: seed {}, {} jobs of {CELLS} cells ({n_cold} cold); failed_frac {} ({failed} of {attempted})",
            args.workload,
            args.seed,
            jobs.len(),
            ratio(failed as f64, attempted as f64)
        ),
    );
    let metrics = if args.trace {
        let plain = median(&lat(&|j| !j.cold && !j.traced));
        let traced = median(&lat(&|j| !j.cold && j.traced));
        let overhead = traced.zip(plain).map_or(0.0, |(t, p)| t / p - 1.0);
        let (dh, dm) = (after.0 - before.0, after.1 - before.1);
        let c = &client_layers;
        let d = &direct_layers;
        vec![
            ("client.submit_ms", mean(&c.submit_ms)),
            ("spec.parse_us", mean(&d.parse_us)),
            ("client.report_ms", mean(&c.report_ms)),
            ("report.render_us", mean(&d.render_us)),
            ("client.polls_per_job", mean(&c.polls)),
            ("client.poll_wait_ms", mean(&c.poll_wait_ms)),
            ("engine.settle_ms", mean(&c.settle_ms)),
            ("cache.key_us", mean(&d.key_us)),
            ("cache.encode_us", mean(&d.encode_us)),
            ("cache.decode_us", mean(&d.decode_us)),
            ("cache.hit_frac", ratio(dh as f64, (dh + dm) as f64)),
            ("cache.fetched", (after.2 - before.2) as f64),
            ("cluster.simulated_cells", dm as f64),
            ("trace_overhead_frac", overhead),
        ]
    } else {
        let all = lat(&|_| true);
        let p50 = median(&all).ok_or("no job completed")?;
        let tail =
            tail(&all).ok_or_else(|| format!("{} jobs are too few for a tail", all.len()))?;
        // Median over consecutive blocks, so a rare slow cold job or a burst
        // of host noise does not set the figure.
        let mut from = t0;
        let rates: Vec<f64> = jobs
            .chunks_exact(BLOCK)
            .map(|block| {
                let end = block[BLOCK - 1].end;
                let rate = BLOCK as f64 / end.duration_since(from).as_secs_f64();
                from = end;
                rate
            })
            .collect();
        let jobs_per_s = median(&rates).ok_or("fewer jobs than one block")?;
        notes.push(format!(
            "jobs_per_s {jobs_per_s:.3} (median over {} blocks of {BLOCK}), {:.3} over the whole window",
            rates.len(),
            jobs.len() as f64 / window_s
        ));
        let rss = peak_rss_mb()?;
        notes.push(tail_note("cached_job", &lat(&|j| !j.cold)));
        notes.push(tail_note("cold_job", &lat(&|j| j.cold)));
        notes.push(format!(
            "job latency: p50 {p50:.3} ms, p{} {:.3} ms over {} jobs ({} beyond)",
            tail.percentile, tail.value, tail.samples, tail.beyond
        ));
        notes.push(format!("setup_s {setup_s:.4}; peak_rss_mb {rss:.1}"));
        vec![
            ("latency_p50_ms", p50),
            ("latency_tail_ms", tail.value),
            ("throughput_per_s", jobs_per_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        checks_ok,
        metrics,
        notes,
        spans: args.trace.then_some(spans),
    })
}
