//! `paper_job` and `tiny_jobs`: evolution jobs submitted to an
//! in-process `a2a-serve` server over loopback HTTP.
//!
//! The load comes from this one process: the calling thread for the
//! closed-loop `paper_job`, one submitter plus one poller thread for
//! the open-loop `tiny_jobs`, each with one connection at a time.

use crate::report::Report;
use crate::stats::{
    counter_delta, hist_delta, hist_mean, hist_sum, median, nproc, quantile, supported_quantile,
    SplitMix,
};
use crate::Args;
use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig, WorkerPool};
use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_obs::{schema, RegistrySnapshot};
use a2a_run::{context_digest, run_evolution, CheckpointStore, JobStore, RunOptions};
use a2a_serve::{build_result, client, QueueConfig, ServeConfig, Server, ServerHandle};
use a2a_sim::{paper_config_set, WorldConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`, and the warm-up round
/// trips each one makes.
const SETUP_REPS: usize = 9;
const WARMUP_RTTS: usize = 8;
/// Threads the open-loop load uses (submitter + poller).
const LOAD_THREADS: usize = 2;
/// A paper-scale job's time on the reference 2-core host: `paper_job`
/// runs one distinct job per this many seconds of `--seconds`.
const PAPER_JOB_S: f64 = 4.0;
/// Result poll interval of the closed loop (well under one job's time).
const PAPER_POLL: Duration = Duration::from_millis(10);
/// Minimum time between two polls of one tiny job.
const TINY_POLL: Duration = Duration::from_millis(1);
/// Interval of the `GET /jobs?limit=50` manifest listing.
const LIST_INTERVAL: Duration = Duration::from_millis(100);
/// Tiny-job rates (jobs/s): well under, and above, a 2-core host's
/// capacity (closed-loop probes read 247–322 jobs/s).
const NOMINAL_RATE: f64 = 100.0;
const OVERLOAD_RATE: f64 = 800.0;
/// Share of the window spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.9;
/// An overload-phase job counts as goodput when its sealed result is
/// readable within this long of its due time.
const LATENCY_LIMIT: Duration = Duration::from_millis(2000);
const TENANTS: u64 = 4;
/// How long any job may take before it counts as lost.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Samples of each durable-write micro-timing (p99 needs 1000).
const WRITE_SAMPLES: usize = 1000;
const QUICK_SAMPLES: usize = 20;
const READ_SAMPLES: usize = 200;
/// Samples of the `GET /healthz` round trip.
const RTT_SAMPLES: usize = 200;

/// An evolution job as submitted.
#[derive(Debug, Clone)]
struct Spec {
    grid: GridKind,
    m: u16,
    k: usize,
    configs: usize,
    generations: usize,
    population: usize,
    seed: u64,
}

impl Spec {
    fn paper(seed: u64) -> Self {
        Self {
            grid: GridKind::Triangulate,
            m: 16,
            k: 16,
            configs: 1000,
            generations: 20,
            population: 20,
            seed,
        }
    }

    fn tiny(seed: u64) -> Self {
        Self {
            grid: GridKind::Triangulate,
            m: 4,
            k: 2,
            configs: 1,
            generations: 1,
            population: 2,
            seed,
        }
    }

    fn grid_letter(&self) -> &'static str {
        if self.grid == GridKind::Triangulate {
            "T"
        } else {
            "S"
        }
    }

    fn body(&self, id: &str, tenant: &str) -> String {
        Json::object()
            .with("tenant", tenant)
            .with("id", id)
            .with("grid", self.grid_letter())
            .with("m", u64::from(self.m))
            .with("k", self.k as u64)
            .with("configs", self.configs as u64)
            .with("generations", self.generations as u64)
            .with("population", self.population as u64)
            .with("seed", self.seed)
            .to_string()
    }

    fn config_set_len(&self) -> usize {
        let lattice = WorldConfig::paper(self.grid, self.m).lattice;
        paper_config_set(lattice, self.grid, self.k, self.configs, self.seed)
            .expect("k fits the field")
            .len()
    }

    /// Configuration runs the GA protocol asks for: the initial pool
    /// plus `population / 2` offspring per generation, each over the
    /// whole set (pruning and the cache can only lower the simulated
    /// share).
    fn nominal_runs(&self, set_len: usize) -> f64 {
        ((self.population + self.generations * (self.population / 2)) * set_len) as f64
    }

    fn key(&self, report: &mut Report) {
        report.key("grid", self.grid_letter());
        report.key("m", u64::from(self.m));
        report.key("k", self.k as u64);
        report.key("configs", self.configs as u64);
        report.key("population", self.population as u64);
        report.key("generations", self.generations as u64);
    }

    /// The same job run in process, untimed by the service: the sealed
    /// result a correct server must reproduce, and its wall time.
    fn run_direct(&self, threads: usize) -> (Json, f64) {
        let pool = Arc::new(WorkerPool::new(threads));
        let t0 = Instant::now();
        let world = WorldConfig::paper(self.grid, self.m);
        let configs = paper_config_set(world.lattice, self.grid, self.k, self.configs, self.seed)
            .expect("k fits the field");
        let mut ga = GaConfig::paper(self.generations, self.seed);
        ga.population = self.population;
        ga.exchange_b = ga.exchange_b.clamp(1, self.population / 2);
        let evaluator = Evaluator::new(world.clone(), configs).with_pool(pool);
        let digest = context_digest(&ga, &world, evaluator.t_max(), evaluator.configs());
        let run = run_evolution(
            FsmSpec::paper(self.grid),
            &evaluator,
            ga,
            Vec::new(),
            &RunOptions::default(),
            |_| {},
        )
        .expect("a run without resume cannot fail to restore");
        let doc = build_result("direct", &digest, &run);
        (doc, t0.elapsed().as_secs_f64())
    }
}

/// The fields of a sealed result that depend only on the job spec.
const PURE_FIELDS: &[&str] = &["digest", "best", "pool", "history_len", "history_digest"];

/// Checks one served result: its checksum, its id, and every
/// spec-determined field against the expected document.
///
/// # Errors
///
/// The first difference found.
pub fn verify_result(served: &Json, id: &str, expected: &Json) -> Result<(), String> {
    schema::verify_checksum(served)?;
    if served.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("result of {id} carries another id"));
    }
    for &field in PURE_FIELDS {
        if served.get(field) != expected.get(field) {
            return Err(format!(
                "{id}: `{field}` is {} but the in-process run gives {}",
                served
                    .get(field)
                    .map_or("absent".to_string(), Json::to_string),
                expected
                    .get(field)
                    .map_or("absent".to_string(), Json::to_string)
            ));
        }
    }
    Ok(())
}

fn start_server(store: &Path, threads: usize, queue: QueueConfig) -> ServerHandle {
    Server::start(ServeConfig {
        store_root: store.to_path_buf(),
        queue,
        executors: threads,
        worker_threads: threads,
        conn_workers: threads,
        ..ServeConfig::default()
    })
    .expect("bind a loopback port")
}

/// Polls `GET /jobs/<id>/result` every [`PAPER_POLL`] until it answers
/// 200; returns the
/// document, when it became readable and the polls it took.
fn wait_result(addr: &str, id: &str) -> Result<(Json, Instant, u64), String> {
    let give_up = Instant::now() + JOB_TIMEOUT;
    let path = format!("/jobs/{id}/result");
    let mut polls = 0;
    loop {
        polls += 1;
        let reply = client::get(addr, &path).map_err(|e| format!("{id}: {e}"))?;
        match reply.status {
            200 => return Ok((reply.json()?, Instant::now(), polls)),
            404 if Instant::now() < give_up => std::thread::sleep(PAPER_POLL),
            404 => return Err(format!("{id}: no result within {JOB_TIMEOUT:?}")),
            s => return Err(format!("{id}: result poll answered {s}: {}", reply.body)),
        }
    }
}

/// Set-up, repeated: server start and recovery on a fresh store,
/// configuration-set generation for every spec, and warm-up round trips
/// (`GET /healthz`; no durable writes, whose latency this host varies
/// several-fold from minute to minute). Returns the last server, its
/// store and the first spec's configuration-set size.
fn set_up(
    args: &Args,
    report: &mut Report,
    specs: &[Spec],
    queue: QueueConfig,
) -> (ServerHandle, PathBuf, usize) {
    let threads = nproc();
    let mut times = Vec::new();
    let mut last: Option<(ServerHandle, PathBuf, usize)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((handle, _, _)) = last.take() {
            handle.stop();
        }
        let store = args.work_dir.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let handle = start_server(&store, threads, queue);
        let set_len = specs
            .iter()
            .map(Spec::config_set_len)
            .next()
            .expect("at least one spec");
        for spec in &specs[1..] {
            spec.config_set_len();
        }
        let addr = handle.addr().to_string();
        time_ms(WARMUP_RTTS, || {
            let reply = client::get(&addr, "/healthz").expect("loopback GET");
            assert_eq!(reply.status, 200, "healthz answered {}", reply.status);
        });
        times.push(t0.elapsed().as_secs_f64());
        last = Some((handle, store, set_len));
    }
    report.e2e(
        "setup_s",
        median(&times),
        times.len(),
        "median set-up: server start + recovery, config sets, warm-up round trips",
    );
    report.key("server_executors", threads as u64);
    report.key("server_pool_threads", threads as u64);
    report.key("server_conn_workers", threads as u64);
    report.key("queue_capacity", queue.capacity as u64);
    report.key("tenant_max_queued", queue.tenant_max_queued as u64);
    report.key("tenant_max_running", queue.tenant_max_running as u64);
    last.expect("at least one set-up repetition")
}

fn healthz_rtt(addr: &str) -> f64 {
    median(&time_ms(RTT_SAMPLES, || {
        let reply = client::get(addr, "/healthz").expect("loopback GET");
        assert_eq!(reply.status, 200, "healthz answered {}", reply.status);
    }))
}

/// Mean seconds of each durable write a job's execution performs.
#[derive(Debug, Default)]
struct WriteCosts {
    manifest_s: f64,
    result_s: f64,
    checkpoint_s: f64,
}

/// Milliseconds each of `n` calls of `op` took.
fn time_ms(n: usize, mut op: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The `run` layer: times the public store calls on copies of served
/// job `id`'s manifest, checkpoint and result under `scratch`.
fn durable_writes(
    report: &mut Report,
    store_root: &Path,
    id: &str,
    scratch: &Path,
    quick: bool,
) -> WriteCosts {
    let (writes, reads) = if quick {
        (QUICK_SAMPLES, QUICK_SAMPLES)
    } else {
        (WRITE_SAMPLES, READ_SAMPLES)
    };
    let store = JobStore::new(store_root);
    let manifest = store
        .load_manifest(id)
        .expect("readable manifest")
        .expect("job has a manifest");
    let result = store
        .load_result(id)
        .expect("readable result")
        .expect("job has a result");
    let ckpt_store = store.checkpoints(id).expect("valid id");
    let ckpt = ckpt_store
        .load()
        .expect("readable checkpoint")
        .expect("job has a checkpoint");
    let bytes = std::fs::metadata(ckpt_store.path()).map_or(0, |m| m.len());

    let micro = JobStore::new(scratch);
    let ckpt_copy = CheckpointStore::new(scratch.join("checkpoint"));
    let manifest_ms = time_ms(writes, || {
        micro.save_manifest(&manifest).expect("manifest write")
    });
    let ckpt_ms = time_ms(writes, || ckpt_copy.save(&ckpt).expect("checkpoint write"));
    let result_ms = time_ms(reads, || {
        micro.save_result(id, &result).expect("result write")
    });
    let read_ms = time_ms(reads, || {
        micro
            .load_manifest(id)
            .expect("manifest read")
            .expect("manifest present");
    });
    report.layer("run.checkpoint.write_p50_ms", median(&ckpt_ms));
    report.layer("run.checkpoint.write_p99_ms", quantile(&ckpt_ms, 0.99));
    report.layer("run.checkpoint.bytes", bytes as f64);
    report.layer("run.jobs.manifest_write_p50_ms", median(&manifest_ms));
    report.layer(
        "run.jobs.manifest_write_p99_ms",
        quantile(&manifest_ms, 0.99),
    );
    report.layer("run.jobs.result_write_ms", median(&result_ms));
    report.layer("run.jobs.manifest_read_ms", median(&read_ms));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64 / 1e3;
    WriteCosts {
        manifest_s: mean(&manifest_ms),
        result_s: mean(&result_ms),
        checkpoint_s: mean(&ckpt_ms),
    }
}

/// The `ga` layer and the kernel series over a traced window; returns
/// the seconds spent in GA generations, initial pool included.
///
/// Spans and explicit timers share the `ga.generation.us` and
/// `ga.pool.map.us` histograms (each span also records `<name>.us`), so
/// per-generation and pool figures come from the captured span records
/// and the generation total is the histogram minus the span share.
fn ga_layers(report: &mut Report, w: &crate::Traced, wall: f64) -> f64 {
    let (before, after) = (&w.before, &w.after);
    let spans = |name: &str| -> Vec<f64> {
        w.trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.elapsed_us as f64 / 1e3)
            .collect()
    };
    let generation_ms = spans("ga.generation");
    report.layer("ga.generation_p50_ms", median(&generation_ms));
    report.layer(
        "ga.generation_max_ms",
        generation_ms.iter().copied().fold(0.0, f64::max),
    );
    let hits = counter_delta(before, after, "ga.cache.hits") as f64;
    let misses = counter_delta(before, after, "ga.cache.misses") as f64;
    report.layer("ga.evals", misses);
    report.layer(
        "ga.eval_us",
        hist_mean(&hist_delta(before, after, "ga.eval.us")),
    );
    if hits + misses > 0.0 {
        report.layer("ga.cache_hit_ratio", hits / (hits + misses));
    }
    if misses > 0.0 {
        report.layer(
            "ga.pruned_share",
            counter_delta(before, after, "ga.pruned.genomes") as f64 / misses,
        );
    }
    let map_s = spans("ga.pool.map").iter().sum::<f64>() / 1e3;
    report.layer("ga.pool.busy_share", map_s / wall);
    report.layer(
        "run.checkpoint.writes",
        counter_delta(before, after, "run.checkpoint.writes") as f64,
    );
    let kernel = crate::registry_view(before, after);
    crate::kernel_layers(report, &kernel, map_s * nproc() as f64);
    generation_s(w, after, f64::INFINITY)
}

/// Seconds in GA generations (initial pool included) up to the
/// registry snapshot `upto`, taken at `until_ms` on the `a2a_obs`
/// clock: the `ga.generation.us` total minus the samples its spans
/// added.
fn generation_s(w: &crate::Traced, upto: &RegistrySnapshot, until_ms: f64) -> f64 {
    let total_us = hist_sum(&hist_delta(&w.before, upto, "ga.generation.us"));
    let span_us: f64 = w
        .trace
        .spans
        .iter()
        .filter(|s| s.name == "ga.generation" && s.start_ms + s.elapsed_us as f64 / 1e3 <= until_ms)
        .map(|s| s.elapsed_us as f64)
        .sum();
    (total_us - span_us) / 1e6
}

pub fn run(args: &Args, report: &mut Report) {
    std::fs::create_dir_all(&args.work_dir).expect("create the scratch directory");
    match args.workload.as_str() {
        "paper_job" => paper_job(args, report),
        _ => tiny_jobs(args, report),
    }
}

// ---------------------------------------------------------------- paper_job

/// One closed-loop job.
struct Sample {
    /// Accept (202) to sealed result readable.
    latency: f64,
    /// Sent to sealed result readable (the closed loop's due time is
    /// its send time).
    from_due: f64,
    polls: u64,
    /// The job's `serve.job.us` sample in seconds (0 when metrics are
    /// off). One job runs at a time, so the histogram's growth is its.
    exec: f64,
}

/// Waits (up to a second) for the executor to record a finished job's
/// `serve.job.us`, which it does just after publishing the result, and
/// returns the histogram's (count, sum in seconds).
fn exec_record(after_count: u64) -> (u64, f64) {
    let hist = a2a_obs::global().histogram("serve.job.us");
    let give_up = Instant::now() + Duration::from_secs(1);
    while hist.count() < after_count && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = hist.snapshot();
    (snap.count, hist_sum(&snap) / 1e6)
}

/// Submits each job in turn and waits for its sealed result; stops at
/// the first failure.
fn closed_loop(
    addr: &str,
    jobs: &[(Spec, Json)],
    prefix: &str,
    report: &mut Report,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let metrics = a2a_obs::metrics_enabled();
    let (mut exec_count, mut exec_sum) = exec_record(0);
    for (i, (spec, expected)) in jobs.iter().enumerate() {
        let id = format!("{prefix}{i}");
        report.attempted += 1;
        let due = Instant::now();
        let outcome = client::post(addr, "/jobs", &spec.body(&id, "bench"))
            .map_err(|e| e.to_string())
            .and_then(|r| {
                if r.status == 202 {
                    Ok(Instant::now())
                } else {
                    Err(format!("{id}: submit answered {}", r.status))
                }
            })
            .and_then(|accepted| {
                wait_result(addr, &id).map(|(doc, done, polls)| (accepted, doc, done, polls))
            })
            .and_then(|(accepted, doc, done, polls)| {
                verify_result(&doc, &id, expected)?;
                let (count, sum) = if metrics {
                    exec_record(exec_count + 1)
                } else {
                    (0, 0.0)
                };
                let exec = sum - exec_sum;
                (exec_count, exec_sum) = (count, sum);
                Ok(Sample {
                    latency: (done - accepted).as_secs_f64(),
                    from_due: (done - due).as_secs_f64(),
                    polls,
                    exec,
                })
            });
        match outcome {
            Ok(sample) => samples.push(sample),
            Err(e) => {
                report.failed += 1;
                report.check("job_failed", false, e);
                break;
            }
        }
    }
    samples
}

fn paper_job(args: &Args, report: &mut Report) {
    // One distinct paper-scale job per PAPER_JOB_S of the window: the
    // GA's cost varies with its seed, so a run medians several.
    let count = ((args.seconds / PAPER_JOB_S).round() as usize).max(1);
    let mut rng = SplitMix::new(args.seed);
    let specs: Vec<Spec> = (0..count)
        .map(|_| {
            let spec = Spec::paper(rng.below(1 << 32));
            if args.quick {
                Spec {
                    configs: 12,
                    generations: 2,
                    population: 4,
                    ..spec
                }
            } else {
                spec
            }
        })
        .collect();
    specs[0].key(report);
    report.key(
        "job_seeds",
        specs
            .iter()
            .map(|s| s.seed.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    report.key("tenants", 1u64);
    report.key("clients", 1u64);
    let (server, store, set_len) = set_up(args, report, &specs, QueueConfig::default());
    let addr = server.addr().to_string();
    let rtt = if args.trace { healthz_rtt(&addr) } else { 0.0 };

    let mut direct_s = Vec::new();
    let jobs: Vec<(Spec, Json)> = specs
        .into_iter()
        .map(|spec| {
            let (expected, secs) = spec.run_direct(nproc());
            direct_s.push(secs);
            (spec, expected)
        })
        .collect();
    let samples = closed_loop(&addr, &jobs, "p", report);
    let n = samples.len();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let from_due_ms: Vec<f64> = samples.iter().map(|s| s.from_due * 1e3).collect();
    let job_s = median(&latencies);
    report.e2e(
        "job_s",
        job_s,
        n,
        "median POST accept -> sealed result readable",
    );
    report.e2e(
        "configs_per_s",
        jobs[0].0.nominal_runs(set_len) / job_s,
        n,
        "GA-protocol configuration runs per job / median job time",
    );
    let p50 = median(&from_due_ms);
    report.e2e(
        "p50_ms",
        p50,
        n,
        "median send -> sealed result (closed loop: due = sent)",
    );
    let q = supported_quantile(n, 0.99);
    report.e2e(
        "p99_ms",
        quantile(&from_due_ms, q),
        n,
        format!("latency at q={q:.3} (highest with 10 samples beyond)"),
    );
    report.e2e(
        "goodput_per_s",
        1e3 / p50,
        n,
        "jobs per second of one closed-loop client at the median latency",
    );
    report.key("config_set", set_len as u64);
    report.check(
        "results_match_in_process_run",
        report.failed == 0,
        format!("{n} sealed results verified against run_evolution of the same spec"),
    );
    let direct_s = median(&direct_s);

    if args.trace && report.failed == 0 {
        report.layer("serve.rtt_ms", rtt);
        report.layer("ga.direct_job_s", direct_s);
        report.layer("serve.overhead_s", job_s - direct_s);
        report.layer(
            "bench.polls_per_job",
            samples.iter().map(|s| s.polls as f64).sum::<f64>() / n as f64,
        );
        let (traced_samples, w) = crate::traced(|| closed_loop(&addr, &jobs, "q", report));
        let wall: f64 = traced_samples.iter().map(|s| s.latency).sum();
        let generations_s = ga_layers(report, &w, wall);
        let exec_s: Vec<f64> = traced_samples.iter().map(|s| s.exec).collect();
        report.layer("serve.job_exec_ms", median(&exec_s) * 1e3);
        let waits_ms: Vec<f64> = traced_samples
            .iter()
            .map(|s| (s.latency - s.exec) * 1e3)
            .collect();
        let wq = supported_quantile(waits_ms.len(), 0.99);
        report.layer("serve.queue_wait_p50_ms", median(&waits_ms));
        report.layer("serve.queue_wait_p99_ms", quantile(&waits_ms, wq));
        let traced_lat: Vec<f64> = traced_samples.iter().map(|s| s.latency).collect();
        report.layer(
            "bench.trace_overhead_pct",
            (median(&traced_lat) / job_s - 1.0) * 100.0,
        );

        let costs = durable_writes(
            report,
            &store,
            "p0",
            &args.work_dir.join("writes"),
            args.quick,
        );
        let jobs = traced_samples.len() as f64;
        let ckpt_writes = counter_delta(&w.before, &w.after, "run.checkpoint.writes") as f64;
        let layers = [
            ("serve.http_queue_poll", wall - exec_s.iter().sum::<f64>()),
            ("ga.generations", generations_s),
            (
                "run.checkpoint_writes_est",
                ckpt_writes * costs.checkpoint_s,
            ),
            (
                "run.job_writes_est",
                jobs * (2.0 * costs.manifest_s + costs.result_s),
            ),
        ];
        crate::ledger(
            report,
            wall,
            &layers,
            "traced window, sum over jobs; writes estimated as count x measured mean; \
             residual = config-set generation and evaluator set-up inside the job",
        );
    }
    server.stop();
}

// ---------------------------------------------------------------- tiny_jobs

/// One scheduled tiny job.
#[derive(Debug, Clone)]
struct Scheduled {
    offset: Duration,
    tenant: String,
    spec: Spec,
    overload: bool,
}

/// The seeded arrival schedule: fixed-rate nominal then overload phase.
fn schedule(seed: u64, seconds: f64) -> (Vec<Scheduled>, f64, f64) {
    let mut rng = SplitMix::new(seed ^ 0x7111_7A0B);
    let nominal_s = seconds * NOMINAL_SHARE;
    let overload_s = seconds - nominal_s;
    let mut out = Vec::new();
    let mut push = |offset: f64, overload: bool, rng: &mut SplitMix| {
        out.push(Scheduled {
            offset: Duration::from_secs_f64(offset),
            tenant: format!("t{}", rng.below(TENANTS)),
            spec: Spec::tiny(rng.below(1 << 32)),
            overload,
        });
    };
    for i in 0..(NOMINAL_RATE * nominal_s).round() as usize {
        push(i as f64 / NOMINAL_RATE, false, &mut rng);
    }
    for i in 0..(OVERLOAD_RATE * overload_s).round() as usize {
        push(nominal_s + i as f64 / OVERLOAD_RATE, true, &mut rng);
    }
    (out, nominal_s, overload_s)
}

/// Job ids are `<window prefix><n|o for the phase><schedule index>`.
fn job_id(prefix: &str, i: usize, overload: bool) -> String {
    format!("{prefix}{}{i}", if overload { 'o' } else { 'n' })
}

fn admitted_ids(w: &Window, sched: &[Scheduled], prefix: &str) -> BTreeSet<String> {
    sched
        .iter()
        .zip(&w.fates)
        .enumerate()
        .filter(|(_, (_, f))| f.status == 202)
        .map(|(i, (s, _))| job_id(prefix, i, s.overload))
        .collect()
}

/// What happened to one scheduled job.
#[derive(Debug, Clone, Default)]
struct Fate {
    /// Submit reply status (0 = transport error).
    status: u16,
    late: Duration,
    accepted: Option<Instant>,
    done: Option<Instant>,
    polls: u64,
    retry_after: bool,
    error: Option<String>,
}

/// One open-loop window over the schedule.
struct Window {
    fates: Vec<Fate>,
    start: Instant,
    list_errors: u64,
    lists: u64,
    /// Registry snapshot taken as the overload phase begins, and when
    /// (`a2a_obs` clock, ms).
    boundary: Option<RegistrySnapshot>,
    boundary_ms: f64,
}

fn open_loop(addr: &str, sched: &[Scheduled], prefix: &str, snapshot_at_boundary: bool) -> Window {
    let threads = nproc();
    let fates = Mutex::new(vec![Fate::default(); sched.len()]);
    let (tx, rx) = mpsc::channel::<usize>();
    let start = Instant::now();
    let id_of = |i: usize| job_id(prefix, i, sched[i].overload);
    let mut boundary = None;
    let mut boundary_ms = f64::INFINITY;
    let (mut lists, mut list_errors) = (0, 0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, job) in sched.iter().enumerate() {
                let due = start + job.offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if snapshot_at_boundary && job.overload && boundary.is_none() {
                    boundary_ms = a2a_obs::clock_ms();
                    boundary = Some(a2a_obs::global().snapshot());
                }
                let late = Instant::now().saturating_duration_since(due);
                let reply = client::post(addr, "/jobs", &job.spec.body(&id_of(i), &job.tenant));
                let mut fates = fates.lock().expect("no poisoning");
                let fate = &mut fates[i];
                fate.late = late;
                match reply {
                    Ok(r) => {
                        fate.status = r.status;
                        fate.retry_after = r.header("retry-after").is_some();
                        if r.status == 202 {
                            fate.accepted = Some(Instant::now());
                            tx.send(i).expect("poller outlives the submitter");
                        }
                    }
                    Err(e) => fate.error = Some(e.to_string()),
                }
            }
            drop(tx);
        });
        scope.spawn(|| {
            let rx = rx;
            let mut outstanding: Vec<usize> = Vec::new();
            let mut submitting = true;
            let mut last_list = Instant::now();
            let mut give_up: Option<Instant> = None;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(i) => outstanding.push(i),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            submitting = false;
                            break;
                        }
                    }
                }
                if !submitting {
                    if outstanding.is_empty() {
                        break;
                    }
                    let deadline = *give_up.get_or_insert_with(|| Instant::now() + JOB_TIMEOUT);
                    if Instant::now() > deadline {
                        break; // the rest are lost
                    }
                }
                // `threads` executors pop jobs in admission order, so
                // at most the `threads` oldest unfinished jobs can be
                // done: poll in admission order, stop after that many
                // 404s (bounded poll load however long the backlog).
                let sweep = Instant::now();
                let mut pending = 0;
                outstanding.retain(|&i| {
                    if pending >= threads {
                        return true;
                    }
                    let id = id_of(i);
                    let reply = client::get(addr, &format!("/jobs/{id}/result"));
                    let mut fates = fates.lock().expect("no poisoning");
                    let fate = &mut fates[i];
                    fate.polls += 1;
                    match reply {
                        Ok(r) if r.status == 200 => {
                            fate.done = Some(Instant::now());
                            let ok = r.json().and_then(|doc| {
                                schema::verify_checksum(&doc)?;
                                (doc.get("id").and_then(Json::as_str) == Some(id.as_str()))
                                    .then_some(())
                                    .ok_or(format!("result of {id} carries another id"))
                            });
                            fate.error = ok.err();
                            false
                        }
                        Ok(r) if r.status == 404 => {
                            pending += 1;
                            true
                        }
                        Ok(r) => {
                            fate.error = Some(format!("{id}: result poll answered {}", r.status));
                            false
                        }
                        Err(e) => {
                            fate.error = Some(format!("{id}: {e}"));
                            false
                        }
                    }
                });
                if last_list.elapsed() >= LIST_INTERVAL {
                    last_list = Instant::now();
                    lists += 1;
                    match client::get(addr, "/jobs?limit=50") {
                        Ok(r) if r.status == 200 => {}
                        _ => list_errors += 1,
                    }
                }
                let next = sweep + TINY_POLL;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
            }
        });
    });
    Window {
        fates: fates.into_inner().expect("no poisoning"),
        start,
        list_errors,
        lists,
        boundary,
        boundary_ms,
    }
}

/// Per-phase latency figures of one window (ms from due time).
struct PhaseStats {
    nominal_ms: Vec<f64>,
    nominal_accept_s: Vec<f64>,
    overload_on_time: usize,
    /// Jobs completed in either phase, and the time from the window's
    /// start to the last completion.
    completed: usize,
    span_s: f64,
}

fn phase_stats(w: &Window, sched: &[Scheduled]) -> PhaseStats {
    let mut s = PhaseStats {
        nominal_ms: vec![],
        nominal_accept_s: vec![],
        overload_on_time: 0,
        completed: 0,
        span_s: 0.0,
    };
    let mut last_done = w.start;
    for (job, fate) in sched.iter().zip(&w.fates) {
        let due = w.start + job.offset;
        let Some(done) = fate.done.filter(|_| fate.error.is_none()) else {
            continue;
        };
        s.completed += 1;
        last_done = last_done.max(done);
        if job.overload {
            if done - due <= LATENCY_LIMIT {
                s.overload_on_time += 1;
            }
        } else {
            s.nominal_ms.push((done - due).as_secs_f64() * 1e3);
            if let Some(acc) = fate.accepted {
                s.nominal_accept_s.push((done - acc).as_secs_f64());
            }
        }
    }
    s.span_s = (last_done - w.start).as_secs_f64();
    s
}

/// Gates one window; returns the number of failed operations.
fn gate_window(report: &mut Report, w: &Window, sched: &[Scheduled], label: &str) -> u64 {
    let mut failed = 0;
    let (mut lost, mut bad, mut naked_429, mut nominal_refused, mut errors) = (0, 0, 0, 0, 0);
    for (job, fate) in sched.iter().zip(&w.fates) {
        match fate.status {
            202 if fate.done.is_none() => lost += 1,
            202 if fate.error.is_some() => bad += 1,
            202 => {}
            429 if !fate.retry_after => naked_429 += 1,
            429 if !job.overload => nominal_refused += 1,
            429 => {}
            _ => errors += 1,
        }
    }
    failed += lost + bad + naked_429 + nominal_refused + errors + w.list_errors;
    report.check(
        &format!("{label}_no_lost_jobs"),
        lost == 0,
        format!("{lost} accepted jobs never produced a result"),
    );
    report.check(
        &format!("{label}_results_verify"),
        bad == 0,
        format!("{bad} results failed checksum/id verification"),
    );
    report.check(
        &format!("{label}_429_retry_after"),
        naked_429 == 0,
        format!("{naked_429} refusals without Retry-After"),
    );
    report.check(
        &format!("{label}_nominal_admitted"),
        nominal_refused + errors == 0,
        format!("{nominal_refused} nominal refusals, {errors} other submit errors"),
    );
    report.check(
        &format!("{label}_listing"),
        w.list_errors == 0,
        format!("{} of {} job listings failed", w.list_errors, w.lists),
    );
    failed
}

fn tiny_jobs(args: &Args, report: &mut Report) {
    assert!(
        LOAD_THREADS <= nproc(),
        "the open-loop load needs {LOAD_THREADS} hardware threads, host has {}",
        nproc()
    );
    // Deep enough that a stall of about a second at the nominal rate
    // queues rather than refuses; overload still fills it.
    let queue = QueueConfig {
        capacity: 256,
        tenant_max_queued: 64,
        tenant_max_running: nproc(),
    };
    let (sched, nominal_s, overload_s) = schedule(args.seed, args.seconds);
    let probe = Spec::tiny(0);
    probe.key(report);
    report.key("tenants", TENANTS);
    report.key("nominal_rate", NOMINAL_RATE);
    report.key("overload_rate", OVERLOAD_RATE);
    report.key("nominal_s", nominal_s);
    report.key("overload_s", overload_s);
    report.key("latency_limit_ms", LATENCY_LIMIT.as_secs_f64() * 1e3);
    report.key("load_threads", LOAD_THREADS as u64);
    report.key("load_connections", LOAD_THREADS as u64);
    report.key("poll_interval_ms", TINY_POLL.as_secs_f64() * 1e3);
    report.key("list_interval_ms", LIST_INTERVAL.as_secs_f64() * 1e3);
    let (server, store, set_len) = set_up(args, report, std::slice::from_ref(&probe), queue);
    let addr = server.addr().to_string();
    let rtt = if args.trace { healthz_rtt(&addr) } else { 0.0 };

    let w = open_loop(&addr, &sched, "a", false);
    let st = phase_stats(&w, &sched);
    report.attempted += sched.len() as u64;
    report.failed += gate_window(report, &w, &sched, "window");
    let n = st.nominal_ms.len();
    let q = supported_quantile(n, 0.99);
    report.e2e(
        "p50_ms",
        median(&st.nominal_ms),
        n,
        "nominal phase: median due -> sealed result",
    );
    report.e2e(
        "p99_ms",
        quantile(&st.nominal_ms, q),
        n,
        format!("nominal phase latency at q={q:.3}"),
    );
    report.e2e(
        "job_s",
        median(&st.nominal_accept_s),
        st.nominal_accept_s.len(),
        "nominal phase: median accept -> sealed result",
    );
    let offered = sched.iter().filter(|s| s.overload).count();
    let refused = w.fates.iter().filter(|f| f.status == 429).count();
    report.e2e("goodput_per_s", st.overload_on_time as f64 / overload_s, offered, format!(
        "overload phase: {} of {offered} results within {} ms of due ({refused} refused), per offered second",
        st.overload_on_time, LATENCY_LIMIT.as_millis()));
    report.e2e(
        "configs_per_s",
        probe.nominal_runs(set_len) * st.completed as f64 / st.span_s,
        st.completed,
        "GA-protocol configuration runs of completed jobs per second of the window",
    );
    report.key("config_set", set_len as u64);
    let late: Vec<f64> = w.fates.iter().map(|f| f.late.as_secs_f64() * 1e3).collect();

    let mut traced_window = None;
    if args.trace {
        report.layer("serve.rtt_ms", rtt);
        report.layer("bench.gen_late_p99_ms", quantile(&late, 0.99));
        let done: Vec<&Fate> = w.fates.iter().filter(|f| f.done.is_some()).collect();
        report.layer(
            "bench.polls_per_job",
            done.iter().map(|f| f.polls as f64).sum::<f64>() / done.len().max(1) as f64,
        );
        let (tw, w) = crate::traced(|| open_loop(&addr, &sched, "b", true));
        let tw = traced_window.insert(tw);
        report.attempted += sched.len() as u64;
        report.failed += gate_window(report, tw, &sched, "traced_window");
        let tst = phase_stats(tw, &sched);
        let boundary = tw.boundary.clone().unwrap_or_else(|| w.after.clone());
        let wall = (Instant::now() - tw.start).as_secs_f64();
        ga_layers(report, &w, wall);
        report.layer(
            "serve.rejected_429",
            tw.fates.iter().filter(|f| f.status == 429).count() as f64,
        );
        let exec = hist_delta(&w.before, &boundary, "serve.job.us");
        let exec_mean_ms = hist_mean(&exec) / 1e3;
        report.layer("serve.job_exec_ms", exec_mean_ms);
        let tq = supported_quantile(tst.nominal_ms.len(), 0.99);
        report.layer(
            "serve.queue_wait_p50_ms",
            median(&tst.nominal_ms) - exec_mean_ms,
        );
        report.layer(
            "serve.queue_wait_p99_ms",
            quantile(&tst.nominal_ms, tq) - exec_mean_ms,
        );
        report.layer(
            "bench.trace_overhead_pct",
            (median(&tst.nominal_ms) / median(&st.nominal_ms) - 1.0) * 100.0,
        );

        let costs = durable_writes(
            report,
            &store,
            &job_id("a", 0, false),
            &args.work_dir.join("writes"),
            args.quick,
        );
        // Per nominal job: latency = serve side + execution.
        let jobs = exec.count.max(1) as f64;
        let generations_s = generation_s(&w, &boundary, tw.boundary_ms);
        let ckpts = counter_delta(&w.before, &boundary, "run.checkpoint.writes") as f64;
        let latency_s =
            tst.nominal_ms.iter().sum::<f64>() / tst.nominal_ms.len().max(1) as f64 / 1e3;
        let layers = [
            ("serve.http_queue_poll", latency_s - exec_mean_ms / 1e3),
            ("ga.generations", generations_s / jobs),
            (
                "run.checkpoint_writes_est",
                ckpts / jobs * costs.checkpoint_s,
            ),
            (
                "run.job_writes_est",
                2.0 * costs.manifest_s + costs.result_s,
            ),
        ];
        crate::ledger(
            report,
            latency_s,
            &layers,
            "traced nominal phase, mean per job; writes estimated as count x measured mean",
        );
    }
    // Every admitted job is in the store exactly once with a sealed
    // result; no refused job left anything behind.
    let mut admitted = admitted_ids(&w, &sched, "a");
    if let Some(tw) = &traced_window {
        admitted.extend(admitted_ids(tw, &sched, "b"));
    }
    let stored: BTreeSet<String> = JobStore::new(&store)
        .list()
        .into_iter()
        .filter(|id| !id.starts_with("warmup"))
        .collect();
    let extra = stored.difference(&admitted).count();
    let missing = admitted.difference(&stored).count();
    report.check(
        "store_matches_admissions",
        extra == 0 && missing == 0,
        format!(
            "{} jobs stored, {} admitted; {extra} unexpected, {missing} missing",
            stored.len(),
            admitted.len()
        ),
    );
    report.failed += (extra + missing) as u64;
    server.stop();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `paper_job` gate accepts a served result equal to the
    /// in-process run and fails the run when the expected history
    /// digest is corrupted.
    #[test]
    fn corrupted_expected_digest_fails_the_gate() {
        let store = PathBuf::from(".perfbench-work").join("selftest-gate");
        let server = start_server(&store, 1, QueueConfig::default());
        let addr = server.addr().to_string();
        let spec = Spec {
            configs: 8,
            generations: 2,
            population: 4,
            ..Spec::paper(11)
        };
        let (expected, _) = spec.run_direct(1);

        let mut good = Report::default();
        let samples = closed_loop(
            &addr,
            &[(spec.clone(), expected.clone())],
            "good",
            &mut good,
        );
        assert_eq!((samples.len(), good.failed), (1, 0));

        let mut corrupted = expected;
        corrupted.set("history_digest", "0000000000000000");
        let mut bad = Report::default();
        let samples = closed_loop(&addr, &[(spec, corrupted)], "bad", &mut bad);
        assert!(samples.is_empty());
        assert_eq!(bad.failed, 1);
        assert!(!bad.correct(), "a digest mismatch must fail the run");
        assert!(
            bad.checks[0].detail.contains("history_digest"),
            "{}",
            bad.checks[0].detail
        );
        server.stop();
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn schedule_is_seeded_and_phased() {
        let (a, nominal_s, overload_s) = schedule(9, 15.0);
        let (b, _, _) = schedule(9, 15.0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            a.iter().filter(|s| !s.overload).count(),
            (NOMINAL_RATE * nominal_s).round() as usize
        );
        assert_eq!(
            a.iter().filter(|s| s.overload).count(),
            (OVERLOAD_RATE * overload_s).round() as usize
        );
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
    }
}
