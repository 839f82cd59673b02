//! The repository benchmark. One command runs one workload, prints
//! every metric by name with its unit, checks the program's outputs and
//! ends with one JSON result line:
//!
//! ```console
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_sweep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 1` adds a traced window and reports the per-layer metrics;
//! `--compare A B` prints the per-metric deltas between two saved runs.
//! See README.md for the workloads, the metrics and their predictions.

mod report;
mod service;
mod stats;
mod sweep;

use a2a_obs::json::Json;
use a2a_obs::RegistrySnapshot;
use report::Report;
use stats::{counter_delta, hist_delta, hist_mean, hist_sum};

pub const WORKLOADS: &[&str] = &["paper_job", "table1_sweep", "large_k", "tiny_jobs"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable job stores (inside the checkout).
    pub work_dir: std::path::PathBuf,
    /// Shrinks configuration sets and jobs for the self-test only.
    pub quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        work_dir: std::path::PathBuf::from(".perfbench-work")
            .join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick: false,
    })
}

/// What a traced window leaves behind: the registry before and after,
/// and every span closed in between.
pub struct Traced {
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    pub trace: a2a_obs::trace::Trace,
}

/// Runs `f` with metrics on, the level at `Trace` and span capture on,
/// then turns all three off again.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Traced) {
    let before = a2a_obs::global().snapshot();
    a2a_obs::set_metrics(true);
    a2a_obs::set_level(a2a_obs::Level::Trace);
    a2a_obs::trace::start_capture();
    let out = f();
    let trace = a2a_obs::trace::take_capture();
    a2a_obs::set_level(a2a_obs::Level::Off);
    a2a_obs::set_metrics(false);
    (
        out,
        Traced {
            before,
            after: a2a_obs::global().snapshot(),
            trace,
        },
    )
}

/// The kernel's registry series over one traced window.
#[derive(Debug, Default)]
pub struct KernelView {
    pub act_s: f64,
    pub exchange_s: f64,
    pub steps: u64,
    pub agent_steps: u64,
    pub active_pct: f64,
}

#[must_use]
pub fn registry_view(before: &RegistrySnapshot, after: &RegistrySnapshot) -> KernelView {
    KernelView {
        act_s: hist_sum(&hist_delta(before, after, "kernel.multi.act.ns")) / 1e9,
        exchange_s: hist_sum(&hist_delta(before, after, "kernel.multi.exchange.ns")) / 1e9,
        steps: counter_delta(before, after, "kernel.steps"),
        agent_steps: counter_delta(before, after, "kernel.frontier.active"),
        active_pct: hist_mean(&hist_delta(before, after, "kernel.frontier.active_pct")),
    }
}

/// The `sim` layer from the kernel's registry series; `caller_s` is the
/// thread time of the code that called the kernel (`run_all` for the
/// sweeps, `ga.pool.map` time × pool threads for jobs).
pub fn kernel_layers(report: &mut Report, k: &KernelView, caller_s: f64) {
    report.layer("sim.steps", k.steps as f64);
    report.layer("sim.agent_steps", k.agent_steps as f64);
    report.layer("sim.active_pct", k.active_pct);
    if caller_s > 0.0 {
        report.layer("sim.act_share", k.act_s / caller_s);
        report.layer("sim.exchange_share", k.exchange_s / caller_s);
    }
}

/// Records the attribution ledger: disjoint layer times in seconds,
/// their sum, the wall clock they should add up to and the
/// unattributed residual.
pub fn ledger(report: &mut Report, wall: f64, layers: &[(&str, f64)], note: &str) {
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    let parts = layers
        .iter()
        .map(|&(n, s)| (n.to_string(), Json::from(s)))
        .collect();
    report.layer("bench.wall_s", wall);
    report.layer("bench.attributed_s", attributed);
    report.layer("bench.residual_share", (wall - attributed) / wall);
    report.ledger = Some(
        Json::object()
            .with("wall_s", wall)
            .with("layers_s", Json::Obj(parts))
            .with("attributed_s", attributed)
            .with("residual_s", wall - attributed)
            .with("residual_share", (wall - attributed) / wall)
            .with("note", note),
    );
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.key("workload", args.workload.as_str());
    report.key("seed", args.seed);
    report.key("seconds", args.seconds);
    report.key("trace", args.trace);
    report.key("nproc", stats::nproc() as u64);
    match args.workload.as_str() {
        "table1_sweep" | "large_k" => sweep::run(args, &mut report),
        _ => service::run(args, &mut report),
    }
    report.e2e("peak_rss_mb", stats::peak_rss_mb(), 1, "VmHWM at exit");
    report
}

/// Removes a run's job stores and commits the removal to disk before
/// exiting, so the next run does not pay for this run's deletions.
fn clean_up(work_dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(work_dir);
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    if let Ok(root) = std::fs::File::open(".") {
        let _ = root.sync_all();
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        if argv.len() != 3 {
            eprintln!("usage: --compare <run-a.txt> <run-b.txt>");
            std::process::exit(2);
        }
        if let Err(e) = report::compare(&argv[1], &argv[2]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = run(&args);
    clean_up(&args.work_dir);
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_obs::json;

    fn quick(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
            work_dir: std::path::PathBuf::from(".perfbench-work")
                .join(format!("selftest-{workload}-{trace}")),
            quick: true,
        }
    }

    fn metric_names(result: &Json) -> Vec<(String, String)> {
        result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("result has metrics")
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("metric has a unit")
                        .to_string(),
                )
            })
            .collect()
    }

    /// Every workload prints every end-to-end metric (non-zero) and,
    /// traced, every per-layer metric — each with its unit.
    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        for &workload in WORKLOADS {
            for trace in [false, true] {
                let args = quick(workload, trace);
                let report = run(&args);
                clean_up(&args.work_dir);
                let result =
                    json::parse(&report.result_json(trace).to_string()).expect("result is JSON");
                assert_eq!(
                    metric_names(&result),
                    if trace { layers.clone() } else { e2e.clone() },
                    "{workload}"
                );
                for (name, m) in result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                {
                    let v = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(v.is_finite(), "{workload} {name} = {v}");
                    assert!(
                        trace || v > 0.0,
                        "{workload} end-to-end {name} must not read 0"
                    );
                }
                assert!(
                    result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .expect("attempted")
                        >= 1.0
                );
                assert!(
                    report.key.iter().any(|(k, _)| k == "nproc"),
                    "{workload} key lacks nproc"
                );
                if trace {
                    assert!(
                        report.ledger.is_some(),
                        "{workload} traced run has no ledger"
                    );
                }
            }
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// harness prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert!(
            workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())),
            "{workloads:?}"
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload large_k --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload large_k --seed 1 --seconds 1 --trace 2")).is_err());
        let ok = parse_args(&argv("--workload large_k --seed 1 --seconds 2.5 --trace 1"))
            .expect("valid");
        assert!(ok.trace && ok.seconds == 2.5 && !ok.quick);
    }
}
