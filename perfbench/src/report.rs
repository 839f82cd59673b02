//! The metric catalogue, one run's report, its printed form and the
//! per-layer comparison of two saved reports.

use a2a_obs::json::{self, Json};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one
/// (see README.md for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("configs_per_s", "runs/s"),
    ("job_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_per_s", "jobs/s"),
];

/// The sixteen sweep cells with a per-layer time: `(grid, m, k)`.
pub const CELLS: &[(char, u16, usize)] = &[
    ('T', 16, 2),
    ('T', 16, 4),
    ('T', 16, 8),
    ('T', 16, 16),
    ('T', 16, 32),
    ('T', 16, 256),
    ('S', 16, 2),
    ('S', 16, 4),
    ('S', 16, 8),
    ('S', 16, 16),
    ('S', 16, 32),
    ('S', 16, 256),
    ('T', 32, 128),
    ('T', 32, 256),
    ('S', 32, 128),
    ('S', 32, 256),
];

#[must_use]
pub fn cell_metric(grid: char, m: u16, k: usize) -> String {
    format!("sim.cell.{grid}{m}.k{k}_ms")
}

/// Per-layer metrics other than the sweep cells: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("sim.run_all_s", "s"),
    ("sim.steps", "count"),
    ("sim.agent_steps", "count"),
    ("sim.active_pct", "%"),
    ("sim.act_share", "ratio"),
    ("sim.exchange_share", "ratio"),
    ("sim.infoset_bytes", "B"),
    ("sim.oracle_mismatches", "count"),
    ("ga.generation_p50_ms", "ms"),
    ("ga.generation_max_ms", "ms"),
    ("ga.evals", "count"),
    ("ga.eval_us", "us"),
    ("ga.cache_hit_ratio", "ratio"),
    ("ga.pruned_share", "ratio"),
    ("ga.pool.busy_share", "ratio"),
    ("ga.direct_job_s", "s"),
    ("run.checkpoint.writes", "count"),
    ("run.checkpoint.write_p50_ms", "ms"),
    ("run.checkpoint.write_p99_ms", "ms"),
    ("run.checkpoint.bytes", "B"),
    ("run.jobs.manifest_write_p50_ms", "ms"),
    ("run.jobs.manifest_write_p99_ms", "ms"),
    ("run.jobs.result_write_ms", "ms"),
    ("run.jobs.manifest_read_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.job_exec_ms", "ms"),
    ("serve.rejected_429", "count"),
    ("serve.overhead_s", "s"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.polls_per_job", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.wall_s", "s"),
    ("bench.attributed_s", "s"),
    ("bench.residual_share", "ratio"),
];

/// Every per-layer metric in print order, with its unit.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let cells = CELLS.iter().map(|&(g, m, k)| (cell_metric(g, m, k), "ms"));
    LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(cells)
        .collect()
}

/// One end-to-end reading: its value, the samples behind it and how it
/// was derived on this workload.
#[derive(Debug, Clone)]
pub struct Reading {
    pub value: f64,
    pub samples: usize,
    pub how: String,
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// The workload key: every parameter a number depends on.
    pub key: Vec<(String, Json)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, Reading>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Attribution of the traced window's wall clock.
    pub ledger: Option<Json>,
}

impl Report {
    pub fn key(&mut self, name: &str, value: impl Into<Json>) {
        self.key.push((name.to_string(), value.into()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize, how: impl Into<String>) {
        self.e2e.insert(
            name,
            Reading {
                value,
                samples,
                how: how.into(),
            },
        );
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The workload key as one JSON object.
    #[must_use]
    pub fn key_json(&self) -> Json {
        Json::Obj(self.key.clone())
    }

    /// The result object: `metrics` holds the end-to-end set, or the
    /// per-layer set when `traced`.
    #[must_use]
    pub fn result_json(&self, traced: bool) -> Json {
        let metric =
            |value: f64, unit: &str| Json::object().with("value", value).with("unit", unit);
        let metrics = if traced {
            per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.layers.get(&n).copied().unwrap_or(0.0);
                    (n, metric(v, u))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    (
                        n.to_string(),
                        metric(self.e2e.get(n).map_or(0.0, |r| r.value), u),
                    )
                })
                .collect()
        };
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", Json::Obj(metrics))
    }

    /// Prints the human-readable lines, the key and ledger lines, and
    /// the result object as the last line of standard output.
    pub fn print(&self, traced: bool) {
        for &(name, unit) in END_TO_END {
            match self.e2e.get(name) {
                Some(r) => println!(
                    "e2e    {name:<16} {:>14.4} {unit:<7} n={:<5} {}",
                    r.value, r.samples, r.how
                ),
                None => println!("e2e    {name:<16} {:>14} {unit:<7} (not measured)", "-"),
            }
        }
        if traced {
            for (name, unit) in per_layer() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                println!("layer  {name:<32} {v:>14.4} {unit}");
            }
        }
        for c in &self.checks {
            println!(
                "check  {:<28} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        println!("key    {}", self.key_json());
        if let Some(ledger) = &self.ledger {
            println!("ledger {ledger}");
        }
        println!("{}", self.result_json(traced));
    }
}

/// The key and result objects of a saved run (its standard output).
fn load_saved(path: &str) -> Result<(Option<Json>, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let key = text
        .lines()
        .find_map(|l| l.strip_prefix("key    "))
        .map(json::parse)
        .transpose()
        .map_err(|e| format!("{path}: bad key line: {e}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{path} is empty"))?;
    let result = json::parse(last).map_err(|e| format!("{path}: last line is not JSON: {e}"))?;
    Ok((key, result))
}

/// Prints every metric both saved runs carry, with the relative change
/// from `a` to `b`; warns when the two runs have different workload
/// keys (a number read against the wrong workload or host).
///
/// # Errors
///
/// Unreadable files or results without `metrics`.
pub fn compare(a: &str, b: &str) -> Result<(), String> {
    let (key_a, res_a) = load_saved(a)?;
    let (key_b, res_b) = load_saved(b)?;
    if key_a != key_b {
        println!("warning: the two runs have different workload keys");
        println!(
            "  a: {}",
            key_a.map_or("(none)".to_string(), |k| k.to_string())
        );
        println!(
            "  b: {}",
            key_b.map_or("(none)".to_string(), |k| k.to_string())
        );
    }
    let metrics = |r: &Json| -> Result<Vec<(String, Json)>, String> {
        r.get("metrics")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("result has no `metrics`".into())
    };
    let mb = metrics(&res_b)?;
    println!(
        "{:<34} {:>14} {:>14} {:>9}  unit",
        "metric", "a", "b", "delta"
    );
    for (name, ma) in metrics(&res_a)? {
        let Some((_, mbv)) = mb.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let va = ma.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let vb = mbv.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
        let delta = if va == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (vb / va - 1.0) * 100.0)
        };
        println!("{name:<34} {va:>14.4} {vb:>14.4} {delta:>9}  {unit}");
    }
    Ok(())
}
