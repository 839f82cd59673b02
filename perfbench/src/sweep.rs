//! `table1_sweep` and `large_k`: the Table 1 / Fig. 5 protocol with the
//! published agents, driven cell by cell through
//! [`BatchRunner::run_all`] on the calling thread.

use crate::report::{cell_metric, Report};
use crate::stats::{median, quantile, supported_quantile, SplitMix};
use crate::Args;
use a2a_analysis::experiments::density::{DensityExperiment, PAPER_TABLE1_S, PAPER_TABLE1_T};
use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_sim::{
    paper_config_set, run_to_completion, BatchRunner, InitialConfig, World, WorldConfig,
};
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Configurations per cell replayed through the reference `World`.
const ORACLE_SAMPLE: usize = 4;

/// One (grid, k) cell: its runner, configuration set and the sums a
/// correct pass must reproduce.
struct Cell {
    kind: GridKind,
    m: u16,
    k: usize,
    runner: BatchRunner,
    configs: Vec<InitialConfig>,
    /// Σ t_comm of the warm-up pass (every later pass must match).
    sum: u64,
    /// Σ t_comm² of the warm-up pass (for the standard error).
    sum_sq: f64,
}

impl Cell {
    fn grid_char(&self) -> char {
        if self.kind == GridKind::Triangulate {
            'T'
        } else {
            'S'
        }
    }

    fn mean(&self) -> f64 {
        self.sum as f64 / self.configs.len() as f64
    }

    /// Standard error of the cell's mean `t_comm`.
    fn std_err(&self) -> f64 {
        let n = self.configs.len() as f64;
        let var = (self.sum_sq / n - self.mean().powi(2)).max(0.0) * n / (n - 1.0);
        (var / n).sqrt()
    }
}

/// What one pass over every cell produced.
struct Pass {
    wall: Duration,
    /// Time inside `run_all`, per cell.
    cells: Vec<Duration>,
    /// `kernel.frontier.active` agent-steps per cell (traced passes).
    agent_steps: Vec<u64>,
    unsolved: usize,
    mismatched_cells: usize,
}

fn experiment(args: &Args, seed: u64) -> DensityExperiment {
    let exp = match args.workload.as_str() {
        "table1_sweep" => DensityExperiment::table1(seed, 1),
        _ => DensityExperiment {
            m: 32,
            agent_counts: vec![128, 256],
            n_random: 1000,
            seed,
            t_max: 5000,
            threads: 1,
        },
    };
    if args.quick {
        DensityExperiment {
            n_random: 12,
            ..exp
        }
    } else {
        exp
    }
}

/// Builds every cell: configuration sets, compiled runners and one
/// warm-up pass whose sums later passes must reproduce.
fn set_up(exp: &DensityExperiment) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in [GridKind::Triangulate, GridKind::Square] {
        let cfg = WorldConfig::paper(kind, exp.m);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), exp.t_max)
            .expect("the published agents compile against the paper world");
        for &k in &exp.agent_counts {
            let configs = paper_config_set(cfg.lattice, kind, k, exp.n_random, exp.seed)
                .expect("k fits the field");
            let outcomes = runner
                .run_all(&configs)
                .expect("generated configurations are valid");
            let times: Vec<u64> = outcomes
                .iter()
                .map(|o| u64::from(o.t_comm.unwrap_or(0)))
                .collect();
            cells.push(Cell {
                kind,
                m: exp.m,
                k,
                runner: runner.clone(),
                sum: times.iter().sum(),
                sum_sq: times.iter().map(|&t| (t * t) as f64).sum(),
                configs,
            });
        }
    }
    cells
}

fn run_pass(cells: &[Cell], count_agent_steps: bool) -> Pass {
    let active = a2a_obs::global().counter("kernel.frontier.active");
    let start = Instant::now();
    let mut pass = Pass {
        wall: Duration::ZERO,
        cells: Vec::new(),
        agent_steps: Vec::new(),
        unsolved: 0,
        mismatched_cells: 0,
    };
    for cell in cells {
        let before = if count_agent_steps { active.get() } else { 0 };
        let t0 = Instant::now();
        let outcomes = cell
            .runner
            .run_all(&cell.configs)
            .expect("generated configurations are valid");
        pass.cells.push(t0.elapsed());
        if count_agent_steps {
            pass.agent_steps.push(active.get() - before);
        }
        pass.unsolved += outcomes.iter().filter(|o| o.t_comm.is_none()).count();
        let sum: u64 = outcomes
            .iter()
            .map(|o| u64::from(o.t_comm.unwrap_or(0)))
            .sum();
        if sum != cell.sum {
            pass.mismatched_cells += 1;
        }
    }
    pass.wall = start.elapsed();
    pass
}

/// Passes until `seconds` have gone by (at least one).
fn run_window(cells: &[Cell], seconds: f64, traced: bool) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(cells, traced));
    }
    passes
}

/// Replays a seeded sample of each cell through the reference `World`
/// and counts outcomes that differ from the kernel's.
fn oracle_mismatches(cells: &[Cell], seed: u64) -> (usize, usize) {
    let mut rng = SplitMix::new(seed ^ 0x0AC1_E000);
    let (mut replayed, mut mismatches) = (0, 0);
    for cell in cells {
        let cfg = WorldConfig::paper(cell.kind, cell.m);
        for _ in 0..ORACLE_SAMPLE {
            let init = &cell.configs[rng.below(cell.configs.len() as u64) as usize];
            let fast = cell
                .runner
                .run_all(std::slice::from_ref(init))
                .expect("valid configuration")[0];
            let mut world =
                World::new(&cfg, best_agent(cell.kind), init).expect("valid configuration");
            let reference = run_to_completion(&mut world, cell.runner.t_max());
            replayed += 1;
            if fast != reference {
                mismatches += 1;
            }
        }
    }
    (replayed, mismatches)
}

/// Table 1 agreement for one cell: within 3 % of the paper, or within
/// four standard errors of this configuration set's own mean (at k = 2
/// the sampling error of 1003 configurations alone exceeds 3 %).
fn table1_gate(report: &mut Report, cells: &[Cell]) {
    let half = cells.len() / 2;
    let mut worst = String::new();
    let mut ok = true;
    let mut ratio_ok = true;
    let mut ratios = Vec::new();
    for i in 0..half {
        let (t, s) = (&cells[i], &cells[half + i]);
        for (cell, paper) in [(t, PAPER_TABLE1_T[i]), (s, PAPER_TABLE1_S[i])] {
            let tol = (0.03 * paper).max(4.0 * cell.std_err());
            if (cell.mean() - paper).abs() > tol {
                ok = false;
                worst = format!(
                    "{}{} k={} mean {:.2} vs paper {paper} (tolerance {tol:.2})",
                    cell.grid_char(),
                    cell.m,
                    cell.k,
                    cell.mean()
                );
            }
        }
        let ratio = t.mean() / s.mean();
        let rel_err = ((t.std_err() / t.mean()).powi(2) + (s.std_err() / s.mean()).powi(2)).sqrt();
        let slack = 4.0 * ratio * rel_err;
        ratio_ok &= ratio + slack >= 0.60 && ratio - slack <= 0.72 && t.mean() < s.mean();
        ratios.push(format!("{ratio:.3}"));
    }
    report.check(
        "table1_vs_paper",
        ok,
        if ok {
            "every cell within max(3 %, 4 SE)".to_string()
        } else {
            worst
        },
    );
    report.check(
        "table1_ratio_band",
        ratio_ok,
        format!(
            "T/S = [{}] within [0.60, 0.72] ± 4 SE, T < S",
            ratios.join(", ")
        ),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let workload = args.workload.as_str();
    let exp = experiment(args, SplitMix::new(args.seed).next_u64());
    report.key("grids", "T,S");
    report.key("m", u64::from(exp.m));
    report.key(
        "k",
        exp.agent_counts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    report.key("configs_per_cell", exp.n_random as u64);
    report.key("config_seed", format!("{:016x}", exp.seed));
    report.key("t_max", u64::from(exp.t_max));
    report.key("threads", 1u64);

    // Set-up: configuration sets, compiled runners, one warm-up pass.
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        cells = set_up(&exp);
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.key(
        "configs_per_pass",
        cells.iter().map(|c| c.configs.len()).sum::<usize>() as u64,
    );
    report.e2e(
        "setup_s",
        median(&setups),
        setups.len(),
        "median set-up: config sets, runners, warm-up pass",
    );

    let passes = run_window(&cells, args.seconds, false);
    let runs_per_pass = cells.iter().map(|c| c.configs.len()).sum::<usize>();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let n = passes.len();
    let pass_s = median(&walls);
    let configs_per_s = runs_per_pass as f64 / pass_s;
    report.e2e(
        "configs_per_s",
        configs_per_s,
        n,
        "runs per pass / median pass time",
    );
    report.e2e(
        "job_s",
        pass_s,
        n,
        "median pass time (one pass is the request)",
    );
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.e2e(
        "p50_ms",
        median(&ms),
        n,
        "median pass latency (closed loop: due = sent)",
    );
    let q = supported_quantile(n, 0.99);
    report.e2e(
        "p99_ms",
        quantile(&ms, q),
        n,
        format!("pass latency at q={q:.3} (highest with 10 samples beyond)"),
    );
    report.e2e(
        "goodput_per_s",
        1.0 / pass_s,
        n,
        "passes per second at the median pass time",
    );

    let unsolved: usize = passes.iter().map(|p| p.unsolved).sum();
    let mismatched: usize = passes.iter().map(|p| p.mismatched_cells).sum();
    report.attempted = (n * runs_per_pass) as u64;
    report.failed = unsolved as u64;
    report.check(
        "all_configs_solved",
        unsolved == 0,
        format!("{unsolved} unsolved of {}", report.attempted),
    );
    report.check(
        "passes_identical",
        mismatched == 0,
        format!("{mismatched} cell sums differ from the warm-up pass over {n} passes"),
    );
    if workload == "table1_sweep" && !args.quick {
        table1_gate(report, &cells);
    }
    let (replayed, mismatches) = oracle_mismatches(&cells, exp.seed);
    report.check(
        "oracle_replay",
        mismatches == 0,
        format!("{mismatches} of {replayed} sampled configs differ from the reference World"),
    );

    if args.trace {
        traced(args, report, &cells, &passes, configs_per_s, mismatches);
    }
}

/// The traced window: kernel phase histograms and frontier counters,
/// the attribution ledger and the tracing overhead.
fn traced(
    args: &Args,
    report: &mut Report,
    cells: &[Cell],
    untraced: &[Pass],
    untraced_rate: f64,
    mismatches: usize,
) {
    for (i, cell) in cells.iter().enumerate() {
        let times: Vec<f64> = untraced
            .iter()
            .map(|p| p.cells[i].as_secs_f64() * 1e3)
            .collect();
        report.layer(
            &cell_metric(cell.grid_char(), cell.m, cell.k),
            median(&times),
        );
    }
    report.layer("sim.oracle_mismatches", mismatches as f64);

    let window = Instant::now();
    let (passes, w) = crate::traced(|| run_window(cells, args.seconds, true));
    let wall = window.elapsed().as_secs_f64();

    let run_all: f64 = passes
        .iter()
        .flat_map(|p| &p.cells)
        .map(Duration::as_secs_f64)
        .sum();
    let k = crate::registry_view(&w.before, &w.after);
    let runs_per_pass = cells.iter().map(|c| c.configs.len()).sum::<usize>() as f64;
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.layer("sim.run_all_s", run_all);
    crate::kernel_layers(report, &k, run_all);
    let bytes: f64 = passes
        .iter()
        .flat_map(|p| p.agent_steps.iter().zip(cells))
        .map(|(&steps, c)| steps as f64 * (c.k.div_ceil(64) * 8) as f64)
        .sum();
    report.layer("sim.infoset_bytes", bytes);
    report.layer(
        "bench.trace_overhead_pct",
        (untraced_rate / (runs_per_pass / median(&traced_walls)) - 1.0) * 100.0,
    );

    crate::ledger(
        report,
        wall,
        &[
            ("sim.act", k.act_s),
            ("sim.exchange", k.exchange_s),
            ("sim.run_all.other", run_all - k.act_s - k.exchange_s),
        ],
        "traced window; run_all timed by the harness, act/exchange from \
         kernel.multi.*.ns; residual = harness time outside run_all",
    );
}
