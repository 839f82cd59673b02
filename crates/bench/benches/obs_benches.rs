//! Overhead of the observability layer — the "near-zero when disabled"
//! acceptance gate. Three angles:
//!
//! 1. the `event!` macro with everything off (must be ~a relaxed atomic
//!    load, no allocation),
//! 2. the same event with a `MemorySink` attached (the enabled cost),
//! 3. the instrumented fitness workload (16×16, k = 16) with metrics on
//!    vs. off — the end-to-end regression the issue bounds at < 2%.
//!
//! Level/sink state is process-global, so each benchmark sets it
//! explicitly and the group order keeps the disabled cases first.

use a2a_fsm::best_t_agent;
use a2a_grid::GridKind;
use a2a_obs::{Event, Level, Sink};
use a2a_sim::{BatchRunner, InitialConfig, WorldConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sink that only counts — measures dispatch cost without unbounded
/// accumulation (a `MemorySink` would grow by millions of events here).
#[derive(Debug, Default)]
struct CountingSink(AtomicU64);

impl Sink for CountingSink {
    fn record(&self, event: &Event) {
        black_box(event);
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn verbosity(&self) -> Level {
        Level::Info
    }
}

fn bench_event_macro(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_event");

    a2a_obs::set_level(Level::Off);
    a2a_obs::set_metrics(false);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            a2a_obs::event!(Level::Info, "bench.noop",
                "i" => black_box(42u64), "label" => "payload");
        });
    });

    // Sinks are attached for the process lifetime; later groups turn
    // dispatch back off by resetting the level ceiling.
    a2a_obs::attach_sink(Arc::new(CountingSink::default()));
    group.bench_function("counting_sink", |b| {
        b.iter(|| {
            a2a_obs::event!(Level::Info, "bench.noop",
                "i" => black_box(42u64), "label" => "payload");
        });
    });
    a2a_obs::set_level(Level::Off);

    group.finish();
}

/// Flight-recorder cost, both sides of the gate: `flight::record` with
/// the recorder disabled must stay branch-free-cheap (the acceptance
/// bound is ≤ 1 ns/event — one relaxed load and a predictable branch),
/// and the enabled path must stay in the tens of nanoseconds (interning
/// lookup + four relaxed stores + one release store into the ring).
fn bench_flight(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_flight");

    a2a_obs::flight::disable();
    group.bench_function("record_disabled", |b| {
        b.iter(|| {
            a2a_obs::flight::record(
                a2a_obs::flight::Kind::Event,
                "bench.flight",
                black_box(1),
                black_box(2),
            );
        });
    });

    a2a_obs::flight::set_capacity(1024);
    a2a_obs::flight::enable();
    group.bench_function("record_enabled", |b| {
        b.iter(|| {
            a2a_obs::flight::record(
                a2a_obs::flight::Kind::Event,
                "bench.flight",
                black_box(1),
                black_box(2),
            );
        });
    });
    a2a_obs::flight::disable();

    // The `event!` macro with the level off but the flight recorder on:
    // events keep flowing into the black box with no sink attached.
    a2a_obs::set_level(Level::Off);
    a2a_obs::flight::enable();
    group.bench_function("event_macro_flight_only", |b| {
        b.iter(|| {
            a2a_obs::event!(Level::Info, "bench.noop",
                "i" => black_box(42u64), "label" => "payload");
        });
    });
    a2a_obs::flight::disable();

    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_registry");
    a2a_obs::set_metrics(true);
    let counter = a2a_obs::global().counter("bench.counter");
    let hist = a2a_obs::global().histogram("bench.histogram");
    group.bench_function("counter_incr", |b| b.iter(|| counter.add(black_box(1))));
    group.bench_function("histogram_record", |b| {
        b.iter(|| hist.record(black_box(12345)));
    });
    a2a_obs::set_metrics(false);
    group.finish();
}

/// The acceptance workload: one genome over 32 random 16×16/k=16
/// configurations on the batch kernel, instrumentation off vs. on.
fn bench_instrumented_fitness(c: &mut Criterion) {
    let kind = GridKind::Triangulate;
    let cfg = WorldConfig::paper(kind, 16);
    let mut rng = SmallRng::seed_from_u64(2013);
    let configs: Vec<InitialConfig> = (0..32)
        .map(|_| {
            InitialConfig::random(cfg.lattice, kind, 16, &[], &mut rng)
                .expect("agents fit the field")
        })
        .collect();
    let runner =
        BatchRunner::from_genome(&cfg, best_t_agent(), 200).expect("valid environment");
    let workload = |runner: &BatchRunner, configs: &[InitialConfig]| {
        for init in configs {
            black_box(
                runner.run_all(std::slice::from_ref(black_box(init))).expect("valid placement"),
            );
        }
    };

    let mut group = c.benchmark_group("fitness_16x16_k16_obs");

    a2a_obs::set_level(Level::Off);
    a2a_obs::set_metrics(false);
    group.bench_function("disabled", |b| b.iter(|| workload(&runner, &configs)));

    a2a_obs::set_metrics(true);
    group.bench_function("metrics_on", |b| b.iter(|| workload(&runner, &configs)));
    a2a_obs::set_metrics(false);

    group.finish();
}

criterion_group!(
    benches,
    bench_event_macro,
    bench_flight,
    bench_registry,
    bench_instrumented_fitness
);
criterion_main!(benches);
