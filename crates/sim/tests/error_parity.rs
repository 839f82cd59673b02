//! Error parity between the batch kernel and the reference engine: for
//! every way a simulation can be malformed, [`BatchRunner`] reports
//! exactly the [`SimError`] that [`World::with_behaviour`] reports.
//! Environment errors surface when the runner is compiled; placement
//! errors surface from [`BatchRunner::run_all`], for the first failing
//! configuration in batch order — what a serial `World` loop would hit
//! first.

use a2a_fsm::{best_agent, best_t_agent};
use a2a_grid::{Dir, GridKind, Pos};
use a2a_sim::{BatchRunner, Behaviour, ColorInit, InitialConfig, SimError, World, WorldConfig};

fn square() -> WorldConfig {
    WorldConfig::paper(GridKind::Square, 16)
}

fn config(placements: &[(u16, u16, u8)]) -> InitialConfig {
    InitialConfig::new(
        placements
            .iter()
            .map(|&(x, y, d)| (Pos::new(x, y), Dir::new(d)))
            .collect(),
    )
}

/// The oracle's verdict on a batch: the first configuration `World`
/// rejects, in order.
fn oracle_error(cfg: &WorldConfig, behaviour: &Behaviour, inits: &[InitialConfig]) -> SimError {
    inits
        .iter()
        .find_map(|init| World::with_behaviour(cfg, behaviour.clone(), init).err())
        .expect("the case is malformed")
}

/// The kernel's verdict on the same batch: a construction error, or
/// else the error `run_all` returns.
fn kernel_error(cfg: &WorldConfig, behaviour: &Behaviour, inits: &[InitialConfig]) -> SimError {
    match BatchRunner::new(cfg, behaviour, 200) {
        Err(e) => e,
        Ok(runner) => runner.run_all(inits).expect_err("the case is malformed"),
    }
}

#[test]
fn run_all_reports_the_oracles_error() {
    let good = config(&[(1, 1, 0), (4, 4, 2)]);
    let dup = config(&[(2, 2, 0), (2, 2, 1)]);
    let outside = config(&[(0, 0, 0), (99, 0, 0)]);
    let bad_dir = config(&[(0, 0, 7)]);
    let on_obstacle = config(&[(5, 5, 0), (3, 3, 0)]);
    let mut obstacles = square();
    obstacles.obstacles = vec![Pos::new(3, 3)];
    let mut short_pattern = square();
    short_pattern.colors = ColorInit::Pattern(vec![0; 255]);
    let mut wide_colour = square();
    wide_colour.colors = ColorInit::Pattern(vec![7; 256]);
    let mut stray_obstacle = square();
    stray_obstacle.obstacles = vec![Pos::new(16, 2)];
    let s_agent = Behaviour::Single(best_agent(GridKind::Square));

    // A batch long enough to span several lockstep chunks, with the
    // malformed configuration placed late.
    let mut late = vec![good.clone(); 150];
    late[130] = dup.clone();
    late[140] = outside.clone();

    let cases: Vec<(&str, WorldConfig, Behaviour, Vec<InitialConfig>, SimError)> = vec![
        (
            "no agents",
            square(),
            s_agent.clone(),
            vec![config(&[])],
            SimError::NoAgents,
        ),
        (
            "outside the field",
            square(),
            s_agent.clone(),
            vec![outside.clone()],
            SimError::OutsideField(Pos::new(99, 0)),
        ),
        (
            "invalid direction",
            square(),
            s_agent.clone(),
            vec![bad_dir],
            SimError::InvalidDirection {
                index: 7,
                available: 4,
            },
        ),
        (
            "duplicate position",
            square(),
            s_agent.clone(),
            vec![dup.clone()],
            SimError::DuplicatePosition(Pos::new(2, 2)),
        ),
        (
            "on an obstacle",
            obstacles.clone(),
            s_agent.clone(),
            vec![good.clone(), on_obstacle],
            SimError::OnObstacle(Pos::new(3, 3)),
        ),
        (
            "first error in batch order",
            square(),
            s_agent.clone(),
            vec![good.clone(), dup.clone(), outside.clone()],
            SimError::DuplicatePosition(Pos::new(2, 2)),
        ),
        (
            "first error in batch order, reversed",
            square(),
            s_agent.clone(),
            vec![good.clone(), outside, dup],
            SimError::OutsideField(Pos::new(99, 0)),
        ),
        (
            "first error in a later chunk",
            square(),
            s_agent.clone(),
            late,
            SimError::DuplicatePosition(Pos::new(2, 2)),
        ),
        (
            "grid-kind mismatch",
            square(),
            Behaviour::Single(best_t_agent()),
            vec![good.clone()],
            SimError::SpecMismatch(
                "genome drives triangulate agents but the world is square".into(),
            ),
        ),
        (
            "colour pattern of the wrong size",
            short_pattern,
            s_agent.clone(),
            vec![good.clone()],
            SimError::SpecMismatch("colour pattern has 255 cells, field has 256".into()),
        ),
        (
            "colour out of range",
            wide_colour,
            s_agent.clone(),
            vec![good.clone()],
            SimError::SpecMismatch("initial colour 7 exceeds the FSM's 2 colours".into()),
        ),
        (
            "obstacle outside the field",
            stray_obstacle,
            s_agent,
            vec![good],
            SimError::OutsideField(Pos::new(16, 2)),
        ),
    ];
    for (name, cfg, behaviour, inits, expected) in cases {
        let oracle = oracle_error(&cfg, &behaviour, &inits);
        assert_eq!(oracle, expected, "{name}: the oracle's verdict changed");
        assert_eq!(kernel_error(&cfg, &behaviour, &inits), oracle, "{name}");
    }
}
