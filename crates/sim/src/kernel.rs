//! The compiled, configuration-independent half of a simulation: lattice
//! geometry as a flat neighbour table, the validated initial cell image
//! and the behaviour's FSM rows with turn codes pre-resolved to direction
//! deltas. Built once per (environment, behaviour) and shared by every
//! run of a batch.

use crate::behaviour::Behaviour;
use crate::config::{ColorInit, ConflictPolicy, InitStatePolicy, WorldConfig};
use crate::error::SimError;
use a2a_fsm::Genome;
use a2a_grid::{Dir, GridKind, Lattice};

/// Sentinel for "no cell" / "no agent" in the flat index tables.
pub(crate) const NONE: u32 = u32::MAX;

/// One FSM row with the turn code already resolved to a direction delta.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledEntry {
    pub(crate) next_state: u8,
    pub(crate) set_color: u8,
    /// Rotational steps, `turn_set.delta(turn)` precomputed.
    pub(crate) delta: u8,
    pub(crate) mv: bool,
}

/// Everything about a simulation that does not depend on the initial
/// configuration: lattice geometry, obstacles, initial colouring and the
/// compiled behaviour. Immutable and `Sync`, so one environment is shared
/// (via [`std::sync::Arc`]) by every run of a batch.
#[derive(Debug)]
pub(crate) struct KernelEnv {
    pub(crate) kind: GridKind,
    pub(crate) lattice: Lattice,
    pub(crate) conflict: ConflictPolicy,
    pub(crate) init_states: InitStatePolicy,
    pub(crate) n_states: u8,
    pub(crate) n_colors: u8,
    pub(crate) n_dirs: usize,
    /// Flat neighbour table: `fwd[cell * n_dirs + d]` is the cell one step
    /// along direction `d`, or [`NONE`] off a bordered field.
    pub(crate) fwd: Vec<u32>,
    /// Whether any `fwd` entry is [`NONE`] (bordered lattice). Toroidal
    /// fields are fully wrapped, so their exchange gathers skip the
    /// per-neighbour sentinel test entirely.
    pub(crate) has_border: bool,
    /// The empty-field cell image, one byte per cell: bit 0 is the
    /// obstacle bit, bits 1.. the validated initial colour. Every run
    /// starts from a copy of it.
    pub(crate) meta_init: Vec<u8>,
    /// Compiled FSM rows, one table per behaviour phase.
    pub(crate) phases: Vec<Vec<CompiledEntry>>,
}

impl KernelEnv {
    /// Validates the environment exactly as [`crate::World::with_behaviour`]
    /// does and precomputes the flat tables.
    pub(crate) fn new(config: &WorldConfig, behaviour: &Behaviour) -> Result<Self, SimError> {
        if !behaviour.is_consistent() {
            return Err(SimError::SpecMismatch(
                "time-shuffled behaviours need at least one FSM and a common spec".into(),
            ));
        }
        let spec = behaviour.spec();
        if spec.kind() != config.kind {
            return Err(SimError::SpecMismatch(format!(
                "genome drives {} agents but the world is {}",
                spec.kind(),
                config.kind
            )));
        }
        let lattice = config.lattice;
        let n_cells = lattice.len();

        if let Some(&p) = config.obstacles.iter().find(|&&p| !lattice.contains(p)) {
            return Err(SimError::OutsideField(p));
        }
        let colors = match &config.colors {
            ColorInit::AllZero => vec![0u8; n_cells],
            ColorInit::Pattern(pattern) => {
                if pattern.len() != n_cells {
                    return Err(SimError::SpecMismatch(format!(
                        "colour pattern has {} cells, field has {}",
                        pattern.len(),
                        n_cells
                    )));
                }
                pattern.clone()
            }
        };
        if let Some(&c) = colors.iter().find(|&&c| c >= spec.n_colors) {
            return Err(SimError::SpecMismatch(format!(
                "initial colour {c} exceeds the FSM's {} colours",
                spec.n_colors
            )));
        }
        let mut meta_init: Vec<u8> = colors.iter().map(|&c| c << 1).collect();
        for &p in &config.obstacles {
            meta_init[lattice.index_of(p)] |= 1;
        }

        let n_dirs = usize::from(config.kind.dir_count());
        let mut fwd = vec![NONE; n_cells * n_dirs];
        for c in 0..n_cells {
            let p = lattice.pos_at(c);
            for d in 0..n_dirs {
                if let Some(n) = lattice.neighbor(p, config.kind, Dir::new(d as u8)) {
                    fwd[c * n_dirs + d] = lattice.index_of(n) as u32;
                }
            }
        }

        let phases = (0..behaviour.phase_count())
            .map(|t| compile_genome(behaviour.genome_at(t as u32)))
            .collect();
        let has_border = fwd.contains(&NONE);

        Ok(Self {
            kind: config.kind,
            lattice,
            conflict: config.conflict,
            init_states: config.init_states,
            n_states: spec.n_states,
            n_colors: spec.n_colors,
            n_dirs,
            fwd,
            has_border,
            meta_init,
            phases,
        })
    }
}

/// Resolves every genome row to a [`CompiledEntry`].
fn compile_genome(genome: &Genome) -> Vec<CompiledEntry> {
    let spec = genome.spec();
    (0..spec.entry_count())
        .map(|i| {
            let e = genome.entry(i);
            CompiledEntry {
                next_state: e.next_state,
                set_color: e.action.set_color,
                delta: spec.turn_set.delta(e.action.turn),
                mv: e.action.mv,
            }
        })
        .collect()
}

/// All `k`-bit vector words full, honouring the tail mask of the last word.
pub(crate) fn words_complete(words: &[u64], tail_mask: u64) -> bool {
    let n = words.len();
    words[..n - 1].iter().all(|&w| w == u64::MAX) && words[n - 1] == tail_mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialConfig;
    use crate::multi::MultiWorld;
    use a2a_fsm::{best_s_agent, best_t_agent};
    use a2a_grid::Pos;
    use std::sync::Arc;

    fn cfg(kind: GridKind) -> WorldConfig {
        WorldConfig::paper(kind, 16)
    }

    #[test]
    fn rejects_kind_mismatch_and_bad_pattern() {
        assert!(matches!(
            KernelEnv::new(&cfg(GridKind::Square), &Behaviour::Single(best_t_agent())),
            Err(SimError::SpecMismatch(_))
        ));
        let mut config = cfg(GridKind::Square);
        config.colors = ColorInit::Pattern(vec![7u8; 256]);
        assert!(matches!(
            KernelEnv::new(&config, &Behaviour::Single(best_s_agent())),
            Err(SimError::SpecMismatch(_))
        ));
        config.colors = ColorInit::Pattern(vec![0u8; 255]);
        assert!(matches!(
            KernelEnv::new(&config, &Behaviour::Single(best_s_agent())),
            Err(SimError::SpecMismatch(_))
        ));
    }

    #[test]
    fn obstacle_placement_rejected() {
        let mut config = cfg(GridKind::Square);
        config.obstacles = vec![Pos::new(3, 3)];
        let env = KernelEnv::new(&config, &Behaviour::Single(best_s_agent())).unwrap();
        assert_eq!(env.meta_init[config.lattice.index_of(Pos::new(3, 3))] & 1, 1);
        let mut multi = MultiWorld::from_env(Arc::new(env));
        let init = InitialConfig::new(vec![(Pos::new(3, 3), Dir::new(0))]);
        assert!(matches!(multi.load(&[init]), Err(SimError::OnObstacle(_))));
    }

    #[test]
    fn reset_from_replicates_validation_error_order() {
        let config = cfg(GridKind::Square);
        let env = Arc::new(KernelEnv::new(&config, &Behaviour::Single(best_s_agent())).unwrap());
        let ok = InitialConfig::new(vec![(Pos::new(1, 1), Dir::new(0))]);
        let mut world = MultiWorld::from_env(Arc::clone(&env));
        world.load(std::slice::from_ref(&ok)).unwrap();
        let dup = InitialConfig::new(vec![
            (Pos::new(2, 2), Dir::new(0)),
            (Pos::new(2, 2), Dir::new(1)),
        ]);
        assert!(matches!(world.load(&[dup]), Err(SimError::DuplicatePosition(_))));
        assert!(matches!(
            world.load(&[InitialConfig::new(Vec::new())]),
            Err(SimError::NoAgents)
        ));
        assert!(matches!(
            world.load(&[InitialConfig::new(vec![(Pos::new(99, 0), Dir::new(0))])]),
            Err(SimError::OutsideField(_))
        ));
        assert!(matches!(
            world.load(&[InitialConfig::new(vec![(Pos::new(0, 0), Dir::new(7))])]),
            Err(SimError::InvalidDirection { index: 7, available: 4 })
        ));
        // Validation failures leave the world reloadable on the same env.
        world.load(&[ok]).unwrap();
        assert!(world.shares_env(&env));
        assert_eq!(world.run(50)[0].t_comm, Some(0));
    }
}
