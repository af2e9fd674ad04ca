//! The analytical step: the paper's models at a run's `(B, k, s)`.
//!
//! Two calls into `bt-model`, each under its own span, below a root
//! `model` span (`model_s` itself is timed by the caller in CPU seconds):
//! Monte-Carlo [`Walker`] replications of the 3-D download chain, whose
//! mean phase sojourns give predicted phase boundaries (§3), and the
//! efficiency fixed point for `k = 1..=K_SWEEP` (§5, the loop of
//! `EfficiencyModel::sweep_k`, unrolled here to read each solve's
//! iteration count).

use bt_des::SeedStream;
use bt_model::efficiency::EfficiencyModel;
use bt_model::evolution::Walker;
use bt_model::{ModelParams, PhaseBoundaries};
use bt_swarm::SwarmConfig;

use crate::trace::SharedTracer;

/// Connection caps the efficiency sweep covers.
pub const K_SWEEP: u32 = 10;

/// What the model step predicts, plus the work it did.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Predicted mean phase boundaries, in rounds since joining.
    pub predicted: PhaseBoundaries,
    /// Predicted utilization η at the run's own `k`.
    pub eta_at_k: f64,
    /// Σ steps over all walker trajectories.
    pub walker_steps: u64,
    /// Σ fixed-point iterations over the sweep.
    pub fixed_point_iters: u64,
    /// Wall time of the walker replications, in seconds.
    pub walker_s: f64,
    /// Wall time of the efficiency sweep, in seconds.
    pub efficiency_s: f64,
}

/// Runs the model step for `config` under spans in `tracer`.
///
/// # Panics
///
/// Panics if the scenario's parameters are rejected by the model, which
/// would mean the presets and the model disagree on valid ranges.
#[must_use]
pub fn model_step(config: &SwarmConfig, replications: u32, tracer: &SharedTracer) -> ModelOutcome {
    let root = tracer.borrow_mut().open("model", None);
    let span = tracer.borrow_mut().open("model.walker", Some(root));
    let (predicted, walker_steps) = walk(config, replications);
    let walker_s = tracer.borrow_mut().close(span);
    let span = tracer.borrow_mut().open("model.efficiency", Some(root));
    let (eta_at_k, fixed_point_iters) = sweep(config);
    let efficiency_s = tracer.borrow_mut().close(span);
    tracer.borrow_mut().close(root);
    ModelOutcome {
        predicted,
        eta_at_k,
        walker_steps,
        fixed_point_iters,
        walker_s,
        efficiency_s,
    }
}

fn walk(config: &SwarmConfig, replications: u32) -> (PhaseBoundaries, u64) {
    let params = ModelParams::builder()
        .pieces(config.pieces)
        .max_connections(config.max_connections)
        .neighbor_set_size(config.neighbor_set_size)
        .p_r(config.p_reencounter)
        .build()
        .expect("scenario parameters are valid model parameters");
    let mut walker = Walker::new(
        &params,
        SeedStream::new(config.seed).rng("perfbench-model", 0),
    );
    let mut steps = 0u64;
    let mut sojourns = [0.0f64; 3];
    for _ in 0..replications {
        let trajectory = walker.run();
        steps += trajectory.steps() as u64;
        let s = trajectory.sojourns();
        sojourns[0] += s.bootstrap as f64;
        sojourns[1] += s.efficient as f64;
        sojourns[2] += s.last_download as f64;
    }
    let mean = sojourns.map(|v| v / f64::from(replications.max(1)));
    (PhaseBoundaries::from_mean_sojourns(mean), steps)
}

fn sweep(config: &SwarmConfig) -> (f64, u64) {
    let mut eta_at_k = f64::NAN;
    let mut iterations = 0u64;
    for k in 1..=K_SWEEP.max(config.max_connections) {
        let equilibrium = EfficiencyModel::new(k, config.p_reencounter)
            .and_then(|m| m.solve())
            .expect("scenario parameters are valid efficiency-model parameters");
        iterations += equilibrium.iterations as u64;
        if k == config.max_connections {
            eta_at_k = equilibrium.efficiency;
        }
    }
    (eta_at_k, iterations)
}
