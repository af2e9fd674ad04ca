//! Telemetry probe: drives a small deterministic swarm with the per-round
//! telemetry pipeline attached and prints the engine's entropy and
//! population series plus the observers' detected phase boundaries as
//! TSV.
//!
//! This is the bench-side smoke for the pipeline behind
//! `btlab swarm --telemetry` / `btlab report`: same recorder, same online
//! phase detector, no files involved.

use bt_swarm::{
    InitialPieces, ObserverBoundaries, Swarm, SwarmConfig, TelemetryOptions, TelemetryRecorder,
};

fn main() {
    bt_bench::init_obs();
    let config = SwarmConfig::builder()
        .pieces(60)
        .max_connections(3)
        .neighbor_set_size(8)
        .arrival_rate(0.0)
        .initial_leechers(16)
        .initial_pieces(InitialPieces::Random { count: 1 })
        .observers(4)
        .max_rounds(400)
        .seed(11)
        .build()
        .expect("valid config");
    let mut swarm = Swarm::new(config);
    swarm.attach_telemetry(TelemetryRecorder::new(TelemetryOptions::default()));
    for _ in 0..400 {
        swarm.step_round();
        if swarm.metrics().completions.len() >= 4 {
            break;
        }
    }
    let recorder = swarm.take_telemetry().expect("recorder attached");

    println!("# entropy series (stride 2)");
    println!("round\tentropy\tpopulation");
    let metrics = swarm.metrics();
    for (&(round, e), &(_, p)) in metrics.entropy.iter().zip(&metrics.population) {
        if round.is_multiple_of(2) {
            println!("{round}\t{}\t{p}", bt_bench::cell(e));
        }
    }

    println!();
    println!("# detected observer phase boundaries");
    println!("observer\tbootstrap_end\tefficient_end\tcompletion");
    for peer in 0..4u64 {
        let events: Vec<_> = recorder
            .phase_events()
            .iter()
            .filter(|e| e.peer == peer)
            .copied()
            .collect();
        let Some(b) = ObserverBoundaries::from_events(&events) else {
            continue;
        };
        let col = |v: Option<u64>| v.map_or("-".to_string(), |r| r.to_string());
        println!(
            "{peer}\t{}\t{}\t{}",
            col(b.bootstrap_end),
            col(b.efficient_end),
            col(b.completion)
        );
    }
}
