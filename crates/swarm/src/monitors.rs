//! The swarm doctor: built-in invariant monitors, sampling harness, and
//! diagnosis-bundle emission.
//!
//! The generic machinery ([`bt_obs::Monitor`], [`bt_obs::MonitorSet`],
//! [`bt_obs::DiagnosisBundle`]) lives in `bt-obs`; this module supplies
//! the swarm-specific half:
//!
//! * [`MonitorSample`] — the state slice captured at the sampling
//!   cadence: audit tallies, piece totals, degrees, the replication
//!   index next to its from-scratch oracle, a window of neighbor views
//!   checked against rebuilds, and per-observer phases;
//! * the built-in monitors — [`PieceConservation`],
//!   [`ReplicationOracle`], [`NeighborViewOracle`], [`EntropyCollapse`]
//!   (one-club detection per Zhu & Hajek, arXiv 1110.2753),
//!   [`PhaseMonotonic`], and [`SlotBalance`];
//! * [`SwarmDoctor`] — the harness the engine drives: a flight recorder
//!   of recent checks, a trailing telemetry window, and the bundle
//!   writer that captures forensic context the moment a check fails;
//! * [`FaultSpec`] — seeded fault injection that deliberately corrupts
//!   the swarm mid-run, proving the monitors fire (and giving
//!   `btlab doctor --inject-fault` its demo).
//!
//! Everything here reads state and makes **zero RNG calls**: attaching a
//! doctor leaves a same-seed run byte-identical (locked in by
//! `crates/swarm/tests/determinism.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use bt_des::FlightRecorder;
use bt_model::{DownloadState, Phase};
use bt_obs::{DiagnosisBundle, Monitor, MonitorReport, MonitorSet, Violation};

use crate::audit::SwarmAudit;
use crate::engine::SwarmCore;
use crate::selection::replication_counts;
use crate::store::first_difference;
use crate::telemetry::TelemetrySample;

/// One observer peer's state inside a [`MonitorSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverPhase {
    /// Observer peer sequence number.
    pub peer: u64,
    /// Pieces the observer holds.
    pub pieces: u32,
    /// Phase the §3 criteria classify it into right now.
    pub phase: Phase,
}

/// At most this many peers' neighbor views are checked against a
/// rebuild per sampled round, so the check's cost does not grow with
/// the population.
pub const VIEW_CHECKS_PER_SAMPLE: usize = 64;

/// A sampled round stops checking views once the checked peers'
/// neighbor lists sum to this many links: a rebuild reads one bitfield
/// per link, so this bounds the check's cost at large neighbor sets
/// (8 peers at the paper's `s = 40`) as well as at large populations.
pub const VIEW_CHECK_LINKS_PER_SAMPLE: usize = 320;

/// One checked peer whose neighbor view differs from its rebuild: the
/// first differing piece and both counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewMismatch {
    /// Peer sequence number.
    pub peer: u64,
    /// First piece whose count differs.
    pub piece: u32,
    /// The maintained count.
    pub kept: u16,
    /// The rebuilt count.
    pub rebuilt: u16,
}

/// The state slice the monitors judge, captured once per sampled round.
///
/// Capturing is a read-only scan — O(population) plus one
/// [`replication_counts`] rebuild for the oracle and a bounded window
/// of neighbor-view rebuilds — and makes no RNG calls.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSample {
    /// Round the sample was taken.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub max_connections: u32,
    /// Total pieces held across all alive peers.
    pub held_total: u64,
    /// Sum of active-connection list lengths (connection endpoints).
    pub degree_sum: u64,
    /// Largest single connection list.
    pub max_degree: u64,
    /// The audit tallies at capture time.
    pub audit: SwarmAudit,
    /// Replication entropy `min(d)/max(d)`.
    pub entropy: f64,
    /// The incrementally maintained replication counts.
    pub replication: Vec<u64>,
    /// The from-scratch rebuild of the same counts (the oracle).
    pub oracle: Vec<u64>,
    /// Observer peers currently alive, with their classified phases.
    pub observers: Vec<ObserverPhase>,
    /// Sequence numbers of the peers whose neighbor view was checked:
    /// a window of alive peers in sequence order, starting at the
    /// doctor's rotating cursor and bounded by
    /// [`VIEW_CHECKS_PER_SAMPLE`] and [`VIEW_CHECK_LINKS_PER_SAMPLE`]
    /// (empty while the views are unbuilt).
    pub views_checked: Vec<u64>,
    /// The checked peers whose view differs from the rebuild.
    pub view_mismatches: Vec<ViewMismatch>,
}

impl MonitorSample {
    /// Captures a sample from the core, checking the neighbor views of
    /// the window of peers from sequence number `view_cursor` on
    /// (wrapping to the first peer).
    #[must_use]
    pub(crate) fn capture(core: &SwarmCore, view_cursor: u64) -> MonitorSample {
        let mut held_total = 0u64;
        let mut degree_sum = 0u64;
        let mut max_degree = 0u64;
        let obs_lo = u64::from(core.config.observe_from);
        let obs_hi = obs_lo + u64::from(core.config.observers);
        let mut observers = Vec::new();
        for &id in core.tracker.peers() {
            let peer = core.store.peer(id);
            held_total += u64::from(peer.have.count());
            let degree = peer.connections.len() as u64;
            degree_sum += degree;
            max_degree = max_degree.max(degree);
            if (obs_lo..obs_hi).contains(&id.seq()) {
                let pieces_held = peer.have.count();
                let connections = peer.connections.len() as u32;
                let potential = core.potential_size(id);
                let state = DownloadState::new(connections, pieces_held, potential);
                observers.push(ObserverPhase {
                    peer: id.seq(),
                    pieces: pieces_held,
                    phase: Phase::classify(state, core.config.pieces),
                });
            }
        }
        let oracle = replication_counts(
            core.config.pieces,
            core.tracker.peers().iter().map(|&id| &core.store.peer(id).have),
        );
        let mut views_checked = Vec::new();
        let mut view_mismatches = Vec::new();
        if core.store.views_live() {
            let peers = core.tracker.peers();
            let start = peers.partition_point(|id| id.seq() < view_cursor);
            let window = peers[start..]
                .iter()
                .chain(&peers[..start])
                .take(VIEW_CHECKS_PER_SAMPLE);
            let mut rebuilt = vec![0u16; core.config.pieces as usize];
            let mut links = 0;
            for &id in window {
                if links >= VIEW_CHECK_LINKS_PER_SAMPLE {
                    break;
                }
                links += core.store.peer(id).neighbors.len();
                core.store.rebuild_view_into(id, &mut rebuilt);
                views_checked.push(id.seq());
                if let Some((piece, kept, rebuilt)) =
                    first_difference(core.store.view(id), &rebuilt)
                {
                    view_mismatches.push(ViewMismatch {
                        peer: id.seq(),
                        piece,
                        kept,
                        rebuilt,
                    });
                }
            }
        }
        MonitorSample {
            round: core.round,
            population: core.tracker.len() as u64,
            pieces: core.config.pieces,
            max_connections: core.config.max_connections,
            held_total,
            degree_sum,
            max_degree,
            audit: core.audit,
            entropy: core.replication.entropy(),
            replication: core.replication.counts().to_vec(),
            oracle,
            observers,
            views_checked,
            view_mismatches,
        }
    }
}

fn violation(monitor: &'static str, sample: &MonitorSample, detail: String) -> Violation {
    Violation {
        monitor: monitor.to_string(),
        round: sample.round,
        detail,
        subjects: Vec::new(),
    }
}

/// Pieces held must equal pieces granted minus pieces carried away —
/// the audit identity every legitimate mutation path preserves. A piece
/// that appears in a bitfield without passing through
/// [`SwarmCore::acquire_piece`] / [`SwarmCore::receive_block`] (or
/// vanishes without a departure) breaks it.
#[derive(Debug, Default)]
pub struct PieceConservation;

impl Monitor<MonitorSample> for PieceConservation {
    fn name(&self) -> &'static str {
        "piece-conservation"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let expected = sample.audit.expected_held();
        if sample.held_total == expected {
            return Vec::new();
        }
        vec![violation(
            self.name(),
            sample,
            format!(
                "peers hold {} pieces but the audit accounts for {} \
                 (acquired {} − departed {})",
                sample.held_total,
                expected,
                sample.audit.pieces_acquired,
                sample.audit.pieces_departed
            ),
        )]
    }
}

/// The incrementally maintained [`crate::ReplicationIndex`] must agree
/// with a from-scratch rebuild over all alive bitfields (its
/// property-test oracle, checked continuously at runtime).
#[derive(Debug, Default)]
pub struct ReplicationOracle;

impl Monitor<MonitorSample> for ReplicationOracle {
    fn name(&self) -> &'static str {
        "replication-oracle"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        if sample.replication == sample.oracle {
            return Vec::new();
        }
        let divergent: Vec<u64> = sample
            .replication
            .iter()
            .zip(&sample.oracle)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(p, _)| p as u64)
            .take(8)
            .collect();
        let first = divergent.first().copied().unwrap_or(0) as usize;
        let mut v = violation(
            self.name(),
            sample,
            format!(
                "replication index diverged from the rebuild on {} piece(s); \
                 first: piece {} has index {} vs oracle {}",
                sample
                    .replication
                    .iter()
                    .zip(&sample.oracle)
                    .filter(|(a, b)| a != b)
                    .count(),
                first,
                sample.replication.get(first).copied().unwrap_or(0),
                sample.oracle.get(first).copied().unwrap_or(0),
            ),
        );
        v.subjects = divergent;
        vec![v]
    }
}

/// Every peer's incrementally maintained neighbor view
/// ([`crate::store::PeerStore::view`]) must agree with a from-scratch
/// rebuild over its neighbors' bitfields. Each sampled round checks a
/// rotating window of at most [`VIEW_CHECKS_PER_SAMPLE`] peers and
/// [`VIEW_CHECK_LINKS_PER_SAMPLE`] links, so the doctor's cost stays
/// bounded at any population and neighbor-set size.
#[derive(Debug, Default)]
pub struct NeighborViewOracle;

impl Monitor<MonitorSample> for NeighborViewOracle {
    fn name(&self) -> &'static str {
        "neighbor-view-oracle"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let Some(first) = sample.view_mismatches.first() else {
            return Vec::new();
        };
        let mut v = violation(
            self.name(),
            sample,
            format!(
                "{} of {} checked neighbor views diverged from the rebuild; \
                 first: peer {} piece {} has {} vs rebuilt {}",
                sample.view_mismatches.len(),
                sample.views_checked.len(),
                first.peer,
                first.piece,
                first.kept,
                first.rebuilt,
            ),
        );
        v.subjects = sample
            .view_mismatches
            .iter()
            .map(|m| m.peer)
            .take(8)
            .collect();
        vec![v]
    }
}

/// Entropy floor / one-club detection (Zhu & Hajek, arXiv 1110.2753):
/// once the swarm has been healthy, replication entropy `min(d)/max(d)`
/// dropping below the floor with a non-trivial population means
/// availability mass has collapsed onto one piece set. Fires once per
/// collapse episode, re-arming when entropy recovers.
#[derive(Debug)]
pub struct EntropyCollapse {
    /// Entropy below this value counts as collapsed.
    pub floor: f64,
    /// Populations below this are ignored (endgame noise).
    pub min_population: u64,
    seen_healthy: bool,
    in_violation: bool,
}

impl EntropyCollapse {
    /// A detector with the given floor and population threshold.
    #[must_use]
    pub fn new(floor: f64, min_population: u64) -> Self {
        EntropyCollapse {
            floor,
            min_population,
            seen_healthy: false,
            in_violation: false,
        }
    }
}

impl Monitor<MonitorSample> for EntropyCollapse {
    fn name(&self) -> &'static str {
        "entropy-collapse"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        if sample.population < self.min_population {
            return Vec::new();
        }
        if sample.entropy >= self.floor {
            self.seen_healthy = true;
            self.in_violation = false;
            return Vec::new();
        }
        // Below the floor. Startup skew (before the swarm was ever
        // healthy) is expected — §6's skewed-start experiments begin
        // there deliberately.
        if !self.seen_healthy || self.in_violation {
            return Vec::new();
        }
        self.in_violation = true;
        vec![violation(
            self.name(),
            sample,
            format!(
                "entropy {:.4} fell below floor {:.4} at population {} \
                 (one-club collapse)",
                sample.entropy, self.floor, sample.population
            ),
        )]
    }
}

/// Tracked history of one observer for [`PhaseMonotonic`].
#[derive(Debug, Clone, Copy)]
struct ObserverTrack {
    last_pieces: u32,
    left_bootstrap: bool,
}

/// Observer downloads must progress monotonically: pieces held never
/// decrease, and once an observer has left the bootstrap phase it must
/// not be classified as bootstrap again (steady-state must not regress
/// to flash-crowd). Oscillation between the efficient and last-download
/// phases is legitimate — the potential set can refill when new peers
/// arrive — so it is deliberately not flagged.
#[derive(Debug, Default)]
pub struct PhaseMonotonic {
    tracks: BTreeMap<u64, ObserverTrack>,
}

impl Monitor<MonitorSample> for PhaseMonotonic {
    fn name(&self) -> &'static str {
        "phase-monotonic"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let name = self.name();
        let mut violations = Vec::new();
        for obs in &sample.observers {
            let track = self.tracks.entry(obs.peer).or_insert(ObserverTrack {
                last_pieces: obs.pieces,
                left_bootstrap: false,
            });
            if obs.pieces < track.last_pieces {
                let mut v = violation(
                    name,
                    sample,
                    format!(
                        "observer {} lost pieces: {} -> {}",
                        obs.peer, track.last_pieces, obs.pieces
                    ),
                );
                v.subjects = vec![obs.peer];
                violations.push(v);
            }
            track.last_pieces = track.last_pieces.max(obs.pieces);
            if obs.phase == Phase::Bootstrap {
                if track.left_bootstrap {
                    let mut v = violation(
                        name,
                        sample,
                        format!(
                            "observer {} regressed to the bootstrap phase \
                             with {} pieces",
                            obs.peer, obs.pieces
                        ),
                    );
                    v.subjects = vec![obs.peer];
                    violations.push(v);
                }
            } else {
                track.left_bootstrap = true;
            }
        }
        violations
    }
}

/// Connection-slot accounting must balance: the sum of connection-list
/// lengths equals twice the audit's net open pairs (every pair
/// contributes two endpoints), and no list exceeds the cap `k`. A
/// half-open connection (one side pushed without the reciprocal) shows
/// up as an odd endpoint imbalance.
#[derive(Debug, Default)]
pub struct SlotBalance;

impl Monitor<MonitorSample> for SlotBalance {
    fn name(&self) -> &'static str {
        "slot-balance"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let mut violations = Vec::new();
        let expected = 2 * sample.audit.expected_connections();
        if sample.degree_sum != expected {
            violations.push(violation(
                self.name(),
                sample,
                format!(
                    "connection endpoints {} != 2 × (opened {} − closed {}) = {}",
                    sample.degree_sum,
                    sample.audit.conn_opened,
                    sample.audit.conn_closed,
                    expected
                ),
            ));
        }
        if sample.max_degree > u64::from(sample.max_connections) {
            violations.push(violation(
                self.name(),
                sample,
                format!(
                    "a peer holds {} connections, exceeding the cap k = {}",
                    sample.max_degree, sample.max_connections
                ),
            ));
        }
        violations
    }
}

/// The standard monitor battery with the given entropy thresholds.
#[must_use]
pub fn default_monitors(entropy_floor: f64, entropy_min_population: u64) -> MonitorSet<MonitorSample> {
    let mut set = MonitorSet::new();
    set.push(Box::new(PieceConservation));
    set.push(Box::new(ReplicationOracle));
    set.push(Box::new(NeighborViewOracle));
    set.push(Box::new(EntropyCollapse::new(
        entropy_floor,
        entropy_min_population,
    )));
    set.push(Box::new(PhaseMonotonic::default()));
    set.push(Box::new(SlotBalance));
    set
}

/// Configuration of a [`SwarmDoctor`].
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorOptions {
    /// Check every `cadence`-th round (zero is normalized to 1).
    pub cadence: u64,
    /// Entropy floor for [`EntropyCollapse`].
    pub entropy_floor: f64,
    /// Minimum population for entropy checks.
    pub entropy_min_population: u64,
    /// Ring capacity of the per-check flight recorder.
    pub flight_capacity: usize,
    /// Trailing telemetry samples retained for the bundle.
    pub trail_capacity: usize,
    /// Where diagnosis bundles land (`<root>/diagnosis-<run_id>/`);
    /// `None` disables bundle emission.
    pub bundle_root: Option<PathBuf>,
    /// Stable identifier of this run, used in the bundle directory name.
    pub run_id: String,
}

impl Default for DoctorOptions {
    fn default() -> Self {
        DoctorOptions {
            cadence: 8,
            entropy_floor: 0.02,
            entropy_min_population: 16,
            flight_capacity: 64,
            trail_capacity: 32,
            bundle_root: None,
            run_id: "run".to_string(),
        }
    }
}

/// One per-check event retained by the doctor's flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoctorFlightEvent {
    /// Round of the check.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Replication entropy.
    pub entropy: f64,
    /// Total pieces held.
    pub held_total: u64,
    /// Connection endpoints.
    pub degree_sum: u64,
}

/// One peer's state in the bundle's peer slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerSliceEntry {
    /// Peer sequence number.
    pub seq: u64,
    /// Round the peer joined.
    pub joined_round: u64,
    /// Pieces held.
    pub pieces: u32,
    /// Completion fraction.
    pub completion: f64,
    /// Neighbor count.
    pub neighbors: u64,
    /// Active connections.
    pub connections: u64,
    /// Whether the peer has shaken (§7.1).
    pub shaken: bool,
    /// Whether the peer is bandwidth-limited.
    pub slow: bool,
}

/// The `meta.json` document of a diagnosis bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Monitor schema version.
    pub schema_version: u32,
    /// Run identifier (the bundle directory suffix).
    pub run_id: String,
    /// Round of the first violating check.
    pub round: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub max_connections: u32,
    /// Population at capture.
    pub population: u64,
    /// Active pipeline stage names.
    pub pipeline: Vec<String>,
    /// Monitors that were running.
    pub monitors: Vec<String>,
    /// The violations that triggered the bundle.
    pub violations: Vec<Violation>,
    /// Audit tallies at capture.
    pub audit: SwarmAudit,
}

/// Context the engine hands the doctor when a bundle must be emitted:
/// everything the monitors cannot see from the sample alone.
#[derive(Debug)]
pub(crate) struct BundleContext {
    pub seed: u64,
    pub pipeline: Vec<String>,
    pub peers: Vec<PeerSliceEntry>,
    pub profile: Option<bt_obs::ProfileReport>,
}

/// The outcome of a doctored run.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Monitors that ran, in check order.
    pub monitors: Vec<String>,
    /// The accumulated check/violation record.
    pub report: MonitorReport,
    /// Directory of the diagnosis bundle, when one was written.
    pub bundle_dir: Option<PathBuf>,
}

impl DoctorReport {
    /// Whether no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// The runtime harness the engine drives: monitors plus the forensic
/// capture machinery (flight recorder, trailing telemetry, bundles).
pub struct SwarmDoctor {
    options: DoctorOptions,
    set: MonitorSet<MonitorSample>,
    flight: FlightRecorder<DoctorFlightEvent>,
    trail: VecDeque<TelemetrySample>,
    bundle_dir: Option<PathBuf>,
    /// Sequence number the next neighbor-view window starts from.
    view_cursor: u64,
}

impl std::fmt::Debug for SwarmDoctor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmDoctor")
            .field("options", &self.options)
            .field("monitors", &self.set.names())
            .field("bundle_dir", &self.bundle_dir)
            .finish_non_exhaustive()
    }
}

impl SwarmDoctor {
    /// A doctor running the standard battery under the given options.
    #[must_use]
    pub fn new(mut options: DoctorOptions) -> Self {
        if options.cadence == 0 {
            options.cadence = 1;
        }
        let set = default_monitors(options.entropy_floor, options.entropy_min_population);
        let flight = FlightRecorder::new(options.flight_capacity);
        SwarmDoctor {
            set,
            flight,
            trail: VecDeque::new(),
            bundle_dir: None,
            view_cursor: 0,
            options,
        }
    }

    /// The sampling options.
    #[must_use]
    pub fn options(&self) -> &DoctorOptions {
        &self.options
    }

    /// Sequence number the next sample's neighbor-view window starts
    /// from; it advances past each checked window.
    #[must_use]
    pub(crate) fn view_cursor(&self) -> u64 {
        self.view_cursor
    }

    /// Whether `round` is a sampled round.
    #[must_use]
    pub fn due(&self, round: u64) -> bool {
        round.is_multiple_of(self.options.cadence)
    }

    /// Feeds one sampled round through the monitors, returning the fresh
    /// violations. Records the flight event and the trailing telemetry
    /// window as a side effect.
    pub(crate) fn observe(
        &mut self,
        sample: &MonitorSample,
        telemetry: TelemetrySample,
    ) -> Vec<Violation> {
        self.flight.record(DoctorFlightEvent {
            round: sample.round,
            population: sample.population,
            entropy: sample.entropy,
            held_total: sample.held_total,
            degree_sum: sample.degree_sum,
        });
        if self.trail.len() == self.options.trail_capacity.max(1) {
            self.trail.pop_front();
        }
        self.trail.push_back(telemetry);
        if let Some(&last) = sample.views_checked.last() {
            self.view_cursor = last + 1;
        }
        self.set.check(sample)
    }

    /// Whether a diagnosis bundle was already written this run.
    #[must_use]
    pub fn bundle_written(&self) -> bool {
        self.bundle_dir.is_some()
    }

    /// Writes the diagnosis bundle for the first violating check:
    /// `meta.json`, `flight.json`, `telemetry.jsonl`, `peers.json`, and
    /// (when profiling is attached) `profile.json`.
    pub(crate) fn emit_bundle(
        &mut self,
        sample: &MonitorSample,
        violations: &[Violation],
        context: &BundleContext,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(root) = self.options.bundle_root.clone() else {
            return Ok(None);
        };
        let bundle = DiagnosisBundle::create(&root, &self.options.run_id)?;
        let reason = violations
            .first()
            .map_or_else(|| "violation".to_string(), |v| v.monitor.clone());
        let dump = self
            .flight
            .trigger(sample.round, &reason)
            .map(|d| FlightDumpDoc {
                reason: d.reason,
                round: d.tick,
                recorded: d.recorded,
                events: d.events,
            })
            .unwrap_or_else(|| FlightDumpDoc {
                reason,
                round: sample.round,
                recorded: 0,
                events: Vec::new(),
            });
        let meta = BundleMeta {
            schema_version: bt_obs::MONITOR_SCHEMA_VERSION,
            run_id: self.options.run_id.clone(),
            round: sample.round,
            seed: context.seed,
            pieces: sample.pieces,
            max_connections: sample.max_connections,
            population: sample.population,
            pipeline: context.pipeline.clone(),
            monitors: self.set.names().iter().map(|n| (*n).to_string()).collect(),
            violations: self.set.report().violations.clone(),
            audit: sample.audit,
        };
        bundle.write_json("meta.json", &meta)?;
        bundle.write_json("flight.json", &dump)?;
        let trail: Vec<&TelemetrySample> = self.trail.iter().collect();
        bundle.write_jsonl("telemetry.jsonl", &trail)?;
        bundle.write_json("peers.json", &context.peers)?;
        if let Some(profile) = &context.profile {
            bundle.write_json("profile.json", profile)?;
        }
        self.bundle_dir = Some(bundle.dir().to_path_buf());
        Ok(self.bundle_dir.clone())
    }

    /// Consumes the doctor, yielding the run's report.
    #[must_use]
    pub fn finish(self) -> DoctorReport {
        DoctorReport {
            monitors: self.set.names().iter().map(|n| (*n).to_string()).collect(),
            report: self.set.into_report(),
            bundle_dir: self.bundle_dir,
        }
    }
}

/// The `flight.json` document: the recorder dump with doctor naming.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlightDumpDoc {
    reason: String,
    round: u64,
    recorded: u64,
    events: Vec<DoctorFlightEvent>,
}

/// The kinds of deliberate corruption [`FaultSpec`] can inject.
///
/// Each targets a specific invariant so the seeded-fault tests can prove
/// every built-in monitor actually fires:
///
/// * [`FaultKind::UnaccountedPiece`] sets a bitfield bit directly,
///   bypassing both the replication index and the audit —
///   `piece-conservation` and `replication-oracle` fire;
/// * [`FaultKind::IndexDrift`] bumps the replication index without any
///   matching grant — only `replication-oracle` fires;
/// * [`FaultKind::ViewDrift`] bumps one neighbor-view entry without any
///   matching link or possession — only `neighbor-view-oracle` fires;
/// * [`FaultKind::HalfOpenConnection`] pushes a one-sided connection —
///   `slot-balance` fires on the odd endpoint imbalance.
///
/// `unaccounted-piece` also bypasses the neighbor views, so
/// `neighbor-view-oracle` fires with it once a neighbor of the target
/// is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Grant a peer a piece behind the engine's back.
    UnaccountedPiece,
    /// Bump the replication index with no matching possession.
    IndexDrift,
    /// Bump one neighbor-view entry with no matching link or possession.
    ViewDrift,
    /// Open a connection on one side only.
    HalfOpenConnection,
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unaccounted-piece" => Ok(FaultKind::UnaccountedPiece),
            "index-drift" => Ok(FaultKind::IndexDrift),
            "view-drift" => Ok(FaultKind::ViewDrift),
            "half-open-connection" => Ok(FaultKind::HalfOpenConnection),
            other => Err(format!(
                "unknown fault kind `{other}`; use unaccounted-piece, \
                 index-drift, view-drift, or half-open-connection"
            )),
        }
    }
}

/// A scheduled fault: corrupt the swarm at the end of `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Round after whose stages the fault is applied.
    pub round: u64,
    /// What to corrupt.
    pub kind: FaultKind,
}

/// Builds the bundle's peer slice: the violation subjects first, then
/// alive peers in join order up to `cap` entries.
pub(crate) fn peer_slice(
    core: &SwarmCore,
    subjects: &[u64],
    cap: usize,
) -> Vec<PeerSliceEntry> {
    let mut seqs: Vec<u64> = Vec::new();
    for &s in subjects {
        if !seqs.contains(&s) {
            seqs.push(s);
        }
    }
    for &id in core.tracker.peers() {
        if seqs.len() >= cap {
            break;
        }
        if !seqs.contains(&id.seq()) {
            seqs.push(id.seq());
        }
    }
    let mut out = Vec::new();
    for &id in core.tracker.peers() {
        if !seqs.contains(&id.seq()) {
            continue;
        }
        let peer = core.store.peer(id);
        out.push(PeerSliceEntry {
            seq: id.seq(),
            joined_round: peer.joined_round,
            pieces: peer.have.count(),
            completion: peer.completion(),
            neighbors: peer.neighbors.len() as u64,
            connections: peer.connections.len() as u64,
            shaken: peer.shaken,
            slow: peer.slow,
        });
        if out.len() >= cap {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> MonitorSample {
        MonitorSample {
            round,
            population: 20,
            pieces: 10,
            max_connections: 3,
            held_total: 0,
            degree_sum: 0,
            max_degree: 0,
            audit: SwarmAudit::default(),
            entropy: 1.0,
            replication: vec![0; 10],
            oracle: vec![0; 10],
            observers: Vec::new(),
            views_checked: vec![1, 2, 3],
            view_mismatches: Vec::new(),
        }
    }

    #[test]
    fn conservation_fires_on_unaccounted_pieces() {
        let mut m = PieceConservation;
        let mut s = sample(8);
        s.held_total = 5;
        s.audit.pieces_acquired = 5;
        assert!(m.check(&s).is_empty());
        s.held_total = 6;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].monitor, "piece-conservation");
        assert!(v[0].detail.contains("hold 6"), "{}", v[0].detail);
    }

    #[test]
    fn oracle_fires_on_divergence_with_subjects() {
        let mut m = ReplicationOracle;
        let mut s = sample(8);
        assert!(m.check(&s).is_empty());
        s.replication[3] = 7;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].subjects, vec![3]);
        assert!(v[0].detail.contains("piece 3"), "{}", v[0].detail);
    }

    #[test]
    fn view_oracle_fires_on_mismatch_with_subjects() {
        let mut m = NeighborViewOracle;
        let mut s = sample(8);
        assert!(m.check(&s).is_empty());
        s.view_mismatches.push(ViewMismatch {
            peer: 2,
            piece: 5,
            kept: 4,
            rebuilt: 3,
        });
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].monitor, "neighbor-view-oracle");
        assert_eq!(v[0].subjects, vec![2]);
        assert!(v[0].detail.contains("1 of 3 checked"), "{}", v[0].detail);
        assert!(
            v[0].detail.contains("piece 5 has 4 vs rebuilt 3"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn entropy_latches_healthy_then_fires_once_per_episode() {
        let mut m = EntropyCollapse::new(0.1, 10);
        // Startup skew: below floor before ever being healthy — ignored.
        let mut s = sample(0);
        s.entropy = 0.01;
        assert!(m.check(&s).is_empty());
        // Healthy arms the latch.
        s.entropy = 0.8;
        assert!(m.check(&s).is_empty());
        // Collapse fires exactly once for the episode.
        s.entropy = 0.01;
        assert_eq!(m.check(&s).len(), 1);
        assert!(m.check(&s).is_empty(), "episode already reported");
        // Recovery re-arms; the next collapse is a fresh episode.
        s.entropy = 0.5;
        assert!(m.check(&s).is_empty());
        s.entropy = 0.0;
        assert_eq!(m.check(&s).len(), 1);
        // Tiny populations are ignored entirely.
        s.population = 3;
        s.entropy = 0.0;
        assert!(m.check(&s).is_empty());
    }

    #[test]
    fn phase_monotonic_allows_efficient_lastdownload_oscillation() {
        let mut m = PhaseMonotonic::default();
        let mut s = sample(8);
        s.observers = vec![ObserverPhase {
            peer: 4,
            pieces: 3,
            phase: Phase::Efficient,
        }];
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::LastDownload;
        s.observers[0].pieces = 5;
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::Efficient;
        s.observers[0].pieces = 6;
        assert!(
            m.check(&s).is_empty(),
            "last-download -> efficient is legitimate (potential refill)"
        );
    }

    #[test]
    fn phase_monotonic_fires_on_bootstrap_regression_and_piece_loss() {
        let mut m = PhaseMonotonic::default();
        let mut s = sample(8);
        s.observers = vec![ObserverPhase {
            peer: 4,
            pieces: 5,
            phase: Phase::Efficient,
        }];
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::Bootstrap;
        s.observers[0].pieces = 5;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("regressed"), "{}", v[0].detail);
        s.observers[0].phase = Phase::Efficient;
        s.observers[0].pieces = 2;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("lost pieces"), "{}", v[0].detail);
    }

    #[test]
    fn slot_balance_fires_on_imbalance_and_cap_breach() {
        let mut m = SlotBalance;
        let mut s = sample(8);
        s.audit.conn_opened = 4;
        s.audit.conn_closed = 1;
        s.degree_sum = 6;
        s.max_degree = 3;
        assert!(m.check(&s).is_empty());
        s.degree_sum = 7;
        assert_eq!(m.check(&s).len(), 1, "odd endpoint imbalance");
        s.degree_sum = 6;
        s.max_degree = 4;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("cap"), "{}", v[0].detail);
    }

    #[test]
    fn default_battery_names() {
        let set = default_monitors(0.02, 16);
        assert_eq!(
            set.names(),
            vec![
                "piece-conservation",
                "replication-oracle",
                "neighbor-view-oracle",
                "entropy-collapse",
                "phase-monotonic",
                "slot-balance"
            ]
        );
    }

    #[test]
    fn fault_kind_parses() {
        assert_eq!(
            "unaccounted-piece".parse::<FaultKind>().unwrap(),
            FaultKind::UnaccountedPiece
        );
        assert_eq!(
            "index-drift".parse::<FaultKind>().unwrap(),
            FaultKind::IndexDrift
        );
        assert_eq!(
            "view-drift".parse::<FaultKind>().unwrap(),
            FaultKind::ViewDrift
        );
        assert_eq!(
            "half-open-connection".parse::<FaultKind>().unwrap(),
            FaultKind::HalfOpenConnection
        );
        assert!("bogus".parse::<FaultKind>().is_err());
    }

    #[test]
    fn doctor_cadence_normalized_and_due() {
        let doctor = SwarmDoctor::new(DoctorOptions {
            cadence: 0,
            ..DoctorOptions::default()
        });
        assert!(doctor.due(1));
        let doctor = SwarmDoctor::new(DoctorOptions {
            cadence: 4,
            ..DoctorOptions::default()
        });
        assert!(doctor.due(8));
        assert!(!doctor.due(9));
    }
}
