/// @file
/// Declarative scenario factory: from hand-built synthetic traces to
/// seeded families of measured worlds (DESIGN.md §11).
///
/// A sim::ScenarioSpec describes one through-wall world declaratively —
/// the room (geometry and wall material via the existing sim::RoomSpec),
/// any number of movers with waypoint, seeded random-walk or speed-ramp
/// mobility models, clutter sources (fans, pets), an optional interferer,
/// and the protocol variant (phy::OfdmModem knobs) — and
/// generate_scenario() turns (spec, seed) into a channel-estimate trace
/// *plus its ground truth*, purely and deterministically: the same
/// (spec, seed) pair always produces a bit-identical trace and truth,
/// SplitMix64-derived per consumer like wivi::fault's fault plans.
///
/// Every mobility model compiles down to the SyntheticMover speed-ramp
/// primitive: a geometric path (waypoints or a random walk inside the
/// room) is reduced to the mover's per-sample radial range r(t) toward
/// the device, whose exact discrete Doppler is what the ISAR emulation
/// measures — so the generated ground-truth angle
/// asin(v_radial / v_assumed) is consistent with the physics the
/// pipeline assumes by construction, not by tuning.
///
/// The evaluation harness on top (sim::Evaluator, tools/eval_scenarios)
/// sweeps families of generated scenarios through wivi::Session and
/// scores tracking/counting accuracy against the generated truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/phy/ofdm.hpp"
#include "src/rf/geometry.hpp"
#include "src/sim/room.hpp"

namespace wivi::sim {

/// @addtogroup wivi_scenario
/// @{

/// How a mover's radial-speed profile is produced.
enum class MobilityModel {
  /// Walk the scripted ScenarioMover::waypoints leg by leg (with per-leg
  /// speed and optional dwell), starting from ScenarioMover::start.
  kWaypoint,
  /// ns-3-style random waypoint walk inside the room interior (seeded;
  /// reuses sim::random_walk, pauses included).
  kRandomWalk,
  /// The geometry-free SyntheticMover primitive: radial speed ramps
  /// linearly from ScenarioMover::start_speed_mps to end_speed_mps.
  kSpeedRamp,
};

/// Human-readable name of a MobilityModel ("waypoint", ...).
[[nodiscard]] const char* to_string(MobilityModel m) noexcept;

/// One leg of a scripted kWaypoint path.
struct PathWaypoint {
  /// Destination of the leg, room coordinates (metres; device at origin).
  rf::Vec2 pos;
  /// Walking speed along the leg (m/s, > 0).
  double speed_mps = 1.0;
  /// Dwell after arriving (seconds, >= 0): the mover stands still — its
  /// radial speed is 0, so it fades into the DC band while paused.
  double pause_sec = 0.0;
};

/// One mover of a scenario: a mobility model plus presence window and
/// reflection amplitude. Movers are the scenario's ground-truth targets.
struct ScenarioMover {
  /// Which mobility model drives the radial-speed profile.
  MobilityModel mobility = MobilityModel::kRandomWalk;

  /// Start position (kWaypoint / kRandomWalk), room coordinates. Must be
  /// inside the room interior.
  rf::Vec2 start{0.0, 2.5};
  /// Scripted legs (kWaypoint only; at least one). Every waypoint must be
  /// inside the room interior.
  std::vector<PathWaypoint> waypoints;

  /// Mean walking speed of the kRandomWalk model (m/s, > 0).
  double walk_speed_mps = 1.0;

  /// kSpeedRamp: radial speed at the first present sample (m/s, positive
  /// = approaching; |v| <= the assumed ISAR speed of 1 m/s).
  double start_speed_mps = 0.6;
  /// kSpeedRamp: radial speed at the last present sample.
  double end_speed_mps = 0.6;

  /// Reflection amplitude relative to the unit reference mover (> 0);
  /// the room's wall material further attenuates it.
  double amplitude = 1.0;
  /// Initial phase offset in radians (decorrelates mover start phases).
  double phase_rad = 0.0;

  /// The mover enters the scene at this time (seconds, >= 0).
  double enter_sec = 0.0;
  /// The mover leaves the scene at this time (seconds, > enter_sec);
  /// infinity = present to the end.
  double exit_sec = std::numeric_limits<double>::infinity();
};

/// Kinds of non-target clutter sources.
enum class ClutterKind {
  /// Oscillating reflector at a fixed position (a fan: small sinusoidal
  /// radial motion at a steady rate).
  kFan,
  /// A small erratic mover (a pet): low-amplitude seeded random walk in a
  /// patch around ClutterSpec::pos.
  kPet,
};

/// Human-readable name of a ClutterKind ("fan", "pet").
[[nodiscard]] const char* to_string(ClutterKind k) noexcept;

/// One clutter source. Clutter contributes to the trace but is *not* part
/// of the ground-truth target set — a tracker that confirms it is scored
/// as a ghost track.
struct ClutterSpec {
  /// What kind of clutter this is.
  ClutterKind kind = ClutterKind::kFan;
  /// Position in room coordinates (fans sit here; pets wander nearby).
  /// Must be inside the room interior.
  rf::Vec2 pos{1.5, 2.5};
  /// Reflection amplitude (> 0; typically well below a human's).
  double amplitude = 0.15;
  /// Oscillation rate of a fan in Hz (> 0; ignored for pets).
  double rate_hz = 3.0;
  /// Radial oscillation extent of a fan in metres (> 0), or the radius of
  /// a pet's wander patch.
  double extent_m = 0.05;
};

/// An in-band interferer: seeded bursts of wideband noise added to the
/// channel-estimate stream (another network transmitting over the
/// measurement). Burst placement is a pure hash of (seed, second slot).
struct InterfererSpec {
  /// Probability that a burst starts within any given second of trace.
  double burst_prob = 0.3;
  /// Duration of one burst (seconds, > 0).
  double burst_sec = 0.5;
  /// Added complex-noise power per sample during a burst (> 0).
  double power = 5e-3;
};

/// Protocol variant: the phy::OfdmModem knobs that shape the estimate
/// stream's noise floor. Wider bandwidth admits more noise per estimate;
/// averaging more pilot subcarriers suppresses it (paper §7.1).
struct ProtocolSpec {
  /// OFDM configuration (bandwidth_hz is the noise-scaling knob).
  phy::OfdmModem::Config ofdm;
  /// Pilot subcarriers averaged per channel estimate (>= 1, and no more
  /// than the modem's used-subcarrier count).
  int num_pilot_bins = 4;
};

/// One complete declarative scenario: everything generate_scenario()
/// needs except the seed. Specs are cheap value types — families are
/// built by copying a base spec and varying fields.
struct ScenarioSpec {
  /// Scenario name (matrix row / test identifier).
  std::string name = "unnamed";
  /// The room: geometry, wall material, furniture clutter level.
  RoomSpec room;
  /// Trace duration in seconds (must cover at least one ISAR window).
  double duration_sec = 10.0;
  /// The ground-truth target movers (may be empty for clutter-only
  /// scenarios, but a scenario must contain at least one signal source).
  std::vector<ScenarioMover> movers;
  /// Non-target clutter sources.
  std::vector<ClutterSpec> clutter;
  /// Optional in-band interferer.
  std::optional<InterfererSpec> interferer;
  /// Protocol variant (noise-floor shaping).
  ProtocolSpec protocol;

  /// Check every invariant (positive dimensions and durations, at least
  /// one signal source, waypoints inside the room interior, speeds within
  /// the ISAR's assumed-speed envelope, valid protocol knobs); throws
  /// InvalidArgument on the first violation.
  void validate() const;

  /// Walkable interior of the room (the same rectangle Scene::interior()
  /// uses: 0.4 m margin off the walls, behind the imaged wall).
  [[nodiscard]] Rect interior() const noexcept;
};

/// Ground truth of one generated mover: its per-sample radial speed over
/// its presence window (the exact discrete Doppler the trace contains).
struct MoverTruth {
  /// First trace sample at which the mover is present.
  std::size_t enter_sample = 0;
  /// One past the last present sample.
  std::size_t exit_sample = 0;
  /// Radial speed per present sample (m/s, positive = approaching);
  /// size == exit_sample - enter_sample.
  RVec radial_speed_mps;
};

/// Ground truth of a generated scenario: per-mover radial-speed profiles
/// (targets only — clutter is deliberately absent) on the trace's sample
/// clock, with angle/count readouts at arbitrary times.
struct GroundTruth {
  /// Per-target truth, in ScenarioSpec::movers order.
  std::vector<MoverTruth> movers;
  /// Sample rate of the truth clock (the trace's channel-estimate rate).
  double sample_rate_hz = 0.0;

  /// True when mover `k` is present at time `t_sec`.
  [[nodiscard]] bool present(std::size_t k, double t_sec) const;
  /// Radial speed of mover `k` at `t_sec` (0 when absent).
  [[nodiscard]] double radial_speed_mps_at(std::size_t k, double t_sec) const;
  /// Ground-truth ISAR angle of mover `k` at `t_sec` in degrees:
  /// asin(v_radial / v_assumed), clamped to [-90, 90]. 0 when absent.
  [[nodiscard]] double angle_deg_at(std::size_t k, double t_sec) const;
  /// Largest number of movers present at once over the whole trace.
  [[nodiscard]] int max_concurrent() const;
};

/// Ground-truth angle for a radial speed: degrees(asin(v / v_assumed)),
/// clamped to the [-90, 90] grid (the §5.1 ISAR angle convention).
[[nodiscard]] double truth_angle_deg(double radial_speed_mps) noexcept;

/// One generated world: the spec and seed that made it, the trace the
/// pipeline consumes, and the ground truth the evaluator scores against.
struct GeneratedScenario {
  /// The generating spec.
  ScenarioSpec spec;
  /// The generating seed.
  std::uint64_t seed = 0;
  /// Channel-estimate stream at sample_rate_hz (what Session::run eats).
  CVec h;
  /// Sample rate of `h` (the 312.5 Hz channel-estimate clock).
  double sample_rate_hz = 0.0;
  /// The scenario's ground truth.
  GroundTruth truth;
};

/// Generate the world (spec, seed) describes. Pure: no global state, no
/// clocks — the same arguments always return a bit-identical
/// GeneratedScenario (trace and truth). Validates the spec first.
/// Independent sub-streams (per-mover walks, noise, interference bursts)
/// are derived from `seed` with SplitMix64, so editing one spec field
/// never reshuffles an unrelated source's draws.
[[nodiscard]] GeneratedScenario generate_scenario(const ScenarioSpec& spec,
                                                  std::uint64_t seed);

/// @}

}  // namespace wivi::sim
