#include "src/sim/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/rf/materials.hpp"
#include "src/sim/calibration.hpp"
#include "src/sim/human.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi::sim {

namespace {

// Per-consumer salts: every random sub-stream of a scenario (each mover's
// walk, each clutter source, the noise floor, the interference plan) is
// seeded by an independent SplitMix64-derived key, so editing one spec
// field never reshuffles an unrelated source's draws (the same discipline
// wivi::fault uses for its fault plans).
constexpr std::uint64_t kSaltMover = 0x30E5;
constexpr std::uint64_t kSaltClutter = 0xC1A7;
constexpr std::uint64_t kSaltNoise = 0xA015;
constexpr std::uint64_t kSaltIntf = 0x1F7E;
constexpr std::uint64_t kSaltIntfPos = 0x1F7F;
constexpr std::uint64_t kSaltIntfNoise = 0x1F80;

/// SplitMix64 finaliser: the stateless hash behind every seed derivation.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t index) noexcept {
  return mix(seed ^ mix(index ^ (salt * 0x2545F4914F6CDD1Dull)));
}

/// Uniform [0, 1) from a derived key (53 mantissa bits).
double hash_u01(std::uint64_t seed, std::uint64_t salt,
                std::uint64_t index) noexcept {
  return static_cast<double>(sub_seed(seed, salt, index) >> 11) * 0x1.0p-53;
}

/// Walking speed of a kPet clutter source (small erratic mover).
constexpr double kPetSpeedMps = 0.6;

/// Presence window of a mover in samples over an n-sample trace.
struct Window {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

Window presence_window(const ScenarioMover& m, std::size_t n, double rate) {
  Window w;
  w.begin = static_cast<std::size_t>(std::llround(m.enter_sec * rate));
  w.end = std::isinf(m.exit_sec)
              ? n
              : std::min<std::size_t>(
                    n, static_cast<std::size_t>(std::llround(m.exit_sec * rate)));
  w.begin = std::min(w.begin, w.end);
  return w;
}

/// Sample a scripted waypoint path at the channel clock: walk the legs at
/// their speeds, dwell at arrival pauses, stand at the final waypoint once
/// the path is exhausted.
std::vector<rf::Vec2> waypoint_path(const ScenarioMover& m, std::size_t np,
                                    double dt) {
  std::vector<rf::Vec2> pts;
  pts.reserve(np);
  rf::Vec2 cur = m.start;
  std::size_t wp = 0;
  double pause_left = 0.0;
  for (std::size_t i = 0; i < np; ++i) {
    pts.push_back(cur);
    double step_left = dt;
    while (step_left > 0.0) {
      if (pause_left > 0.0) {
        const double d = std::min(pause_left, step_left);
        pause_left -= d;
        step_left -= d;
        continue;
      }
      if (wp >= m.waypoints.size()) break;  // path done: stand still
      const PathWaypoint& w = m.waypoints[wp];
      const rf::Vec2 delta = w.pos - cur;
      const double dist = delta.norm();
      const double need = dist / w.speed_mps;
      if (need <= step_left) {
        cur = w.pos;
        step_left -= need;
        pause_left = w.pause_sec;
        ++wp;
      } else {
        cur = cur + delta * (w.speed_mps * step_left / dist);
        step_left = 0.0;
      }
    }
  }
  return pts;
}

/// Add a geometric source to the trace from its per-sample range r[i]
/// toward the device, and (optionally) record its ground-truth radial
/// speed. The phase is exactly the round-trip path length: the mobility
/// model is thereby "compiled down" to the same discrete Doppler the
/// SyntheticMover speed-ramp primitive integrates.
void add_range_source(CVec& h, const Window& w, RSpan r, double amplitude,
                      double phase0, const core::IsarConfig& isar,
                      RVec* truth_speed) {
  const double c = kTwoPi * 2.0 / isar.wavelength_m;
  const double rate = 1.0 / isar.sample_period_sec;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double p = phase0 + c * (r[0] - r[i]);
    h[w.begin + i] += amplitude * cdouble{std::cos(p), std::sin(p)};
  }
  if (truth_speed == nullptr) return;
  truth_speed->resize(w.size());
  for (std::size_t i = 1; i < w.size(); ++i)
    (*truth_speed)[i] = (r[i - 1] - r[i]) * rate;
  if (w.size() >= 2) (*truth_speed)[0] = (*truth_speed)[1];
}

void compile_mover(const ScenarioSpec& spec, const ScenarioMover& m,
                   std::size_t index, std::uint64_t seed, std::size_t n,
                   const core::IsarConfig& isar, double amp_scale, CVec& h,
                   MoverTruth& truth) {
  const double rate = 1.0 / isar.sample_period_sec;
  const Window w = presence_window(m, n, rate);
  truth.enter_sample = w.begin;
  truth.exit_sample = w.end;
  const double amp = m.amplitude * amp_scale;

  if (m.mobility == MobilityModel::kSpeedRamp) {
    // The SyntheticMover primitive verbatim, run over the presence window.
    const SyntheticMover prim{m.start_speed_mps, m.end_speed_mps, 1.0,
                              m.phase_rad};
    const std::size_t np = w.size();
    for (std::size_t i = 0; i < np; ++i) {
      const double p = mover_phase_at(prim, i, np, isar);
      h[w.begin + i] += amp * cdouble{std::cos(p), std::sin(p)};
    }
    truth.radial_speed_mps.resize(np);
    const double slope =
        np >= 2 ? (m.end_speed_mps - m.start_speed_mps) /
                      static_cast<double>(np - 1)
                : 0.0;
    for (std::size_t i = 0; i < np; ++i)
      truth.radial_speed_mps[i] =
          m.start_speed_mps + slope * static_cast<double>(i);
    return;
  }

  // Geometric mobility: reduce the path to per-sample range toward the
  // device (at the origin), then emit phase + truth from the range.
  const double dt = isar.sample_period_sec;
  RVec r(w.size());
  if (m.mobility == MobilityModel::kWaypoint) {
    const std::vector<rf::Vec2> pts = waypoint_path(m, w.size(), dt);
    for (std::size_t i = 0; i < w.size(); ++i) r[i] = pts[i].norm();
  } else {  // kRandomWalk
    Rng rng(sub_seed(seed, kSaltMover, index));
    const double presence_sec = static_cast<double>(w.size()) * dt;
    const rf::Trajectory traj = random_walk(spec.interior(), presence_sec, dt,
                                            m.walk_speed_mps, rng);
    for (std::size_t i = 0; i < w.size(); ++i)
      r[i] = traj.position(static_cast<double>(i) * dt).norm();
  }
  add_range_source(h, w, r, amp, m.phase_rad, isar, &truth.radial_speed_mps);
}

void compile_clutter(const ScenarioSpec& spec, const ClutterSpec& c,
                     std::size_t index, std::uint64_t seed, std::size_t n,
                     const core::IsarConfig& isar, double amp_scale, CVec& h) {
  const Window w{0, n};
  const double dt = isar.sample_period_sec;
  RVec r(n);
  if (c.kind == ClutterKind::kFan) {
    const double r0 = c.pos.norm();
    const double ph0 = hash_u01(seed, kSaltClutter, index) * kTwoPi;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) * dt;
      r[i] = r0 + c.extent_m * std::sin(kTwoPi * c.rate_hz * t + ph0);
    }
  } else {  // kPet: seeded wander inside a patch around pos
    const Rect room = spec.interior();
    const Rect patch{std::max(room.xmin, c.pos.x - c.extent_m),
                     std::min(room.xmax, c.pos.x + c.extent_m),
                     std::max(room.ymin, c.pos.y - c.extent_m),
                     std::min(room.ymax, c.pos.y + c.extent_m)};
    Rng rng(sub_seed(seed, kSaltClutter, index));
    const rf::Trajectory traj = random_walk(
        patch, static_cast<double>(n) * dt, dt, kPetSpeedMps, rng);
    for (std::size_t i = 0; i < n; ++i)
      r[i] = traj.position(static_cast<double>(i) * dt).norm();
  }
  add_range_source(h, w, r, c.amplitude * amp_scale, 0.0, isar, nullptr);
}

void add_interference(const InterfererSpec& intf, std::uint64_t seed,
                      double rate, CVec& h) {
  const auto seconds = static_cast<std::size_t>(
      std::ceil(static_cast<double>(h.size()) / rate));
  const auto burst_len =
      static_cast<std::size_t>(std::llround(intf.burst_sec * rate));
  for (std::size_t s = 0; s < seconds; ++s) {
    if (hash_u01(seed, kSaltIntf, s) >= intf.burst_prob) continue;
    const double offset = hash_u01(seed, kSaltIntfPos, s);
    const auto begin = static_cast<std::size_t>(
        std::llround((static_cast<double>(s) + offset) * rate));
    const std::size_t end = std::min(h.size(), begin + burst_len);
    Rng rng(sub_seed(seed, kSaltIntfNoise, s));
    for (std::size_t i = begin; i < end; ++i)
      h[i] += rng.complex_gaussian(intf.power);
  }
}

}  // namespace

const char* to_string(MobilityModel m) noexcept {
  switch (m) {
    case MobilityModel::kWaypoint: return "waypoint";
    case MobilityModel::kRandomWalk: return "random-walk";
    case MobilityModel::kSpeedRamp: return "speed-ramp";
  }
  return "?";
}

const char* to_string(ClutterKind k) noexcept {
  switch (k) {
    case ClutterKind::kFan: return "fan";
    case ClutterKind::kPet: return "pet";
  }
  return "?";
}

Rect ScenarioSpec::interior() const noexcept {
  // The same rectangle Scene::interior() derives: the closed room behind
  // the imaged wall at the calibrated device standoff, with a margin.
  const double margin = 0.4;
  const double wall_y = Calibration{}.device_standoff_m;
  return {-room.width_m / 2.0 + margin, room.width_m / 2.0 - margin,
          wall_y + margin, wall_y + room.depth_m - margin};
}

void ScenarioSpec::validate() const {
  const core::IsarConfig isar;
  const double rate = 1.0 / isar.sample_period_sec;
  WIVI_REQUIRE(room.width_m > 0.0 && room.depth_m > 0.0,
               "room dimensions must be positive");
  const Rect inside = interior();
  WIVI_REQUIRE(inside.width() > 0.0 && inside.height() > 0.0,
               "room too small: no walkable interior behind the wall");
  WIVI_REQUIRE(duration_sec > 0.0, "duration must be positive");
  WIVI_REQUIRE(duration_sec * rate >= static_cast<double>(isar.window),
               "duration shorter than one ISAR window");
  WIVI_REQUIRE(!movers.empty() || !clutter.empty(),
               "scenario has no signal sources (zero movers and no clutter)");
  for (const ScenarioMover& m : movers) {
    WIVI_REQUIRE(m.amplitude > 0.0, "mover amplitude must be positive");
    WIVI_REQUIRE(m.enter_sec >= 0.0, "mover enter time must be >= 0");
    WIVI_REQUIRE(m.exit_sec > m.enter_sec,
                 "mover exit time must be after its enter time");
    WIVI_REQUIRE(m.enter_sec < duration_sec,
                 "mover enters after the trace ends");
    const double present =
        std::min(m.exit_sec, duration_sec) - m.enter_sec;
    WIVI_REQUIRE(present >= 0.1, "mover present for less than 0.1 s");
    switch (m.mobility) {
      case MobilityModel::kWaypoint:
        WIVI_REQUIRE(!m.waypoints.empty(),
                     "waypoint mover needs at least one waypoint");
        WIVI_REQUIRE(inside.contains(m.start),
                     "mover start position outside the room interior");
        for (const PathWaypoint& w : m.waypoints) {
          WIVI_REQUIRE(inside.contains(w.pos),
                       "waypoint outside the room interior");
          WIVI_REQUIRE(w.speed_mps > 0.0, "waypoint speed must be positive");
          WIVI_REQUIRE(w.pause_sec >= 0.0, "waypoint pause must be >= 0");
        }
        break;
      case MobilityModel::kRandomWalk:
        WIVI_REQUIRE(m.walk_speed_mps > 0.0, "walk speed must be positive");
        break;
      case MobilityModel::kSpeedRamp:
        WIVI_REQUIRE(std::abs(m.start_speed_mps) <= isar.assumed_speed_mps &&
                         std::abs(m.end_speed_mps) <= isar.assumed_speed_mps,
                     "ramp speeds must stay within the assumed ISAR speed");
        break;
    }
  }
  for (const ClutterSpec& c : clutter) {
    WIVI_REQUIRE(c.amplitude > 0.0, "clutter amplitude must be positive");
    WIVI_REQUIRE(c.extent_m > 0.0, "clutter extent must be positive");
    WIVI_REQUIRE(c.kind != ClutterKind::kFan || c.rate_hz > 0.0,
                 "fan rate must be positive");
    WIVI_REQUIRE(inside.contains(c.pos),
                 "clutter position outside the room interior");
  }
  if (interferer) {
    WIVI_REQUIRE(interferer->burst_prob >= 0.0 && interferer->burst_prob <= 1.0,
                 "interferer burst probability must be in [0,1]");
    WIVI_REQUIRE(interferer->burst_sec > 0.0,
                 "interferer burst duration must be positive");
    WIVI_REQUIRE(interferer->power > 0.0,
                 "interferer power must be positive");
  }
  // Constructing the modem validates the OFDM knobs themselves.
  const phy::OfdmModem modem(protocol.ofdm);
  WIVI_REQUIRE(protocol.num_pilot_bins >= 1 &&
                   protocol.num_pilot_bins <=
                       static_cast<int>(modem.used_subcarriers().size()),
               "pilot bins must be in [1, used subcarriers]");
}

bool GroundTruth::present(std::size_t k, double t_sec) const {
  const auto i =
      static_cast<std::size_t>(std::llround(t_sec * sample_rate_hz));
  const MoverTruth& m = movers[k];
  return i >= m.enter_sample && i < m.exit_sample;
}

double GroundTruth::radial_speed_mps_at(std::size_t k, double t_sec) const {
  if (!present(k, t_sec)) return 0.0;
  const auto i =
      static_cast<std::size_t>(std::llround(t_sec * sample_rate_hz));
  return movers[k].radial_speed_mps[i - movers[k].enter_sample];
}

double GroundTruth::angle_deg_at(std::size_t k, double t_sec) const {
  return present(k, t_sec) ? truth_angle_deg(radial_speed_mps_at(k, t_sec))
                           : 0.0;
}

int GroundTruth::max_concurrent() const {
  // Sweep the presence-interval endpoints.
  std::vector<std::pair<std::size_t, int>> events;
  for (const MoverTruth& m : movers) {
    if (m.enter_sample >= m.exit_sample) continue;
    events.emplace_back(m.enter_sample, +1);
    events.emplace_back(m.exit_sample, -1);
  }
  std::sort(events.begin(), events.end());
  int live = 0;
  int peak = 0;
  for (const auto& [sample, delta] : events) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

double truth_angle_deg(double radial_speed_mps) noexcept {
  const core::IsarConfig isar;
  const double s =
      std::clamp(radial_speed_mps / isar.assumed_speed_mps, -1.0, 1.0);
  return std::asin(s) * 180.0 / std::numbers::pi;
}

GeneratedScenario generate_scenario(const ScenarioSpec& spec,
                                    std::uint64_t seed) {
  spec.validate();
  const core::IsarConfig isar;
  const double rate = 1.0 / isar.sample_period_sec;
  const auto n =
      static_cast<std::size_t>(std::llround(spec.duration_sec * rate));

  GeneratedScenario out;
  out.spec = spec;
  out.seed = seed;
  out.sample_rate_hz = rate;
  out.truth.sample_rate_hz = rate;
  out.h.assign(n, cdouble{0.0, 0.0});
  out.truth.movers.resize(spec.movers.size());

  // Through-wall attenuation relative to the hollow-wall reference room:
  // a concrete wall weakens every echo, a glass one strengthens them.
  const double extra_db =
      rf::two_way_attenuation_db(spec.room.wall_material) -
      rf::two_way_attenuation_db(rf::Material::kHollowWall);
  const double amp_scale = std::pow(10.0, -extra_db / 20.0);

  for (std::size_t k = 0; k < spec.movers.size(); ++k)
    compile_mover(spec, spec.movers[k], k, seed, n, isar, amp_scale, out.h,
                  out.truth.movers[k]);
  for (std::size_t k = 0; k < spec.clutter.size(); ++k)
    compile_clutter(spec, spec.clutter[k], k, seed, n, isar, amp_scale,
                    out.h);

  // Residual static component (imperfect nulling): grows with the room's
  // furniture clutter; the synthetic-trace default at num_furniture = 5.
  const cdouble static_residual =
      cdouble{0.4, 0.1} *
      (0.7 + 0.06 * static_cast<double>(spec.room.num_furniture));

  // Estimate noise: the protocol variant's knobs scale the synthetic
  // baseline of CN(0, 1e-4) — wider bandwidth admits proportionally more
  // noise, averaging more pilot bins suppresses it (paper §7.1).
  const double noise_power = 1e-4 *
                             (spec.protocol.ofdm.bandwidth_hz / 5e6) *
                             (4.0 / spec.protocol.num_pilot_bins);
  Rng noise_rng(sub_seed(seed, kSaltNoise, 0));
  for (std::size_t i = 0; i < n; ++i)
    out.h[i] += static_residual + noise_rng.complex_gaussian(noise_power);

  if (spec.interferer) add_interference(*spec.interferer, seed, rate, out.h);
  return out;
}

}  // namespace wivi::sim
