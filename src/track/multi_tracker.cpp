#include "src/track/multi_tracker.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/track/assignment.hpp"

namespace wivi::track {

const char* to_string(TrackState s) noexcept {
  switch (s) {
    case TrackState::kTentative: return "tentative";
    case TrackState::kConfirmed: return "confirmed";
    case TrackState::kCoasting: return "coasting";
    case TrackState::kDead: return "dead";
  }
  return "?";
}

MultiTargetTracker::MultiTargetTracker() : MultiTargetTracker(Config{}) {}

MultiTargetTracker::MultiTargetTracker(Config cfg)
    : cfg_(cfg), detector_(cfg.detector) {
  WIVI_REQUIRE(cfg_.gate_deg > 0.0, "association gate must be positive");
  WIVI_REQUIRE(cfg_.confirm_columns >= 1, "confirm_columns must be >= 1");
  WIVI_REQUIRE(cfg_.max_coast_columns >= 0, "max_coast_columns must be >= 0");
  WIVI_REQUIRE(cfg_.tentative_max_misses >= 1,
               "tentative_max_misses must be >= 1");
  WIVI_REQUIRE(cfg_.coast_damp_after >= 0, "coast_damp_after must be >= 0");
  WIVI_REQUIRE(cfg_.coast_velocity_damping > 0.0 &&
                   cfg_.coast_velocity_damping <= 1.0,
               "coast_velocity_damping must be in (0, 1]");
  WIVI_REQUIRE(cfg_.max_occluded_columns >= 0,
               "max_occluded_columns must be >= 0");
}

bool MultiTargetTracker::occluded(
    std::size_t i, const std::vector<std::size_t>& match) const {
  if (cfg_.max_occluded_columns <= 0) return false;  // forgiveness disabled
  const double angle = live_[i].kalman.angle_deg();
  for (std::size_t k = 0; k < live_.size(); ++k) {
    if (k == i || match[k] == kUnassigned) continue;
    if (std::abs(live_[k].kalman.angle_deg() - angle) <=
        cfg_.detector.min_separation_deg)
      return true;
  }
  return false;
}

void MultiTargetTracker::kill(Track& tr) {
  tr.state = TrackState::kDead;
  tr.history.state = TrackState::kDead;
  dead_.push_back(std::move(tr.history));
}

const std::vector<TrackSnapshot>& MultiTargetTracker::step(
    const core::AngleTimeImage& img, std::size_t t) {
  WIVI_REQUIRE(t == cols_seen_, "columns must be fed strictly in order");
  WIVI_REQUIRE(t < img.num_times(), "image column out of range");
  const double now = img.times_sec[t];
  const double dt = cols_seen_ > 0 ? now - last_time_sec_ : 0.0;
  WIVI_REQUIRE(dt >= 0.0, "image time must be non-decreasing");
  last_time_sec_ = now;
  ++cols_seen_;

  detector_.detect_into(img, t, detections_);

  // 1. Predict every live track to this column's time.
  for (Track& tr : live_) tr.kalman.predict(dt);

  // 2. Gated association: innovation distance, infinite outside the gate.
  CostMatrix cost(live_.size(), detections_.size());
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const double predicted = live_[i].kalman.angle_deg();
    for (std::size_t j = 0; j < detections_.size(); ++j) {
      const double d = std::abs(detections_[j].angle_deg - predicted);
      if (d <= cfg_.gate_deg) cost.at(i, j) = d;
    }
  }
  const std::vector<std::size_t> match = assign(cost);

  // 3. Update matched tracks, age the lifecycle of unmatched ones.
  std::vector<bool> det_taken(detections_.size(), false);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    Track& tr = live_[i];
    ++tr.age_columns;
    const bool hit = match[i] != kUnassigned;
    tr.last_strength_db = 0.0;
    if (hit) {
      const Detection& det = detections_[match[i]];
      det_taken[match[i]] = true;
      tr.kalman.update(det.angle_deg);
      tr.last_strength_db = det.strength_db;
      ++tr.consecutive_hits;
      tr.consecutive_misses = 0;
      tr.occluded_columns = 0;
      if (tr.state == TrackState::kCoasting) tr.state = TrackState::kConfirmed;
      if (tr.state == TrackState::kTentative &&
          tr.consecutive_hits >= cfg_.confirm_columns) {
        tr.state = TrackState::kConfirmed;
        tr.history.confirmed_ever = true;
      }
    } else {
      tr.consecutive_hits = 0;
      if (tr.state == TrackState::kTentative) {
        ++tr.consecutive_misses;
        if (tr.consecutive_misses >= cfg_.tentative_max_misses)
          tr.state = TrackState::kDead;
      } else if (occluded(i, match)) {
        // The prediction sits within the detector's resolution of a track
        // that WAS detected this column: two targets have merged into one
        // peak, and the miss says nothing about this one having left. The
        // miss is forgiven — the coast budget is for departed targets —
        // up to the max_occluded_columns safety valve.
        ++tr.occluded_columns;
        tr.state = tr.occluded_columns > cfg_.max_occluded_columns
                       ? TrackState::kDead
                       : TrackState::kCoasting;
      } else {
        // A confirmed target coasts on its prediction for up to
        // max_coast_columns columns, then dies. Past coast_damp_after
        // columns the velocity state decays each column, so a stalled
        // target's prediction parks near its fade point instead of
        // extrapolating away on stale velocity.
        ++tr.consecutive_misses;
        tr.occluded_columns = 0;
        if (tr.consecutive_misses > cfg_.coast_damp_after)
          tr.kalman.damp_velocity(cfg_.coast_velocity_damping);
        tr.state = tr.consecutive_misses > cfg_.max_coast_columns
                       ? TrackState::kDead
                       : TrackState::kCoasting;
      }
    }
    if (tr.state == TrackState::kDead) continue;
    tr.history.state = tr.state;
    tr.history.times_sec.push_back(now);
    tr.history.angles_deg.push_back(tr.kalman.angle_deg());
    tr.history.updated.push_back(hit);
  }
  for (std::size_t i = 0; i < live_.size();) {
    if (live_[i].state == TrackState::kDead) {
      kill(live_[i]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // 4. Every unclaimed detection births a tentative track.
  for (std::size_t j = 0; j < detections_.size(); ++j) {
    if (det_taken[j]) continue;
    const Detection& det = detections_[j];
    Track tr{next_id_++,
             TrackState::kTentative,
             AngleKalman(cfg_.kalman, det.angle_deg),
             /*birth_column=*/t,
             /*age_columns=*/1,
             /*consecutive_hits=*/1,
             /*consecutive_misses=*/0,
             /*last_strength_db=*/det.strength_db,
             TrackHistory{}};
    tr.history.id = tr.id;
    tr.history.birth_column = t;
    tr.history.state = tr.state;
    tr.history.times_sec.push_back(now);
    tr.history.angles_deg.push_back(det.angle_deg);
    tr.history.updated.push_back(true);
    if (cfg_.confirm_columns <= 1) {
      tr.state = TrackState::kConfirmed;
      tr.history.state = tr.state;
      tr.history.confirmed_ever = true;
    }
    live_.push_back(std::move(tr));
  }

  // 5. Snapshot the survivors (live_ is insertion order == id order).
  snapshots_.clear();
  for (const Track& tr : live_) {
    TrackSnapshot snap;
    snap.id = tr.id;
    snap.state = tr.state;
    snap.angle_deg = tr.kalman.angle_deg();
    snap.velocity_dps = tr.kalman.velocity_dps();
    snap.time_sec = now;
    snap.updated = tr.history.updated.back();
    snap.strength_db = tr.last_strength_db;
    snap.age_columns = tr.age_columns;
    snapshots_.push_back(snap);
  }
  return snapshots_;
}

std::vector<TrackHistory> MultiTargetTracker::histories() const {
  std::vector<TrackHistory> all = dead_;
  for (const Track& tr : live_) all.push_back(tr.history);
  std::sort(all.begin(), all.end(),
            [](const TrackHistory& a, const TrackHistory& b) {
              return a.id < b.id;
            });
  return all;
}

std::size_t MultiTargetTracker::num_confirmed() const noexcept {
  std::size_t n = 0;
  for (const Track& tr : live_)
    n += tr.state == TrackState::kConfirmed || tr.state == TrackState::kCoasting;
  return n;
}

void MultiTargetTracker::reset() {
  live_.clear();
  dead_.clear();
  snapshots_.clear();
  detections_.clear();
  cols_seen_ = 0;
  last_time_sec_ = 0.0;
}

std::vector<TrackHistory> track_image(const core::AngleTimeImage& img,
                                      const MultiTargetTracker::Config& cfg) {
  MultiTargetTracker tracker(cfg);
  for (std::size_t t = 0; t < img.num_times(); ++t) tracker.step(img, t);
  return tracker.histories();
}

}  // namespace wivi::track
