// Canonical experiment protocols of the paper's evaluation chapter, shared
// by the benchmark harness, the integration tests and the examples so that
// every consumer runs exactly the same procedure.
//
//   * Tracking / counting trials (§7.3, §7.4): N humans enter a closed
//     conference room and "move at will" for 25 s.
//   * Gesture trials (§7.5, §7.6): one subject stands at a given distance
//     behind the wall and performs gesture-encoded bits.
#pragma once

#include <optional>
#include <vector>

#include "src/core/counting.hpp"
#include "src/core/gesture.hpp"
#include "src/sim/experiment.hpp"

namespace wivi::sim {

// ------------------------------------------------------------- Counting ---

struct CountingTrial {
  RoomSpec room;
  int num_humans = 1;
  /// Subject indices (into sim::subject) for the participating humans.
  std::vector<int> subjects;
  double duration_sec = 25.0;
  std::uint64_t seed = 1;
  /// Threads for the smoothed-MUSIC image build
  /// (core::MotionTracker::Config::num_threads semantics: 1 = sequential
  /// default; 0 / >1 = par::ParallelImageBuilder, same image). Figure
  /// benches opt in.
  int image_threads = 1;
};

struct CountingResult {
  double spatial_variance = 0.0;
  double effective_nulling_db = 0.0;
  core::AngleTimeImage image;
  TraceResult trace;
};

/// Run one §7.4 counting experiment: nulling, 25 s capture, smoothed MUSIC,
/// Eq. 5.5 spatial variance.
[[nodiscard]] CountingResult run_counting_trial(const CountingTrial& trial);

// -------------------------------------------------------------- Gesture ---

struct GestureTrial {
  RoomSpec room;
  /// Distance from the wall at which the subject stands (§7.5: 1-9 m).
  double distance_m = 3.0;
  int subject_index = 0;
  std::vector<core::Bit> message;
  /// Facing offset from straight-at-the-device, degrees (Fig. 6-2(c):
  /// a slanted subject still produces the right bit shapes).
  double facing_offset_deg = 0.0;
  std::uint64_t seed = 1;
};

struct GestureResult {
  core::GestureDecoder::Result decoded;
  /// Per ground-truth bit: decoded correctly / erased / flipped.
  int correct = 0;
  int erased = 0;
  int flipped = 0;
  /// Physical gesture SNR of each correctly decoded bit, split by bit value
  /// (Figs. 7-5 / 7-6(b)): Doppler-band (first-difference) power of the
  /// channel-estimate stream during the gesture, relative to the same
  /// measure over the quiet lead-in. This is the received-echo SNR, which
  /// scales with distance and wall material; the decoder's *matched-filter*
  /// SNR (used for the 3 dB decode gate) is in decoded.bits[i].snr_db.
  RVec snr_zero_db;
  RVec snr_one_db;
  double effective_nulling_db = 0.0;
};

/// Run one §7.5/§7.6 gesture experiment and score it against the message.
[[nodiscard]] GestureResult run_gesture_trial(const GestureTrial& trial);

/// Greedy alignment of decoded bits against the transmitted message:
/// decoded values must appear as an in-order subsequence; matches count as
/// correct, skipped ground-truth bits as erasures, mismatches as flips.
/// If `trace` is non-null, per-bit SNRs are measured physically on it
/// (Doppler-band power vs the lead-in noise floor); otherwise the decoder's
/// matched-filter SNR is reported.
void score_decoded_bits(std::span<const core::Bit> sent,
                        const std::vector<core::GestureDecoder::DecodedBit>& got,
                        GestureResult& out, const TraceResult* trace = nullptr);

}  // namespace wivi::sim
