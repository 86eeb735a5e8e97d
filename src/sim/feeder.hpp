// Chunked trace feeding for the streaming runtime: turn one simulated
// capture (ExperimentRunner under the hood) into the sequence of sample
// chunks a live driver would hand to rt::Engine::offer(), so examples,
// benches and tests can drive M concurrent sessions from M independently
// seeded scenes.
#pragma once

#include "src/sim/experiment.hpp"
#include "src/sim/room.hpp"

namespace wivi::sim {

/// One session's worth of scene: like a §7.4 counting trial, but only the
/// capture — no batch post-processing.
struct SessionScenario {
  RoomSpec room;  // default-constructed = a Stata-A-like hollow-wall room
  int num_humans = 1;
  double duration_sec = 10.0;
  std::uint64_t seed = 1;
};

/// Null, then capture the post-nulling channel-estimate stream for one
/// scenario. Deterministic in the seed; independently seeded scenarios are
/// fully independent scenes.
[[nodiscard]] TraceResult record_session_trace(const SessionScenario& sc);

/// A recorded trace chopped into fixed-size chunks, replayed in order.
class ChunkedTrace {
 public:
  ChunkedTrace(TraceResult trace, std::size_t chunk_len);

  /// Pop the next chunk (the last one may be short). False when done.
  [[nodiscard]] bool next(CVec& chunk);

  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= trace_.h.size(); }
  /// Chunks handed out by next() since construction / the last rewind().
  [[nodiscard]] std::size_t chunks_emitted() const noexcept {
    return emitted_;
  }

  [[nodiscard]] const TraceResult& trace() const noexcept { return trace_; }
  [[nodiscard]] std::size_t chunk_len() const noexcept { return chunk_len_; }

  void rewind() noexcept {
    pos_ = 0;
    emitted_ = 0;
  }

 private:
  TraceResult trace_;
  std::size_t chunk_len_;
  std::size_t pos_ = 0;
  std::size_t emitted_ = 0;
};

}  // namespace wivi::sim
