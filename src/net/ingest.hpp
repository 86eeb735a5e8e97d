/// @file
/// Glue between the network ingress and the streaming runtime: sensor
/// streams become rt::Engine sessions.
///
/// EngineBinding is the ChunkSink/EndSink pair a Receiver (or Replayer)
/// delivers into: the first chunk from a sensor opens an engine session
/// compiled from the binding's PipelineSpec, later chunks are offered to
/// that session's ring (zero payload copy — the CVec moves straight in),
/// and the sensor's end-of-stream mark closes the session. A false
/// offer() (kDropNewest with a full ring) propagates back as a refused
/// chunk, which the reassembler counts as sink-dropped — the overload
/// path stays observable end to end.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "src/api/spec.hpp"
#include "src/net/reassembler.hpp"
#include "src/rt/engine.hpp"

namespace wivi::net {

/// @addtogroup wivi_net
/// @{

/// Routes per-sensor chunk streams into rt::Engine sessions.
class EngineBinding {
 public:
  /// How every sensor's session is opened.
  struct Config {
    /// Pipeline compiled for each sensor's session.
    api::PipelineSpec spec;
    /// Ingestion-edge knobs of each session (ring depth, backpressure...).
    rt::IngestConfig ingest;
    /// Close the sensor's session when its end-of-stream mark arrives.
    bool close_on_end = true;
  };

  /// Bind to `engine` (not owned; must outlive the binding).
  EngineBinding(rt::Engine& engine, Config cfg)
      : engine_(engine), cfg_(std::move(cfg)) {}

  /// The ChunkSink to hand a Receiver/Replayer/Demux.
  [[nodiscard]] ChunkSink sink() {
    return [this](std::uint32_t sensor_id, std::uint64_t chunk_seq,
                  CVec&& chunk) {
      return deliver(sensor_id, chunk_seq, std::move(chunk));
    };
  }
  /// The EndSink to hand the same consumer.
  [[nodiscard]] EndSink end_sink() {
    return [this](std::uint32_t sensor_id) { end(sensor_id); };
  }

  /// The engine session a sensor was bound to (nullopt: never seen).
  [[nodiscard]] std::optional<rt::SessionId> session(
      std::uint32_t sensor_id) const;
  /// Close every still-open bound session (for streams that never sent an
  /// end-of-stream mark; makes Engine::drain() well-defined).
  void close_all();

 private:
  bool deliver(std::uint32_t sensor_id, std::uint64_t chunk_seq, CVec&& chunk);
  void end(std::uint32_t sensor_id);
  rt::SessionId bind(std::uint32_t sensor_id);

  rt::Engine& engine_;
  Config cfg_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, rt::SessionId> sessions_;
  std::map<std::uint32_t, bool> closed_;
};

/// @}

}  // namespace wivi::net
