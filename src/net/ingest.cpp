#include "src/net/ingest.hpp"

#include <utility>

namespace wivi::net {

rt::SessionId EngineBinding::bind(std::uint32_t sensor_id) {
  // Callers hold mu_.
  const auto it = sessions_.find(sensor_id);
  if (it != sessions_.end()) return it->second;
  const rt::SessionId id = engine_.open_session(cfg_.spec, cfg_.ingest);
  sessions_.emplace(sensor_id, id);
  closed_.emplace(sensor_id, false);
  return id;
}

bool EngineBinding::deliver(std::uint32_t sensor_id,
                            std::uint64_t /*chunk_seq*/, CVec&& chunk) {
  rt::SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto c = closed_.find(sensor_id); c != closed_.end() && c->second)
      return false;  // stream already ended; late chunk refused
    id = bind(sensor_id);
  }
  return engine_.offer(id, std::move(chunk));
}

void EngineBinding::end(std::uint32_t sensor_id) {
  rt::SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = bind(sensor_id);  // an end with no data still resolves the session
    bool& closed = closed_[sensor_id];
    if (closed || !cfg_.close_on_end) return;
    closed = true;
  }
  engine_.close_session(id);
}

std::optional<rt::SessionId> EngineBinding::session(
    std::uint32_t sensor_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sensor_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

void EngineBinding::close_all() {
  std::vector<rt::SessionId> to_close;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [sensor, closed] : closed_) {
      if (!closed) {
        closed = true;
        to_close.push_back(sessions_.at(sensor));
      }
    }
  }
  for (rt::SessionId id : to_close) engine_.close_session(id);
}

}  // namespace wivi::net
