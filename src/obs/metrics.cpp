#include "src/obs/metrics.hpp"

#include <utility>

namespace wivi::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

template <typename T, typename... Args>
T& Registry::intern(
    std::deque<std::pair<std::string, std::unique_ptr<T>>>& family,
    std::string_view name, Args&&... args) {
  std::lock_guard lk(mu_);
  for (auto& [n, m] : family)
    if (n == name) return *m;
  family.emplace_back(std::string(name),
                      std::make_unique<T>(std::forward<Args>(args)...));
  return *family.back().second;
}

Counter& Registry::counter(std::string_view name) {
  return intern(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) { return intern(gauges_, name); }

Histogram& Registry::histogram(std::string_view name, int slots) {
  return intern(histograms_, name, slots);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.source = "wivi::obs::Registry";
  std::lock_guard lk(mu_);
  for (const auto& [name, c] : counters_) snap.add_counter(name, c->value());
  for (const auto& [name, g] : gauges_)
    snap.add_counter(name, static_cast<std::uint64_t>(g->value()));
  for (const auto& [name, h] : histograms_)
    snap.add_histogram(name, h->snapshot());
  return snap;
}

}  // namespace wivi::obs
