// Inputs and small utilities: clocks, hashing, generated worlds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>

#include "bench.hpp"
#include "src/sim/evaluate.hpp"

namespace wirebench {

namespace {

std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

double rss_peak_mib() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Hasher::add(double v) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, &v, sizeof w);
  add(w);
}

void Hasher::add_bytes(const void* p, std::size_t n) noexcept {
  const auto* b = static_cast<const unsigned char*>(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, b + i, 8);
    add(w);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, b + i, n - i);
  add(tail ^ (static_cast<std::uint64_t>(n) << 56));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t expected_columns(const World& w) noexcept {
  const core::MotionTracker::Config cfg;
  const auto win = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  return w.h.size() >= win ? (w.h.size() - win) / hop + 1 : 0;
}

std::vector<World> make_worlds(std::uint64_t seed, std::size_t count,
                               double duration_scale) {
  // The faulted family replays through a FaultyFeeder inside the
  // evaluator only; its worlds are ordinary, but the benchmark keeps to
  // workloads on which no operation is meant to fail.
  std::vector<sim::ScenarioFamily> fams = sim::scenario_families(seed);
  std::erase_if(fams, [](const sim::ScenarioFamily& f) {
    return f.faults.has_value();
  });
  std::vector<const sim::ScenarioCase*> order;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& f : fams) {
      if (i < f.cases.size()) {
        order.push_back(&f.cases[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  count = std::min(count, order.size());
  std::vector<World> worlds(count);
  for (std::size_t i = 0; i < count; ++i) {
    sim::ScenarioSpec spec = order[i]->spec;
    spec.duration_sec *= duration_scale;
    worlds[i] = sim::generate_scenario(spec, order[i]->seed);
  }
  return worlds;
}

std::uint64_t inputs_hash(const std::vector<World>& worlds) {
  Hasher h;
  for (const World& w : worlds) {
    h.add_bytes(w.spec.name.data(), w.spec.name.size());
    h.add(static_cast<std::uint64_t>(w.h.size()));
    h.add_bytes(w.h.data(), w.h.size() * sizeof(cdouble));
  }
  return h.value();
}

api::PipelineSpec pipeline_spec() {
  api::PipelineSpec spec;
  spec.image.emit_columns = true;
  spec.track = api::TrackStage{};
  return spec;
}

void hash_column(Hasher& h, std::size_t index, double time_sec,
                 int model_order, const RVec& column) {
  h.add(static_cast<std::uint64_t>(index));
  h.add(time_sec);
  h.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(model_order)));
  h.add_bytes(column.data(), column.size() * sizeof(double));
}

std::uint64_t hash_histories(const std::vector<track::TrackHistory>& hs) {
  Hasher h;
  for (const track::TrackHistory& t : hs) {
    h.add(static_cast<std::uint64_t>(t.id));
    h.add(static_cast<std::uint64_t>(t.birth_column));
    h.add(static_cast<std::uint64_t>(t.state));
    h.add(static_cast<std::uint64_t>(t.confirmed_ever));
    h.add_bytes(t.times_sec.data(), t.times_sec.size() * sizeof(double));
    h.add_bytes(t.angles_deg.data(), t.angles_deg.size() * sizeof(double));
    for (bool u : t.updated) h.add(static_cast<std::uint64_t>(u));
  }
  return h.value();
}

}  // namespace wirebench
