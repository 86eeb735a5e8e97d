// Shared helpers for the net test suites: bit-exact serialisation of a
// session's engine event stream (the "event log" the live-vs-network and
// capture-vs-replay parity tests byte-compare), plus small trace/chunk
// builders. Doubles are serialised as their IEEE-754 bit patterns in hex,
// so two logs compare equal iff every value is bit-identical — an
// approximate match is a parity failure by design.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/common/types.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/feeder.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi::nettest {

inline void put_f64(std::ostringstream& os, double v) {
  os << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec << ',';
}

/// Visitor built from one lambda per event kind (std::visit idiom).
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// Serialise one session's events (in queue order) to a byte-comparable
/// log. Only deterministic event kinds appear; timing-driven kinds
/// (StatsEvent, StalledEvent) are excluded so wall-clock noise cannot fail
/// a parity compare.
inline std::string event_log(const std::vector<rt::Event>& events,
                             rt::SessionId id) {
  std::ostringstream os;
  for (const rt::Event& e : events) {
    if (e.session != id) continue;
    const bool logged = std::visit(
        Overloaded{
            [&](const api::ColumnEvent& c) {
              os << "col:" << c.column_index << ':' << c.model_order << ':';
              put_f64(os, c.time_sec);
              for (double v : c.column) put_f64(os, v);
              return true;
            },
            [&](const api::CountEvent& c) {
              os << "cnt:" << c.columns_seen << ':';
              put_f64(os, c.spatial_variance);
              return true;
            },
            [&](const api::BitsEvent& b) {
              os << "bit:";
              for (const auto& bit : b.bits) {
                os << static_cast<int>(bit.value) << ':';
                put_f64(os, bit.time_sec);
                put_f64(os, bit.snr_db);
              }
              return true;
            },
            [&](const api::TracksEvent& t) {
              os << "trk:" << t.num_confirmed << ':' << t.columns_seen;
              return true;
            },
            [&](const api::FinishedEvent& f) {
              os << "fin:" << f.columns_seen << ':' << f.num_confirmed << ':';
              put_f64(os, f.spatial_variance);
              return true;
            },
            [&](const api::ErrorEvent& err) {
              os << "err:" << error_code_name(err.code);
              return true;
            },
            [&](const api::RecoveredEvent& r) {
              os << "rec:" << r.restarts;
              return true;
            },
            [&](const api::OverloadEvent& o) {
              os << "ovl:" << o.degraded << ':' << o.fidelity;
              return true;
            },
            // Wall-clock driven: excluded from parity logs.
            [](const api::StalledEvent&) { return false; },
            [](const api::StatsEvent&) { return false; },
        },
        e.event);
    if (logged) os << '\n';
  }
  return os.str();
}

/// A cheap deterministic chunked feed (no room simulation).
inline sim::ChunkedTrace make_feed(std::size_t samples, std::uint64_t seed,
                                   std::size_t chunk_len) {
  sim::TraceResult tr;
  tr.h = sim::synthetic_mover_trace(samples, seed, 0.4);
  tr.sample_rate_hz = 312.5;
  return sim::ChunkedTrace(std::move(tr), chunk_len);
}

}  // namespace wivi::nettest
