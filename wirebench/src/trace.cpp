// Span recording and Chrome trace-event export.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace wirebench {

std::uint64_t SpanLog::add(const char* name, std::int64_t start,
                           std::int64_t end, std::int64_t sensor,
                           std::int64_t chunk_seq, std::uint64_t parent) {
  if (!on_) return 0;
  // Ids are unique across logs: the lane sits in the top bits.
  const std::uint64_t id = (static_cast<std::uint64_t>(lane_) << 40) | next_++;
  spans_.push_back({name, start, end, lane_, sensor, chunk_seq, id, parent});
  return id;
}

namespace {

void append_us(std::string& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  out += buf;
}

}  // namespace

void write_chrome_trace(const std::string& path,
                        const std::vector<std::pair<int, std::string>>& lanes,
                        const std::vector<Span>& spans) {
  std::int64_t t0 = 0;
  if (!spans.empty()) {
    t0 = std::min_element(spans.begin(), spans.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })->start_ns;
  }
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [lane, label] : lanes) {
    sep();
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " +
           std::to_string(lane) + ", \"args\": {\"name\": \"" + label + "\"}}";
  }
  // One flow per chunk: its spans in time order, across threads.
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<const Span*>>
      flows;
  for (const Span& s : spans) {
    sep();
    out += "{\"name\": \"" + std::string(s.name) +
           "\", \"cat\": \"wirebench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(s.lane) + ", \"ts\": ";
    append_us(out, s.start_ns - t0);
    out += ", \"dur\": ";
    append_us(out, std::max<std::int64_t>(s.end_ns - s.start_ns, 0));
    out += ", \"args\": {\"sensor\": " + std::to_string(s.sensor) +
           ", \"chunk_seq\": " + std::to_string(s.chunk_seq) +
           ", \"span_id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + "}}";
    if (s.sensor >= 0 && s.chunk_seq >= 0)
      flows[{s.sensor, s.chunk_seq}].push_back(&s);
  }
  std::uint64_t flow_id = 0;
  for (auto& [key, chain] : flows) {
    if (chain.size() < 2) continue;
    std::sort(chain.begin(), chain.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    ++flow_id;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == chain.size() ? "f" : "t");
      sep();
      out += std::string("{\"name\": \"chunk\", \"cat\": \"flow\", \"ph\": \"") +
             ph + "\", \"bp\": \"e\", \"id\": " + std::to_string(flow_id) +
             ", \"pid\": 1, \"tid\": " + std::to_string(chain[i]->lane) +
             ", \"ts\": ";
      append_us(out, chain[i]->start_ns - t0);
      out += "}";
    }
  }
  out += "\n]}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  if (!f) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace wirebench
