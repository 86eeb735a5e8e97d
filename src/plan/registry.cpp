#include "src/plan/registry.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/error.hpp"

namespace wivi::plan {

namespace {

bool bits_equal(std::span<const double> a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

std::uint64_t hash_key(const KeyRef& key) noexcept {
  // FNV-1a, one byte at a time over 64-bit words: kind, then each
  // section's length and elements (doubles by bit pattern).
  std::uint64_t h = 14695981039346656037ull;
  const auto word = [&h](std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  word(static_cast<std::uint64_t>(key.kind));
  word(key.ints.size());
  for (const std::uint64_t v : key.ints) word(v);
  word(key.reals.size());
  for (const double d : key.reals) word(std::bit_cast<std::uint64_t>(d));
  word(key.grid.size());
  for (const double d : key.grid) word(std::bit_cast<std::uint64_t>(d));
  return h;
}

std::shared_ptr<const void> Registry::acquire(const KeyRef& key, BuildFn build,
                                              void* ctx) {
  WIVI_REQUIRE(build != nullptr, "plan builder must be non-null");
  const std::uint64_t h = hash_key(key);
  std::lock_guard<std::mutex> lock(mu_);

  // Hit — the allocation-free path: probe the hash's bucket, compare the
  // full key, hand out a handle copy.
  const auto [first, last] = table_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    const Entry& e = it->second;
    if (e.kind == key.kind && e.ints.size() == key.ints.size() &&
        std::equal(key.ints.begin(), key.ints.end(), e.ints.begin()) &&
        bits_equal(key.reals, e.reals) && bits_equal(key.grid, e.grid)) {
      ++stats_.hits;
      return e.artifact;
    }
  }
  ++stats_.misses;

  // Build before inserting (strong exception safety — a throwing builder
  // leaves only the miss counted).
  ++stats_.builds;
  Built b = build(ctx);
  WIVI_REQUIRE(b.artifact != nullptr, "plan builder returned null");
  const auto it = table_.emplace(
      h, Entry{key.kind,
               {key.ints.begin(), key.ints.end()},
               {key.reals.begin(), key.reals.end()},
               {key.grid.begin(), key.grid.end()},
               std::move(b.artifact),
               b.bytes});
  stats_.resident_bytes += it->second.bytes;
  return it->second.artifact;
}

Stats Registry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.resident_plans = static_cast<std::uint64_t>(table_.size());
  return s;
}

void Registry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.clear();
  stats_ = Stats{};
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace wivi::plan
