/// @file
/// wivi::plan — the shared-plan registry (DESIGN.md §12).
///
/// Every pipeline needs a handful of expensive, immutable,
/// read-only-after-build artifacts — steering matrices, FFT twiddle
/// tables, window functions, angle grids — and most sessions share a
/// handful of configurations, so owning them per session is pure
/// duplication. The registry hash-conses them: an artifact is keyed by
/// its *canonicalized* configuration (two specs that build bit-identical
/// values collide on one key), built once, and handed out as
/// `shared_ptr<const T>` handles that any number of sessions and threads
/// read concurrently.
///
/// Nothing is evicted: the registry holds every artifact it built until
/// `clear()`. Keys come only from in-process imaging configurations,
/// never from the wire, so the table grows only with the number of
/// distinct geometries a process images with (a few per entry point).
///
/// Ownership rules (§12): anyone may hold a handle for as long as they
/// like. The artifact behind a handle is deeply immutable; builders run
/// under the registry lock and must not re-enter the registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace wivi::plan {

/// @addtogroup wivi_plan
/// @{

/// Artifact families the registry distinguishes (part of every key, so
/// equal parameter lists of different families never collide).
enum class Kind : std::uint8_t {
  kFft = 0,    ///< dsp::FftPlan twiddle/permutation tables.
  kWindow,     ///< dsp window coefficient tables.
  kSteering,   ///< core::SteeringTable phase-ramp matrices.
  kAngleGrid,  ///< core angle grids.
  kOther,      ///< Caller-defined artifacts (tests, future layers).
};

/// A borrowed, stack-only view of a canonicalized plan key: the artifact
/// family plus up to three parameter sections (integers, real scalars,
/// and a real vector such as an angle grid). Reals are keyed and compared
/// *bitwise*, so keying is exact and deterministic; callers canonicalize
/// before keying (e.g. steering keys carry the derived element spacing
/// 2vT, not v and T separately, so (v=1, T) and (v=2, T/2) collide).
/// Building a KeyRef never allocates — that is what keeps registry hits
/// allocation-free.
struct KeyRef {
  /// Artifact family.
  Kind kind = Kind::kOther;
  /// Integer parameters (sizes, flags), in a fixed caller-chosen order.
  std::span<const std::uint64_t> ints;
  /// Real scalar parameters (geometry), in a fixed caller-chosen order.
  std::span<const double> reals;
  /// Real vector payload (e.g. the angle grid contents); often empty.
  std::span<const double> grid;
};

/// 64-bit FNV-1a hash of a key (kind, section lengths, and the bit
/// patterns of every element). Deterministic across runs and platforms
/// with IEEE-754 doubles.
[[nodiscard]] std::uint64_t hash_key(const KeyRef& key) noexcept;

/// What a builder returns: the type-erased immutable artifact plus its
/// approximate heap footprint (drives the resident-bytes gauge).
struct Built {
  /// The artifact; must be non-null. The registry only ever exposes it
  /// as a pointer-to-const.
  std::shared_ptr<const void> artifact;
  /// Approximate bytes the artifact keeps alive (tables, not headers).
  std::size_t bytes = 0;
};

/// Builder callback: a plain function pointer plus an opaque context (a
/// `std::function` would allocate on construction and break the
/// zero-alloc hit contract). Runs under the registry lock; must not
/// re-enter the registry.
using BuildFn = Built (*)(void* ctx);

/// Point-in-time registry counters (monotonic except the two gauges).
struct Stats {
  std::uint64_t hits = 0;           ///< acquires served from a resident plan
  std::uint64_t misses = 0;         ///< acquires that found no resident plan
  std::uint64_t builds = 0;         ///< builder invocations
  std::uint64_t resident_plans = 0; ///< gauge: plans currently resident
  std::uint64_t resident_bytes = 0; ///< gauge: bytes of resident artifacts
};

/// The config-keyed artifact table: one strongly held handle per
/// canonical key. Thread-safe; one mutex serializes every operation
/// (builds included, so a plan is never built twice concurrently).
class Registry {
 public:
  Registry() = default;                           ///< An empty table.
  Registry(const Registry&) = delete;             ///< Non-copyable.
  Registry& operator=(const Registry&) = delete;  ///< Non-copyable.

  /// The shared handle for `key`, building via `build(ctx)` only when no
  /// artifact is resident for it. A hit performs no heap allocation
  /// (hash, probe, handle copy). Throws whatever `build` throws (the
  /// registry is left unchanged apart from the miss and build counters).
  [[nodiscard]] std::shared_ptr<const void> acquire(const KeyRef& key,
                                                    BuildFn build, void* ctx);

  /// Current counters (gauges included), one consistent view.
  [[nodiscard]] Stats stats() const;

  /// Drop every entry and zero the counters — test isolation and
  /// benchmark sweeps; outstanding handles stay valid.
  void clear();

 private:
  struct Entry {
    Kind kind = Kind::kOther;
    std::vector<std::uint64_t> ints;
    std::vector<double> reals;
    std::vector<double> grid;
    std::shared_ptr<const void> artifact;
    std::size_t bytes = 0;
  };

  mutable std::mutex mu_;
  /// hash -> entries with that hash (collisions resolved by full compare).
  std::unordered_multimap<std::uint64_t, Entry> table_;
  Stats stats_;
};

/// The process-wide registry every built-in acquire_* helper uses. One
/// instance by design: sharing across engines/sessions is the point.
[[nodiscard]] Registry& registry();

/// @}

}  // namespace wivi::plan
