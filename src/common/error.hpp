// Error handling for the Wi-Vi library.
//
// Following the Core Guidelines (E.2, I.6) we throw on precondition
// violations that are plausibly caused by caller input, and keep the check
// active in release builds: this library is driven by experiment
// configuration files and sweeps, where a silent out-of-range parameter
// would corrupt a whole evaluation run.
#pragma once

#include <stdexcept>
#include <string>

namespace wivi {

/// Thrown when a Wi-Vi API precondition is violated.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an algorithm reaches a state it cannot recover from
/// (e.g. eigensolver fails to converge within its iteration budget).
class ComputeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Machine-readable classification of a runtime failure — the taxonomy every
/// api::ErrorEvent (and api::RecoveredEvent) carries, so consumers can
/// branch on *what kind* of fault killed or degraded a session instead of
/// parsing what() strings. The failure model (which code is raised where,
/// and which are terminal) is DESIGN.md §9.
enum class ErrorCode {
  kNone = 0,       ///< no failure (default for non-error events)
  kInvalidChunk,   ///< malformed input rejected at the ingress boundary
                   ///  (empty / oversized / misaligned / non-finite chunk)
  kStageFailure,   ///< a pipeline stage threw while processing
  kSinkFailure,    ///< the consumer's event callback threw
  kTimeout,        ///< watchdog: the feeder went silent past its deadline
  kOverload,       ///< backpressure exhausted every degradation rung
  kMalformedFrame, ///< a wire frame failed parsing/validation at the
                   ///  network ingress (net::ParseStatus carries the
                   ///  precise cause; DESIGN.md §13)
  kIoError,        ///< a capture file could not be opened/read/identified
};

/// Stable identifier string of an ErrorCode ("InvalidChunk", "Timeout", ...).
[[nodiscard]] constexpr const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone: return "None";
    case ErrorCode::kInvalidChunk: return "InvalidChunk";
    case ErrorCode::kStageFailure: return "StageFailure";
    case ErrorCode::kSinkFailure: return "SinkFailure";
    case ErrorCode::kTimeout: return "Timeout";
    case ErrorCode::kOverload: return "Overload";
    case ErrorCode::kMalformedFrame: return "MalformedFrame";
    case ErrorCode::kIoError: return "IoError";
  }
  return "Unknown";
}

/// A runtime failure that already knows its ErrorCode classification.
/// Guards at trust boundaries throw these directly (kInvalidChunk); the
/// session's failure path wraps sink exceptions into kSinkFailure and
/// classifies everything else as kStageFailure.
class TypedError : public std::runtime_error {
 public:
  /// Build a failure of class `code` with the given human-readable detail.
  TypedError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  /// The machine-readable failure class.
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

namespace detail {
[[noreturn]] inline void fail_require(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  throw InvalidArgument(std::string(file) + ":" + std::to_string(line) +
                        ": requirement failed (" + expr + "): " + msg);
}
}  // namespace detail

}  // namespace wivi

/// Precondition check that stays on in release builds.
#define WIVI_REQUIRE(expr, msg)                                         \
  do {                                                                  \
    if (!(expr)) ::wivi::detail::fail_require(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
