#include "src/dsp/window.hpp"

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/plan/registry.hpp"

namespace wivi::dsp {

RVec make_window(WindowType type, std::size_t n, bool periodic) {
  WIVI_REQUIRE(n > 0, "window length must be positive");
  RVec w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(periodic ? n : n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / denom;  // in [0, 1]
    switch (type) {
      case WindowType::kRectangular:
        w[i] = 1.0;
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * t);
        break;
      case WindowType::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * t);
        break;
      case WindowType::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(kTwoPi * t) + 0.08 * std::cos(2.0 * kTwoPi * t);
        break;
      case WindowType::kTriangular:
        w[i] = 1.0 - std::abs(2.0 * t - 1.0);
        break;
    }
  }
  return w;
}

std::shared_ptr<const RVec> acquire_window(WindowType type, std::size_t n,
                                           bool periodic) {
  WIVI_REQUIRE(n > 0, "window length must be positive");
  struct Ctx {
    WindowType type;
    std::size_t n;
    bool periodic;
  } ctx{type, n, periodic};
  const std::uint64_t ints[3] = {static_cast<std::uint64_t>(type),
                                 static_cast<std::uint64_t>(n),
                                 periodic ? 1u : 0u};
  const plan::KeyRef key{plan::Kind::kWindow, ints, {}, {}};
  const auto build = [](void* raw) -> plan::Built {
    const Ctx& c = *static_cast<const Ctx*>(raw);
    auto w = std::make_shared<const RVec>(make_window(c.type, c.n, c.periodic));
    return {std::move(w), c.n * sizeof(double)};
  };
  return std::static_pointer_cast<const RVec>(
      plan::registry().acquire(key, build, &ctx));
}

void apply_window(CVec& x, RSpan window) {
  WIVI_REQUIRE(x.size() == window.size(), "window/buffer size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= window[i];
}

}  // namespace wivi::dsp
