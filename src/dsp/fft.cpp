#include "src/dsp/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/plan/registry.hpp"

namespace wivi::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  WIVI_REQUIRE(is_pow2(n), "FFT size must be a power of two");

  rev_.resize(n);
  rev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = static_cast<std::uint32_t>(j);
  }

  // Packed per-stage tables: stage `len` contributes len/2 twiddles
  // w^k = exp(-j 2 pi k / len), k = 0 .. len/2 - 1; n - 1 entries total.
  tw_fwd_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double phi = ang * static_cast<double>(k);
      tw_fwd_.emplace_back(std::cos(phi), std::sin(phi));
    }
  }
  tw_inv_.resize(tw_fwd_.size());
  for (std::size_t i = 0; i < tw_fwd_.size(); ++i)
    tw_inv_[i] = std::conj(tw_fwd_[i]);
}

void FftPlan::run(std::span<cdouble> x, const CVec& twiddles) const {
  WIVI_REQUIRE(x.size() == n_, "buffer size does not match the FFT plan");
  const std::size_t n = n_;
  cdouble* const data = x.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const cdouble* tw = twiddles.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    for (std::size_t i = 0; i < n; i += len) {
      cdouble* const lo = data + i;
      cdouble* const hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const cdouble u = lo[k];
        const cdouble v = hi[k] * tw[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
    tw += half;
  }
}

void FftPlan::forward(std::span<cdouble> x) const { run(x, tw_fwd_); }

void FftPlan::inverse(std::span<cdouble> x) const {
  run(x, tw_inv_);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : x) v *= scale;
}

std::shared_ptr<const FftPlan> acquire_fft_plan(std::size_t n) {
  WIVI_REQUIRE(is_pow2(n), "FFT size must be a power of two");
  const std::uint64_t ints[1] = {static_cast<std::uint64_t>(n)};
  const plan::KeyRef key{plan::Kind::kFft, ints, {}, {}};
  const auto build = [](void* ctx) -> plan::Built {
    const std::size_t size = *static_cast<const std::size_t*>(ctx);
    auto p = std::make_shared<const FftPlan>(size);
    // Permutation + forward and inverse twiddle tables.
    const std::size_t bytes = size * sizeof(std::uint32_t) +
                              2 * (size > 1 ? size - 1 : 0) * sizeof(cdouble);
    return {std::move(p), bytes};
  };
  return std::static_pointer_cast<const FftPlan>(
      plan::registry().acquire(key, build, &n));
}

const FftPlan& fft_plan(std::size_t n) {
  WIVI_REQUIRE(is_pow2(n), "FFT size must be a power of two");
  // One handle slot per log2 size — a bounded per-thread memo over the
  // shared registry, so all threads use one plan per size and repeated
  // lookups skip even the registry probe.
  thread_local std::array<std::shared_ptr<const FftPlan>, 64> memo;
  auto& slot = memo[static_cast<std::size_t>(std::countr_zero(n))];
  if (!slot) slot = acquire_fft_plan(n);
  return *slot;
}

void fft(CVec& x) { fft_plan(x.size()).forward(x); }

void ifft(CVec& x) { fft_plan(x.size()).inverse(x); }

CVec ifft_copy(CSpan x) {
  CVec out(x.begin(), x.end());
  ifft(out);
  return out;
}

CVec fftshift(CSpan x) {
  const std::size_t n = x.size();
  CVec out(n);
  const std::size_t half = (n + 1) / 2;  // ceil: DC lands at floor(n/2)
  for (std::size_t i = 0; i < n; ++i) out[i] = x[(i + half) % n];
  return out;
}

}  // namespace wivi::dsp
