// In-place radix-2 FFT/IFFT with precomputed plans.
//
// The OFDM PHY only ever needs power-of-two sizes (64 subcarriers, paper
// §7.1), so a plain iterative Cooley-Tukey is exact and dependency-free.
// Hot paths (the Doppler STFT, the OFDM modem) run the transform thousands
// of times per trace at a handful of fixed sizes, so the twiddle factors
// and the bit-reversal permutation are computed once per size in an
// `FftPlan` and reused; the legacy `fft()/ifft()` entry points are thin
// wrappers over a thread-local plan cache and keep their exact semantics.
#pragma once

#include <memory>
#include <span>

#include "src/common/types.hpp"

namespace wivi::dsp {

/// True iff n is a power of two (and > 0).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// A precomputed radix-2 transform of one fixed power-of-two size: the
/// bit-reversal permutation plus per-stage twiddle tables (each twiddle
/// evaluated directly from cos/sin, not by iterated multiplication, so the
/// plan is also more accurate than the textbook loop it replaces).
/// Executing a plan performs no heap allocation; buffers are caller-owned.
class FftPlan {
 public:
  /// Throws InvalidArgument unless n is a power of two.
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT of exactly size() samples (no scaling).
  void forward(std::span<cdouble> x) const;

  /// In-place inverse DFT of exactly size() samples with 1/N scaling.
  void inverse(std::span<cdouble> x) const;

 private:
  void run(std::span<cdouble> x, const CVec& twiddles) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> rev_;  // bit-reversal permutation
  CVec tw_fwd_;  // per-stage twiddles, packed: [len=2 | len=4 | ... | len=n]
  CVec tw_inv_;  // conjugate table for the inverse transform
};

/// Shared handle to the registry-owned plan for size n (wivi::plan): the
/// plan is built once process-wide, shared across every thread and
/// session, and the handle pins it past plan::Registry::clear(). Prefer
/// this for long-lived owners (e.g. a processor member);
/// hot loops that want a bare reference use fft_plan().
[[nodiscard]] std::shared_ptr<const FftPlan> acquire_fft_plan(std::size_t n);

/// Borrowed per-thread fast path over acquire_fft_plan(): a bounded
/// thread-local memo (one handle per power-of-two size) backed by the
/// shared plan registry — every thread resolves the same size to the same
/// registry-owned plan, and a registry hit is allocation-free. The
/// reference stays valid for the thread's lifetime (the memo's handle
/// pins the plan even across plan::Registry::clear()).
[[nodiscard]] const FftPlan& fft_plan(std::size_t n);

/// In-place forward DFT. `x.size()` must be a power of two.
/// Convention: X[k] = sum_n x[n] * exp(-j 2 pi k n / N), no scaling.
void fft(CVec& x);

/// In-place inverse DFT with 1/N scaling, so ifft(fft(x)) == x.
void ifft(CVec& x);

/// Out-of-place inverse DFT (same scaling as ifft()).
[[nodiscard]] CVec ifft_copy(CSpan x);

/// Rotate so the zero-frequency bin sits in the middle (plot ordering):
/// x[0] lands at index n/2 (floor), for even and odd n alike.
[[nodiscard]] CVec fftshift(CSpan x);

}  // namespace wivi::dsp
