// Window functions used by the spectral-analysis stages.
#pragma once

#include <memory>

#include "src/common/types.hpp"

namespace wivi::dsp {

enum class WindowType { kRectangular, kHann, kHamming, kBlackman, kTriangular };

/// Generate an n-point window of the given type.
///
/// `periodic = false` (default) gives the symmetric form (endpoints
/// mirror; the right choice for FIR design, where linear phase needs the
/// symmetry). `periodic = true` evaluates the same formula over n points
/// of a full period (equivalently: the first n points of the symmetric
/// (n+1)-window), which is the DFT/STFT convention — overlapped shifts of
/// a periodic Hann at hop = n/4 or n/2 sum to an exactly constant level
/// (COLA), whereas the symmetric form double-counts its endpoint seam.
[[nodiscard]] RVec make_window(WindowType type, std::size_t n,
                               bool periodic = false);

/// Shared handle to the registry-owned coefficient table for
/// (type, n, periodic) — exactly make_window()'s values, built once
/// process-wide (wivi::plan) and shared read-only across threads and
/// sessions.
[[nodiscard]] std::shared_ptr<const RVec> acquire_window(WindowType type,
                                                         std::size_t n,
                                                         bool periodic = false);

/// Multiply a complex buffer by a real window element-wise.
void apply_window(CVec& x, RSpan window);

}  // namespace wivi::dsp
