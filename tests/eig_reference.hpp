// Reference Hermitian eigensolver for tests: cyclic complex Jacobi in
// long double, run to full convergence.
//
// An oracle that shares no code with linalg::hermitian_eig_*: different
// algorithm (plane rotations on the full matrix, no reduction), different
// precision (64-bit mantissa), and no early exit — sweeps continue until
// every off-diagonal element is negligible at long double precision, far
// below the double-precision rounding of the kernel under test. Slow
// (O(n^3) per sweep, ~10 sweeps), so tests call it on modest sizes.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/common/types.hpp"
#include "src/linalg/cmatrix.hpp"

namespace wivi::test {

using ldouble = long double;
using cldouble = std::complex<long double>;

struct ReferenceEig {
  std::size_t n = 0;
  /// Eigenvalues, descending.
  std::vector<ldouble> values;
  /// Row-major n x n; column j is the unit eigenvector of values[j].
  std::vector<cldouble> vectors;

  [[nodiscard]] cldouble vec(std::size_t i, std::size_t j) const {
    return vectors[i * n + j];
  }
};

/// Full eigendecomposition of the Hermitian matrix `in` (the strict upper
/// triangle is taken as the conjugate of the lower one).
inline ReferenceEig reference_eig(const linalg::CMatrix& in) {
  const std::size_t n = in.rows();
  std::vector<cldouble> a(n * n);
  std::vector<cldouble> v(n * n);
  ldouble fro2 = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    v[i * n + i] = 1.0L;
    for (std::size_t j = 0; j <= i; ++j) {
      const cldouble x(in(i, j).real(), i == j ? 0.0L : in(i, j).imag());
      a[i * n + j] = x;
      a[j * n + i] = std::conj(x);
      fro2 += (i == j ? 1.0L : 2.0L) * std::norm(x);
    }
  }
  // Negligible at long double precision: ~eps_ld^2 relative to ||A||_F.
  const ldouble tiny2 = fro2 * 1e-76L;

  // Every rotation lowers the off-diagonal norm, so it stalls only at the
  // rounding floor; that also ends the sweeps.
  constexpr int kMaxSweeps = 100;
  ldouble prev_off2 = fro2 + 1.0L;
  for (int sweep = 0;; ++sweep) {
    ldouble off2 = 0.0L;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off2 += std::norm(a[p * n + q]);
    if (off2 <= tiny2 || off2 >= prev_off2) break;
    prev_off2 = off2;
    if (sweep == kMaxSweeps)
      throw std::runtime_error("reference_eig: Jacobi did not converge");
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const cldouble apq = a[p * n + q];
        const ldouble g = std::abs(apq);
        if (g == 0.0L) continue;
        // G = diag(1, e^{-i phi}) * [[c, s], [-s, c]] on (p, q) makes the
        // (p, q) block of G^H A G diagonal (phi = arg a_pq).
        const cldouble ph = apq / g;
        const ldouble app = a[p * n + p].real();
        const ldouble aqq = a[q * n + q].real();
        const ldouble theta = (aqq - app) / (2.0L * g);
        const ldouble t = (theta >= 0.0L ? 1.0L : -1.0L) /
                          (std::abs(theta) + std::sqrt(theta * theta + 1.0L));
        const ldouble c = 1.0L / std::sqrt(t * t + 1.0L);
        const ldouble s = t * c;
        const cldouble phc = std::conj(ph);
        // A <- A G and V <- V G (columns p, q).
        for (std::size_t k = 0; k < n; ++k) {
          for (std::vector<cldouble>* m : {&a, &v}) {
            cldouble& xp = (*m)[k * n + p];
            cldouble& xq = (*m)[k * n + q];
            const cldouble kp = xp;
            const cldouble kq = xq;
            xp = c * kp - s * phc * kq;
            xq = s * kp + c * phc * kq;
          }
        }
        // A <- G^H A (rows p, q).
        for (std::size_t k = 0; k < n; ++k) {
          const cldouble pk = a[p * n + k];
          const cldouble qk = a[q * n + k];
          a[p * n + k] = c * pk - s * ph * qk;
          a[q * n + k] = s * pk + c * ph * qk;
        }
        a[p * n + q] = 0.0L;
        a[q * n + p] = 0.0L;
        a[p * n + p] = app - t * g;
        a[q * n + q] = aqq + t * g;
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * n + x].real() > a[y * n + y].real();
  });
  ReferenceEig out;
  out.n = n;
  out.values.resize(n);
  out.vectors.resize(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = a[order[j] * n + order[j]].real();
    for (std::size_t i = 0; i < n; ++i)
      out.vectors[i * n + j] = v[i * n + order[j]];
  }
  return out;
}

}  // namespace wivi::test
