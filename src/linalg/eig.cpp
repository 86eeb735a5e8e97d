#include "src/linalg/eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/error.hpp"

namespace wivi::linalg {
namespace {

/// QL iterations allowed per eigenvalue (EISPACK's budget; two or three
/// are typical).
constexpr int kMaxQlIterations = 30;

// Complex products spelled out in real arithmetic: std::complex's
// operator* carries a NaN-recovery branch (C99 Annex G) that blocks
// vectorisation; it only matters for non-finite operands, which end in an
// error here anyway.

/// a * b.
inline cdouble mul(cdouble a, cdouble b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// a * conj(b).
inline cdouble mul_conj(cdouble a, cdouble b) noexcept {
  return {a.real() * b.real() + a.imag() * b.imag(),
          a.imag() * b.real() - a.real() * b.imag()};
}

/// sqrt(a^2 + b^2) without std::hypot's cost on the common path; falls
/// back to it when a square could have over- or underflowed.
double pythag(double a, double b) noexcept {
  const double r = std::sqrt(a * a + b * b);
  if (r > 1e-150 && r < 1e150) return r;
  return std::hypot(a, b);
}

/// Validate `a_in` (square, Hermitian to rounding) and copy its lower
/// triangle into `a`, forced exactly Hermitian: off-diagonal pairs are
/// averaged, the diagonal is made real.
void load_lower(const CMatrix& a_in, CMatrix& a) {
  WIVI_REQUIRE(a_in.rows() == a_in.cols(), "hermitian_eig needs a square matrix");
  const std::size_t n = a_in.rows();
  // Frobenius norm and Hermitian defect in one pass (squared comparisons,
  // no per-element sqrt).
  double fro2 = 0.0;
  double defect2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const cdouble* const row_i = a_in.row(i);
    fro2 += norm2(row_i[i]);
    defect2 = std::max(defect2, row_i[i].imag() * row_i[i].imag() * 4.0);
    for (std::size_t j = 0; j < i; ++j) {
      const cdouble aij = row_i[j];
      const cdouble aji = a_in(j, i);
      fro2 += norm2(aij) + norm2(aji);
      defect2 = std::max(defect2, norm2(aij - std::conj(aji)));
    }
  }
  WIVI_REQUIRE(defect2 <= 1e-18 * std::max(fro2, 1.0),
               "hermitian_eig input is not Hermitian");

  a.reshape(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const cdouble* const src_i = a_in.row(i);
    cdouble* const dst_i = a.row(i);
    for (std::size_t j = 0; j < i; ++j)
      dst_i[j] = 0.5 * (src_i[j] + std::conj(a_in(j, i)));
    dst_i[i] = src_i[i].real();
  }
}

/// Householder reduction of ws.a (lower triangle) to Hermitian tridiagonal
/// form, last row first. The reflector H_i = I - u u^H / h acts on indices
/// [0, i) and maps column i above the diagonal onto a multiple of e_{i-1};
/// u overwrites row i, h goes to ws.h[i] (0 when the row is already
/// reduced), and the resulting complex sub-diagonal T(i, i-1) is parked in
/// ws.phase[i] for set_real_tridiagonal().
void tridiagonalize(EigWorkspace& ws) {
  CMatrix& a = ws.a;
  const std::size_t n = a.rows();
  cdouble* const p = ws.p.data();
  ws.h[0] = 0.0;
  for (std::size_t i = n; i-- > 1;) {
    cdouble* const u = a.row(i);  // x = a(i, [0, i)); conj(x) is column i
    const std::size_t l = i - 1;
    double sigma = 0.0;
    for (std::size_t c = 0; c < l; ++c) sigma += norm2(u[c]);
    if (sigma == 0.0) {  // already reduced: no reflector for this row
      ws.h[i] = 0.0;
      ws.phase[i] = u[l];
      continue;
    }
    const double xl = std::abs(u[l]);
    const double g = std::sqrt(sigma + xl * xl);
    const cdouble unit = xl > 0.0 ? u[l] / xl : cdouble{1.0, 0.0};
    // u = w + (w_l / |w_l|) g e_l, so H w = -(w_l / |w_l|) g e_l and
    // u^H u = 2 h with h = g^2 + |w_l| g.
    const double h = g * g + xl * g;
    ws.h[i] = h;
    ws.phase[i] = -g * unit;
    for (std::size_t c = 0; c < l; ++c) u[c] = std::conj(u[c]);
    u[l] = std::conj(unit) * (xl + g);

    // B <- H B H on the leading i x i block B (lower triangle):
    //   p = B u / h,  q = p - (u^H p / 2h) u,  B <- B - u q^H - q u^H.
    std::fill(p, p + i, cdouble{});
    for (std::size_t r = 0; r < i; ++r) {
      const cdouble* const br = a.row(r);
      const cdouble ur = u[r];
      cdouble acc = br[r].real() * ur;
      for (std::size_t c = 0; c < r; ++c) {
        acc += mul(br[c], u[c]);        // B(r, c) u_c
        p[c] += mul_conj(ur, br[c]);    // B(c, r) u_r = conj(B(r, c)) u_r
      }
      p[r] += acc;
    }
    const double inv_h = 1.0 / h;
    double uhp = 0.0;  // u^H p: real, B is Hermitian
    for (std::size_t r = 0; r < i; ++r) {
      p[r] *= inv_h;
      uhp += u[r].real() * p[r].real() + u[r].imag() * p[r].imag();
    }
    const double k = 0.5 * uhp * inv_h;
    for (std::size_t r = 0; r < i; ++r) p[r] -= k * u[r];
    for (std::size_t r = 0; r < i; ++r) {
      cdouble* const br = a.row(r);
      const cdouble ur = u[r];
      const cdouble qr = p[r];
      for (std::size_t c = 0; c < r; ++c)
        br[c] -= mul_conj(ur, p[c]) + mul_conj(qr, u[c]);
      br[r] = br[r].real() -
              2.0 * (ur.real() * qr.real() + ur.imag() * qr.imag());
    }
  }
}

/// T = D S D^H with D = diag(phase) unitary and S real symmetric: with
/// phase[0] = 1 and phase[r] = phase[r-1] T(r, r-1) / |T(r, r-1)|, S has
/// T's diagonal and off-diagonal |T(r, r-1)|. Writes S into ws.d / ws.e.
void set_real_tridiagonal(EigWorkspace& ws) {
  const std::size_t n = ws.a.rows();
  for (std::size_t r = 0; r < n; ++r) ws.d[r] = ws.a(r, r).real();
  ws.phase[0] = 1.0;
  for (std::size_t r = 1; r < n; ++r) {
    const cdouble c = ws.phase[r];
    const double m = std::abs(c);
    ws.e[r - 1] = m;
    ws.phase[r] = m > 0.0 ? ws.phase[r - 1] * (c / m) : ws.phase[r - 1];
  }
  ws.e[n - 1] = 0.0;
}

/// Implicit-shift QL (EISPACK tql2) on the real symmetric tridiagonal
/// (d, e): d becomes the eigenvalues, zt row j the eigenvector of d[j].
/// Deflation is relative to the largest |d| + |e| seen, so eigenvalues are
/// accurate to ~eps * ||A||.
void tql2(EigWorkspace& ws) {
  const std::size_t n = ws.d.size();
  double* const d = ws.d.data();
  double* const e = ws.e.data();
  double* const zt = ws.zt.data();
  std::fill(ws.zt.begin(), ws.zt.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) zt[i * n + i] = 1.0;

  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    for (int iter = 0;; ++iter) {
      // First negligible off-diagonal at or after l (e[n-1] is zero; the
      // bound only matters for non-finite input, which then exhausts the
      // iteration budget instead of reading past the end).
      std::size_t m = l;
      while (m + 1 < n && tst1 + std::abs(e[m]) != tst1) ++m;
      if (m == l) break;
      if (iter == kMaxQlIterations)
        throw ComputeError("hermitian_eig: QL iterations exhausted");

      // Shift: the eigenvalue of the leading 2 x 2 nearer d[l].
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::copysign(pythag(p, 1.0), p);
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;

      // QL sweep over the unreduced block [l, m], bottom up.
      p = d[m];
      double c = 1.0;
      double c2 = 1.0;
      double c3 = 1.0;
      double s = 0.0;
      double s2 = 0.0;
      const double el1 = e[l + 1];
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = pythag(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        // Accumulate the rotation into columns i, i+1 of Z (rows of zt).
        double* const zi = zt + i * n;
        double* const zi1 = zi + n;
        for (std::size_t k = 0; k < n; ++k) {
          const double t = zi1[k];
          zi1[k] = s * zi[k] + c * t;
          zi[k] = c * zi[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

/// Eigenvector j (of the j-th largest eigenvalue) of the factored matrix:
/// y = H_{n-1} ... H_2 D z with z the tridiagonal eigenvector.
void back_transform(const EigWorkspace& ws, std::size_t j, cdouble* y) {
  const std::size_t n = ws.d.size();
  const double* const z = ws.zt.data() + ws.order[j] * n;
  for (std::size_t r = 0; r < n; ++r) y[r] = ws.phase[r] * z[r];
  for (std::size_t i = 2; i < n; ++i) {
    const double h = ws.h[i];
    if (h == 0.0) continue;
    const cdouble* const u = ws.a.row(i);
    cdouble s{0.0, 0.0};  // u^H y
    for (std::size_t c = 0; c < i; ++c) s += mul_conj(y[c], u[c]);
    s /= h;
    for (std::size_t c = 0; c < i; ++c) y[c] -= mul(u[c], s);
  }
}

}  // namespace

void hermitian_eig_factor(const CMatrix& a, EigWorkspace& ws, RVec& values) {
  load_lower(a, ws.a);
  const std::size_t n = ws.a.rows();
  values.resize(n);
  ws.h.resize(n);
  ws.phase.resize(n);
  ws.d.resize(n);
  ws.e.resize(n);
  ws.zt.resize(n * n);
  ws.p.resize(n);
  ws.order.resize(n);
  if (n == 0) return;

  tridiagonalize(ws);
  set_real_tridiagonal(ws);
  tql2(ws);
  // A NaN would break the sort's ordering; it can only come from
  // non-finite input that slipped past the Hermitian check.
  for (std::size_t i = 0; i < n; ++i)
    if (std::isnan(ws.d[i]))
      throw ComputeError("hermitian_eig: non-finite input");

  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::sort(ws.order.begin(), ws.order.end(),
            [&](std::size_t x, std::size_t y) { return ws.d[x] > ws.d[y]; });
  for (std::size_t j = 0; j < n; ++j) values[j] = ws.d[ws.order[j]];
}

void hermitian_eig_vectors(const EigWorkspace& ws, std::size_t k, CVec& rows) {
  const std::size_t n = ws.order.size();
  WIVI_REQUIRE(k <= n, "more eigenvectors requested than the matrix has");
  rows.resize(k * n);
  for (std::size_t j = 0; j < k; ++j) back_transform(ws, j, rows.data() + j * n);
}

EigResult hermitian_eig(const CMatrix& a) {
  EigResult result;
  EigWorkspace ws;
  hermitian_eig_into(a, result, ws);
  return result;
}

void hermitian_eig_into(const CMatrix& a, EigResult& out, EigWorkspace& ws) {
  hermitian_eig_factor(a, ws, out.values);
  const std::size_t n = out.values.size();
  out.vectors.reshape(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    back_transform(ws, j, ws.p.data());
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = ws.p[i];
  }
}

}  // namespace wivi::linalg
