// Unit tests for wivi::linalg - complex matrices and the Hermitian
// eigensolver (Householder tridiagonalisation + implicit QL) that powers
// smoothed MUSIC, checked against the long double Jacobi oracle in
// eig_reference.hpp and on degenerate spectra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eig_reference.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/music.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"

namespace wivi::linalg {
namespace {

CMatrix random_hermitian(std::size_t n, Rng& rng) {
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.gaussian();
    for (std::size_t j = i + 1; j < n; ++j) {
      const cdouble v = rng.complex_gaussian();
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  return a;
}

/// Random unitary: Gram-Schmidt over complex Gaussian columns.
CMatrix random_unitary(std::size_t n, Rng& rng) {
  CMatrix u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    CVec v(n);
    for (auto& x : v) x = rng.complex_gaussian();
    for (int pass = 0; pass < 2; ++pass) {  // re-orthogonalise once
      for (std::size_t k = 0; k < j; ++k) {
        cdouble dot{0.0, 0.0};
        for (std::size_t i = 0; i < n; ++i) dot += std::conj(u(i, k)) * v[i];
        for (std::size_t i = 0; i < n; ++i) v[i] -= dot * u(i, k);
      }
    }
    double norm = 0.0;
    for (const auto& x : v) norm += norm2(x);
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < n; ++i) u(i, j) = v[i] / norm;
  }
  return u;
}

/// U diag(lambda) U^H.
CMatrix with_spectrum(const CMatrix& u, const RVec& lambda) {
  const std::size_t n = lambda.size();
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      cdouble acc{0.0, 0.0};
      for (std::size_t k = 0; k < n; ++k)
        acc += u(i, k) * lambda[k] * std::conj(u(j, k));
      a(i, j) = acc;
    }
  return a;
}

/// Both entry points on `a`, with errors scaled by max(||A||_F, 1e-300):
///  - k = n (hermitian_eig_into): values descending, V unitary, and
///    A = V diag(values) V^H;
///  - two-phase with the top k: the same values, k orthonormal rows with
///    A v_j = values[j] v_j.
void expect_sound_decomposition(const CMatrix& a, std::size_t k,
                                double tol = 1e-12) {
  const std::size_t n = a.rows();
  const double scale = std::max(a.frobenius_norm(), 1e-300);
  const EigResult full = hermitian_eig(a);
  ASSERT_EQ(full.values.size(), n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    EXPECT_GE(full.values[i], full.values[i + 1]);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      cdouble vhv{0.0, 0.0};
      cdouble rec{0.0, 0.0};
      for (std::size_t m = 0; m < n; ++m) {
        vhv += std::conj(full.vectors(m, i)) * full.vectors(m, j);
        rec += full.vectors(i, m) * full.values[m] *
               std::conj(full.vectors(j, m));
      }
      ASSERT_NEAR(std::abs(vhv - (i == j ? 1.0 : 0.0)), 0.0, 1e-12)
          << i << "," << j;
      ASSERT_NEAR(std::abs(rec - a(i, j)) / scale, 0.0, tol) << i << "," << j;
    }

  EigWorkspace ws;
  RVec values;
  CVec rows;
  hermitian_eig_factor(a, ws, values);
  hermitian_eig_vectors(ws, k, rows);
  ASSERT_EQ(rows.size(), k * n);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(values[j], full.values[j]);
  for (std::size_t j = 0; j < k; ++j) {
    const cdouble* const vj = rows.data() + j * n;
    for (std::size_t i = 0; i < k; ++i) {
      cdouble dot{0.0, 0.0};
      for (std::size_t m = 0; m < n; ++m) dot += std::conj(rows[i * n + m]) * vj[m];
      ASSERT_NEAR(std::abs(dot - (i == j ? 1.0 : 0.0)), 0.0, 1e-12);
    }
    for (std::size_t i = 0; i < n; ++i) {
      cdouble av{0.0, 0.0};
      for (std::size_t m = 0; m < n; ++m) av += a(i, m) * vj[m];
      ASSERT_NEAR(std::abs(av - values[j] * vj[i]) / scale, 0.0, tol)
          << "vector " << j << " row " << i;
    }
  }
}

// ------------------------------------------------------------- CMatrix ---

TEST(CMatrix, IdentityTimesVectorIsVector) {
  const CMatrix id = CMatrix::identity(4);
  const CVec x = {{1, 2}, {3, -1}, {0, 0}, {-2, 5}};
  const CVec y = id * CSpan(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(CMatrix, OuterProductIsRankOneHermitian) {
  const CVec x = {{1, 1}, {2, -1}, {0, 3}};
  const CMatrix m = CMatrix::outer(x);
  EXPECT_NEAR(m.hermitian_defect(), 0.0, 1e-15);
  // Diagonal = |x_i|^2.
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(m(i, i).real(), norm2(x[i]), 1e-15);
  // m * x == ||x||^2 x (x is the only eigenvector with nonzero eigenvalue).
  double e = 0.0;
  for (const auto& v : x) e += norm2(v);
  const CVec mx = m * CSpan(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(mx[i] - e * x[i]), 0.0, 1e-12);
}

TEST(CMatrix, ProductMatchesHandComputation) {
  CMatrix a(2, 2);
  a(0, 0) = {1, 0};
  a(0, 1) = {0, 1};
  a(1, 0) = {2, 0};
  a(1, 1) = {0, 0};
  CMatrix b(2, 2);
  b(0, 0) = {0, 1};
  b(0, 1) = {1, 0};
  b(1, 0) = {1, 0};
  b(1, 1) = {0, -1};
  const CMatrix c = a * b;
  EXPECT_NEAR(std::abs(c(0, 0) - cdouble{0, 2}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(0, 1) - cdouble{2, 0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(1, 0) - cdouble{0, 2}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(1, 1) - cdouble{2, 0}), 0.0, 1e-15);
}

TEST(CMatrix, HermitianTransposeConjugates) {
  CMatrix a(2, 3);
  a(0, 2) = {1, 2};
  const CMatrix h = a.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_NEAR(std::abs(h(2, 0) - cdouble{1, -2}), 0.0, 1e-15);
}

TEST(CMatrix, SizeMismatchThrows) {
  CMatrix a(2, 3);
  CMatrix b(2, 3);
  EXPECT_THROW((void)(a * b), InvalidArgument);
  CMatrix c(2, 2);
  EXPECT_THROW(c += a, InvalidArgument);
}

TEST(CMatrix, AtChecksBounds) {
  CMatrix a(2, 2);
  EXPECT_THROW((void)a.at(2, 0), InvalidArgument);
  EXPECT_NO_THROW((void)a.at(1, 1));
}

// ----------------------------------------------------------------- Eig ---

TEST(Eig, DiagonalMatrixReturnsSortedDiagonal) {
  CMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  const EigResult r = hermitian_eig(a);
  EXPECT_DOUBLE_EQ(r.values[0], 5.0);
  EXPECT_DOUBLE_EQ(r.values[1], 3.0);
  EXPECT_DOUBLE_EQ(r.values[2], 1.0);
}

TEST(Eig, TwoByTwoKnownEigenvalues) {
  // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
  CMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = {0.0, 1.0};
  a(1, 0) = {0.0, -1.0};
  a(1, 1) = 2.0;
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
}

TEST(Eig, RejectsNonHermitian) {
  CMatrix a(2, 2);
  a(0, 1) = {1.0, 0.0};
  a(1, 0) = {5.0, 0.0};  // != conj(a(0,1))
  EXPECT_THROW((void)hermitian_eig(a), InvalidArgument);
}

TEST(Eig, RejectsNonSquare) {
  EXPECT_THROW((void)hermitian_eig(CMatrix(2, 3)), InvalidArgument);
}

TEST(Eig, NonFiniteInputIsATypedError) {
  // NaN fails the Hermitian check; an infinity passes it and then poisons
  // the QL iteration, which must end in ComputeError, not loop or overrun.
  CMatrix a = CMatrix::identity(4);
  a(2, 1) = std::nan("");
  EXPECT_THROW((void)hermitian_eig(a), InvalidArgument);
  a = CMatrix::identity(4);
  a(3, 0) = HUGE_VAL;
  a(0, 3) = HUGE_VAL;
  EXPECT_THROW((void)hermitian_eig(a), ComputeError);
  a = CMatrix::identity(4);
  a(0, 0) = HUGE_VAL;
  a(2, 0) = 0.5;
  a(0, 2) = 0.5;
  EXPECT_THROW((void)hermitian_eig(a), ComputeError);
}

// Property sweep over sizes: reconstruction, orthonormality, trace, and
// agreement with the independent long double Jacobi oracle.
class EigProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigProperty, ReconstructsAndIsUnitary) {
  Rng rng(GetParam() * 7919 + 1);
  const std::size_t n = GetParam();
  const CMatrix a = random_hermitian(n, rng);
  const EigResult r = hermitian_eig(a);

  // Against the oracle: eigenvalues to ~eps * ||A||, eigenvectors up to
  // phase (this sweep's spectra are simple).
  const test::ReferenceEig ref = test::reference_eig(a);
  const double fro = a.frobenius_norm();
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(r.values[j], static_cast<double>(ref.values[j]), 1e-13 * fro)
        << "value " << j;
    test::cldouble dot = 0.0L;
    for (std::size_t i = 0; i < n; ++i)
      dot += std::conj(ref.vec(i, j)) *
             test::cldouble(r.vectors(i, j).real(), r.vectors(i, j).imag());
    EXPECT_NEAR(static_cast<double>(std::abs(dot)), 1.0, 1e-9)
        << "vector " << j;
  }

  // Eigenvalues are sorted descending.
  for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_GE(r.values[i], r.values[i + 1]);

  // Trace is preserved.
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i).real();
  double eig_sum = 0.0;
  for (double v : r.values) eig_sum += v;
  EXPECT_NEAR(trace, eig_sum, 1e-9 * std::max(1.0, std::abs(trace)));

  // Columns are orthonormal: V^H V = I.
  const CMatrix vhv = r.vectors.hermitian() * r.vectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double expected = i == j ? 1.0 : 0.0;
      ASSERT_NEAR(std::abs(vhv(i, j)), expected, 1e-9);
    }
  }

  // A v_j = lambda_j v_j.
  for (std::size_t j = 0; j < n; ++j) {
    const CVec v = r.vectors.column(j);
    const CVec av = a * CSpan(v);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(std::abs(av[i] - r.values[j] * v[i]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 50));

TEST(Eig, RankOnePlusNoiseSeparatesSubspaces) {
  // The MUSIC use case in miniature: R = s s^H + sigma^2 I must yield one
  // dominant eigenvalue ~ ||s||^2 + sigma^2 and a flat noise floor.
  Rng rng(42);
  const std::size_t n = 16;
  CVec s(n);
  for (auto& v : s) v = rng.complex_gaussian();
  CMatrix r = CMatrix::outer(s);
  const double sigma2 = 0.01;
  for (std::size_t i = 0; i < n; ++i) r(i, i) += sigma2;

  const EigResult e = hermitian_eig(r);
  double s_energy = 0.0;
  for (const auto& v : s) s_energy += norm2(v);
  EXPECT_NEAR(e.values[0], s_energy + sigma2, 1e-9);
  for (std::size_t i = 1; i < n; ++i) EXPECT_NEAR(e.values[i], sigma2, 1e-9);
}

// ---------------------------------------------------- degenerate spectra ---

TEST(EigDegenerate, ZeroMatrix) {
  const CMatrix a(6, 6);
  expect_sound_decomposition(a, 3);
  const EigResult r = hermitian_eig(a);
  for (double v : r.values) EXPECT_EQ(v, 0.0);
}

TEST(EigDegenerate, DiagonalInputSkipsEveryReflector) {
  CMatrix a(7, 7);
  const RVec diag = {2.0, -1.0, 5.0, 0.0, 3.5, -4.0, 1.0};
  for (std::size_t i = 0; i < diag.size(); ++i) a(i, i) = diag[i];
  expect_sound_decomposition(a, 4);

  EigWorkspace ws;
  RVec values;
  hermitian_eig_factor(a, ws, values);
  for (double h : ws.h) EXPECT_EQ(h, 0.0);
  RVec sorted = diag;
  std::sort(sorted.rbegin(), sorted.rend());
  for (std::size_t i = 0; i < diag.size(); ++i) EXPECT_EQ(values[i], sorted[i]);
}

TEST(EigDegenerate, TridiagonalInputSkipsEveryReflector) {
  // Complex off-diagonal: only the phase scaling is needed.
  Rng rng(5);
  const std::size_t n = 9;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.gaussian();
    if (i + 1 < n) {
      const cdouble v = rng.complex_gaussian();
      a(i + 1, i) = v;
      a(i, i + 1) = std::conj(v);
    }
  }
  expect_sound_decomposition(a, 3);
  EigWorkspace ws;
  RVec values;
  hermitian_eig_factor(a, ws, values);
  for (double h : ws.h) EXPECT_EQ(h, 0.0);
}

TEST(EigDegenerate, ScaledIdentity) {
  const std::size_t n = 8;
  const double sigma2 = 0.37;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = sigma2;
  expect_sound_decomposition(a, 2);
  for (double v : hermitian_eig(a).values) EXPECT_EQ(v, sigma2);
}

TEST(EigDegenerate, ScaledIdentityPlusRankOne) {
  // n - 1 exactly repeated eigenvalues sigma^2 under one ||s||^2 + sigma^2.
  Rng rng(17);
  const std::size_t n = 12;
  CVec s(n);
  double energy = 0.0;
  for (auto& v : s) {
    v = rng.complex_gaussian();
    energy += norm2(v);
  }
  CMatrix a = CMatrix::outer(s);
  const double sigma2 = 0.05;
  for (std::size_t i = 0; i < n; ++i) a(i, i) += sigma2;
  expect_sound_decomposition(a, 1);
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.values[0], energy + sigma2, 1e-13 * energy);
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_NEAR(r.values[i], sigma2, 1e-13 * energy);
}

TEST(EigDegenerate, RankOneDcOnlySmoothedWindow) {
  // A window holding only the DC residual: every sub-array is the same
  // constant vector, so the smoothed correlation is exactly rank one.
  const core::SmoothedMusic music;
  const CVec window(static_cast<std::size_t>(music.config().isar.window),
                    cdouble{0.8, -0.3});
  const CMatrix r = music.smoothed_correlation(window);
  const auto n = static_cast<std::size_t>(music.config().subarray);
  expect_sound_decomposition(r, 1);
  const EigResult e = hermitian_eig(r);
  const double dc = static_cast<double>(n) * norm2(cdouble{0.8, -0.3});
  EXPECT_NEAR(e.values[0], dc, 1e-13 * dc);
  for (std::size_t i = 1; i < n; ++i) EXPECT_NEAR(e.values[i], 0.0, 1e-13 * dc);
}

TEST(EigDegenerate, HundredMillionToOneDynamicRange) {
  Rng rng(23);
  const std::size_t n = 32;
  RVec lambda(n);
  for (std::size_t i = 0; i < n; ++i)
    lambda[i] = std::pow(10.0, -8.0 * static_cast<double>(i) /
                                   static_cast<double>(n - 1));
  const CMatrix a = with_spectrum(random_unitary(n, rng), lambda);
  expect_sound_decomposition(a, 4);
  const EigResult r = hermitian_eig(a);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(r.values[i], lambda[i], 1e-13) << i;
}

TEST(EigDegenerate, SmallestSizes) {
  Rng rng(29);
  for (const std::size_t n : {1ul, 2ul, 3ul}) {
    const CMatrix a = random_hermitian(n, rng);
    for (std::size_t k = 0; k <= n; ++k) expect_sound_decomposition(a, k);
  }
}

}  // namespace
}  // namespace wivi::linalg
