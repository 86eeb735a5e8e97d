// Hermitian eigendecomposition shaped for smoothed MUSIC.
//
// MUSIC (paper Eq. 5.3) needs every eigenvalue of the w' x w' smoothed
// correlation — the model order is read off the spectrum — but only the
// eigenvectors of the `order` largest: for unit-norm steering the noise
// projection is ||E_n^H a||^2 = 1 - ||E_s^H a||^2, so the scan runs over
// the (usually 2-5) signal vectors. One kernel serves that shape in two
// phases:
//
//   1. factor: Householder reduction to Hermitian tridiagonal form (the
//      complex reflectors stay in the workspace), a diagonal phase scaling
//      that makes the off-diagonal real, and implicit-shift QL (tql2) on
//      the real symmetric tridiagonal, accumulating its n x n rotation
//      matrix. Yields all eigenvalues, sorted descending. O(n^3) with a
//      fixed, small constant — no data-dependent sweep count.
//   2. vectors: back-transform only the requested eigenvectors through the
//      phase scaling and the stored reflectors, O(n^2) each.
//
// Both phases are backward stable: eigenvalues come out within a small
// multiple of eps * ||A|| and eigenvectors orthonormal to the same order.
// hermitian_eig_into() is the k = n call of the same kernel.
#pragma once

#include <vector>

#include "src/common/types.hpp"
#include "src/linalg/cmatrix.hpp"

namespace wivi::linalg {

struct EigResult {
  /// Eigenvalues sorted in descending order (real: the input is Hermitian).
  RVec values;
  /// Unitary matrix whose column j is the eigenvector for values[j].
  CMatrix vectors;
};

/// Reusable scratch for the two-phase kernel. hermitian_eig_factor() fills
/// it; hermitian_eig_vectors() reads it. Holding one across calls (MUSIC
/// runs one decomposition per sliding-window position) makes repeated
/// same-size decompositions allocation-free.
struct EigWorkspace {
  CMatrix a;   ///< Working copy; row i ends up holding reflector u_i in [0, i).
  RVec h;      ///< Reflector scale per row (H_i = I - u_i u_i^H / h_i; 0 = none).
  CVec phase;  ///< Diagonal phase scaling that makes the tridiagonal real.
  RVec d;      ///< Tridiagonal diagonal, then the (unsorted) eigenvalues.
  RVec e;      ///< Real tridiagonal off-diagonal (e[i] couples i and i+1).
  RVec zt;     ///< QL rotations, transposed: row j = tridiagonal eigenvector j.
  CVec p;      ///< Reduction vector scratch (and one eigenvector, k = n).
  std::vector<std::size_t> order;  ///< Descending sort permutation of d.
};

/// Phase 1: factor the Hermitian matrix `a` into `ws` and write all its
/// eigenvalues, descending, into `values`. Throws InvalidArgument if `a` is
/// not square or is measurably non-Hermitian, ComputeError if QL exhausts
/// its iteration budget (never observed for genuine Hermitian input).
void hermitian_eig_factor(const CMatrix& a, EigWorkspace& ws, RVec& values);

/// Phase 2: the eigenvectors of the k largest eigenvalues of the matrix
/// last factored into `ws`, as k contiguous rows of n (row j belongs to
/// values[j]). No allocation when `rows` already has the capacity.
void hermitian_eig_vectors(const EigWorkspace& ws, std::size_t k, CVec& rows);

/// Full eigendecomposition of a Hermitian matrix (both phases, k = n).
[[nodiscard]] EigResult hermitian_eig(const CMatrix& a);

/// Same decomposition writing into caller-owned result + workspace; no
/// heap allocation when both already hold matching-size buffers.
void hermitian_eig_into(const CMatrix& a, EigResult& out, EigWorkspace& ws);

}  // namespace wivi::linalg
