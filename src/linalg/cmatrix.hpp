// Dense complex matrix.
//
// Sized for the smoothed-MUSIC correlation matrices (w' x w', w' <= 100,
// paper §7.1) — a straightforward row-major dense implementation is exact
// and fast enough; no external BLAS/LAPACK dependency.
#pragma once

#include <cstddef>

#include "src/common/types.hpp"

namespace wivi::linalg {

class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] static CMatrix identity(std::size_t n);

  /// Outer product x * x^H (rank-one correlation term, Eq. 5.2).
  [[nodiscard]] static CMatrix outer(CSpan x);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] cdouble& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] cdouble operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Element access with bounds checking (throws InvalidArgument).
  [[nodiscard]] cdouble at(std::size_t r, std::size_t c) const;

  /// Contiguous row-major storage access: row r occupies
  /// [row(r), row(r) + cols()). Hot loops (the eigensolver's reflector
  /// updates) iterate these pointers instead of paying the operator()
  /// index arithmetic per element.
  [[nodiscard]] cdouble* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  [[nodiscard]] const cdouble* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] cdouble* data() noexcept { return data_.data(); }
  [[nodiscard]] const cdouble* data() const noexcept { return data_.data(); }

  /// Re-shape to rows x cols and zero-fill, reusing existing storage when
  /// the capacity suffices (no allocation on repeated same-size calls).
  void reshape(std::size_t rows, std::size_t cols);

  CMatrix& operator+=(const CMatrix& rhs);
  CMatrix& operator*=(cdouble scalar);

  [[nodiscard]] CMatrix operator*(const CMatrix& rhs) const;

  /// Matrix-vector product.
  [[nodiscard]] CVec operator*(CSpan x) const;

  /// Matrix-vector product into a caller-owned buffer (no allocation when
  /// out already has rows() elements).
  void multiply_into(CSpan x, CVec& out) const;

  /// Conjugate transpose.
  [[nodiscard]] CMatrix hermitian() const;

  /// Column `c` as a vector.
  [[nodiscard]] CVec column(std::size_t c) const;

  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Max |a_ij - conj(a_ji)| — how far from Hermitian this matrix is.
  [[nodiscard]] double hermitian_defect() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVec data_;
};

}  // namespace wivi::linalg
