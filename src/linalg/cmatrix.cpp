#include "src/linalg/cmatrix.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace wivi::linalg {

CMatrix::CMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cdouble{0.0, 0.0}) {
  WIVI_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

CMatrix CMatrix::outer(CSpan x) {
  WIVI_REQUIRE(!x.empty(), "outer product of empty vector");
  const std::size_t n = x.size();
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = x[i] * std::conj(x[j]);
  return m;
}

void CMatrix::reshape(std::size_t rows, std::size_t cols) {
  WIVI_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, cdouble{0.0, 0.0});
}

cdouble CMatrix::at(std::size_t r, std::size_t c) const {
  WIVI_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

CMatrix& CMatrix::operator+=(const CMatrix& rhs) {
  WIVI_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "matrix sum size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

CMatrix& CMatrix::operator*=(cdouble scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

CMatrix CMatrix::operator*(const CMatrix& rhs) const {
  WIVI_REQUIRE(cols_ == rhs.rows_, "matrix product size mismatch");
  CMatrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cdouble aik = (*this)(i, k);
      if (aik == cdouble{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += aik * rhs(k, j);
    }
  }
  return out;
}

CVec CMatrix::operator*(CSpan x) const {
  CVec out;
  multiply_into(x, out);
  return out;
}

void CMatrix::multiply_into(CSpan x, CVec& out) const {
  WIVI_REQUIRE(cols_ == x.size(), "matrix-vector size mismatch");
  out.resize(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const cdouble* const r = row(i);
    cdouble acc{0.0, 0.0};
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * x[j];
    out[i] = acc;
  }
}

CMatrix CMatrix::hermitian() const {
  CMatrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = std::conj((*this)(i, j));
  return out;
}

CVec CMatrix::column(std::size_t c) const {
  WIVI_REQUIRE(c < cols_, "column index out of range");
  CVec out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, c);
  return out;
}

double CMatrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (const auto& v : data_) acc += norm2(v);
  return std::sqrt(acc);
}

double CMatrix::hermitian_defect() const noexcept {
  double worst = 0.0;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      worst = std::max(worst, std::abs((*this)(i, j) - std::conj((*this)(j, i))));
  return worst;
}

}  // namespace wivi::linalg
