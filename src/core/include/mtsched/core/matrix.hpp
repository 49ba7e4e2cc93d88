// Minimal dense row-major matrix used for small numeric tables (measured
// redistribution-overhead surfaces). Not a linear-algebra library; mtsched
// never multiplies real matrices, it only models their cost. Communication
// is sparse and never stored in one (see redist::RedistPlan).
#pragma once

#include <cstddef>
#include <vector>

#include "mtsched/core/error.hpp"

namespace mtsched::core {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    MTSCHED_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  const T& operator()(std::size_t r, std::size_t c) const {
    MTSCHED_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Sum of column c.
  T col_total(std::size_t c) const {
    MTSCHED_REQUIRE(c < cols_, "column index out of range");
    T s{};
    for (std::size_t r = 0; r < rows_; ++r) s += data_[r * cols_ + c];
    return s;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace mtsched::core
