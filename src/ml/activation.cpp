#include "ml/activation.hpp"

#include <cstddef>

#include "common/check.hpp"

namespace airch::ml {

void relu(Matrix& y) {
  float* yd = y.data();
  const std::size_t cols = y.cols();
  // Pure elementwise op: row-partitioning is trivially deterministic.
  parallel_rows(y.rows(), cols, [yd, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) {
      if (!(yd[i] > 0.0f)) yd[i] = 0.0f;
    }
  });
}

void relu_backward(const Matrix& y, Matrix& grad) {
  AIRCH_ASSERT(grad.rows() == y.rows() && grad.cols() == y.cols());
  float* gd = grad.data();
  const float* yd = y.data();
  const std::size_t cols = grad.cols();
  parallel_rows(grad.rows(), cols, [gd, yd, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) gd[i] *= yd[i] > 0.0f ? 1.0f : 0.0f;
  });
}

}  // namespace airch::ml
