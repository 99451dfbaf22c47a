#pragma once
// ReLU as two elementwise kernels over a batch. Nothing is kept between
// them: the backward pass masks with the recorded post-ReLU output, which
// is > 0 exactly where the input was.

#include "ml/matrix.hpp"

namespace airch::ml {

/// y = max(y, 0) in place (a NaN becomes 0).
void relu(Matrix& y);

/// grad *= (y > 0 ? 1 : 0) for the post-ReLU output `y`. A multiply, not a
/// select, so a masked negative gradient becomes -0.0f.
void relu_backward(const Matrix& y, Matrix& grad);

}  // namespace airch::ml
