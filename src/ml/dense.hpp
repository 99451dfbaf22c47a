#pragma once
// Fully-connected layer parameters for y = x W + b. The product itself is
// computed by FeedForwardNet::infer_logits; a Dense holds W and b, their
// gradients, and the backward pass over the input that forward pass saw.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"
#include "ml/optimizer.hpp"

namespace airch::ml {

struct Dense {
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  /// Given the input `x` of the forward pass and dL/dy, sets dW = xᵀ·dY and
  /// db = column sums of dY, and returns dX = dY·Wᵀ.
  Matrix backward(const Matrix& x, const Matrix& dy);

  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;

  Matrix w;               // in_dim x out_dim
  std::vector<float> b;   // out_dim
  Matrix w_grad;
  std::vector<float> b_grad;
};

}  // namespace airch::ml
