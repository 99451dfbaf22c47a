#include "ml/dense.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : w(in_dim, out_dim), b(out_dim, 0.0f), w_grad(in_dim, out_dim), b_grad(out_dim, 0.0f) {
  if (in_dim == 0 || out_dim == 0) throw std::invalid_argument("zero-sized dense layer");
  w.init_glorot(rng);
}

Matrix Dense::backward(const Matrix& x, const Matrix& dy) {
  AIRCH_ASSERT(x.cols() == w.rows() && dy.rows() == x.rows() && dy.cols() == w.cols());
  matmul(x, true, dy, false, w_grad);
  column_sums(dy, b_grad);
  Matrix dx(dy.rows(), w.rows());
  matmul(dy, false, w, true, dx);
  return dx;
}

std::vector<ParamRef> Dense::params() {
  return {{w.data(), w_grad.data(), w.size()}, {b.data(), b_grad.data(), b.size()}};
}

std::vector<ConstParamRef> Dense::params() const {
  return {{w.data(), w.size()}, {b.data(), b.size()}};
}

}  // namespace airch::ml
