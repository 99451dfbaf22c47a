#pragma once
// First-order optimizers over flat parameter views. The parameter list
// must be identical (same order, same sizes) on every step() call — Adam
// and momentum keep per-parameter state indexed by position.

#include <cstddef>
#include <memory>
#include <vector>

namespace airch::ml {

/// A view of one trainable parameter tensor and its gradient, consumed by
/// optimizers. The pointed-to storage lives inside the layer.
struct ParamRef {
  float* value = nullptr;
  float* grad = nullptr;
  std::size_t size = 0;
};

/// Read-only view of one parameter tensor (serialization path): no grad
/// pointer and no mutable access, so a const network can be saved without
/// const_cast.
struct ConstParamRef {
  const float* value = nullptr;
  std::size_t size = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using the gradients currently stored in `params`.
  virtual void step(const std::vector<ParamRef>& params) = 0;

  /// Learning-rate access for schedulers; changing it mid-training is
  /// safe for all optimizers here.
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  double lr_;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr = 0.01) : Optimizer(lr) {}
  void step(const std::vector<ParamRef>& params) override;
};

class SgdMomentum final : public Optimizer {
 public:
  explicit SgdMomentum(double lr = 0.01, double momentum = 0.9)
      : Optimizer(lr), momentum_(momentum) {}
  void step(const std::vector<ParamRef>& params) override;

 private:
  double momentum_;
  std::vector<std::vector<float>> velocity_;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8)
      : Optimizer(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void step(const std::vector<ParamRef>& params) override;

 private:
  double beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Per-epoch learning-rate schedules (epoch is 1-based).
struct ExponentialDecaySchedule {
  double initial = 1e-3;
  double decay = 0.9;  ///< lr = initial * decay^(epoch-1)
  double operator()(int epoch) const;
};

struct CosineSchedule {
  double initial = 1e-3;
  double floor = 0.0;
  int total_epochs = 10;  ///< lr anneals from initial to floor over this span
  double operator()(int epoch) const;
};

}  // namespace airch::ml
