#pragma once
// Dense row-major float32 matrix — the numeric workhorse of the NN stack —
// plus the training/inference kernel layer (docs/performance.md): a
// cache-blocked, panel-packed, register-tiled matmul that parallelizes over
// output-row blocks and dispatches to the widest SIMD level the CPU offers,
// while staying bit-identical to the retained reference ikj loop (every C
// element keeps its exact p-ascending float accumulation order, and the
// zero-skip semantics for ReLU-zeroed activations are preserved).

#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace airch::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    AIRCH_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    AIRCH_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  /// Glorot-uniform initialization for weight matrices.
  void init_glorot(Rng& rng);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Process-wide selector for the ML kernel paths. kFast (the default)
/// routes matmul through the blocked/packed microkernel and enables the
/// deterministic parallel element loops (embedding, activation, loss);
/// kNaive forces the original single-threaded reference paths everywhere.
/// Both modes produce bit-identical results — the switch exists so
/// benchmarks and tests can A/B the two paths on the same computation
/// (TrainingTrajectory in tests/test_models.cpp pins whole fits).
/// The flag is read atomically but is intended to be set once up front,
/// not toggled mid-training.
enum class KernelMode { kNaive, kFast };
void set_kernel_mode(KernelMode mode);
KernelMode kernel_mode();

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// Shapes are checked with assert; callers size C beforehand. Dispatches
/// to the blocked kernel or the reference loop per kernel_mode(); results
/// are bit-identical either way (property-tested in
/// tests/test_matmul_kernel.cpp).
void matmul(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
            float alpha = 1.0f, float beta = 0.0f);

/// The original single-threaded ikj loop, retained verbatim as the
/// reference implementation the blocked kernel is bit-compared against.
/// Semantics contract: a term whose scaled A operand `alpha * op(A)(i,p)`
/// equals zero is SKIPPED, not accumulated — a ReLU-zeroed
/// activation row contributes exactly +0.0f to C, never -0.0f and never a
/// NaN from 0 * inf (pinned by the ZeroRow tests).
void matmul_reference(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
                      float alpha = 1.0f, float beta = 0.0f);

/// Deterministic helper for the per-batch element loops (embedding,
/// activation, loss): invokes fn(begin, end) over disjoint static row
/// chunks covering [0, rows). Splits across workers only when the kernel
/// mode is kFast AND rows * work_per_row (an approximate scalar-op count)
/// is large enough to amortize thread spawns; otherwise runs inline.
/// Row-partitioning keeps every per-row computation on a single thread in
/// its original order, so results are bit-identical to the serial loop.
void parallel_rows(std::size_t rows, std::size_t work_per_row,
                   const std::function<void(std::size_t, std::size_t)>& fn);

/// y += row_vector broadcast over rows of y (bias add).
void add_row_broadcast(Matrix& y, const std::vector<float>& row);

/// out[j] = sum over rows of m(:, j) (bias gradient reduction).
void column_sums(const Matrix& m, std::vector<float>& out);

}  // namespace airch::ml
