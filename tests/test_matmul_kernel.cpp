// Bit-identity property suite for the blocked/packed matmul kernel
// (src/ml/matrix.cpp) against the retained reference ikj loop, plus the
// zero-skip contract pins and a concurrent-training stress that makes
// `ctest -L tsan` exercise the row-parallel kernel with real threads.
//
// The fast path must match matmul_reference BIT FOR BIT on every shape,
// transpose combination, and alpha/beta pair — including operands with
// dropout/ReLU-style random zeros, which flip the kernel between its
// branchy and branch-free flavours.

#include "ml/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/network.hpp"
#include "ml/optimizer.hpp"

namespace {

using airch::ml::KernelMode;
using airch::ml::Matrix;
using airch::ml::matmul;
using airch::ml::matmul_reference;
using airch::ml::set_kernel_mode;

/// RAII guard so a failing test cannot leave the process-wide mode flipped.
class KernelModeGuard {
 public:
  explicit KernelModeGuard(KernelMode m) : saved_(airch::ml::kernel_mode()) {
    set_kernel_mode(m);
  }
  ~KernelModeGuard() { set_kernel_mode(saved_); }

 private:
  KernelMode saved_;
};

void fill_random(Matrix& m, std::mt19937& rng, double zero_fraction) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::bernoulli_distribution zero(zero_fraction);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = zero(rng) ? 0.0f : dist(rng);
  }
}

bool bit_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// One randomized case: build op(A) (m x k), op(B) (k x n), a shared C
/// seed, and bit-compare the fast kernel against the reference.
void check_case(std::mt19937& rng, std::size_t m, std::size_t k, std::size_t n, bool trans_a,
                bool trans_b, float alpha, float beta, double zero_fraction) {
  Matrix a(trans_a ? k : m, trans_a ? m : k);
  Matrix b(trans_b ? n : k, trans_b ? k : n);
  fill_random(a, rng, zero_fraction);
  fill_random(b, rng, 0.0);
  Matrix c_seed(m, n);
  fill_random(c_seed, rng, 0.0);

  Matrix c_ref = c_seed;
  matmul_reference(a, trans_a, b, trans_b, c_ref, alpha, beta);

  Matrix c_fast = c_seed;
  {
    KernelModeGuard guard(KernelMode::kFast);
    matmul(a, trans_a, b, trans_b, c_fast, alpha, beta);
  }
  ASSERT_TRUE(bit_equal(c_ref, c_fast))
      << "m=" << m << " k=" << k << " n=" << n << " ta=" << trans_a << " tb=" << trans_b
      << " alpha=" << alpha << " beta=" << beta << " zf=" << zero_fraction;
}

TEST(MatmulKernel, BitIdenticalOnRandomShapes) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<std::size_t> dim(1, 65);
  const float alphas[] = {1.0f, 0.5f, -1.25f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 0.3f};
  const double zero_fractions[] = {0.0, 0.5, 0.95};
  int case_index = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t m = dim(rng);
    const std::size_t k = dim(rng);
    const std::size_t n = dim(rng);
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const float alpha = alphas[static_cast<std::size_t>(case_index) % 4];
        const float beta = betas[static_cast<std::size_t>(case_index) % 3];
        const double zf = zero_fractions[static_cast<std::size_t>(case_index) % 3];
        ++case_index;
        check_case(rng, m, k, n, trans_a, trans_b, alpha, beta, zf);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MatmulKernel, BitIdenticalAboveTinyShapeCutoff) {
  // Shapes big enough to engage the blocked kernel, panel tails included.
  std::mt19937 rng(7);
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{64, 64, 64}, {65, 33, 97}, {128, 64, 37}, {96, 128, 256}};
  for (const auto& s : shapes) {
    for (double zf : {0.0, 0.5}) {
      check_case(rng, s.m, s.k, s.n, false, false, 1.0f, 0.0f, zf);
      check_case(rng, s.m, s.k, s.n, true, false, 1.0f, 0.0f, zf);
      check_case(rng, s.m, s.k, s.n, false, true, 0.5f, 0.3f, zf);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MatmulKernel, BitIdenticalWhenOnlyTheRowTailRuns) {
  // 2..7 output rows above the tiny cutoff: no full MR-row block exists,
  // so the whole product runs through the streaming row tail. 4 x 256 x
  // 1944 is the serving shape (a 4-query batch against the case-3 output
  // layer).
  std::mt19937 rng(23);
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{2, 64, 300}, {3, 129, 97}, {4, 256, 1944}, {5, 40, 257}, {7, 33, 200}};
  for (const auto& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        check_case(rng, s.m, s.k, s.n, trans_a, trans_b, 1.0f, 0.0f, 0.5);
        check_case(rng, s.m, s.k, s.n, trans_a, trans_b, 0.75f, 0.3f, 0.5);
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// Bit-compares the fast kernel against the reference for op(A) m x k
/// (untransposed, with row `zero_row` all zeros) and a given op(B).
void check_against_reference(std::mt19937& rng, const Matrix& b, bool trans_b, std::size_t m,
                             std::size_t zero_row) {
  const std::size_t k = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  Matrix a(m, k);
  fill_random(a, rng, 0.3);
  for (std::size_t p = 0; p < k; ++p) a(zero_row, p) = 0.0f;
  Matrix c_ref(m, n);
  matmul_reference(a, false, b, trans_b, c_ref);
  Matrix c_fast(m, n);
  {
    KernelModeGuard guard(KernelMode::kFast);
    matmul(a, false, b, trans_b, c_fast);
  }
  ASSERT_TRUE(bit_equal(c_ref, c_fast)) << "m=" << m << " tb=" << trans_b;
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(c_fast(zero_row, j), 0.0f) << "column " << j;
    ASSERT_FALSE(std::signbit(c_fast(zero_row, j))) << "column " << j;
  }
}

TEST(MatmulKernel, NonFiniteTransposedBFallsBackToTheSkipKernel) {
  // A NaN or an infinity anywhere in B makes the branch-free kernel
  // unsafe (0 * inf and 0 * NaN are NaN), so the probe must see it in a
  // transposed B too. One poisoned element per output column keeps the
  // NaN payloads independent of operand order.
  std::mt19937 rng(29);
  for (const float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()}) {
    for (std::size_t m : {std::size_t{4}, std::size_t{40}}) {
      Matrix b(96, 64);  // op(B) = b^T is 64 x 96: above the tiny cutoff at m = 4
      fill_random(b, rng, 0.0);
      b(5, 17) = poison;
      b(40, 2) = poison;
      check_against_reference(rng, b, true, m, 3);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MatmulKernel, LargestAndSmallestFiniteBTakeTheBranchFreeKernel) {
  // FLT_MAX and the largest subnormal are finite, so the probe must admit
  // them, and the branch-free kernel (m = 40 has full MR-row blocks) must
  // still match the reference: a zero A operand times either is a zero
  // that cannot change the sum. m = 4 is all row tail, which always skips.
  std::mt19937 rng(31);
  const float largest_subnormal =
      std::nextafter(std::numeric_limits<float>::min(), 0.0f);
  for (bool trans_b : {false, true}) {
    for (std::size_t m : {std::size_t{4}, std::size_t{40}}) {
      Matrix b(trans_b ? 96 : 64, trans_b ? 64 : 96);  // op(B) is 64 x 96
      fill_random(b, rng, 0.0);
      for (std::size_t j = 0; j < 96; ++j) {
        float& e = trans_b ? b(j, j % 64) : b(j % 64, j);
        e = j % 2 == 0 ? std::numeric_limits<float>::max() : largest_subnormal;
        if (j % 4 == 1) e = -e;
      }
      check_against_reference(rng, b, trans_b, m, 3);
      if (HasFatalFailure()) return;
    }
  }
}

#ifndef NDEBUG
TEST(MatmulKernel, OutputAliasingAnOperandIsAContractViolation) {
  // The blocked kernel reads op(B) in place after C has been scaled, so an
  // output that is also an operand would be read half-overwritten.
  KernelModeGuard guard(KernelMode::kFast);
  std::mt19937 rng(37);
  Matrix x(64, 64);
  Matrix y(64, 64);
  fill_random(x, rng, 0.0);
  fill_random(y, rng, 0.0);
  EXPECT_THROW(matmul(x, false, y, false, y), airch::ContractViolation);
  EXPECT_THROW(matmul(y, false, x, false, y), airch::ContractViolation);
}
#endif

// The zero-skip contract (matrix.hpp): a term whose scaled A operand is
// zero is skipped, never accumulated. These pins are load-bearing for the
// network layers — dropout/ReLU hand the kernel rows full of zeros — and
// for serialization, where -0.0f vs +0.0f would round-trip differently.
TEST(MatmulKernel, ZeroRowInAContributesExactlyPositiveZero) {
  KernelModeGuard guard(KernelMode::kFast);
  std::mt19937 rng(11);
  Matrix a(48, 40);
  fill_random(a, rng, 0.3);
  for (std::size_t p = 0; p < a.cols(); ++p) a(7, p) = 0.0f;  // the dropped row
  Matrix b(40, 96);
  fill_random(b, rng, 0.0);
  // Negative B values make any accumulated product -0.0f-prone: the row
  // result is exactly +0.0f only if every term was truly skipped.
  Matrix c(48, 96);
  matmul(a, false, b, false, c);
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_EQ(c(7, j), 0.0f);
    ASSERT_FALSE(std::signbit(c(7, j))) << "zero row produced -0.0f at column " << j;
  }
}

TEST(MatmulKernel, ZeroRowNeverProducesNanFromInfinity) {
  // 0 * inf would be NaN if the zero terms were multiplied through; the
  // contract says they are skipped, so an all-zero A row stays +0.0f even
  // against an infinite B.
  KernelModeGuard guard(KernelMode::kFast);
  std::mt19937 rng(13);
  Matrix a(40, 36);
  fill_random(a, rng, 0.5);
  for (std::size_t p = 0; p < a.cols(); ++p) a(3, p) = 0.0f;
  Matrix b(36, 64);
  fill_random(b, rng, 0.0);
  b(17, 5) = std::numeric_limits<float>::infinity();
  b(2, 40) = -std::numeric_limits<float>::infinity();
  Matrix c(40, 64);
  matmul(a, false, b, false, c);
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_FALSE(std::isnan(c(3, j))) << "0 * inf leaked into the dropped row at " << j;
    ASSERT_EQ(c(3, j), 0.0f);
    ASSERT_FALSE(std::signbit(c(3, j)));
  }
  // And the whole result still matches the reference bit for bit.
  Matrix c_ref(40, 64);
  matmul_reference(a, false, b, false, c_ref);
  ASSERT_TRUE(bit_equal(c_ref, c));
}

TEST(MatmulKernel, BetaPreservesNegativeZeroInC) {
  // With beta == 1 and a zero A row, C's row must pass through untouched —
  // including a -0.0f, which an `acc += +0.0f` would silently flip.
  KernelModeGuard guard(KernelMode::kFast);
  std::mt19937 rng(17);
  Matrix a(33, 40);
  fill_random(a, rng, 0.4);
  for (std::size_t p = 0; p < a.cols(); ++p) a(9, p) = 0.0f;
  Matrix b(40, 48);
  fill_random(b, rng, 0.0);
  Matrix c(33, 48);
  for (std::size_t j = 0; j < c.cols(); ++j) c(9, j) = -0.0f;
  Matrix c_ref = c;
  matmul_reference(a, false, b, false, c_ref, 1.0f, 1.0f);
  matmul(a, false, b, false, c, 1.0f, 1.0f);
  ASSERT_TRUE(bit_equal(c_ref, c));
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_TRUE(std::signbit(c(9, j))) << "-0.0f flipped to +0.0f at column " << j;
  }
}

// Concurrent-training stress (tsan label): several threads each drive an
// independent FeedForwardNet through training batches while the kernel
// mode is kFast and AIRCH_THREADS forces the row-parallel matmul to fork
// its own nested workers. Per-thread nets share no state, so TSan flags
// any accidental sharing inside the kernel layer (packing scratch,
// dispatch statics, worker handoff).
TEST(MatmulKernel, ConcurrentTrainingIsRaceFreeAndDeterministic) {
  KernelModeGuard guard(KernelMode::kFast);
  ASSERT_EQ(setenv("AIRCH_THREADS", "4", 1), 0);
  constexpr int kThreads = 3;
  constexpr int kSteps = 4;
  std::vector<std::vector<float>> first_weights(kThreads);
  auto run = [&](int tid, std::vector<float>& out) {
    airch::Rng rng(1234);
    airch::ml::FeedForwardNet net(64, {96}, 10, rng);
    airch::ml::Adam opt(1e-3);
    std::mt19937 data_rng(99);  // same seed on every thread
    Matrix x(32, 64);
    std::vector<std::int32_t> y(32);
    for (int step = 0; step < kSteps; ++step) {
      fill_random(x, data_rng, 0.5);
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = static_cast<std::int32_t>((i + static_cast<std::size_t>(step)) % 10);
      }
      (void)net.train_batch(x, y, opt);  // training for the side effect; stats unused
    }
    const auto params = net.params();
    for (const auto& p : params) out.insert(out.end(), p.value, p.value + p.size);
    (void)tid;
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // airch-lint: allow(raw-thread) — stress test intentionally drives the
  // kernel layer from plain threads outside the parallel_for pool.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, t, std::ref(first_weights[static_cast<std::size_t>(t)]));
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(unsetenv("AIRCH_THREADS"), 0);
  // Identical seeds + bit-identical kernels => identical weights on every
  // thread, byte for byte.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(first_weights[0].size(), first_weights[static_cast<std::size_t>(t)].size());
    ASSERT_TRUE(std::memcmp(first_weights[0].data(),
                            first_weights[static_cast<std::size_t>(t)].data(),
                            first_weights[0].size() * sizeof(float)) == 0)
        << "thread " << t << " diverged";
  }
}

}  // namespace
