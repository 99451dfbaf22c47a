#include "ml/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/parallel.hpp"

namespace airch::ml {

void Matrix::init_glorot(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& v : data_) v = static_cast<float>(rng.uniform(-limit, limit));
}

namespace {

// Process-wide kernel dispatch flag. A deliberate escape hatch from the
// capability analysis (common/sync.hpp): a lone atomic word with relaxed
// ordering is the whole protocol — readers only ever pick a code path, and
// both paths produce bit-identical results, so no mutex and no GUARDED_BY.
// The other concurrency-adjacent state in this TU is likewise lock-free by
// construction: tile_kernel's function-local statics resolve through the
// C++11 magic-statics guarantee, and the pack scratch is thread_local.
std::atomic<KernelMode> g_kernel_mode{KernelMode::kFast};

/// Scale-or-clear prologue shared by both matmul paths: C = beta * C.
void apply_beta(Matrix& c, float beta) {
  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= beta;
  }
}

}  // namespace

void set_kernel_mode(KernelMode mode) { g_kernel_mode.store(mode, std::memory_order_relaxed); }

KernelMode kernel_mode() { return g_kernel_mode.load(std::memory_order_relaxed); }

void parallel_rows(std::size_t rows, std::size_t work_per_row,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  if (rows == 0) return;
  if (kernel_mode() == KernelMode::kFast) {
    // Each worker should shoulder a few million scalar ops before a thread
    // spawn pays for itself; below that the serial loop wins outright.
    constexpr std::size_t kMinWorkPerWorker = std::size_t{2} << 20;
    const std::size_t total = rows * std::max<std::size_t>(work_per_row, 1);
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        hardware_threads(), std::max<std::size_t>(total / kMinWorkPerWorker, 1)));
    if (workers > 1) {
      parallel_for(rows, workers, fn);
      return;
    }
  }
  fn(0, rows);
}

void matmul_reference(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
                      float alpha, float beta) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t k2 = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  AIRCH_DCHECK(k == k2, "matmul inner dimensions must agree");
  (void)k2;
  AIRCH_DCHECK(c.rows() == m && c.cols() == n, "matmul output must be pre-sized to m x n");

  apply_beta(c, beta);

  // ikj loop order keeps the innermost accesses contiguous for the
  // untransposed cases; the transposed variants fall back to strided reads
  // of one operand. The zero-skip is load-bearing: see matmul_reference's
  // header contract.
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float a_val = alpha * (trans_a ? a(p, i) : a(i, p));
      if (a_val == 0.0f) continue;
      if (!trans_b) {
        const float* b_row = b.row(p);
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
      } else {
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b(j, p);
      }
    }
  }
}

namespace {

// ---------------------------------------------------------------- blocked
// The fast path packs alpha * op(A) into a row-major m x k panel, reads
// op(B) as a row-major k x n panel (B itself when untransposed, a packed
// copy otherwise), then runs a register-tiled kernel over MR-row output
// blocks. Bit-identity with the reference loop holds because
// every C element still accumulates its terms in ascending-p order with
// the identical `scaled A operand == 0 -> skip` test on the identical
// float value — blocking, packing, register accumulation, and row
// parallelism only change WHERE the operands are read from and which
// thread owns a row, never the per-element float operation sequence.
//
// Two kernel flavours exist, chosen per call:
//
//  * SKIP: keeps the reference's `v != 0.0f` branch. Always bit-safe, but
//    ReLU-zeroed operands (~50% zeros, randomly placed) make that
//    branch unpredictable, and the mispredict costs more than the NR
//    multiply-adds it skips.
//  * NOSKIP: no branch — zero terms are multiplied through. This is
//    bit-identical to skipping *provided* beta == 0 and the B panel is
//    free of inf/NaN: accumulators then start at +0.0f and addition of
//    finite values can only produce -0.0f from (-0.0f)+(-0.0f), which is
//    unreachable from a +0.0f start, so the extra `acc += 0.0f*b` terms
//    (`== ±0.0f`) never change a single bit, and with no infinities the
//    0*inf -> NaN hazard the skip exists to prevent cannot occur. Every
//    nonzero term is the same multiply and add as the reference's.
//    matmul_blocked probes both preconditions and falls back to SKIP when
//    either fails, so the documented zero-skip contract always holds.
//
// (A pack-time nonzero-compaction variant — per-row (p, value) streams —
// was prototyped for the sparse operands and measured several times
// SLOWER than either tile on the target hardware: the indexed B-row loads
// defeat hardware prefetch and the nonzero stream is re-read once per
// NR-column strip.)
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 32;

// The kernel body is stamped out once per SIMD level and skip flavour
// below. Plain loops only: the per-target function attributes let the
// auto-vectorizer use wider registers without intrinsics. fp-contract is
// forced off in the fast-path attributes because a fused multiply-add
// rounds once where the reference's separate multiply and add round twice
// — FMA contraction would silently break bit-identity
// (tests/test_matmul_kernel.cpp catches this on random data).
//
// An MR x NR tile of C lives in acc[][] across the whole k loop, so each
// C element is loaded and stored once instead of once per p (a streaming
// kernel is store-port-bound). ZSKIP(v) is `(v) != 0.0f` for the SKIP
// flavour and `true` for NOSKIP.
//
// The fewer-than-MR rows past the last full block stream instead: p outer,
// so the B panel is walked once, row by contiguous row, for all of them
// together, while their C rows stay in cache (at most 7 rows; 7.6 KB each
// for the widest output layer). A 4-query serving batch is all tail. (A per-strip register tile for the tail was measured
// and rejected: each 32-column strip walks B with a stride of n floats,
// one page per step for the wide output layers, which defeats the
// hardware prefetcher.)
#define AIRCH_MATMUL_TILE_BODY(ZSKIP)                                                   \
  for (std::size_t i = rb; i + kMR <= re; i += kMR) {                                   \
    for (std::size_t j0 = 0; j0 + kNR <= n; j0 += kNR) {                                \
      float acc[kMR][kNR];                                                              \
      for (std::size_t t = 0; t < kMR; ++t)                                             \
        for (std::size_t j = 0; j < kNR; ++j) acc[t][j] = c[(i + t) * n + j0 + j];      \
      for (std::size_t p = 0; p < k; ++p) {                                             \
        const float* bp = bpanel + p * n + j0;                                          \
        for (std::size_t t = 0; t < kMR; ++t) {                                         \
          const float v = apack[(i + t) * k + p];                                       \
          if (ZSKIP(v))                                                                 \
            for (std::size_t j = 0; j < kNR; ++j) acc[t][j] += v * bp[j];               \
        }                                                                               \
      }                                                                                 \
      for (std::size_t t = 0; t < kMR; ++t)                                             \
        for (std::size_t j = 0; j < kNR; ++j) c[(i + t) * n + j0 + j] = acc[t][j];      \
    }                                                                                   \
    const std::size_t jt = (n / kNR) * kNR;                                             \
    if (jt < n) {                                                                       \
      for (std::size_t p = 0; p < k; ++p) {                                             \
        const float* bp = bpanel + p * n;                                               \
        for (std::size_t t = 0; t < kMR; ++t) {                                         \
          const float v = apack[(i + t) * k + p];                                       \
          float* cr = c + (i + t) * n;                                                  \
          if (ZSKIP(v))                                                                 \
            for (std::size_t j = jt; j < n; ++j) cr[j] += v * bp[j];                    \
        }                                                                               \
      }                                                                                 \
    }                                                                                   \
  }                                                                                     \
  for (std::size_t p = 0; p < k; ++p) {                                                 \
    const float* bp = bpanel + p * n;                                                   \
    for (std::size_t i = re - (re - rb) % kMR; i < re; ++i) {                           \
      const float v = apack[i * k + p];                                                 \
      float* cr = c + i * n;                                                            \
      if (ZSKIP(v))                                                                     \
        for (std::size_t j = 0; j < n; ++j) cr[j] += v * bp[j];                         \
    }                                                                                   \
  }

#define AIRCH_ZTEST(v) ((v) != 0.0f)
#define AIRCH_ZALWAYS(v) true

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define AIRCH_MATMUL_MULTIVERSION 1
#else
#define AIRCH_MATMUL_MULTIVERSION 0
#endif

#if AIRCH_MATMUL_MULTIVERSION
__attribute__((target("avx512f,prefer-vector-width=512"), optimize("fp-contract=off"))) void
tile_skip_avx512(const float* apack, const float* bpanel, float* c, std::size_t rb,
                 std::size_t re, std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZTEST)
}

__attribute__((target("avx2"), optimize("fp-contract=off"))) void tile_skip_avx2(
    const float* apack, const float* bpanel, float* c, std::size_t rb, std::size_t re,
    std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZTEST)
}

__attribute__((optimize("fp-contract=off"))) void tile_skip_base(
    const float* apack, const float* bpanel, float* c, std::size_t rb, std::size_t re,
    std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZTEST)
}

__attribute__((target("avx512f,prefer-vector-width=512"), optimize("fp-contract=off"))) void
tile_noskip_avx512(const float* apack, const float* bpanel, float* c, std::size_t rb,
                   std::size_t re, std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZALWAYS)
}

__attribute__((target("avx2"), optimize("fp-contract=off"))) void tile_noskip_avx2(
    const float* apack, const float* bpanel, float* c, std::size_t rb, std::size_t re,
    std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZALWAYS)
}

__attribute__((optimize("fp-contract=off"))) void tile_noskip_base(
    const float* apack, const float* bpanel, float* c, std::size_t rb, std::size_t re,
    std::size_t k, std::size_t n) {
  AIRCH_MATMUL_TILE_BODY(AIRCH_ZALWAYS)
}

using TileKernelFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t,
                              std::size_t, std::size_t);

TileKernelFn select_tile_kernel(bool noskip) {
  if (__builtin_cpu_supports("avx512f")) return noskip ? tile_noskip_avx512 : tile_skip_avx512;
  if (__builtin_cpu_supports("avx2")) return noskip ? tile_noskip_avx2 : tile_skip_avx2;
  return noskip ? tile_noskip_base : tile_skip_base;
}

void tile_kernel(const float* apack, const float* bpanel, float* c, std::size_t rb,
                 std::size_t re, std::size_t k, std::size_t n, bool noskip) {
  static const TileKernelFn skip_fn = select_tile_kernel(false);
  static const TileKernelFn noskip_fn = select_tile_kernel(true);
  (noskip ? noskip_fn : skip_fn)(apack, bpanel, c, rb, re, k, n);
}
#else
// Non-GCC / non-x86 builds: portable instantiations. Baseline targets
// have no FMA instructions, so no explicit contraction suppression is
// needed for bit-identity.
void tile_kernel(const float* apack, const float* bpanel, float* c, std::size_t rb,
                 std::size_t re, std::size_t k, std::size_t n, bool noskip) {
  if (noskip) {
    AIRCH_MATMUL_TILE_BODY(AIRCH_ZALWAYS)
  } else {
    AIRCH_MATMUL_TILE_BODY(AIRCH_ZTEST)
  }
}
#endif

#undef AIRCH_MATMUL_TILE_BODY
#undef AIRCH_ZTEST
#undef AIRCH_ZALWAYS

/// True iff no element is ±inf or NaN, i.e. none has an all-ones exponent
/// field. The test is integer-only, so the OR-reduction vectorizes even
/// under strict FP semantics (a float `x - x` sum is a serial add chain).
bool all_finite(const float* x, std::size_t count) {
  constexpr std::uint32_t kExponent = 0x7f800000U;
  std::uint32_t poisoned = 0;
  for (std::size_t i = 0; i < count; ++i) {
    poisoned |= static_cast<std::uint32_t>((std::bit_cast<std::uint32_t>(x[i]) & kExponent) ==
                                           kExponent);
  }
  return poisoned == 0;
}

void matmul_blocked(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
                    float alpha, float beta) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();

  // The kernel reads C's rows after apply_beta has rewritten them, while
  // still reading op(B) in place: an output that is also an operand would
  // be read half-overwritten (the reference loop makes the same assumption).
  AIRCH_DCHECK(&c != &a && &c != &b, "matmul output must not alias an operand");

  // Panel scratch is per-thread and grow-only: steady-state training
  // epochs re-run identical shapes, so packing allocates nothing after
  // the first batch.
  static thread_local std::vector<float> tl_apack;
  if (tl_apack.size() < m * k) tl_apack.resize(m * k);
  float* apack = tl_apack.data();

  // Pack alpha * op(A) row-major. Folding alpha here reproduces the
  // reference's `a_val = alpha * a(...)` product exactly (same two
  // operands, same single rounding), so the zero-skip test in the kernel
  // sees the identical value.
  if (!trans_a) {
    for (std::size_t i = 0; i < m; ++i) {
      const float* ar = a.row(i);
      float* dst = apack + i * k;
      for (std::size_t p = 0; p < k; ++p) dst[p] = alpha * ar[p];
    }
  } else {
    for (std::size_t p = 0; p < k; ++p) {
      const float* ar = a.row(p);
      for (std::size_t i = 0; i < m; ++i) apack[i * k + p] = alpha * ar[i];
    }
  }

  // The kernel wants op(B) as a row-major k x n panel, so its innermost j
  // loop is contiguous. Untransposed B already is one and is read in place
  // (for the weight panels of inference this is the whole operand, often
  // megabytes); only a transposed B is packed, into per-thread scratch.
  const float* bpanel = b.data();
  if (trans_b) {
    static thread_local std::vector<float> tl_bpack;
    if (tl_bpack.size() < k * n) tl_bpack.resize(k * n);
    float* bpack = tl_bpack.data();
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b.row(j);
      for (std::size_t p = 0; p < k; ++p) bpack[p * n + j] = br[p];
    }
    bpanel = bpack;
  }

  apply_beta(c, beta);

  // NOSKIP eligibility (see the kernel comment for the proof): the
  // branch-free kernel is bit-identical exactly when C starts at +0.0f
  // (beta == 0) and B is inf/NaN-free. Only full MR-row blocks gain from
  // it: the streaming row tail amortizes each branch over a whole B row,
  // and skipping also skips that row's loads. With no full block the probe
  // would be one more pass over B (a memory-bound one for megabyte weight
  // panels) bought for nothing, so it is not run.
  const bool noskip = beta == 0.0f && m >= kMR && all_finite(b.data(), b.size());

  // Partition output rows across workers; each C row is owned by exactly
  // one thread, so the parallel kernel is race-free and deterministic.
  // Workers are capped so each shoulders a few MFLOP — below that the
  // spawn/join overhead outweighs the concurrency.
  constexpr std::size_t kMinFlopsPerWorker = std::size_t{4} << 20;
  const std::size_t flops = 2 * m * k * n;
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(
      hardware_threads(), std::max<std::size_t>(flops / kMinFlopsPerWorker, 1)));
  float* cd = c.data();
  if (workers <= 1) {
    tile_kernel(apack, bpanel, cd, 0, m, k, n, noskip);
  } else {
    parallel_for(m, workers, [apack, bpanel, cd, k, n, noskip](std::size_t rb, std::size_t re) {
      tile_kernel(apack, bpanel, cd, rb, re, k, n, noskip);
    });
  }
}

}  // namespace

void matmul(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
            float alpha, float beta) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t k2 = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  AIRCH_DCHECK(k == k2, "matmul inner dimensions must agree");
  (void)k2;
  AIRCH_DCHECK(c.rows() == m && c.cols() == n, "matmul output must be pre-sized to m x n");

  // Tiny products (unit-test shapes, the narrow layers of small models)
  // stay on the reference loop: below 2^15 flops either path takes about a
  // microsecond, and for n narrower than one kNR strip the blocked kernel
  // runs only its slower column tail. Single-query inference is not
  // special-cased: through the blocked path it is one streaming pass over
  // B in the SIMD-multiversioned kernel, faster than the reference loop.
  // Either path returns bit-identical results, so this is purely a latency
  // dispatch.
  const bool tiny = 2 * m * k * n < (std::size_t{1} << 15);
  if (kernel_mode() == KernelMode::kNaive || tiny) {
    matmul_reference(a, trans_a, b, trans_b, c, alpha, beta);
    return;
  }
  matmul_blocked(a, trans_a, b, trans_b, c, alpha, beta);
}

void add_row_broadcast(Matrix& y, const std::vector<float>& row) {
  AIRCH_ASSERT(row.size() == y.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* yr = y.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) yr[j] += row[j];
  }
}

void column_sums(const Matrix& m, std::vector<float>& out) {
  out.assign(m.cols(), 0.0f);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* r = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += r[j];
  }
}

}  // namespace airch::ml
