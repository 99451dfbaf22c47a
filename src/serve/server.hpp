#pragma once
// The batched recommender service: a persistent socket front-end over
// warm Recommender models (docs/performance.md, "Serving"). The paper's
// pitch is constant-time inference; what a deployment actually runs is a
// process that loads the trained models ONCE and answers a stream of
// design queries. The service's job beyond plumbing is admission
// batching: requests that queue up while a forward pass runs are
// coalesced and answered by ONE packed recommend_batch forward pass per
// case study, trading bounded queueing delay (batch_deadline_us) for the
// batched-matmul throughput the kernels are built around. A request that
// finds the service idle pays no queueing delay at all.
//
// Threading model (all synchronization via common/sync.hpp, all threads
// via common/parallel.hpp Thread):
//   - acceptor thread: poll-based accept loop, spawns one thread per
//     connection, reaps finished ones lazily.
//   - connection threads: length-prefixed frame in, validate, enqueue,
//     block on the request's own CondVar, frame out. Invalid requests are
//     answered with an error frame BEFORE enqueueing, so one bad request
//     can never poison a packed batch.
//   - dispatcher thread: if it was idle (waiting on an empty queue, or
//     just started), it dispatches the moment the first request lands.
//     Otherwise requests queued while the previous batch ran; it admits
//     more until batch_max queries are pending or batch_deadline_us has
//     elapsed since the first of them arrived. Either way it swaps the
//     queue out, runs one forward pass per case study present, and fans
//     results back out.
//
// The locks involved (queue, per-request, connection registry, stats) are
// peers — none is ever held while acquiring another — so they all sit at
// the default kLeaf rank and the runtime rank registry enforces exactly
// that.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/recommender.hpp"

namespace airch::serve {

/// Upper bound on ServeOptions::batch_deadline_us (10 s). A window that
/// long is already useless for serving; the cap keeps the deadline
/// arithmetic (a nanosecond time_point) far from signed overflow.
inline constexpr std::int64_t kMaxBatchDeadlineUs = 10'000'000;

struct ServeOptions {
  /// Dispatch as soon as this many queries are pending...
  std::size_t batch_max = 64;
  /// ...or this many microseconds after the batch's first arrival,
  /// whichever comes first. The window only opens for requests that
  /// queue while a batch is running: an idle dispatcher answers the first
  /// arrival at once, so coalescing costs latency only under load.
  /// 0 = never wait (no coalescing beyond what queued during a batch);
  /// at most kMaxBatchDeadlineUs.
  std::int64_t batch_deadline_us = 200;
  /// Acceptor poll granularity; bounds stop() latency, not request latency.
  int accept_poll_ms = 20;
  /// Connections beyond this are answered with an error frame and closed.
  std::size_t max_connections = 64;
};

/// Service counters, readable while the service runs (stats() takes a
/// snapshot under the stats lock).
struct [[nodiscard]] ServeStats {
  std::uint64_t requests = 0;  ///< query frames answered with a reply
  std::uint64_t queries = 0;   ///< individual feature vectors answered
  std::uint64_t batches = 0;   ///< packed forward passes dispatched
  std::uint64_t errors = 0;    ///< error frames sent
  /// batch_size_log2_hist[b] = packed passes whose query count n had
  /// floor(log2(n)) == b (last bucket absorbs the tail): the shape of the
  /// admission batching under load, reported by bench_serve.
  std::vector<std::uint64_t> batch_size_log2_hist;
};

/// One registered model: the service answers case_id queries with *rec.
/// The Recommender must stay alive and unmodified while the service runs
/// (its predict path is const and thread-safe — that is the whole point).
struct ServedModel {
  int case_id = 0;
  const Recommender* rec = nullptr;
};

class RecommenderService {
 public:
  /// Validates the model table (case ids 1..3, non-null, unique).
  explicit RecommenderService(std::vector<ServedModel> models, ServeOptions options = {});
  ~RecommenderService();
  RecommenderService(const RecommenderService&) = delete;
  RecommenderService& operator=(const RecommenderService&) = delete;

  /// Binds 127.0.0.1:<ephemeral> and spawns the acceptor + dispatcher.
  void start();
  /// Drains in-flight requests, closes connections, joins every thread.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Port clients connect to; valid after start().
  int port() const;

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace airch::serve
