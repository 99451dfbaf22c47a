// The serving layer (src/serve/) and the concurrency contract it rests
// on. Three groups:
//
//   1. Wire protocol: round trips, the flip-every-byte / every-truncation
//      corruption sweeps, and the hard caps.
//   2. The warm-model predict path: recommend_batch == mapped
//      recommend_label (the batched-vs-scalar property), and the
//      8-threads-on-one-model bit-identity test that pins the const
//      inference path as actually shareable (this file carries the tsan
//      label so the claim is checked by the race detector, not just by
//      matching outputs).
//   3. The service end to end over real loopback sockets: replies
//      bit-identical to in-process recommend_batch, error frames for bad
//      requests (connection survives them), admission stats, idle
//      dispatch, the connection cap, and stop() idempotence.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/case_study.hpp"
#include "core/recommender.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace airch {
namespace {

using serve::decode_frame;
using serve::encode_error;
using serve::encode_query;
using serve::encode_reply;
using serve::Frame;
using serve::FrameType;
using serve::QueryFrame;
using serve::RecommenderClient;
using serve::RecommenderService;
using serve::ServeOptions;

// ------------------------------------------------------------- protocol

QueryFrame sample_query_frame() {
  QueryFrame q;
  q.case_id = 1;
  q.num_features = 4;
  q.features = {8, 512, 128, 256, 10, 64, 64, 1024};  // two queries
  return q;
}

TEST(ServeProtocol, QueryRoundTrip) {
  const QueryFrame q = sample_query_frame();
  const auto body = encode_query(q);
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kQuery);
  EXPECT_EQ(f.query.case_id, q.case_id);
  EXPECT_EQ(f.query.num_features, q.num_features);
  EXPECT_EQ(f.query.features, q.features);
  EXPECT_EQ(f.query.num_queries(), 2u);
}

TEST(ServeProtocol, ReplyRoundTrip) {
  const std::vector<std::int32_t> labels = {0, 7, -1, 458};
  const auto body = encode_reply(labels);
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kReply);
  EXPECT_EQ(f.labels, labels);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const auto body = encode_error("no model loaded for case 3");
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.error, "no model loaded for case 3");
}

TEST(ServeProtocol, EveryByteFlipRejected) {
  // Any single corrupted byte must surface as a thrown contract violation
  // — caught by a count check, a cap, or ultimately the trailer digest —
  // never as a silently different frame.
  const auto body = encode_query(sample_query_frame());
  for (std::size_t i = 0; i < body.size(); ++i) {
    auto bad = body;
    bad[i] ^= 0xFF;
    EXPECT_THROW(decode_frame(bad.data(), bad.size()), ContractViolation)
        << "flipped byte " << i;
  }
}

TEST(ServeProtocol, EveryTruncationRejected) {
  const auto body = encode_query(sample_query_frame());
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_THROW(decode_frame(body.data(), n), ContractViolation) << "length " << n;
  }
  // ... and bytes past the trailer are just as fatal as missing ones.
  auto padded = body;
  padded.push_back(0);
  EXPECT_THROW(decode_frame(padded.data(), padded.size()), ContractViolation);
}

TEST(ServeProtocol, CapsEnforcedOnEncode) {
  QueryFrame wide;
  wide.case_id = 1;
  wide.num_features = serve::kMaxFeaturesPerQuery + 1;
  wide.features.assign(wide.num_features, 0);
  EXPECT_THROW(encode_query(wide), ContractViolation);

  QueryFrame tall;
  tall.case_id = 1;
  tall.num_features = 1;
  tall.features.assign(serve::kMaxQueriesPerFrame + 1, 0);
  EXPECT_THROW(encode_query(tall), ContractViolation);

  QueryFrame empty;
  empty.case_id = 1;
  empty.num_features = 4;
  EXPECT_THROW(encode_query(empty), ContractViolation);

  QueryFrame ragged;
  ragged.case_id = 1;
  ragged.num_features = 4;
  ragged.features.assign(6, 0);  // not a multiple of the arity
  EXPECT_THROW(encode_query(ragged), ContractViolation);

  QueryFrame bad_case;
  bad_case.case_id = 4;
  bad_case.num_features = 4;
  bad_case.features.assign(4, 0);
  EXPECT_THROW(encode_query(bad_case), ContractViolation);

  // The error path must always be encodable, so an oversized message is
  // truncated to the cap instead of rejected.
  const auto body = encode_error(std::string(serve::kMaxErrorBytes + 100, 'x'));
  EXPECT_EQ(decode_frame(body.data(), body.size()).error,
            std::string(serve::kMaxErrorBytes, 'x'));
  EXPECT_THROW(encode_reply(std::vector<std::int32_t>(serve::kMaxQueriesPerFrame + 1, 0)),
               ContractViolation);
}

// ------------------------------------------- warm model, shared fixture
//
// Training is the expensive part, so one tiny case-1 model is trained
// once for the whole suite. Every test below treats it as const — which
// is exactly the serving contract under test.

class ServeModel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Real kernel workers even on 1-core CI boxes, so the concurrent
    // tests exercise parallel_rows inside concurrent forward passes.
    setenv("AIRCH_THREADS", "2", 1);
    study_ = std::make_unique<ArrayDataflowStudy>();
    Recommender::TrainOptions opts;
    opts.dataset_size = 400;
    opts.epochs = 1;
    rec_ = std::make_unique<Recommender>(Recommender::train(*study_, opts));
  }
  static void TearDownTestSuite() {
    rec_.reset();
    study_.reset();
  }

  /// Deterministic case-1 queries: {budget_exp, m, n, k}.
  static std::vector<std::vector<std::int64_t>> make_queries(std::size_t n,
                                                             std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<std::int64_t>> out(n);
    for (auto& q : out) {
      q = {rng.uniform_int(5, 10), rng.log_uniform_int(4, 1 << 16),
           rng.log_uniform_int(4, 1 << 12), rng.log_uniform_int(4, 1 << 12)};
    }
    return out;
  }

  static std::unique_ptr<ArrayDataflowStudy> study_;
  static std::unique_ptr<Recommender> rec_;
};

std::unique_ptr<ArrayDataflowStudy> ServeModel::study_;
std::unique_ptr<Recommender> ServeModel::rec_;

TEST_F(ServeModel, BatchedMatchesScalar) {
  // The batched-vs-scalar property: one packed forward pass must agree
  // bit-for-bit with N scalar queries, duplicates included.
  auto queries = make_queries(100, 7);
  queries.push_back(queries.front());  // exact duplicates share one row each
  queries.push_back(queries.front());
  const auto batched = rec_->recommend_batch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], rec_->recommend_label(queries[i])) << "query " << i;
  }
}

TEST_F(ServeModel, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(rec_->recommend_batch({}).empty());
}

TEST_F(ServeModel, RaggedBatchThrows) {
  auto queries = make_queries(4, 9);
  queries[2].pop_back();  // 3 features in a 4-feature batch
  EXPECT_THROW(rec_->recommend_batch(queries), std::invalid_argument);
}

TEST_F(ServeModel, ConcurrentQueriesMatchSerial) {
  // The headline concurrency claim: 8 threads hammering ONE warm model
  // must each see answers bit-identical to the serial baseline. Layers
  // hold parameters only and the one forward pass (infer_logits) keeps its
  // activations on the caller's stack; when layers kept per-call scratch
  // for backward, this raced (TSan caught it; this file carries the tsan
  // label so it still would).
  const auto queries = make_queries(64, 11);
  const auto serial_batch = rec_->recommend_batch(queries);
  std::vector<std::vector<std::int32_t>> serial_topk;
  serial_topk.reserve(queries.size());
  for (const auto& q : queries) serial_topk.push_back(rec_->recommend_topk(q, 5));

  constexpr int kThreads = 8;
  constexpr int kIters = 4;
  std::atomic<int> mismatches{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int it = 0; it < kIters; ++it) {
          if (rec_->recommend_batch(queries) != serial_batch) mismatches.fetch_add(1);
          // Rotate a scalar + top-k probe per thread so the proba path
          // (softmax over infer_logits) runs concurrently too.
          const auto qi = static_cast<std::size_t>((t * kIters + it) %
                                                   static_cast<int>(queries.size()));
          if (rec_->recommend_label(queries[qi]) != serial_batch[qi]) mismatches.fetch_add(1);
          if (rec_->recommend_topk(queries[qi], 5) != serial_topk[qi]) mismatches.fetch_add(1);
        }
      });
    }
  }  // Thread joins on scope exit
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------ service, e2e

TEST_F(ServeModel, ServiceRepliesBitIdenticalToDirectBatch) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(16, 21);
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ServiceCoalescesConcurrentClients) {
  ServeOptions opts;
  opts.batch_deadline_us = 500;  // generous window so coalescing happens
  opts.batch_max = 64;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  const int port = service.port();

  constexpr int kClients = 8;
  constexpr std::size_t kRequests = 10;
  constexpr std::size_t kBatch = 4;
  std::atomic<int> failures{0};
  std::atomic<int> connected{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        try {
          RecommenderClient client(port);
          // Start gate: every client is connected before any sends, so
          // the first requests really are concurrent.
          connected.fetch_add(1);
          while (connected.load() < kClients) std::this_thread::yield();
          for (std::size_t r = 0; r < kRequests; ++r) {
            const auto queries =
                make_queries(kBatch, 100 + static_cast<std::uint64_t>(c) * 1000 + r);
            if (client.recommend_batch(1, queries) != rec_->recommend_batch(queries)) {
              failures.fetch_add(1);
            }
          }
        } catch (const std::exception&) {
          connected.fetch_add(kClients);  // never leave the others at the gate
          failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);

  const auto stats = service.stats();
  service.stop();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_EQ(stats.queries, kClients * kRequests * kBatch);
  EXPECT_EQ(stats.errors, 0u);
  // The idle dispatcher answers a lone arrival at once, so coalescing
  // comes from the requests that queue while a batch runs: they share the
  // next 500us window. With 8 clients released together, requests queue
  // behind the first batch, so there are strictly fewer forward passes
  // than requests, and the histogram must account for every dispatched
  // batch.
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LT(stats.batches, stats.requests);
  std::uint64_t hist_total = 0;
  for (const auto b : stats.batch_size_log2_hist) hist_total += b;
  EXPECT_EQ(hist_total, stats.batches);
}

// Idle dispatch: a request that finds the dispatcher waiting on an empty
// queue is answered at once, not after batch_deadline_us. The window is set
// to the 10 s cap, so a dispatcher that waited it out would miss the 1 s
// bound by 10x, and an idle one (tens of microseconds here) beats it by
// far more than that.
TEST_F(ServeModel, IdleDispatcherAnswersWithoutWaitingOutTheDeadline) {
  ServeOptions opts;
  opts.batch_deadline_us = serve::kMaxBatchDeadlineUs;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(4, 45);
  const auto start = std::chrono::steady_clock::now();
  const auto labels = client.recommend_batch(1, queries);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(labels, rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ServiceAnswersUnknownCaseWithErrorAndSurvives) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(2, 31);
  EXPECT_THROW(client.recommend_batch(3, queries), std::runtime_error);
  // The error frame costs the sender one reply, not the connection.
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.requests, 1u);
  service.stop();
}

// Counters move before the reply leaves: stats() read right after a reply
// or an error frame already counts it, with no sleep or retry.
TEST_F(ServeModel, StatsCountEachReplyAndErrorBeforeTheClientSeesIt) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(2, 35);
  const auto expected = rec_->recommend_batch(queries);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    EXPECT_EQ(client.recommend_batch(1, queries), expected);
    EXPECT_EQ(service.stats().requests, i);
    EXPECT_THROW(client.recommend_batch(3, queries), std::runtime_error);
    EXPECT_EQ(service.stats().errors, i);
  }
  service.stop();
}

TEST_F(ServeModel, ServiceRejectsArityMismatchBeforeBatching) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const std::vector<std::vector<std::int64_t>> wrong = {{8, 512, 128}};  // 3 != 4
  try {
    client.recommend_batch(1, wrong);
    FAIL() << "arity mismatch was answered with a reply";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos) << e.what();
  }
  const auto queries = make_queries(2, 33);
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ServiceSurvivesMalformedFrame) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  serve::Socket sock = serve::connect_local(service.port());

  QueryFrame q;
  q.case_id = 1;
  q.num_features = 4;
  q.features = {8, 512, 128, 256};
  auto body = encode_query(q);
  body[body.size() / 2] ^= 0xFF;  // corrupt mid-payload; digest must catch it
  sock.send_frame(body);
  auto reply = sock.recv_frame(serve::kMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(reply->data(), reply->size()).type, FrameType::kError);

  // Same connection, clean frame: the length prefix kept the stream in sync.
  sock.send_frame(encode_query(q));
  reply = sock.recv_frame(serve::kMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  const Frame f = decode_frame(reply->data(), reply->size());
  ASSERT_EQ(f.type, FrameType::kReply);
  EXPECT_EQ(f.labels, rec_->recommend_batch({q.features}));
  service.stop();
}

TEST_F(ServeModel, ServiceEnforcesConnectionCap) {
  ServeOptions opts;
  opts.max_connections = 1;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  RecommenderClient first(service.port());
  const auto queries = make_queries(2, 41);
  // The first request proves `first` holds the single slot...
  EXPECT_EQ(first.recommend_batch(1, queries), rec_->recommend_batch(queries));
  // ...so the second connection is answered with an error frame and closed.
  RecommenderClient second(service.port());
  EXPECT_THROW(second.recommend_batch(1, queries), std::runtime_error);
  // The occupant is unaffected.
  EXPECT_EQ(first.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ZeroDeadlineDispatchesImmediately) {
  ServeOptions opts;
  opts.batch_deadline_us = 0;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(8, 43);
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  EXPECT_GE(service.stats().batches, 1u);
  service.stop();
}

TEST_F(ServeModel, StopIsIdempotentAndDestructorSafe) {
  auto service = std::make_unique<RecommenderService>(
      std::vector<serve::ServedModel>{{1, rec_.get()}});
  service->start();
  {
    RecommenderClient client(service->port());
    const auto queries = make_queries(2, 47);
    EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  }
  service->stop();
  service->stop();    // idempotent
  service.reset();    // destructor after stop() is a no-op
}

TEST_F(ServeModel, ConstructorValidatesModelTable) {
  EXPECT_THROW(RecommenderService({}), ContractViolation);
  EXPECT_THROW(RecommenderService({{1, nullptr}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{0, rec_.get()}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{4, rec_.get()}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{1, rec_.get()}, {1, rec_.get()}}), ContractViolation);
  ServeOptions bad;
  bad.batch_max = 0;
  EXPECT_THROW(RecommenderService({{1, rec_.get()}}, bad), ContractViolation);
  // The admission deadline is capped, so its nanosecond arithmetic cannot
  // overflow.
  ServeOptions capped;
  capped.batch_deadline_us = serve::kMaxBatchDeadlineUs;
  EXPECT_NO_THROW(RecommenderService({{1, rec_.get()}}, capped));
  for (const std::int64_t deadline :
       {std::int64_t{-1}, serve::kMaxBatchDeadlineUs + 1,
        std::numeric_limits<std::int64_t>::max()}) {
    ServeOptions late;
    late.batch_deadline_us = deadline;
    EXPECT_THROW(RecommenderService({{1, rec_.get()}}, late), ContractViolation) << deadline;
  }
}

TEST_F(ServeModel, PortBeforeStartThrows) {
  RecommenderService service({{1, rec_.get()}});
  EXPECT_THROW(service.port(), ContractViolation);
  service.start();
  EXPECT_THROW(service.start(), ContractViolation);  // double start
  EXPECT_GT(service.port(), 0);
  service.stop();
}

}  // namespace
}  // namespace airch
