// `serve` workload: a RecommenderService over warm models for all three
// case studies, on loopback, driven from this process in two phases.
//
//   open:   an open loop at a fixed request rate, well below saturation,
//           of 1-query requests round-robin over the cases. Latency counts
//           from each request's scheduled send, and the generator's
//           lateness is reported. The phase is overhead-bound: admission
//           deadline, thread hand-offs and protocol costs show here.
//   closed: a closed loop on one connection per client thread with
//           requests of batch_max queries each, so every request fills an
//           admission batch on its own and is dispatched at once, as one
//           large forward pass. The phase is throughput-bound.
//
// serve (protocol, socket, admission) and tiny- versus large-batch
// inference do the work; sim, search and dataset only build the inputs.
// Every reply is checked bit-identical to an in-process recommend_batch
// on the same model before any number is reported.
//
//   setup_s           training the warm models and starting the service,
//                     median over kSetupReps repetitions
//   latency_ms        open phase: median latency of a 1-query request,
//                     from its scheduled send
//   throughput_per_s  closed phase: queries answered per second, median
//                     over blocks of kClosedBlock completed requests

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "core/recommender.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using airch::CaseId;

constexpr CaseId kIds[3] = {CaseId::kArrayDataflow, CaseId::kBufferSizing,
                            CaseId::kScheduling};
// Warm models: small, because set-up trains them kSetupReps times.
constexpr std::size_t kTrainPoints[3] = {2000, 1000, 500};
constexpr int kTrainEpochs = 2;
constexpr int kSetupReps = 5;
constexpr std::size_t kPoolSize = 512;  ///< generated queries per case
/// Client connections, one thread each, in both phases. Two, not nproc:
/// with the service's connection, dispatcher and kernel threads beside
/// them, more clients than half the vCPUs of a shared host measure its
/// scheduler rather than the service.
constexpr unsigned kMaxClients = 2;
/// Open-loop rate in requests per second. The service never coalesces at
/// this rate (mean admission batch ~1.00), so it is far below saturation,
/// and each client has 4 ms per request, so a host stall of a few
/// milliseconds does not leave the generator behind its schedule.
constexpr double kOpenRate = 500.0;
/// serve.open.p99_us is the median of the p99s of consecutive windows of
/// this many scheduled requests (2 s each, ten samples beyond each p99).
/// A host preemption stall delays a burst of consecutive requests; over a
/// whole phase such bursts sit near 1% of requests, so a single p99 flips
/// between two modes from run to run. The open phase lasts at least one
/// window.
constexpr std::size_t kOpenWindow = 1000;
/// serve_qps is the median, over consecutive blocks of this many completed
/// closed-phase requests, of the block's queries per second, so that a
/// burst of host noise moves one block, not the reported number.
constexpr std::size_t kClosedBlock = 200;
/// Queries per closed-phase request: the service's default batch_max.
/// Smaller requests from two clients leave every batch short of batch_max,
/// so each one waits out the admission deadline, and throughput then
/// depends on whether the clients' requests happen to share a window: it
/// flipped between two levels 25% apart from run to run.
constexpr std::size_t kClosedQueries = 64;
constexpr int kMicroCalls = 300;            ///< in-process recommend_batch calls per size

/// One request: what was asked, what came back (kept for the
/// bit-identity gate) and when.
struct Exchange {
  std::uint64_t id = 0;  ///< shared by the request's spans; open phase: k + 1 for the k-th send
  int case_id = 0;
  std::size_t first = 0;  ///< index of the first query in the case's pool
  std::size_t count = 0;
  std::vector<std::int32_t> labels;
  double latency_us = 0.0;  ///< open phase: from the scheduled send; closed: from the send
  double lag_us = 0.0;      ///< open phase: actual send minus scheduled send
  double done_s = 0.0;      ///< closed phase: completion, seconds into the phase
};

struct ClientLog {
  std::vector<Exchange> exchanges;
  std::string error;
};

using Pool = std::vector<std::vector<std::int64_t>>;

std::vector<std::vector<std::int64_t>> slice(const Pool& pool, std::size_t first,
                                             std::size_t count) {
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(pool[(first + i) % pool.size()]);
  return out;
}

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Runs `clients` threads, each with its own connection, until they return.
std::vector<ClientLog> drive(unsigned clients, int port,
                             const std::function<void(unsigned, airch::serve::RecommenderClient&,
                                                      ClientLog&)>& body) {
  std::vector<ClientLog> logs(clients);
  std::vector<airch::Thread> threads;
  threads.reserve(clients);
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        airch::serve::RecommenderClient client(port);
        body(t, client, logs[t]);
      } catch (const std::exception& e) {
        logs[t].error = e.what();
      }
    });
  }
  threads.clear();  // joins
  return logs;
}

}  // namespace

PassResult run_serve(const RunConfig& cfg, Tracer& tracer, MetricSet& e2e, Figures& figures) {
  PassResult r;
  const unsigned clients = std::min(kMaxClients, std::max(1U, std::thread::hardware_concurrency()));

  // Inputs: a pool of generated feature vectors per case. Not part of
  // set-up: it stands in for the users who send the queries.
  std::unique_ptr<airch::CaseStudy> studies[3];
  Pool pools[3];
  for (int c = 0; c < 3; ++c) {
    studies[c] = airch::make_case_study(kIds[c]);
    const std::uint64_t seed = derive_seed(cfg.seed, 300 + static_cast<std::uint64_t>(c));
    pools[c] = features_of(studies[c]->generate(kPoolSize, seed));
  }

  // Set-up: train the warm models and start the service, kSetupReps times;
  // the last service stays up for the measured phases.
  std::vector<double> setup_s;
  std::unique_ptr<airch::Recommender> recs[3];
  std::unique_ptr<airch::serve::RecommenderService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (service) {
      const auto s = tracer.scope("serve.stop");
      service->stop();
    }
    service.reset();
    const auto t0 = Clock::now();
    for (int c = 0; c < 3; ++c) {
      airch::Recommender::TrainOptions o;
      o.dataset_size = kTrainPoints[c];
      o.epochs = kTrainEpochs;
      o.seed = derive_seed(cfg.seed, 400 + static_cast<std::uint64_t>(c));
      recs[c] = std::make_unique<airch::Recommender>(airch::Recommender::train(*studies[c], o));
    }
    airch::serve::ServeOptions sopts;
    sopts.max_connections = 2 * kMaxClients;
    service = std::make_unique<airch::serve::RecommenderService>(
        std::vector<airch::serve::ServedModel>{{1, recs[0].get()}, {2, recs[1].get()},
                                               {3, recs[2].get()}},
        sopts);
    {
      const auto s = tracer.scope("serve.start");
      service->start();
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const int port = service->port();

  // In-process compute floor for the batch sizes the phases produce.
  if (tracer.enabled()) {
    for (const std::size_t b : {1, 4, 64}) {
      const std::string span = "core.recommend_batch.b" + std::to_string(b);
      for (int i = 0; i < kMicroCalls; ++i) {
        const int c = i % 3;
        const auto q = slice(pools[c], static_cast<std::size_t>(i) * b, b);
        const auto s = tracer.scope(span);
        (void)recs[c]->recommend_batch(q);
      }
    }
  }

  // ----------------------------------------------------------- open phase
  const airch::serve::ServeStats before_open = service->stats();
  const double interval_s = 1.0 / kOpenRate;
  const double open_s = std::max(cfg.seconds / 2.0, static_cast<double>(kOpenWindow) * interval_s);
  std::atomic<std::uint64_t> next_request{0};
  const auto open_t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto open_end = open_t0 + to_duration(open_s);
  std::vector<ClientLog> open_logs =
      drive(clients, port, [&](unsigned, airch::serve::RecommenderClient& client, ClientLog& log) {
        for (;;) {
          const std::uint64_t k = next_request.fetch_add(1);
          const auto scheduled = open_t0 + to_duration(static_cast<double>(k) * interval_s);
          if (scheduled >= open_end) return;
          std::this_thread::sleep_until(scheduled);
          Exchange ex;
          ex.id = k + 1;
          ex.case_id = static_cast<int>(k % 3) + 1;
          ex.first = static_cast<std::size_t>(k / 3);
          ex.count = 1;
          const auto q = slice(pools[ex.case_id - 1], ex.first, ex.count);
          const auto sent = Clock::now();
          {
            const auto s = tracer.scope("serve.open.request", ex.id);
            ex.labels = client.recommend_batch(ex.case_id, q);
          }
          ex.latency_us = micros_between(scheduled, Clock::now());
          ex.lag_us = micros_between(scheduled, sent);
          log.exchanges.push_back(std::move(ex));
        }
      });
  const airch::serve::ServeStats after_open = service->stats();

  // --------------------------------------------------------- closed phase
  const auto closed_t0 = Clock::now();
  const auto closed_end = closed_t0 + to_duration(cfg.seconds / 2.0);
  std::vector<ClientLog> closed_logs =
      drive(clients, port,
            [&](unsigned t, airch::serve::RecommenderClient& client, ClientLog& log) {
        for (std::size_t i = 0; Clock::now() < closed_end; ++i) {
          Exchange ex;
          ex.id = (std::uint64_t{t + 1} << 40) + i + 1;
          ex.case_id = static_cast<int>((t + i) % 3) + 1;
          ex.first = (i * clients + t) * kClosedQueries;
          ex.count = kClosedQueries;
          const auto q = slice(pools[ex.case_id - 1], ex.first, ex.count);
          const auto sent = Clock::now();
          {
            const auto s = tracer.scope("serve.closed.request", ex.id);
            ex.labels = client.recommend_batch(ex.case_id, q);
          }
          const auto done = Clock::now();
          ex.latency_us = micros_between(sent, done);
          ex.done_s = seconds_between(closed_t0, done);
          log.exchanges.push_back(std::move(ex));
        }
      });
  const airch::serve::ServeStats after_closed = service->stats();
  {
    const auto s = tracer.scope("serve.stop");
    service->stop();
  }

  // ------------------------------------------------------------- gates
  // Every served label must equal the in-process answer for the same
  // query. The model's answers do not depend on batch composition (the
  // service itself packs requests from many connections into one pass),
  // so each case's pool is answered once, by one recommend_batch call.
  std::vector<std::int32_t> direct[3];
  for (int c = 0; c < 3; ++c) {
    const auto s = tracer.scope(std::string("core.recommend_batch.pool.") + kCaseNames[c]);
    direct[c] = recs[c]->recommend_batch(pools[c]);
  }
  std::uint64_t client_failures = 0;
  std::vector<double> open_lat, open_lag, closed_lat;
  std::vector<std::vector<double>> windows;
  std::vector<double> closed_done_s;
  for (const std::vector<ClientLog>* logs : {&open_logs, &closed_logs}) {
    const bool open = logs == &open_logs;
    for (const ClientLog& log : *logs) {
      if (!log.error.empty()) {
        ++client_failures;
        r.fail(1, "client failed: " + log.error);
      }
      for (const Exchange& ex : log.exchanges) {
        ++r.attempted;
        if (open) {
          open_lat.push_back(ex.latency_us);
          open_lag.push_back(ex.lag_us);
          const std::size_t w = static_cast<std::size_t>(ex.id - 1) / kOpenWindow;
          if (windows.size() <= w) windows.resize(w + 1);
          windows[w].push_back(ex.latency_us);
        } else {
          closed_lat.push_back(ex.latency_us);
          closed_done_s.push_back(ex.done_s);
        }
        const std::vector<std::int32_t>& want = direct[ex.case_id - 1];
        bool same = ex.labels.size() == ex.count;
        for (std::size_t i = 0; same && i < ex.count; ++i) {
          same = ex.labels[i] == want[(ex.first + i) % want.size()];
        }
        if (!same) {
          r.fail(1, "served reply differs from in-process recommend_batch (case " +
                        std::to_string(ex.case_id) + ")");
        }
        if (open && tracer.enabled()) {
          // Protocol costs of this request's query frame, under its id.
          airch::serve::QueryFrame frame;
          frame.case_id = ex.case_id;
          frame.num_features = pools[ex.case_id - 1].front().size();
          for (const auto& row : slice(pools[ex.case_id - 1], ex.first, ex.count)) {
            frame.features.insert(frame.features.end(), row.begin(), row.end());
          }
          std::vector<unsigned char> body;
          {
            const auto s = tracer.scope("serve.encode_query", ex.id);
            body = airch::serve::encode_query(frame);
          }
          airch::serve::Frame decoded;
          {
            const auto s = tracer.scope("serve.decode_frame", ex.id);
            decoded = airch::serve::decode_frame(body.data(), body.size());
          }
          if (decoded.query.features != frame.features) {
            r.fail(1, "query frame does not survive encode/decode");
          }
        }
      }
    }
  }
  if (after_closed.errors != 0) {
    r.fail(after_closed.errors, "service sent error frames");
  }
  std::vector<double> window_p99;
  for (std::vector<double>& w : windows) {
    if (w.size() < kOpenWindow) continue;  // the tail window is cut by the phase end
    std::sort(w.begin(), w.end());
    window_p99.push_back(percentile(w, 0.99));
  }
  std::sort(closed_done_s.begin(), closed_done_s.end());
  std::vector<double> block_qps;
  for (std::size_t i = kClosedBlock; i < closed_done_s.size(); i += kClosedBlock) {
    block_qps.push_back(static_cast<double>(kClosedBlock * kClosedQueries) /
                        (closed_done_s[i] - closed_done_s[i - kClosedBlock]));
  }
  if (block_qps.empty()) {
    r.fail(1, "closed phase has no complete block of " + std::to_string(kClosedBlock) +
                  " requests");
    block_qps.push_back(0.0);
  }
  if (window_p99.empty()) {
    r.fail(1, "open phase has no complete window of " + std::to_string(kOpenWindow) + " requests");
    window_p99.push_back(0.0);
  }

  std::sort(open_lat.begin(), open_lat.end());
  std::sort(open_lag.begin(), open_lag.end());
  std::sort(closed_lat.begin(), closed_lat.end());
  e2e.set("setup_s", median(setup_s));
  e2e.set("latency_ms", percentile(open_lat, 0.5) * 1e-3);
  e2e.set("throughput_per_s", median(block_qps));
  figures.add("serve_p50_us", "us", percentile(open_lat, 0.5));
  figures.add("serve.open.p99_us", "us", median(window_p99));
  figures.add("serve_qps", "1/s", median(block_qps));
  r.cost = percentile(open_lat, 0.5);
  r.timings = {{"setup_s", summarize(setup_s)},
               {"open_latency_us", summarize(open_lat)},
               {"closed_latency_us", summarize(closed_lat)},
               {"closed_block_qps", summarize(block_qps)}};

  if (tracer.enabled()) {
    const auto us = [&](const std::string& span) {
      return median(tracer.durations_s(span)) * 1e6;
    };
    for (const char* b : {"b1", "b4", "b64"}) {
      figures.add(std::string("core.recommend_batch_us.") + b, "us",
                  us(std::string("core.recommend_batch.") + b));
    }
    figures.add("serve.encode_query_us", "us", us("serve.encode_query"));
    figures.add("serve.decode_frame_us", "us", us("serve.decode_frame"));

    const auto phase = [&](const std::string& name, const airch::serve::ServeStats& a,
                           const airch::serve::ServeStats& b) {
      const auto batches = static_cast<double>(b.batches - a.batches);
      figures.add("serve." + name + ".batches", "count", batches);
      figures.add("serve." + name + ".mean_batch_queries", "count",
                  batches > 0 ? static_cast<double>(b.queries - a.queries) / batches : 0.0);
    };
    phase("open", before_open, after_open);
    phase("closed", after_open, after_closed);
    figures.add("serve.open.sched_lag_p99_us", "us", percentile(open_lag, 0.99));
    figures.add("serve.closed.p50_us", "us", percentile(closed_lat, 0.5));
    figures.add("serve.closed.p99_us", "us", percentile(closed_lat, 0.99));
    for (std::size_t b = 0; b <= 12; ++b) {
      const auto at = [&](const airch::serve::ServeStats& s) {
        return b < s.batch_size_log2_hist.size() ? s.batch_size_log2_hist[b] : 0;
      };
      figures.add("serve.batch_log2_hist." + std::to_string(b), "count",
                  static_cast<double>(at(after_closed) - at(after_open)));
    }
    figures.add("serve.errors", "count", static_cast<double>(after_closed.errors));
    figures.add("serve.client_failures", "count", static_cast<double>(client_failures));
    figures.add("serve.start_s", "s", median(tracer.durations_s("serve.start")));
    figures.add("serve.stop_s", "s", median(tracer.durations_s("serve.stop")));
  }
  return r;
}

}  // namespace perfbench
