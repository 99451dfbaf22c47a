// Serving SLO bench for the batched recommender service (src/serve/):
// trains three tiny warm models (one per case study), starts a
// RecommenderService in-process, and drives it with N concurrent client
// threads over real loopback sockets. Reports per-request latency
// percentiles (p50/p99/p999) and sustained QPS at each concurrency level,
// plus the service's admission batch-size histogram — the shape of the
// coalescing under load.
//
// Two load modes:
//   closed loop (default): each client fires its next request the moment
//     the previous reply lands; concurrency == in-flight requests.
//   open loop (--open-qps > 0): requests are scheduled at a fixed
//     aggregate rate and latency is measured FROM THE SCHEDULED ARRIVAL,
//     so queueing delay from falling behind counts against the service
//     (the coordinated-omission-free measurement).
//
// Correctness is asserted before any number is reported: every reply
// captured during the timed runs is re-answered by an in-process
// recommend_batch on the same model and the labels must be bit-identical
// — the service adds batching and a wire format, never a different
// answer. A mismatch aborts with exit 1.
//
// Emits machine-readable JSON (default BENCH_serve.json), validated by
// tools/validate_bench.py --mode serve and smoked by tools/check.sh.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/case_study.hpp"
#include "core/recommender.hpp"
#include "dataset/generator.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workload/sampler.hpp"

using namespace airch;

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

/// One recorded request: what was asked, what the service answered.
struct Exchange {
  int case_id = 0;
  std::vector<std::vector<std::int64_t>> queries;
  std::vector<std::int32_t> labels;
  double latency_us = 0.0;
};

struct ClientLog {
  std::vector<Exchange> exchanges;
  bool failed = false;
  std::string error;
};

struct LevelResult {
  int concurrency = 0;
  std::size_t requests = 0;
  std::size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t batches = 0;
  double mean_batch_queries = 0.0;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Deterministic per-(client, request) query batch for one case study.
std::vector<std::vector<std::int64_t>> make_queries(int case_id, std::size_t batch,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  LogUniformGemmSampler sampler;
  const Case1Config c1;
  const Case2Config c2;
  std::vector<std::vector<std::int64_t>> out(batch);
  for (auto& q : out) {
    switch (case_id) {
      case 1: {
        const GemmWorkload w = sampler.sample(rng);
        q = {rng.uniform_int(c1.budget_min_exp, c1.budget_max_exp), w.m, w.n, w.k};
        break;
      }
      case 2: {
        const GemmWorkload w = sampler.sample(rng);
        const std::int64_t side = std::int64_t{1}
                                  << rng.uniform_int(2, c2.array_macs_max_exp / 2);
        q = {rng.uniform_int(c2.limit_min_kb, c2.limit_max_kb),
             w.m,
             w.n,
             w.k,
             side,
             side,
             rng.uniform_int(0, 2),
             rng.uniform_int(c2.bw_min, c2.bw_max)};
        break;
      }
      default: {
        q.clear();
        for (int i = 0; i < 4; ++i) {
          const GemmWorkload w = sampler.sample(rng);
          q.push_back(w.m);
          q.push_back(w.n);
          q.push_back(w.k);
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_serve",
                 "p50/p99 latency + QPS of the batched recommender service under load");
  args.flag_i64("points1", 2000, "case-1 training points (tiny warm model)");
  args.flag_i64("points2", 1000, "case-2 training points");
  args.flag_i64("points3", 500, "case-3 training points");
  args.flag_i64("epochs", 2, "training epochs per model");
  args.flag_i64("threads", 2, "kernel worker threads (pins AIRCH_THREADS)");
  args.flag_i64("requests", 200, "requests per client per level", 1, 1000000);
  args.flag_i64("batch", 4, "queries per request", 1, 4096);
  args.flag_str("levels", "1,4,16", "comma-separated client concurrency levels");
  args.flag_i64("deadline-us", 200, "service admission-batch deadline", 0,
                serve::kMaxBatchDeadlineUs);
  args.flag_i64("batch-max", 64, "service admission-batch query cap");
  args.flag_f64("open-qps", 0.0, "aggregate open-loop request rate (0 = closed loop)");
  args.flag_i64("seed", 42, "dataset / model / query seed");
  args.flag_str("out", "BENCH_serve.json", "output JSON path");
  args.parse(argc, argv);

  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));
  const int epochs = static_cast<int>(args.i64("epochs"));
  const auto requests = static_cast<std::size_t>(args.i64("requests"));
  const auto batch = static_cast<std::size_t>(args.i64("batch"));
  const double open_qps = args.f64("open-qps");
  setenv("AIRCH_THREADS", std::to_string(args.i64("threads")).c_str(), 1);

  std::vector<int> levels;
  {
    std::istringstream is(args.str("levels"));
    std::string tok;
    while (std::getline(is, tok, ',')) {
      const int v = std::stoi(tok);
      if (v < 1) {
        std::cerr << "concurrency levels must be >= 1\n";
        return 1;
      }
      levels.push_back(v);
    }
    if (levels.empty()) {
      std::cerr << "--levels must name at least one concurrency level\n";
      return 1;
    }
  }

  // ------------------------------------------------- warm models, one each
  std::cerr << "training warm models...\n";
  const ArrayDataflowStudy study1;
  const BufferSizingStudy study2;
  const SchedulingStudy study3;
  const auto train = [&](const CaseStudy& study, std::size_t points) {
    Recommender::TrainOptions o;
    o.dataset_size = points;
    o.epochs = epochs;
    o.seed = seed;
    return Recommender::train(study, o);
  };
  const Recommender rec1 = train(study1, static_cast<std::size_t>(args.i64("points1")));
  const Recommender rec2 = train(study2, static_cast<std::size_t>(args.i64("points2")));
  const Recommender rec3 = train(study3, static_cast<std::size_t>(args.i64("points3")));
  const Recommender* recs[3] = {&rec1, &rec2, &rec3};

  serve::ServeOptions sopts;
  sopts.batch_deadline_us = args.i64("deadline-us");
  sopts.batch_max = static_cast<std::size_t>(args.i64("batch-max"));
  sopts.max_connections = 256;
  serve::RecommenderService service({{1, &rec1}, {2, &rec2}, {3, &rec3}}, sopts);
  service.start();
  const int port = service.port();

  // ------------------------------------------------------------ load loop
  std::vector<LevelResult> results;
  std::vector<ClientLog> all_logs;
  auto prev_stats = service.stats();
  for (const int concurrency : levels) {
    std::vector<ClientLog> logs(static_cast<std::size_t>(concurrency));
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<Thread> clients;
      clients.reserve(static_cast<std::size_t>(concurrency));
      for (int c = 0; c < concurrency; ++c) {
        ClientLog* log = &logs[static_cast<std::size_t>(c)];
        clients.emplace_back([&, c, log] {
          try {
            serve::RecommenderClient client(port);
            const double interval_s =
                open_qps > 0.0 ? static_cast<double>(concurrency) / open_qps : 0.0;
            const auto start = std::chrono::steady_clock::now();
            log->exchanges.reserve(requests);
            for (std::size_t r = 0; r < requests; ++r) {
              Exchange ex;
              ex.case_id = static_cast<int>((static_cast<std::size_t>(c) + r) % 3) + 1;
              ex.queries = make_queries(
                  ex.case_id, batch,
                  seed ^ (static_cast<std::uint64_t>(c) << 32) ^ (r * 2654435761ULL));
              auto sent = std::chrono::steady_clock::now();
              if (open_qps > 0.0) {
                // Open loop: latency counts from the SCHEDULED arrival, so
                // a service that falls behind pays its queueing delay.
                const auto scheduled =
                    start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(interval_s *
                                                              static_cast<double>(r)));
                std::this_thread::sleep_until(scheduled);
                sent = scheduled;
              }
              ex.labels = client.recommend_batch(ex.case_id, ex.queries);
              const auto done = std::chrono::steady_clock::now();
              ex.latency_us =
                  std::chrono::duration<double, std::micro>(done - sent).count();
              log->exchanges.push_back(std::move(ex));
            }
          } catch (const std::exception& e) {
            log->failed = true;
            log->error = e.what();
          }
        });
      }
    }  // Thread dtors join all clients
    const auto t1 = std::chrono::steady_clock::now();

    std::vector<double> latencies;
    std::size_t n_queries = 0;
    for (auto& log : logs) {
      if (log.failed) {
        std::cerr << "client failed at concurrency " << concurrency << ": " << log.error
                  << "\n";
        return 1;
      }
      for (const auto& ex : log.exchanges) {
        latencies.push_back(ex.latency_us);
        n_queries += ex.queries.size();
      }
      all_logs.push_back(std::move(log));
    }
    std::sort(latencies.begin(), latencies.end());

    const auto now_stats = service.stats();
    LevelResult lr;
    lr.concurrency = concurrency;
    lr.requests = latencies.size();
    lr.queries = n_queries;
    lr.seconds = std::max(std::chrono::duration<double>(t1 - t0).count(), 1e-9);
    lr.qps = static_cast<double>(lr.requests) / lr.seconds;
    lr.p50_us = percentile(latencies, 0.50);
    lr.p99_us = percentile(latencies, 0.99);
    lr.p999_us = percentile(latencies, 0.999);
    lr.batches = now_stats.batches - prev_stats.batches;
    lr.mean_batch_queries =
        lr.batches > 0 ? static_cast<double>(now_stats.queries - prev_stats.queries) /
                             static_cast<double>(lr.batches)
                       : 0.0;
    prev_stats = now_stats;
    results.push_back(lr);
    std::cerr << "concurrency " << concurrency << ": qps " << lr.qps << ", p50 "
              << lr.p50_us << "us, p99 " << lr.p99_us << "us\n";
  }

  const auto final_stats = service.stats();
  service.stop();

  // -------------------------------------------- bit-identity verification
  // Every reply captured above must equal a direct in-process
  // recommend_batch on the same warm model: the service may batch and
  // frame, but never change an answer.
  for (const auto& log : all_logs) {
    for (const auto& ex : log.exchanges) {
      const auto direct = recs[ex.case_id - 1]->recommend_batch(ex.queries);
      if (direct != ex.labels) {
        std::cerr << "serving mismatch: case " << ex.case_id
                  << " reply differs from direct recommend_batch\n";
        return 1;
      }
    }
  }

  // ---------------------------------------------------------------- JSON
  std::ostringstream os;
  os << "{\n  \"bench\": \"serve\",\n  \"mode\": \""
     << (open_qps > 0.0 ? "open" : "closed") << "\",\n  \"threads\": "
     << args.i64("threads") << ",\n  \"requests_per_client\": " << requests
     << ",\n  \"queries_per_request\": " << batch
     << ",\n  \"batch_deadline_us\": " << sopts.batch_deadline_us
     << ",\n  \"batch_max\": " << sopts.batch_max;
  if (open_qps > 0.0) os << ",\n  \"open_qps_target\": " << fmt(open_qps);
  os << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& lr = results[i];
    os << "    {\"concurrency\": " << lr.concurrency << ", \"requests\": " << lr.requests
       << ", \"queries\": " << lr.queries << ", \"seconds\": " << fmt(lr.seconds)
       << ", \"qps\": " << fmt(lr.qps) << ", \"p50_us\": " << fmt(lr.p50_us)
       << ", \"p99_us\": " << fmt(lr.p99_us) << ", \"p999_us\": " << fmt(lr.p999_us)
       << ", \"batches\": " << lr.batches
       << ", \"mean_batch_queries\": " << fmt(lr.mean_batch_queries) << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"batch_size_log2_hist\": [";
  for (std::size_t i = 0; i < final_stats.batch_size_log2_hist.size(); ++i) {
    os << (i == 0 ? "" : ", ") << final_stats.batch_size_log2_hist[i];
  }
  os << "],\n  \"served_requests\": " << final_stats.requests
     << ",\n  \"served_errors\": " << final_stats.errors
     << ",\n  \"responses_bit_identical\": true\n}\n";
  std::ofstream out(args.str("out"));
  out << os.str();
  std::cout << os.str();
  return 0;
}
