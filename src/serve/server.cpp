#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <list>
#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/sync.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace airch::serve {

namespace {
/// floor(log2(n)) clamped into the fixed histogram width; n >= 1.
constexpr std::size_t kHistBuckets = 13;  // 2^12 = kMaxQueriesPerFrame
std::size_t log2_bucket(std::size_t n) {
  std::size_t b = 0;
  while (n > 1 && b + 1 < kHistBuckets) {
    n >>= 1U;
    ++b;
  }
  return b;
}
}  // namespace

struct RecommenderService::Impl {
  /// One in-flight request, shared between its connection thread (waits)
  /// and the dispatcher (fills + notifies). Its lock is a kLeaf peer of
  /// every other service lock: neither side holds anything else while
  /// touching it.
  struct Pending {
    const Recommender* rec = nullptr;
    QueryFrame query;
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    std::vector<std::int32_t> labels GUARDED_BY(mu);
    std::string error GUARDED_BY(mu);
  };

  struct ConnState {
    explicit ConnState(Socket s) : sock(std::move(s)) {}
    Socket sock;
    // Lock-free completion flag (documented escape hatch, not a
    // capability): the acceptor polls it to reap finished connection
    // threads without blocking on a lock the connection might hold.
    std::atomic<bool> done{false};
  };

  struct Conn {
    std::shared_ptr<ConnState> state;
    Thread thread;
  };

  explicit Impl(std::vector<ServedModel> m, ServeOptions o)
      : models(std::move(m)), options(o) {
    AIRCH_CHECK(!models.empty(), "service needs at least one model");
    AIRCH_CHECK(options.batch_max >= 1, "batch_max must be >= 1");
    AIRCH_CHECK(options.batch_deadline_us >= 0 && options.batch_deadline_us <= kMaxBatchDeadlineUs,
                "batch_deadline_us must be in [0, kMaxBatchDeadlineUs]");
    for (std::size_t i = 0; i < models.size(); ++i) {
      AIRCH_CHECK(models[i].rec != nullptr, "null recommender in the model table");
      AIRCH_CHECK(models[i].case_id >= 1 && models[i].case_id <= 3,
                  "case id must be 1..3");
      for (std::size_t j = 0; j < i; ++j) {
        AIRCH_CHECK(models[j].case_id != models[i].case_id,
                    "duplicate case id in the model table");
      }
    }
    stats_.batch_size_log2_hist.assign(kHistBuckets, 0);
  }

  const Recommender* find_model(int case_id) const {
    for (const auto& m : models) {
      if (m.case_id == case_id) return m.rec;
    }
    return nullptr;
  }

  void bump_errors() {
    const MutexLock lock(stats_mu_);
    ++stats_.errors;
  }

  /// Counts the error before sending it: a client that has seen the
  /// reply must also see the counter (ServeStats is causally consistent).
  void send_error(Socket& sock, const std::string& message) {
    bump_errors();
    sock.send_frame(encode_error(message));
  }

  // ------------------------------------------------------------- acceptor

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      std::optional<Socket> sock;
      try {
        sock = listener->accept_one(options.accept_poll_ms);
      } catch (...) {
        break;  // listener torn down (stop) or fatal socket error
      }
      reap_finished();
      if (!sock) continue;
      bool reject = false;
      {
        const MutexLock lock(conns_mu_);
        if (conns_.size() >= options.max_connections) {
          reject = true;
        } else {
          auto state = std::make_shared<ConnState>(std::move(*sock));
          conns_.push_back(
              {state, Thread([this, state] { serve_connection(*state); })});
        }
      }
      if (reject) {
        try {
          send_error(*sock, "connection limit reached");
        } catch (...) {
          // peer already gone; nothing to report to
        }
      }
    }
  }

  void reap_finished() {
    const MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->state->done.load(std::memory_order_acquire)) {
        it = conns_.erase(it);  // Thread dtor joins the finished thread
      } else {
        ++it;
      }
    }
  }

  // ---------------------------------------------------------- connections

  void serve_connection(ConnState& cs) {
    try {
      for (;;) {
        auto body = cs.sock.recv_frame(kMaxFrameBytes);
        if (!body) break;  // clean EOF
        Frame frame;
        try {
          frame = decode_frame(body->data(), body->size());
          AIRCH_CHECK(frame.type == FrameType::kQuery, "expected a query frame");
        } catch (const std::exception& e) {
          // Length-prefixed framing keeps the stream in sync past a bad
          // body, so a malformed request costs its sender one error reply,
          // not the connection.
          send_error(cs.sock, e.what());
          continue;
        }
        const Recommender* rec = find_model(frame.query.case_id);
        if (rec == nullptr) {
          send_error(cs.sock, "no model loaded for case " +
                                  std::to_string(frame.query.case_id));
          continue;
        }
        if (frame.query.num_features != static_cast<std::size_t>(rec->num_features())) {
          // Arity is checked HERE, before the request can join a packed
          // batch: recommend_batch would throw for the whole batch and
          // take every coalesced neighbor down with it.
          send_error(cs.sock, "feature arity mismatch for case " +
                                  std::to_string(frame.query.case_id));
          continue;
        }
        auto pending = std::make_shared<Pending>();
        pending->rec = rec;
        pending->query = std::move(frame.query);
        enqueue(pending);
        std::vector<std::int32_t> labels;
        std::string error;
        {
          const MutexLock lock(pending->mu);
          while (!pending->done) pending->cv.wait(pending->mu);
          labels = std::move(pending->labels);
          error = std::move(pending->error);
        }
        if (!error.empty()) {
          send_error(cs.sock, error);
        } else {
          {
            const MutexLock lock(stats_mu_);
            ++stats_.requests;  // before the reply, as in send_error
          }
          cs.sock.send_frame(encode_reply(labels));
        }
      }
    } catch (...) {
      // Torn connection (peer reset, or stop() shut the socket down
      // mid-recv): drop it. In-flight state is owned by shared_ptrs, so
      // the dispatcher can still complete a request whose client left.
    }
    cs.done.store(true, std::memory_order_release);
  }

  void enqueue(const std::shared_ptr<Pending>& pending) {
    {
      const MutexLock lock(queue_mu_);
      if (queue_.empty()) first_arrival_ = std::chrono::steady_clock::now();
      queue_.push_back(pending);
      queued_queries_ += pending->query.num_queries();
    }
    queue_cv_.notify_all();
  }

  // ----------------------------------------------------------- dispatcher

  void dispatch_loop() {
    // The dispatcher is idle when it had to wait on an empty queue, and at
    // startup, before any batch has run.
    bool was_idle = true;
    for (;;) {
      std::vector<std::shared_ptr<Pending>> admitted;
      {
        const MutexLock lock(queue_mu_);
        while (queue_.empty() && !drain_) {
          was_idle = true;
          queue_cv_.wait(queue_mu_);
        }
        if (queue_.empty()) return;  // drain flagged and nothing left
        // An idle dispatcher runs the batch the moment the first request
        // lands: there is no one to wait for, so waiting would only add
        // latency. Requests that queued while a batch was running form an
        // admission window instead: take everything that arrives within
        // batch_deadline_us of the FIRST of them, or dispatch early the
        // moment batch_max queries are queued. Requests that arrive after
        // the swap start the next window.
        if (!was_idle) {
          const auto deadline =
              first_arrival_ + std::chrono::microseconds(options.batch_deadline_us);
          while (queued_queries_ < options.batch_max && !drain_) {
            if (!queue_cv_.wait_until(queue_mu_, deadline)) break;
          }
        }
        admitted.swap(queue_);
        queued_queries_ = 0;
      }
      run_batch(admitted);
      was_idle = false;
    }
  }

  void run_batch(const std::vector<std::shared_ptr<Pending>>& admitted) {
    // Group by model, preserving arrival order within each group; one
    // packed forward pass per case study present in the window.
    std::vector<const Recommender*> recs;
    for (const auto& p : admitted) {
      bool seen = false;
      for (const Recommender* r : recs) seen = seen || r == p->rec;
      if (!seen) recs.push_back(p->rec);
    }
    for (const Recommender* rec : recs) {
      std::vector<Pending*> group;
      std::vector<std::vector<std::int64_t>> queries;
      for (const auto& p : admitted) {
        if (p->rec != rec) continue;
        group.push_back(p.get());
        const std::size_t arity = p->query.num_features;
        for (std::size_t q = 0; q < p->query.num_queries(); ++q) {
          const auto* row = p->query.features.data() + q * arity;
          queries.emplace_back(row, row + arity);
        }
      }
      std::vector<std::int32_t> labels;
      std::string error;
      try {
        labels = rec->recommend_batch(queries);
        AIRCH_CHECK(labels.size() == queries.size(),
                    "recommend_batch returned a short result");
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (error.empty()) {
        const MutexLock lock(stats_mu_);
        ++stats_.batches;
        stats_.queries += queries.size();
        ++stats_.batch_size_log2_hist[log2_bucket(queries.size())];
      }
      std::size_t offset = 0;
      for (Pending* p : group) {
        const std::size_t n = p->query.num_queries();
        {
          const MutexLock lock(p->mu);
          if (error.empty()) {
            p->labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(offset),
                             labels.begin() + static_cast<std::ptrdiff_t>(offset + n));
          } else {
            p->error = error;
          }
          p->done = true;
        }
        p->cv.notify_all();
        offset += n;
      }
    }
  }

  // -------------------------------------------------------------- members

  const std::vector<ServedModel> models;
  const ServeOptions options;

  std::optional<Listener> listener;
  Thread acceptor;
  Thread dispatcher;
  bool started = false;
  bool stopped = false;
  // Lock-free stop flag (escape hatch, not a capability): checked by the
  // acceptor between polls; no compound state rides on it.
  std::atomic<bool> stopping{false};

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<std::shared_ptr<Pending>> queue_ GUARDED_BY(queue_mu_);
  std::size_t queued_queries_ GUARDED_BY(queue_mu_) = 0;
  std::chrono::steady_clock::time_point first_arrival_ GUARDED_BY(queue_mu_);
  bool drain_ GUARDED_BY(queue_mu_) = false;

  Mutex conns_mu_;
  std::list<Conn> conns_ GUARDED_BY(conns_mu_);

  mutable Mutex stats_mu_;
  ServeStats stats_ GUARDED_BY(stats_mu_);
};

RecommenderService::RecommenderService(std::vector<ServedModel> models, ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(models), options)) {}

RecommenderService::~RecommenderService() { stop(); }

void RecommenderService::start() {
  AIRCH_CHECK(!impl_->started, "service already started");
  impl_->started = true;
  impl_->listener.emplace();  // binds 127.0.0.1:<ephemeral>
  impl_->acceptor = Thread([impl = impl_.get()] { impl->accept_loop(); });
  impl_->dispatcher = Thread([impl = impl_.get()] { impl->dispatch_loop(); });
}

void RecommenderService::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  // 1. Stop accepting; the poll timeout bounds how long this join takes.
  impl_->stopping.store(true, std::memory_order_release);
  impl_->acceptor.join();
  // 2. Unblock every connection's recv, then join the connection threads.
  //    Requests already enqueued still complete: the dispatcher is alive
  //    until step 3, and it drains the queue before exiting.
  {
    const MutexLock lock(impl_->conns_mu_);
    for (auto& conn : impl_->conns_) conn.state->sock.shutdown_both();
  }
  std::list<Impl::Conn> conns;
  {
    const MutexLock lock(impl_->conns_mu_);
    conns.swap(impl_->conns_);
  }
  conns.clear();  // Thread dtors join outside any lock
  // 3. No producer is left; let the dispatcher drain and exit.
  {
    const MutexLock lock(impl_->queue_mu_);
    impl_->drain_ = true;
  }
  impl_->queue_cv_.notify_all();
  impl_->dispatcher.join();
}

int RecommenderService::port() const {
  AIRCH_CHECK(impl_->started, "port() before start()");
  return impl_->listener->port();
}

ServeStats RecommenderService::stats() const {
  const MutexLock lock(impl_->stats_mu_);
  return impl_->stats_;
}

}  // namespace airch::serve
