#include "models/neural.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "dataset/binary_io.hpp"

namespace airch {

namespace {
constexpr std::size_t kPredictChunk = 2048;
}

std::vector<EpochStats> NeuralClassifier::fit(const Dataset& train, const Dataset& val,
                                              const FeatureEncoder& enc) {
  Rng rng(options_.seed);
  fitted_input_dim_ = static_cast<std::size_t>(train.num_features());
  fitted_vocab_ = uses_embedding() ? enc.vocab_sizes() : std::vector<int>{};
  build_net(static_cast<std::size_t>(train.num_classes()), fitted_input_dim_, fitted_vocab_);
  ml::Adam opt(options_.learning_rate);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochStats> history;
  double best_val = -1.0;
  int epochs_since_best = 0;
  const ml::ExponentialDecaySchedule lr_schedule{options_.learning_rate, options_.lr_decay};
  // Per-batch input buffers are hoisted out of the epoch loop: every full
  // batch has the same shape, so the gather encoders refill the same
  // storage and steady-state epochs allocate nothing here.
  ml::IntBatch int_batch;
  ml::Matrix float_batch;
  std::vector<std::int32_t> labels;
  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    opt.set_learning_rate(lr_schedule(epoch));
    rng.shuffle(order);
    ml::TrainStats epoch_stats;
    for (std::size_t begin = 0; begin < train.size(); begin += options_.batch_size) {
      const std::size_t end = std::min(train.size(), begin + options_.batch_size);
      labels.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) labels[i - begin] = train[order[i]].label;
      if (uses_embedding()) {
        enc.encode_int_gather_into(train, order, begin, end, int_batch);
        epoch_stats += net_->train_batch(int_batch, labels, opt);
      } else {
        enc.encode_float_gather_into(train, order, begin, end, float_batch);
        epoch_stats += net_->train_batch(float_batch, labels, opt);
      }
    }
    if (finish_epoch(epoch, epoch_stats, val, enc, history, best_val, epochs_since_best)) {
      break;  // the paper's case 2 overfits past ~22 epochs; stop here
    }
  }
  return history;
}

/// Shared per-epoch tail of fit / fit_stream: validation, history row,
/// early-stop bookkeeping. Returns true when training should stop.
bool NeuralClassifier::finish_epoch(int epoch, const ml::TrainStats& epoch_stats,
                                    const Dataset& val, const FeatureEncoder& enc,
                                    std::vector<EpochStats>& history, double& best_val,
                                    int& epochs_since_best) {
  const bool need_val = !val.empty() && (options_.early_stop_patience > 0 ||
                                         epoch % options_.log_every_epochs == 0 ||
                                         epoch == options_.epochs);
  const double val_acc = need_val ? accuracy(val, enc) : 0.0;
  if (epoch % options_.log_every_epochs == 0 || epoch == options_.epochs) {
    EpochStats es;
    es.epoch = epoch;
    es.train_loss = epoch_stats.loss;
    es.train_accuracy = epoch_stats.count > 0 ? static_cast<double>(epoch_stats.correct) /
                                                    static_cast<double>(epoch_stats.count)
                                              : 0.0;
    es.val_accuracy = val_acc;
    history.push_back(es);
  }
  if (options_.early_stop_patience > 0 && !val.empty()) {
    if (val_acc > best_val) {
      best_val = val_acc;
      epochs_since_best = 0;
    } else if (++epochs_since_best >= options_.early_stop_patience) {
      return true;
    }
  }
  return false;
}

std::vector<EpochStats> NeuralClassifier::fit_stream(BatchStream& train, const Dataset& val,
                                                     const FeatureEncoder& enc,
                                                     std::size_t chunk_points) {
  if (chunk_points == 0) throw std::invalid_argument("chunk_points must be positive");
  Rng rng(options_.seed);
  fitted_input_dim_ = static_cast<std::size_t>(train.num_features());
  fitted_vocab_ = uses_embedding() ? enc.vocab_sizes() : std::vector<int>{};
  build_net(static_cast<std::size_t>(train.num_classes()), fitted_input_dim_, fitted_vocab_);
  ml::Adam opt(options_.learning_rate);

  std::vector<EpochStats> history;
  double best_val = -1.0;
  int epochs_since_best = 0;
  const ml::ExponentialDecaySchedule lr_schedule{options_.learning_rate, options_.lr_decay};
  ml::IntBatch int_batch;
  ml::Matrix float_batch;
  std::vector<std::int32_t> labels;
  Dataset chunk;
  // One order vector per chunk position, persisted across epochs: fit()
  // re-shuffles its (already shuffled) order every epoch rather than
  // re-shuffling a fresh iota, and the chunk boundaries are identical
  // every epoch, so persisting reproduces that exact permutation walk.
  std::vector<std::vector<std::size_t>> orders;
  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    opt.set_learning_rate(lr_schedule(epoch));
    train.reset();
    ml::TrainStats epoch_stats;
    std::size_t chunk_index = 0;
    // Shuffling is per chunk (the whole point of streaming is never
    // holding more than one chunk), so when one chunk covers the file this
    // degenerates to fit()'s full shuffle with the identical Rng sequence
    // — the bit-identity contract tested in tests/test_binary_io.cpp.
    while (train.next_batch(chunk_points, chunk)) {
      if (chunk_index == orders.size()) {
        orders.emplace_back(chunk.size());
        std::iota(orders.back().begin(), orders.back().end(), 0);
      }
      std::vector<std::size_t>& order = orders[chunk_index++];
      rng.shuffle(order);
      for (std::size_t begin = 0; begin < chunk.size(); begin += options_.batch_size) {
        const std::size_t end = std::min(chunk.size(), begin + options_.batch_size);
        labels.resize(end - begin);
        for (std::size_t i = begin; i < end; ++i) labels[i - begin] = chunk[order[i]].label;
        if (uses_embedding()) {
          enc.encode_int_gather_into(chunk, order, begin, end, int_batch);
          epoch_stats += net_->train_batch(int_batch, labels, opt);
        } else {
          enc.encode_float_gather_into(chunk, order, begin, end, float_batch);
          epoch_stats += net_->train_batch(float_batch, labels, opt);
        }
      }
    }
    if (finish_epoch(epoch, epoch_stats, val, enc, history, best_val, epochs_since_best)) {
      break;  // same early-stop rule as fit()
    }
  }
  return history;
}

std::vector<std::int32_t> NeuralClassifier::predict(const Dataset& ds,
                                                    const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  std::vector<std::int32_t> out;
  out.reserve(ds.size());
  for (std::size_t begin = 0; begin < ds.size(); begin += kPredictChunk) {
    const std::size_t end = std::min(ds.size(), begin + kPredictChunk);
    std::vector<std::int32_t> chunk;
    if (uses_embedding()) {
      chunk = net_->predict(enc.encode_int(ds, begin, end));
    } else {
      chunk = net_->predict(enc.encode_float(ds, begin, end));
    }
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<std::int32_t> NeuralClassifier::predict_batch(
    const std::vector<std::vector<std::int64_t>>& queries, const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  if (queries.empty()) return {};
  // One packed forward for the whole query set: the matmul kernel works on
  // a (N x input_dim) batch instead of N single-row products.
  if (uses_embedding()) return net_->predict(enc.encode_int_batch(queries));
  return net_->predict(enc.encode_float_batch(queries));
}

std::vector<float> NeuralClassifier::predict_proba(const std::vector<std::int64_t>& features,
                                                   const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  ml::Matrix logits = uses_embedding() ? net_->infer_logits(enc.encode_int(features))
                                       : net_->infer_logits(enc.encode_float(features));
  ml::softmax_rows(logits);
  return std::vector<float>(logits.row(0), logits.row(0) + logits.cols());
}

void NeuralClassifier::build_net(std::size_t classes, std::size_t input_dim,
                                 const std::vector<int>& vocab) {
  Rng rng(options_.seed);
  if (uses_embedding()) {
    net_ = std::make_unique<ml::FeedForwardNet>(vocab, options_.embed_dim, options_.hidden,
                                                classes, rng);
  } else {
    net_ = std::make_unique<ml::FeedForwardNet>(input_dim, options_.hidden, classes, rng);
  }
}

void NeuralClassifier::save(BinWriter& out) const {
  if (!net_) throw std::logic_error("save before fit");
  out.put_u64(name_.size());
  out.put_bytes(name_.data(), name_.size());
  out.put_u64(options_.embed_dim);
  out.put_u64(options_.hidden.size());
  for (const auto h : options_.hidden) out.put_u64(h);
  out.put_f64(options_.learning_rate);
  out.put_f64(0.0);  // reserved slot (a dropout rate in earlier versions); always 0
  out.put_u64(options_.seed);
  out.put_u64(net_->num_classes());
  out.put_u64(fitted_input_dim_);
  out.put_u64(fitted_vocab_.size());
  for (const auto v : fitted_vocab_) out.put_i32(v);
  const auto params = std::as_const(*net_).params();
  out.put_u64(params.size());
  for (const auto& p : params) {
    out.put_u64(p.size);
    for (std::size_t i = 0; i < p.size; ++i) out.put_u32(std::bit_cast<std::uint32_t>(p.value[i]));
  }
}

namespace {

/// Adds a * b parameters to `total`, failing once the sum passes `cap`.
/// total <= cap on entry and the product is bounded by cap - total before
/// it is formed, so neither step can overflow.
void add_params(std::uint64_t& total, std::uint64_t a, std::uint64_t b, std::uint64_t cap) {
  AIRCH_CHECK(a == 0 || b <= (cap - total) / a,
              "model file: parameter shape exceeds the file size");
  total += a * b;
}

}  // namespace

std::unique_ptr<NeuralClassifier> NeuralClassifier::load(BinReader& in) {
  std::string name(in.get_count(1), '\0');
  in.get_bytes(name.data(), name.size());
  Options o;
  o.embed_dim = in.get_u64();
  o.hidden.resize(in.get_count(8));
  for (auto& h : o.hidden) {
    h = in.get_u64();
    AIRCH_CHECK(h >= 1, "model file: zero-width hidden layer");
  }
  o.learning_rate = in.get_f64();
  AIRCH_CHECK(in.get_f64() == 0.0, "model file: reserved dropout slot is not 0");
  o.seed = in.get_u64();

  const std::uint64_t classes = in.get_u64();
  const std::uint64_t input_dim = in.get_u64();
  AIRCH_CHECK(classes >= 1 && input_dim >= 1, "model file: empty network shape");
  std::vector<int> vocab(in.get_count(4));
  for (auto& v : vocab) {
    v = in.get_i32();
    AIRCH_CHECK(v >= 1, "model file: embedding vocab size below 1");
  }
  AIRCH_CHECK(o.embed_dim > 0 ? vocab.size() == input_dim : vocab.empty(),
              "model file: vocab list does not match the input modality");

  // The network is about to allocate every parameter the shape implies;
  // each is stored as 4 bytes, so a shape that needs more than the file
  // holds is corrupt and must fail before build_net, not after.
  const std::uint64_t cap = in.remaining() / 4;
  std::uint64_t implied = 0;
  std::uint64_t width = input_dim;
  if (o.embed_dim > 0) {
    for (const int v : vocab) add_params(implied, static_cast<std::uint64_t>(v), o.embed_dim, cap);
    width = input_dim * o.embed_dim;  // <= implied, since every vocab is >= 1
  }
  for (const std::uint64_t h : o.hidden) {
    add_params(implied, width, h, cap);
    add_params(implied, 1, h, cap);
    width = h;
  }
  add_params(implied, width, classes, cap);
  add_params(implied, 1, classes, cap);

  auto clf = std::make_unique<NeuralClassifier>(std::move(name), o);
  clf->fitted_input_dim_ = input_dim;
  clf->fitted_vocab_ = std::move(vocab);
  clf->build_net(classes, input_dim, clf->fitted_vocab_);

  const auto params = clf->net_->params();
  const std::uint64_t tensors = in.get_u64();
  AIRCH_CHECK(tensors == params.size(), "model file: parameter tensor count mismatch");
  for (const auto& p : params) {
    const std::uint64_t size = in.get_u64();
    AIRCH_CHECK(size == p.size, "model file: parameter tensor size mismatch");
    for (std::size_t i = 0; i < p.size; ++i) p.value[i] = std::bit_cast<float>(in.get_u32());
  }
  return clf;
}

std::unique_ptr<NeuralClassifier> make_mlp_a(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {128};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-A", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_b(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {256};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-B", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_c(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {128, 128};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-C", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_d(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {256, 256};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-D", o);
}

std::unique_ptr<NeuralClassifier> make_airchitect(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.hidden = {256};
  o.embed_dim = 16;
  o.epochs = epochs;
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("AIrchitect", o);
}

}  // namespace airch
