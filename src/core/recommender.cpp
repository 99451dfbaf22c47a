#include "core/recommender.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"

namespace airch {

namespace {
// Model file format 2: header (magic, version, case id, class count,
// val_accuracy), the classifier section, the encoder section, trailer.
constexpr std::uint64_t kModelMagic = 0x4345524843524941ULL;  // "AIRCHREC" little-endian
constexpr std::uint32_t kModelFormatVersion = 2;
// The first 8 bytes of a format-1 text file, "airchite(ct-recommender v1)",
// read as a little-endian u64: recognised only to say why it is rejected.
constexpr std::uint64_t kTextModelMagic = 0x6574696863726961ULL;
}  // namespace

Recommender::Recommender(const CaseStudy& study, std::unique_ptr<NeuralClassifier> model,
                         std::unique_ptr<FeatureEncoder> encoder)
    : study_(&study), model_(std::move(model)), encoder_(std::move(encoder)) {
  if (!model_ || !encoder_) throw std::invalid_argument("null model or encoder");
  // Neither mismatch would fail loudly at query time: a different arity
  // makes the embedding read past each index row, and different bucket
  // counts are clamped into the tables, giving silently wrong answers.
  if (static_cast<std::size_t>(encoder_->num_features()) != model_->fitted_input_dim()) {
    throw std::invalid_argument("encoder arity differs from the model's fitted input dimension");
  }
  if (model_->options().embed_dim > 0 && encoder_->vocab_sizes() != model_->fitted_vocab()) {
    throw std::invalid_argument("encoder vocab sizes differ from the model's embedding tables");
  }
}

Recommender Recommender::train(const CaseStudy& study, const TrainOptions& options) {
  Dataset data = study.generate(options.dataset_size, options.seed);
  Rng rng(options.seed ^ 0xA5A5A5A5ULL);
  data.shuffle(rng);
  auto [train, val] = data.split(options.train_frac);

  auto encoder = std::make_unique<FeatureEncoder>(train);
  auto model = make_airchitect(options.seed, options.epochs);
  auto history = model->fit(train, val, *encoder);

  Recommender rec(study, std::move(model), std::move(encoder));
  rec.report_.history = std::move(history);
  rec.report_.val_accuracy =
      rec.report_.history.empty() ? 0.0 : rec.report_.history.back().val_accuracy;
  return rec;
}

std::int32_t Recommender::recommend_label(const std::vector<std::int64_t>& features) const {
  const auto proba = model_->predict_proba(features, *encoder_);
  std::size_t best = 0;
  for (std::size_t i = 1; i < proba.size(); ++i) {
    if (proba[i] > proba[best]) best = i;
  }
  return static_cast<std::int32_t>(best);
}

std::vector<std::int32_t> Recommender::recommend_batch(
    const std::vector<std::vector<std::int64_t>>& queries) const {
  return model_->predict_batch(queries, *encoder_);
}

std::vector<std::int32_t> Recommender::recommend_topk(
    const std::vector<std::int64_t>& features, int k) const {
  // An out-of-range k is a caller bug, not a preference: silently clamping
  // k=0 to 1 (the old behavior) hid wrong --topk plumbing, and k beyond the
  // output space cannot mean anything. Reject both loudly.
  AIRCH_CHECK(k >= 1, "recommend_topk: k must be >= 1");
  AIRCH_CHECK(k <= study_->num_classes(),
              "recommend_topk: k exceeds the output-space size");
  const auto proba = model_->predict_proba(features, *encoder_);
  std::vector<std::int32_t> labels(proba.size());
  std::iota(labels.begin(), labels.end(), 0);
  const auto kk = std::min<std::size_t>(static_cast<std::size_t>(k), labels.size());
  std::partial_sort(labels.begin(), labels.begin() + static_cast<std::ptrdiff_t>(kk),
                    labels.end(), [&](std::int32_t a, std::int32_t b) {
                      return proba[static_cast<std::size_t>(a)] >
                             proba[static_cast<std::size_t>(b)];
                    });
  labels.resize(kk);
  return labels;
}

void Recommender::save(const std::string& path) const {
  BinWriter out(path);
  out.put_u64(kModelMagic);
  out.put_u32(kModelFormatVersion);
  out.put_u32(static_cast<std::uint32_t>(study_->id()));
  out.put_u32(static_cast<std::uint32_t>(study_->num_classes()));
  out.put_f64(report_.val_accuracy);
  model_->save(out);
  encoder_->save(out);
  out.put_trailer_checksum();
  out.finish();
}

Recommender Recommender::load(const std::string& path, const CaseStudy& study) {
  BinReader in(path);
  const std::uint64_t magic = in.get_u64();
  AIRCH_CHECK(magic != kTextModelMagic,
              path + " is a text model file that predates format 2; retrain the model");
  AIRCH_CHECK(magic == kModelMagic, "not a recommender model file: " + path);
  const std::uint32_t version = in.get_u32();
  AIRCH_CHECK(version == kModelFormatVersion, "unsupported model format version in " + path);
  const std::uint32_t case_id = in.get_u32();
  const std::uint32_t classes = in.get_u32();
  const double val_acc = in.get_f64();
  auto model = NeuralClassifier::load(in);
  auto encoder = std::make_unique<FeatureEncoder>(FeatureEncoder::load(in));
  in.verify_trailer_checksum();
  AIRCH_CHECK(in.remaining() == 0, "trailing bytes after the checksum in " + path);
  // Checked only once the checksum has vouched for the header, so a
  // corrupt case id reads as corruption, not as a wrong case study.
  if (case_id != static_cast<std::uint32_t>(study.id()) ||
      classes != static_cast<std::uint32_t>(study.num_classes())) {
    throw std::runtime_error("recommender was trained for a different case study: " + path);
  }
  Recommender rec(study, std::move(model), std::move(encoder));
  rec.report_.val_accuracy = val_acc;
  return rec;
}

ArrayConfig Recommender::recommend_array(const GemmWorkload& w, int budget_exp) const {
  const auto* study = dynamic_cast<const ArrayDataflowStudy*>(study_);
  if (!study) throw std::logic_error("recommender was not trained for case study 1");
  const std::int32_t label = recommend_label({budget_exp, w.m, w.n, w.k});
  return study->space().config(label);
}

MemoryConfig Recommender::recommend_buffers(std::int64_t limit_kb, const GemmWorkload& w,
                                            const ArrayConfig& array,
                                            std::int64_t bandwidth) const {
  const auto* study = dynamic_cast<const BufferSizingStudy*>(study_);
  if (!study) throw std::logic_error("recommender was not trained for case study 2");
  const std::int32_t label = recommend_label({limit_kb, w.m, w.n, w.k, array.rows, array.cols,
                                              dataflow_index(array.dataflow), bandwidth});
  MemoryConfig mem = study->space().config(label);
  mem.bandwidth = bandwidth;
  return mem;
}

ScheduleSpace::Schedule Recommender::recommend_schedule(
    const std::vector<GemmWorkload>& workloads) const {
  const auto* study = dynamic_cast<const SchedulingStudy*>(study_);
  if (!study) throw std::logic_error("recommender was not trained for case study 3");
  std::vector<std::int64_t> features;
  features.reserve(workloads.size() * 3);
  for (const auto& w : workloads) {
    features.push_back(w.m);
    features.push_back(w.n);
    features.push_back(w.k);
  }
  return study->space().config(recommend_label(features));
}

}  // namespace airch
