// Model files (binary format 2): a saved encoder / classifier / recommender
// must reload to bit-identical parameters and predictions, and — the
// hardening half — every single-byte substitution, every truncation,
// trailing bytes and a format-1 text file must throw ContractViolation,
// never misparse or crash.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "core/recommender.hpp"
#include "dataset/encoding.hpp"
#include "models/neural.hpp"

#include "file_bytes.hpp"

namespace airch {
namespace {

Dataset synthetic(std::size_t n, std::uint64_t seed) {
  Dataset ds({"a", "b", "c"}, 5);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = rng.log_uniform_int(1, 4096);
    const std::int64_t b = rng.uniform_int(0, 3);
    const std::int64_t c = rng.log_uniform_int(1, 512);
    ds.add({{a, b, c}, static_cast<std::int32_t>((a + b + c) % 5)});
  }
  return ds;
}

using test::read_file;
using test::write_file;

/// Temp-file paths private to this binary, removed after each test.
class TempFiles : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::string path(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "serialization_" + name);
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

/// Writes one bare section (no recommender header or trailer).
template <typename T>
void save_section(const T& section, const std::string& path) {
  BinWriter out(path);
  section.save(out);
  out.finish();
}

using EncoderSerialization = TempFiles;
using ClassifierSerialization = TempFiles;
using RecommenderSerialization = TempFiles;

TEST_F(EncoderSerialization, RoundTripBuckets) {
  const Dataset ds = synthetic(500, 1);
  const FeatureEncoder enc(ds, 16);
  save_section(enc, path("enc.bin"));
  BinReader in(path("enc.bin"));
  const FeatureEncoder loaded = FeatureEncoder::load(in);
  EXPECT_EQ(in.remaining(), 0u);

  EXPECT_EQ(loaded.vocab_sizes(), enc.vocab_sizes());
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::int64_t> f = {rng.uniform_int(-10, 10000), rng.uniform_int(-1, 5),
                                         rng.uniform_int(0, 1000)};
    for (int col = 0; col < 3; ++col) {
      EXPECT_EQ(loaded.bucket(col, f[static_cast<std::size_t>(col)]),
                enc.bucket(col, f[static_cast<std::size_t>(col)]));
    }
    const auto a = enc.encode_float(f);
    const auto b = loaded.encode_float(f);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.data()[i]), std::bit_cast<std::uint32_t>(b.data()[i]));
    }
  }
}

TEST_F(EncoderSerialization, RejectsGarbage) {
  // "not an e" read as the column count is far more columns than the file
  // holds: rejected before it sizes anything.
  write_file(path("garbage.bin"), "not an encoder");
  BinReader in(path("garbage.bin"));
  EXPECT_THROW(FeatureEncoder::load(in), ContractViolation);
}

TEST_F(ClassifierSerialization, RoundTripPredictions) {
  const Dataset train = synthetic(1000, 3);
  const Dataset test = synthetic(300, 4);
  const FeatureEncoder enc(train);

  auto clf = make_airchitect(1, 4);
  clf->fit(train, {}, enc);

  save_section(*clf, path("clf.bin"));
  BinReader in(path("clf.bin"));
  auto loaded = NeuralClassifier::load(in);

  EXPECT_EQ(loaded->name(), clf->name());
  EXPECT_EQ(loaded->fitted_input_dim(), clf->fitted_input_dim());
  EXPECT_EQ(loaded->fitted_vocab(), clf->fitted_vocab());
  EXPECT_EQ(loaded->predict(test, enc), clf->predict(test, enc));
}

TEST_F(ClassifierSerialization, FloatModalityRoundTrip) {
  const Dataset train = synthetic(1000, 5);
  const Dataset test = synthetic(200, 6);
  const FeatureEncoder enc(train);

  auto clf = make_mlp_a(1, 3);
  clf->fit(train, {}, enc);

  save_section(*clf, path("mlp.bin"));
  BinReader in(path("mlp.bin"));
  auto loaded = NeuralClassifier::load(in);
  EXPECT_TRUE(loaded->fitted_vocab().empty());
  EXPECT_EQ(loaded->predict(test, enc), clf->predict(test, enc));
}

TEST_F(ClassifierSerialization, SaveBeforeFitThrows) {
  auto clf = make_mlp_a(1, 3);
  BinWriter out(path("unfitted.bin"));
  EXPECT_THROW(clf->save(out), std::logic_error);
}

TEST_F(ClassifierSerialization, TruncatedStreamRejected) {
  const Dataset train = synthetic(500, 7);
  const FeatureEncoder enc(train);
  auto clf = make_mlp_a(1, 2);
  clf->fit(train, {}, enc);
  save_section(*clf, path("full.bin"));
  const std::string full = read_file(path("full.bin"));
  write_file(path("half.bin"), full.substr(0, full.size() / 2));
  BinReader in(path("half.bin"));
  EXPECT_THROW(NeuralClassifier::load(in), ContractViolation);
}

TEST_F(RecommenderSerialization, RoundTripQueries) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 2000;
  opts.epochs = 3;
  const Recommender rec = Recommender::train(study, opts);
  rec.save(path("rec.airch"));

  const Recommender loaded = Recommender::load(path("rec.airch"), study);
  EXPECT_DOUBLE_EQ(loaded.report().val_accuracy, rec.report().val_accuracy);

  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const GemmWorkload w{rng.log_uniform_int(4, 1 << 16), rng.log_uniform_int(4, 1 << 12),
                         rng.log_uniform_int(4, 1 << 12)};
    const int budget = static_cast<int>(rng.uniform_int(5, 10));
    EXPECT_EQ(loaded.recommend_array(w, budget), rec.recommend_array(w, budget));
  }
}

TEST_F(RecommenderSerialization, ParametersAndValAccuracyBitIdenticalAfterReload) {
  // The file stores every parameter tensor as its floats' bit patterns and
  // val_accuracy, means and stddevs as f64 bit patterns, so a reloaded
  // model that saves to the same bytes holds bit-identical parameters.
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 990;
  opts.epochs = 2;
  const Recommender embedding = Recommender::train(study, opts);

  const Dataset data = study.generate(600, 3);
  auto enc = std::make_unique<FeatureEncoder>(data);
  auto mlp = make_mlp_c(5, 2);
  mlp->fit(data, {}, *enc);
  const Recommender floats(study, std::move(mlp), std::move(enc));

  for (const Recommender* rec : {&embedding, &floats}) {
    rec->save(path("first.airch"));
    const Recommender loaded = Recommender::load(path("first.airch"), study);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.report().val_accuracy),
              std::bit_cast<std::uint64_t>(rec->report().val_accuracy));
    loaded.save(path("second.airch"));
    EXPECT_EQ(read_file(path("second.airch")), read_file(path("first.airch")));
  }
}

TEST_F(RecommenderSerialization, WrongStudyRejected) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 1000;
  opts.epochs = 2;
  Recommender::train(study, opts).save(path("case1.airch"));

  SchedulingStudy other;
  EXPECT_THROW(Recommender::load(path("case1.airch"), other), std::runtime_error);
}

TEST_F(RecommenderSerialization, MissingFileRejected) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  EXPECT_THROW(Recommender::load("/nonexistent/rec.airch", study), std::runtime_error);
}

TEST(RecommenderTopK, OrderedAndContainsTop1) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 2000;
  opts.epochs = 3;
  const Recommender rec = Recommender::train(study, opts);

  const std::vector<std::int64_t> features = {8, 512, 128, 256};
  const auto top1 = rec.recommend_label(features);
  const auto top5 = rec.recommend_topk(features, 5);
  ASSERT_EQ(top5.size(), 5u);
  EXPECT_EQ(top5[0], top1);
  // Labels are distinct.
  for (std::size_t i = 0; i < top5.size(); ++i) {
    for (std::size_t j = i + 1; j < top5.size(); ++j) {
      EXPECT_NE(top5[i], top5[j]);
    }
  }
  // k == the full space is the largest legal request; anything outside
  // [1, num_classes] is a caller bug and is rejected, not clamped.
  EXPECT_EQ(rec.recommend_topk(features, study.num_classes()).size(),
            static_cast<std::size_t>(study.num_classes()));
  EXPECT_THROW(rec.recommend_topk(features, 0), ContractViolation);
  EXPECT_THROW(rec.recommend_topk(features, -3), ContractViolation);
  EXPECT_THROW(rec.recommend_topk(features, study.num_classes() + 1), ContractViolation);
}

TEST_F(RecommenderSerialization, ValAccuracyRoundTripsExactly) {
  // val_accuracy travels as its f64 bit pattern. Pin with a value a 6-digit
  // decimal rendering cannot represent: 990 points at a 0.9 split leave 99
  // validation samples, and k/99 has a repeating decimal for every k
  // except 0 and 99.
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 990;
  opts.epochs = 2;
  const Recommender rec = Recommender::train(study, opts);

  const double acc = rec.report().val_accuracy;
  std::ostringstream six;
  six << acc;
  ASSERT_NE(std::stod(six.str()), acc)
      << "val_accuracy happened to be 6-digit exact; pick a dataset_size "
         "whose validation split produces a non-terminating ratio";

  rec.save(path("acc.airch"));
  const Recommender loaded = Recommender::load(path("acc.airch"), study);
  EXPECT_EQ(loaded.report().val_accuracy, acc);
}

// ------------------------------------------------------------- corruption

/// A deliberately tiny case-1 recommender (1-wide embeddings, 2 hidden
/// units, 4-bucket vocabularies): a few KB, so the per-byte sweeps below
/// stay fast.
class ModelFileCorruptionTest : public TempFiles {
 protected:
  void SetUp() override {
    Dataset data({"budget", "m", "n", "k"}, study_.num_classes());
    Rng rng(21);
    for (int i = 0; i < 64; ++i) {
      data.add({{rng.uniform_int(5, 10), rng.log_uniform_int(4, 4096),
                 rng.log_uniform_int(4, 4096), rng.log_uniform_int(4, 4096)},
                static_cast<std::int32_t>(rng.uniform_int(0, study_.num_classes() - 1))});
    }
    NeuralClassifier::Options o;
    o.hidden = {2};
    o.embed_dim = 1;
    o.epochs = 1;
    auto enc = std::make_unique<FeatureEncoder>(data, 4);
    auto clf = std::make_unique<NeuralClassifier>("tiny", o);
    clf->fit(data, {}, *enc);
    Recommender(study_, std::move(clf), std::move(enc)).save(path("good.airch"));
    good_ = read_file(path("good.airch"));
    ASSERT_NO_THROW((void)Recommender::load(path("good.airch"), study_));
  }

  /// Loads `bytes` as a model file; returns the ContractViolation message,
  /// or fails the test if the load does anything other than throw one.
  std::string load_error(const std::string& bytes) {
    const std::string p = path("bad.airch");
    write_file(p, bytes);
    try {
      (void)Recommender::load(p, study_);
    } catch (const ContractViolation& e) {
      return e.what();
    }
    ADD_FAILURE() << "no ContractViolation";
    return {};
  }

  ArrayDataflowStudy study_{Case1Config{5, 10, {}}, 10};
  std::string good_;
};

TEST_F(ModelFileCorruptionTest, EverySingleByteSubstitutionIsRejected) {
  ASSERT_LT(good_.size(), 16384u);
  for (std::size_t i = 0; i < good_.size(); ++i) {
    std::string bad = good_;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0xA5u);
    EXPECT_FALSE(load_error(bad).empty()) << "flipped byte " << i << " of " << good_.size();
  }
}

TEST_F(ModelFileCorruptionTest, EveryTruncationLengthIsRejected) {
  for (std::size_t len = 0; len < good_.size(); ++len) {
    EXPECT_FALSE(load_error(good_.substr(0, len)).empty())
        << "truncated to " << len << " of " << good_.size();
  }
}

TEST_F(ModelFileCorruptionTest, TrailingBytesAfterTheChecksumAreRejected) {
  EXPECT_NE(load_error(good_ + '\0').find("trailing bytes"), std::string::npos);
}

TEST_F(ModelFileCorruptionTest, FormatOneTextFileIsRejectedWithARetrainHint) {
  const std::string message = load_error(
      "airchitect-recommender v1\n1 459\n0.5\nneural-classifier v1\nAIrchitect\n");
  EXPECT_NE(message.find("predates format 2"), std::string::npos) << message;
  EXPECT_NE(message.find("retrain"), std::string::npos) << message;
}

/// The 8 little-endian bytes BinWriter::put_f64 writes for `v`.
std::string f64_bytes(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  std::string out(8, '\0');
  for (std::size_t i = 0; i < 8; ++i) out[i] = static_cast<char>((bits >> (8 * i)) & 0xFFu);
  return out;
}

TEST_F(ModelFileCorruptionTest, NonZeroReservedDropoutSlotIsRejected) {
  // The classifier section's f64 after the learning rate once held a
  // dropout rate; format 2 keeps it as a reserved slot that must be 0.
  // Header: u64 magic, u32 version, u32 case, u32 classes, f64 val_acc.
  // Classifier: u64 name size, "tiny", u64 embed_dim, u64 hidden count,
  // u64 width, f64 learning rate, then the slot.
  constexpr std::size_t kSlot = 28 + 8 + 4 + 8 + 8 + 8 + 8;
  ASSERT_EQ(good_.substr(kSlot - 8, 8), f64_bytes(NeuralClassifier::Options{}.learning_rate));
  ASSERT_EQ(good_.substr(kSlot, 8), f64_bytes(0.0));

  std::string payload = good_.substr(0, good_.size() - 8);  // drop the trailer
  payload.replace(kSlot, 8, f64_bytes(0.25));
  const std::string p = path("nonzero_slot.airch");
  {
    BinWriter out(p);  // a valid trailer, so only the slot is wrong
    out.put_bytes(payload.data(), payload.size());
    out.put_trailer_checksum();
    out.finish();
  }
  const std::string message = load_error(read_file(p));
  EXPECT_NE(message.find("reserved dropout slot"), std::string::npos) << message;
}

}  // namespace
}  // namespace airch
