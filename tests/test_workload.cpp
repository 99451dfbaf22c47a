#include <gtest/gtest.h>

#include "workload/conv.hpp"
#include "workload/gemm.hpp"
#include "workload/model_zoo.hpp"
#include "workload/sampler.hpp"

namespace airch {
namespace {

TEST(Gemm, OperationCounts) {
  const GemmWorkload w{8, 16, 32};
  EXPECT_EQ(w.macs(), MacCount{8 * 16 * 32});
  EXPECT_EQ(w.ifmap_elems(), 8 * 32);
  EXPECT_EQ(w.filter_elems(), 32 * 16);
  EXPECT_EQ(w.ofmap_elems(), 8 * 16);
}

TEST(Gemm, Validity) {
  EXPECT_TRUE((GemmWorkload{1, 1, 1}).valid());
  EXPECT_FALSE((GemmWorkload{0, 1, 1}).valid());
  EXPECT_FALSE((GemmWorkload{1, -2, 1}).valid());
}

TEST(Conv, OutputDims) {
  // AlexNet conv1: 227x227x3, 96 filters 11x11 stride 4 -> 55x55 output.
  const ConvLayer c{"conv1", 227, 227, 3, 96, 11, 4, 0};
  EXPECT_EQ(c.out_h(), 55);
  EXPECT_EQ(c.out_w(), 55);
}

TEST(Conv, Im2ColLowering) {
  const ConvLayer c{"conv1", 227, 227, 3, 96, 11, 4, 0};
  const GemmWorkload g = c.to_gemm();
  EXPECT_EQ(g.m, 55 * 55);
  EXPECT_EQ(g.n, 96);
  EXPECT_EQ(g.k, 11 * 11 * 3);
}

TEST(Conv, PaddingPreservesSize) {
  const ConvLayer c{"same", 56, 56, 64, 64, 3, 1, 1};
  EXPECT_EQ(c.out_h(), 56);
  EXPECT_EQ(c.out_w(), 56);
}

TEST(Conv, PointwiseIsChannelGemm) {
  const ConvLayer c{"pw", 14, 14, 512, 512, 1, 1, 0};
  const GemmWorkload g = c.to_gemm();
  EXPECT_EQ(g.m, 14 * 14);
  EXPECT_EQ(g.k, 512);
  EXPECT_EQ(g.n, 512);
}

TEST(Conv, DilationExpandsReceptiveField) {
  ConvLayer c{"dilated", 56, 56, 64, 64, 3, 1, 2};
  c.dilation = 2;
  // effective kernel = 2*(3-1)+1 = 5; padding 2 preserves size.
  EXPECT_EQ(c.effective_kernel(), 5);
  EXPECT_EQ(c.out_h(), 56);
  // K is unchanged by dilation (same number of taps).
  EXPECT_EQ(c.to_gemm().k, 3 * 3 * 64);
}

TEST(Conv, GroupedLoweringSplitsChannels) {
  ConvLayer c{"grouped", 28, 28, 128, 256, 3, 1, 1};
  c.groups = 4;
  const GemmWorkload g = c.to_gemm();
  EXPECT_EQ(g.n, 64);           // 256 / 4 filters per group
  EXPECT_EQ(g.k, 3 * 3 * 32);   // 128 / 4 channels per group
  EXPECT_EQ(c.to_gemms().size(), 4u);
  // Total MACs = groups * per-group MACs = dense MACs / groups.
  ConvLayer dense = c;
  dense.groups = 1;
  EXPECT_EQ(4 * g.macs(), dense.to_gemm().macs() / 4);
}

TEST(Conv, DepthwiseIsDegenerateGrouping) {
  ConvLayer c{"dw", 112, 112, 32, 32, 3, 1, 1};
  c.groups = 32;
  const GemmWorkload g = c.to_gemm();
  EXPECT_EQ(g.n, 1);
  EXPECT_EQ(g.k, 9);
  EXPECT_TRUE(c.valid());
}

TEST(Conv, InvalidGroupingRejected) {
  ConvLayer c{"bad", 28, 28, 30, 64, 3, 1, 1};
  c.groups = 4;  // 30 % 4 != 0
  EXPECT_FALSE(c.valid());
}

TEST(Fc, Lowering) {
  const FcLayer f{"fc", 16, 4096, 1000};
  const GemmWorkload g = f.to_gemm();
  EXPECT_EQ(g.m, 16);
  EXPECT_EQ(g.k, 4096);
  EXPECT_EQ(g.n, 1000);
}

TEST(ModelZoo, HasFiveNetworks) {
  const auto zoo = model_zoo();
  ASSERT_EQ(zoo.size(), 5u);
  EXPECT_EQ(zoo[0].name, "AlexNet");
  EXPECT_EQ(zoo[4].name, "FasterRCNN");
}

TEST(ModelZoo, AllLayersValid) {
  for (const auto& net : model_zoo()) {
    for (const auto& c : net.conv_layers) {
      EXPECT_TRUE(c.valid()) << net.name << "/" << c.name;
    }
    for (const auto& g : net.gemms()) {
      EXPECT_TRUE(g.valid()) << net.name;
    }
  }
}

TEST(ModelZoo, NamesMatchGemms) {
  for (const auto& net : model_zoo()) {
    EXPECT_EQ(net.layer_names().size(), net.gemms().size()) << net.name;
  }
}

TEST(ModelZoo, ZooGemmsConcatenatesAll) {
  std::size_t total = 0;
  for (const auto& net : model_zoo()) total += net.gemms().size();
  EXPECT_EQ(zoo_gemms().size(), total);
  EXPECT_GT(total, 50u);  // a meaningful Fig. 7(a) population
}

TEST(ModelZoo, ResNetBlocksShrinkSpatially) {
  const auto net = make_resnet18();
  // First conv dominates M (output pixels); later layers have smaller M.
  const auto gemms = net.gemms();
  EXPECT_GT(gemms.front().m, gemms[gemms.size() - 2].m);
}

class SamplerBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerBounds, LogUniformRespectsBounds) {
  GemmDimBounds b;
  b.m_min = 8;
  b.m_max = 1024;
  b.n_min = 2;
  b.n_max = 64;
  b.k_min = 16;
  b.k_max = 512;
  LogUniformGemmSampler sampler(b);
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const GemmWorkload w = sampler.sample(rng);
    ASSERT_GE(w.m, b.m_min);
    ASSERT_LE(w.m, b.m_max);
    ASSERT_GE(w.n, b.n_min);
    ASSERT_LE(w.n, b.n_max);
    ASSERT_GE(w.k, b.k_min);
    ASSERT_LE(w.k, b.k_max);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerBounds, ::testing::Values(1u, 17u, 9999u));

TEST(Sampler, SampleManyCount) {
  LogUniformGemmSampler sampler;
  Rng rng(3);
  EXPECT_EQ(sampler.sample_many(rng, 123).size(), 123u);
}

TEST(Sampler, ZooEmpiricalProducesValidWorkloads) {
  ZooEmpiricalGemmSampler sampler(0.3);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(sampler.sample(rng).valid());
  }
}

TEST(Sampler, ZooEmpiricalZeroJitterReproducesPopulation) {
  ZooEmpiricalGemmSampler sampler(0.0);
  Rng rng(7);
  const auto population = zoo_gemms();
  for (int i = 0; i < 200; ++i) {
    const GemmWorkload w = sampler.sample(rng);
    bool found = false;
    for (const auto& p : population) {
      if (p == w) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << w.to_string();
  }
}

TEST(Log2Histogram, BinsCorrectly) {
  const auto h = log2_histogram({1, 2, 3, 4, 7, 8, 1024}, 12);
  EXPECT_EQ(h[0], 1);   // 1
  EXPECT_EQ(h[1], 2);   // 2, 3
  EXPECT_EQ(h[2], 2);   // 4, 7
  EXPECT_EQ(h[3], 1);   // 8
  EXPECT_EQ(h[10], 1);  // 1024
}

TEST(Log2Histogram, OverflowClampsToLastBin) {
  const auto h = log2_histogram({1 << 20}, 4);
  EXPECT_EQ(h[3], 1);
}

TEST(Log2Histogram, IgnoresNonPositive) {
  const auto h = log2_histogram({0, -5, 2}, 4);
  std::int64_t total = 0;
  for (auto v : h) total += v;
  EXPECT_EQ(total, 1);
}

// Transformer extensions of the model zoo.
TEST(TransformerZoo, BlocksLowerToValidGemms) {
  for (const auto& net : transformer_zoo()) {
    const auto gemms = net.gemms();
    EXPECT_GE(gemms.size(), 24u) << net.name;  // 4 blocks x 6 GEMMs
    for (const auto& g : gemms) EXPECT_TRUE(g.valid()) << net.name;
  }
}

TEST(TransformerZoo, AttentionShapesAreSeqDependent) {
  const auto net = make_bert_base(128);
  bool found_scores = false;
  const auto names = net.layer_names();
  const auto gemms = net.gemms();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].find("attn_scores") != std::string::npos) {
      found_scores = true;
      EXPECT_EQ(gemms[i].m, 128);  // seq
      EXPECT_EQ(gemms[i].n, 128);  // seq
      EXPECT_EQ(gemms[i].k, 64);   // d_head = 768 / 12
    }
  }
  EXPECT_TRUE(found_scores);
}

TEST(TransformerZoo, SeqLenScalesAttention) {
  const auto short_seq = make_bert_base(64).gemms();
  const auto long_seq = make_bert_base(512).gemms();
  MacCount short_macs, long_macs;
  for (const auto& g : short_seq) short_macs += g.macs();
  for (const auto& g : long_seq) long_macs += g.macs();
  EXPECT_GT(long_macs, 4 * short_macs);  // superlinear due to attention
}

TEST(TransformerZoo, FfnIsWidest) {
  const auto net = make_gpt2_small();
  const auto names = net.layer_names();
  const auto gemms = net.gemms();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].find("ffn_up") != std::string::npos) {
      EXPECT_EQ(gemms[i].n, 3072);
      EXPECT_EQ(gemms[i].k, 768);
    }
  }
}

}  // namespace
}  // namespace airch
