// Constant-time inference from a saved model (the deployed form of the
// paper's Fig. 1(b) flow): load a recommender trained by
// train_recommender and answer one design query.
//
//   ./query_recommender --model=case1.airch --case=1 --M=3136 --N=64 --K=576 --budget_exp=10
//   ./query_recommender --model=case2.airch --case=2 --M=... --rows=32 --cols=32
//       --dataflow=WS --bandwidth=10 --limit_kb=900

#include <iostream>

#include "common/cli.hpp"
#include "core/recommender.hpp"

namespace {

/// Loads the model and answers the query the flags describe.
int query(const airch::ArgParser& args, const airch::CaseStudy& study) {
  using namespace airch;
  const Recommender rec = Recommender::load(args.str("model"), study);
  const GemmWorkload w{args.i64("M"), args.i64("N"), args.i64("K")};

  std::vector<std::int64_t> features;
  switch (study.id()) {
    case CaseId::kArrayDataflow:
      features = {args.i64("budget_exp"), w.m, w.n, w.k};
      break;
    case CaseId::kBufferSizing:
      features = {args.i64("limit_kb"), w.m, w.n, w.k, args.i64("rows"), args.i64("cols"),
                  dataflow_index(dataflow_from_string(args.str("dataflow"))),
                  args.i64("bandwidth")};
      break;
    case CaseId::kScheduling:
      std::cerr << "case 3 queries need 4 workloads; use the multi_array_scheduler example\n";
      return 1;
  }

  const auto labels = rec.recommend_topk(features, static_cast<int>(args.i64("topk")));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::cout << (i == 0 ? "recommended: " : "     also #" + std::to_string(i + 1) + ": ");
    if (study.id() == CaseId::kArrayDataflow) {
      const auto* s1 = dynamic_cast<const ArrayDataflowStudy*>(&study);
      std::cout << s1->space().config(labels[i]).to_string() << '\n';
    } else {
      const auto* s2 = dynamic_cast<const BufferSizingStudy*>(&study);
      const MemoryConfig m = s2->space().config(labels[i]);
      std::cout << "IFMAP " << m.ifmap_kb << " KB / Filter " << m.filter_kb << " KB / OFMAP "
                << m.ofmap_kb << " KB\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace airch;
  ArgParser args("query_recommender", "one constant-time design query from a saved model");
  args.flag_str("model", "recommender.airch", "saved model path");
  args.flag_i64("case", 1, "case study the model was trained for (1/2/3)");
  args.flag_i64("M", 3136, "GEMM M");
  args.flag_i64("N", 64, "GEMM N");
  args.flag_i64("K", 576, "GEMM K");
  args.flag_i64("budget_exp", 10, "case 1: MAC budget exponent");
  args.flag_i64("rows", 32, "case 2: array rows");
  args.flag_i64("cols", 32, "case 2: array cols");
  args.flag_str("dataflow", "WS", "case 2: array dataflow (OS/WS/IS)");
  args.flag_i64("bandwidth", 10, "case 2: DRAM bandwidth (bytes/cycle)");
  args.flag_i64("limit_kb", 900, "case 2: total SRAM capacity budget");
  // Upper bound = the largest output space of the three case studies
  // (case 3's 1944 schedules); recommend_topk re-checks against the
  // actual study so the CLI bound only has to be a sane global cap.
  args.flag_i64("topk", 1, "print the k most likely configurations", 1, 1944);
  args.parse(argc, argv);

  const auto case_num = args.i64("case");
  if (case_num < 1 || case_num > 3) {
    std::cerr << "--case must be 1, 2, or 3\n";
    return 1;
  }
  // A missing, corrupt or other-case model file is a user error: report it
  // and exit 1 instead of letting the exception end the process.
  try {
    return query(args, *make_case_study(static_cast<CaseId>(case_num)));
  } catch (const std::exception& e) {
    std::cerr << "query_recommender: " << e.what() << "\n";
    return 1;
  }
}
