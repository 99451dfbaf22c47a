#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

namespace airch {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.flag_i64("count", 10, "a count")
      .flag_f64("rate", 0.5, "a rate")
      .flag_str("name", "default", "a name")
      .flag_bool("verbose", false, "a switch");
  return p;
}

TEST(Cli, DefaultsWithoutArgs) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_EQ(p.i64("count"), 10);
  EXPECT_DOUBLE_EQ(p.f64("rate"), 0.5);
  EXPECT_EQ(p.str("name"), "default");
  EXPECT_FALSE(p.boolean("verbose"));
}

TEST(Cli, EqualsSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count=42", "--rate=1.25", "--name=abc", "--verbose=true"};
  p.parse(5, argv);
  EXPECT_EQ(p.i64("count"), 42);
  EXPECT_DOUBLE_EQ(p.f64("rate"), 1.25);
  EXPECT_EQ(p.str("name"), "abc");
  EXPECT_TRUE(p.boolean("verbose"));
}

TEST(Cli, SpaceSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count", "7", "--name", "xyz"};
  p.parse(5, argv);
  EXPECT_EQ(p.i64("count"), 7);
  EXPECT_EQ(p.str("name"), "xyz");
}

TEST(Cli, BareBooleanFlag) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  p.parse(2, argv);
  EXPECT_TRUE(p.boolean("verbose"));
}

// A bad command line is a reported error, not an exception: parse()
// prints `<program>: <reason naming the flag>` and exits 1.
using ::testing::ExitedWithCode;

TEST(Cli, UnknownFlagExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: unknown flag --bogus");
}

TEST(Cli, BadIntegerExits) {
  for (const char* bad : {"--count=abc", "--count=12x", "--count="}) {
    auto p = make_parser();
    const char* argv[] = {"prog", bad};
    EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: bad integer for --count") << bad;
  }
}

TEST(Cli, NumberOutsideTheTypeExits) {
  // std::stoll / std::stod throw std::out_of_range here; it must still
  // name the flag rather than escape as a bare "stoll".
  auto p = make_parser();
  const char* argv[] = {"prog", "--count=99999999999999999999"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: value out of range for --count");
  auto q = make_parser();
  const char* argv_real[] = {"prog", "--rate=1e999"};
  EXPECT_EXIT(q.parse(2, argv_real), ExitedWithCode(1), "prog: value out of range for --rate");
}

TEST(Cli, BadRealExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--rate=fast"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: bad real for --rate");
}

TEST(Cli, BadBooleanExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: bad boolean for --verbose");
}

TEST(Cli, MissingValueExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: missing value for flag --count");
}

TEST(Cli, PositionalArgExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "prog: unexpected positional argument: stray");
}

TEST(Cli, DuplicateFlagExits) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count=1", "--count=2"};
  EXPECT_EXIT(p.parse(3, argv), ExitedWithCode(1), "prog: duplicate flag --count");
}

TEST(Cli, DuplicateFlagExitsAcrossSyntaxes) {
  // The same flag via `--name value` then `--name=value` is still a dup.
  auto p = make_parser();
  const char* argv[] = {"prog", "--count", "1", "--count=2"};
  EXPECT_EXIT(p.parse(4, argv), ExitedWithCode(1), "prog: duplicate flag --count");
}

TEST(Cli, RangeAcceptsEndpoints) {
  ArgParser p("prog", "bounded");
  p.flag_i64("points", 10, "bounded count", 1, 100);
  {
    const char* argv[] = {"prog", "--points=1"};
    p.parse(2, argv);
    EXPECT_EQ(p.i64("points"), 1);
  }
  ArgParser q("prog", "bounded");
  q.flag_i64("points", 10, "bounded count", 1, 100);
  {
    const char* argv[] = {"prog", "--points=100"};
    q.parse(2, argv);
    EXPECT_EQ(q.i64("points"), 100);
  }
}

TEST(Cli, RangeRejectsOutOfRange) {
  // The `--points < 1` class: zero, negative, and above-max all fail in
  // parse() rather than surfacing later as a mid-run assertion.
  for (const char* bad : {"--points=0", "--points=-5", "--points=101"}) {
    ArgParser p("prog", "bounded");
    p.flag_i64("points", 10, "bounded count", 1, 100);
    const char* argv[] = {"prog", bad};
    EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1),
                "prog: value out of range for --points: .* \\(allowed: 1\\.\\.100\\)")
        << bad;
  }
}

TEST(Cli, RangeRejectsBadRegistration) {
  ArgParser p("prog", "bounded");
  // Default outside the declared range is a programming error.
  EXPECT_THROW(p.flag_i64("points", 0, "bad default", 1, 100), std::invalid_argument);
  // min > max is an empty range.
  EXPECT_THROW(p.flag_i64("other", 5, "empty range", 10, 1), std::invalid_argument);
}

TEST(Cli, UsageShowsRange) {
  ArgParser p("prog", "bounded");
  p.flag_i64("points", 10, "bounded count", 1, 100);
  EXPECT_NE(p.usage().find("range: 1..100"), std::string::npos);
}

TEST(Cli, UnregisteredLookupThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_THROW(p.i64("nope"), std::invalid_argument);
  EXPECT_THROW(p.i64("rate"), std::invalid_argument);  // kind mismatch
}

TEST(Cli, GenerateDatasetStyleRangesAcceptEndpoints) {
  // Mirrors generate_dataset's --threads (0..1024, 0 = auto) and --shards
  // (1..256) registrations: the endpoints must parse.
  for (const char* ok : {"--threads=0", "--threads=1024", "--shards=1", "--shards=256"}) {
    ArgParser p("generate_dataset", "ranges");
    p.flag_i64("threads", 0, "workers (0 = hardware default)", 0, 1024);
    p.flag_i64("shards", 1, "contiguous shards", 1, 256);
    const char* argv[] = {"generate_dataset", ok};
    p.parse(2, argv);
  }
}

TEST(Cli, GenerateDatasetStyleRangesRejectOutOfRange) {
  for (const char* bad :
       {"--threads=-1", "--threads=1025", "--shards=0", "--shards=-3", "--shards=257"}) {
    ArgParser p("generate_dataset", "ranges");
    p.flag_i64("threads", 0, "workers (0 = hardware default)", 0, 1024);
    p.flag_i64("shards", 1, "contiguous shards", 1, 256);
    const char* argv[] = {"generate_dataset", bad};
    EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1), "generate_dataset: value out of range")
        << bad;
  }
}

TEST(Cli, GenerateDatasetStyleDuplicateFlagsRejected) {
  const std::pair<const char*, const char*> dups[] = {
      {"--threads=2", "--threads=4"},
      {"--shards=2", "--shards=2"},
      {"--snapshot=a.snap", "--snapshot=b.snap"},
  };
  for (const auto& dup : dups) {
    ArgParser p("generate_dataset", "dups");
    p.flag_i64("threads", 0, "workers", 0, 1024);
    p.flag_i64("shards", 1, "shards", 1, 256);
    p.flag_str("snapshot", "", "cache snapshot path");
    const char* argv[] = {"generate_dataset", dup.first, dup.second};
    EXPECT_EXIT(p.parse(3, argv), ExitedWithCode(1), "generate_dataset: duplicate flag")
        << dup.first;
  }
}

TEST(Cli, QueryRecommenderTopkRangeAcceptsEndpoints) {
  // Mirrors query_recommender's --topk registration: bounded to the
  // largest output space (case 3, 1944 labels) so a nonsense k dies in
  // parse() instead of deep inside recommend_topk.
  for (const char* ok : {"--topk=1", "--topk=1944"}) {
    ArgParser p("query_recommender", "topk range");
    p.flag_i64("topk", 1, "print the k most likely configurations", 1, 1944);
    const char* argv[] = {"query_recommender", ok};
    p.parse(2, argv);
  }
}

TEST(Cli, QueryRecommenderTopkRangeRejectsOutOfRange) {
  // The old behavior accepted any int64 here and recommend_topk silently
  // clamped k<1 to 1 — both ends must now fail loudly.
  for (const char* bad : {"--topk=0", "--topk=-1", "--topk=1945", "--topk=99999999"}) {
    ArgParser p("query_recommender", "topk range");
    p.flag_i64("topk", 1, "print the k most likely configurations", 1, 1944);
    const char* argv[] = {"query_recommender", bad};
    EXPECT_EXIT(p.parse(2, argv), ExitedWithCode(1),
                "query_recommender: value out of range for --topk")
        << bad;
  }
}

TEST(Cli, UsageListsFlags) {
  auto p = make_parser();
  const auto usage = p.usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("a rate"), std::string::npos);
}

}  // namespace
}  // namespace airch
