// Tests of the benchmark's own measurement code: the percentile helper's
// edge cases, span self-time, the metric table and the per-layer
// breakdown of spans. Run by perfbench/test_perfbench.py, or
// directly: exits 0 when every check passes.

#include <cmath>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentile() {
  check(throws([] { (void)percentile({}, 0.5); }), "empty sample throws");
  check(throws([] { (void)percentile({1.0}, -0.1); }), "q < 0 throws");
  check(throws([] { (void)percentile({1.0}, 1.5); }), "q > 1 throws");
  check(throws([] { (void)percentile({1.0}, std::nan("")); }), "q = nan throws");
  check(throws([] { (void)median({}); }), "median of empty throws");

  check(percentile({7.0}, 0.0) == 7.0 && percentile({7.0}, 1.0) == 7.0, "one sample");
  const auto v = iota(100);
  check(percentile(v, 0.0) == 1.0, "q = 0 is the minimum");
  check(percentile(v, 1.0) == 100.0, "q = 1 is the maximum");
  check(percentile(v, 0.5) == 50.0, "nearest-rank median of 1..100");
  check(percentile(v, 0.99) == 99.0, "p99 of 1..100");
  check(percentile(iota(1000), 0.99) == 990.0, "p99 of 1..1000 is rank 990 exactly");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median sorts its input");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.0, "even-size median is the lower middle");

  check(samples_beyond(0, 0.5) == 0, "nothing beyond in an empty sample");
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  check(highest_supported_quantile(10) == 0.0, "10 samples support no tail");
  check(highest_supported_quantile(20) == 0.5, "20 samples support p50");
  check(highest_supported_quantile(100) == 0.9, "100 samples support p90");
  check(highest_supported_quantile(999) == 0.9, "999 samples do not support p99");
  check(highest_supported_quantile(1000) == 0.99, "1000 samples support p99");
  check(highest_supported_quantile(10000) == 0.999, "10000 samples support p99.9");

  const Summary s = summarize(iota(1000));
  check(s.n == 1000 && s.median == 500.0 && s.tail_quantile == 0.99 && s.tail == 990.0,
        "summary of 1..1000");
  const Summary small = summarize({5.0, 1.0});
  check(small.tail_quantile == 0.0 && small.tail == 0.0 && small.median == 1.0,
        "summary without a supported tail");
}

Span span(std::int64_t start, std::int64_t end, std::int64_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // Root [0, 100) with children [10, 30), [20, 50) (overlapping: union
  // [10, 50)), [90, 120) (clipped to [90, 100)); a grandchild [12, 14)
  // counts against its own parent only.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
                                   span(90, 120, 0), span(12, 14, 1)};
  const auto self = self_times_ns(spans);
  check(self.size() == spans.size(), "one self time per span");
  check(self[0] == 100 - 40 - 10, "root: duration minus the union of its children");
  check(self[1] == 20 - 2, "child minus its own child");
  check(self[2] == 30 && self[3] == 30 && self[4] == 2, "leaves keep their duration");

  const std::vector<Span> nested = {span(0, 10, -1), span(0, 10, 0)};
  check(self_times_ns(nested)[0] == 0, "fully covered parent has no self time");
  check(self_times_ns({}).empty(), "no spans");

  // Through the tracer: nesting on one thread sets the parent.
  Tracer t(true);
  {
    const auto outer = t.scope("outer");
    { const auto inner = t.scope("inner", 7); }
  }
  t.count("c", 3.0);
  const auto rec = t.spans();
  check(rec.size() == 2 && rec[0].name == "outer" && rec[1].parent == 0 && rec[1].request == 7,
        "tracer records parent and request id");
  check(rec.size() == 2 && rec[1].start_ns >= rec[0].start_ns && rec[1].end_ns <= rec[0].end_ns,
        "child lies inside its parent");
  const auto s2 = self_times_ns(rec);
  const std::int64_t outer_ns = rec.empty() ? 0 : rec[0].end_ns - rec[0].start_ns;
  const std::int64_t inner_ns = rec.size() == 2 ? rec[1].end_ns - rec[1].start_ns : 0;
  check(s2.size() == 2 && s2[0] == outer_ns - inner_ns,
        "tracer spans: self time is duration minus the child");
  check(t.values("c") == std::vector<double>{3.0}, "counter recorded");

  Tracer off(false);
  { const auto s = off.scope("x"); }
  off.count("c", 1.0);
  check(off.spans().empty() && off.counters().empty(), "a disabled tracer records nothing");
}

void test_metric_set() {
  MetricSet m({{"a", "s"}, {"b", "count"}});
  m.set("a", 1.5);
  check(m.missing() == std::vector<std::string>{"b"}, "unset metric reported missing");
  bool refused = false;
  try {
    m.set("zzz", 1.0);
  } catch (const std::logic_error&) {
    refused = true;
  }
  check(refused, "a metric outside the spec is refused");
  m.set("b", 2.0);
  check(m.to_json() ==
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"b\": {\"value\": 2, \"unit\": \"count\"}}",
        "metric JSON");

  Figures f;
  f.add("z.case1", "s", 0.25);
  f.add("a", "count", 3.0);
  check(f.to_json() ==
            "{\"z.case1\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"a\": {\"value\": 3, \"unit\": \"count\"}}",
        "figures JSON keeps insertion order");
  check(Figures().to_json() == "{}", "no figures");
}

Span named(const std::string& name, std::int64_t start, std::int64_t end, std::int64_t parent) {
  Span s = span(start, end, parent);
  s.name = name;
  return s;
}

void test_layer_shares() {
  // models.fit [0, 60) holds dataset.read [0, 20): models keeps 40 of
  // self time, dataset 20; core.save [60, 100) adds 40; "misc" [100, 200)
  // belongs to no layer but counts toward the total of 200.
  const std::vector<Span> spans = {named("models.fit.case1", 0, 60, -1),
                                   named("dataset.read", 0, 20, 0),
                                   named("core.save", 60, 100, -1), named("misc", 100, 200, -1)};
  const auto shares = layer_shares(spans);
  check(shares.size() == std::size(kLayers), "one share per layer");
  const auto at = [&](const std::string& layer) {
    for (const LayerShare& s : shares) {
      if (s.layer == layer) return s;
    }
    return LayerShare{};
  };
  check(at("models").self_pct == 20.0 && at("models").calls == 1, "models share");
  check(at("dataset").self_pct == 10.0 && at("core").self_pct == 20.0, "dataset, core shares");
  check(at("serve").self_pct == 0.0 && at("serve").calls == 0, "an idle layer reads zero");
  check(layer_shares({}).size() == std::size(kLayers) && layer_shares({})[0].self_pct == 0.0,
        "no spans: every share zero");

  std::size_t named_layers = 0;
  for (const MetricSpec& m : per_layer_specs()) named_layers += m.unit == "count";
  check(named_layers == std::size(kLayers), "per-layer specs carry one call count per layer");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_metric_set();
  test_layer_shares();
  if (failures == 0) std::cout << "perfbench harness tests passed\n";
  return failures == 0 ? 0 : 1;
}
