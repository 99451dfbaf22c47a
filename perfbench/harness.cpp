#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

// ------------------------------------------------------------ statistics

namespace {

// Index of the nearest-rank q-percentile in a sample of n. The epsilon
// keeps q * n from rounding up past an exact rank (0.99 * 1000 must be
// rank 990, not 991).
std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto r = rank < 1.0 ? std::size_t{1} : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile outside [0, 1]");
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

double highest_supported_quantile(std::size_t n, std::size_t min_beyond) {
  for (const double q : {0.9999, 0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.median = percentile(v, 0.5);
  s.tail_quantile = highest_supported_quantile(v.size());
  if (s.tail_quantile > 0.0) s.tail = percentile(v, s.tail_quantile);
  return s;
}

// --------------------------------------------------------------- tracing

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t b = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, s.end_ns);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

namespace {

std::atomic<std::uint32_t> next_thread_id{1};
thread_local std::uint32_t this_thread_id = 0;
// Spans still open on this thread, innermost last, tagged with their
// tracer so that two tracers never adopt each other's spans.
thread_local std::vector<std::pair<const Tracer*, std::int64_t>> open_spans;

std::uint32_t thread_id() {
  if (this_thread_id == 0) this_thread_id = next_thread_id.fetch_add(1);
  return this_thread_id;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

Tracer::Scope Tracer::scope(const std::string& name, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.request = request;
  s.thread = thread_id();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      s.parent = it->second;
      break;
    }
  }
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    s.start_ns = now_ns();
    s.end_ns = s.start_ns;
    spans_.push_back(std::move(s));
  }
  open_spans.emplace_back(this, index);
  return Scope(this, index);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == index) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  const std::int64_t at = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, at, value});
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Counter> Tracer::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<double> Tracer::values(const std::string& name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Counter& c : counters_) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  const std::vector<Counter> counters = this->counters();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    os << (first ? "" : ",\n");
    first = false;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    sep();
    os << "{\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << s.thread << ", \"ts\": " << json_number(static_cast<double>(s.start_ns) * 1e-3)
       << ", \"dur\": " << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
       << ", \"args\": {\"index\": " << i << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request
       << ", \"self_us\": " << json_number(static_cast<double>(self[i]) * 1e-3) << "}}";
  }
  for (const Counter& c : counters) {
    sep();
    os << "{\"name\": " << json_string(c.name) << ", \"ph\": \"C\", \"pid\": 1, \"ts\": "
       << json_number(static_cast<double>(c.at_ns) * 1e-3)
       << ", \"args\": {\"value\": " << json_number(c.value) << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------- metric table

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"latency_ms", "ms"}, {"throughput_per_s", "1/s"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out;
    for (const char* layer : kLayers) {
      out.push_back({std::string(layer) + ".self_pct", "%"});
      out.push_back({std::string(layer) + ".calls", "count"});
    }
    out.push_back({"trace.overhead_pct", "%"});
    return out;
  }();
  return specs;
}

namespace {

void append_metric(std::ostringstream& os, bool first, const std::string& name, double value,
                   const std::string& unit) {
  os << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(value)
     << ", \"unit\": " << json_string(unit) << "}";
}

}  // namespace

void MetricSet::set(const std::string& name, double value) {
  const bool known = std::any_of(allowed_.begin(), allowed_.end(),
                                 [&](const MetricSpec& m) { return m.name == name; });
  if (!known) throw std::logic_error("metric not in the spec: " + name);
  values_[name] = value;
}

std::vector<std::string> MetricSet::missing() const {
  std::vector<std::string> out;
  for (const MetricSpec& m : allowed_) {
    if (values_.count(m.name) == 0) out.push_back(m.name);
  }
  return out;
}

std::string MetricSet::to_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSpec& m : allowed_) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    append_metric(os, first, m.name, it->second, m.unit);
    first = false;
  }
  os << "}";
  return os.str();
}

void Figures::add(const std::string& name, const std::string& unit, double value) {
  figures_.push_back({{name, unit}, value});
}

std::string Figures::to_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < figures_.size(); ++i) {
    const auto& [spec, value] = figures_[i];
    append_metric(os, i == 0, spec.name, value, spec.unit);
  }
  os << "}";
  return os.str();
}

// ------------------------------------------------------ layer breakdown

std::vector<LayerShare> layer_shares(const std::vector<Span>& spans) {
  std::vector<LayerShare> out;
  for (const char* layer : kLayers) out.push_back({layer});
  std::vector<std::int64_t> layer_ns(out.size(), 0);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::int64_t total_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total_ns += self[i];
    const std::string prefix = spans[i].name.substr(0, spans[i].name.find('.'));
    for (std::size_t l = 0; l < out.size(); ++l) {
      if (prefix == out[l].layer) {
        layer_ns[l] += self[i];
        ++out[l].calls;
      }
    }
  }
  if (total_ns > 0) {
    for (std::size_t l = 0; l < out.size(); ++l) {
      out[l].self_pct = 100.0 * static_cast<double>(layer_ns[l]) / static_cast<double>(total_ns);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
