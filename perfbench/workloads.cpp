// Helpers shared by the workloads (declared in workloads.hpp).

#include <algorithm>
#include <filesystem>

#include "workloads.hpp"

namespace perfbench {

void PassResult::fail(std::uint64_t n, const std::string& what) {
  failed += n;
  if (failures.size() < 8) failures.push_back(what);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ULL * (tag + 1));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t count_mismatches(const airch::Dataset& a, const airch::Dataset& b) {
  if (a.size() != b.size() || a.feature_names() != b.feature_names() ||
      a.num_classes() != b.num_classes()) {
    return std::max<std::size_t>({a.size(), b.size(), 1});
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bad += a[i].label != b[i].label || a[i].features != b[i].features;
  }
  return bad;
}

std::vector<std::vector<std::int64_t>> features_of(const airch::Dataset& ds) {
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(ds.size());
  for (const auto& p : ds.points()) out.push_back(p.features);
  return out;
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

}  // namespace perfbench
