// Offline dataset generation (the paper's Step 3): run the conventional
// simulate-and-search optimizer over sampled workloads and persist the
// (input features, optimal label) pairs for later training runs.
//
//   ./generate_dataset --case=1 --points=100000 --out=case1.csv
//   ./generate_dataset --case=2 --points=2000000 --out=case2.bin
//       --shards=8 --threads=4 --snapshot=case2.snap
//
// Multi-million-point runs lean on three things (see docs/performance.md):
//   --shards=K   splits the run into K contiguous index ranges, writes one
//                binary shard file per range, and merges them — the output
//                is byte-identical to --shards=1 at the same seed (the
//                sharding contract of dataset/generator.hpp).
//   --snapshot=P restores the labelling cache from P before generating
//                (cold start if P is missing or unusable) and saves the
//                warmed cache back to P afterwards.
//   --format     csv | binary | auto (by --out extension: .bin = binary).
//                Binary is the compact mmap-able format of
//                dataset/binary_io.hpp; convert with ./convert_dataset.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/case_study.hpp"
#include "dataset/binary_io.hpp"

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Distinct labels in a binary dataset file, streamed (the merged file may
/// be too large to materialize).
int distinct_labels_binary(const std::string& path, int num_classes) {
  airch::BatchStream stream(path);
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(num_classes), 0);
  airch::Dataset chunk;
  while (stream.next_batch(1 << 16, chunk)) {
    for (const auto& p : chunk.points()) ++hist[static_cast<std::size_t>(p.label)];
  }
  int distinct = 0;
  for (const auto h : hist) {
    if (h > 0) ++distinct;
  }
  return distinct;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace airch;
  ArgParser args("generate_dataset", "search-labelled dataset generation");
  // Ranges are enforced by the parser itself: out-of-range values fail in
  // parse() with the allowed interval in the message, before any work runs.
  args.flag_i64("case", 1, "case study: 1 = array/dataflow, 2 = buffers, 3 = scheduling", 1, 3);
  args.flag_i64("points", 100000, "number of datapoints", 1, 100000000);
  args.flag_i64("seed", 42, "RNG seed");
  args.flag_str("out", "dataset.csv", "output path (CSV or binary, see --format)");
  args.flag_str("format", "auto", "output format: auto (by extension), csv, binary");
  args.flag_i64("threads", 0, "labelling worker threads (0 = hardware default)", 0, 1024);
  args.flag_i64("shards", 1, "generate in this many contiguous shards, then merge", 1, 256);
  args.flag_str("snapshot", "", "labelling-cache snapshot path (load before, save after)");
  args.parse(argc, argv);

  const std::string format = args.str("format");
  if (format != "auto" && format != "csv" && format != "binary") {
    std::cerr << "generate_dataset: --format must be auto, csv, or binary\n";
    return 1;
  }
  const std::string out = args.str("out");
  const bool binary_out = format == "binary" || (format == "auto" && ends_with(out, ".bin"));

  // The worker pool sizes itself from AIRCH_THREADS (common/parallel.hpp);
  // --threads just pins it for this process before any pool spins up.
  if (args.i64("threads") > 0) {
    setenv("AIRCH_THREADS", std::to_string(args.i64("threads")).c_str(), 1);
  }

  const auto study = make_case_study(static_cast<CaseId>(args.i64("case")));
  const auto points = static_cast<std::size_t>(args.i64("points"));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto shards = static_cast<std::size_t>(args.i64("shards"));
  const std::string snapshot = args.str("snapshot");

  std::cout << case_name(study->id()) << ": generating " << points
            << " points (output space: " << study->num_classes() << " labels)...\n";

  if (!snapshot.empty()) {
    // A missing or stale snapshot is an expected cold start, not an error:
    // the file may not exist yet, or may belong to another case / space
    // shape / format version. Anything loadable must load fully, though —
    // load_snapshot validates everything before touching the cache.
    try {
      const SnapshotStats loaded = study->load_cache_snapshot(snapshot);
      std::cout << "snapshot: restored " << loaded.entries << " entries from " << snapshot
                << "\n";
    } catch (const std::exception& e) {
      std::cout << "snapshot: starting cold (" << e.what() << ")\n";
    }
  }

  std::size_t written = 0;
  int distinct = 0;
  if (shards == 1) {
    const Dataset ds = study->generate(points, seed);
    if (binary_out) {
      write_binary_dataset(ds, out);
    } else {
      ds.save_csv(out);
    }
    written = ds.size();
    for (const auto h : ds.label_histogram()) {
      if (h > 0) ++distinct;
    }
  } else {
    // Contiguous index ranges, one binary shard file each, merged in shard
    // order — byte-identical to the single-shard run (generator.hpp's
    // sharding contract). Shards run sequentially here; each one already
    // labels on the full worker pool, and all shards share the study's
    // cache, so later shards run warmer than earlier ones.
    std::vector<std::string> shard_paths;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = points * s / shards;
      const std::size_t end = points * (s + 1) / shards;
      const Dataset ds = study->generate_range(begin, end, seed);
      shard_paths.push_back(out + ".shard" + std::to_string(s));
      write_binary_dataset(ds, shard_paths.back());
      written += ds.size();
    }
    const std::string merged = binary_out ? out : out + ".merged.bin";
    merge_binary_shards(shard_paths, merged);
    for (const std::string& p : shard_paths) std::remove(p.c_str());
    distinct = distinct_labels_binary(merged, study->num_classes());
    if (!binary_out) {
      convert_binary_to_csv(merged, out);
      std::remove(merged.c_str());
    }
  }

  if (!snapshot.empty()) {
    const SnapshotStats saved = study->save_cache_snapshot(snapshot);
    const CacheStats cs = study->cache_stats();
    std::cout << "snapshot: saved " << saved.entries << " entries to " << snapshot
              << " (cache: " << cs.hits << " hits, " << cs.misses << " misses)\n";
  }

  std::cout << "wrote " << written << " points to " << out << " (" << distinct
            << " distinct optimal labels observed)\n";
  return 0;
}
