// CSV <-> binary dataset conversion (dataset/binary_io.hpp). Both
// directions stream, so multi-million-point files convert in flat memory.
//
//   ./convert_dataset --in=case1.csv --out=case1.bin --classes=45
//   ./convert_dataset --in=case1.bin --out=case1.csv
//
// Direction is chosen by --mode, or inferred from the --out extension
// (.bin = to-binary, anything else = to-csv). CSV carries no class count,
// so to-binary requires --classes (the output space size; every label is
// validated against it).

#include <exception>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "dataset/binary_io.hpp"

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace airch;
  ArgParser args("convert_dataset", "CSV <-> binary dataset conversion");
  args.flag_str("in", "", "input dataset path");
  args.flag_str("out", "", "output dataset path");
  args.flag_str("mode", "auto", "auto (by --out extension), to-binary, to-csv");
  args.flag_i64("classes", 0, "output-space size, required for to-binary", 0, 1 << 30);
  args.parse(argc, argv);

  const std::string in = args.str("in");
  const std::string out = args.str("out");
  const std::string mode = args.str("mode");
  if (in.empty() || out.empty()) {
    std::cerr << "convert_dataset: --in and --out are required\n";
    return 1;
  }
  if (mode != "auto" && mode != "to-binary" && mode != "to-csv") {
    std::cerr << "convert_dataset: --mode must be auto, to-binary, or to-csv\n";
    return 1;
  }
  const bool to_binary = mode == "to-binary" || (mode == "auto" && ends_with(out, ".bin"));

  try {
    if (to_binary) {
      if (args.i64("classes") < 1) {
        std::cerr << "convert_dataset: to-binary requires --classes >= 1\n";
        return 1;
      }
      convert_csv_to_binary(in, out, static_cast<int>(args.i64("classes")));
    } else {
      convert_binary_to_csv(in, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "convert_dataset: " << e.what() << "\n";
    return 1;
  }
  std::cout << "converted " << in << " -> " << out << (to_binary ? " (binary)" : " (csv)")
            << "\n";
  return 0;
}
