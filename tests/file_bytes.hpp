// Whole-file byte helpers shared by the file-format tests: read a file into
// a string, write a string back, so a test can flip, cut or append bytes.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

namespace airch::test {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace airch::test
