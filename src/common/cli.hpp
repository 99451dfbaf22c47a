#pragma once
// Minimal command-line flag parser used by bench and example binaries.
// Flags are `--name=value` or `--name value`; `--help` prints registered
// flags and exits. Unknown flags are an error so typos do not silently run
// a differently-parameterised experiment.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace airch {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Register flags before calling parse(). Each returns *this for chaining.
  ArgParser& flag_i64(const std::string& name, std::int64_t default_value, const std::string& help);
  /// Bounded integer flag: parse() rejects values outside [min_value, max_value],
  /// so range errors surface at startup instead of as mid-run assertions.
  /// The default itself must lie inside the range (throws at registration).
  ArgParser& flag_i64(const std::string& name, std::int64_t default_value, const std::string& help,
                      std::int64_t min_value, std::int64_t max_value);
  ArgParser& flag_f64(const std::string& name, double default_value, const std::string& help);
  ArgParser& flag_str(const std::string& name, const std::string& default_value, const std::string& help);
  ArgParser& flag_bool(const std::string& name, bool default_value, const std::string& help);

  /// Parse argv. On `--help` prints usage and calls std::exit(0). An
  /// unknown flag, a malformed or out-of-range value, or a flag given more
  /// than once prints `<program>: <reason naming the flag>` to stderr and
  /// calls std::exit(1). (Registering a bad flag above still throws.)
  void parse(int argc, const char* const* argv);

  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  const std::string& str(const std::string& name) const;
  bool boolean(const std::string& name) const;

  std::string usage() const;

 private:
  enum class Kind { kI64, kF64, kStr, kBool };
  struct Flag {
    Kind kind;
    std::string help;
    std::string value;  // canonical textual representation
    bool has_range = false;        // kI64 only
    std::int64_t min_value = 0;    // inclusive, valid when has_range
    std::int64_t max_value = 0;    // inclusive, valid when has_range
  };

  const Flag& get(const std::string& name, Kind kind) const;
  void parse_or_throw(int argc, const char* const* argv);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace airch
