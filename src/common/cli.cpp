#include "common/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace airch {

ArgParser& ArgParser::flag_i64(const std::string& name, std::int64_t default_value,
                               const std::string& help) {
  flags_[name] = Flag{Kind::kI64, help, std::to_string(default_value)};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::flag_i64(const std::string& name, std::int64_t default_value,
                               const std::string& help, std::int64_t min_value,
                               std::int64_t max_value) {
  if (min_value > max_value) {
    throw std::invalid_argument("empty range for --" + name);
  }
  if (default_value < min_value || default_value > max_value) {
    throw std::invalid_argument("default for --" + name + " outside its declared range");
  }
  Flag f{Kind::kI64, help, std::to_string(default_value)};
  f.has_range = true;
  f.min_value = min_value;
  f.max_value = max_value;
  flags_[name] = f;
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::flag_f64(const std::string& name, double default_value,
                               const std::string& help) {
  std::ostringstream os;
  os << default_value;
  flags_[name] = Flag{Kind::kF64, help, os.str()};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::flag_str(const std::string& name, const std::string& default_value,
                               const std::string& help) {
  flags_[name] = Flag{Kind::kStr, help, default_value};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::flag_bool(const std::string& name, bool default_value,
                                const std::string& help) {
  flags_[name] = Flag{Kind::kBool, help, default_value ? "true" : "false"};
  order_.push_back(name);
  return *this;
}

namespace {

/// std::stoll / std::stod over the whole of `value`, with every failure
/// (not a number, trailing text, out of the type's range) reported
/// against the flag that carried it.
template <typename Convert>
auto parse_number(Convert convert, const std::string& name, const std::string& value,
                  const char* kind) {
  std::size_t pos = 0;
  decltype(convert(value, &pos)) parsed{};
  try {
    parsed = convert(value, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("value out of range for --" + name + ": " + value);
  } catch (const std::invalid_argument&) {
    pos = 0;
  }
  if (pos == 0 || pos != value.size()) {
    throw std::invalid_argument(std::string("bad ") + kind + " for --" + name + ": " + value);
  }
  return parsed;
}

}  // namespace

void ArgParser::parse(int argc, const char* const* argv) {
  try {
    parse_or_throw(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << program_ << ": " << e.what() << "\n";
    std::exit(1);
  }
}

void ArgParser::parse_or_throw(int argc, const char* const* argv) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();  // airch-lint: allow(cout) — --help is interactive by contract
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      name = arg.substr(2);
      auto it = flags_.find(name);
      if (it != flags_.end() && it->second.kind == Kind::kBool) {
        value = "true";  // bare boolean flag
      } else {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for flag --" + name);
        value = argv[++i];
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) throw std::invalid_argument("unknown flag --" + name);
    // A repeated flag is almost always a stale shell history or a script
    // bug; last-one-wins would silently run the wrong experiment.
    if (!seen.insert(name).second) {
      throw std::invalid_argument("duplicate flag --" + name);
    }
    // Validate parse for numeric kinds now so errors surface at startup.
    if (it->second.kind == Kind::kI64) {
      const std::int64_t parsed = parse_number(
          [](const std::string& v, std::size_t* pos) { return std::stoll(v, pos); }, name, value,
          "integer");
      if (it->second.has_range &&
          (parsed < it->second.min_value || parsed > it->second.max_value)) {
        throw std::invalid_argument(
            "value out of range for --" + name + ": " + value + " (allowed: " +
            std::to_string(it->second.min_value) + ".." +
            std::to_string(it->second.max_value) + ")");
      }
    } else if (it->second.kind == Kind::kF64) {
      (void)parse_number(
          [](const std::string& v, std::size_t* pos) { return std::stod(v, pos); }, name, value,
          "real");
    } else if (it->second.kind == Kind::kBool) {
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        throw std::invalid_argument("bad boolean for --" + name + ": " + value);
      }
    }
    it->second.value = value;
  }
}

const ArgParser::Flag& ArgParser::get(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) throw std::invalid_argument("flag not registered: " + name);
  if (it->second.kind != kind) throw std::invalid_argument("flag kind mismatch: " + name);
  return it->second;
}

std::int64_t ArgParser::i64(const std::string& name) const {
  return std::stoll(get(name, Kind::kI64).value);
}

double ArgParser::f64(const std::string& name) const { return std::stod(get(name, Kind::kF64).value); }

const std::string& ArgParser::str(const std::string& name) const {
  return get(name, Kind::kStr).value;
}

bool ArgParser::boolean(const std::string& name) const {
  const std::string& v = get(name, Kind::kBool).value;
  return v == "true" || v == "1";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.value;
    if (f.has_range) {
      os << ", range: " << f.min_value << ".." << f.max_value;
    }
    os << ")\n      " << f.help << "\n";
  }
  return os.str();
}

}  // namespace airch
