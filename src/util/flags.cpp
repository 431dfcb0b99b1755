#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

namespace manetcap::util {

namespace {
bool is_known(const std::vector<std::string>& known, const std::string& name) {
  return std::find(known.begin(), known.end(), name) != known.end();
}
}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known)
    : Flags(argc, argv, known, std::string()) {}

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known,
             const std::string& context) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name, value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--flag value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!is_known(known, name)) {
      if (context.empty())
        throw std::runtime_error("unknown flag: --" + name);
      throw std::runtime_error("unknown flag --" + name + " for " + context);
    }
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

namespace {
[[noreturn]] void bad_value(const std::string& name,
                            const std::string& value) {
  throw std::runtime_error("bad value for --" + name + ": " + value);
}
}  // namespace

long Flags::get_int(const std::string& name, long def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const long v = std::stol(it->second, &pos);
    if (pos != it->second.size()) bad_value(name, it->second);
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(name, it->second);
  } catch (const std::out_of_range&) {
    bad_value(name, it->second);
  }
}

std::size_t Flags::get_count(const std::string& name,
                             std::size_t def) const {
  if (!has(name)) return def;
  const long v = get_int(name, 0);
  if (v < 0) bad_value(name, values_.at(name));
  return static_cast<std::size_t>(v);
}

double Flags::get_double(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    // stod happily parses "nan"/"inf", which then poison every downstream
    // comparison (a NaN range or threshold passes no check and fails no
    // check). No flag in this codebase means a non-finite value; reject.
    // get_int needs no equivalent: stol has no non-finite spellings and
    // out_of_range already covers overflow.
    if (pos != it->second.size() || !std::isfinite(v))
      bad_value(name, it->second);
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(name, it->second);
  } catch (const std::out_of_range&) {
    bad_value(name, it->second);
  }
}

bool Flags::get_bool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace manetcap::util
