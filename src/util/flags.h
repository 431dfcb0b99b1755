// Tiny command-line flag parser for examples and benches.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms; any
// unknown flag is an error so typos surface immediately. run_main turns
// such an error into the CLI's exit contract.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace manetcap::util {

/// Parses argv into a name→value map and exposes typed accessors with
/// defaults. Construction throws std::runtime_error on malformed input.
class Flags {
 public:
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& known);

  /// Same, with an error context: an unknown flag is reported as
  /// "unknown flag --<name> for <context>", so a CLI with per-subcommand
  /// flag sets can tell the user which subcommand rejected the flag.
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& known, const std::string& context);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& def) const;
  long get_int(const std::string& name, long def) const;
  /// A size or count: get_int, with a negative value rejected by the same
  /// "bad value for --<name>" error rather than wrapped to a huge size.
  std::size_t get_count(const std::string& name, std::size_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Runs a program's body and returns its exit code. A std::exception that
/// escapes the body — a bad or unknown flag included — prints
/// "error: <what>" to stderr and exits 1, the CLI's contract:
///
///   int main(int argc, char** argv) {
///     return manetcap::util::run_main(argc, argv, run_program);
///   }
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace manetcap::util
