// trace_check — golden-trace replay checker for the slot simulator.
//
// Modes:
//   trace_check [--threads N] FILE...
//       Load each MCTRACE1 file, replay it against its embedded routing
//       context (sim::verify_trace) and print the verdict. Exit 0 iff
//       every file passes; a corrupt file (bad magic / checksum) fails
//       with its decode error instead of crashing the batch.
//   trace_check --gen [--dir DIR]
//       Regenerate the four tier-1 golden traces (sim::golden_trace_specs)
//       into DIR (default: tests/golden relative to the working directory),
//       verifying each before writing. See docs/TRACE.md for the workflow.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

using manetcap::sim::Trace;
using manetcap::sim::TraceVerdict;
using manetcap::sim::TraceVerifyOptions;

int run_gen(const std::string& dir) {
  for (const auto& spec : manetcap::sim::golden_trace_specs()) {
    const Trace trace = manetcap::sim::capture_trace(spec);
    const TraceVerdict verdict = manetcap::sim::verify_trace(trace);
    if (!verdict.ok) {
      std::fprintf(stderr, "refusing to write invalid golden %s:\n%s",
                   spec.name.c_str(), verdict.summary().c_str());
      return 1;
    }
    const std::string path = dir + "/" + spec.name + ".trace";
    trace.save(path);
    std::printf("%s: %zu events, %s", path.c_str(), trace.events.size(),
                verdict.summary().c_str());
  }
  return 0;
}

int run_check(const std::vector<std::string>& files, std::size_t threads) {
  TraceVerifyOptions opt;
  opt.num_threads = threads;
  bool all_ok = true;
  for (const std::string& file : files) {
    try {
      const Trace trace = Trace::load(file);
      const TraceVerdict verdict = manetcap::sim::verify_trace(trace, opt);
      std::printf("%s: %s", file.c_str(), verdict.summary().c_str());
      all_ok = all_ok && verdict.ok;
    } catch (const std::exception& e) {
      std::printf("%s: FAIL decode: %s\n", file.c_str(), e.what());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    manetcap::util::Flags flags(argc, argv, {"gen", "dir", "threads"});
    if (flags.get_bool("gen", false))
      return run_gen(flags.get_string("dir", "tests/golden"));
    const auto& files = flags.positional();
    if (files.empty()) {
      std::fprintf(stderr,
                   "usage: trace_check [--threads N] FILE...\n"
                   "       trace_check --gen [--dir DIR]\n");
      return 2;
    }
    return run_check(files, flags.get_count("threads", 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_check: %s\n", e.what());
    return 2;
  }
}
