// perfbench — one workload per process.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scratch DIR]
//
// --trace 0 (timed): builds the instance 10 times (setup_s is the median
// of the last 9), runs the workload's operation once as a
// warm-up, then repeats it for S seconds (at least 3 times) in a closed
// loop with one caller; run_s is the median of those repetitions. Every
// repetition is checked against the warm-up bit for bit and against the
// engine's conservation identity, then the once-per-run checks run.
//
// --trace 1 (traced): after an untraced warm-up, makes three rounds. Each
// builds the instance under spans, times one untraced repetition as the
// reference for the tracing overhead, runs the operation once as the span
// `engine.run` and replays the engine's phases through the public layer
// functions. Both repetitions are checked like the timed ones. It reports
// the median over the rounds of each layer's self time and the exact
// counts, which must repeat. Spans are written to
// DIR/spans-NAME-seedN.jsonl at exit.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the mode. The exit code is 0 only when every
// operation and check passed.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Instance;
using perfbench::OpResult;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string scratch = ".bench_build/run";
};

/// Timed set-up builds after the warm-up build; setup_s is their median.
constexpr std::size_t kSetupReps = 9;
/// Traced rounds per run; per-layer values are their medians.
constexpr std::size_t kTraceRounds = 3;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scratch DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload")
        a.workload = v;
      else if (flag == "--seed")
        a.seed = std::stoull(v);
      else if (flag == "--seconds")
        a.seconds = std::stod(v);
      else if (flag == "--trace")
        a.trace = std::stoi(v);
      else if (flag == "--scratch")
        a.scratch = v;
      else
        usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  return m % 2 == 1 ? v[m / 2] : 0.5 * (v[m / 2 - 1] + v[m / 2]);
}

/// First and third quartiles, computed as Python's
/// statistics.quantiles(v, n=4) does (exclusive method).
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto m = static_cast<long>(v.size());
  if (m < 2) return {v.front(), v.front()};
  auto q = [&](long i) {
    long j = i * (m + 1) / 4;
    j = std::clamp(j, 1L, m - 1);
    const long delta = i * (m + 1) - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

std::string summary(const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  const double med = median(v);
  std::ostringstream os;
  os << std::setprecision(6) << "median of " << v.size() << ", q1 " << q1
     << ", q3 " << q3 << ", (q3-q1)/median " << (q3 - q1) / med;
  return os.str();
}

std::string join(const std::vector<double>& v) {
  std::ostringstream os;
  os << std::setprecision(5);
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
  return os.str();
}

/// Peak resident set size of this process, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries the launching process's peak
/// across exec into it, so a small workload started from a larger parent
/// would report the parent's size.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Counts operations and check failures; every failure is printed.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_ok = true;

  /// Runs one operation, compares it with `first` (if set) and records
  /// the outcome. Returns the result, or nothing when it failed.
  std::optional<OpResult> op(const std::function<OpResult()>& run,
                             const OpResult* first) {
    ++attempted;
    try {
      OpResult r = run();
      if (first != nullptr && r.full_digest != first->full_digest)
        r.errors.push_back("repetition differs from the first");
      if (r.errors.empty()) return r;
      for (const std::string& e : r.errors)
        std::cout << "FAIL operation " << attempted << ": " << e << "\n";
    } catch (const std::exception& e) {
      std::cout << "FAIL operation " << attempted << " threw: " << e.what()
                << "\n";
    }
    ++failed;
    return std::nullopt;
  }

  void check(const std::string& line) {
    std::cout << "check: " << line << "\n";
    if (line.rfind("ok ", 0) != 0) checks_ok = false;
  }

  bool correct() const { return failed == 0 && checks_ok; }
};

void print_json(const Tally& t,
                const std::vector<std::tuple<std::string, double, std::string>>&
                    metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (t.correct() ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int timed(const Workload& w, const Args& a) {
  perfbench::Runner runner(w, a.seed, a.scratch);
  Tally tally;

  std::vector<double> setup;
  std::optional<Instance> inst;
  for (std::size_t rep = 0; rep <= kSetupReps; ++rep) {
    inst.reset();
    const double t0 = now_s();
    inst.emplace(perfbench::build_instance(w, a.seed));
    const double dt = now_s() - t0;
    if (rep > 0) setup.push_back(dt);  // the first build is a warm-up
  }
  std::cout << "instance: n=" << inst->net.num_ms()
            << " k=" << inst->net.num_bs() << " "
            << inst->net.params().describe() << "\n";

  // Closed loop, one caller: each repetition starts when the last returns.
  const auto run = [&] { return runner.run_op(*inst); };
  std::vector<double> times;
  std::optional<OpResult> first = tally.op(run, nullptr);  // warm-up
  constexpr std::size_t kMinReps = 3;
  const double start = now_s();
  while (first && (times.size() < kMinReps || now_s() - start < a.seconds)) {
    const double t0 = now_s();
    if (!tally.op(run, &*first)) break;
    times.push_back(now_s() - t0);
  }
  if (!first || times.empty()) {
    std::cout << "attempted " << tally.attempted << ", failed "
              << tally.failed << "\n";
    return 1;
  }
  // Before the checks: the hybrid's check builds a second network.
  const double rss = peak_rss_mib();
  for (const std::string& line : runner.run_checks(*first)) tally.check(line);

  std::cout << std::setprecision(6) << "setup_s      " << median(setup)
            << " s   (" << summary(setup) << ", after 1 warm-up)\n"
            << "run_s        " << median(times) << " s   (" << summary(times)
            << ", after 1 warm-up)\n"
            << "peak_rss_mb  " << rss << " MiB\n"
            << "run times    " << join(times) << "\n"
            << "lambda       " << std::setprecision(17) << first->lambda
            << "\nattempted " << tally.attempted << ", failed "
            << tally.failed << "\n";
  print_json(tally, {{"run_s", median(times), "s"},
                     {"setup_s", median(setup), "s"},
                     {"peak_rss_mb", rss, "MiB"}});
  return tally.correct() ? 0 : 1;
}

int traced(const Workload& w, const Args& a) {
  perfbench::Runner runner(w, a.seed, a.scratch);
  Tally tally;
  perfbench::SpanLog log(w.name);

  // Warm-up, untraced: its result is what every later operation must match.
  std::optional<OpResult> first;
  {
    const Instance inst = perfbench::build_instance(w, a.seed);
    first = tally.op([&] { return runner.run_op(inst); }, nullptr);
  }
  if (!first) {
    std::cout << "attempted " << tally.attempted << ", failed "
              << tally.failed << "\n";
    return 1;
  }
  for (const std::string& line : runner.run_checks(*first)) tally.check(line);

  // Each round: the set-up under spans, one untraced repetition as the
  // reference for the tracing overhead, then the traced engine.run and the
  // replay. Per-layer values are medians over the rounds; counts must
  // repeat exactly.
  std::vector<perfbench::LayerValues> rounds;
  std::vector<double> reference, engine;
  std::vector<std::string> checks;
  for (std::size_t r = 0; r < kTraceRounds; ++r) {
    const perfbench::SpanScope round(&log, "round");
    const Instance inst = perfbench::build_instance(w, a.seed, &log);
    const double t0 = now_s();
    if (!tally.op([&] { return runner.run_op(inst); }, &*first)) break;
    reference.push_back(now_s() - t0);
    const std::optional<OpResult> run = tally.op(
        [&] {
          const perfbench::SpanScope s(&log, "engine.run");
          return runner.run_op(inst, &log);
        },
        &*first);
    if (!run) break;
    perfbench::LayerValues values;
    try {
      runner.replay(inst, *run, log, round.id(), values, checks);
    } catch (const std::exception& e) {
      tally.check(std::string("FAIL replay threw: ") + e.what());
      break;
    }
    engine.push_back(log.total_seconds("engine.run", round.id()));
    rounds.push_back(std::move(values));
  }
  // Rounds repeat the same checks; print each distinct line once.
  for (std::size_t i = 0; i < checks.size(); ++i)
    if (std::find(checks.begin(), checks.begin() + static_cast<long>(i),
                  checks[i]) == checks.begin() + static_cast<long>(i))
      tally.check(checks[i]);
  if (rounds.empty()) {
    std::cout << "attempted " << tally.attempted << ", failed "
              << tally.failed << "\n";
    return 1;
  }

  std::cout << std::setprecision(6) << "engine.run " << median(engine)
            << " s traced vs run_s " << median(reference)
            << " s untraced (medians of " << rounds.size()
            << " alternating rounds): tracing overhead "
            << (median(engine) / median(reference) - 1.0) * 100.0 << "%\n"
            << "spans: " << log.size() << ", replay "
            << log.total_seconds("replay") / static_cast<double>(rounds.size())
            << " s per round\n";

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  bool counts_repeat = true;
  for (const perfbench::LayerMetric& m : perfbench::layer_metrics()) {
    std::vector<double> v;
    for (const perfbench::LayerValues& round : rounds) {
      const auto it = round.find(m.name);
      if (it != round.end()) v.push_back(it->second);
    }
    const bool entered = !v.empty();
    if (!entered) v.push_back(0.0);
    const bool is_time = std::string(m.unit) == "s";
    if (!is_time && *std::min_element(v.begin(), v.end()) !=
                        *std::max_element(v.begin(), v.end()))
      counts_repeat = false;
    metrics.emplace_back(m.name, median(v), m.unit);
    std::cout << std::setprecision(9) << "  " << std::left << std::setw(28)
              << m.name << " " << median(v) << " " << m.unit
              << (entered ? "" : "   (layer not entered)")
              << (entered && is_time ? "   rounds: " + join(v) : "") << "\n";
  }
  tally.check(std::string(counts_repeat ? "ok " : "FAIL ") +
              "per-layer counts repeat exactly across " +
              std::to_string(rounds.size()) + " rounds");

  const std::string spans = a.scratch + "/spans-" + w.name + "-seed" +
                            std::to_string(a.seed) + ".jsonl";
  log.write_jsonl(spans);
  std::cout << "spans written to " << spans << "\nattempted "
            << tally.attempted << ", failed " << tally.failed << "\n";
  print_json(tally, metrics);
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = perfbench::find_workload(a.workload);
  if (w == nullptr) usage("unknown workload " + a.workload);
  std::filesystem::create_directories(a.scratch);
  std::cout << "perfbench " << w->name << " seed " << a.seed << " mode "
            << (a.trace ? "traced" : "timed") << "\n";
  try {
    return a.trace ? traced(*w, a) : timed(*w, a);
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << "\n";
    return 1;
  }
}
