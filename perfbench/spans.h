// In-memory span log for the traced mode.
//
// A span is one named interval around a public call into a layer, with the
// span that was open when it started as its parent. Spans stay in memory
// while the benchmark runs and are written once, at exit, so recording one
// costs two clock reads and a vector append. A layer's self time is its
// spans' duration minus the part their child spans cover; the benchmark is
// single-threaded, so children never overlap and that part is their sum.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  explicit SpanLog(std::string workload);

  /// Opens a span under the innermost open one. `name` must be a string
  /// literal (spans keep the pointer).
  std::uint32_t open(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void close(std::uint32_t id);

  /// Duration of one span, in seconds.
  double seconds(std::uint32_t id) const;
  /// Sum of the durations of every span called `name` inside span
  /// `under` (kNoParent: anywhere).
  double total_seconds(const std::string& name,
                       std::uint32_t under = kNoParent) const;
  /// Sum of the self times of every span called `name` inside `under`.
  double self_seconds(const std::string& name,
                      std::uint32_t under = kNoParent) const;

  std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span (name, start, end, parent,
  /// workload; times in seconds since the log was created).
  void write_jsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    std::uint32_t parent;
    double start;
    double end;
  };
  double now() const;
  bool inside(std::uint32_t id, std::uint32_t under) const;

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span for the lifetime of the scope; a null log records nothing,
/// so untraced callers share the traced code path at no cost.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace perfbench
