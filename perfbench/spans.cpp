#include "spans.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::uint32_t SpanLog::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({name, parent, now(), 0.0});
  open_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  spans_[id].end = now();
  open_.pop_back();
}

double SpanLog::seconds(std::uint32_t id) const {
  return spans_[id].end - spans_[id].start;
}

bool SpanLog::inside(std::uint32_t id, std::uint32_t under) const {
  if (under == kNoParent) return true;
  for (std::uint32_t p = spans_[id].parent; p != kNoParent;
       p = spans_[p].parent)
    if (p == under) return true;
  return false;
}

double SpanLog::total_seconds(const std::string& name,
                              std::uint32_t under) const {
  double total = 0.0;
  for (std::uint32_t id = 0; id < spans_.size(); ++id)
    if (name == spans_[id].name && inside(id, under)) total += seconds(id);
  return total;
}

double SpanLog::self_seconds(const std::string& name,
                             std::uint32_t under) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (std::uint32_t id = 0; id < spans_.size(); ++id)
    if (spans_[id].parent != kNoParent) child[spans_[id].parent] += seconds(id);
  double total = 0.0;
  for (std::uint32_t id = 0; id < spans_.size(); ++id)
    if (name == spans_[id].name && inside(id, under))
      total += seconds(id) - child[id];
  return total;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << std::setprecision(9);
  for (std::uint32_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    out << "{\"id\": " << id << ", \"name\": \"" << s.name
        << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": ";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ", \"workload\": \"" << workload_ << "\"}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
