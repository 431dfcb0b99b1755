#include "routing/rate_structure.h"

#include <algorithm>

#include "util/check.h"

namespace manetcap::routing {

void RateStructure::reset(std::size_t n) {
  constraints.clear();
  flow_start.assign(n + 1, 0);
  incid_cid.clear();
  incid_coeff.clear();
  flow_hops.assign(n, 0.0);
  flow_served.assign(n, 0);
  run_.clear();
  open_ = 0;
}

void RateStructure::reserve_notes(std::size_t notes) {
  incid_cid.reserve(notes);
  incid_coeff.reserve(notes);
}

void RateStructure::note(std::uint32_t flow, std::uint32_t cid,
                         double coeff) {
  MANETCAP_CHECK_MSG(flow < flow_served.size(),
                     "RateStructure: note for flow " << flow << " of "
                                                     << flow_served.size());
  MANETCAP_CHECK_MSG(flow >= open_,
                     "RateStructure: notes must arrive flow by flow, flows "
                     "ascending (flow "
                         << flow << " after flow " << open_ << ")");
  if (flow != open_) {
    close_run();
    const auto end = static_cast<std::uint32_t>(incid_cid.size());
    for (std::uint32_t f = open_ + 1; f < flow; ++f) flow_start[f + 1] = end;
    open_ = flow;
  }
  run_.push_back({cid, coeff});
}

void RateStructure::close_run() {
  std::sort(run_.begin(), run_.end(),
            [](const Note& x, const Note& y) { return x.cid < y.cid; });
  const std::size_t begin = incid_cid.size();
  for (const Note& e : run_) {
    if (incid_cid.size() > begin && incid_cid.back() == e.cid) {
      incid_coeff.back() += e.coeff;
    } else {
      incid_cid.push_back(e.cid);
      incid_coeff.push_back(e.coeff);
    }
  }
  run_.clear();
  flow_start[open_ + 1] = static_cast<std::uint32_t>(incid_cid.size());
}

void RateStructure::finalize() {
  const std::size_t n = flow_served.size();
  if (n > 0) {
    close_run();
    const auto end = static_cast<std::uint32_t>(incid_cid.size());
    for (std::size_t f = open_ + 1; f < n; ++f) flow_start[f + 1] = end;
  }
  // No-ops when the evaluator sized them exactly.
  constraints.shrink_to_fit();
  incid_cid.shrink_to_fit();
  incid_coeff.shrink_to_fit();
  run_.clear();
  run_.shrink_to_fit();
}

}  // namespace manetcap::routing
