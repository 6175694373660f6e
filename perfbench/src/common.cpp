#include "common.hpp"

#include <fstream>

#include "spans.hpp"

namespace perfbench {

int pin_omp_threads(int n) {
#if defined(_OPENMP)
  omp_set_num_threads(n);
  int team = 0;
#pragma omp parallel
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  return team;
#else
  (void)n;
  return 1;
#endif
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current = 0;
}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder r;
  return r;
}

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t parent,
                                  std::uint64_t request) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  std::lock_guard lock(mu_);
  SpanRecord r;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.request = request;
  r.start_ns = now;
  r.end_ns = -1;
  r.name = name;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(spans_.size());
  for (const auto& s : spans_) {
    if (s.end_ns >= 0) out.push_back(s);
  }
  return out;
}

std::map<std::string, SpanTotals> SpanRecorder::totals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    // Union of the children's intervals clipped to this span; children on
    // other threads may overlap each other.
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    auto& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.count += 1;
    t.total_ms += dur / 1e6;
    t.self_ms += (dur - static_cast<double>(covered)) / 1e6;
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path,
                               const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (const auto& s : spans) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

Span::Span(const char* name, std::uint64_t request, std::uint64_t parent) {
  auto& rec = SpanRecorder::global();
  if (!rec.enabled()) return;
  id_ = rec.begin(name, parent == ~0ull ? t_current : parent, request);
  saved_current_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecorder::global().end(id_);
  t_current = saved_current_;
}

}  // namespace perfbench
