/// \file spans.hpp
/// \brief In-memory span recorder for the traced run.
///
/// The benchmark wraps each call it makes into a module's public API in a
/// Span (name = "<module>.<call>", parent = the enclosing span on the same
/// thread, or an explicit parent handed across threads, plus the request id
/// the call serves). Spans stay in memory and are written as JSONL when the
/// run ends. With recording off a Span is one branch and no clock read, so
/// the untraced end-to-end runs pay nothing for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< 0 = not tied to a service request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string name;
};

/// Per-name totals from a span set: count, wall time and self time (each
/// span minus the part of its interval its children cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  static SpanRecorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t begin(const char* name, std::uint64_t parent, std::uint64_t request);
  void end(std::uint64_t id);

  /// Spans recorded so far, closed ones only, in id order.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  [[nodiscard]] static std::map<std::string, SpanTotals> totals(
      const std::vector<SpanRecord>& spans);
  /// Write one JSON object per span.
  static void write_jsonl(const std::string& path, const std::vector<SpanRecord>& spans);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< index = id - 1
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span. Nests under the innermost open Span of this thread unless an
/// explicit parent id is given (for work handed to another thread).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0, std::uint64_t parent = ~0ull);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_current_ = 0;
};

}  // namespace perfbench
