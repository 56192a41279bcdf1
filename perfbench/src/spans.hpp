// In-memory spans for the traced run. Each span names its layer operation
// ("store.find", "routing.run", ...), the worker lane it ran on and the
// span that caused it. Decorated calls inside Engine::run are too frequent
// for one span each; their per-run totals ride on the run span as
// aggregated children instead. Spans are written out only after the
// measured passes (Chrome trace JSON plus a self-time table).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"

namespace perfbench {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

class SpanRecorder {
 public:
  /// Opens a span; `op` must be a string literal ("layer.operation").
  [[nodiscard]] std::size_t begin(const char* op, unsigned lane,
                                  std::size_t parent = kNoParent);
  void end(std::size_t id);

  /// Books `ns` of decorated-call time (and `calls` calls) under `op` as a
  /// child of span `id`, without an interval of its own.
  void add_aggregate(std::size_t id, const char* op, std::uint64_t ns,
                     std::uint64_t calls);

  /// Total duration (s) of closed spans and aggregates named `op`.
  [[nodiscard]] double total_s(const std::string& op) const;

  /// Durations (us) of every closed span named `op`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& op) const;

  /// Per operation: spans (or aggregated calls), total time and self time,
  /// where self time is the span's duration minus the union of its child
  /// spans' intervals and its aggregated children.
  struct SelfTimeRow {
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, SelfTimeRow> self_times() const;

  /// Copies every closed span into `writer` (named op, on its lane).
  void export_to(epi::obs::ChromeTraceWriter& writer) const;

  /// Microseconds since this recorder was created.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

 private:
  struct Span {
    const char* op;
    unsigned lane;
    std::size_t parent;
    double begin_us;
    double end_us;  ///< < 0 while open
  };
  struct Aggregate {
    std::size_t span;
    const char* op;
    double us;
    std::uint64_t calls;
  };

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// Scoped span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* op, unsigned lane,
             std::size_t parent = kNoParent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(op, lane, parent)
                                : kNoParent) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

/// Merges one recorder's self-time table into an accumulated one.
void accumulate(std::map<std::string, SpanRecorder::SelfTimeRow>& into,
                const std::map<std::string, SpanRecorder::SelfTimeRow>& rows);

/// Renders a self-time table, one operation per line, grouped by layer.
[[nodiscard]] std::string format_self_times(
    const std::map<std::string, SpanRecorder::SelfTimeRow>& rows,
    std::size_t passes);

}  // namespace perfbench
