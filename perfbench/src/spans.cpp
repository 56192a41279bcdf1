#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::size_t SpanRecorder::begin(const char* op, unsigned lane,
                                std::size_t parent) {
  const double now = now_us();
  const std::lock_guard lock(mutex_);
  spans_.push_back(Span{op, lane, parent, now, -1.0});
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t id) {
  const double now = now_us();
  const std::lock_guard lock(mutex_);
  spans_.at(id).end_us = now;
}

void SpanRecorder::add_aggregate(std::size_t id, const char* op,
                                 std::uint64_t ns, std::uint64_t calls) {
  const std::lock_guard lock(mutex_);
  aggregates_.push_back(
      Aggregate{id, op, static_cast<double>(ns) / 1e3, calls});
}

double SpanRecorder::total_s(const std::string& op) const {
  const std::lock_guard lock(mutex_);
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.end_us >= 0.0 && op == s.op) us += s.end_us - s.begin_us;
  }
  for (const Aggregate& a : aggregates_) {
    if (op == a.op) us += a.us;
  }
  return us / 1e6;
}

std::vector<double> SpanRecorder::durations_us(const std::string& op) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_us >= 0.0 && op == s.op) out.push_back(s.end_us - s.begin_us);
  }
  return out;
}

std::map<std::string, SpanRecorder::SelfTimeRow> SpanRecorder::self_times()
    const {
  const std::lock_guard lock(mutex_);
  // Child intervals and aggregated child time per parent span.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  std::vector<double> aggregated_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end_us >= 0.0 && s.parent != kNoParent) {
      children.at(s.parent).emplace_back(s.begin_us, s.end_us);
    }
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Aggregate& a : aggregates_) {
    aggregated_us.at(a.span) += a.us;
    SelfTimeRow& row = rows[a.op];
    row.calls += a.calls;
    row.total_s += a.us / 1e6;
    row.self_s += a.us / 1e6;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    // Union of the children's intervals, clipped to the parent: children
    // running in parallel on pool lanes must not be subtracted twice.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.begin_us;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, cursor);
      const double hi = std::min(e, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const double dur = s.end_us - s.begin_us;
    SelfTimeRow& row = rows[s.op];
    ++row.calls;
    row.total_s += dur / 1e6;
    row.self_s += std::max(0.0, dur - covered - aggregated_us[i]) / 1e6;
  }
  return rows;
}

void SpanRecorder::export_to(epi::obs::ChromeTraceWriter& writer) const {
  const std::lock_guard lock(mutex_);
  for (const Span& s : spans_) {
    if (s.end_us >= 0.0) writer.record_span(s.op, s.lane, s.begin_us, s.end_us);
  }
}

void accumulate(std::map<std::string, SpanRecorder::SelfTimeRow>& into,
                const std::map<std::string, SpanRecorder::SelfTimeRow>& rows) {
  for (const auto& [op, row] : rows) {
    SpanRecorder::SelfTimeRow& acc = into[op];
    acc.calls += row.calls;
    acc.total_s += row.total_s;
    acc.self_s += row.self_s;
  }
}

std::string format_self_times(
    const std::map<std::string, SpanRecorder::SelfTimeRow>& rows,
    std::size_t passes) {
  const double per = passes > 0 ? 1.0 / static_cast<double>(passes) : 1.0;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %12s %14s %14s\n", "operation",
                "calls/pass", "total_s/pass", "self_s/pass");
  out += line;
  // std::map orders by name, so operations of one layer sit together.
  for (const auto& [op, row] : rows) {
    std::snprintf(line, sizeof(line), "%-24s %12.0f %14.6f %14.6f\n",
                  op.c_str(), static_cast<double>(row.calls) * per,
                  row.total_s * per, row.self_s * per);
    out += line;
  }
  return out;
}

}  // namespace perfbench
