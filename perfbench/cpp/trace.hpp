// In-memory spans around the benchmark's calls into each layer.
//
// A span records its name, start, end, parent span and operation id
// (spans of one request or solver call share the id; a span without an
// explicit id inherits its parent's). When tracing is off a Span costs
// one relaxed load. Finished spans are aggregated into per-name counts,
// total and self time (duration minus the part covered by child spans)
// as they close, and the first kMaxEvents are kept for the Chrome
// trace-event file written at exit.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench::trace {

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// A fresh operation id (never 0).
[[nodiscard]] std::uint64_t next_op();

class Span {
 public:
  /// `name` must outlive the trace (a string literal).
  explicit Span(const char* name, std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
  Span* outer_ = nullptr;
};

struct LayerTotal {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per-name totals of every span closed so far, by name.
[[nodiscard]] std::vector<LayerTotal> totals();

/// Spans closed so far, and how many of them the event buffer dropped.
[[nodiscard]] std::uint64_t spans_closed();
[[nodiscard]] std::uint64_t events_dropped();

/// Writes the kept spans as Chrome trace-event JSON ("X" events, times in
/// microseconds); loadable in Perfetto or chrome://tracing.
[[nodiscard]] bool write_chrome_json(const std::filesystem::path& path);

}  // namespace perfbench::trace
