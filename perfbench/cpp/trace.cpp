#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

namespace perfbench::trace {
namespace {

constexpr std::size_t kMaxEvents = 100000;

struct Event {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint32_t tid;
};

struct Total {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{1};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_tid{1};
const auto g_epoch = std::chrono::steady_clock::now();

std::mutex g_mu;
std::vector<Event> g_events;         // guarded by g_mu
std::map<std::string, Total> g_totals;  // guarded by g_mu
std::uint64_t g_closed = 0;          // guarded by g_mu
std::uint64_t g_dropped = 0;         // guarded by g_mu

thread_local Span* t_current = nullptr;
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t next_op() { return g_next_op.fetch_add(1); }

Span::Span(const char* name, std::uint64_t op) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  outer_ = t_current;
  op_ = op != 0 ? op : (outer_ != nullptr ? outer_->op_ : 0);
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  t_current = this;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t dur = now_ns() - start_ns_;
  t_current = outer_;
  if (outer_ != nullptr) outer_->child_ns_ += dur;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  const std::lock_guard<std::mutex> lock(g_mu);
  Total& t = g_totals[name_];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - child_ns_;
  ++g_closed;
  if (g_events.size() < kMaxEvents) {
    g_events.push_back({name_, start_ns_, dur, id_,
                        outer_ != nullptr ? outer_->id_ : 0, op_, t_tid});
  } else {
    ++g_dropped;
  }
}

std::vector<LayerTotal> totals() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<LayerTotal> out;
  for (const auto& [name, t] : g_totals) {
    out.push_back({name, t.count, static_cast<double>(t.total_ns) * 1e-9,
                   static_cast<double>(t.self_ns) * 1e-9});
  }
  return out;
}

std::uint64_t spans_closed() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_closed;
}

std::uint64_t events_dropped() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_dropped;
}

bool write_chrome_json(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mu);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < g_events.size(); ++i) {
    const Event& e = g_events[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"op\": %llu}}%s\n",
                 e.name, e.tid, static_cast<double>(e.start_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3,
                 static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent),
                 static_cast<unsigned long long>(e.op),
                 i + 1 < g_events.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
