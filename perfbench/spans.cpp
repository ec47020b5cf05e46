#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {

struct SpanRecorder::Buffer {
  std::int32_t tid = 0;
  std::vector<Span> spans;  // parent = index within this buffer
  std::vector<std::int32_t> open;  // stack of open slots
  std::uint64_t dropped = 0;
};

namespace {

std::atomic<std::uint64_t> g_serial{1};

struct LocalCache {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled, std::size_t cap_per_thread)
    : enabled_(enabled), cap_(cap_per_thread), serial_(g_serial++) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::Buffer& SpanRecorder::local() {
  if (t_cache.serial == serial_) return *static_cast<Buffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto b = std::make_unique<Buffer>();
  b->tid = static_cast<std::int32_t>(buffers_.size());
  b->spans.reserve(cap_);
  t_cache = {serial_, b.get()};
  buffers_.push_back(std::move(b));
  return *buffers_.back();
}

std::int32_t SpanRecorder::open(const char* name, std::int64_t id) {
  Buffer& b = local();
  if (b.spans.size() >= cap_) {
    ++b.dropped;
    b.open.push_back(-1);
    return -1;
  }
  const auto slot = static_cast<std::int32_t>(b.spans.size());
  Span s;
  s.name = name;
  s.id = id;
  s.tid = b.tid;
  s.parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(s);
  b.open.push_back(slot);
  b.spans.back().start_ns = now_ns();
  return slot;
}

void SpanRecorder::close(std::int32_t slot) {
  const std::int64_t end = now_ns();
  Buffer& b = local();
  b.open.pop_back();
  if (slot >= 0) b.spans[static_cast<std::size_t>(slot)].end_ns = end;
}

std::int32_t SpanRecorder::add(const char* name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int64_t id,
                               std::int32_t parent) {
  if (!enabled_) return -1;
  Buffer& b = local();
  if (b.spans.size() >= cap_) {
    ++b.dropped;
    return -1;
  }
  b.spans.push_back({name, start_ns, end_ns, parent, id, b.tid});
  return static_cast<std::int32_t>(b.spans.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           std::int64_t id)
    : rec_(rec.enabled() ? &rec : nullptr),
      slot_(rec_ ? rec_->open(name, id) : -1) {}

SpanRecorder::Scope::~Scope() {
  if (rec_) rec_->close(slot_);
}

std::vector<Span> SpanRecorder::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

std::uint64_t SpanRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

double SpanRecorder::calibrate_scope_ns() {
  // Median of several batches of nested open/close pairs on a private
  // recorder: the per-span price the traced run pays.
  constexpr int kBatch = 20000;
  std::vector<double> per;
  for (int rep = 0; rep < 7; ++rep) {
    SpanRecorder rec(true, 2 * kBatch + 8);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      Scope outer(rec, "calib.outer", i);
      Scope inner(rec, "calib.inner", i);
    }
    per.push_back(static_cast<double>(now_ns() - t0) / (2.0 * kBatch));
  }
  std::nth_element(per.begin(), per.begin() + 3, per.end());
  return per[3];
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  const std::size_t n = std::min(max_events, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3, s.us(),
                 static_cast<long long>(s.id), i, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].us();
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.us();
  return self;
}

}  // namespace perfbench
