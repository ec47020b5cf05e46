// Span recorder for the benchmark's traced run.
//
// Every call the benchmark makes into a layer's public functions is timed
// as a span: name, start, end, parent and the request/job id it belongs
// to. Spans stay in per-thread buffers while the run is hot (no locks, no
// allocation beyond the reserved buffer) and are merged, analysed and
// written out as a chrome trace after the run. When the recorder is off a
// Scope costs one predictable branch, so the untraced run measures the
// program alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the merged list; -1 = root
  std::int64_t id = -1;      // request or job id
  std::int32_t tid = 0;      // recording thread (dense, from 0)

  double us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

class SpanRecorder {
 public:
  /// `cap_per_thread` bounds memory: spans beyond it are counted as
  /// dropped instead of recorded.
  explicit SpanRecorder(bool enabled, std::size_t cap_per_thread = 400000);
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int32_t slot_;
  };

  /// Records an already-timed span on the calling thread (for intervals
  /// that do not nest lexically, e.g. an open-loop request's wait).
  /// `parent` is a slot returned by an earlier add() on the same thread, or
  /// -1. Returns the new span's slot (-1 when off or dropped).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t id, std::int32_t parent);

  /// All recorded spans, parents remapped to merged indices. Call once the
  /// recording threads have finished.
  std::vector<Span> merged() const;
  std::uint64_t dropped() const;
  /// Spans recorded so far across threads (cheap; for overhead accounting).
  std::uint64_t recorded() const;

  /// Measured cost of one Scope (open + close) on this host, in ns.
  static double calibrate_scope_ns();

 private:
  struct Buffer;
  Buffer& local();
  std::int32_t open(const char* name, std::int64_t id);
  void close(std::int32_t slot);

  bool enabled_;
  std::size_t cap_;
  std::uint64_t serial_;  // distinguishes recorders in thread-local caches
  mutable std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Chrome trace-event JSON ("X" complete events). Each event carries the
/// span's id and parent in args, so one job's spans can be gathered by id.
/// Writes at most `max_events` spans (the earliest ones).
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_events);

/// Duration of each span minus the durations of its direct children.
std::vector<double> self_times_us(const std::vector<Span>& spans);

}  // namespace perfbench
