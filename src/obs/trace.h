// Stage-level trace spans flushed to Chrome trace_event JSON.
//
// Usage:
//   obs::TraceRecorder::Global().Enable();
//   { APAN_TRACE_SPAN("encode"); ... }          // RAII complete event
//   auto st = obs::TraceRecorder::Global().WriteChromeTrace("run.json");
// Open the file at chrome://tracing or https://ui.perfetto.dev.
//
// Spans are buffered in thread-confined ring buffers (no lock on the hot
// path beyond a per-thread mutex that only the owner and the flusher ever
// contend on, and only at flush time). A ring keeps the newest
// kRingCapacity spans per thread and counts what it overwrote, so a long
// run degrades to "most recent window" instead of unbounded memory.
//
// Tracing is switched on at runtime (Enable). While the recorder is
// disabled, a span costs one relaxed atomic load and records nothing.

#ifndef APAN_OBS_TRACE_H_
#define APAN_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace apan {
namespace obs {

/// \brief Minimal JSON well-formedness validator (recursive descent, no
/// DOM). tools/trace_check and the trace tests use it.
bool ValidateJson(std::string_view text, std::string* error);

/// One finished span. `name` must be a string literal (spans store the
/// pointer, never copy) — every call site in the repo passes one.
struct TraceEvent {
  const char* name = nullptr;
  double ts_us = 0.0;   ///< start, microseconds since recorder epoch
  double dur_us = 0.0;  ///< duration, microseconds
  int tid = 0;          ///< recorder-assigned thread index
};

class TraceRecorder {
 public:
  static constexpr size_t kRingCapacity = 1 << 16;  ///< spans kept per thread

  /// Process-wide recorder. The serve plane records here; a local
  /// recorder (tests) works too but pays a registry scan per span.
  static TraceRecorder& Global();

  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Enable();
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a finished span on the calling thread's ring.
  void Record(const char* name, double ts_us, double dur_us);

  /// Microseconds since this recorder's construction (the trace epoch).
  double NowMicros() const;

  /// All buffered events, oldest-first per thread. Safe to call while
  /// other threads record (they may add events concurrently; nothing
  /// tears).
  std::vector<TraceEvent> Snapshot() const;

  /// Spans overwritten because a ring wrapped (diagnostic).
  uint64_t dropped() const;

  void Clear();

  /// Flush everything buffered to `path` as Chrome trace_event JSON.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable util::Mutex mu_;  ///< guards buffers_ growth
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ APAN_GUARDED_BY(mu_);
};

/// \brief RAII span: measures construction→destruction and records it if
/// the recorder is enabled at construction time.
class Span {
 public:
  explicit Span(const char* name)
      : Span(name, &TraceRecorder::Global()) {}
  Span(const char* name, TraceRecorder* recorder) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      name_ = name;
      start_us_ = recorder->NowMicros();
    }
  }
  ~Span() {
    if (recorder_ != nullptr) {
      recorder_->Record(name_, start_us_, recorder_->NowMicros() - start_us_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

#define APAN_TRACE_CONCAT_INNER(a, b) a##b
#define APAN_TRACE_CONCAT(a, b) APAN_TRACE_CONCAT_INNER(a, b)
#define APAN_TRACE_SPAN(name) \
  ::apan::obs::Span APAN_TRACE_CONCAT(apan_trace_span_, __COUNTER__)(name)

}  // namespace obs
}  // namespace apan

#endif  // APAN_OBS_TRACE_H_
