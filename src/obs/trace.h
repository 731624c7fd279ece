// Scoped trace spans with per-thread buffers, exportable as Chrome
// trace-event JSON (chrome://tracing / Perfetto).
//
// A Tracer owns the trace clock (microseconds since its construction) and a
// lock-free-on-the-hot-path set of per-thread event buffers. TraceSpan is an
// RAII handle: construction stamps the start time, destruction records one
// complete ("ph":"X") event. When the tracer is disabled — or null — span
// construction is a single relaxed-atomic load and branch (or just the null
// check), so instrumented code pays nothing in production runs.
//
// Track mapping follows the engine's cluster model: pid = simulated node,
// tid = task slot. Call Tracer::ScopedTrack in worker threads to route all
// spans opened underneath (including library code that never sees node ids,
// e.g. gpumm streaming) onto the right track.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace distme::obs {

/// \brief A trace-event argument value: integer, double, or string.
struct TraceArgValue {
  enum class Kind { kInt, kDouble, kString };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;

  static TraceArgValue Int(int64_t v) {
    TraceArgValue a;
    a.kind = Kind::kInt;
    a.i = v;
    return a;
  }
  static TraceArgValue Double(double v) {
    TraceArgValue a;
    a.kind = Kind::kDouble;
    a.d = v;
    return a;
  }
  static TraceArgValue Str(std::string v) {
    TraceArgValue a;
    a.kind = Kind::kString;
    a.s = std::move(v);
    return a;
  }
};

/// \brief One complete span in the Chrome trace-event model.
struct TraceEvent {
  std::string name;
  std::string category;
  int64_t ts_us = 0;   ///< start, µs since the tracer epoch
  int64_t dur_us = 0;  ///< duration, µs
  int pid = 0;         ///< process track — one per simulated node
  int tid = 0;         ///< thread track — one per task slot
  uint64_t seq = 0;    ///< open order within the tracer; 0 = not yet stamped
  std::vector<std::pair<std::string, TraceArgValue>> args;
};

/// \brief Collects spans from many threads; drained by the exporters.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief The disabled-path check: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// \brief Microseconds since this tracer was constructed.
  int64_t NowMicros() const;

  /// \brief Appends `event` to the calling thread's buffer, stamping its
  /// seq first if the caller (unlike TraceSpan) left it 0.
  void Record(TraceEvent event);

  /// \brief Moves out every recorded event, sorted by (ts, seq): spans that
  /// open in the same microsecond keep their open order, so enclosing spans
  /// precede the spans they contain and back-to-back spans stay in sequence.
  std::vector<TraceEvent> Drain();

  /// \brief The next open-order stamp for TraceEvent::seq.
  uint64_t NextSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Number of buffered events across all threads (for tests).
  size_t EventCount() const;

  /// \brief Names the `pid` track ("node0", ...) in exported traces.
  void SetProcessName(int pid, std::string name);
  /// \brief Names the (`pid`, `tid`) track ("slot3", ...).
  void SetThreadName(int pid, int tid, std::string name);

  /// \brief Copies of the track-name tables. By value: the maps are guarded
  /// by mutex_, so handing out a reference would let callers read them while
  /// SetProcessName/SetThreadName mutate concurrently.
  std::map<int, std::string> process_names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return process_names_;
  }
  std::map<std::pair<int, int>, std::string> thread_names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return thread_names_;
  }

  /// \brief Sets the calling thread's (pid, tid) track for spans opened in
  /// this scope; restores the previous track on destruction.
  class ScopedTrack {
   public:
    ScopedTrack(int pid, int tid);
    ~ScopedTrack();

    ScopedTrack(const ScopedTrack&) = delete;
    ScopedTrack& operator=(const ScopedTrack&) = delete;

   private:
    int prev_pid_;
    int prev_tid_;
  };

  /// \brief The calling thread's current track (defaults to (0, 0)).
  static int CurrentPid();
  static int CurrentTid();

 private:
  struct ThreadBuffer {
    std::mutex mutex;  // uncontended except while draining
    std::vector<TraceEvent> events DISTME_GUARDED_BY(mutex);
  };

  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_seq_{1};  // 0 marks an unstamped event
  const uint64_t tracer_id_;  // keys the per-thread buffer cache
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ DISTME_GUARDED_BY(mutex_);
  std::map<int, std::string> process_names_ DISTME_GUARDED_BY(mutex_);
  std::map<std::pair<int, int>, std::string> thread_names_
      DISTME_GUARDED_BY(mutex_);
};

/// \brief RAII span: stamps start on construction, records a complete event
/// on destruction (or explicit End()). Inert when `tracer` is null or
/// disabled — the constructor is then a branch and nothing else.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, const char* category = "")
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.pid = Tracer::CurrentPid();
    event_.tid = Tracer::CurrentTid();
    event_.ts_us = tracer_->NowMicros();
    event_.seq = tracer_->NextSeq();
  }

  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }

  void AddArg(const char* key, int64_t value) {
    if (tracer_ != nullptr) {
      event_.args.emplace_back(key, TraceArgValue::Int(value));
    }
  }
  void AddArg(const char* key, double value) {
    if (tracer_ != nullptr) {
      event_.args.emplace_back(key, TraceArgValue::Double(value));
    }
  }
  void AddArg(const char* key, std::string value) {
    if (tracer_ != nullptr) {
      event_.args.emplace_back(key, TraceArgValue::Str(std::move(value)));
    }
  }

  /// \brief Discards the span without recording it (e.g. a fetch that
  /// turned out to be node-local and never crossed the network).
  void Cancel() { tracer_ = nullptr; }

  /// \brief Ends the span now (idempotent; the destructor is then a no-op).
  void End() {
    if (tracer_ == nullptr) return;
    event_.dur_us = tracer_->NowMicros() - event_.ts_us;
    tracer_->Record(std::move(event_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  TraceEvent event_;
};

}  // namespace distme::obs
