#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace distme::obs {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

struct TrackContext {
  int pid = 0;
  int tid = 0;
};

thread_local TrackContext t_track;

// Per-thread cache of this thread's buffer in each live tracer. Keyed by a
// unique tracer id (not the pointer), so a tracer reallocated at the same
// address can never alias a stale entry.
thread_local std::unordered_map<uint64_t, void*> t_buffer_cache;

}  // namespace

Tracer::Tracer()
    : tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  auto it = t_buffer_cache.find(tracer_id_);
  if (it != t_buffer_cache.end()) {
    return static_cast<ThreadBuffer*>(it->second);
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  t_buffer_cache.emplace(tracer_id_, raw);
  return raw;
}

void Tracer::Record(TraceEvent event) {
  if (event.seq == 0) event.seq = NextSeq();
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::Drain() {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      std::move(buffer->events.begin(), buffer->events.end(),
                std::back_inserter(all));
      buffer->events.clear();
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.seq < b.seq;
                   });
  return all;
}

size_t Tracer::EventCount() const {
  size_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

void Tracer::SetProcessName(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_names_[pid] = std::move(name);
}

void Tracer::SetThreadName(int pid, int tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[{pid, tid}] = std::move(name);
}

Tracer::ScopedTrack::ScopedTrack(int pid, int tid)
    : prev_pid_(t_track.pid), prev_tid_(t_track.tid) {
  t_track.pid = pid;
  t_track.tid = tid;
}

Tracer::ScopedTrack::~ScopedTrack() {
  t_track.pid = prev_pid_;
  t_track.tid = prev_tid_;
}

int Tracer::CurrentPid() { return t_track.pid; }
int Tracer::CurrentTid() { return t_track.tid; }

}  // namespace distme::obs
