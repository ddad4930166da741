// Span recorder for the benchmark's traced run.
//
// The benchmark times the system from outside: every span brackets one
// call from the benchmark's own code into a layer's public functions
// (Client::IngestBatch, Engine::Flush, DecodeFrame, ...). Each thread
// records into its own Lane, so recording takes no lock; lanes are only
// read after every thread that writes them has been joined. With tracing
// off the recorder hands out null lanes and ScopedSpan does nothing.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string: the layer call or phase.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< Index in the same lane; -1 for the root.
  uint64_t req_id = 0;    ///< Batch number, frame sequence, ... (0: none).
};

/// One thread's spans, nested strictly (a span ends before its parent).
class Lane {
 public:
  explicit Lane(std::string thread) : thread_(std::move(thread)) {}

  int Begin(const char* name, uint64_t req_id = 0) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0,
                      stack_.empty() ? -1 : stack_.back(), req_id});
    stack_.push_back(idx);
    return idx;
  }
  void End(int idx) {
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    stack_.pop_back();
  }
  /// Records an already-timed leaf span under the currently open one.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t req_id = 0) {
    spans_.push_back({name, start_ns, end_ns,
                      stack_.empty() ? -1 : stack_.back(), req_id});
  }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, uint64_t req_id = 0)
      : lane_(lane), idx_(lane != nullptr ? lane->Begin(name, req_id) : -1) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
  int idx_;
};

/// Self time of one lane: per span name, the span durations minus the
/// parts their child spans cover. The lane root and phase spans ("run",
/// "phase.*", thread roots) are the benchmark's own code and land in
/// "unattributed", so the rows sum to the root's wall time.
struct LaneTable {
  std::string thread;
  int64_t wall_ns = 0;
  std::map<std::string, int64_t> self_ns;  ///< Includes "unattributed".
  std::map<std::string, uint64_t> calls;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh lane for the calling thread, or null with tracing off.
  Lane* NewLane(const std::string& thread);

  /// Durations (ns) of every span named `name`, across lanes (or in the
  /// lanes of thread `thread` only).
  std::vector<int64_t> Durations(const std::string& name,
                                 const std::string& thread = "") const;
  size_t SpanCount() const;

  std::vector<LaneTable> Tables() const;

  /// Writes the spans, the first 20,000 of each thread, in the Chrome
  /// trace-event format.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
