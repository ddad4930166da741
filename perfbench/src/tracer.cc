#include "tracer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

/// Spans written per thread: a busy subscriber records hundreds of
/// thousands, which would make the file hundreds of megabytes.
constexpr size_t kMaxWrittenSpans = 20000;

bool IsBenchCode(const Span& s) {
  return s.parent < 0 || std::strncmp(s.name, "phase.", 6) == 0;
}

}  // namespace

Lane* Tracer::NewLane(const std::string& thread) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<Lane>(thread));
  return lanes_.back().get();
}

std::vector<int64_t> Tracer::Durations(const std::string& name,
                                       const std::string& thread) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  for (const auto& lane : lanes_) {
    if (!thread.empty() && lane->thread() != thread) continue;
    for (const Span& s : lane->spans()) {
      if (name == s.name) out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans().size();
  return n;
}

std::vector<LaneTable> Tracer::Tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LaneTable> out;
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    LaneTable t;
    t.thread = lane->thread();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t self = s.end_ns - s.start_ns - child_ns[i];
      if (s.parent < 0) t.wall_ns += s.end_ns - s.start_ns;
      const std::string row = IsBenchCode(s) ? "unattributed" : s.name;
      t.self_ns[row] += self;
      if (!IsBenchCode(s)) ++t.calls[row];
    }
    out.push_back(std::move(t));
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (size_t tid = 0; tid < lanes_.size(); ++tid) {
    const Lane& lane = *lanes_[tid];
    std::fprintf(f,
                 "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, lane.thread().c_str());
    first = false;
    const std::vector<Span>& spans = lane.spans();
    // Parents precede their children, so a prefix stays self-consistent.
    const size_t n = std::min(spans.size(), kMaxWrittenSpans);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu}}",
                   s.name, tid, (s.start_ns - origin) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<unsigned long long>(s.req_id));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
