#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into each layer (name, start, end, parent,
/// request id), kept in memory while the run lasts and written out once
/// at its end. A disabled tracer records nothing, so the same code path
/// measures the untraced time and hence the tracing overhead.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: a layer or a root name
  int64_t start_ns = 0;   ///< steady clock
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;   ///< spans of one request share this id
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child
/// sticking out of its parent is clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sum of self time per span name, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
