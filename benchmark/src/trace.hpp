// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into the library; nothing inside
// the library is instrumented. Spans stay in memory and are written out
// once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rsnn_bench {

struct Span {
  const char* name = "";  ///< a string literal naming the call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int32_t id = -1;
  std::int32_t parent = -1;     ///< id of the enclosing span, -1 for a root
  std::int64_t request = -1;    ///< shared by the spans of one request
};

class Tracer {
 public:
  /// A disabled tracer records nothing and never reads the clock.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (-1 when disabled).
  std::int32_t open(const char* name, std::int32_t parent = -1,
                    std::int64_t request = -1);
  void close(std::int32_t id);

  /// Snapshot of the spans recorded so far, from index `from` on.
  std::vector<Span> spans(std::size_t from = 0) const;
  std::size_t size() const;

  /// Write the spans as JSON lines to `path`. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent = -1,
             std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Run `fn` inside a span; returns its wall time in ns, measured whether
/// or not the tracer records.
template <typename Fn>
double timed_span(Tracer& tracer, const char* name, std::int32_t parent,
                  std::int64_t request, Fn&& fn) {
  const std::int32_t id = tracer.open(name, parent, request);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  tracer.close(id);
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Durations (ns) of the closed spans called `name`.
std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const std::string& name);

/// Self time (ns) of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover (overlapping
/// children counted once, children clipped to the parent).
std::vector<double> self_times_ns(const std::vector<Span>& spans);

}  // namespace rsnn_bench
