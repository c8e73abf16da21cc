#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace rsnn_bench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::spans(std::size_t from) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (from >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(from),
                           spans_.end());
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans())
    std::fprintf(out,
                 "{\"id\": %d, \"parent\": %d, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.id, s.parent, static_cast<long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(out) == 0;
}

std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::int32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (s.parent < 0 || s.end_ns < 0 || parent == index_of.end()) continue;
    const Span& p = spans[parent->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered);
  }
  return self;
}

}  // namespace rsnn_bench
