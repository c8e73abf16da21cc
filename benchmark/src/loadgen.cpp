#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/rng.hpp"

namespace rsnn_bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs fn(connection) on `connections` threads and joins them all.
template <typename Fn>
void on_connections(int connections, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  rsnn::Rng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Exponential inter-arrival gap; 1 - u lies in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    due[i] = t;
  }
  return due;
}

Lateness lateness(const std::vector<RequestRecord>& records) {
  Lateness out;
  if (records.empty()) return out;
  std::size_t late = 0;
  for (const RequestRecord& r : records) {
    const double ms = lateness_ms(r);
    out.max_ms = std::max(out.max_ms, ms);
    if (ms > kLateThresholdMs) ++late;
  }
  out.late_share = static_cast<double>(late) / records.size();
  return out;
}

std::vector<double> ok_latencies_ms(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records)
    if (r.ok) out.push_back(latency_ms(r));
  return out;
}

std::vector<RequestRecord> run_open_loop(const std::vector<double>& due_s,
                                         int connections, const SendFn& send) {
  std::vector<RequestRecord> records(due_s.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  on_connections(connections, [&](int connection) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_s.size()) return;
      RequestRecord& r = records[i];
      r.due_s = due_s[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s[i])));
      r.sent_s = seconds_since(start);
      r.ok = send(connection, i);
      r.done_s = seconds_since(start);
    }
  });
  return records;
}

ClosedLoopResult run_closed_loop(int connections, double seconds,
                                 const SendFn& send) {
  ClosedLoopResult out;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  on_connections(connections, [&](int connection) {
    std::vector<double> done;
    std::size_t failed = 0;
    while (seconds_since(start) < seconds) {
      const bool ok = send(connection, next.fetch_add(1));
      if (ok)
        done.push_back(seconds_since(start));
      else
        ++failed;
    }
    const std::lock_guard<std::mutex> lock(mu);
    out.done_s.insert(out.done_s.end(), done.begin(), done.end());
    out.failed += failed;
  });
  out.elapsed_s = seconds_since(start);
  out.completed = out.done_s.size();
  return out;
}

}  // namespace rsnn_bench
