// Load generation: seeded Poisson arrival schedules, an open-loop runner
// that times every request from when it was due, and a closed-loop runner
// for capacity. Both run one client thread per connection; the caller's
// `send` performs one request on one connection and reports success.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rsnn_bench {

/// Due offsets, in seconds from the phase start, of `count` Poisson
/// arrivals at `rate_per_s`. The same (seed, rate, count) always yields the
/// same schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

/// Timestamps of one open-loop request, in seconds from the phase start.
struct RequestRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
};

/// Latency as a user sees it: from when the request was due, so a stall
/// that delays later sends is charged to those requests too.
inline double latency_ms(const RequestRecord& r) {
  return (r.done_s - r.due_s) * 1e3;
}

/// How late the generator itself sent, in ms (0 when on time or early).
inline double lateness_ms(const RequestRecord& r) {
  return r.sent_s > r.due_s ? (r.sent_s - r.due_s) * 1e3 : 0.0;
}

/// A send later than this counts towards Lateness::late_share.
inline constexpr double kLateThresholdMs = 1.0;

struct Lateness {
  double max_ms = 0.0;
  double late_share = 0.0;  ///< share of sends more than kLateThresholdMs late
};

Lateness lateness(const std::vector<RequestRecord>& records);

/// Latencies (ms) of the successful requests.
std::vector<double> ok_latencies_ms(const std::vector<RequestRecord>& records);

/// send(connection, request_index) -> ok.
using SendFn = std::function<bool(int, std::size_t)>;

/// Open loop: request i is due at due_s[i]. `connections` threads take
/// requests in order; each sleeps until its request is due (or sends at
/// once if already late) and waits for the reply. Returns one record per
/// request, index-aligned with `due_s`.
std::vector<RequestRecord> run_open_loop(const std::vector<double>& due_s,
                                         int connections, const SendFn& send);

struct ClosedLoopResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<double> done_s;  ///< completion times of successful requests
};

/// Closed loop: `connections` threads each send back to back for
/// `seconds`. Request indices are drawn from one shared counter.
ClosedLoopResult run_closed_loop(int connections, double seconds,
                                 const SendFn& send);

}  // namespace rsnn_bench
