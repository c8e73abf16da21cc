#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace rsnn_bench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples. The tolerance keeps
/// decimal percentiles such as 99.9 (inexact in binary) from rounding up a
/// whole rank.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-6);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const std::size_t k = nearest_rank(values.size(), pct) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - nearest_rank(n, pct);
}

bool percentile_supported(std::size_t n, double pct) {
  return samples_beyond(n, pct) >= kMinSamplesBeyond;
}

std::size_t samples_needed(double pct) {
  std::size_t n = kMinSamplesBeyond;
  while (!percentile_supported(n, pct)) ++n;
  return n;
}

double highest_supported_percentile(std::size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (percentile_supported(n, pct)) return pct;
  return 0.0;
}

Timing summarize(const std::vector<double>& values) {
  Timing t;
  t.samples = values.size();
  t.p50 = percentile(values, 50.0);
  t.p90 = percentile(values, 90.0);
  t.p90_supported = percentile_supported(values.size(), 90.0);
  t.top_pct = highest_supported_percentile(values.size());
  t.top = percentile(values, t.top_pct);
  return t;
}

std::vector<std::vector<double>> split_rounds(const std::vector<double>& values,
                                              std::size_t max_rounds,
                                              std::size_t min_per_round) {
  const std::size_t rounds = std::max<std::size_t>(
      1, std::min(max_rounds,
                  values.size() / std::max<std::size_t>(min_per_round, 1)));
  std::vector<std::vector<double>> out(rounds);
  const auto at = [&](std::size_t r) {
    return values.begin() +
           static_cast<std::ptrdiff_t>(values.size() * r / rounds);
  };
  for (std::size_t r = 0; r < rounds; ++r) out[r].assign(at(r), at(r + 1));
  return out;
}

Timing summarize_rounds(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> pooled;
  for (const auto& r : rounds)
    pooled.insert(pooled.end(), r.begin(), r.end());
  Timing t = summarize(pooled);
  if (rounds.size() < 2) return t;
  std::vector<double> p50, p90;
  for (const auto& r : rounds) {
    const Timing round = summarize(r);
    p50.push_back(round.p50);
    p90.push_back(round.p90);
    t.p90_supported = t.p90_supported && round.p90_supported;
  }
  t.p50 = percentile(p50, kRoundQuantile);
  t.p90 = percentile(p90, kRoundQuantile);
  return t;
}

std::vector<double> window_rates(const std::vector<double>& seconds,
                                 const std::vector<double>& units,
                                 double min_window_s) {
  std::vector<double> rates;
  double window_s = 0.0;
  double window_units = 0.0;
  for (std::size_t i = 0; i < seconds.size() && i < units.size(); ++i) {
    window_s += seconds[i];
    window_units += units[i];
    if (window_s >= min_window_s) {
      rates.push_back(window_units / window_s);
      window_s = 0.0;
      window_units = 0.0;
    }
  }
  return rates;
}

std::vector<double> completion_rates(std::vector<double> done_s,
                                     double begin_s, double end_s,
                                     double window_s) {
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  auto it = std::lower_bound(done_s.begin(), done_s.end(), begin_s);
  for (double lo = begin_s; lo + window_s <= end_s + 1e-12; lo += window_s) {
    const auto hi = std::lower_bound(it, done_s.end(), lo + window_s);
    rates.push_back(static_cast<double>(hi - it) / window_s);
    it = hi;
  }
  return rates;
}

}  // namespace rsnn_bench
