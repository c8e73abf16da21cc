// Sample statistics for the benchmark: nearest-rank percentiles, the rule
// for which percentile a sample supports, and throughput windows.
#pragma once

#include <cstddef>
#include <vector>

namespace rsnn_bench {

/// Samples a timing must have beyond a percentile before that percentile is
/// reported: with fewer, one outlier more or less moves it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `values`; 0 when empty.
double percentile(std::vector<double> values, double pct);

double median(std::vector<double> values);

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// True when `n` samples leave at least kMinSamplesBeyond beyond `pct`.
bool percentile_supported(std::size_t n, double pct);

/// Fewest samples for which `pct` is supported.
std::size_t samples_needed(double pct);

/// The highest of 99.9, 99, 95, 90, 75 and 50 that `n` samples support;
/// 0 when none is.
double highest_supported_percentile(std::size_t n);

/// A timing as the benchmark reports it, with the sample count it rests on:
/// the median, the 90th percentile (the gated tail: on a shared host the
/// 99th spreads run to run far beyond any useful bound), and the highest
/// percentile the sample supports.
struct Timing {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  bool p90_supported = false;
  double top_pct = 0.0;  ///< highest_supported_percentile(samples)
  double top = 0.0;
};

Timing summarize(const std::vector<double>& values);

/// Consecutive chunks of `values`: at most `max_rounds` of them, each with at
/// least `min_per_round` samples (one chunk when there are too few for two).
std::vector<std::vector<double>> split_rounds(const std::vector<double>& values,
                                              std::size_t max_rounds,
                                              std::size_t min_per_round);

/// Interference from other tenants of a shared host only ever slows a run
/// down, in bursts from a fraction of a second to several seconds. So
/// throughput is reported as the 90th percentile of a run's windows and
/// latency percentiles as the 10th percentile over its rounds: the least
/// disturbed tenth, which a single lucky window or round cannot set.
inline constexpr double kRateQuantile = 90.0;
inline constexpr double kRoundQuantile = 10.0;

/// As summarize() over the pooled samples of every round, except that p50
/// and p90 are the kRoundQuantile of the per-round values. p90 counts as
/// supported when every round supports it.
Timing summarize_rounds(const std::vector<std::vector<double>>& rounds);

/// Throughput of back-to-back work items: consecutive items are grouped
/// into windows of at least `min_window_s` seconds, and each window yields
/// (units it completed) / (its exact duration). `seconds[i]` is item i's
/// duration and `units[i]` the units it completed.
std::vector<double> window_rates(const std::vector<double>& seconds,
                                 const std::vector<double>& units,
                                 double min_window_s);

/// Completion rate per fixed window of `window_s` over [begin_s, end_s),
/// from completion timestamps (partial trailing window dropped).
std::vector<double> completion_rates(std::vector<double> done_s,
                                     double begin_s, double end_s,
                                     double window_s);

}  // namespace rsnn_bench
