// Shared pieces of the workloads: run options, the result report, seeded
// models and inputs, and process/host measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace rsnn_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one untraced pass
  bool trace = false;
  std::string work_dir;   ///< where temporary .qsnn files go
  std::string commit = "unknown";
};

enum class MetricKind {
  kEndToEnd,  ///< printed by the untraced run
  kLayer,     ///< printed by the traced run
  kNote,      ///< reported on its own line only
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 for counts and ratios of counts
  MetricKind kind = MetricKind::kNote;
};

/// Everything one run reports: metrics, the configuration it ran with, and
/// the outcome of the output checks.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, MetricKind kind);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  void setting(const std::string& key, const std::string& value);
  const std::vector<std::pair<std::string, std::string>>& settings() const {
    return settings_;
  }

  /// Count `n` attempted operations, of which `failed` failed, were refused
  /// or returned a wrong result. `refused` counts refusals answered by
  /// sending the request again; they count in error_rate, not in `failed`.
  void attempts(std::int64_t n, std::int64_t failed, std::int64_t refused = 0);
  /// Record a wrong result or failed call; keeps the first few messages.
  void error(const std::string& message);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  std::int64_t refused() const { return refused_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> settings_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t refused_ = 0;
  std::vector<std::string> errors_;
};

/// Initialization seed of every model. Weights are fixed per workload and
/// --seed varies the inputs and arrival schedules: seeded weights would move
/// spike activity, and with it the work per image, from seed to seed by more
/// than the differences a comparison has to resolve.
inline constexpr std::uint64_t kModelSeed = 1;

/// Rounds a run's measurement is split into (interleaved phases on the
/// serve workloads, consecutive chunks on the batch ones); see
/// summarize_rounds.
inline constexpr std::size_t kRounds = 20;

/// Report per-round latencies (ms) as latency_p50_ms<suffix> of `kind` and
/// latency_p90_ms<suffix> as a note (see summarize_rounds), plus the highest
/// percentile the pooled sample supports as a note (for example
/// latency_p99_ms<suffix>). Too few samples for p90 is an error.
void report_latency(Report& report, const std::string& suffix,
                    const std::vector<std::vector<double>>& rounds,
                    MetricKind kind);

/// LeNet-5 from seeded initialization, quantized at `time_bits`.
rsnn::quant::QuantizedNetwork lenet5_model(std::uint64_t seed, int time_bits);

/// VGG-11 (100 classes) from seeded initialization, quantized at T=3. The
/// initial weights are scaled by kVggGain so that spikes reach the last
/// layer; at the plain initialization activity dies out after a few layers
/// and every logit is 0.
rsnn::quant::QuantizedNetwork vgg11_model(std::uint64_t seed);
inline constexpr float kVggGain = 3.0f;

struct Inputs {
  std::vector<rsnn::TensorF> images;
  std::vector<rsnn::TensorI> codes;  ///< encode_activations(images[i], T)
};

/// SynthDigits images (1x32x32) and their codes at `time_bits`.
Inputs digit_inputs(std::uint64_t seed, std::size_t count, int time_bits);
/// SynthObjects images (3x32x32) and their codes at `time_bits`.
Inputs object_inputs(std::uint64_t seed, std::size_t count, int time_bits);

/// Share of activation codes that are not zero (the fast path skips zero
/// codes, so this sets how much work an input makes).
double nonzero_code_share(const std::vector<rsnn::TensorI>& codes);

/// Process CPU time (user + system), seconds.
double process_cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

double now_s();  ///< steady clock, seconds

/// Host facts recorded with every result.
void record_host(Report& report, const Options& options);

}  // namespace rsnn_bench
