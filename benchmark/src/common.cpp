#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_objects.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "stats.hpp"

namespace rsnn_bench {

using namespace rsnn;

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    MetricKind kind) {
  metrics_.push_back(Metric{name, value, unit, samples, kind});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return m.value;
  return 0.0;
}

void Report::setting(const std::string& key, const std::string& value) {
  settings_.emplace_back(key, value);
}

void Report::attempts(std::int64_t n, std::int64_t failed,
                      std::int64_t refused) {
  attempted_ += n;
  failed_ += failed;
  refused_ += refused;
}

void Report::error(const std::string& message) {
  if (errors_.size() < 8) errors_.push_back(message);
}

void report_latency(Report& report, const std::string& suffix,
                    const std::vector<std::vector<double>>& rounds,
                    MetricKind kind) {
  const Timing t = summarize_rounds(rounds);
  report.metric("latency_p50_ms" + suffix, t.p50, "ms", t.samples, kind);
  report.metric("latency_p90_ms" + suffix, t.p90, "ms", t.samples,
                MetricKind::kNote);
  if (!t.p90_supported)
    report.error("latency" + suffix + ": too few samples for p90");
  if (t.top_pct > 90.0) {
    char name[64];
    std::snprintf(name, sizeof name, "latency_p%g_ms", t.top_pct);
    report.metric(name + suffix, t.top, "ms", t.samples, MetricKind::kNote);
  }
}

namespace {

quant::QuantizedNetwork quantize_seeded(nn::Network net, std::uint64_t seed,
                                        float gain, int time_bits) {
  Rng rng(seed);
  net.init_params(rng);
  if (gain != 1.0f)
    for (nn::Param* p : net.params())
      for (std::int64_t i = 0; i < p->value.numel(); ++i)
        p->value.at_flat(i) *= gain;
  return quant::quantize(net, quant::QuantizeConfig{3, time_bits});
}

Inputs encode_all(data::Dataset dataset, int time_bits) {
  Inputs in;
  in.images = std::move(dataset.images);
  in.codes.reserve(in.images.size());
  for (const TensorF& image : in.images)
    in.codes.push_back(quant::encode_activations(image, time_bits));
  return in;
}

/// Approximate sustained clock in MHz from a dependent-add chain (one add
/// per cycle); best of three.
double approx_clock_mhz() {
  constexpr std::uint64_t kIters = 32 * 1000 * 1000;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t acc = 1;
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      acc += i;
      asm volatile("" : "+r"(acc));
    }
    const double s = now_s() - t0;
    if (s > 0.0) best = std::max(best, kIters / s / 1e6);
  }
  return best;
}

}  // namespace

quant::QuantizedNetwork lenet5_model(std::uint64_t seed, int time_bits) {
  return quantize_seeded(nn::make_lenet5(), seed * 7919 + 5, 1.0f, time_bits);
}

quant::QuantizedNetwork vgg11_model(std::uint64_t seed) {
  return quantize_seeded(nn::make_vgg11(), seed * 7919 + 11, kVggGain, 3);
}

Inputs digit_inputs(std::uint64_t seed, std::size_t count, int time_bits) {
  data::SynthDigitsConfig config;
  config.num_samples = count;
  config.seed = seed * 104729 + 1;
  return encode_all(data::make_synth_digits(config), time_bits);
}

Inputs object_inputs(std::uint64_t seed, std::size_t count, int time_bits) {
  data::SynthObjectsConfig config;
  config.num_samples = count;
  config.seed = seed * 104729 + 2;
  return encode_all(data::make_synth_objects(config), time_bits);
}

double nonzero_code_share(const std::vector<TensorI>& codes) {
  std::int64_t nonzero = 0;
  std::int64_t total = 0;
  for (const TensorI& c : codes) {
    total += c.numel();
    for (std::int64_t i = 0; i < c.numel(); ++i) nonzero += c.at_flat(i) != 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(nonzero) / total;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_host(Report& report, const Options& options) {
  report.setting("host.nproc",
                 std::to_string(std::thread::hardware_concurrency()));
  report.setting("host.simd", common::simd::active_isa());
  report.setting("host.clock_mhz_approx",
                 std::to_string(static_cast<int>(approx_clock_mhz())));
  report.setting("host.commit", options.commit);
  report.setting("workload", options.workload);
  report.setting("seed", std::to_string(options.seed));
  report.setting("seconds", std::to_string(options.seconds));
  report.setting("trace", options.trace ? "1" : "0");
}

}  // namespace rsnn_bench
