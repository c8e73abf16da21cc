// Batch workloads: host images through hw::Accelerator's batched fast path,
// bypassing engine, serve and the registry. LeNet-5 keeps its weights in
// cache on one thread; VGG-11 streams ~110 MB of prepared weights and
// splits every batch across common::TaskPool slices.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rsnn_bench {

using namespace rsnn;

namespace {

struct BatchSpec {
  const char* model;
  hw::AcceleratorConfig config;
  std::size_t batch;
  /// Distinct batches the inputs fill. Batches differ in work (their
  /// spike counts differ), so with few of them batch times cluster and a
  /// percentile jumps between clusters; enough of them make it smooth.
  std::size_t batches;
  std::size_t checked;      ///< images checked against the reference
  int setups;
};

/// Expected results of the checked images: LeNet-5 against the golden
/// stepped dataflow, VGG-11 (too slow to step) against the reference
/// engine's logits and the program's predicted cycles.
Expected reference_result(const BatchSpec& spec, const hw::Accelerator& acc,
                          const TensorI& codes) {
  if (std::string(spec.model) == "lenet5") {
    const hw::AccelRunResult r = acc.run_codes(codes, hw::SimMode::kStepped);
    return Expected{r.logits, r.total_cycles};
  }
  const auto reference =
      engine::make_engine(engine::EngineKind::kReference, acc.program());
  return Expected{reference->run_codes(codes).logits,
                  acc.predict_total_cycles()};
}

void run_batch_workload(const BatchSpec& spec,
                        const quant::QuantizedNetwork& qnet,
                        const Inputs& inputs, const Options& options,
                        Tracer& tracer, Report& report) {
  const std::size_t B = spec.batch;
  report.setting("model", spec.model);
  report.setting("time_bits", std::to_string(qnet.time_bits));
  report.setting("config", spec.config.name);
  report.setting("fast_path.threads",
                 std::to_string(spec.config.fast_path.threads));
  report.setting("batch", std::to_string(B));
  report.setting("distinct_images", std::to_string(inputs.codes.size()));
  report.setting("path", "hw::Accelerator::run_codes_batched_into");

  // Seeded sample of checked images, spread evenly over the batches from
  // batch 0 (which the set-up checks).
  Rng pick(options.seed * 31 + 7);
  std::vector<std::size_t> checked;
  for (std::size_t k = 0; k < spec.checked; ++k)
    checked.push_back(k * spec.batches / spec.checked * B + pick.next_below(B));
  std::vector<Expected> expected;
  {
    const hw::Accelerator ref(spec.config, qnet);
    for (std::size_t i : checked)
      expected.push_back(reference_result(spec, ref, inputs.codes[i]));
  }

  std::vector<hw::AccelRunResult> results(B);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Checks batch `b`'s results against the sampled references.
  auto check_sampled = [&](std::size_t b) {
    for (std::size_t k = 0; k < checked.size(); ++k) {
      if (checked[k] / B != b) continue;
      if (!matches(results[checked[k] % B], expected[k])) {
        ++failed;
        report.error("image " + std::to_string(checked[k]) +
                     " differs from the reference");
      }
    }
  };

  // Set-up: from handing the network to the library to the first checked
  // batch. Repeated; each accelerator dies before the next is built, so
  // every repetition prepares its weights afresh.
  std::vector<double> setup_s;
  std::unique_ptr<hw::Accelerator> acc;
  std::unique_ptr<hw::Accelerator::WorkerState> state;
  for (int rep = 0; rep < spec.setups; ++rep) {
    state.reset();
    acc.reset();
    const double t0 = now_s();
    acc = std::make_unique<hw::Accelerator>(spec.config, qnet);
    state = std::make_unique<hw::Accelerator::WorkerState>(
        acc->make_worker_state());
    acc->run_codes_batched_into(*state, inputs.codes.data(), B,
                                results.data());
    check_sampled(0);
    setup_s.push_back(now_s() - t0);
    attempted += static_cast<std::int64_t>(B);
  }

  // Warm-up pass over every batch; its results become the expected values
  // of every image for the timed passes (the sampled ones are checked
  // against the reference here).
  std::vector<Expected> pass(inputs.codes.size());
  for (std::size_t b = 0; b < spec.batches; ++b) {
    acc->run_codes_batched_into(*state, inputs.codes.data() + b * B, B,
                                results.data());
    check_sampled(b);
    for (std::size_t j = 0; j < B; ++j)
      pass[b * B + j] = Expected{results[j].logits, results[j].total_cycles};
    attempted += static_cast<std::int64_t>(B);
  }

  // Timed loop: at least `seconds`, and long enough for p90 to be
  // supported (capped at three times `seconds`).
  const std::size_t needed = samples_needed(90.0);
  std::vector<double> batch_s;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  for (std::size_t n = 0;; ++n) {
    const double elapsed = now_s() - start;
    if (elapsed >= options.seconds &&
        (batch_s.size() >= needed || elapsed >= 3 * options.seconds))
      break;
    const std::size_t b = n % spec.batches;
    const double t0 = now_s();
    {
      ScopedSpan span(tracer, "hw.run_codes_batched_into", -1,
                      static_cast<std::int64_t>(n));
      acc->run_codes_batched_into(*state, inputs.codes.data() + b * B, B,
                                  results.data());
    }
    batch_s.push_back(now_s() - t0);
    for (std::size_t j = 0; j < B; ++j)
      if (!matches(results[j], pass[b * B + j])) {
        ++failed;
        report.error("image " + std::to_string(b * B + j) +
                     " changed between passes");
      }
    attempted += static_cast<std::int64_t>(B);
  }
  const double cpu_s = process_cpu_s() - cpu0;
  const double images = static_cast<double>(batch_s.size() * B);
  report.attempts(attempted, failed);

  std::vector<double> batch_ms(batch_s.size());
  std::transform(batch_s.begin(), batch_s.end(), batch_ms.begin(),
                 [](double s) { return s * 1e3; });
  const std::vector<double> rates = window_rates(
      batch_s, std::vector<double>(batch_s.size(), static_cast<double>(B)),
      0.5);

  report.metric("setup_s", median(setup_s), "s", setup_s.size(),
                MetricKind::kEndToEnd);
  report.metric("images_per_s", percentile(rates, kRateQuantile), "1/s",
                rates.size(), MetricKind::kEndToEnd);
  report.metric("cpu_ms_per_image", cpu_s * 1e3 / images, "ms",
                batch_s.size(), MetricKind::kEndToEnd);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, MetricKind::kEndToEnd);
  report_latency(report, "",
                 split_rounds(batch_ms, kRounds, samples_needed(90.0)),
                 MetricKind::kEndToEnd);
  report.setting("latency", "wall time of one batch call");
  report.metric("input.nonzero_code_share", nonzero_code_share(inputs.codes),
                "share", inputs.codes.size(), MetricKind::kLayer);
}

}  // namespace

void run_lenet_t8_batch(const Options& options, Tracer& tracer,
                        Report& report) {
  BatchSpec spec{"lenet5", hw::lenet_reference_config(), 32, 64, 16,
                 setup_repetitions(options, 41)};
  spec.config.fast_path.threads = 1;
  const quant::QuantizedNetwork qnet = lenet5_model(kModelSeed, 8);
  const Inputs inputs = digit_inputs(options.seed, spec.batch * spec.batches,
                                     qnet.time_bits);
  run_batch_workload(spec, qnet, inputs, options, tracer, report);
}

void run_vgg11_t3_batch(const Options& options, Tracer& tracer,
                        Report& report) {
  // Two reference checks: the reference forward takes about a second per
  // VGG-11 image.
  BatchSpec spec{"vgg11", hw::vgg11_table3_config(), 8, 32, 2,
                 setup_repetitions(options, 7)};
  spec.config.fast_path.threads = 2;
  const quant::QuantizedNetwork qnet = vgg11_model(kModelSeed);
  const Inputs inputs = object_inputs(options.seed, spec.batch * spec.batches,
                                      qnet.time_bits);
  run_batch_workload(spec, qnet, inputs, options, tracer, report);
}

}  // namespace rsnn_bench
