// The benchmark's workloads and the traced run's layer probes. Each
// workload runs in its own process (one invocation of rsnn_benchmark), so
// set-up time and peak memory are per workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "hw/run_result.hpp"
#include "trace.hpp"

namespace rsnn_bench {

/// What a correct inference must return, computed once at set-up outside
/// every timed region.
struct Expected {
  std::vector<std::int64_t> logits;
  std::int64_t total_cycles = 0;
};

inline bool matches(const rsnn::hw::AccelRunResult& r, const Expected& e) {
  return r.logits == e.logits && r.total_cycles == e.total_cycles;
}

/// Set-up repetitions: set-up time is the median over several, except in
/// the traced run, which reports no end-to-end metrics.
inline int setup_repetitions(const Options& options, int untraced) {
  return options.trace ? 1 : untraced;
}

void run_lenet_t8_batch(const Options& options, Tracer& tracer,
                        Report& report);
void run_vgg11_t3_batch(const Options& options, Tracer& tracer,
                        Report& report);
void run_serve_open(const Options& options, Tracer& tracer, Report& report);
void run_serve_churn(const Options& options, Tracer& tracer, Report& report);

/// The traced run's per-layer probes: per-op host time and modeled cycles
/// for LeNet-5 and VGG-11, TaskPool speed-up, the engine and wire hops of
/// one request, and the set-up path of the workload's model. Metrics the
/// workload itself already reported are not measured again.
void run_layer_probes(const Options& options, Tracer& tracer, Report& report);

}  // namespace rsnn_bench
