// fault_sweep: availability / goodput / tail-latency under injected faults.
//
// Runs the replicated serving pool (LeNet-5 at T=4, reference engine — the
// numerics are identical across engines and the point here is the serving
// fabric, not the cycle model) through a set of seeded fault scenarios and
// writes BENCH_faults.json:
//   * baseline       — no faults; the goodput/latency yardstick.
//   * transient5     — 5% of attempts fail transiently; bounded retry with
//     backoff must hold latency-class goodput >= 99%.
//   * replica_kill   — 1 of 4 replicas dies mid-run (attempt 5); the
//     survivors absorb its load.
//   * stall          — one replica stalls repeatedly; stall supervision
//     quarantines it and the tail recovers.
//   * overload_shed  — a tiny queue with mixed traffic; the bulk lane is
//     shed first and the latency lane keeps its goodput.
//
// Metrics per scenario: per-class goodput (ok / accepted), availability
// (ok / admitted across classes), p50/p99 latency, retries, sheds, and the
// surviving fleet size.
//
// Usage: fault_sweep [--json path] [--requests N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/serving_pool.hpp"
#include "hw/arch.hpp"
#include "ir/layer_program.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace rsnn;

TensorF random_image(const Shape& shape, Rng& rng) {
  TensorF image(shape);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);
  return image;
}

struct Scenario {
  std::string name;
  std::string fault_plan;     ///< parse_fault_plan text; "" = no faults
  int replicas = 4;
  std::size_t queue_capacity = 64;
  double stall_timeout_ms = 0.0;
  int bulk_every = 0;         ///< every Nth request rides the bulk lane
};

struct FaultRecord {
  std::string name;
  std::string fault_plan;
  int replicas = 0;
  int active_replicas = 0;
  std::int64_t requests = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
  std::int64_t retries = 0;
  std::int64_t shed_bulk = 0;
  std::int64_t rebuilds = 0;
  std::int64_t stalls = 0;
  double availability = 0.0;      ///< ok / admitted, across classes
  double goodput_latency = 0.0;   ///< latency-class ok / accepted
  double goodput_bulk = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

FaultRecord run_scenario(const ir::LayerProgram& program,
                         const std::vector<TensorI>& codes,
                         const Scenario& scenario) {
  engine::ServingPoolOptions options;
  options.replicas = scenario.replicas;
  options.queue_capacity = scenario.queue_capacity;
  options.max_retries = 4;
  options.backoff_base_ms = 0.05;
  options.backoff_cap_ms = 2.0;
  options.stall_timeout_ms = scenario.stall_timeout_ms;
  if (!scenario.fault_plan.empty()) {
    std::string error;
    if (!engine::parse_fault_plan(scenario.fault_plan, &options.fault_plan,
                                  &error)) {
      std::fprintf(stderr, "fault_sweep: %s\n", error.c_str());
      std::exit(1);
    }
  }

  engine::ServingPool pool(program, engine::EngineKind::kReference, options);

  std::vector<std::future<engine::ServingResult>> tickets;
  tickets.reserve(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    engine::RequestOptions request;
    if (scenario.bulk_every > 0 &&
        static_cast<int>(i % static_cast<std::size_t>(scenario.bulk_every)) ==
            scenario.bulk_every - 1)
      request.priority = engine::PriorityClass::kBulk;
    tickets.push_back(pool.submit(codes[i], request));
  }
  for (auto& ticket : tickets) ticket.get();

  const engine::ServingStats stats = pool.stats();
  FaultRecord record;
  record.name = scenario.name;
  record.fault_plan = scenario.fault_plan.empty() ? "none"
                                                  : scenario.fault_plan;
  record.replicas = scenario.replicas;
  record.active_replicas = stats.active_replicas;
  record.requests = static_cast<std::int64_t>(codes.size());
  record.ok = stats.completed;
  record.failed = stats.failed;
  record.rejected = stats.rejected;
  record.retries = stats.retries;
  record.shed_bulk = stats.shed_bulk;
  record.rebuilds = stats.rebuilds;
  record.stalls = stats.stalls;
  const std::int64_t admitted = stats.submitted;
  record.availability =
      admitted > 0 ? static_cast<double>(stats.completed) /
                         static_cast<double>(admitted)
                   : 0.0;
  record.goodput_latency = stats.per_class[0].goodput;
  record.goodput_bulk = stats.per_class[1].goodput;
  record.p50_latency_ms = stats.p50_latency_ms;
  record.p99_latency_ms = stats.p99_latency_ms;
  std::printf(
      "%-14s plan=%-24s avail %6.2f%%  goodput ls %6.2f%% bulk %6.2f%%  "
      "p99 %7.2f ms  retries %3lld  shed %2lld  fleet %d/%d\n",
      record.name.c_str(), record.fault_plan.c_str(),
      record.availability * 100.0, record.goodput_latency * 100.0,
      record.goodput_bulk * 100.0, record.p99_latency_ms,
      static_cast<long long>(record.retries),
      static_cast<long long>(record.shed_bulk + record.rejected),
      record.active_replicas, record.replicas);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  // 96 keeps the admission queue non-empty long enough for the stall
  // scenario's second injected stall to land (and quarantine) on replica 1.
  std::string json_path = "BENCH_faults.json";
  int requests = 96;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = std::max(4, std::atoi(argv[++i]));
  }

  Rng rng(2026);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const auto qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const ir::LayerProgram program =
      ir::lower(qnet, hw::lenet_reference_config());
  std::vector<TensorI> codes;
  for (int i = 0; i < requests; ++i)
    codes.push_back(quant::encode_activations(
        random_image(Shape{1, 32, 32}, rng), qnet.time_bits));

  const std::vector<Scenario> scenarios = {
      {"baseline", "", 4, 64, 0.0, 0},
      {"transient5", "seed:7,err:p0.05", 4, 64, 0.0, 0},
      {"replica_kill", "seed:7,kill:r2@5,err:p0.05", 4, 64, 0.0, 0},
      {"stall", "seed:7,stall:r1@1x100,stall:r1@2x100", 4, 64, 50.0, 0},
      {"overload_shed", "seed:7,stall:r0@1x40", 1, 2, 0.0, 3},
  };

  std::vector<FaultRecord> records;
  for (const Scenario& scenario : scenarios)
    records.push_back(run_scenario(program, codes, scenario));

  // Acceptance: under replica_kill + 5% transients, the latency class must
  // keep >= 99% goodput (ISSUE 6's chaos criterion).
  const FaultRecord& chaos = records[2];
  const bool accepted = chaos.goodput_latency >= 0.99;
  std::printf("\nacceptance: replica_kill latency goodput %.2f%% (>= 99%% %s)\n",
              chaos.goodput_latency * 100.0, accepted ? "PASS" : "FAIL");

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "fault_sweep: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark_set\": \"rsnn_fault_sweep\",\n");
  std::fprintf(out, "  \"unit\": \"goodput (ok / accepted)\",\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FaultRecord& r = records[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"fault_plan\": \"%s\", \"replicas\": %d, "
        "\"active_replicas\": %d, \"requests\": %lld, \"ok\": %lld, "
        "\"failed\": %lld, \"rejected\": %lld, \"retries\": %lld, "
        "\"shed_bulk\": %lld, \"rebuilds\": %lld, \"stalls\": %lld, "
        "\"availability\": %.4f, \"goodput_latency\": %.4f, "
        "\"goodput_bulk\": %.4f, \"p50_latency_ms\": %.2f, "
        "\"p99_latency_ms\": %.2f}%s\n",
        r.name.c_str(), r.fault_plan.c_str(), r.replicas, r.active_replicas,
        static_cast<long long>(r.requests), static_cast<long long>(r.ok),
        static_cast<long long>(r.failed), static_cast<long long>(r.rejected),
        static_cast<long long>(r.retries),
        static_cast<long long>(r.shed_bulk),
        static_cast<long long>(r.rebuilds), static_cast<long long>(r.stalls),
        r.availability, r.goodput_latency, r.goodput_bulk, r.p50_latency_ms,
        r.p99_latency_ms, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"acceptance\": {\"scenario\": \"replica_kill\", "
               "\"goodput_latency\": %.4f, \"threshold\": 0.99, "
               "\"pass\": %s}\n}\n",
               chaos.goodput_latency, accepted ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return accepted ? 0 : 1;
}
