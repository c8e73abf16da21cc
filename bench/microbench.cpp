// Microbenchmarks (google-benchmark) for the simulator's hot paths: radix
// encode/decode, the quantized integer forward pass, the cycle-accurate
// accelerator, and the analytic latency model. They time single calls for
// profiling and are not gated. The repository's benchmark is
// benchmark/run.py (see benchmark/README.md); tools/bench_ab.py compares two
// commits with it.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.hpp"
#include "encoding/radix.hpp"
#include "hw/accelerator.hpp"
#include "hw/conv_unit.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

namespace {

using namespace rsnn;

TensorF random_image(const Shape& shape, Rng& rng) {
  TensorF image(shape);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);
  return image;
}

quant::QuantizedNetwork make_qnet(int T) {
  Rng rng(5);
  nn::Network net(Shape{1, 16, 16});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 8, 3, 1, 0});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2});
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{8 * 7 * 7, 10});
  net.init_params(rng);
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return quant::quantize(net, quant::QuantizeConfig{3, T});
}

quant::QuantizedNetwork make_lenet_qnet(int T) {
  Rng rng(6);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  for (nn::Param* p : lenet.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return quant::quantize(lenet, quant::QuantizeConfig{3, T});
}

void BM_RadixEncode(benchmark::State& state) {
  Rng rng(1);
  const TensorF image = random_image(Shape{1, 32, 32}, rng);
  const int T = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoding::radix_encode(image, T));
  }
  state.SetItemsProcessed(state.iterations() * image.numel());
}
BENCHMARK(BM_RadixEncode)->Arg(3)->Arg(6);

void BM_RadixRoundTrip(benchmark::State& state) {
  Rng rng(2);
  const TensorF image = random_image(Shape{1, 32, 32}, rng);
  for (auto _ : state) {
    const auto train = encoding::radix_encode(image, 4);
    benchmark::DoNotOptimize(encoding::radix_decode_codes(train));
  }
}
BENCHMARK(BM_RadixRoundTrip);

void BM_QuantizedForward(benchmark::State& state) {
  const auto qnet = make_qnet(static_cast<int>(state.range(0)));
  Rng rng(3);
  const TensorF image = random_image(Shape{1, 16, 16}, rng);
  const TensorI codes = quant::encode_activations(image, qnet.time_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qnet.forward(codes));
  }
}
BENCHMARK(BM_QuantizedForward)->Arg(3)->Arg(6);

void BM_CycleAccurateAccelerator(benchmark::State& state) {
  const auto qnet = make_qnet(4);
  hw::AcceleratorConfig cfg;
  cfg.num_conv_units = static_cast<int>(state.range(0));
  cfg.conv = hw::ConvUnitGeometry{16, 3, 24};
  cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
  cfg.linear = hw::LinearUnitGeometry{8, 24};
  hw::Accelerator accel(cfg, qnet);
  Rng rng(4);
  const TensorF image = random_image(Shape{1, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.run_image(image, hw::SimMode::kCycleAccurate));
  }
}
BENCHMARK(BM_CycleAccurateAccelerator)->Arg(1)->Arg(4);

void BM_CycleAccurateLeNetT8(benchmark::State& state) {
  const auto qnet = make_lenet_qnet(8);
  hw::Accelerator accel(hw::lenet_reference_config(), qnet);
  Rng rng(7);
  const TensorF image = random_image(Shape{1, 32, 32}, rng);
  const TensorI codes = quant::encode_activations(image, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.run_codes(codes, hw::SimMode::kCycleAccurate));
  }
}
BENCHMARK(BM_CycleAccurateLeNetT8);

void BM_LatencyPrediction(benchmark::State& state) {
  Rng rng(6);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const auto qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  hw::Accelerator accel(hw::lenet_reference_config(), qnet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.predict_total_cycles());
  }
}
BENCHMARK(BM_LatencyPrediction);

}  // namespace

BENCHMARK_MAIN();
