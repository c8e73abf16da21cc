// The simulator fast path (hw/fast_path) against the golden stepped
// dataflow. The accounting contract is non-negotiable: logits, cycles,
// adder ops and memory traffic must be bit-identical to SimMode::kStepped
// for every layout policy x fusion x geometry combination — the fast path
// changes how the simulator iterates, never what it counts.
//
// Also covered here: the Arena bump allocator, the zero-allocation warm
// batched property, segment-scoped fast-path execution (a fused conv+pool
// pair split by a pipeline cut), per-channel shifts of both signs
// saturating at 0 and 2^T-1, the accumulator bound (max codes against
// all-positive and all-negative weights), and the proven word width — the
// int32 and int64 kernel instances at and just past the int32 edges, the
// SIMD kernels of both widths and the spike counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
#include "hw/accelerator.hpp"
#include "hw/accumulator_sizing.hpp"
#include "hw/fast_path.hpp"
#include "ir/layer_program.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RSNN_SANITIZERS_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RSNN_SANITIZERS_ACTIVE 1
#endif
#endif

namespace rsnn::hw {
namespace {

using rsnn::testing::random_image;

/// Full bit-identity check: totals, traffic, logits, and every per-layer
/// record.
void expect_bit_identical(const AccelRunResult& run,
                          const AccelRunResult& golden) {
  EXPECT_EQ(run.logits, golden.logits);
  EXPECT_EQ(run.predicted_class, golden.predicted_class);
  EXPECT_EQ(run.total_cycles, golden.total_cycles);
  EXPECT_EQ(run.total_adder_ops, golden.total_adder_ops);
  EXPECT_EQ(run.dram_bits, golden.dram_bits);
  EXPECT_EQ(run.traffic_total.act_read_bits, golden.traffic_total.act_read_bits);
  EXPECT_EQ(run.traffic_total.act_write_bits,
            golden.traffic_total.act_write_bits);
  EXPECT_EQ(run.traffic_total.weight_read_bits,
            golden.traffic_total.weight_read_bits);
  EXPECT_EQ(run.traffic_total.dram_bits, golden.traffic_total.dram_bits);
  ASSERT_EQ(run.layers.size(), golden.layers.size());
  for (std::size_t li = 0; li < run.layers.size(); ++li) {
    SCOPED_TRACE("layer " + std::to_string(li));
    EXPECT_EQ(run.layers[li].name, golden.layers[li].name);
    EXPECT_EQ(run.layers[li].cycles, golden.layers[li].cycles);
    EXPECT_EQ(run.layers[li].dram_cycles, golden.layers[li].dram_cycles);
    EXPECT_EQ(run.layers[li].adder_ops, golden.layers[li].adder_ops);
    EXPECT_EQ(run.layers[li].input_spikes, golden.layers[li].input_spikes);
    EXPECT_EQ(run.layers[li].traffic.act_read_bits,
              golden.layers[li].traffic.act_read_bits);
    EXPECT_EQ(run.layers[li].traffic.act_write_bits,
              golden.layers[li].traffic.act_write_bits);
    EXPECT_EQ(run.layers[li].traffic.weight_read_bits,
              golden.layers[li].traffic.weight_read_bits);
    EXPECT_EQ(run.layers[li].traffic.dram_bits,
              golden.layers[li].traffic.dram_bits);
  }
}

struct PlanVariant {
  LayoutPolicy layout;
  bool fuse;
  const char* label;
};

constexpr PlanVariant kPlanVariants[] = {
    {LayoutPolicy::kAuto, true, "auto_fused"},
    {LayoutPolicy::kAuto, false, "auto_unfused"},
    {LayoutPolicy::kForceChw, true, "chw_fused"},
    {LayoutPolicy::kForceChw, false, "chw_unfused"},
    {LayoutPolicy::kForceHwc, true, "hwc_fused"},
    {LayoutPolicy::kForceHwc, false, "hwc_unfused"},
};

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();

/// `qnet` with one final-layer bias past INT32_MAX: the same shapes and the
/// same work, but a pack whose proof fails, so the fast path runs its int64
/// instance.
quant::QuantizedNetwork past_int32(quant::QuantizedNetwork qnet) {
  std::get<quant::QLinear>(qnet.layers.back()).bias.data()[0] = kInt32Max + 1;
  return qnet;
}

// ------------------------------------------------------------------ Arena

TEST(Arena, BumpAllocatesAndConsolidatesOnReset) {
  common::Arena arena;
  // First round: everything overflows the (empty) primary chunk.
  std::int64_t* a = arena.alloc<std::int64_t>(100);
  std::int32_t* b = arena.alloc<std::int32_t>(7);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a[99] = 42;
  b[6] = 7;
  const std::size_t demand = arena.round_bytes();
  EXPECT_GE(demand, 100 * sizeof(std::int64_t) + 7 * sizeof(std::int32_t));

  // Reset consolidates the round's demand into the primary chunk.
  arena.reset();
  EXPECT_GE(arena.capacity(), demand);
  EXPECT_EQ(arena.round_bytes(), 0u);

  // An identical round now bumps through the primary chunk; capacity stays.
  const std::size_t capacity = arena.capacity();
  std::int64_t* a2 = arena.alloc<std::int64_t>(100);
  arena.alloc<std::int32_t>(7);
  a2[0] = 1;
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.round_bytes(), demand);
  arena.reset();
  EXPECT_EQ(arena.capacity(), capacity);
}

TEST(Arena, BlocksAreMaxAligned) {
  common::Arena arena;
  for (int i = 0; i < 5; ++i) {
    const auto p = reinterpret_cast<std::uintptr_t>(arena.alloc<char>(3));
    EXPECT_EQ(p % alignof(std::max_align_t), 0u);
  }
}

// ------------------------------------- layout x fusion sweeps, LeNet T=4

TEST(FastPath, LeNetAllPlanVariantsBitIdenticalToStepped) {
  Rng rng(711);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  // The stepped golden run (fast-path options do not affect kStepped).
  const Accelerator golden_accel(lenet_reference_config(), qnet);
  const AccelRunResult golden =
      golden_accel.run_codes(codes, SimMode::kStepped);
  ASSERT_FALSE(golden.logits.empty());

  for (const PlanVariant& variant : kPlanVariants) {
    SCOPED_TRACE(variant.label);
    AcceleratorConfig cfg = lenet_reference_config();
    cfg.fast_path.layout = variant.layout;
    cfg.fast_path.fuse_conv_pool = variant.fuse;
    const Accelerator accel(cfg, qnet);
    expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                         golden);
  }
}

// --------------------------------- geometry sweep: stride, padding, tiling

TEST(FastPath, StridePaddingTilingGeometriesMatchStepped) {
  const rsnn::testing::SweepConfig geometries[] = {
      {1, 4, 9, 3, 1, 0, 4},   // plain k3
      {2, 3, 9, 3, 2, 1, 3},   // stride 2 with padding
      {3, 5, 11, 5, 2, 2, 4},  // k5, stride 2, padding 2
      {2, 6, 12, 3, 1, 1, 5},  // padded, wide output (tiles with X=4)
  };
  int seed = 100;
  for (const auto& geometry : geometries) {
    SCOPED_TRACE("size=" + std::to_string(geometry.size) +
                 " k=" + std::to_string(geometry.kernel) +
                 " stride=" + std::to_string(geometry.stride) +
                 " pad=" + std::to_string(geometry.padding));
    Rng rng(seed++);
    nn::Network net = rsnn::testing::sweep_net(geometry, rng);
    const quant::QuantizedNetwork qnet = quant::quantize(
        net, quant::QuantizeConfig{3, geometry.time_bits});
    const TensorI codes = quant::encode_activations(
        random_image(qnet.input_shape, rng), qnet.time_bits);

    // array_columns = 4 forces output-row tiling on every geometry above.
    AcceleratorConfig cfg;
    cfg.conv = ConvUnitGeometry{4, 5, 24};
    cfg.linear = LinearUnitGeometry{8, 24};
    const Accelerator accel(cfg, qnet);
    const AccelRunResult golden = accel.run_codes(codes, SimMode::kStepped);

    for (const LayoutPolicy layout :
         {LayoutPolicy::kForceChw, LayoutPolicy::kForceHwc}) {
      SCOPED_TRACE(layout == LayoutPolicy::kForceChw ? "chw" : "hwc");
      AcceleratorConfig fast_cfg = cfg;
      fast_cfg.fast_path.layout = layout;
      const Accelerator fast_accel(fast_cfg, qnet);
      expect_bit_identical(
          fast_accel.run_codes(codes, SimMode::kCycleAccurate), golden);
    }
  }
}

// ----------------------------------------------- VGG-11 (DRAM streaming)

TEST(FastPath, Vgg11BothLayoutsBitIdenticalToStepped) {
  Rng rng(37);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  const Accelerator golden_accel(vgg11_table3_config(), qnet);
  ASSERT_TRUE(golden_accel.uses_dram());
  const AccelRunResult golden =
      golden_accel.run_codes(codes, SimMode::kStepped);

  for (const LayoutPolicy layout :
       {LayoutPolicy::kForceChw, LayoutPolicy::kForceHwc}) {
    SCOPED_TRACE(layout == LayoutPolicy::kForceChw ? "chw" : "hwc");
    AcceleratorConfig cfg = vgg11_table3_config();
    cfg.fast_path.layout = layout;
    const Accelerator accel(cfg, qnet);
    expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                         golden);
  }
}

// ------------------------------------- segment cut through a fused pair

TEST(FastPath, SegmentCutBetweenFusedConvPoolMatchesWholeProgram) {
  Rng rng(55);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  const ir::LayerProgram& program = accel.program();

  // The plan fuses the conv (op 0) with the pool (op 1); the cut at op 1
  // splits that pair, so segment [0, 1) must execute the conv unfused and
  // emit its own boundary codes.
  ASSERT_EQ(program.op(0).kind, ir::OpKind::kConv);
  ASSERT_TRUE(program.op(0).fuse_with_next);
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);
  const AccelRunResult whole = accel.run_codes(codes, SimMode::kCycleAccurate);
  expect_bit_identical(whole, accel.run_codes(codes, SimMode::kStepped));

  Accelerator::WorkerState state = accel.make_worker_state();
  TensorI boundary;
  AccelRunResult merged = accel.run_codes_range(
      state, codes, 0, 1, SimMode::kCycleAccurate, &boundary);
  ASSERT_EQ(boundary.shape(), program.op(0).out_shape);
  merge_segment_result(merged,
                       accel.run_codes_range(state, boundary, 1,
                                             program.size(),
                                             SimMode::kCycleAccurate));
  finalize_run(merged, accel.config().cycle_ns());
  expect_bit_identical(merged, whole);
}

// ------------------------------------------------- zero-allocation warmth

TEST(FastPath, WarmEngineDispatchAllocatesNothing) {
#ifdef RSNN_SANITIZERS_ACTIVE
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#else
  Rng rng(91);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork narrow =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  const quant::QuantizedNetwork wide = past_int32(narrow);
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const std::vector<TensorI> batch(
      4, quant::encode_activations(random_image(narrow.input_shape, rng),
                                   narrow.time_bits));

  // Both word instances: the int32 words the proof allows, and the int64
  // words of the same network with one bias past the int32 edge.
  for (const auto& [qnet, word_bits] :
       {std::pair{&narrow, 32}, std::pair{&wide, 64}}) {
    SCOPED_TRACE("word_bits=" + std::to_string(word_bits));
    const ir::LayerProgram program = ir::lower(*qnet, cfg);
    ASSERT_EQ(prepare_fast_path(program).word_bits, word_bits);

    // The call a monolithic serving replica makes per dispatch, at a batch
    // of four (the run-time-width kernels) and at its usual batch of one
    // (the width-1 instance).
    auto engine =
        engine::make_engine(engine::EngineKind::kCycleAccurate, program);
    std::vector<AccelRunResult> results(batch.size());
    AccelRunResult single;
    const auto run = [&] {
      engine->run_codes_batched_into(batch.data(), batch.size(),
                                     results.data());
      engine->run_codes_batched_into(batch.data(), 1, &single);
    };
    // Two warm batches: the first builds the prepared weights and sizes
    // every scratch buffer; the second consolidates the arena's primary
    // chunk.
    run();
    run();
    const AccelRunResult warm = results.at(0);

    const std::uint64_t before = common::allocation_count();
    // Guard against a vacuous pass: the setup above allocates plenty, so a
    // zero counter means the counting hook did not link into this binary.
    ASSERT_GT(before, 0u) << "allocation hook not linked";
    run();
    const std::uint64_t after = common::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << "warm fast-path batched inference must not touch the heap";
    expect_bit_identical(results.at(0), warm);
    expect_bit_identical(single, warm);
  }
#endif
}

// ------------------------------------------------------- SIMD dispatch

TEST(Simd, KernelsMatchScalarOnRandomVectors) {
  const common::simd::Kernels& best = common::simd::kernels();
  const common::simd::Kernels& scalar = common::simd::scalar_kernels();
  Rng rng(321);
  // Odd lengths cover every remainder path of the vector kernels.
  for (const std::int64_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 70}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::int64_t> acc_a(n), acc_b(n), src(n);
    std::vector<std::int32_t> w32(n);
    for (std::int64_t i = 0; i < n; ++i) {
      acc_a[i] = acc_b[i] = rng.next_int(-1000, 1000);
      src[i] = rng.next_int(0, 255);  // activation-code range
      w32[i] = static_cast<std::int32_t>(rng.next_int(-4, 3));
    }
    const std::int64_t w = rng.next_int(-4, 3);
    best.axpy_code_i64(acc_a.data(), src.data(), w, n);
    scalar.axpy_code_i64(acc_b.data(), src.data(), w, n);
    EXPECT_EQ(acc_a, acc_b);
    best.axpy_w32(acc_a.data(), w32.data(), 200, n);
    scalar.axpy_w32(acc_b.data(), w32.data(), 200, n);
    EXPECT_EQ(acc_a, acc_b);
    best.add_i64(acc_a.data(), src.data(), n);
    scalar.add_i64(acc_b.data(), src.data(), n);
    EXPECT_EQ(acc_a, acc_b);

    // The int32 twins, against an exact int64 reference, with elements
    // landing exactly on INT32_MAX / INT32_MIN and products near 2^31.
    for (const std::int32_t a : {-4, 3, 7, -7}) {
      SCOPED_TRACE("a=" + std::to_string(a));
      std::vector<std::int32_t> acc32(n), src32(n), add32(n);
      std::vector<std::int64_t> expect_axpy(n), expect_add(n);
      for (std::int64_t i = 0; i < n; ++i) {
        src32[i] = static_cast<std::int32_t>(
            rng.next_int(0, 2) == 0 ? rng.next_int(0, 255)
                                    : rng.next_int(0, (1 << 28) - 1));
        const std::int64_t product = std::int64_t{a} * src32[i];
        switch (rng.next_int(0, 2)) {
          case 0:  // lands on INT32_MAX (or as close as the sign allows)
            acc32[i] = static_cast<std::int32_t>(
                product >= 0 ? kInt32Max - product : kInt32Max);
            break;
          case 1:  // lands on INT32_MIN
            acc32[i] = static_cast<std::int32_t>(
                product < 0 ? kInt32Min - product : kInt32Min);
            break;
          default:
            acc32[i] = static_cast<std::int32_t>(rng.next_int(-1000, 1000));
        }
        expect_axpy[i] = acc32[i] + product;
        add32[i] = static_cast<std::int32_t>(
            expect_axpy[i] >= 0 ? kInt32Min + 1 + rng.next_int(0, 5)
                                : kInt32Max - rng.next_int(0, 5));
        expect_add[i] = expect_axpy[i] + add32[i];
      }
      for (const common::simd::Kernels* K : {&best, &scalar}) {
        SCOPED_TRACE(K->isa);
        std::vector<std::int32_t> acc = acc32;
        K->axpy_i32(acc.data(), src32.data(), a, n);
        EXPECT_EQ(std::vector<std::int64_t>(acc.begin(), acc.end()),
                  expect_axpy);
        K->add_i32(acc.data(), add32.data(), n);
        EXPECT_EQ(std::vector<std::int64_t>(acc.begin(), acc.end()),
                  expect_add);
      }
    }
  }
}

TEST(Simd, SpikeCounterMatchesPopcount) {
  // Every code at T <= 16, each counted as its own image (one pixel of a
  // batch of 65536), then random 30-bit codes, unweighted and weighted, at
  // batch 1 and interleaved — against std::popcount, in every table.
  constexpr std::int64_t kCodes = 1 << 16;
  std::vector<std::int32_t> codes32(kCodes);
  std::vector<std::int64_t> codes64(kCodes);
  for (std::int64_t c = 0; c < kCodes; ++c) codes32[c] = codes64[c] = c;
  Rng rng(322);
  constexpr std::int64_t kPixels = 257, kMaxBatch = 32;
  std::vector<std::int32_t> wide32(kPixels * kMaxBatch), weight(kPixels);
  for (std::int32_t& v : wide32)
    v = static_cast<std::int32_t>(rng.next_int(0, (1 << 30) - 1));
  for (std::int32_t& v : weight)
    v = static_cast<std::int32_t>(rng.next_int(0, 25));
  const std::vector<std::int64_t> wide64(wide32.begin(), wide32.end());

  for (const common::simd::Kernels* K :
       {&common::simd::kernels(), &common::simd::scalar_kernels()}) {
    SCOPED_TRACE(K->isa);
    std::vector<std::int64_t> per32(kCodes, 0), per64(kCodes, 0);
    K->count_spikes_i32(per32.data(), codes32.data(), nullptr, 1, kCodes);
    K->count_spikes_i64(per64.data(), codes64.data(), nullptr, 1, kCodes);
    for (std::int64_t c = 0; c < kCodes; ++c) {
      const int expected = std::popcount(static_cast<std::uint32_t>(c));
      ASSERT_EQ(per32[c], expected) << "code " << c;
      ASSERT_EQ(per64[c], expected) << "code " << c;
    }

    // Image b of a batch reads every batch-th value; batch 1 is one sum
    // over contiguous codes. Widths around the 8-lane vector cover the
    // whole-vector, remainder and mixed paths.
    const std::int32_t* per_pixel = weight.data();
    for (const std::int64_t batch : {1, 3, 8, 11, 32}) {
      for (const std::int32_t* w :
           {static_cast<const std::int32_t*>(nullptr), per_pixel}) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     (w ? " weighted" : ""));
        std::vector<std::int64_t> expected(batch, 0);
        for (std::int64_t i = 0; i < kPixels; ++i)
          for (std::int64_t b = 0; b < batch; ++b)
            expected[b] += std::int64_t{std::popcount(static_cast<std::uint32_t>(
                               wide32[i * batch + b]))} *
                           (w ? w[i] : 1);
        std::vector<std::int64_t> out32(batch, 0), out64(batch, 0);
        K->count_spikes_i32(out32.data(), wide32.data(), w, kPixels, batch);
        K->count_spikes_i64(out64.data(), wide64.data(), w, kPixels, batch);
        EXPECT_EQ(out32, expected);
        EXPECT_EQ(out64, expected);
      }
    }
  }
}

TEST(Simd, ScopedForceScalarSwitchesDispatch) {
  ASSERT_STREQ(common::simd::scalar_kernels().isa, "scalar");
  const bool was_forced = common::simd::force_scalar_active();
  {
    common::simd::ScopedForceScalar force(true);
    EXPECT_TRUE(common::simd::force_scalar_active());
    EXPECT_STREQ(common::simd::active_isa(), "scalar");
  }
  EXPECT_EQ(common::simd::force_scalar_active(), was_forced);
}

TEST(FastPath, SimdAndScalarDispatchBitIdentical) {
  Rng rng(911);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  for (const PlanVariant& variant : kPlanVariants) {
    SCOPED_TRACE(variant.label);
    AcceleratorConfig cfg = lenet_reference_config();
    cfg.fast_path.layout = variant.layout;
    cfg.fast_path.fuse_conv_pool = variant.fuse;
    const Accelerator accel(cfg, qnet);
    const AccelRunResult vec = accel.run_codes(codes, SimMode::kCycleAccurate);
    common::simd::ScopedForceScalar force(true);
    expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate), vec);
  }
}

// --------------------------------------------------- batched fast path

/// Distinct random images, encoded for `qnet`.
std::vector<TensorI> random_code_batch(const quant::QuantizedNetwork& qnet,
                                       std::size_t count, Rng& rng) {
  std::vector<TensorI> codes;
  codes.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    codes.push_back(quant::encode_activations(
        random_image(qnet.input_shape, rng), qnet.time_bits));
  return codes;
}

/// Batched runs over every prefix size in `batch_sizes` must match the
/// sequential per-image runs record for record — and both must match the
/// stepped dataflow. On the fast path run_codes_into() is the same kernel
/// at batch width 1, so without the stepped reference a sweep that
/// includes B=1 would compare the kernel with itself.
void expect_batched_matches_sequential(
    const Accelerator& accel, const std::vector<TensorI>& codes,
    std::initializer_list<std::size_t> batch_sizes, SimMode mode) {
  Accelerator::WorkerState state = accel.make_worker_state();
  std::vector<AccelRunResult> sequential(codes.size());
  std::vector<AccelRunResult> stepped(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    accel.run_codes_into(state, codes[i], sequential[i], mode);
    stepped[i] = accel.run_codes(state, codes[i], SimMode::kStepped);
  }

  for (const std::size_t batch : batch_sizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ASSERT_LE(batch, codes.size());
    std::vector<AccelRunResult> results(batch);
    accel.run_codes_batched_into(state, codes.data(), batch, results.data(),
                                 mode);
    for (std::size_t b = 0; b < batch; ++b) {
      SCOPED_TRACE("image " + std::to_string(b));
      expect_bit_identical(results[b], sequential[b]);
      expect_bit_identical(results[b], stepped[b]);
    }
  }
}

/// `qnet` with per-channel shifts of both signs on every requantizing conv
/// and linear layer. Left shifts push codes up to 2^T-1, right shifts and
/// negative sums down to 0, so the fast path's finish meets both saturation
/// edges of quant::requantize_value, which the stepped dataflow runs.
quant::QuantizedNetwork with_mixed_channel_frac(quant::QuantizedNetwork qnet) {
  constexpr int kFrac[] = {-2, 3, -1, 0, 5};
  const auto mix = [&](auto& layer, std::int64_t channels) {
    if (!layer.requantize) return;
    layer.channel_frac = TensorI(Shape{channels});
    for (std::int64_t c = 0; c < channels; ++c)
      layer.channel_frac.at_flat(c) = kFrac[c % std::size(kFrac)];
  };
  for (quant::QLayer& layer : qnet.layers) {
    if (auto* conv = std::get_if<quant::QConv2d>(&layer))
      mix(*conv, conv->out_channels);
    else if (auto* fc = std::get_if<quant::QLinear>(&layer))
      mix(*fc, fc->out_features);
  }
  return qnet;
}

TEST(FastPathBatched, LeNetAllPlanVariantsMatchSequential) {
  Rng rng(812);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork per_layer =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(per_layer, 8, rng);

  // Every requantizing layer of the mixed-shift network saturates at both
  // edges on the first image.
  const quant::QuantizedNetwork mixed = with_mixed_channel_frac(per_layer);
  std::vector<TensorI64> outputs;
  mixed.forward_traced(codes[0], &outputs);
  for (std::size_t li = 0; li < mixed.layers.size(); ++li) {
    const quant::QLayer& layer = mixed.layers[li];
    const auto* conv = std::get_if<quant::QConv2d>(&layer);
    const auto* fc = std::get_if<quant::QLinear>(&layer);
    if (!(conv && conv->requantize) && !(fc && fc->requantize)) continue;
    SCOPED_TRACE("layer " + std::to_string(li));
    const TensorI64& out = outputs[li];
    const std::int64_t* first = out.data();
    const std::int64_t* last = first + out.numel();
    EXPECT_EQ(*std::min_element(first, last), 0);
    EXPECT_EQ(*std::max_element(first, last), (1 << mixed.time_bits) - 1);
  }

  for (const auto* qnet : {&per_layer, &mixed}) {
    SCOPED_TRACE(qnet == &mixed ? "mixed-sign channel_frac" : "per-layer frac");
    for (const PlanVariant& variant : kPlanVariants) {
      SCOPED_TRACE(variant.label);
      AcceleratorConfig cfg = lenet_reference_config();
      cfg.fast_path.layout = variant.layout;
      cfg.fast_path.fuse_conv_pool = variant.fuse;
      const Accelerator accel(cfg, *qnet);
      expect_batched_matches_sequential(accel, codes, {1, 3, 8},
                                        SimMode::kCycleAccurate);
    }
  }
}

TEST(FastPathBatched, Vgg11MatchesSequential) {
  Rng rng(814);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);
  const Accelerator accel(vgg11_table3_config(), qnet);
  expect_batched_matches_sequential(accel, codes, {1, 3, 8},
                                    SimMode::kCycleAccurate);
}

TEST(FastPathBatched, SimdAndScalarDispatchBitIdentical) {
  Rng rng(815);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(qnet, 3, rng);
  const Accelerator accel(lenet_reference_config(), qnet);
  Accelerator::WorkerState state = accel.make_worker_state();

  std::vector<AccelRunResult> vec(codes.size());
  accel.run_codes_batched_into(state, codes.data(), codes.size(), vec.data());
  common::simd::ScopedForceScalar force(true);
  std::vector<AccelRunResult> scalar(codes.size());
  accel.run_codes_batched_into(state, codes.data(), codes.size(),
                               scalar.data());
  for (std::size_t b = 0; b < codes.size(); ++b) {
    SCOPED_TRACE("image " + std::to_string(b));
    expect_bit_identical(scalar[b], vec[b]);
  }
}

TEST(FastPathBatched, SteppedModeFallsBackToSequentialLoop) {
  Rng rng(816);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  const std::vector<TensorI> codes = random_code_batch(qnet, 3, rng);
  expect_batched_matches_sequential(accel, codes, {3}, SimMode::kStepped);
}

TEST(FastPathBatched, WarmBatchedInferenceAllocatesNothing) {
#ifdef RSNN_SANITIZERS_ACTIVE
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#else
  Rng rng(817);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork narrow =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  const quant::QuantizedNetwork wide = past_int32(narrow);
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const std::vector<TensorI> codes = random_code_batch(narrow, 8, rng);

  for (const auto& [qnet, word_bits] :
       {std::pair{&narrow, 32}, std::pair{&wide, 64}}) {
    SCOPED_TRACE("word_bits=" + std::to_string(word_bits));
    const Accelerator accel(cfg, *qnet);
    ASSERT_EQ(accel.fast_prepared_shared()->word_bits, word_bits);
    Accelerator::WorkerState state = accel.make_worker_state();
    std::vector<AccelRunResult> results(codes.size());

    // Two warm batches: the first builds the prepared weights and sizes
    // every scratch buffer; the second consolidates the arena's primary
    // chunk.
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    const AccelRunResult warm = results.at(0);

    const std::uint64_t before = common::allocation_count();
    ASSERT_GT(before, 0u) << "allocation hook not linked";
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    const std::uint64_t after = common::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << "warm batched fast-path inference must not touch the heap";
    expect_bit_identical(results.at(0), warm);
  }
#endif
}

// ------------------------------------------------ TaskPool fork/join

TEST(TaskPool, RunsEveryTaskOnItsOwnSlot) {
  common::TaskPool pool(4);
  EXPECT_EQ(pool.slots(), 4u);
  EXPECT_NE(&pool.arena(0), &pool.arena(1));

  std::atomic<int> ran{0};
  int hits[4] = {0, 0, 0, 0};
  auto session = pool.acquire();
  pool.run(4, [&](std::size_t slot) {
    hits[slot] += 1;
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 4);
  for (int slot = 0; slot < 4; ++slot) EXPECT_EQ(hits[slot], 1);

  // Task 0 runs on the calling thread (static slot binding).
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id task0;
  pool.run(2, [&](std::size_t slot) {
    if (slot == 0) task0 = std::this_thread::get_id();
  });
  EXPECT_EQ(task0, caller);
}

TEST(TaskPool, WorkerExceptionsPropagateAndPoolStaysUsable) {
  common::TaskPool pool(3);
  auto session = pool.acquire();
  EXPECT_THROW(pool.run(3,
                        [&](std::size_t slot) {
                          if (slot == 2) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The fork/join still works after a failed round.
  std::atomic<int> ran{0};
  pool.run(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

// ------------------------------------ intra-op parallel batched fast path

/// Batched parallel runs must be bit-identical, image for image, to the
/// sequential batched kernel — same logits, cycles, adder ops and traffic.
/// The thread count partitions the batch into slices; it must never change
/// what is counted.
void expect_parallel_matches_sequential(const AcceleratorConfig& base_cfg,
                                        const quant::QuantizedNetwork& qnet,
                                        const std::vector<TensorI>& codes,
                                        std::initializer_list<int> threads) {
  AcceleratorConfig seq_cfg = base_cfg;
  seq_cfg.fast_path.threads = 1;
  const Accelerator seq(seq_cfg, qnet);
  Accelerator::WorkerState seq_state = seq.make_worker_state();
  std::vector<AccelRunResult> golden(codes.size());
  seq.run_codes_batched_into(seq_state, codes.data(), codes.size(),
                             golden.data());

  for (const int t : threads) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    AcceleratorConfig cfg = base_cfg;
    cfg.fast_path.threads = t;
    const Accelerator par(cfg, qnet);
    Accelerator::WorkerState state = par.make_worker_state();
    std::vector<AccelRunResult> results(codes.size());
    par.run_codes_batched_into(state, codes.data(), codes.size(),
                               results.data());
    for (std::size_t b = 0; b < codes.size(); ++b) {
      SCOPED_TRACE("image " + std::to_string(b));
      expect_bit_identical(results[b], golden[b]);
    }
  }
}

TEST(FastPathParallel, LeNetThreadSweepAllPlanVariantsMatchSequential) {
  Rng rng(901);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);
  const int hc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  for (const PlanVariant& variant : kPlanVariants) {
    SCOPED_TRACE(variant.label);
    AcceleratorConfig cfg = lenet_reference_config();
    cfg.fast_path.layout = variant.layout;
    cfg.fast_path.fuse_conv_pool = variant.fuse;
    // threads=5 leaves a remainder: the batch of 8 splits 2+2+2+1+1, so
    // the uneven-slice bookkeeping is exercised too, and one fork runs both
    // kernel instances — run-time width on the 2-image slices, width 1 on
    // the single-image ones.
    expect_parallel_matches_sequential(cfg, qnet, codes, {1, 2, 5, hc});
  }
}

TEST(FastPathParallel, LeNetScalarDispatchMatchesSequential) {
  Rng rng(902);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(qnet, 6, rng);
  common::simd::ScopedForceScalar force(true);
  for (const PlanVariant& variant : kPlanVariants) {
    SCOPED_TRACE(variant.label);
    AcceleratorConfig cfg = lenet_reference_config();
    cfg.fast_path.layout = variant.layout;
    cfg.fast_path.fuse_conv_pool = variant.fuse;
    expect_parallel_matches_sequential(cfg, qnet, codes, {2, 3});
  }
}

TEST(FastPathParallel, Vgg11ThreadSweepMatchesSequential) {
  Rng rng(903);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const std::vector<TensorI> codes = random_code_batch(qnet, 6, rng);
  const int hc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  expect_parallel_matches_sequential(vgg11_table3_config(), qnet, codes,
                                     {2, 4, hc});
}

TEST(FastPathParallel, WarmParallelBatchedInferenceAllocatesNothing) {
#ifdef RSNN_SANITIZERS_ACTIVE
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#else
  Rng rng(904);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork narrow =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  const quant::QuantizedNetwork wide = past_int32(narrow);
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  cfg.fast_path.threads = 4;
  const std::vector<TensorI> codes = random_code_batch(narrow, 8, rng);

  for (const auto& [qnet, word_bits] :
       {std::pair{&narrow, 32}, std::pair{&wide, 64}}) {
    SCOPED_TRACE("word_bits=" + std::to_string(word_bits));
    const Accelerator accel(cfg, *qnet);
    ASSERT_EQ(accel.fast_prepared_shared()->word_bits, word_bits);
    Accelerator::WorkerState state = accel.make_worker_state();
    std::vector<AccelRunResult> results(codes.size());

    // Two warm batches: the first spins up the shared task pool, builds the
    // prepared weights and sizes every slot arena; the second consolidates
    // the arenas' primary chunks.
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    const AccelRunResult warm = results.at(0);

    const std::uint64_t before = common::allocation_count();
    ASSERT_GT(before, 0u) << "allocation hook not linked";
    accel.run_codes_batched_into(state, codes.data(), codes.size(),
                                 results.data());
    const std::uint64_t after = common::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << "warm parallel batched fast-path inference must not touch the "
           "heap";
    expect_bit_identical(results.at(0), warm);
  }
#endif
}

// -------------------------------------- replica-shared prepared weights

TEST(FastPathShared, AcceleratorsOverSameNetworkShareOnePack) {
  Rng rng(905);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const AcceleratorConfig cfg = lenet_reference_config();
  const Accelerator a(cfg, qnet);
  const Accelerator b(cfg, qnet);

  const std::uint64_t before = fast_prepared_build_count();
  const std::shared_ptr<const FastPrepared> pa = a.fast_prepared_shared();
  const std::shared_ptr<const FastPrepared> pb = b.fast_prepared_shared();
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa.get(), pb.get()) << "replicas must share one prepared pack";
  EXPECT_EQ(fast_prepared_build_count() - before, 1u)
      << "two accelerators over the same program must build exactly once";

  // A different fast-path plan is a different pack: sharing keys on the
  // prepared content, not just the network.
  AcceleratorConfig other = cfg;
  other.fast_path.layout = cfg.fast_path.layout == LayoutPolicy::kForceChw
                               ? LayoutPolicy::kForceHwc
                               : LayoutPolicy::kForceChw;
  const Accelerator c(other, qnet);
  EXPECT_NE(c.fast_prepared_shared().get(), pa.get());
}

TEST(FastPathShared, ServingReplicasReuseTheSharedPack) {
  Rng rng(906);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const ir::LayerProgram program = ir::lower(qnet, lenet_reference_config());
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);

  // Build the pack once up front (and hold it live through `warm`): every
  // replica the pool spins up must then attach to it without building.
  auto warm =
      engine::make_engine(engine::EngineKind::kCycleAccurate, program);
  warm->run_codes(codes[0]);
  const std::uint64_t before = fast_prepared_build_count();

  engine::ServingPoolOptions opts;
  opts.replicas = 2;
  {
    engine::ServingPool pool(program, engine::EngineKind::kCycleAccurate,
                             opts);
    const auto run = pool.run_batch(codes);
    ASSERT_EQ(run.ok_count(), codes.size());
    // Shared prepared weights never blur the results: every served answer
    // matches the warm monolithic engine bit for bit.
    for (std::size_t i = 0; i < codes.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(run.results[i].result.logits,
                warm->run_codes(codes[i]).logits);
    }
  }
  EXPECT_EQ(fast_prepared_build_count(), before)
      << "serving replicas must reuse the shared prepared pack, not rebuild";
}

// ------------------------------------------------ accumulator bound

/// LeNet-5 with every weight and bias set to `value`: with every input code
/// at 2^T-1 each accumulator lands exactly on its worst-case bound.
quant::QuantizedNetwork uniform_lenet(float value, int time_bits) {
  nn::Network lenet = nn::make_lenet5();
  for (nn::Param* param : lenet.params()) param->value.fill(value);
  return quant::quantize(lenet, quant::QuantizeConfig{3, time_bits});
}

TEST(FastPathBound, MaxCodesWithUniformSignWeightsMatchStepped) {
  for (const int T : {4, 8}) {
    for (const float weight : {0.5f, -0.5f}) {
      SCOPED_TRACE("T=" + std::to_string(T) +
                   (weight > 0 ? " positive" : " negative"));
      const quant::QuantizedNetwork qnet = uniform_lenet(weight, T);
      TensorI codes(qnet.input_shape);
      codes.fill((1 << T) - 1);
      const AccelRunResult golden =
          Accelerator(lenet_reference_config(), qnet)
              .run_codes(codes, SimMode::kStepped);
      ASSERT_FALSE(golden.logits.empty());
      // Positive weights drive every layer to max codes, so the raw logits
      // sit exactly on the final layer's worst-case accumulator bound.
      if (weight > 0) {
        const std::int64_t bound =
            network_accumulator_ranges(qnet).back().max_value;
        for (const std::int64_t logit : golden.logits) EXPECT_EQ(logit, bound);
      }

      const std::vector<TensorI> batch(3, codes);
      for (const PlanVariant& variant : kPlanVariants) {
        SCOPED_TRACE(variant.label);
        AcceleratorConfig cfg = lenet_reference_config();
        cfg.fast_path.layout = variant.layout;
        cfg.fast_path.fuse_conv_pool = variant.fuse;
        const Accelerator accel(cfg, qnet);
        expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                             golden);
        Accelerator::WorkerState state = accel.make_worker_state();
        std::vector<AccelRunResult> results(batch.size());
        accel.run_codes_batched_into(state, batch.data(), batch.size(),
                                     results.data());
        for (std::size_t b = 0; b < batch.size(); ++b) {
          SCOPED_TRACE("image " + std::to_string(b));
          expect_bit_identical(results[b], golden);
        }
      }
    }
  }
}

// ------------------------------------------------- proven word width

/// uniform_lenet(0.5, 8) with its final layer's weights given `positive`
/// sign and its biases set so that, with every input code at 2^8-1, each
/// logit lands `past` beyond the int32 edge of that sign — the proven range
/// then ends exactly there too.
quant::QuantizedNetwork lenet_at_int32_edge(bool positive, std::int64_t past) {
  quant::QuantizedNetwork qnet = uniform_lenet(0.5f, 8);
  auto& fc = std::get<quant::QLinear>(qnet.layers.back());
  const std::int64_t code_max = (1 << qnet.time_bits) - 1;
  const std::int64_t edge = positive ? kInt32Max + past : kInt32Min - past;
  for (std::int64_t o = 0; o < fc.out_features; ++o) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < fc.in_features; ++i) {
      std::int32_t& w = fc.weight.data()[o * fc.in_features + i];
      EXPECT_GT(w, 0);
      if (!positive) w = -w;
      sum += w;
    }
    fc.bias.data()[o] = edge - sum * code_max;
  }
  return qnet;
}

TEST(FastPathWord, Int32EdgeNetworksMatchSteppedInBothInstances) {
  struct Case {
    bool positive;
    std::int64_t past;
    int word_bits;
    const char* label;
  };
  constexpr Case kCases[] = {{true, 0, 32, "at INT32_MAX"},
                             {true, 1, 64, "one past INT32_MAX"},
                             {false, 0, 32, "at INT32_MIN"},
                             {false, 1, 64, "one past INT32_MIN"}};
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    const quant::QuantizedNetwork qnet = lenet_at_int32_edge(c.positive, c.past);
    const AccumulatorRange range = network_accumulator_ranges(qnet).back();
    EXPECT_EQ(c.positive ? range.max_value : range.min_value,
              c.positive ? kInt32Max + c.past : kInt32Min - c.past);
    TensorI codes(qnet.input_shape);
    codes.fill((1 << qnet.time_bits) - 1);
    const AccelRunResult golden = Accelerator(lenet_reference_config(), qnet)
                                      .run_codes(codes, SimMode::kStepped);
    for (const std::int64_t logit : golden.logits)
      EXPECT_EQ(logit, c.positive ? range.max_value : range.min_value);

    const std::vector<TensorI> batch(3, codes);
    for (const PlanVariant& variant : kPlanVariants) {
      for (const int threads : {1, 2}) {
        for (const bool force_scalar : {false, true}) {
          SCOPED_TRACE(std::string(variant.label) +
                       " threads=" + std::to_string(threads) +
                       (force_scalar ? " scalar" : " dispatched"));
          common::simd::ScopedForceScalar force(force_scalar);
          AcceleratorConfig cfg = lenet_reference_config();
          cfg.fast_path.layout = variant.layout;
          cfg.fast_path.fuse_conv_pool = variant.fuse;
          cfg.fast_path.threads = threads;
          const Accelerator accel(cfg, qnet);
          EXPECT_EQ(accel.fast_prepared_shared()->word_bits, c.word_bits);
          expect_bit_identical(accel.run_codes(codes), golden);
          Accelerator::WorkerState state = accel.make_worker_state();
          std::vector<AccelRunResult> results(batch.size());
          accel.run_codes_batched_into(state, batch.data(), batch.size(),
                                       results.data());
          for (std::size_t b = 0; b < batch.size(); ++b) {
            SCOPED_TRACE("image " + std::to_string(b));
            expect_bit_identical(results[b], golden);
          }
        }
      }
    }
  }
}

TEST(FastPathWord, PartialSumPastInt32ForcesInt64EvenWhenBiasPullsBack) {
  // One raw 1x1 conv at T = 1 over two inputs: weights 2^30 and 2^30 put
  // the running partial sum at 2^31 — past int32 — while the bias pulls
  // acc + bias back to 2^30. The proof covers partial sums, so that pack
  // must run int64; one less on a weight ends exactly on INT32_MAX.
  for (const std::int32_t second : {(1 << 30) - 1, 1 << 30}) {
    SCOPED_TRACE("second weight " + std::to_string(second));
    quant::QConv2d conv;
    conv.in_channels = 2;
    conv.out_channels = 1;
    conv.kernel = 1;
    conv.weight =
        TensorI(Shape{1, 2, 1, 1}, std::vector<std::int32_t>{1 << 30, second});
    conv.bias = TensorI64(Shape{1});
    conv.bias.data()[0] = -(std::int64_t{1} << 30);
    conv.requantize = false;
    quant::QuantizedNetwork qnet;
    qnet.time_bits = 1;
    qnet.weight_bits = 32;
    qnet.input_shape = Shape{2, 1, 1};
    qnet.layers.emplace_back(conv);

    const Accelerator accel(AcceleratorConfig{}, qnet);
    EXPECT_EQ(accel.fast_prepared_shared()->word_bits,
              second == (1 << 30) ? 64 : 32);
    TensorI codes(qnet.input_shape);
    codes.fill(1);
    const AccelRunResult run = accel.run_codes(codes);
    expect_bit_identical(run, accel.run_codes(codes, SimMode::kStepped));
    ASSERT_EQ(run.logits.size(), 1u);
    EXPECT_EQ(run.logits[0], std::int64_t{second});
  }
}

/// The same program through the int32 instance its pack proved and the
/// int64 instance (the pack with its word widened — always safe): batch 1,
/// the whole batch, and two parallel slices must agree record for record.
void expect_word_instances_agree(const ir::LayerProgram& program,
                                 const std::vector<TensorI>& codes) {
  const FastPrepared narrow = prepare_fast_path(program);
  ASSERT_EQ(narrow.word_bits, 32);
  FastPrepared wide = narrow;
  wide.word_bits = 64;
  common::Arena arena;
  common::TaskPool pool(2);
  for (const std::size_t batch : {std::size_t{1}, codes.size()}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    std::vector<AccelRunResult> a(batch), b(batch), c(batch);
    run_fast_path_batched(program, narrow, arena, codes.data(), batch, 0,
                          program.size(), nullptr, a.data());
    run_fast_path_batched(program, wide, arena, codes.data(), batch, 0,
                          program.size(), nullptr, b.data());
    run_fast_path_batched_parallel(program, wide, pool, codes.data(), batch,
                                   0, program.size(), nullptr, c.data(), 2);
    for (std::size_t i = 0; i < batch; ++i) {
      SCOPED_TRACE("image " + std::to_string(i));
      expect_bit_identical(a[i], b[i]);
      expect_bit_identical(c[i], b[i]);
    }
  }
}

TEST(FastPathWord, BothInstancesBitIdenticalOnLeNetAndVgg) {
  Rng rng(951);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork lenet_q =
      quant::quantize(lenet, quant::QuantizeConfig{3, 8});
  const std::vector<TensorI> lenet_codes = random_code_batch(lenet_q, 5, rng);
  for (const PlanVariant& variant : kPlanVariants) {
    SCOPED_TRACE(variant.label);
    AcceleratorConfig cfg = lenet_reference_config();
    cfg.fast_path.layout = variant.layout;
    cfg.fast_path.fuse_conv_pool = variant.fuse;
    expect_word_instances_agree(ir::lower(lenet_q, cfg), lenet_codes);
  }

  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork vgg_q =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  SCOPED_TRACE("vgg11");
  expect_word_instances_agree(ir::lower(vgg_q, vgg11_table3_config()),
                              random_code_batch(vgg_q, 3, rng));
}

TEST(FastPathWord, Int32WordsHalveArenaBytesPerImage) {
  Rng rng(952);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 8});
  const ir::LayerProgram program = ir::lower(qnet, lenet_reference_config());
  const std::vector<TensorI> codes = random_code_batch(qnet, 32, rng);
  const FastPrepared narrow = prepare_fast_path(program);
  ASSERT_EQ(narrow.word_bits, 32);
  FastPrepared wide = narrow;
  wide.word_bits = 64;

  // Bytes one warm run bumps through its arena, per image.
  const auto bytes_per_image = [&](const FastPrepared& prep) {
    common::Arena arena;
    std::vector<AccelRunResult> results(codes.size());
    for (int rep = 0; rep < 2; ++rep) {
      for (AccelRunResult& r : results) r = AccelRunResult{};
      run_fast_path_batched(program, prep, arena, codes.data(), codes.size(),
                            0, program.size(), nullptr, results.data());
    }
    return static_cast<double>(arena.round_bytes()) /
           static_cast<double>(codes.size());
  };
  const double narrow_bytes = bytes_per_image(narrow);
  const double wide_bytes = bytes_per_image(wide);
  // Only the four per-image int64 counters and block alignment keep the
  // ratio off exactly one half.
  EXPECT_NEAR(narrow_bytes / wide_bytes, 0.5, 0.01)
      << narrow_bytes << " vs " << wide_bytes << " bytes per image";
}

TEST(FastPath, RejectsCodesOutsideTheTBitRange) {
  Rng rng(953);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  TensorI codes(qnet.input_shape);
  codes.fill(15);  // 2^4 - 1: the largest T-bit code
  EXPECT_NO_THROW(accel.run_codes(codes));
  for (const std::int32_t bad : {16, -1, std::numeric_limits<int>::min()}) {
    SCOPED_TRACE("code " + std::to_string(bad));
    codes.data()[7] = bad;
    EXPECT_THROW(accel.run_codes(codes), ContractViolation);
    EXPECT_THROW(accel.run_codes(codes, SimMode::kStepped), ContractViolation);
  }
}

// ------------------------------------------------------- mode plumbing

TEST(FastPath, SteppedEngineIsRegisteredEverywhere) {
  EXPECT_EQ(engine::parse_engine("stepped"), engine::EngineKind::kStepped);
  EXPECT_STREQ(engine::engine_name(engine::EngineKind::kStepped), "stepped");
  bool found = false;
  for (const engine::EngineKind kind : engine::all_engines())
    found = found || kind == engine::EngineKind::kStepped;
  EXPECT_TRUE(found);
}

TEST(FastPath, AutoLayoutPlansPerOp) {
  Rng rng(2024);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const ir::LayerProgram program = ir::lower(qnet, lenet_reference_config());
  for (const ir::LayerOp& op : program.ops()) {
    if (op.kind != ir::OpKind::kConv) {
      EXPECT_FALSE(op.fuse_with_next);  // only conv ops lead a fused pair
      continue;
    }
    const DataLayout expected = op.conv->in_channels >= 8 ? DataLayout::kHwc
                                                          : DataLayout::kChw;
    EXPECT_EQ(op.fast_layout, expected);
  }
}

}  // namespace
}  // namespace rsnn::hw
