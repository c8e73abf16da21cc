// Accumulator bit-width sizing.
//
// The paper stores partial sums "at full integer precision"; on an FPGA the
// adder/pipeline width is a synthesis parameter that directly costs LUTs
// and FFs (see resource_model). This analysis computes the exact worst-case
// accumulator range of every layer from the quantized weights:
//
//   per time step, the most positive partial sum is the sum of positive
//   kernel weights over the receptive field (all those inputs spiking) and
//   the most negative is the sum of negative weights; the radix left shift
//   over T steps multiplies both by (2^T - 1); the bias is added once.
//
// The result feeds ConvUnitGeometry::accumulator_bits via the compiler's
// opt-in `size_accumulators` switch, and the same computation (one
// LayerRangeBuilder pass over flat weight rows) is what hw::prepare_fast_path
// uses to prove the simulator's 32-bit datapath safe.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/qnetwork.hpp"

namespace rsnn::hw {

struct AccumulatorRange {
  std::int64_t min_value = 0;  ///< most negative reachable accumulator
  std::int64_t max_value = 0;  ///< most positive reachable accumulator
  int required_bits = 1;       ///< two's-complement bits incl. sign
  /// Extremes of the radix-weighted partial sum before the bias is added
  /// (widest channel): every running sum of the accumulation lies inside
  /// [partial_min, partial_max], whatever order the inputs arrive in.
  std::int64_t partial_min = 0;
  std::int64_t partial_max = 0;
};

/// Folds a layer's output channels into its worst-case range one flat
/// weight row at a time — the single computation behind
/// conv_accumulator_range / linear_accumulator_range and the fast path's
/// word-width proof, which feeds it each row while repacking it.
class LayerRangeBuilder {
 public:
  /// `time_steps` in [1, 30].
  explicit LayerRangeBuilder(int time_steps);

  /// One output channel: its `fan_in` contiguous weights and its bias.
  void add_channel(const std::int32_t* weights, std::int64_t fan_in,
                   std::int64_t bias);

  /// Range over every channel added so far (all zero, 1 bit, for none).
  AccumulatorRange range() const;

 private:
  std::int64_t code_max_;  ///< 2^T - 1: the radix weight of a full train
  AccumulatorRange range_;
};

/// Worst-case range of one convolution layer's output-logic accumulator
/// (includes the T-step radix weighting and the bias).
AccumulatorRange conv_accumulator_range(const quant::QConv2d& conv,
                                        int time_steps);

/// Worst-case range of one fully-connected layer's accumulator.
AccumulatorRange linear_accumulator_range(const quant::QLinear& fc,
                                          int time_steps);

/// Worst-case range of the pooling accumulator (unsigned spike counts).
AccumulatorRange pool_accumulator_range(const quant::QPool2d& pool,
                                        int time_steps);

/// Range per layer, in network order (flatten entries have zero range).
std::vector<AccumulatorRange> network_accumulator_ranges(
    const quant::QuantizedNetwork& qnet);

/// The widest requirement across all conv layers / all linear layers /
/// the pooling path — what the respective unit must be synthesized with.
struct AccumulatorPlan {
  int conv_bits = 1;
  int pool_bits = 1;
  int linear_bits = 1;
};
AccumulatorPlan plan_accumulators(const quant::QuantizedNetwork& qnet);

}  // namespace rsnn::hw
