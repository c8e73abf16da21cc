#include "hw/accumulator_sizing.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::hw {
namespace {

/// Two's-complement bits needed for the inclusive range [lo, hi].
int bits_for_range(std::int64_t lo, std::int64_t hi) {
  int bits = 1;
  while (saturate_signed(lo, bits) != lo || saturate_signed(hi, bits) != hi) {
    ++bits;
    RSNN_ENSURE(bits <= 63);
  }
  return bits;
}

}  // namespace

LayerRangeBuilder::LayerRangeBuilder(int time_steps) {
  RSNN_REQUIRE(time_steps >= 1 && time_steps <= 30);
  code_max_ = (std::int64_t{1} << time_steps) - 1;
}

void LayerRangeBuilder::add_channel(const std::int32_t* weights,
                                    std::int64_t fan_in, std::int64_t bias) {
  // Worst case per output channel: positive weights all firing (max) or
  // negative weights all firing (min) across the receptive field, at every
  // step; the radix accumulation over T steps scales both by (2^T - 1)
  // and the bias is added once. A silent input gives 0, so neg <= 0 <= pos.
  // Sum and magnitude sum instead of a sign test: weight signs are random,
  // so a branch per weight mispredicts across the whole model at set-up.
  std::int64_t sum = 0, magnitude = 0;
  for (std::int64_t i = 0; i < fan_in; ++i) {
    const std::int64_t w = weights[i];
    sum += w;
    magnitude += w < 0 ? -w : w;
  }
  const std::int64_t pos = (sum + magnitude) / 2;
  const std::int64_t neg = (sum - magnitude) / 2;
  range_.partial_min = std::min(range_.partial_min, neg * code_max_);
  range_.partial_max = std::max(range_.partial_max, pos * code_max_);
  range_.min_value = std::min(range_.min_value, neg * code_max_ + bias);
  range_.max_value = std::max(range_.max_value, pos * code_max_ + bias);
}

AccumulatorRange LayerRangeBuilder::range() const {
  // The widest channel's bit count is the bit count of the merged extremes.
  AccumulatorRange r = range_;
  r.required_bits = bits_for_range(r.min_value, r.max_value);
  return r;
}

AccumulatorRange conv_accumulator_range(const quant::QConv2d& conv,
                                        int time_steps) {
  const std::int64_t fan_in = conv.in_channels * conv.kernel * conv.kernel;
  RSNN_REQUIRE(conv.weight.numel() == conv.out_channels * fan_in &&
               conv.bias.numel() == conv.out_channels);
  LayerRangeBuilder builder(time_steps);
  for (std::int64_t oc = 0; oc < conv.out_channels; ++oc)
    builder.add_channel(conv.weight.data() + oc * fan_in, fan_in,
                        conv.bias.data()[oc]);
  return builder.range();
}

AccumulatorRange linear_accumulator_range(const quant::QLinear& fc,
                                          int time_steps) {
  RSNN_REQUIRE(fc.weight.numel() == fc.out_features * fc.in_features &&
               fc.bias.numel() == fc.out_features);
  LayerRangeBuilder builder(time_steps);
  for (std::int64_t o = 0; o < fc.out_features; ++o)
    builder.add_channel(fc.weight.data() + o * fc.in_features,
                        fc.in_features, fc.bias.data()[o]);
  return builder.range();
}

AccumulatorRange pool_range_for_window(std::int64_t window, int time_steps) {
  // Unsigned: up to `window` spikes per step, radix-weighted over T steps.
  AccumulatorRange r;
  r.min_value = 0;
  r.max_value = window * ((std::int64_t{1} << time_steps) - 1);
  r.required_bits = bits_for_range(0, r.max_value);
  return r;
}

AccumulatorRange pool_accumulator_range(const quant::QPool2d& pool,
                                        int time_steps) {
  RSNN_REQUIRE(time_steps >= 1 && time_steps <= 30);
  return pool_range_for_window(pool.kernel * pool.kernel, time_steps);
}

std::vector<AccumulatorRange> network_accumulator_ranges(
    const quant::QuantizedNetwork& qnet) {
  std::vector<AccumulatorRange> ranges;
  ranges.reserve(qnet.layers.size());
  const ir::LayerProgram program = ir::lower(qnet);
  for (const ir::LayerOp& op : program.ops()) {
    switch (op.kind) {
      case ir::OpKind::kConv:
        ranges.push_back(conv_accumulator_range(*op.conv, qnet.time_bits));
        break;
      case ir::OpKind::kLinear:
        ranges.push_back(linear_accumulator_range(*op.linear, qnet.time_bits));
        break;
      case ir::OpKind::kPool:
        ranges.push_back(pool_accumulator_range(*op.pool, qnet.time_bits));
        break;
      case ir::OpKind::kFlatten:
        ranges.push_back(AccumulatorRange{});
        break;
    }
  }
  return ranges;
}

AccumulatorPlan plan_accumulators(const quant::QuantizedNetwork& qnet) {
  AccumulatorPlan plan;
  const ir::LayerProgram program = ir::lower(qnet);
  for (const ir::LayerOp& op : program.ops()) {
    switch (op.kind) {
      case ir::OpKind::kConv:
        plan.conv_bits = std::max(
            plan.conv_bits,
            conv_accumulator_range(*op.conv, qnet.time_bits).required_bits);
        break;
      case ir::OpKind::kLinear:
        plan.linear_bits = std::max(
            plan.linear_bits,
            linear_accumulator_range(*op.linear, qnet.time_bits).required_bits);
        break;
      case ir::OpKind::kPool:
        plan.pool_bits = std::max(
            plan.pool_bits,
            pool_accumulator_range(*op.pool, qnet.time_bits).required_bits);
        break;
      case ir::OpKind::kFlatten:
        break;
    }
  }
  return plan;
}

}  // namespace rsnn::hw
