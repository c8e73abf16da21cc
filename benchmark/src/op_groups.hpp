// The units the per-op profile times: one op, or a conv op whose
// LayerOp::fuse_with_next is set together with the op it fuses into (the
// fast path runs the pair as one pass, so only the pair has a host time).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/layer_program.hpp"

namespace rsnn_bench {

struct OpGroup {
  std::size_t begin = 0;  ///< first op index
  std::size_t end = 0;    ///< one past the last op index
  std::string kind;       ///< op kind name, or "<kind>_<kind>" for a pair
};

std::vector<OpGroup> group_ops(const std::vector<rsnn::ir::LayerOp>& ops);

/// "op05.conv_pool": the group's metric stem.
std::string group_label(const OpGroup& group);

}  // namespace rsnn_bench
