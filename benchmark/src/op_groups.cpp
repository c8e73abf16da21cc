#include "op_groups.hpp"

#include <cstdio>

namespace rsnn_bench {

std::vector<OpGroup> group_ops(const std::vector<rsnn::ir::LayerOp>& ops) {
  std::vector<OpGroup> groups;
  for (std::size_t i = 0; i < ops.size();) {
    OpGroup g;
    g.begin = i;
    g.kind = ops[i].name();
    if (ops[i].fuse_with_next && i + 1 < ops.size()) {
      g.kind += std::string("_") + ops[i + 1].name();
      i += 2;
    } else {
      i += 1;
    }
    g.end = i;
    groups.push_back(std::move(g));
  }
  return groups;
}

std::string group_label(const OpGroup& group) {
  char index[16];
  std::snprintf(index, sizeof index, "op%02zu.", group.begin);
  return index + group.kind;
}

}  // namespace rsnn_bench
