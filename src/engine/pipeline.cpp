#include "engine/pipeline.hpp"

#include <utility>

#include "common/assert.hpp"
#include "engine/fault.hpp"

namespace rsnn::engine {

PipelineExecutor::PipelineExecutor(const ir::LayerProgram& program,
                                   std::vector<ir::ProgramSegment> segments,
                                   EngineKind kind, FaultInjector* injector,
                                   int replica_index)
    : program_(program),
      segments_(std::move(segments)),
      kind_(kind),
      injector_(injector),
      replica_index_(replica_index) {
  RSNN_REQUIRE(program.has_hw_annotations(),
               "pipelining needs a hardware-lowered program");
  RSNN_REQUIRE(!segments_.empty(), "pipeline needs at least one segment");
  RSNN_REQUIRE(segments_.front().begin == 0 &&
                   segments_.back().end == program.size(),
               "segments must cover the whole program");
  for (std::size_t s = 0; s + 1 < segments_.size(); ++s)
    RSNN_REQUIRE(segments_[s].end == segments_[s + 1].begin,
                 "segments must be contiguous (segment " << s << " ends at "
                     << segments_[s].end << ", segment " << s + 1
                     << " begins at " << segments_[s + 1].begin << ")");
  for (std::size_t s = 0; s < segments_.size(); ++s)
    RSNN_REQUIRE(segments_[s].is_relowered() == segments_.front().is_relowered(),
                 "segments mix inherited and re-lowered annotations (segment "
                     << s << " differs from segment 0)");

  engines_.reserve(segments_.size());
  for (const ir::ProgramSegment& segment : segments_)
    engines_.push_back(make_engine(kind_, program_, segment));
}

std::string PipelineExecutor::shape() const {
  return stages() == 1 ? "monolithic"
                       : "pipeline(" + std::to_string(stages()) + ")";
}

void PipelineExecutor::run_stages(const TensorI* codes, std::size_t count,
                                  hw::AccelRunResult* results) {
  const std::size_t last = engines_.size() - 1;
  if (last == 0) {
    engines_[0]->run_codes_batched_into(codes, count, results);
    return;
  }
  std::vector<TensorI> cut_in(count);   // codes entering stage s
  std::vector<TensorI> cut_out(count);  // codes crossing its downstream cut
  std::vector<hw::AccelRunResult> stage_results(count);
  engines_[0]->run_codes_batched_into(codes, count, results, cut_out.data());
  for (std::size_t s = 1; s <= last; ++s) {
    cut_in.swap(cut_out);
    engines_[s]->run_codes_batched_into(cut_in.data(), count,
                                        stage_results.data(),
                                        s == last ? nullptr : cut_out.data());
    for (std::size_t i = 0; i < count; ++i)
      hw::merge_segment_result(results[i], std::move(stage_results[i]));
  }
  const double cycle_ns = program_.config().cycle_ns();
  for (std::size_t i = 0; i < count; ++i)
    hw::finalize_run(results[i], cycle_ns);
}

std::vector<hw::AccelRunResult> PipelineExecutor::run_pipeline(
    const std::vector<TensorI>& codes) {
  std::vector<hw::AccelRunResult> results(codes.size());
  if (codes.empty()) return results;
  if (injector_ == nullptr) {
    run_stages(codes.data(), codes.size(), results.data());
    return results;
  }
  // Under injection every image is its own attempt, so seeded fault plans
  // replay against individual inferences; a fault aborts the batch.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    injector_->before_attempt(replica_index_);
    run_stages(&codes[i], 1, &results[i]);
  }
  return results;
}

std::vector<hw::AccelRunResult> PipelineExecutor::run_pipeline_images(
    const std::vector<TensorF>& images) {
  std::vector<TensorI> codes;
  codes.reserve(images.size());
  const int T = program_.time_bits();
  for (const TensorF& image : images)
    codes.push_back(quant::encode_activations(image, T));
  return run_pipeline(codes);
}

}  // namespace rsnn::engine
