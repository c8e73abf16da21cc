#include "engine/submitter.hpp"

#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/pipeline.hpp"

namespace rsnn::engine {
namespace {

/// A monolithic replica: one engine, run inline on the caller's thread.
class EngineSubmitter final : public Submitter {
 public:
  EngineSubmitter(const ir::LayerProgram& program, EngineKind kind,
                  FaultInjector* injector, int replica_index)
      : engine_(make_engine(kind, program)),
        injector_(injector),
        replica_index_(replica_index) {}

  std::vector<hw::AccelRunResult> submit(
      const std::vector<TensorI>& codes) override {
    std::vector<hw::AccelRunResult> results(codes.size());
    if (injector_ == nullptr) {
      // One prepared-weight traversal for the whole dispatch.
      engine_->run_codes_batched_into(codes.data(), codes.size(),
                                      results.data());
      return results;
    }
    // Under injection every image is its own attempt, so seeded fault plans
    // replay against individual inferences; a fault aborts the dispatch.
    for (std::size_t i = 0; i < codes.size(); ++i) {
      injector_->before_attempt(replica_index_);
      engine_->run_codes_into(codes[i], results[i]);
    }
    return results;
  }
  std::string shape() const override { return "monolithic"; }
  int devices() const override { return 1; }

 private:
  const std::unique_ptr<Engine> engine_;
  FaultInjector* const injector_;  ///< optional, shared across the fleet
  const int replica_index_;
};

}  // namespace

std::unique_ptr<Submitter> make_submitter(
    const ir::LayerProgram& program, EngineKind kind,
    const std::vector<ir::ProgramSegment>& segments,
    std::size_t queue_capacity, FaultInjector* injector, int replica_index) {
  if (segments.empty())
    return std::make_unique<EngineSubmitter>(program, kind, injector,
                                             replica_index);
  return std::make_unique<PipelineExecutor>(program, segments, kind,
                                            queue_capacity, injector,
                                            replica_index);
}

}  // namespace rsnn::engine
