// PipelineExecutor: execution of a partitioned program across simulated
// accelerator instances — and the one replica shape of the serving pool.
//
// The accelerator is a layer-wise dataflow machine, so a LayerProgram cuts
// cleanly at op boundaries (ir::ProgramSegment). This executor models one
// device per segment: each stage owns its own stage engine — and therefore
// its own pre-allocated execution state (the cycle-accurate stage owns an
// Accelerator::WorkerState) — built once in the constructor. A monolithic
// replica is the one-stage instance over ir::full_segment(program).
//
// Stages run in sequence on the calling thread: each stage runs the whole
// batch in one batched call (Engine::run_codes_batched_into), and the codes
// crossing its downstream cut feed the next stage. The overlap a multi-FPGA
// deployment gets from streaming image i+1 through stage 0 while stage 1
// finishes image i is a property of the hardware, modeled in cycles (the
// serving pool's bottleneck-stage throughput), not host threads: a replica
// costs exactly the one thread that calls run_pipeline().
//
// Results are index-aligned with the submitted batch. Logits are always
// bit-identical to monolithic execution. Timing depends on the segments'
// lowering mode (ir::ProgramSegment):
//   * inherited segments — per-op stats merge to exactly the monolithic
//     cycles / adder ops / traffic (tests/test_pipeline.cpp enforces this
//     for all four engines);
//   * re-lowered segments — each stage runs its own per-device program, so
//     stage cycles reflect the device-local placement and are allowed (and
//     expected) to beat the inherited plan (tests/test_relower.cpp).
//
// Not reentrant: one run_pipeline() at a time per executor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

class FaultInjector;

class PipelineExecutor {
 public:
  /// Builds one stage engine of `kind` per segment; a stage that cannot be
  /// built fails here. `segments` must be a contiguous partition of
  /// `program` (as produced by ir::make_segments, the compiler partitioners,
  /// or {ir::full_segment(program)} for a monolithic replica). When
  /// `injector` is non-null the executor consults it (as replica
  /// `replica_index`) before every image's execution attempt — injected
  /// faults abort the batch and surface as the exception from
  /// run_pipeline(). The program (and its network, and any re-lowered
  /// segment programs) must outlive the executor; so must the injector.
  PipelineExecutor(const ir::LayerProgram& program,
                   std::vector<ir::ProgramSegment> segments, EngineKind kind,
                   FaultInjector* injector = nullptr, int replica_index = 0);

  /// Run a batch of pre-encoded activation codes through every stage;
  /// results are index-aligned with `codes` and carry the merged per-op
  /// stats of every stage plus the final stage's logits. Without an
  /// injector each stage is one batched call over the whole batch (a
  /// one-stage executor is exactly one Engine::run_codes_batched_into);
  /// with one, every image is its own attempt through all stages.
  std::vector<hw::AccelRunResult> run_pipeline(
      const std::vector<TensorI>& codes);

  /// Encode float images (values in [0,1)) and run them.
  std::vector<hw::AccelRunResult> run_pipeline_images(
      const std::vector<TensorF>& images);

  /// Short human-readable replica shape: "monolithic" for one stage,
  /// "pipeline(K)" otherwise.
  std::string shape() const;
  int stages() const { return static_cast<int>(segments_.size()); }
  EngineKind kind() const { return kind_; }
  const std::vector<ir::ProgramSegment>& segments() const { return segments_; }
  /// True when the stages run re-lowered per-device programs.
  bool relowered() const { return segments_.front().is_relowered(); }

 private:
  /// Run `count` images through every stage in order, merging the stages'
  /// stats into `results`.
  void run_stages(const TensorI* codes, std::size_t count,
                  hw::AccelRunResult* results);

  const ir::LayerProgram& program_;
  const std::vector<ir::ProgramSegment> segments_;
  const EngineKind kind_;
  FaultInjector* const injector_;  ///< optional, shared across the fleet
  const int replica_index_;
  std::vector<std::unique_ptr<Engine>> engines_;  ///< one per segment
};

}  // namespace rsnn::engine
