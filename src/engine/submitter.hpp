// Submitter: the uniform batch-submission interface a serving replica runs
// behind.
//
// A replica of the serving pool (engine::ServingPool) is one independent copy
// of the accelerator deployment — either a monolithic engine run inline on
// the replica's dispatcher thread, or a PipelineExecutor spreading the
// program's ProgramSegments across K simulated devices. The pool does not
// care which: both implement this interface, so replica shape is a
// construction-time choice (make_submitter) and the admission/dispatch
// machinery is written once against Submitter.
//
// Contract: submit() runs a batch of pre-encoded activation codes end to end
// through the whole program and returns results index-aligned with the input,
// bit-identical to monolithic single-image execution (the engines' own
// equivalence guarantees carry over). Submitters are not reentrant — one
// submit() at a time per instance; the pool gives each replica its own.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

enum class EngineKind;
class FaultInjector;

class Submitter {
 public:
  virtual ~Submitter() = default;

  /// Run a batch of pre-encoded activation codes through the replica;
  /// results are index-aligned with `codes`.
  virtual std::vector<hw::AccelRunResult> submit(
      const std::vector<TensorI>& codes) = 0;

  /// Short human-readable replica shape: "monolithic" or "pipeline(3)".
  virtual std::string shape() const = 0;

  /// Simulated devices this replica occupies (1 for a monolithic replica,
  /// one per stage for a pipelined one).
  virtual int devices() const = 0;
};

/// Build one serving replica over `program`: a PipelineExecutor when
/// `segments` is non-empty (one device and one thread per segment),
/// otherwise a monolithic replica whose engine — built here — runs inline
/// on the thread that calls submit(). Without an injector a monolithic
/// dispatch is one Engine::run_codes_batched_into call; with one, each image
/// is its own attempt. `queue_capacity` bounds the pipeline's inter-stage
/// queues (ignored for monolithic replicas). When `injector` is non-null the
/// replica consults it (as replica `replica_index`) before every image's
/// execution attempt — the fault-injection hook the chaos tests arm. The
/// program — and, for re-lowered segments, the segment vector's shared
/// per-device programs — must outlive the submitter; so must the injector.
std::unique_ptr<Submitter> make_submitter(
    const ir::LayerProgram& program, EngineKind kind,
    const std::vector<ir::ProgramSegment>& segments,
    std::size_t queue_capacity = 4, FaultInjector* injector = nullptr,
    int replica_index = 0);

}  // namespace rsnn::engine
