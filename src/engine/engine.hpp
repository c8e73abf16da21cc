// Engine: uniform execution interface over a lowered ir::LayerProgram.
//
// Four engines run the same program and must agree bit-identically on LeNet
// (logits, cycles, adder ops, traffic — enforced by
// tests/test_equivalence_packed.cpp):
//   * cycle_accurate — the simulator's default exact mode: the code-domain
//     fast path (hw::Accelerator, SimMode::kCycleAccurate). "analytic" is
//     accepted as an alias: the fast path's annotation-derived accounting
//     is the analytic model.
//   * stepped        — the golden stepped dataflow on the bit-true unit
//     simulators (SimMode::kStepped). The anchor the fast path is pinned
//     against.
//   * behavioral     — the functional radix-SNN simulator (snn::RadixSnn):
//     event-driven spikes, no dataflow stepping; timing and traffic come
//     from the program annotations.
//   * reference      — the QuantizedNetwork integer reference model walked
//     directly over the program; timing and traffic from the annotations.
//
// Engines are not thread-safe: each one owns pre-allocated execution state
// (the cycle-accurate engine owns an Accelerator::WorkerState), so use each
// from one thread at a time — a serving replica (engine::PipelineExecutor)
// owns one per stage and runs them all on its own thread.
//
// Segment scope: an engine executes one ir::ProgramSegment — by default the
// whole program, but make_engine(kind, program, segment) builds a stage
// engine over a sub-program for partitioned execution. run_segment() is the
// uniform per-image entry point and run_codes_batched_into() the batched
// one: both consume the activation codes entering the segment and yield
// per-op stats plus either logits (final segment) or the boundary codes
// crossing the downstream cut.
//
// Lifetime: an engine borrows the program (and, through it, the network);
// both must outlive the engine.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

enum class EngineKind { kCycleAccurate, kStepped, kBehavioral, kReference };

/// Canonical engine name: "cycle_accurate" / "stepped" / "behavioral" /
/// "reference".
const char* engine_name(EngineKind kind);

/// Parse an engine name (the canonical names plus the aliases "cycle" and
/// "analytic", both kCycleAccurate); throws ContractViolation on unknown
/// names.
EngineKind parse_engine(const std::string& name);

/// All four engine kinds, for parameterized tests and sweeps.
std::vector<EngineKind> all_engines();

/// What one segment-scoped run produces: the executed ops' stats, and the
/// activation codes crossing the downstream cut (empty on the final
/// segment, whose stats carry the logits instead).
struct SegmentRunResult {
  hw::AccelRunResult stats;
  TensorI boundary_codes;
};

class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual EngineKind kind() const = 0;
  const char* name() const { return engine_name(kind()); }
  const ir::LayerProgram& program() const { return program_; }
  const ir::ProgramSegment& segment() const { return segment_; }

  /// Run the activation codes entering this engine's segment through its op
  /// range (shaped as segment().in_shape).
  virtual SegmentRunResult run_segment(const TensorI& codes) = 0;

  /// Run pre-encoded activation codes through the program. Whole-program
  /// engines only (a stage engine cannot produce logits on its own).
  hw::AccelRunResult run_codes(const TensorI& codes);

  /// Run `count` images through this engine's segment, reusing the
  /// results' storage. When `boundary_codes` is non-null it points at
  /// `count` tensors that receive the codes crossing the downstream cut (an
  /// interior segment's output). The accelerator engines run the batch as
  /// one traversal of the fast-path range kernels (a single image is the
  /// same kernels at batch width 1; the stepped engine loops its dataflow);
  /// the default loops run_segment(). Every results[i] and boundary_codes[i]
  /// is bit-identical to run_segment(codes[i]) either way.
  virtual void run_codes_batched_into(const TensorI* codes, std::size_t count,
                                      hw::AccelRunResult* results,
                                      TensorI* boundary_codes = nullptr);

  /// Encode a float image (values in [0,1)) and run it.
  hw::AccelRunResult run_image(const TensorF& image);

 protected:
  Engine(const ir::LayerProgram& program, ir::ProgramSegment segment)
      : program_(program), segment_(std::move(segment)) {}
  const ir::LayerProgram& program_;
  const ir::ProgramSegment segment_;
};

/// Create an engine of `kind` over a hardware-lowered program.
std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program);

/// Create a stage engine of `kind` scoped to `segment` of `program`.
std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program,
                                    const ir::ProgramSegment& segment);

}  // namespace rsnn::engine
