// Code-domain fast path of the cycle-accurate simulator.
//
// Radix-encoded layers are *linear over activation codes*: integrating a
// T-step spike train with the left-shift between steps computes exactly
// sum(code * w) (DESIGN invariant 1), so the whole temporal loop of a layer
// collapses to a single integer pass over the codes. The fast path exploits
// that: it computes every op's output codes with dense word-level kernels
// (per-layout loop orders, fused conv+pool passes) and takes the accounting
// from sources that are already proven bit-identical to the stepped
// dataflow:
//
//   * cycles / dram_cycles / memory traffic — the program's latency
//     annotations (DESIGN invariant 4, enforced per-op by the equivalence
//     suite against the stepped units);
//   * adder ops — the exact activity rule of ir::exact_adder_ops, evaluated
//     through prepared per-op coverage tables;
//   * input spikes — popcount of the input codes (== the spike-train count),
//     through the SIMD dispatch table's spike counter (POPCNT on x86-64).
//
// The fast path therefore changes *how* the simulator iterates, never *what*
// it counts: logits, cycles, adder ops and traffic are bit-identical to
// SimMode::kStepped for every layout/fusion plan, which
// tests/test_fastpath.cpp sweeps exhaustively.
//
// One kernel family: every kernel runs over an image-minor interleaved
// batch and is instantiated at compile-time batch width 1 and at a run-time
// width. A single-image run is the width-1 instance of the batch path, not
// a separate code path, and each batch slice picks its instance from its
// own size.
//
// Word width from a proof: the kernels are also templated on the word W
// that holds every activation code and accumulator. prepare_fast_path
// bounds every value the program can produce — each conv/linear partial
// sum ([sum(neg w), sum(pos w)] * (2^T-1), hw::LayerRangeBuilder, fed each
// weight row while it is repacked), the raw final layer's `acc + bias`,
// every pool window sum and the T-bit input codes — and records the word in
// FastPrepared::word_bits: int32 when all of it fits, int64 otherwise. A
// run takes its instance from the pack. The int32 instance halves the
// activation bytes and doubles the SIMD lanes; both instances compute the
// same exact integers, so every result is bit-identical either way. Input
// codes outside [0, 2^T-1] are rejected, as the stepped dataflow does.
//
// Memory model: all intermediate activation buffers are bump-allocated from
// a per-worker common::Arena that is rewound per run — a warm worker
// performs zero heap allocation (tested). Weight repacks and coverage tables
// live in an immutable FastPrepared that shared_fast_prepared() hands out
// process-wide: every Accelerator lowered from the same program, and so
// every replica and worker, reads the same pack.
#pragma once

#include <cstdint>
#include <vector>

#include <cstddef>
#include <memory>

#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "hw/run_result.hpp"
#include "ir/layer_program.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::hw {

/// Immutable per-program preparation: weight repacks in the layouts the plan
/// selected, the adder-op coverage tables, and the proven word width.
/// Indexed by op position.
struct FastPrepared {
  struct OpPrep {
    /// HWC-packed conv weights [ky][kx][Cin][Cout] (conv ops with
    /// fast_layout == kHwc) or the transposed linear weights [in][out]
    /// (linear ops); empty otherwise.
    std::vector<std::int32_t> weights;
    /// Adder ops fired per spike at each position (y * W + x) of an input
    /// plane. Conv ops: the kernel windows it feeds in one output plane.
    /// Pool ops: 1 inside the region the windows cover, 0 outside — and
    /// empty when that region is the whole plane.
    std::vector<std::int32_t> coverage;
  };
  std::vector<OpPrep> ops;
  /// Bits of the activation/accumulator word every kernel runs in: 32 when
  /// prepare_fast_path proved every value of the program fits in int32,
  /// else 64. Setting it to 64 is always safe (and bit-identical).
  int word_bits = 64;
};

/// Build the prepared state for a hardware-lowered program, proving the
/// word width in the same pass over the weights as the repack.
FastPrepared prepare_fast_path(const ir::LayerProgram& program);

/// Process-wide keyed cache over prepare_fast_path(): every Accelerator —
/// and therefore every ServingPool replica and pipeline stage — executing
/// the same lowered program receives one shared immutable pack instead of
/// building a private copy (replicas of a VGG-scale model would otherwise
/// each hold megabytes of identical repacked weights and pay the repack on
/// spin-up). Keyed by program identity: the borrowed QuantizedNetwork, the
/// op range and each op's parameters and planned layout. Entries are weak;
/// a pack dies with its last user and is rebuilt on the next request.
std::shared_ptr<const FastPrepared> shared_fast_prepared(
    const ir::LayerProgram& program);

/// Number of prepare_fast_path() builds performed through the shared cache
/// since process start — an observability hook that lets tests assert the
/// replica-sharing guarantee ("N replicas, one build") by accounting.
std::uint64_t fast_prepared_build_count();

/// Execute ops [begin, end) of `program` on the fast path for `batch`
/// images in one prepared-weight traversal — every weight tile is loaded
/// once and applied to all images before moving on, amortizing the memory
/// traffic that dominates per-image runs. A single image is `batch == 1`.
/// Activations travel interleaved image-minor (`buf[idx * batch + b]`) so
/// the kernels stay dense; scratch comes from `arena` (rewound here).
///
/// `codes` points at `batch` equally-shaped tensors shaped as op `begin`'s
/// input; `results` at `batch` caller-reset results, each filled with its
/// image's per-op stats — logits and counters bit-identical to a stepped
/// run of that image alone (the batch only reorders independent integer
/// updates). Fills `logits` when the range contains the network's final
/// layer; otherwise, when `boundary_codes` is non-null, it must point at
/// `batch` tensors and receives the activation codes crossing the
/// downstream cut.
void run_fast_path_batched(const ir::LayerProgram& program,
                           const FastPrepared& prep, common::Arena& arena,
                           const TensorI* codes, std::size_t batch,
                           std::size_t begin, std::size_t end,
                           TensorI* boundary_codes, AccelRunResult* results);

/// Multi-core variant: the batch splits into at most `threads`
/// contiguous image slices and every op is executed fork/join on `pool` —
/// all slices traverse the same prepared weight pack concurrently, so the
/// taps a slice loads into the shared cache are the taps every other slice
/// needs next. Each slice is the sequential kernel over its sub-range
/// (same code path, its own slot arena), so per-image logits and
/// accounting are bit-identical to run_fast_path_batched() by construction,
/// and warm runs allocate nothing. Degrades to the sequential kernel on
/// pool.arena(0) when fewer than two slices make sense. Acquires the pool
/// for the whole run; concurrent callers serialize.
void run_fast_path_batched_parallel(const ir::LayerProgram& program,
                                    const FastPrepared& prep,
                                    common::TaskPool& pool,
                                    const TensorI* codes, std::size_t batch,
                                    std::size_t begin, std::size_t end,
                                    TensorI* boundary_codes,
                                    AccelRunResult* results,
                                    std::size_t threads);

}  // namespace rsnn::hw
