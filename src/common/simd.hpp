// SIMD dispatch for the simulator fast path's integer inner loops.
//
// The fast-path kernels (hw/fast_path) spend their time in a few tiny
// integer primitives, each in two word widths — the fast path runs its
// activations and accumulators as int32 when the accumulator bound proves
// that safe and as int64 otherwise:
//   * saxpy over activation codes (`axpy_code_i64`, `axpy_i32`);
//   * saxpy with int32 prepared weights (`axpy_w32` widens into int64
//     accumulators; `axpy_i32` serves the int32 words too);
//   * elementwise accumulation (`add_i64`, `add_i32`);
//   * spike counting — per-image popcount sums over an interleaved batch,
//     optionally weighted per element (`count_spikes_i64`,
//     `count_spikes_i32`).
// This module provides hand-vectorized implementations (AVX2 + POPCNT on
// x86-64, NEON on AArch64) behind one function-pointer table resolved at
// runtime from CPUID, with a portable scalar fallback that is always
// available. The library itself builds for baseline x86-64, where
// std::popcount is a bit-twiddling sequence; the x86 table's counters are
// compiled per function for AVX2 (8 int32 codes per vector, a nibble
// lookup) and POPCNT (int64 codes, vector remainders), and only selected
// when CPUID reports both.
//
// Exactness contract: every implementation computes the same full-precision
// integer arithmetic — SIMD lanes only reorder independent element updates,
// and addition of in-range values is exact — so scalar and vector kernels
// are bit-identical (tests/test_fastpath.cpp asserts this under forced
// dispatch, including values at the int32 edges).
//
// Value ranges:
//   * `axpy_code_i64` requires the source elements and the scalar
//     multiplier to fit in int32 (activation codes are unsigned T-bit
//     values and weights are `weight_bits`-bit signed); `axpy_w32` requires
//     |a * w[i]| to fit in int32.
//   * The int32 kernels require every product and every updated
//     accumulator to fit in int32. The fast path only selects them when
//     hw::prepare_fast_path has proven that for every op: each partial sum
//     lies in [sum(neg w) * (2^T-1), sum(pos w) * (2^T-1)], and every pool
//     window sum, raw-layer `acc + bias` and input code fits too.
//   * The spike counters take nonnegative codes (a count of set bits) and
//     int32 per-element weights; each weighted count must fit in int64.
//
// Dispatch control:
//   * RSNN_FORCE_SCALAR=1 in the environment forces the scalar kernels for
//     the whole process (the CI fallback job runs the suite this way);
//   * ScopedForceScalar flips dispatch from a test, restoring it on scope
//     exit, so one process can compare vector vs scalar results.
#pragma once

#include <cstdint>

namespace rsnn::common::simd {

/// The fast-path primitives, as one dispatch table.
struct Kernels {
  /// acc[i] += w * src[i]. Requires src[i] and w to fit in int32 (the
  /// product is computed exactly in int64).
  void (*axpy_code_i64)(std::int64_t* acc, const std::int64_t* src,
                        std::int64_t w, std::int64_t n);
  /// acc[i] += a * w[i] with int32 weights. Requires |a * w[i]| < 2^31.
  void (*axpy_w32)(std::int64_t* acc, const std::int32_t* w, std::int64_t a,
                   std::int64_t n);
  /// acc[i] += src[i] (exact int64 addition).
  void (*add_i64)(std::int64_t* acc, const std::int64_t* src, std::int64_t n);
  /// acc[i] += a * src[i] in int32 words — the int32 instance's twin of
  /// both axpy kernels. Requires every product and sum to fit in int32.
  void (*axpy_i32)(std::int32_t* acc, const std::int32_t* src, std::int32_t a,
                   std::int64_t n);
  /// acc[i] += src[i] in int32 words. Requires every sum to fit in int32.
  void (*add_i32)(std::int32_t* acc, const std::int32_t* src, std::int64_t n);
  /// Spike counts over an image-minor interleaved run of `n` pixels of
  /// `batch` images: out[b] += sum_i popcount(codes[i * batch + b]) *
  /// weight[i], with weight[i] = 1 when `weight` is null. Codes must be
  /// nonnegative.
  void (*count_spikes_i64)(std::int64_t* out, const std::int64_t* codes,
                           const std::int32_t* weight, std::int64_t n,
                           std::int64_t batch);
  /// count_spikes_i64 over int32 codes.
  void (*count_spikes_i32)(std::int64_t* out, const std::int32_t* codes,
                           const std::int32_t* weight, std::int64_t n,
                           std::int64_t batch);
  /// Name of the instruction set these kernels use: "avx2", "neon", "scalar".
  const char* isa;
};

/// The kernel table the fast path should use right now: the best ISA the
/// CPU supports, unless scalar dispatch is forced (env or scope guard).
const Kernels& kernels();

/// The portable scalar table (always valid; what forced dispatch selects).
const Kernels& scalar_kernels();

/// ISA of the table kernels() currently returns.
inline const char* active_isa() { return kernels().isa; }

/// ISA of the best vector kernels this CPU supports, ignoring any forced-
/// scalar override ("avx2", "neon", or "scalar" when none apply). What the
/// bench metadata records as "detected".
const char* detected_isa();

/// True when dispatch is currently forced to the scalar kernels (the
/// RSNN_FORCE_SCALAR=1 environment knob, or an active ScopedForceScalar).
bool force_scalar_active();

/// RAII override of the dispatch decision, for in-process vector-vs-scalar
/// equivalence tests. Nestable; restores the previous state on destruction.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force);
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

}  // namespace rsnn::common::simd
