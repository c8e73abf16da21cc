// Runtime-dispatched SIMD kernels for the fast path. See simd.hpp for the
// exactness contract and value-range requirements.
//
// The library builds with plain -O2 (no -mavx2, no -mpopcnt), so the AVX2
// and POPCNT bodies are compiled per-function with
// __attribute__((target(...))) and only ever called after
// __builtin_cpu_supports confirms both ISAs. NEON is part
// of the AArch64 baseline, so that variant needs no runtime check.

#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <type_traits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define RSNN_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define RSNN_SIMD_NEON 1
#endif

namespace rsnn::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels (always available; the forced-dispatch target).
// ---------------------------------------------------------------------------

void axpy_code_i64_scalar(std::int64_t* acc, const std::int64_t* src,
                          std::int64_t w, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += w * src[i];
}

void axpy_w32_scalar(std::int64_t* acc, const std::int32_t* w, std::int64_t a,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += a * w[i];
}

void add_i64_scalar(std::int64_t* acc, const std::int64_t* src,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += src[i];
}

void axpy_i32_scalar(std::int32_t* acc, const std::int32_t* src,
                     std::int32_t a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += a * src[i];
}

void add_i32_scalar(std::int32_t* acc, const std::int32_t* src,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += src[i];
}

/// The scalar spike-counting loop (the portable counters and the x86 int64
/// one); `Popcount` is the set-bit count of the caller's ISA. Always
/// inlined, so a caller compiled for POPCNT expands the count to the
/// instruction.
template <class W, class Popcount>
[[gnu::always_inline]] inline void count_spikes_body(
    std::int64_t* out, const W* codes, const std::int32_t* weight,
    std::int64_t n, std::int64_t batch, Popcount popcount) {
  using U = std::make_unsigned_t<W>;
  if (batch == 1) {
    std::int64_t total = 0;
    if (weight == nullptr) {
      for (std::int64_t i = 0; i < n; ++i)
        total += popcount(static_cast<U>(codes[i]));
    } else {
      for (std::int64_t i = 0; i < n; ++i)
        total += std::int64_t{popcount(static_cast<U>(codes[i]))} * weight[i];
    }
    out[0] += total;
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t w = weight == nullptr ? 1 : weight[i];
    if (w == 0) continue;
    const W* px = codes + i * batch;
    for (std::int64_t b = 0; b < batch; ++b)
      out[b] += std::int64_t{popcount(static_cast<U>(px[b]))} * w;
  }
}

struct PortablePopcount {
  template <class U>
  [[gnu::always_inline]] int operator()(U v) const {
    return std::popcount(v);
  }
};

void count_spikes_i64_scalar(std::int64_t* out, const std::int64_t* codes,
                             const std::int32_t* weight, std::int64_t n,
                             std::int64_t batch) {
  count_spikes_body(out, codes, weight, n, batch, PortablePopcount{});
}

void count_spikes_i32_scalar(std::int64_t* out, const std::int32_t* codes,
                             const std::int32_t* weight, std::int64_t n,
                             std::int64_t batch) {
  count_spikes_body(out, codes, weight, n, batch, PortablePopcount{});
}

constexpr Kernels kScalarKernels{axpy_code_i64_scalar,    axpy_w32_scalar,
                                 add_i64_scalar,          axpy_i32_scalar,
                                 add_i32_scalar,          count_spikes_i64_scalar,
                                 count_spikes_i32_scalar, "scalar"};

// ---------------------------------------------------------------------------
// AVX2 kernels. AVX2 has no 64x64 multiply, but every multiplier here fits in
// int32 (see simd.hpp), so _mm256_mul_epi32 — which multiplies the low 32
// bits of each 64-bit lane with sign extension — computes the exact product.
// ---------------------------------------------------------------------------

#if RSNN_SIMD_X86

__attribute__((target("avx2"))) void axpy_code_i64_avx2(
    std::int64_t* acc, const std::int64_t* src, std::int64_t w,
    std::int64_t n) {
  // src[i] is a nonnegative activation code < 2^31 and w fits int32, so the
  // low-32 multiply of each 64-bit lane is the full product.
  const __m256i vw = _mm256_set1_epi64x(w);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    a0 = _mm256_add_epi64(a0, _mm256_mul_epi32(s0, vw));
    a1 = _mm256_add_epi64(a1, _mm256_mul_epi32(s1, vw));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i + 4 <= n; i += 4) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    a = _mm256_add_epi64(a, _mm256_mul_epi32(s, vw));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
  }
  for (; i < n; ++i) acc[i] += w * src[i];
}

__attribute__((target("avx2"))) void axpy_w32_avx2(std::int64_t* acc,
                                                   const std::int32_t* w,
                                                   std::int64_t a,
                                                   std::int64_t n) {
  // |a * w[i]| < 2^31, so the 32-bit low multiply is exact; widen to int64
  // lanes before accumulating.
  const __m128i va = _mm_set1_epi32(static_cast<std::int32_t>(a));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i w0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    __m128i w1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i + 4));
    __m128i p0 = _mm_mullo_epi32(w0, va);
    __m128i p1 = _mm_mullo_epi32(w1, va);
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    a0 = _mm256_add_epi64(a0, _mm256_cvtepi32_epi64(p0));
    a1 = _mm256_add_epi64(a1, _mm256_cvtepi32_epi64(p1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i + 4 <= n; i += 4) {
    __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    __m128i p = _mm_mullo_epi32(wv, va);
    __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    av = _mm256_add_epi64(av, _mm256_cvtepi32_epi64(p));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), av);
  }
  for (; i < n; ++i) acc[i] += a * w[i];
}

__attribute__((target("avx2"))) void add_i64_avx2(std::int64_t* acc,
                                                  const std::int64_t* src,
                                                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi64(a, s));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

__attribute__((target("avx2"))) void axpy_i32_avx2(std::int32_t* acc,
                                                   const std::int32_t* src,
                                                   std::int32_t a,
                                                   std::int64_t n) {
  // 8 lanes per vector: every product and sum fits int32 (the caller's
  // proof), so the 32-bit low multiply and add are exact.
  const __m256i va = _mm256_set1_epi32(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 8));
    a0 = _mm256_add_epi32(a0, _mm256_mullo_epi32(s0, va));
    a1 = _mm256_add_epi32(a1, _mm256_mullo_epi32(s1, va));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 8), a1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    av = _mm256_add_epi32(av, _mm256_mullo_epi32(s, va));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), av);
  }
  for (; i < n; ++i) acc[i] += a * src[i];
}

__attribute__((target("avx2"))) void add_i32_avx2(std::int32_t* acc,
                                                  const std::int32_t* src,
                                                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi32(a, s));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

struct PopcntInstruction {
  [[gnu::always_inline]] int operator()(std::uint64_t v) const {
    return __builtin_popcountll(v);
  }
};

__attribute__((target("popcnt"))) void count_spikes_i64_popcnt(
    std::int64_t* out, const std::int64_t* codes, const std::int32_t* weight,
    std::int64_t n, std::int64_t batch) {
  count_spikes_body(out, codes, weight, n, batch, PopcntInstruction{});
}

/// Set bits of each int32 lane: a nibble lookup per byte, then the four
/// byte counts of each lane summed.
__attribute__((target("avx2"))) inline __m256i popcount_epi32(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i per_byte = _mm256_add_epi8(
      _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nibble)),
      _mm256_shuffle_epi8(lut,
                          _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble)));
  return _mm256_madd_epi16(
      _mm256_maddubs_epi16(per_byte, _mm256_set1_epi8(1)),
      _mm256_set1_epi16(1));
}

/// lo/hi += the 8 int32 lanes of `counts`, widened to int64 and times the
/// int32 `weights` lanes (exact: a 32x32 -> 64-bit multiply).
__attribute__((target("avx2"))) inline void accumulate_counts(
    __m256i counts, __m256i weights, __m256i& lo, __m256i& hi) {
  lo = _mm256_add_epi64(
      lo, _mm256_mul_epi32(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(counts)),
                           _mm256_cvtepi32_epi64(
                               _mm256_castsi256_si128(weights))));
  hi = _mm256_add_epi64(
      hi, _mm256_mul_epi32(
              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(counts, 1)),
              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(weights, 1))));
}

__attribute__((target("avx2,popcnt"))) void count_spikes_i32_avx2(
    std::int64_t* out, const std::int32_t* codes, const std::int32_t* weight,
    std::int64_t n, std::int64_t batch) {
  const __m256i ones = _mm256_set1_epi32(1);
  if (batch == 1) {  // contiguous codes: 8 per vector
    __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i w =
          weight == nullptr
              ? ones
              : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(weight + i));
      accumulate_counts(popcount_epi32(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(codes + i))),
                        w, lo, hi);
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_add_epi64(lo, hi));
    std::int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
      total += std::int64_t{__builtin_popcount(
                   static_cast<std::uint32_t>(codes[i]))} *
               (weight == nullptr ? 1 : weight[i]);
    out[0] += total;
    return;
  }
  // Interleaved: 8 images per vector, one pixel after another; images past
  // the last whole vector are counted one by one.
  std::int64_t b0 = 0;
  for (; b0 + 8 <= batch; b0 += 8) {
    __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t w = weight == nullptr ? 1 : weight[i];
      if (w == 0) continue;
      accumulate_counts(popcount_epi32(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(
                                codes + i * batch + b0))),
                        _mm256_set1_epi32(w), lo, hi);
    }
    __m256i* o = reinterpret_cast<__m256i*>(out + b0);
    _mm256_storeu_si256(o, _mm256_add_epi64(_mm256_loadu_si256(o), lo));
    _mm256_storeu_si256(o + 1,
                        _mm256_add_epi64(_mm256_loadu_si256(o + 1), hi));
  }
  if (b0 == batch) return;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t w = weight == nullptr ? 1 : weight[i];
    for (std::int64_t b = b0; b < batch; ++b)
      out[b] += std::int64_t{__builtin_popcount(
                    static_cast<std::uint32_t>(codes[i * batch + b]))} *
                w;
  }
}

constexpr Kernels kAvx2Kernels{axpy_code_i64_avx2,      axpy_w32_avx2,
                               add_i64_avx2,            axpy_i32_avx2,
                               add_i32_avx2,            count_spikes_i64_popcnt,
                               count_spikes_i32_avx2,   "avx2"};

#endif  // RSNN_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (AArch64 baseline ISA — no runtime detection needed).
// ---------------------------------------------------------------------------

#if RSNN_SIMD_NEON

void axpy_code_i64_neon(std::int64_t* acc, const std::int64_t* src,
                        std::int64_t w, std::int64_t n) {
  // Codes are nonnegative < 2^31 and w fits int32: narrow the 64-bit source
  // lanes to 32 bits, do a widening 32x32 multiply-accumulate.
  const std::int32_t w32 = static_cast<std::int32_t>(w);
  const int32x2_t vw = vdup_n_s32(w32);
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int64x2_t s = vld1q_s64(src + i);
    int64x2_t a = vld1q_s64(acc + i);
    int32x2_t s32 = vmovn_s64(s);
    a = vmlal_s32(a, s32, vw);
    vst1q_s64(acc + i, a);
  }
  for (; i < n; ++i) acc[i] += w * src[i];
}

void axpy_w32_neon(std::int64_t* acc, const std::int32_t* w, std::int64_t a,
                   std::int64_t n) {
  const int32x2_t va = vdup_n_s32(static_cast<std::int32_t>(a));
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int32x2_t wv = vld1_s32(w + i);
    int64x2_t av = vld1q_s64(acc + i);
    av = vmlal_s32(av, wv, va);
    vst1q_s64(acc + i, av);
  }
  for (; i < n; ++i) acc[i] += a * w[i];
}

void add_i64_neon(std::int64_t* acc, const std::int64_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_s64(acc + i, vaddq_s64(vld1q_s64(acc + i), vld1q_s64(src + i)));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

void axpy_i32_neon(std::int32_t* acc, const std::int32_t* src, std::int32_t a,
                   std::int64_t n) {
  const int32x4_t va = vdupq_n_s32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_s32(acc + i, vmlaq_s32(vld1q_s32(acc + i), vld1q_s32(src + i), va));
  for (; i < n; ++i) acc[i] += a * src[i];
}

void add_i32_neon(std::int32_t* acc, const std::int32_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_s32(acc + i, vaddq_s32(vld1q_s32(acc + i), vld1q_s32(src + i)));
  for (; i < n; ++i) acc[i] += src[i];
}

// AArch64's baseline std::popcount is already the CNT instruction, so the
// portable counters are the NEON table's too.
constexpr Kernels kNeonKernels{axpy_code_i64_neon,      axpy_w32_neon,
                               add_i64_neon,            axpy_i32_neon,
                               add_i32_neon,            count_spikes_i64_scalar,
                               count_spikes_i32_scalar, "neon"};

#endif  // RSNN_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const Kernels& best_kernels() {
#if RSNN_SIMD_X86
  static const Kernels* best = [] {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")
               ? &kAvx2Kernels
               : &kScalarKernels;
  }();
  return *best;
#elif RSNN_SIMD_NEON
  return kNeonKernels;
#else
  return kScalarKernels;
#endif
}

// Depth of force-scalar requests: the env knob contributes one permanent
// increment; each live ScopedForceScalar(true) contributes one more.
std::atomic<int>& force_scalar_depth() {
  static std::atomic<int> depth = [] {
    const char* env = std::getenv("RSNN_FORCE_SCALAR");
    return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
  }();
  return depth;
}

}  // namespace

const Kernels& kernels() {
  return force_scalar_depth().load(std::memory_order_relaxed) > 0
             ? kScalarKernels
             : best_kernels();
}

const Kernels& scalar_kernels() { return kScalarKernels; }

const char* detected_isa() { return best_kernels().isa; }

bool force_scalar_active() {
  return force_scalar_depth().load(std::memory_order_relaxed) > 0;
}

ScopedForceScalar::ScopedForceScalar(bool force) : previous_(force) {
  if (force) force_scalar_depth().fetch_add(1, std::memory_order_relaxed);
}

ScopedForceScalar::~ScopedForceScalar() {
  if (previous_) force_scalar_depth().fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace rsnn::common::simd
