#include "hw/fast_path.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "hw/accumulator_sizing.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::hw {
namespace {

using common::simd::Kernels;
using quant::QConv2d;
using quant::QLinear;
using quant::QPool2d;

/// Read-only software prefetch into all cache levels. A pure hint: never
/// faults (prefetching past the end of an array is fine) and never changes
/// results, so none of the bit-identity sweeps care about placement.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// How many weight rows ahead the streaming inner loops prefetch. Tuned on an
/// AVX2 Xeon (see README "Threading model"): the win plateaus at 2 rows —
/// the axpy over one row takes long enough to cover one row of load
/// latency, and further distance only risks eviction before use.
/// Smaller than the hardware stride prefetcher's window, but these loops
/// *skip* rows (zero codes, zero weights), which is exactly where the
/// hardware predictor loses the stream.
constexpr std::int64_t kPrefetchRows = 2;

/// Output positions [lo, hi) reached by kernel offset `j` along one axis:
/// those o with 0 <= o*str + j - pad < in_extent. Hoisting the bound out of
/// the inner loops removes every per-tap validity branch.
struct AxisBounds {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

AxisBounds out_bounds(std::int64_t j, std::int64_t pad, std::int64_t str,
                      std::int64_t in_extent, std::int64_t out_extent) {
  const std::int64_t lo_num = pad - j;
  std::int64_t lo = lo_num <= 0 ? 0 : (lo_num + str - 1) / str;
  const std::int64_t hi_num = in_extent - 1 + pad - j;
  std::int64_t hi = hi_num < 0 ? 0 : hi_num / str + 1;
  hi = std::min(hi, out_extent);
  lo = std::min(lo, hi);
  return {lo, hi};
}

// --- One kernel family, four instances -------------------------------------
// Activations travel between ops interleaved image-minor: buf[idx * B + b]
// is element idx (CHW order) of image b. Every kernel below is templated on
// two compile-time parameters:
//   * the batch width kB: kB == 1 is the single-image instance (every
//     per-image loop is one compile-time iteration, and the per-image SIMD
//     calls of length 1 become inline scalar updates), while kB == 0 takes
//     the width from the slice at run time. A slice picks its instance from
//     its own B, so one image is exactly a batch of one;
//   * the word W of every activation and accumulator: int32_t when the
//     prepared pack proved every value of the program fits in int32
//     (FastPrepared::word_bits), int64_t otherwise. The run picks its
//     instance from the pack.

/// Images handled by a kB instance called with run-time width `batch`.
template <int kB>
constexpr std::int64_t width(std::int64_t batch) {
  return kB == 0 ? batch : kB;
}

// The dispatch-table primitive of each word width. The int32 words use one
// axpy for both the code-major (CHW) and the weight-row (HWC, linear) loops.

inline void axpy_codes(const Kernels& K, std::int64_t* acc,
                       const std::int64_t* src, std::int64_t w,
                       std::int64_t n) {
  K.axpy_code_i64(acc, src, w, n);
}
inline void axpy_codes(const Kernels& K, std::int32_t* acc,
                       const std::int32_t* src, std::int32_t w,
                       std::int64_t n) {
  K.axpy_i32(acc, src, w, n);
}
inline void axpy_weights(const Kernels& K, std::int64_t* acc,
                         const std::int32_t* w, std::int64_t a,
                         std::int64_t n) {
  K.axpy_w32(acc, w, a, n);
}
inline void axpy_weights(const Kernels& K, std::int32_t* acc,
                         const std::int32_t* w, std::int32_t a,
                         std::int64_t n) {
  K.axpy_i32(acc, w, a, n);
}
inline void add_words(const Kernels& K, std::int64_t* acc,
                      const std::int64_t* src, std::int64_t n) {
  K.add_i64(acc, src, n);
}
inline void add_words(const Kernels& K, std::int32_t* acc,
                      const std::int32_t* src, std::int64_t n) {
  K.add_i32(acc, src, n);
}
inline void count_spikes(const Kernels& K, std::int64_t* out,
                         const std::int64_t* codes, const std::int32_t* weight,
                         std::int64_t n, std::int64_t batch) {
  K.count_spikes_i64(out, codes, weight, n, batch);
}
inline void count_spikes(const Kernels& K, std::int64_t* out,
                         const std::int32_t* codes, const std::int32_t* weight,
                         std::int64_t n, std::int64_t batch) {
  K.count_spikes_i32(out, codes, weight, n, batch);
}

/// acc[b] += w * src[b] over one pixel's B images.
template <int kB, class W>
void axpy_pixel(const Kernels& K, W* acc, const W* src, W w,
                std::int64_t batch) {
  if constexpr (kB == 0) {
    axpy_codes(K, acc, src, w, batch);
  } else {
    for (std::int64_t b = 0; b < kB; ++b) acc[b] += w * src[b];
  }
}

/// acc[b] += src[b] over one pixel's B images.
template <int kB, class W>
void add_pixel(const Kernels& K, W* acc, const W* src, std::int64_t batch) {
  if constexpr (kB == 0) {
    add_words(K, acc, src, batch);
  } else {
    for (std::int64_t b = 0; b < kB; ++b) acc[b] += src[b];
  }
}

// --- Per-image counters ----------------------------------------------------
// Each counter accumulates into a per-image slot, so every image's stats are
// exactly those of its own run whatever batch it shares. The popcounts run
// in the dispatch table's spike counter, one call per plane.

/// Input spikes of every image: popcount of all `n` codes.
template <int kB, class W>
void spikes_per_image(const Kernels& K, const W* buf, std::int64_t n,
                      std::int64_t batch, std::int64_t* out) {
  const std::int64_t B = width<kB>(batch);
  std::fill(out, out + B, std::int64_t{0});
  count_spikes(K, out, buf, nullptr, n, B);
}

/// exact_adder_ops of a conv or pool op, via its prepared coverage table: a
/// spike at plane position p fires coverage[p] adders per output plane
/// (`planes_out` of them for a conv, one for a pool). An empty table means
/// every position counts once.
template <int kB, class W>
void adder_ops_per_image(const Kernels& K, const W* in, std::int64_t planes,
                         std::int64_t plane_size,
                         const std::vector<std::int32_t>& coverage,
                         std::int64_t planes_out, std::int64_t batch,
                         std::int64_t* out) {
  const std::int64_t B = width<kB>(batch);
  std::fill(out, out + B, std::int64_t{0});
  const std::int32_t* weight = coverage.empty() ? nullptr : coverage.data();
  for (std::int64_t c = 0; c < planes; ++c)
    count_spikes(K, out, in + c * plane_size * B, weight, plane_size, B);
  for (std::int64_t b = 0; b < B; ++b) out[b] *= planes_out;
}

// --- Conv kernels, CHW -----------------------------------------------------

/// One conv output channel in CHW order: accumulate into acc[oh*ow*B], then
/// the caller requantizes in place. Taps iterate (ic, ky, kx)-outer so the
/// inner loop is contiguous, and zero weights (common at 3-bit resolution)
/// skip their whole plane pass. With stride 1 consecutive output pixels read
/// consecutive interleaved input pixels, so a whole row segment of all B
/// images is ONE SIMD axpy of length (hi-lo)*B — the weight is loaded once
/// for the entire batch row.
template <int kB, class W>
void conv_channel_chw_batched(const QConv2d& conv, const W* in,
                              std::int64_t ih, std::int64_t iw, std::int64_t oh,
                              std::int64_t ow, std::int64_t oc,
                              std::int64_t batch, const Kernels& K, W* acc) {
  const std::int64_t B = width<kB>(batch);
  std::fill(acc, acc + oh * ow * B, W{0});
  const std::int64_t k = conv.kernel, str = conv.stride, pad = conv.padding;
  const std::int32_t* wbase =
      conv.weight.data() + oc * conv.in_channels * k * k;
  for (std::int64_t ic = 0; ic < conv.in_channels; ++ic) {
    const W* plane = in + ic * ih * iw * B;
    const std::int32_t* wch = wbase + ic * k * k;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const AxisBounds by = out_bounds(ky, pad, str, ih, oh);
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const W w = wch[ky * k + kx];
        if (w == 0) continue;
        const AxisBounds bx = out_bounds(kx, pad, str, iw, ow);
        const std::int64_t x0 = kx - pad;
        for (std::int64_t oy = by.lo; oy < by.hi; ++oy) {
          const W* row = plane + (oy * str + ky - pad) * iw * B;
          W* arow = acc + (oy * ow + bx.lo) * B;
          prefetch_ro(row + str * iw * B);  // next oy's input row
          if (str == 1) {
            axpy_codes(K, arow, row + (x0 + bx.lo) * B, w,
                       (bx.hi - bx.lo) * B);
          } else {
            for (std::int64_t ox = bx.lo; ox < bx.hi; ++ox, arow += B)
              axpy_pixel<kB>(K, arow, row + (x0 + ox * str) * B, w, B);
          }
        }
      }
    }
  }
}

/// Finish `count` accumulators of output channel `oc` of a conv or linear
/// layer in place, `stride` words apart: quant::requantize_value (bias, shift
/// by the channel's frac, saturate to a T-bit code) or, for the raw final
/// layer, `acc + bias`. Every fast-path finish runs through here: a CHW conv
/// plane (stride 1; the transform is identical for every image, so it runs
/// unchanged over an interleaved plane) and one channel of the B images of
/// an HWC conv pixel or a linear layer ([B][Cout] blocks, stride Cout). The
/// shift direction and the saturation bound are resolved once per channel,
/// and negatives clamp without a branch on the sign (about half of all conv
/// outputs are negative, so a branch there mispredicts constantly). The
/// arithmetic is int64; the result fits W (a T-bit code, or a raw
/// `acc + bias` inside the proven range).
template <class W, class Layer>
void finish_channel(const Layer& layer, std::int64_t oc, int time_bits,
                    W* acc, std::int64_t count, std::int64_t stride = 1) {
  const std::int64_t bias = layer.bias.data()[oc];
  const std::int64_t end = count * stride;
  if (!layer.requantize) {
    for (std::int64_t i = 0; i < end; i += stride)
      acc[i] = static_cast<W>(acc[i] + bias);
    return;
  }
  const int frac = layer.frac_for(oc);
  const std::int64_t code_max = (std::int64_t{1} << time_bits) - 1;
  const auto saturate = [code_max](std::int64_t v) {
    v &= ~(v >> 63);  // negative -> 0
    return static_cast<W>(v > code_max ? code_max : v);
  };
  if (frac >= 0) {
    for (std::int64_t i = 0; i < end; i += stride)
      acc[i] = saturate((acc[i] + bias) >> frac);
  } else {
    for (std::int64_t i = 0; i < end; i += stride)
      acc[i] = saturate((acc[i] + bias) << -frac);
  }
}

// --- Conv kernels, HWC -----------------------------------------------------

/// Byte budget for one repacked HWC input strip. Sized to sit inside L2 so
/// the repack is written once and every kernel-window read after it hits
/// cache; VGG-scale inputs (e.g. 64ch × 224² ≈ 26 MB as int64) are repacked
/// strip by strip instead of whole.
constexpr std::int64_t kHwcTileBytes = 256 * 1024;

/// Output rows per HWC strip: as many as keep the strip's input rows
/// ((strip-1)*stride + k of them, `word_bytes` per value) under the tile
/// budget, at least 1.
std::int64_t hwc_strip_height(std::int64_t iw, std::int64_t cin,
                              std::int64_t batch, std::int64_t word_bytes,
                              std::int64_t k, std::int64_t str,
                              std::int64_t oh) {
  const std::int64_t row_bytes = iw * cin * batch * word_bytes;
  std::int64_t rows = kHwcTileBytes / std::max<std::int64_t>(row_bytes, 1);
  if (rows < k) rows = k;
  const std::int64_t strip = (rows - k) / str + 1;
  return std::clamp<std::int64_t>(strip, 1, oh);
}

/// Whole conv layer in HWC order, writing finished codes to
/// out_hwcb[oh*ow][B][Cout] (contiguous per image). The input is repacked
/// CHW -> [row][x][Cin][B] one output-row strip at a time (the strip stays
/// cache-resident; halo rows between strips are repacked twice). Per output
/// pixel an acc[B][Cout] block accumulates with the prepared
/// [ky][kx][Cin][Cout] weights, so each weight row is applied to every image
/// while it is hot in cache; zero activations (spike sparsity) are skipped
/// and the contiguous output-channel loop goes to the SIMD dispatch table.
/// The block is finished channel by channel and copied out. (Accumulating
/// in the output block itself read 20% slower per LeNet-5 batch of 32 in
/// one build and equal in another, so the scratch block stays.)
template <int kB, class W>
void conv_hwc_batched(const QConv2d& conv, const W* in, std::int64_t ih,
                      std::int64_t iw, std::int64_t oh, std::int64_t ow,
                      const std::int32_t* whwc, int time_bits,
                      std::int64_t batch, const Kernels& K,
                      common::Arena& arena, W* out_hwcb) {
  const std::int64_t B = width<kB>(batch);
  const std::int64_t cin = conv.in_channels, cout = conv.out_channels;
  const std::int64_t k = conv.kernel, str = conv.stride, pad = conv.padding;

  const std::int64_t strip_oh =
      hwc_strip_height(iw, cin, B, sizeof(W), k, str, oh);
  const std::int64_t rows_cap = std::min(ih, (strip_oh - 1) * str + k);
  W* tile = arena.alloc<W>(rows_cap * iw * cin * B);
  W* acc = arena.alloc<W>(B * cout);

  for (std::int64_t oy0 = 0; oy0 < oh; oy0 += strip_oh) {
    const std::int64_t oy1 = std::min(oh, oy0 + strip_oh);
    const std::int64_t ty0 = std::max<std::int64_t>(0, oy0 * str - pad);
    const std::int64_t ty1 =
        std::max(ty0, std::min(ih, (oy1 - 1) * str + k - pad));
    for (std::int64_t c = 0; c < cin; ++c) {
      for (std::int64_t iy = ty0; iy < ty1; ++iy) {
        const W* srow = in + ((c * ih + iy) * iw) * B;
        for (std::int64_t ix = 0; ix < iw; ++ix)
          std::memcpy(tile + (((iy - ty0) * iw + ix) * cin + c) * B,
                      srow + ix * B, static_cast<std::size_t>(B) * sizeof(W));
      }
    }
    for (std::int64_t oy = oy0; oy < oy1; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::fill(acc, acc + B * cout, W{0});
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * str + ky - pad;
          if (iy < 0 || iy >= ih) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * str + kx - pad;
            if (ix < 0 || ix >= iw) continue;
            const W* px = tile + ((iy - ty0) * iw + ix) * cin * B;
            const std::int32_t* wk = whwc + (ky * k + kx) * cin * cout;
            for (std::int64_t ic = 0; ic < cin; ++ic) {
              const std::int32_t* wrow = wk + ic * cout;
              const W* a_b = px + ic * B;
              // [cin][cout] rows are contiguous across taps, so the
              // prefetch rolls into the next tap's tile at block ends.
              prefetch_ro(wrow + kPrefetchRows * cout);
              for (std::int64_t b = 0; b < B; ++b) {
                const W a = a_b[b];
                if (a == 0) continue;
                axpy_weights(K, acc + b * cout, wrow, a, cout);
              }
            }
          }
        }
        for (std::int64_t oc = 0; oc < cout; ++oc)
          finish_channel(conv, oc, time_bits, acc + oc, B, cout);
        std::memcpy(out_hwcb + (oy * ow + ox) * B * cout, acc,
                    static_cast<std::size_t>(B * cout) * sizeof(W));
      }
    }
  }
}

// --- Pool kernel -----------------------------------------------------------

/// Average-pool one interleaved CHW plane, mirroring quant pool_forward:
/// window sum then arithmetic right shift. Each window tap is an
/// elementwise add of all B images' pixels. `acc` is caller scratch of B.
template <int kB, class W>
void pool_plane_batched(const W* plane, std::int64_t iw, std::int64_t k,
                        int shift, std::int64_t oh, std::int64_t ow,
                        std::int64_t batch, const Kernels& K, W* acc, W* out) {
  const std::int64_t B = width<kB>(batch);
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      std::fill(acc, acc + B, W{0});
      const W* win = plane + (oy * k * iw + ox * k) * B;
      for (std::int64_t ky = 0; ky < k; ++ky)
        for (std::int64_t kx = 0; kx < k; ++kx)
          add_pixel<kB>(K, acc, win + (ky * iw + kx) * B, B);
      W* o = out + (oy * ow + ox) * B;
      for (std::int64_t b = 0; b < B; ++b) o[b] = acc[b] >> shift;
    }
  }
}

// --- Linear kernel ---------------------------------------------------------

/// Linear layer with the prepared transposed weights [in][out]: zero input
/// codes (no spikes) skip their weight row; live rows are one contiguous
/// SIMD axpy over the output features into a per-image accumulator row
/// ([B][nout]), so the weight matrix is streamed once per batch. The rows
/// are re-interleaved image-minor into `out`; a single image accumulates
/// straight into `out`, whose layout is then the same.
template <int kB, class W>
void linear_fast_batched(const QLinear& fc, const W* in,
                         const std::int32_t* wt, int time_bits,
                         std::int64_t batch, const Kernels& K,
                         common::Arena& arena, W* out) {
  const std::int64_t B = width<kB>(batch);
  const std::int64_t nin = fc.in_features, nout = fc.out_features;
  W* acc = kB == 1 ? out : arena.alloc<W>(B * nout);
  std::fill(acc, acc + B * nout, W{0});
  for (std::int64_t i = 0; i < nin; ++i) {
    const W* px = in + i * B;
    const std::int32_t* wrow = wt + i * nout;
    prefetch_ro(wrow + kPrefetchRows * nout);
    for (std::int64_t b = 0; b < B; ++b) {
      const W a = px[b];
      if (a == 0) continue;
      axpy_weights(K, acc + b * nout, wrow, a, nout);
    }
  }
  for (std::int64_t o = 0; o < nout; ++o)
    finish_channel(fc, o, time_bits, acc + o, B, nout);
  if constexpr (kB != 1)
    for (std::int64_t b = 0; b < B; ++b)
      for (std::int64_t o = 0; o < nout; ++o)
        out[o * B + b] = acc[b * nout + o];
}

/// Annotation-derived skeleton of one op's stats (name, cycles, traffic);
/// adder_ops and input_spikes are filled by the caller.
LayerStats annotated_stats(const ir::LayerOp& op) {
  LayerStats stats;
  stats.name = op.name();
  stats.cycles = op.latency.total_cycles;
  stats.dram_cycles = op.latency.dram_cycles;
  stats.traffic = op.latency.traffic;
  return stats;
}

/// True when every value of [lo, hi] is an int32.
bool fits_i32(std::int64_t lo, std::int64_t hi) {
  return lo >= std::numeric_limits<std::int32_t>::min() &&
         hi <= std::numeric_limits<std::int32_t>::max();
}

/// The int32 words hold a conv/linear op when every running partial sum
/// does and, for the raw final layer, `acc + bias` does too (a requantized
/// layer shifts and saturates in int64 before narrowing to a T-bit code).
bool layer_fits_i32(const AccumulatorRange& r, bool requantize) {
  return fits_i32(r.partial_min, r.partial_max) &&
         (requantize || fits_i32(r.min_value, r.max_value));
}

/// Feed every weight row (one output channel: `fan_in` weights, its bias)
/// to `range`, and — when `dst` is non-null — scatter it output-channel-
/// minor: element j of row r lands at dst[dst_row[j] * rows + r]. Rows go
/// in blocks of 16, so the block's source rows stay cached between the
/// range pass and the scatter, and each destination line is written whole
/// instead of one strided store per cache miss.
void fold_and_repack(const std::int32_t* w, const std::int64_t* bias,
                     std::int64_t rows, std::int64_t fan_in,
                     const std::vector<std::int64_t>& dst_row,
                     LayerRangeBuilder& range, std::int32_t* dst) {
  constexpr std::int64_t kBlock = 16;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::int64_t r1 = std::min(rows, r0 + kBlock);
    for (std::int64_t r = r0; r < r1; ++r)
      range.add_channel(w + r * fan_in, fan_in, bias[r]);
    if (dst == nullptr) continue;
    for (std::int64_t j = 0; j < fan_in; ++j) {
      std::int32_t* d = dst + dst_row[static_cast<std::size_t>(j)] * rows;
      for (std::int64_t r = r0; r < r1; ++r) d[r] = w[r * fan_in + j];
    }
  }
}

}  // namespace

FastPrepared prepare_fast_path(const ir::LayerProgram& program) {
  FastPrepared prep;
  prep.ops.resize(program.size());
  const int T = program.time_bits();
  // The word-width proof rides along the repack: each block of weight rows
  // is fed to the accumulator bound right before it is scattered, so
  // proving costs no extra trip to memory. Input codes are T-bit.
  bool fits = fits_i32(0, (std::int64_t{1} << T) - 1);
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ir::LayerOp& op = program.op(i);
    FastPrepared::OpPrep& p = prep.ops[i];
    if (op.kind == ir::OpKind::kConv) {
      const QConv2d& conv = *op.conv;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      const std::int64_t k = conv.kernel;
      const std::int64_t cin = conv.in_channels, cout = conv.out_channels;
      // A spike at (y, x) feeds the product of its two axis coverages in
      // kernel windows (ir::exact_adder_ops's rule).
      p.coverage.resize(static_cast<std::size_t>(ih * iw));
      for (std::int64_t y = 0; y < ih; ++y) {
        const std::int64_t cy =
            ir::axis_coverage(y, k, conv.stride, conv.padding, oh);
        for (std::int64_t x = 0; x < iw; ++x)
          p.coverage[static_cast<std::size_t>(y * iw + x)] =
              static_cast<std::int32_t>(
                  cy * ir::axis_coverage(x, k, conv.stride, conv.padding, ow));
      }
      // HWC repack: weight (ic, ky, kx) of every output channel goes to
      // row (ky, kx, ic) of [ky][kx][Cin][Cout].
      const std::int64_t fan_in = cin * k * k;
      std::vector<std::int64_t> dst_row;
      if (op.fast_layout == DataLayout::kHwc) {
        p.weights.resize(static_cast<std::size_t>(fan_in * cout));
        dst_row.resize(static_cast<std::size_t>(fan_in));
        for (std::int64_t ic = 0; ic < cin; ++ic)
          for (std::int64_t ky = 0; ky < k; ++ky)
            for (std::int64_t kx = 0; kx < k; ++kx)
              dst_row[static_cast<std::size_t>((ic * k + ky) * k + kx)] =
                  (ky * k + kx) * cin + ic;
      }
      LayerRangeBuilder range(T);
      fold_and_repack(conv.weight.data(), conv.bias.data(), cout, fan_in,
                      dst_row, range,
                      p.weights.empty() ? nullptr : p.weights.data());
      fits = fits && layer_fits_i32(range.range(), conv.requantize);
    } else if (op.kind == ir::OpKind::kLinear) {
      // Transposed to [in][out].
      const QLinear& fc = *op.linear;
      const std::int64_t nin = fc.in_features, nout = fc.out_features;
      p.weights.resize(static_cast<std::size_t>(nin * nout));
      std::vector<std::int64_t> dst_row(static_cast<std::size_t>(nin));
      for (std::int64_t in = 0; in < nin; ++in)
        dst_row[static_cast<std::size_t>(in)] = in;
      LayerRangeBuilder range(T);
      fold_and_repack(fc.weight.data(), fc.bias.data(), nout, nin, dst_row,
                      range, p.weights.data());
      fits = fits && layer_fits_i32(range.range(), fc.requantize);
    } else if (op.kind == ir::OpKind::kPool) {
      const QPool2d& pool = *op.pool;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      // Spikes inside the covered region (y < oh*k, x < ow*k) each fire one
      // adder; the table stays empty when that region is the whole plane.
      const std::int64_t cy = op.out_shape.dim(1) * pool.kernel;
      const std::int64_t cx = op.out_shape.dim(2) * pool.kernel;
      if (cy < ih || cx < iw) {
        p.coverage.resize(static_cast<std::size_t>(ih * iw));
        for (std::int64_t y = 0; y < ih; ++y)
          for (std::int64_t x = 0; x < iw; ++x)
            p.coverage[static_cast<std::size_t>(y * iw + x)] =
                y < cy && x < cx ? 1 : 0;
      }
      fits = fits && fits_i32(0, pool_accumulator_range(pool, T).max_value);
    }
  }
  prep.word_bits = fits ? 32 : 64;
  return prep;
}

// --- Slice execution --------------------------------------------------------
//
// A "slice" is a contiguous sub-range of the batch with its own arena,
// image-minor interleaved activation buffer and per-image counter scratch.
// The sequential entry runs ONE slice covering the whole batch (a single
// image is a slice of one); the parallel driver seats one slice per
// task-pool slot and fork/joins every step. Both therefore execute the same
// per-slice code on the same prepared pack — the parallel path's per-image
// bit-identity is structural, not re-proven arithmetic.
namespace {

template <class W>
struct BatchSlice {
  common::Arena* arena = nullptr;
  std::int64_t B = 0;                 ///< images in this slice
  const TensorI* codes = nullptr;     ///< B input tensors
  AccelRunResult* results = nullptr;  ///< B caller-reset results
  TensorI* boundary = nullptr;        ///< B boundary tensors, or nullptr
  W* cur = nullptr;                   ///< interleaved activations cur[i*B+b]
  std::int64_t* spikes = nullptr;     ///< per-image counter scratch (4x B)
  std::int64_t* adder = nullptr;
  std::int64_t* pool_spikes = nullptr;
  std::int64_t* pool_covered = nullptr;
};

/// Ops consumed by the step starting at `li`: 2 for a fused conv+pool pair
/// lying entirely inside the executed range, else 1 — a conv at a segment
/// cut runs unfused so the boundary codes stay its own. A property of the
/// program alone — every slice of a batch steps through ops identically,
/// which is what lets the parallel driver advance all slices in lockstep.
std::size_t ops_consumed(const ir::LayerProgram& program, std::size_t li,
                         std::size_t end) {
  const ir::LayerOp& op = program.op(li);
  const bool fuse =
      op.kind == ir::OpKind::kConv && op.fuse_with_next && li + 1 < end;
  return fuse ? 2 : 1;
}

/// Rewind the slice's arena and stage its inputs: counter scratch first (so
/// the arena round is stable), then the interleaved activation buffer. The
/// input codes must be T-bit — the range the word-width proof assumed, and
/// what the stepped dataflow's spike encoder requires too.
template <int kB, class W>
void init_slice(int T, std::size_t begin, std::size_t end,
                BatchSlice<W>& s) {
  common::Arena& arena = *s.arena;
  arena.reset();
  const std::int64_t B = width<kB>(s.B);
  for (std::int64_t b = 0; b < B; ++b) s.results[b].layers.reserve(end - begin);

  s.spikes = arena.alloc<std::int64_t>(B);
  s.adder = arena.alloc<std::int64_t>(B);
  s.pool_spikes = arena.alloc<std::int64_t>(B);
  s.pool_covered = arena.alloc<std::int64_t>(B);

  const std::int64_t n_in = s.codes[0].numel();
  for (std::int64_t b = 0; b < B; ++b)
    RSNN_REQUIRE(s.codes[b].numel() == n_in,
                 "batched input codes must share one shape");
  s.cur = arena.alloc<W>(n_in * B);
  // Interleave in blocks of 16 codes per image, so the block's destination
  // lines stay cached across the images that fill them.
  constexpr std::int64_t kBlock = 16;
  std::uint32_t bits = 0;  // OR of every code: a bit at T or above (or a
                           // sign bit) is out of range
  for (std::int64_t i0 = 0; i0 < n_in; i0 += kBlock) {
    const std::int64_t i1 = std::min(n_in, i0 + kBlock);
    for (std::int64_t b = 0; b < B; ++b) {
      const std::int32_t* cp = s.codes[b].data();
      for (std::int64_t i = i0; i < i1; ++i) {
        bits |= static_cast<std::uint32_t>(cp[i]);
        s.cur[i * B + b] = cp[i];
      }
    }
  }
  RSNN_REQUIRE((bits >> T) == 0,
               "input codes must lie in [0, 2^" << T << " - 1]");
}

/// Execute the step starting at op `li` (one op, or a fused conv+pool pair)
/// on one slice, including the end-of-range logit / boundary emission.
template <int kB, class W>
void run_slice_op(const ir::LayerProgram& program, const FastPrepared& prep,
                  const Kernels& K, int T, std::size_t n_layers, std::size_t li,
                  std::size_t end, BatchSlice<W>& s) {
  common::Arena& arena = *s.arena;
  const std::int64_t B = width<kB>(s.B);
  AccelRunResult* results = s.results;
  std::int64_t* spikes = s.spikes;
  std::int64_t* adder = s.adder;
  std::int64_t* pool_spikes = s.pool_spikes;
  std::int64_t* pool_covered = s.pool_covered;
  W* cur = s.cur;

  const ir::LayerOp& op = program.op(li);
  const bool network_final =
      static_cast<std::size_t>(op.layer_index) + 1 == n_layers;
  RSNN_ENSURE(op.requantize || network_final || op.kind == ir::OpKind::kPool ||
                  op.kind == ir::OpKind::kFlatten,
              "non-final layer must requantize");
  spikes_per_image<kB>(K, cur, op.in_shape.numel(), B, spikes);
  const FastPrepared::OpPrep& p = prep.ops[li];
  const std::size_t consumed = ops_consumed(program, li, end);

  switch (op.kind) {
    case ir::OpKind::kFlatten: {
      // CHW -> flat is the identity on a contiguous buffer; the op only
      // moves data between the 2-D and 1-D ping-pong pairs.
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = 0;
        accumulate_layer(results[b], std::move(stats));
      }
      break;
    }
    case ir::OpKind::kConv: {
      const QConv2d& conv = *op.conv;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      const std::int64_t cout = conv.out_channels;
      adder_ops_per_image<kB>(K, cur, conv.in_channels, ih * iw, p.coverage,
                              cout, B, adder);
      if (consumed == 1) {  // unfused
        W* out = arena.alloc<W>(cout * oh * ow * B);
        if (op.fast_layout == DataLayout::kHwc) {
          W* out_hwcb = arena.alloc<W>(oh * ow * B * cout);
          conv_hwc_batched<kB>(conv, cur, ih, iw, oh, ow, p.weights.data(), T,
                               B, K, arena, out_hwcb);
          for (std::int64_t i = 0; i < oh * ow; ++i)
            for (std::int64_t b = 0; b < B; ++b) {
              const W* src = out_hwcb + (i * B + b) * cout;
              for (std::int64_t oc = 0; oc < cout; ++oc)
                out[(oc * oh * ow + i) * B + b] = src[oc];
            }
        } else {
          for (std::int64_t oc = 0; oc < cout; ++oc) {
            W* plane = out + oc * oh * ow * B;
            conv_channel_chw_batched<kB>(conv, cur, ih, iw, oh, ow, oc, B, K,
                                         plane);
            finish_channel(conv, oc, T, plane, oh * ow * B);
          }
        }
        for (std::int64_t b = 0; b < B; ++b) {
          LayerStats stats = annotated_stats(op);
          stats.input_spikes = spikes[b];
          stats.adder_ops = adder[b];
          accumulate_layer(results[b], std::move(stats));
        }
        cur = out;
        break;
      }

      // Fused conv+pool: the pool consumes conv codes straight from scratch,
      // skipping the intermediate CHW activation tensor. Both ops' stats are
      // emitted exactly as if they ran back to back: the pool's input spikes
      // are every conv output spike, its adder ops those inside its
      // coverage table (all of them when the table is empty).
      const ir::LayerOp& pool_op = program.op(li + 1);
      const QPool2d& pool = *pool_op.pool;
      const std::vector<std::int32_t>& covered = prep.ops[li + 1].coverage;
      const std::int64_t k = pool.kernel;
      const std::int64_t poh = pool_op.out_shape.dim(1);
      const std::int64_t pow_ = pool_op.out_shape.dim(2);
      W* out = arena.alloc<W>(cout * poh * pow_ * B);
      std::fill(pool_spikes, pool_spikes + B, std::int64_t{0});
      std::fill(pool_covered, pool_covered + B, std::int64_t{0});
      if (op.fast_layout == DataLayout::kHwc) {
        W* out_hwcb = arena.alloc<W>(oh * ow * B * cout);
        conv_hwc_batched<kB>(conv, cur, ih, iw, oh, ow, p.weights.data(), T, B,
                             K, arena, out_hwcb);
        for (std::int64_t i = 0; i < oh * ow; ++i) {
          const bool in_window = covered.empty() || covered[i] != 0;
          const W* base = out_hwcb + i * B * cout;
          for (std::int64_t b = 0; b < B; ++b) {
            std::int64_t n = 0;
            count_spikes(K, &n, base + b * cout, nullptr, cout, 1);
            pool_spikes[b] += n;
            if (in_window) pool_covered[b] += n;
          }
        }
        W* pacc = arena.alloc<W>(B * cout);
        for (std::int64_t py = 0; py < poh; ++py) {
          for (std::int64_t px = 0; px < pow_; ++px) {
            std::fill(pacc, pacc + B * cout, W{0});
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx)
                add_words(K, pacc,
                          out_hwcb +
                              (((py * k + ky) * ow + px * k + kx) * B) * cout,
                          B * cout);
            for (std::int64_t b = 0; b < B; ++b)
              for (std::int64_t oc = 0; oc < cout; ++oc)
                out[((oc * poh + py) * pow_ + px) * B + b] =
                    pacc[b * cout + oc] >> pool.shift;
          }
        }
      } else {
        W* plane = arena.alloc<W>(oh * ow * B);
        W* pacc = arena.alloc<W>(B);
        for (std::int64_t oc = 0; oc < cout; ++oc) {
          conv_channel_chw_batched<kB>(conv, cur, ih, iw, oh, ow, oc, B, K,
                                       plane);
          finish_channel(conv, oc, T, plane, oh * ow * B);
          count_spikes(K, pool_spikes, plane, nullptr, oh * ow, B);
          if (!covered.empty())
            count_spikes(K, pool_covered, plane, covered.data(), oh * ow, B);
          pool_plane_batched<kB>(plane, ow, k, pool.shift, poh, pow_, B, K,
                                 pacc, out + oc * poh * pow_ * B);
        }
        if (covered.empty())
          std::copy(pool_spikes, pool_spikes + B, pool_covered);
      }
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = adder[b];
        accumulate_layer(results[b], std::move(stats));
        LayerStats pstats = annotated_stats(pool_op);
        pstats.input_spikes = pool_spikes[b];
        pstats.adder_ops = pool_covered[b];
        accumulate_layer(results[b], std::move(pstats));
      }
      cur = out;
      break;
    }
    case ir::OpKind::kPool: {
      const QPool2d& pool = *op.pool;
      const std::int64_t ch = op.in_shape.dim(0);
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      adder_ops_per_image<kB>(K, cur, ch, ih * iw, p.coverage, 1, B, adder);
      W* out = arena.alloc<W>(ch * oh * ow * B);
      W* pacc = arena.alloc<W>(B);
      for (std::int64_t c = 0; c < ch; ++c)
        pool_plane_batched<kB>(cur + c * ih * iw * B, iw, pool.kernel,
                               pool.shift, oh, ow, B, K, pacc,
                               out + c * oh * ow * B);
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = adder[b];
        accumulate_layer(results[b], std::move(stats));
      }
      cur = out;
      break;
    }
    case ir::OpKind::kLinear: {
      const QLinear& fc = *op.linear;
      W* out = arena.alloc<W>(fc.out_features * B);
      linear_fast_batched<kB>(fc, cur, p.weights.data(), T, B, K, arena, out);
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = spikes[b] * fc.out_features;
        accumulate_layer(results[b], std::move(stats));
      }
      cur = out;
      break;
    }
  }

  const ir::LayerOp& last_op = program.op(li + consumed - 1);
  const std::int64_t out_numel = last_op.out_shape.numel();
  if (static_cast<std::size_t>(last_op.layer_index) + 1 == n_layers) {
    for (std::int64_t b = 0; b < B; ++b) {
      auto& logits = results[b].logits;
      logits.resize(static_cast<std::size_t>(out_numel));
      for (std::int64_t i = 0; i < out_numel; ++i)
        logits[static_cast<std::size_t>(i)] = cur[i * B + b];
    }
  } else if (li + consumed == end && s.boundary) {
    for (std::int64_t b = 0; b < B; ++b) {
      TensorI boundary(last_op.out_shape);
      std::int32_t* bp = boundary.data();
      for (std::int64_t i = 0; i < out_numel; ++i)
        bp[i] = static_cast<std::int32_t>(cur[i * B + b]);
      s.boundary[b] = std::move(boundary);
    }
  }
  s.cur = cur;
}

// Each slice picks its kernel instance from its own width: a single-image
// slice (the serving replica's usual dispatch, or the one-image tail of an
// uneven parallel split) runs kB = 1, every wider slice kB = 0. The word W
// is the pack's, fixed for the whole run.

template <class W>
void start_slice(int T, std::size_t begin, std::size_t end, BatchSlice<W>& s) {
  if (s.B == 1)
    init_slice<1>(T, begin, end, s);
  else
    init_slice<0>(T, begin, end, s);
}

template <class W>
void step_slice(const ir::LayerProgram& program, const FastPrepared& prep,
                const Kernels& K, int T, std::size_t n_layers, std::size_t li,
                std::size_t end, BatchSlice<W>& s) {
  if (s.B == 1)
    run_slice_op<1>(program, prep, K, T, n_layers, li, end, s);
  else
    run_slice_op<0>(program, prep, K, T, n_layers, li, end, s);
}

/// One slice over the whole batch on `arena`.
template <class W>
void run_batched(const ir::LayerProgram& program, const FastPrepared& prep,
                 common::Arena& arena, const TensorI* codes, std::size_t batch,
                 std::size_t begin, std::size_t end, TensorI* boundary_codes,
                 AccelRunResult* results) {
  const Kernels& K = common::simd::kernels();
  const int T = program.time_bits();
  const std::size_t n_layers = program.network().layers.size();

  BatchSlice<W> s;
  s.arena = &arena;
  s.B = static_cast<std::int64_t>(batch);
  s.codes = codes;
  s.results = results;
  s.boundary = boundary_codes;
  start_slice(T, begin, end, s);
  for (std::size_t li = begin; li < end; li += ops_consumed(program, li, end))
    step_slice(program, prep, K, T, n_layers, li, end, s);
}

/// One fixed cap keeps the parallel driver's slice table on the stack (no
/// per-call allocation); past ~64 cores the batch, not the core count, is
/// the limit.
constexpr std::size_t kMaxSlices = 64;

/// `n_slices` (2..kMaxSlices) contiguous slices on the held `pool`.
template <class W>
void run_batched_parallel(const ir::LayerProgram& program,
                          const FastPrepared& prep, common::TaskPool& pool,
                          const TensorI* codes, std::size_t batch,
                          std::size_t begin, std::size_t end,
                          TensorI* boundary_codes, AccelRunResult* results,
                          std::size_t n_slices) {
  const Kernels& K = common::simd::kernels();
  const int T = program.time_bits();
  const std::size_t n_layers = program.network().layers.size();

  BatchSlice<W> slices[kMaxSlices];
  std::size_t off = 0;
  for (std::size_t c = 0; c < n_slices; ++c) {
    const std::size_t n = batch / n_slices + (c < batch % n_slices ? 1 : 0);
    BatchSlice<W>& s = slices[c];
    s.arena = &pool.arena(c);
    s.B = static_cast<std::int64_t>(n);
    s.codes = codes + off;
    s.results = results + off;
    s.boundary = boundary_codes ? boundary_codes + off : nullptr;
    off += n;
  }

  // Fork/join once per step: every slice executes the SAME op over its own
  // images, so all cores stream one shared weight tap sequence — the taps a
  // slice pulls into the shared cache are the taps its siblings need next.
  pool.run(n_slices,
           [&](std::size_t c) { start_slice(T, begin, end, slices[c]); });
  for (std::size_t li = begin; li < end;
       li += ops_consumed(program, li, end)) {
    pool.run(n_slices, [&](std::size_t c) {
      step_slice(program, prep, K, T, n_layers, li, end, slices[c]);
    });
  }
}

}  // namespace

void run_fast_path_batched(const ir::LayerProgram& program,
                           const FastPrepared& prep, common::Arena& arena,
                           const TensorI* codes, std::size_t batch,
                           std::size_t begin, std::size_t end,
                           TensorI* boundary_codes, AccelRunResult* results) {
  RSNN_REQUIRE(batch >= 1, "batched run needs at least one image");
  if (prep.word_bits == 32)
    run_batched<std::int32_t>(program, prep, arena, codes, batch, begin, end,
                              boundary_codes, results);
  else
    run_batched<std::int64_t>(program, prep, arena, codes, batch, begin, end,
                              boundary_codes, results);
  const double cycle_ns = program.config().cycle_ns();
  for (std::size_t b = 0; b < batch; ++b) finalize_run(results[b], cycle_ns);
}

void run_fast_path_batched_parallel(const ir::LayerProgram& program,
                                    const FastPrepared& prep,
                                    common::TaskPool& pool,
                                    const TensorI* codes, std::size_t batch,
                                    std::size_t begin, std::size_t end,
                                    TensorI* boundary_codes,
                                    AccelRunResult* results,
                                    std::size_t threads) {
  RSNN_REQUIRE(batch >= 1, "batched run needs at least one image");
  // One slice per requested thread — never more slices than images or pool
  // slots.
  const std::size_t n_slices =
      std::min({threads, batch, pool.slots(), kMaxSlices});

  // Slice activation state lives in the pool's slot arenas across the
  // per-op rounds, so the pool is held for the whole run, not per fork.
  auto session = pool.acquire();
  if (n_slices <= 1) {
    run_fast_path_batched(program, prep, pool.arena(0), codes, batch, begin,
                          end, boundary_codes, results);
    return;
  }
  if (prep.word_bits == 32)
    run_batched_parallel<std::int32_t>(program, prep, pool, codes, batch,
                                       begin, end, boundary_codes, results,
                                       n_slices);
  else
    run_batched_parallel<std::int64_t>(program, prep, pool, codes, batch,
                                       begin, end, boundary_codes, results,
                                       n_slices);
  const double cycle_ns = program.config().cycle_ns();
  for (std::size_t b = 0; b < batch; ++b) finalize_run(results[b], cycle_ns);
}

// --- Process-wide prepared-pack cache ---------------------------------------

namespace {

/// Identity of a prepared pack. The program borrows its QuantizedNetwork (a
/// lifetime contract the Accelerator already documents), so the network
/// address plus every op's parameter-struct address pins the weights — a
/// recycled network address with different content would also have recycled
/// each heap-allocated layer, which the per-op pointers catch — while the op
/// range and per-op kinds/layouts pin the repack shapes.
struct PrepKey {
  const void* network;
  std::size_t begin;
  std::size_t n_ops;
  std::uint64_t ops_hash;

  friend bool operator<(const PrepKey& a, const PrepKey& b) {
    return std::tie(a.network, a.begin, a.n_ops, a.ops_hash) <
           std::tie(b.network, b.begin, b.n_ops, b.ops_hash);
  }
};

PrepKey prep_key(const ir::LayerProgram& program) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the op sequence
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ir::LayerOp& op = program.op(i);
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.fast_layout));
    mix(static_cast<std::uint64_t>(op.layer_index));
    mix(reinterpret_cast<std::uintptr_t>(op.conv));
    mix(reinterpret_cast<std::uintptr_t>(op.pool));
    mix(reinterpret_cast<std::uintptr_t>(op.linear));
  }
  return PrepKey{&program.network(), program.network_begin(), program.size(),
                 h};
}

struct PrepRegistry {
  std::mutex mu;
  std::map<PrepKey, std::weak_ptr<const FastPrepared>> cache;
  std::atomic<std::uint64_t> builds{0};
};

PrepRegistry& prep_registry() {
  static PrepRegistry registry;
  return registry;
}

}  // namespace

std::shared_ptr<const FastPrepared> shared_fast_prepared(
    const ir::LayerProgram& program) {
  PrepRegistry& registry = prep_registry();
  const PrepKey key = prep_key(program);
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto it = registry.cache.begin(); it != registry.cache.end();)
    it = it->second.expired() ? registry.cache.erase(it) : std::next(it);
  if (auto it = registry.cache.find(key); it != registry.cache.end())
    if (auto live = it->second.lock()) return live;
  // Built under the lock: N replicas spinning up concurrently perform
  // exactly one repack — the rest wait here and share it.
  auto built = std::make_shared<const FastPrepared>(prepare_fast_path(program));
  registry.cache[key] = built;
  registry.builds.fetch_add(1, std::memory_order_relaxed);
  return built;
}

std::uint64_t fast_prepared_build_count() {
  return prep_registry().builds.load(std::memory_order_relaxed);
}

}  // namespace rsnn::hw
