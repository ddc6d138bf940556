// AVX2 sparse kernels — bit-identical to the scalar reference.
//
// Strategy: vectorize across a dimension where the SCALAR kernel already
// performs eight independent, identical op sequences — the batch axis for
// the row-major SpMM (eight samples share one values/col_idx stream; the
// activations are gathered with a row-stride index vector) and the
// unit-stride output axis for spmm_cols / conv / the flat epilogue. Each SIMD
// lane then executes exactly the scalar per-element op sequence: separate
// _mm256_mul_ps + _mm256_add_ps per nonzero (never FMA — the scalar
// reference contracts nothing, and this file is built with
// -ffp-contract=off so the compiler cannot fuse them either), bias before
// residual before activation. Lanes that don't exist (batch % 8, n % 8)
// fall back to the scalar backend; the conv's width tails compute whole
// vectors and store only the lanes that exist.
//
// ReLU uses _mm256_max_ps(v, +0.0f), which matches `v > 0 ? v : 0` bit
// for bit including v = -0.0 (max returns the second operand on equal
// compare) and v = NaN (maxps propagates the second operand). LeakyReLU
// uses an ordered-quiet greater-than compare + blend. Sigmoid/tanh call
// the scalar activate per lane — std::exp has no vector contract.
//
// _mm256_i32gather_ps indexes are 32-bit: strides beyond 2^28 elements
// could overflow lane 7, so such shapes (absent in practice — that is a
// >1 GiB activation row) take the scalar path entirely.
#ifdef DSTEE_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "kernels/simd/backend.hpp"
#include "kernels/sparse_conv.hpp"

namespace dstee::kernels::simd {

namespace {

/// Largest element stride a 32-bit gather index can address from lane 7
/// with headroom (8 * 2^28 = 2^31). Shapes beyond this run scalar.
constexpr std::size_t kMaxGatherStride = std::size_t{1} << 28;

/// Lane offsets {0, stride, ..., 7*stride} for strided gathers.
inline __m256i lane_offsets(std::size_t stride) {
  const int s = static_cast<int>(stride);
  return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
}

/// ep.activate() over eight lanes, bit-identical per lane.
inline __m256 act8(__m256 v, const kernels::Epilogue& ep) {
  if (!ep.has_act) return v;
  switch (ep.act) {
    case kernels::ActKind::kRelu:
      return _mm256_max_ps(v, _mm256_setzero_ps());
    case kernels::ActKind::kLeakyRelu: {
      const __m256 gt =
          _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(ep.slope), v);
      return _mm256_blendv_ps(neg, v, gt);
    }
    case kernels::ActKind::kSigmoid:
    case kernels::ActKind::kTanh: {
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, v);
      for (int i = 0; i < 8; ++i) tmp[i] = ep.activate(tmp[i]);
      return _mm256_load_ps(tmp);
    }
  }
  return v;  // unreachable
}

// ---------------------------------------------------------------------------
// Batched SpMM over rows: eight batch samples per iteration, one nnz
// broadcast against eight gathered activations.
// ---------------------------------------------------------------------------

template <typename View, bool kQuantized>
void avx2_spmm_rows_impl(const View& a, const float* x, std::size_t batch,
                         float* out, std::size_t r0, std::size_t r1,
                         const kernels::Epilogue& ep) {
  if (a.cols > kMaxGatherStride ||
      (ep.residual != nullptr && ep.residual_stride > kMaxGatherStride)) {
    if constexpr (kQuantized) {
      scalar_backend().qspmm_rows(a, x, batch, out, r0, r1, ep);
    } else {
      scalar_backend().spmm_rows(a, x, batch, out, r0, r1, ep);
    }
    return;
  }

  const __m256i xlane = lane_offsets(a.cols);
  const __m256i rlane =
      ep.residual != nullptr ? lane_offsets(ep.residual_stride)
                             : _mm256_setzero_si256();

  std::size_t n0 = 0;
  for (; n0 + 8 <= batch; n0 += 8) {
    const float* xn = x + n0 * a.cols;
    const float* resn = ep.residual != nullptr
                            ? ep.residual + n0 * ep.residual_stride
                            : nullptr;
    for (std::size_t r = r0; r < r1; ++r) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        const __m256i idx = _mm256_add_epi32(
            xlane, _mm256_set1_epi32(static_cast<int>(a.col_idx[k])));
        const __m256 xv = _mm256_i32gather_ps(xn, idx, 4);
        const __m256 vv = [&] {
          if constexpr (kQuantized) {
            return _mm256_set1_ps(static_cast<float>(a.values[k]));
          } else {
            return _mm256_set1_ps(a.values[k]);
          }
        }();
        acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, xv));
      }
      if constexpr (kQuantized) {
        acc = _mm256_mul_ps(acc, _mm256_set1_ps(a.scales[r]));
      }
      if (ep.bias != nullptr) {
        acc = _mm256_add_ps(acc, _mm256_set1_ps(ep.bias[r]));
      }
      if (resn != nullptr) {
        acc = _mm256_add_ps(acc, _mm256_i32gather_ps(resn + r, rlane, 4));
      }
      acc = act8(acc, ep);
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, acc);
      float* yn = out + n0 * a.rows + r;
      for (std::size_t i = 0; i < 8; ++i) yn[i * a.rows] = tmp[i];
    }
  }

  if (n0 < batch) {
    kernels::Epilogue tail = ep;
    if (tail.residual != nullptr) {
      tail.residual += n0 * tail.residual_stride;
    }
    if constexpr (kQuantized) {
      scalar_backend().qspmm_rows(a, x + n0 * a.cols, batch - n0,
                                  out + n0 * a.rows, r0, r1, tail);
    } else {
      scalar_backend().spmm_rows(a, x + n0 * a.cols, batch - n0,
                                 out + n0 * a.rows, r0, r1, tail);
    }
  }
}

void avx2_spmm_rows(const CsrView& a, const float* x, std::size_t batch,
                    float* out, std::size_t r0, std::size_t r1,
                    const kernels::Epilogue& ep) {
  avx2_spmm_rows_impl<CsrView, false>(a, x, batch, out, r0, r1, ep);
}

void avx2_qspmm_rows(const QCsrView& a, const float* x, std::size_t batch,
                     float* out, std::size_t r0, std::size_t r1,
                     const kernels::Epilogue& ep) {
  avx2_spmm_rows_impl<QCsrView, true>(a, x, batch, out, r0, r1, ep);
}

// ---------------------------------------------------------------------------
// SpMM against dense columns (the conv/im2col path): vectorize the
// unit-stride j axis; each output element keeps the scalar k-order.
// ---------------------------------------------------------------------------

template <typename View, bool kQuantized>
void avx2_spmm_cols_impl(const View& a, const float* b, std::size_t n,
                         float* out, const kernels::Epilogue& ep) {
  const std::size_t nv = n & ~std::size_t{7};
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* yr = out + r * n;
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t j = 0; j < nv; j += 8) _mm256_storeu_ps(yr + j, zero);
    for (std::size_t j = nv; j < n; ++j) yr[j] = 0.0f;

    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = static_cast<float>(a.values[k]);
      const __m256 vv = _mm256_set1_ps(v);
      const float* br = b + a.col_idx[k] * n;
      for (std::size_t j = 0; j < nv; j += 8) {
        const __m256 acc = _mm256_add_ps(
            _mm256_loadu_ps(yr + j),
            _mm256_mul_ps(vv, _mm256_loadu_ps(br + j)));
        _mm256_storeu_ps(yr + j, acc);
      }
      for (std::size_t j = nv; j < n; ++j) yr[j] += v * br[j];
    }

    // Row finish: quantized rows always rescale; fp32 rows only run it
    // for a non-empty epilogue — exactly the scalar control flow.
    if (kQuantized || !ep.empty()) {
      const float scale = [&] {
        if constexpr (kQuantized) return a.scales[r];
        return 1.0f;
      }();
      const float bias = ep.bias != nullptr ? ep.bias[r] : 0.0f;
      const float* res =
          ep.residual != nullptr ? ep.residual + r * n : nullptr;
      const __m256 vscale = _mm256_set1_ps(scale);
      const __m256 vbias = _mm256_set1_ps(bias);
      for (std::size_t j = 0; j < nv; j += 8) {
        __m256 v = _mm256_loadu_ps(yr + j);
        if constexpr (kQuantized) v = _mm256_mul_ps(v, vscale);
        if (ep.bias != nullptr) v = _mm256_add_ps(v, vbias);
        if (res != nullptr) {
          v = _mm256_add_ps(v, _mm256_loadu_ps(res + j));
        }
        _mm256_storeu_ps(yr + j, act8(v, ep));
      }
      for (std::size_t j = nv; j < n; ++j) {
        float v = yr[j];
        if constexpr (kQuantized) v *= scale;
        if (ep.bias != nullptr) v += bias;
        if (res != nullptr) v += res[j];
        yr[j] = ep.activate(v);
      }
    }
  }
}

void avx2_spmm_cols(const CsrView& a, const float* b, std::size_t n,
                    float* out, const kernels::Epilogue& ep) {
  avx2_spmm_cols_impl<CsrView, false>(a, b, n, out, ep);
}

void avx2_qspmm_cols(const QCsrView& a, const float* b, std::size_t n,
                     float* out, const kernels::Epilogue& ep) {
  avx2_spmm_cols_impl<QCsrView, true>(a, b, n, out, ep);
}

// ---------------------------------------------------------------------------
// Direct sparse conv: lanes run along output width. A tile is up to
// kConvTile consecutive (output row, width segment) vectors — 1 to 8
// output rows — held in registers across a whole CSR row, so a nonzero
// costs one broadcast plus a load, multiply and add per register, and the
// row finish runs once per tile. Tiles are the outer loop so the image
// window a tile reads stays hot across every output channel. Stride 2
// deinterleaves two loads with one shuffle and keeps that permuted lane
// order until the finish: lanes are independent accumulators, so the
// permutation is pure data movement and each lane still runs the scalar
// op sequence. Widths up to 4 use 4-lane vectors; strides above 2 run
// scalar.
// ---------------------------------------------------------------------------

constexpr std::size_t kConvTile = 8;

// A tail lane's loads run past the last tap a row needs by at most 15
// floats (Ymm::load_even's second load); the scratch reserves them.
static_assert(kConvReadSlack >= 15);

struct Ymm {
  using V = __m256;
  static constexpr std::size_t kLanes = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float v) { return _mm256_set1_ps(v); }
  /// Exact int8 → float in the vector unit (a scalar cvtsi2ss would merge
  /// into its destination and chain every nonzero on the previous one).
  static V set1(std::int8_t v) {
    return _mm256_cvtepi32_ps(_mm256_set1_epi32(v));
  }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  /// {p[0], p[2], ..., p[14]} as lanes {0, 1, 4, 5, 2, 3, 6, 7}.
  static V load_even(const float* p) {
    return _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                             _MM_SHUFFLE(2, 0, 2, 0));
  }
  /// Puts load_even's lanes back in position order.
  static V unpermute_even(V v) {
    return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(v),
                                                  _MM_SHUFFLE(3, 1, 2, 0)));
  }
  static V act(V v, const kernels::Epilogue& ep) { return act8(v, ep); }
};

struct Xmm {
  using V = __m128;
  static constexpr std::size_t kLanes = 4;
  static V zero() { return _mm_setzero_ps(); }
  static V set1(float v) { return _mm_set1_ps(v); }
  static V set1(std::int8_t v) { return _mm_cvtepi32_ps(_mm_set1_epi32(v)); }
  static V add(V a, V b) { return _mm_add_ps(a, b); }
  static V mul(V a, V b) { return _mm_mul_ps(a, b); }
  static V load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, V v) { _mm_storeu_ps(p, v); }
  /// {p[0], p[2], p[4], p[6]} in position order.
  static V load_even(const float* p) {
    return _mm_shuffle_ps(_mm_loadu_ps(p), _mm_loadu_ps(p + 4),
                          _MM_SHUFFLE(2, 0, 2, 0));
  }
  static V unpermute_even(V v) { return v; }
  static V act(V v, const kernels::Epilogue& ep) {
    return _mm256_castps256_ps128(
        act8(_mm256_insertf128_ps(_mm256_setzero_ps(), v, 0), ep));
  }
};

/// The first `n` lanes at p; the rest read as zero.
template <typename T>
typename T::V load_lanes(const float* p, std::size_t n) {
  if (n == T::kLanes) return T::load(p);
  alignas(32) float tmp[T::kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) tmp[i] = p[i];
  return T::load(tmp);
}

/// Stores the first `n` lanes of v to p.
template <typename T>
void store_lanes(float* p, typename T::V v, std::size_t n) {
  if (n == T::kLanes) {
    T::store(p, v);
    return;
  }
  alignas(32) float tmp[T::kLanes];
  T::store(tmp, v);
  for (std::size_t i = 0; i < n; ++i) p[i] = tmp[i];
}

/// One tile of kN vectors for every output row of `a`: vector i reads
/// the image at tap + in_off[i] and writes lanes[i] outputs at out_off[i].
template <typename T, std::size_t kStride, std::size_t kN, typename View,
          bool kQuantized>
void conv_tile(const View& a, const ConvView& x, const std::size_t* in_off,
               const std::size_t* out_off, const std::size_t* lanes,
               float* out, const kernels::Epilogue& ep) {
  using V = typename T::V;
  const std::size_t positions = x.out_h * x.out_w;
  for (std::size_t r = 0; r < a.rows; ++r) {
    V acc[kN];
    for (std::size_t i = 0; i < kN; ++i) acc[i] = T::zero();
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const V w = T::set1(a.values[k]);
      const float* p = x.image + x.tap[a.col_idx[k]];
      for (std::size_t i = 0; i < kN; ++i) {
        const V xv = kStride == 1 ? T::load(p + in_off[i])
                                  : T::load_even(p + in_off[i]);
        acc[i] = T::add(acc[i], T::mul(w, xv));
      }
    }
    float* yr = out + r * positions;
    const float* res =
        ep.residual != nullptr ? ep.residual + r * positions : nullptr;
    for (std::size_t i = 0; i < kN; ++i) {
      V v = kStride == 1 ? acc[i] : T::unpermute_even(acc[i]);
      if constexpr (kQuantized) v = T::mul(v, T::set1(a.scales[r]));
      if (ep.bias != nullptr) v = T::add(v, T::set1(ep.bias[r]));
      if (res != nullptr) {
        v = T::add(v, load_lanes<T>(res + out_off[i], lanes[i]));
      }
      store_lanes<T>(yr + out_off[i], T::act(v, ep), lanes[i]);
    }
  }
}

/// conv_tile for kN = 1..kConvTile, indexed by kN - 1.
template <typename T, std::size_t kStride, typename View, bool kQuantized,
          std::size_t... kIs>
constexpr auto conv_tile_table(std::index_sequence<kIs...>) {
  return std::array{&conv_tile<T, kStride, kIs + 1, View, kQuantized>...};
}

template <typename T, std::size_t kStride, typename View, bool kQuantized>
void conv_tiles(const View& a, const ConvView& x, float* out,
                const kernels::Epilogue& ep) {
  static constexpr auto kTiles =
      conv_tile_table<T, kStride, View, kQuantized>(
          std::make_index_sequence<kConvTile>());
  std::size_t in_off[kConvTile];
  std::size_t out_off[kConvTile];
  std::size_t lanes[kConvTile];
  std::size_t n = 0;
  const auto flush = [&] {
    if (n > 0) kTiles[n - 1](a, x, in_off, out_off, lanes, out, ep);
    n = 0;
  };
  for (std::size_t oh = 0; oh < x.out_h; ++oh) {
    for (std::size_t ow = 0; ow < x.out_w; ow += T::kLanes) {
      in_off[n] = oh * kStride * x.row_step + ow * kStride;
      out_off[n] = oh * x.out_w + ow;
      lanes[n] = std::min(T::kLanes, x.out_w - ow);
      if (++n == kConvTile) flush();
    }
  }
  flush();
}

template <typename View, bool kQuantized>
void avx2_conv_impl(const View& a, const ConvView& x, float* out,
                    const kernels::Epilogue& ep) {
  const bool narrow = x.out_w <= Xmm::kLanes;
  if (x.stride == 1 && narrow) {
    conv_tiles<Xmm, 1, View, kQuantized>(a, x, out, ep);
  } else if (x.stride == 1) {
    conv_tiles<Ymm, 1, View, kQuantized>(a, x, out, ep);
  } else if (x.stride == 2 && narrow) {
    conv_tiles<Xmm, 2, View, kQuantized>(a, x, out, ep);
  } else if (x.stride == 2) {
    conv_tiles<Ymm, 2, View, kQuantized>(a, x, out, ep);
  } else if constexpr (kQuantized) {
    scalar_backend().qconv(a, x, out, ep);
  } else {
    scalar_backend().conv(a, x, out, ep);
  }
}

void avx2_conv(const CsrView& a, const ConvView& x, float* out,
               const kernels::Epilogue& ep) {
  avx2_conv_impl<CsrView, false>(a, x, out, ep);
}

void avx2_qconv(const QCsrView& a, const ConvView& x, float* out,
                const kernels::Epilogue& ep) {
  avx2_conv_impl<QCsrView, true>(a, x, out, ep);
}

// ---------------------------------------------------------------------------
// Flat elementwise epilogue: out[i] = act(in[i] + residual[i]).
// ---------------------------------------------------------------------------

void avx2_epilogue_range(const float* in, float* out, std::size_t i0,
                         std::size_t i1, const kernels::Epilogue& ep) {
  const float* res = ep.residual;
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    __m256 v = _mm256_loadu_ps(in + i);
    if (res != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(res + i));
    _mm256_storeu_ps(out + i, act8(v, ep));
  }
  for (; i < i1; ++i) {
    float v = in[i];
    if (res != nullptr) v += res[i];
    out[i] = ep.activate(v);
  }
}

const KernelBackend kAvx2{
    "avx2",         true,
    avx2_spmm_rows,  avx2_spmm_cols,
    avx2_qspmm_rows, avx2_qspmm_cols,
    avx2_conv,       avx2_qconv,
    avx2_epilogue_range,
};

}  // namespace

namespace detail {
const KernelBackend& avx2_backend_impl() { return kAvx2; }
}  // namespace detail

}  // namespace dstee::kernels::simd

#endif  // DSTEE_SIMD_AVX2
