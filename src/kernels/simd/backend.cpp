#include "kernels/simd/backend.hpp"

#include <atomic>

#include "util/check.hpp"
#include "util/env.hpp"

namespace dstee::kernels::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the historical loop nests from
// sparse/csr.cpp, verbatim — every other backend is defined as
// "bit-identical to these". Do not "improve" them: any change here moves
// the reference every SIMD test compares against.
// ---------------------------------------------------------------------------

void scalar_spmm_rows(const CsrView& a, const float* x, std::size_t batch,
                      float* out, std::size_t r0, std::size_t r1,
                      const kernels::Epilogue& ep) {
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x + n * a.cols;
    float* yn = out + n * a.rows;
    const float* res = ep.residual != nullptr
                           ? ep.residual + n * ep.residual_stride
                           : nullptr;
    for (std::size_t r = r0; r < r1; ++r) {
      float acc = 0.0f;
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        acc += a.values[k] * xn[a.col_idx[k]];
      }
      if (ep.bias != nullptr) acc += ep.bias[r];
      if (res != nullptr) acc += res[r];
      yn[r] = ep.activate(acc);
    }
  }
}

void scalar_spmm_cols(const CsrView& a, const float* b, std::size_t n,
                      float* out, const kernels::Epilogue& ep) {
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* yr = out + r * n;
    for (std::size_t j = 0; j < n; ++j) yr[j] = 0.0f;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = a.values[k];
      const float* br = b + a.col_idx[k] * n;
      for (std::size_t j = 0; j < n; ++j) yr[j] += v * br[j];
    }
    if (!ep.empty()) {
      const float bias = ep.bias != nullptr ? ep.bias[r] : 0.0f;
      const float* res =
          ep.residual != nullptr ? ep.residual + r * n : nullptr;
      for (std::size_t j = 0; j < n; ++j) {
        float v = yr[j];
        if (ep.bias != nullptr) v += bias;
        if (res != nullptr) v += res[j];
        yr[j] = ep.activate(v);
      }
    }
  }
}

// Quantized kernels: int8 values widen to float per product, accumulate
// in fp32, and the row scale multiplies the ACCUMULATOR once — before the
// epilogue, so bias/residual stay full-precision fp32 additions.
void scalar_qspmm_rows(const QCsrView& a, const float* x, std::size_t batch,
                       float* out, std::size_t r0, std::size_t r1,
                       const kernels::Epilogue& ep) {
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x + n * a.cols;
    float* yn = out + n * a.rows;
    const float* res = ep.residual != nullptr
                           ? ep.residual + n * ep.residual_stride
                           : nullptr;
    for (std::size_t r = r0; r < r1; ++r) {
      float acc = 0.0f;
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        acc += static_cast<float>(a.values[k]) * xn[a.col_idx[k]];
      }
      acc *= a.scales[r];
      if (ep.bias != nullptr) acc += ep.bias[r];
      if (res != nullptr) acc += res[r];
      yn[r] = ep.activate(acc);
    }
  }
}

void scalar_qspmm_cols(const QCsrView& a, const float* b, std::size_t n,
                       float* out, const kernels::Epilogue& ep) {
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* yr = out + r * n;
    for (std::size_t j = 0; j < n; ++j) yr[j] = 0.0f;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = static_cast<float>(a.values[k]);
      const float* br = b + a.col_idx[k] * n;
      for (std::size_t j = 0; j < n; ++j) yr[j] += v * br[j];
    }
    // The scale multiply is part of the row finish even for an empty
    // epilogue — unlike the fp32 kernel, a quantized row is not done
    // until its accumulators are rescaled.
    const float scale = a.scales[r];
    const float bias = ep.bias != nullptr ? ep.bias[r] : 0.0f;
    const float* res = ep.residual != nullptr ? ep.residual + r * n : nullptr;
    for (std::size_t j = 0; j < n; ++j) {
      float v = yr[j] * scale;
      if (ep.bias != nullptr) v += bias;
      if (res != nullptr) v += res[j];
      yr[j] = ep.activate(v);
    }
  }
}

// Direct sparse conv: the spmm_cols loop nest with each patch-matrix row
// read straight from the padded image — the nonzero's tap, strided by the
// output position — instead of from a materialized im2col buffer. The op
// sequence per output element is unchanged: 0.0f, += value·tap per
// nonzero in CSR order, then the row finish (identity where spmm_cols
// skips it).
template <typename View, bool kQuantized>
void scalar_conv_impl(const View& a, const ConvView& x, float* out,
                      const kernels::Epilogue& ep) {
  const std::size_t positions = x.out_h * x.out_w;
  const std::size_t row_stride = x.stride * x.row_step;
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* yr = out + r * positions;
    for (std::size_t j = 0; j < positions; ++j) yr[j] = 0.0f;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = static_cast<float>(a.values[k]);
      const float* src = x.image + x.tap[a.col_idx[k]];
      for (std::size_t oh = 0; oh < x.out_h; ++oh) {
        float* y = yr + oh * x.out_w;
        const float* row = src + oh * row_stride;
        for (std::size_t ow = 0; ow < x.out_w; ++ow) {
          y[ow] += v * row[ow * x.stride];
        }
      }
    }
    const float scale = [&] {
      if constexpr (kQuantized) return a.scales[r];
      return 1.0f;
    }();
    const float* res =
        ep.residual != nullptr ? ep.residual + r * positions : nullptr;
    for (std::size_t j = 0; j < positions; ++j) {
      float v = yr[j];
      if constexpr (kQuantized) v *= scale;
      if (ep.bias != nullptr) v += ep.bias[r];
      if (res != nullptr) v += res[j];
      yr[j] = ep.activate(v);
    }
  }
}

void scalar_conv(const CsrView& a, const ConvView& x, float* out,
                 const kernels::Epilogue& ep) {
  scalar_conv_impl<CsrView, false>(a, x, out, ep);
}

void scalar_qconv(const QCsrView& a, const ConvView& x, float* out,
                  const kernels::Epilogue& ep) {
  scalar_conv_impl<QCsrView, true>(a, x, out, ep);
}

void scalar_epilogue_range(const float* in, float* out, std::size_t i0,
                           std::size_t i1, const kernels::Epilogue& ep) {
  const float* res = ep.residual;
  for (std::size_t i = i0; i < i1; ++i) {
    float v = in[i];
    if (res != nullptr) v += res[i];
    out[i] = ep.activate(v);
  }
}

const KernelBackend kScalar{
    "scalar",        false,
    scalar_spmm_rows, scalar_spmm_cols,
    scalar_qspmm_rows, scalar_qspmm_cols,
    scalar_conv,     scalar_qconv,
    scalar_epilogue_range,
};

/// Startup resolution: widest supported backend unless the environment
/// names one. An explicit DSTEE_KERNEL_BACKEND that cannot run here is a
/// hard error — a silent scalar fallback would corrupt every measurement
/// taken under the flag.
const KernelBackend* resolve_initial_backend() {
  const std::string name = util::env_string("DSTEE_KERNEL_BACKEND", "");
  if (!name.empty()) {
    const KernelBackend* be = find_backend(name);
    util::check(be != nullptr,
                "DSTEE_KERNEL_BACKEND names an unknown or unsupported "
                "backend: " + name);
    return be;
  }
  if (const KernelBackend* be = avx2_backend()) return be;
  return &kScalar;
}

std::atomic<const KernelBackend*>& active_slot() {
  static std::atomic<const KernelBackend*> slot{resolve_initial_backend()};
  return slot;
}

}  // namespace

const KernelBackend& scalar_backend() { return kScalar; }

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelBackend* avx2_backend() {
#ifdef DSTEE_SIMD_AVX2
  return cpu_has_avx2() ? &detail::avx2_backend_impl() : nullptr;
#else
  return nullptr;
#endif
}

const KernelBackend* find_backend(const std::string& name) {
  if (name == "scalar") return &kScalar;
  if (name == "avx2") return avx2_backend();
  return nullptr;
}

std::vector<std::string> available_backends() {
  std::vector<std::string> names{"scalar"};
  if (avx2_backend() != nullptr) names.emplace_back("avx2");
  return names;
}

const KernelBackend& active_backend() { return *active_slot().load(); }

void set_active_backend(const std::string& name) {
  const KernelBackend* be = find_backend(name);
  util::check(be != nullptr,
              "unknown or unsupported kernel backend: " + name);
  active_slot().store(be);
}

}  // namespace dstee::kernels::simd
