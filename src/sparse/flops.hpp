// Analytic FLOPs accounting, mirroring RigL's convention (which Table II
// follows): inference FLOPs = Σ layer dense-FLOPs × layer density;
// training FLOPs ≈ 3 × inference (forward + input-grad + weight-grad),
// plus method-specific corrections for phases that touch dense gradients.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dstee::sparse {

/// One compute layer's cost entry.
struct LayerCost {
  std::string name;
  std::size_t params = 0;        ///< weight element count
  double dense_flops = 0.0;      ///< multiply-adds × 2, one forward pass
  bool sparsifiable = true;      ///< dense layers (BN, bias) keep density 1
};

/// Builder + evaluator for a model's FLOPs profile.
class FlopsModel {
 public:
  /// Registers a conv layer applied at input resolution in_h × in_w.
  void add_conv(const std::string& name, std::size_t in_channels,
                std::size_t out_channels, std::size_t kernel,
                std::size_t stride, std::size_t padding, std::size_t in_h,
                std::size_t in_w);

  /// Registers a linear layer.
  void add_linear(const std::string& name, std::size_t in_features,
                  std::size_t out_features);

  /// Registers a non-sparsifiable cost (batch-norm, pooling, activation).
  void add_fixed(const std::string& name, double flops);

  std::size_t num_layers() const { return layers_.size(); }
  const LayerCost& layer(std::size_t i) const;

  /// Dense forward FLOPs for one example.
  double dense_forward_flops() const;

  /// Forward FLOPs for one example at per-layer densities (order must match
  /// the registration order of *sparsifiable* layers).
  double sparse_forward_flops(const std::vector<double>& densities) const;

  /// Training FLOPs per example per step ≈ 3× forward under RigL's
  /// convention: 1× forward + 2× backward (both sparse).
  double sparse_training_flops(const std::vector<double>& densities) const;

  /// Training FLOPs when the backward pass computes DENSE weight gradients
  /// every `dense_grad_every` steps (RigL's ΔT amortization: the growth
  /// step needs dense gradients). dense_grad_every == 0 means never.
  double training_flops_with_dense_grad(const std::vector<double>& densities,
                                        std::size_t dense_grad_every) const;

  /// Count of sparsifiable layers (the length densities must have).
  std::size_t num_sparsifiable() const;

 private:
  std::vector<LayerCost> layers_;
};

/// nnz-aware kernel costs for the *deployed* (CSR) execution path, used by
/// serve::CompiledNet to report honest per-model FLOPs. Unlike FlopsModel
/// — which scales analytic dense costs by a density — these count exactly
/// the multiply-adds the CSR kernels perform for the stored nonzeros.

/// One sparse Linear forward: 2·nnz FLOPs per sample.
double linear_nnz_flops(std::size_t nnz, std::size_t batch = 1);

/// One sparse conv forward (the direct conv over [Cout, Cin·K·K] CSR
/// weights): every stored weight participates in one MAC per output
/// position, padding taps included, so 2·nnz·Ho·Wo FLOPs per sample.
double conv_nnz_flops(std::size_t nnz, std::size_t out_h, std::size_t out_w,
                      std::size_t batch = 1);

}  // namespace dstee::sparse
