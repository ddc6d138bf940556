// Plan IR: the typed, inspectable middle stage of the serve compiler.
//
// The serve stack used to lower, optimize and bind in one monolithic
// CompiledNet::compile(): BN folding, dropout elision and the
// free-after-last-use policy were hard-coded into the module walk, so
// there was no seam where a new graph optimization (row-range
// partitioning, NUMA placement) could be inserted or tested on its own.
// The redesign splits compilation into three explicit stages:
//
//   Lowering (this file)  nn::Sequential + SparseModel → Plan, one PlanOp
//                         per module, weights converted to CSR, no
//                         optimization decisions at all
//   Passes (passes.hpp)   named rewrites over the Plan — FoldBatchNorm,
//                         ElideDropout, FreeAfterLastUse, PartitionRows —
//                         composed by serve::Compiler
//   Executor              binds a finished Plan to EvalOps + a
//   (executor.hpp)        runtime::IntraOp policy; CompiledNet stays the
//                         thin serving facade over the bound program
//
// A PlanOp is a plain tagged struct, not a virtual hierarchy: passes
// pattern-match on `kind` and rewrite vectors in place, the way graph IRs
// do it (compare the MXNet executor's node-attribute graph). Each node
// names its producers by id; Plan::annotate() propagates a sample shape
// through the DAG to attach per-node shapes, executed FLOPs and cost
// shares — the signal PartitionRows balances against, and what
// `dstee_serve --dump-plan` prints.
//
// A CSR node (kSpmm, kConv, kRowSlice) computes one row range of its
// weight matrix: a whole kSpmm/kConv node is its full-range slice
// [0, rows), a kRowSlice the sub-range [row_begin, row_end). The cost
// model, the dump, the executor's CSR op and delta patching all read a
// node that way.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kernels/epilogue.hpp"
#include "nn/sequential.hpp"
#include "obs/profile.hpp"
#include "sparse/csr.hpp"
#include "sparse/qcsr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace dstee::nn {
class BatchNorm;
}  // namespace dstee::nn

namespace dstee::serve {

/// Node kinds a Plan can hold. Lowering emits the module-shaped subset;
/// kRowSlice / kConcatChannels only appear once PartitionRows has
/// rewritten a CSR node into cost-balanced row-range sub-ops.
enum class PlanOpKind {
  kSpmm,            ///< CSR Linear: Y = X·Wᵀ + b
  kConv,            ///< CSR conv: direct sparse conv over the image
  kScaleShift,      ///< eval-mode batch-norm as per-channel affine
  kActivation,      ///< ReLU / LeakyReLU / Sigmoid / Tanh
  kDropout,         ///< identity at eval; removed by ElideDropout
  kFlatten,         ///< [N, ...] → [N, features]
  kMaxPool,         ///< 2-d max pooling
  kAvgPool,         ///< 2-d average pooling
  kGlobalAvgPool,   ///< [N, C, H, W] → [N, C]
  kAdd,             ///< residual join: a + b, optionally through ReLU
  kRowSlice,        ///< rows [row_begin, row_end) of a partitioned CSR op
  kConcatChannels,  ///< joins row slices along axis 1 (features/channels)
};

/// Short lowercase name for dumps ("spmm", "row_slice", ...).
const char* to_string(PlanOpKind kind);

/// Activation kinds are the kernel layer's: the plan annotation and the
/// fused kernels::Epilogue a bound op builds from it can never disagree.
using ActKind = kernels::ActKind;

/// Short lowercase activation name ("relu", "leaky_relu", ...).
const char* to_string(ActKind act);

/// Fused-epilogue annotation on a producing CSR node (kSpmm / kConv and
/// the kRowSlice sub-ops PartitionRows derives from them). FuseEpilogue
/// absorbs a downstream kActivation and/or residual kAdd into the node;
/// the executor lowers this to a kernels::Epilogue applied in the
/// kernel's output loop. Empty (the default) means the node computes the
/// plain affine product, exactly as before fusion existed.
struct PlanEpilogue {
  bool add_residual = false;  ///< inputs[1] is added before activation
  bool has_act = false;
  ActKind act = ActKind::kRelu;
  float slope = 0.01f;  ///< LeakyReLU negative slope

  bool empty() const { return !add_residual && !has_act; }
};

/// Appends ", fused(add+relu)" (or "(relu)", "(add)") for a non-empty
/// epilogue — the fusion marker shared by Plan::dump and
/// Executor::describe_ops.
void append_fused(std::string& out, const PlanEpilogue& epilogue);

/// One plan node. Which fields are meaningful depends on `kind` (see the
/// member comments); everything else stays at its default. Weights are
/// held through shared_ptr so a kRowSlice node views its source matrix
/// zero-copy instead of duplicating nonzeros per partition.
struct PlanOp {
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  PlanOpKind kind = PlanOpKind::kSpmm;
  /// Producer node ids (Plan::kInputId = the network input). Unary ops
  /// have one entry, kAdd has two, kConcatChannels one per slice.
  std::vector<std::size_t> inputs;

  // kSpmm / kConv / kRowSlice ------------------------------------------
  std::shared_ptr<sparse::CsrMatrix> csr;  ///< weights (shared with slices)
  /// Int8-quantized weights (QuantizeWeights pass). A CSR node carries
  /// exactly one of csr / qcsr — validate() enforces it; slices of a
  /// quantized node share the parent's QCsrMatrix like csr slices do.
  std::shared_ptr<sparse::QCsrMatrix> qcsr;
  tensor::Tensor bias;                     ///< per output row/channel
  bool has_bias = false;
  bool folded_bn = false;  ///< FoldBatchNorm absorbed a BN into this node
  /// FuseEpilogue annotation. When `epilogue.add_residual` is set the node
  /// gains a second input (the residual edge) — validate() accounts for
  /// the extra arity on CSR kinds.
  PlanEpilogue epilogue;

  // kConv / conv kRowSlice ---------------------------------------------
  std::size_t in_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;
  /// A kConv node or a row slice of one: reads the image [N, Cin, H, W].
  bool is_conv() const { return kernel > 0; }

  // kScaleShift --------------------------------------------------------
  std::vector<float> scale;
  std::vector<float> shift;
  bool rank4 = false;  ///< BatchNorm2d ([N,C,H,W]) vs BatchNorm1d ([N,C])

  // kActivation --------------------------------------------------------
  ActKind act = ActKind::kRelu;
  float slope = 0.0f;  ///< LeakyReLU negative slope

  // kDropout -----------------------------------------------------------
  double rate = 0.0;  ///< training-time drop probability (dump only)

  // kMaxPool / kAvgPool ------------------------------------------------
  std::size_t pool_kernel = 0;
  std::size_t pool_stride = 0;

  // kAdd ---------------------------------------------------------------
  bool relu_after_add = false;

  // kRowSlice ----------------------------------------------------------
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  /// Slices created by one PartitionRows split share a group id; the
  /// executor runs each group as one fan-out on the runtime pool.
  std::size_t partition_group = kNoGroup;

  // Provenance (delta patching) ----------------------------------------
  static constexpr std::size_t kNoOrdinal = static_cast<std::size_t>(-1);
  /// For kSpmm/kConv (and the kRowSlice sub-ops PartitionRows derives
  /// from them): index of the originating Linear/Conv2d in lowering
  /// order — the key serve::ApplyDelta uses to rebuild only the nodes a
  /// checkpoint delta touched. Matches collect_lowered_modules().
  std::size_t sparse_ordinal = kNoOrdinal;
  /// For kScaleShift (and, after FoldBatchNorm, the CSR node that
  /// absorbed it): index of the originating BatchNorm in lowering order.
  std::size_t bn_ordinal = kNoOrdinal;
};

/// The compile-time program: a DAG of PlanOps in topological (emission)
/// order, plus the model-wide counters lowering gathered and the
/// annotations passes attach. Value-semantic: tests copy plans freely to
/// compare before/after a pass.
struct Plan {
  /// Producer id meaning "the network input".
  static constexpr std::size_t kInputId = static_cast<std::size_t>(-1);

  /// The executor runs a forward over more than kForwardTile samples as
  /// equal tiles of at most kForwardTile samples, one after another, so
  /// intermediates scale with the tile instead of the batch: a server
  /// worker holds at most a tile's activations. Every op computes each
  /// sample on its own, so tiled results are bit-identical.
  static constexpr std::size_t kForwardTile = 8;

  /// Samples in each tile of a `batch`-sample forward (the last may be
  /// smaller): the fewest tiles of at most kForwardTile, sized equally.
  static std::size_t forward_tile(std::size_t batch);

  std::vector<PlanOp> ops;

  /// release_after[i] lists node ids whose intermediate may be freed once
  /// op i has run — the FreeAfterLastUse annotation. Empty (no pass run)
  /// means the executor keeps every intermediate until the forward ends.
  std::vector<std::vector<std::size_t>> release_after;

  // Model-wide counters (lowering fills them; passes update elided /
  // partitioned).
  std::size_t sparse_ops = 0;
  std::size_t elided = 0;
  std::size_t residual_joins = 0;
  std::size_t total_nnz = 0;
  std::size_t total_weights = 0;
  std::size_t partitioned_ops = 0;
  std::size_t fused_ops = 0;  ///< CSR nodes carrying a FuseEpilogue annotation
  std::size_t quantized_ops = 0;  ///< CSR nodes rewritten to int8 weights

  /// Weight bytes a replica streams, summed over DISTINCT weight matrices
  /// (row slices share their parent): fp32 CSR counts values + uint32
  /// col_idx + row_ptr; int8 QCsr counts values + col_idx + row scales +
  /// row_ptr. The memory lever QuantizeWeights moves.
  std::size_t total_weight_bytes() const;

  std::size_t size() const { return ops.size(); }

  /// Consumer count per node (the network output has none).
  std::vector<std::size_t> use_counts() const;

  /// donor_slots() entry of a node that allocates its output.
  static constexpr std::size_t kNoDonor = static_cast<std::size_t>(-1);

  /// Last-use buffer donation: per node, the operand slot whose storage
  /// the node's output may take over, else kNoDonor. A slot qualifies
  /// when the node is the operand's last reader (its release list names
  /// it), the operand is not also another operand of the node, is not
  /// the caller's input, and the node is a kActivation or kAdd (any
  /// operand: every element is read before it is written) or a whole
  /// kConv (its image: each image is copied into the padded scratch
  /// before its output image is written). A conv donates only when an
  /// output image is exactly an input image's size, which depends on the
  /// input shape; the executor and peak_live_bytes() both apply that rule
  /// as "donor numel == output numel". No release lists, no donation.
  std::vector<std::size_t> donor_slots() const;

  /// Peak bytes of live activations over one forward of `batch` samples
  /// of `sample_shape` (no batch axis): the caller's input, which stays
  /// live throughout, plus every intermediate from the node that writes
  /// it until its release list frees it. A donated output reuses its
  /// donor's bytes; a partition group's slices are live together and
  /// release after the whole group, as the executor runs them. A tiled
  /// forward (kForwardTile) adds the tile's copy of its input and the
  /// whole batch's output, and counts intermediates at the tile. Kernel
  /// scratch is not counted.
  std::size_t peak_live_bytes(const tensor::Shape& sample_shape,
                              std::size_t batch) const;

  /// Per-node cost annotation for a batch-1 sample of the given shape
  /// (no batch axis): output shape, executed FLOPs, dense-equivalent
  /// FLOPs, and this node's share of the plan's total executed FLOPs.
  struct NodeCost {
    tensor::Shape out_shape;
    double flops = 0.0;
    double dense_flops = 0.0;
    double share = 0.0;
    /// Weight bytes THIS node streams (slices report their own row
    /// range's share of the parent). 0 for non-weight ops.
    std::size_t weight_bytes = 0;
    /// Measured wall milliseconds per node (summed over the profile's
    /// forwards), 0 when annotate ran without a measured profile.
    double measured_ms = 0.0;
  };
  /// `measured` (optional) replaces the analytic FLOPs-based `share` with
  /// the profile's observed wall-time shares — an OpProfile recorded off
  /// an executor bound from THIS plan (node indices must line up; a
  /// size-mismatched or all-zero profile is ignored and the analytic
  /// shares stand). Shapes/flops columns are analytic either way.
  std::vector<NodeCost> annotate(const tensor::Shape& sample_shape,
                                 const obs::OpProfile* measured =
                                     nullptr) const;

  /// Human-readable plan listing: one line per node with kind, config,
  /// nnz, and — when `sample_shape` is given — output shape, FLOPs and
  /// cost share, closed by the peak_live_bytes() line at `batch`.
  /// Partitioned nodes show their row range and group.
  std::string dump(const tensor::Shape* sample_shape = nullptr,
                   std::size_t batch = 1) const;

  /// Structural invariants: producer ids precede consumers, arities match
  /// kinds, release lists (when present) reference valid ids. Throws
  /// util::CheckError on violation; passes call this after rewriting.
  void validate() const;
};

/// Appends "  <- in, [3]" to `out` when node `index`'s producers deviate
/// from "the previous node" — the edge-annotation format shared by
/// Plan::dump and Executor::describe_ops.
void append_producers(std::string& out, std::size_t index,
                      const std::vector<std::size_t>& inputs);

/// Lowering: walks the module tree (recursing through nested Sequentials
/// and residual blocks) and emits one PlanOp per module — including
/// dropout and standalone batch-norm nodes; folding and elision are
/// passes, not lowering decisions. When `state` is non-null, weights with
/// a mask deploy via CsrMatrix::from_masked (faithful topology); others
/// fall back to from_dense(dense_eps).
Plan lower(nn::Sequential& model, const sparse::SparseModel* state = nullptr,
           float dense_eps = 0.0f);

/// The modules lowering draws serve-relevant state from, in lowering
/// order: `sparse[i]` is the Linear/Conv2d whose weights became the
/// PlanOp(s) with sparse_ordinal i, `bns[i]` the BatchNorm behind
/// bn_ordinal i. Delta patching (serve/delta.*) re-reads weights through
/// this index instead of re-walking the whole tree.
struct LoweredModules {
  std::vector<nn::Module*> sparse;  ///< nn::Linear or nn::Conv2d
  std::vector<nn::BatchNorm*> bns;
};

/// Walks `model` in exactly lower()'s order (nested Sequentials in
/// child order; residual blocks main path, then shortcut) and collects
/// the ordinal-indexed modules.
LoweredModules collect_lowered_modules(nn::Sequential& model);

/// Eval-mode batch-norm as a per-channel affine: scale = γ/√(σ²+ε),
/// shift = β − μ·scale (double-precision intermediates). Shared by
/// lowering, FoldBatchNorm and the delta re-fold path.
void bn_scale_shift(const nn::BatchNorm& bn, std::vector<float>& scale,
                    std::vector<float>& shift);

}  // namespace dstee::serve
