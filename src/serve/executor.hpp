// Executor: binds a finished Plan to runnable EvalOps.
//
// The third stage of the serve compiler (see plan.hpp for the overview):
// Executor::bind() consumes a Plan — weights move out of the plan nodes
// into ops — and fixes the execution policy (runtime::IntraOp). The
// result is the immutable, thread-safe program CompiledNet serves:
// forward() runs a large batch as tiles (Plan::kForwardTile); for each
// tile it walks the ops in topological order, releases intermediates
// according to the plan's FreeAfterLastUse annotation, lets an op write
// its output over an operand it reads last (Plan::donor_slots), and runs
// every PartitionRows slice group as one fan-out on the runtime pool so
// a single sample's heaviest layers execute on several workers at once.
//
// Every CSR node binds to ONE op type that computes a row range of its
// (fp32 or int8) matrix with the bias and fused epilogue in the kernel's
// output loop: a whole kSpmm/kConv node is its full-range slice
// [0, rows), a kRowSlice a sub-range of the parent its group shares.
// Only the input layout differs, fixed at bind time from the node:
// features (kSpmm, linear slices) or images (kConv and conv slices: the
// direct sparse conv reads every tap from a padded copy of the image;
// whole convs split the batch across the IntraOp, slices run inline —
// the group fan-out is their parallelism).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/profile.hpp"
#include "runtime/pool.hpp"
#include "serve/plan.hpp"
#include "sparse/csr.hpp"
#include "sparse/qcsr.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct KernelBackend;
}  // namespace dstee::kernels::simd

namespace dstee::serve {

/// Weight-duplication memo for Executor::clone(): a CSR matrix shared by
/// several ops (a PartitionRows group viewing one parent) is deep-copied
/// exactly once per replica, so clones share no memory with the source
/// (the NUMA prerequisite) but keep intra-replica sharing intact.
///
/// A context may carry a SHARE SET: matrices in it are handed through
/// untouched instead of copied. Keys are type-erased (const void*) so one
/// set can name fp32 and int8-quantized matrices alike. The delta
/// hot-swap path uses this to build a new version's replica that shares
/// every weight the delta did not touch with the outgoing version — a
/// deliberate, bounded exception to full replica isolation (see
/// CompiledNet::clone_shared).
///
/// Concurrency: NOT thread-safe, and deliberately unannotated — a
/// CloneContext lives on one thread's stack for the duration of a single
/// clone() walk and is never shared. Cloning different replicas
/// concurrently is safe because each walk owns its own context; the
/// source ops are only read.
struct CloneContext {
  CloneContext() = default;
  explicit CloneContext(const std::unordered_set<const void*>* share)
      : share_(share) {}

  std::shared_ptr<const sparse::CsrMatrix> dup(
      const std::shared_ptr<const sparse::CsrMatrix>& csr);
  std::shared_ptr<const sparse::QCsrMatrix> dup(
      const std::shared_ptr<const sparse::QCsrMatrix>& qcsr);

 private:
  std::unordered_map<const void*, std::shared_ptr<const sparse::CsrMatrix>>
      copies_;
  std::unordered_map<const void*, std::shared_ptr<const sparse::QCsrMatrix>>
      qcopies_;
  const std::unordered_set<const void*>* share_ = nullptr;
};

/// One compiled inference operation. run()/run2()/run_many() are const
/// and touch no shared mutable state, so a single op instance may execute
/// on many threads. Ops are unary unless arity() says otherwise.
class EvalOp {
 public:
  virtual ~EvalOp() = default;

  /// Deep copy through `ctx` — the basis of Executor::clone(), which
  /// replica shards use to own their weights.
  virtual std::unique_ptr<EvalOp> clone(CloneContext& ctx) const = 0;

  /// Number of producer tensors this op consumes (1, 2, or more for the
  /// concat join of a partition group).
  virtual std::size_t arity() const { return 1; }

  /// Unary execution; default fails (non-unary ops don't implement it).
  virtual tensor::Tensor run(const tensor::Tensor& x) const;

  /// Binary execution; default fails (non-binary ops don't implement it).
  virtual tensor::Tensor run2(const tensor::Tensor& a,
                              const tensor::Tensor& b) const;

  /// N-ary execution; default fails (only concat joins implement it).
  virtual tensor::Tensor run_many(
      const std::vector<const tensor::Tensor*>& xs) const;

  /// Last-use donation (Plan::donor_slots): computes the op over `io`,
  /// its operand `slot`, which no later node reads, leaving the output in
  /// `io`. `other` is the node's other operand (binary ops), else null.
  /// Returns false, with `io` untouched, when the op cannot write over
  /// that operand for these shapes; the executor then runs it normally.
  /// The result is bit-identical to run()/run2(). Default: never donates.
  virtual bool run_in_place(tensor::Tensor& io, const tensor::Tensor* other,
                            std::size_t slot) const;

  /// Short description for summaries, e.g. "spmm(128x32, ...)".
  virtual std::string describe() const = 0;

  /// Output batch shape for input batch shape `in` (non-unary ops receive
  /// their first producer's shape).
  virtual tensor::Shape out_shape(const tensor::Shape& in) const {
    return in;
  }

  /// FLOPs actually executed for a batch of shape `in` (CSR kernels count
  /// stored nonzeros; stateless ops count 0, matching the analytic
  /// FlopsModel convention).
  virtual double flops(const tensor::Shape& in) const {
    (void)in;
    return 0.0;
  }

  /// FLOPs a dense execution of the same layer would need.
  virtual double dense_flops(const tensor::Shape& in) const {
    return flops(in);
  }
};

/// An immutable, thread-safe bound program: the op graph plus the
/// execution policy. CompiledNet wraps one of these with model-level
/// bookkeeping; tests may also drive an Executor directly.
///
/// Concurrency: every member is written exactly once, inside bind() (or
/// clone(), which builds a fresh instance) BEFORE the executor is
/// published to serving threads; forward()/run_node() only read them.
/// That lock-free-by-construction discipline is why no member carries a
/// DSTEE_GUARDED_BY: there is no mutex because there is no mutation. Any
/// future mutable state (op-level caches, hot-swapped weights) must add
/// a util::Mutex + annotations, or an atomic with a comment, so the
/// clang -Werror=thread-safety CI gate keeps proving the invariant.
class Executor {
 public:
  /// Producer id meaning "the network input" in a node's input list.
  static constexpr std::size_t kInputId = Plan::kInputId;

  /// Empty executor — a placeholder until bind() assigns a real one
  /// (CompiledNet's member lives through this state during construction).
  Executor() = default;

  /// One graph node: an op plus the ids of the nodes feeding it.
  struct OpNode {
    std::unique_ptr<EvalOp> op;
    std::vector<std::size_t> inputs;
  };

  /// Binds `plan` (consumed: weights move into the ops) under the given
  /// intra-op policy. Partition slice groups always fan out on the
  /// policy's pool; the slices themselves run their kernels inline.
  /// `backend` pins every op's kernel backend; nullptr defers each kernel
  /// call to kernels::simd::active_backend() (the process-wide dispatch).
  /// `profile`, when non-null, turns on per-op wall-time accumulation:
  /// every forward times each node and adds into the shared profile
  /// (replica clones keep sharing it, so a sharded server aggregates into
  /// one place). Null keeps forward() on the untimed fast path.
  static Executor bind(Plan&& plan, const runtime::IntraOp& intra,
                       const kernels::simd::KernelBackend* backend = nullptr,
                       std::shared_ptr<obs::OpProfile> profile = nullptr);

  /// Executes the graph in topological (emission) order, in tiles of
  /// Plan::forward_tile(batch) samples. `x` is [batch, ...]; thread-safe,
  /// may be called concurrently.
  tensor::Tensor forward(const tensor::Tensor& x) const;

  /// Deep copy: every op (CSR arrays, biases, folded constants) is
  /// duplicated (shared partition weights once per replica), so the
  /// replica shares no memory with the source.
  Executor clone() const;

  /// clone() that hands matrices in `shared` (fp32 or quantized, keyed by
  /// type-erased pointer) through by reference instead of copying — the
  /// delta hot-swap replica path.
  Executor clone_shared(const std::unordered_set<const void*>& shared) const;

  std::size_t num_ops() const { return nodes_.size(); }
  const OpNode& node(std::size_t i) const;

  /// PartitionRows slice groups the executor fans out in parallel.
  std::size_t num_parallel_groups() const { return groups_.size(); }

  /// Per-op wall-time profile (null unless bind() received one). Shared
  /// across replica clones, so it aggregates every shard's forwards.
  const obs::OpProfile* op_profile() const { return profile_.get(); }

  /// Static name of node i's plan-op kind ("spmm", "relu", ...) — the
  /// label its trace spans and profile rows carry.
  const char* op_name(std::size_t i) const { return op_names_[i]; }

  /// Feature count demanded by a leading input-consuming CSR linear op
  /// (0 when the first op accepts any shape it can validate at run time).
  std::size_t input_features() const { return input_features_; }

  /// Sums per-node (dense_)flops for a batch-1 sample of `sample_shape`.
  double accumulate_flops(const tensor::Shape& sample_shape,
                          bool dense) const;

  /// One "  [i] describe()" line per node, annotated with non-straight
  /// producers — the body of CompiledNet::summary().
  std::string describe_ops() const;

 private:
  /// A run of consecutive sibling row-slice nodes executed as one pool
  /// fan-out.
  struct Group {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  /// One tile's pass over the graph.
  tensor::Tensor forward_tile(const tensor::Tensor& x) const;

  void run_node(std::size_t i, std::vector<tensor::Tensor>& values,
                const tensor::Tensor& x) const;

  /// Shared body of clone()/clone_shared().
  Executor clone_with(CloneContext& ctx) const;

  std::vector<OpNode> nodes_;
  /// release_after_[i]: values to free once node i (or its group) ran.
  /// Empty when FreeAfterLastUse did not run — keep everything live.
  std::vector<std::vector<std::size_t>> release_after_;
  /// donor_slot_[i]: Plan::donor_slots() — the operand whose buffer node
  /// i may write its output over, or Plan::kNoDonor.
  std::vector<std::size_t> donor_slot_;
  std::vector<Group> groups_;
  /// group_start_[i] is 1 + index into groups_ when node i opens a group,
  /// else 0.
  std::vector<std::size_t> group_start_;
  runtime::IntraOp intra_{};
  std::size_t input_features_ = 0;
  /// Shared per-op wall-time accumulator; null = untimed fast path.
  std::shared_ptr<obs::OpProfile> profile_;
  /// op_names_[i]: static-storage kind name for node i (trace span label).
  std::vector<const char*> op_names_;
};

}  // namespace dstee::serve
