// Re-entrant per-block barrier solves for the decomposed (consensus ADMM)
// P2 pipeline.
//
// A BlockBarrier bundles everything one block of a decomposed problem needs
// to solve its subproblem repeatedly — across ADMM iterations within a slot
// and across slots — without reallocating or re-analysing:
//
//   * the block's CSR constraint matrix and rhs (structure fixed once, values
//     patchable between solves);
//   * an IpmScratch whose SparseNormalCache keeps the symbolic Cholesky
//     analysis alive for the block's fixed sparsity pattern;
//   * warm-start state (the previous block optimum) with the same
//     pull-to-interior blend escalation the monolithic P2 workspace uses.
//
// solve_barrier itself is re-entrant for distinct IpmScratch instances (its
// only shared state is atomic metrics), so distinct BlockBarrier objects may
// run concurrently on a thread pool. One BlockBarrier must not be used from
// two threads at once.
#pragma once

#include <cstddef>

#include "linalg/sparse.hpp"
#include "solver/ipm.hpp"

namespace sora::solver {

struct BlockSolveOptions {
  IpmOptions ipm;
  bool warm_start = true;
  /// Blend factor pulling the previous optimum toward the strictly interior
  /// anchor (escalated through {pull, 0.25, 0.5} until the blend clears the
  /// interior margin, matching core/p2_subproblem).
  double warm_start_pull = 0.05;
};

class BlockBarrier {
 public:
  BlockBarrier() = default;

  BlockBarrier(const BlockBarrier&) = delete;
  BlockBarrier& operator=(const BlockBarrier&) = delete;
  BlockBarrier(BlockBarrier&&) = default;
  BlockBarrier& operator=(BlockBarrier&&) = default;

  /// Install the block's constraints G x <= h. The CSR STRUCTURE must stay
  /// fixed across the block's lifetime for the symbolic cache to pay off;
  /// use mutable_values()/mutable_rhs() to patch values between solves.
  /// Calling set_problem again drops warm-start state and the cache.
  void set_problem(linalg::SparseMatrix g, linalg::Vec h);

  /// In-place value patching between solves (same sparsity / row count).
  linalg::SparseMatrix& mutable_constraints() { return g_; }
  linalg::Vec& mutable_rhs() { return h_; }

  /// min_r (h - G v)_r : positive iff v is strictly interior.
  double min_slack(const linalg::Vec& v);

  /// Solve min f(x) s.t. G x <= h, warm-starting from the previous optimum
  /// when available (blended toward `anchor` until strictly interior).
  /// `anchor` must itself be strictly interior; if neither the blend nor the
  /// anchor clears the margin the result reports kNumericalError without
  /// invoking the IPM. On success the optimum is retained as the next
  /// warm-start seed.
  IpmResult solve(const ConvexObjective& objective, const linalg::Vec& anchor,
                  const BlockSolveOptions& options);

  bool has_warm_start() const { return has_last_; }
  const linalg::Vec& last_optimum() const { return last_opt_; }
  /// Drop warm-start state (keeps the symbolic cache, which depends only on
  /// structure).
  void reset_warm_start() { has_last_ = false; }

 private:
  linalg::SparseMatrix g_;
  linalg::Vec h_;
  linalg::Vec last_opt_, start_, slack_buf_;
  bool has_last_ = false;
  IpmScratch scratch_;
};

}  // namespace sora::solver
