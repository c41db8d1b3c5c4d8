// Exact solver for the MPC box QP (mpc.cpp assembles it).
//
// The Hessian is block diagonal over the control-horizon blocks, each block
// a diagonal plus a rank-one term:
//
//     H = blkdiag_b( diag(R) + c_b k k^T ),   b = 0..Lc-1
//
// with k >= 0 the per-core power gains, R >= 0 the per-core control
// penalties and c_b = Q * (prediction steps mapped to block b). Each block
// is a continuous quadratic knapsack problem (Kiwiel, Math. Prog. 2008):
// for a fixed s = k^T x it separates into x_i(s) = clamp(-(g_i + c k_i s)
// / r_i, l_i, u_i), and phi(s) = k^T x(s) - s is piecewise linear and
// strictly decreasing, so locating the segment that holds its root solves
// the block exactly. DESIGN.md §7.1 states the pass and error bounds.
#pragma once

#include <cstddef>

#include "control/matrix.hpp"

namespace sprintcon::control {

/// Box QP whose Hessian is blkdiag_b(diag(penalty) + rank_weight[b] k k^T).
/// `gradient`, `lower`, `upper` have length gains.size() * rank_weight.size()
/// and are stacked block-major (block b occupies [b*n, (b+1)*n)).
struct StructuredBlockQp {
  Vector gains;        ///< k >= 0, length n (shared by every block)
  Vector penalty;      ///< R diagonal >= 0, length n (shared by every block)
  Vector rank_weight;  ///< c_b >= 0 per block, length Lc
  Vector gradient;     ///< linear term g, length n * Lc
  Vector lower;        ///< finite elementwise lower bounds, length n * Lc
  Vector upper;        ///< finite elementwise upper bounds, length n * Lc

  std::size_t block_size() const noexcept { return gains.size(); }
  std::size_t num_blocks() const noexcept { return rank_weight.size(); }
  std::size_t dim() const noexcept { return gradient.size(); }

  /// Validate the invariants; throws InvalidArgumentError.
  void validate() const;
};

/// Result of a QP solve.
struct QpResult {
  Vector x;            ///< minimizer (always inside the box)
  /// Segment-search passes summed over the blocks: each pass is one O(n)
  /// evaluation of phi, its slope and its neighbouring breakpoints. The
  /// per-block set-up and finishing passes are not counted.
  int iterations = 0;
  /// False only if a block's search exceeded its 2n+1 pass bound, which
  /// exact arithmetic rules out (a guard against non-finite data).
  bool converged = false;
};

/// Reusable buffers for solve_structured_qp. Vectors grow to the problem
/// dimension on first use and are reused verbatim afterwards.
struct StructuredQpScratch {
  Vector inv_penalty;        ///< 1/r_i, 0 where r_i == 0
  Vector inv_gains;          ///< 1/k_i, 0 where k_i == 0
  Vector gain_over_penalty;  ///< k_i / r_i, 0 where r_i == 0
  /// Breakpoints of the block being solved: x_i(s) = u_i for s below
  /// upper_below[i], l_i for s at or above lower_from[i], free between.
  Vector upper_below;
  Vector lower_from;
};

/// Projected-gradient residual ||x - clamp(x - (Hx + g))||_inf, evaluated
/// in O(n Lc) with no temporaries; zero exactly at a KKT point.
double structured_residual(const StructuredBlockQp& qp, const Vector& x);

/// Solve the structured box QP exactly. `x0` only seeds each block's
/// search at s = k^T x0 (pass the previous solution for warm starts).
/// Validates `qp` first; writes the minimizer into `result` (whose vector
/// capacity is reused across calls).
void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         StructuredQpScratch& scratch, QpResult& result);

/// solve_structured_qp without the validation pass, for a caller that has
/// already checked everything validate() checks (the MPC checks its
/// MpcProblem while assembling the QP). Hot path (SPRINTCON_HOT): once the
/// scratch buffers have grown to fit, it never allocates.
void solve_structured_qp_unchecked(const StructuredBlockQp& qp,
                                   const Vector& x0,
                                   StructuredQpScratch& scratch,
                                   QpResult& result);

}  // namespace sprintcon::control
