// Test-side reference solvers for the MPC's box QP.
//
//  - solve_box_qp: a dense FISTA projected-gradient solve of
//        minimize 1/2 x^T H x + g^T x  subject to lo <= x <= hi
//    for any symmetric PSD H. Slow (O(n^2) per iteration) and accurate only
//    to its tolerance, but it knows nothing about the structure the
//    production solver exploits, so it is an independent check.
//  - structured_reference: the exact minimizer of a StructuredBlockQp in
//    extended precision (__float128 where the compiler has it, else long
//    double), rounded to double. It is the yardstick for the production
//    solver's rounding error.
#pragma once

#include <cstddef>

#include "control/matrix.hpp"
#include "control/structured_qp.hpp"

namespace sprintcon::control {

/// Problem definition for min 1/2 x'Hx + g'x s.t. lo <= x <= hi.
struct BoxQp {
  Matrix hessian;   ///< symmetric PSD, n x n
  Vector gradient;  ///< linear term g, length n
  Vector lower;     ///< elementwise lower bounds
  Vector upper;     ///< elementwise upper bounds
};

struct BoxQpOptions {
  int max_iterations = 500;
  /// Stop when the projected-gradient residual (infinity norm) is below
  /// this threshold.
  double tolerance = 1e-8;
};

struct BoxQpResult {
  Vector x;            ///< solution (always feasible: clamped each iterate)
  int iterations = 0;  ///< iterations actually performed
  bool converged = false;
  double residual = 0.0;  ///< final projected-gradient residual (inf norm)
};

/// Solve a box-constrained QP. `x0` seeds the iteration (clamped to the box
/// first).
BoxQpResult solve_box_qp(const BoxQp& qp, const Vector& x0,
                         const BoxQpOptions& options = {});

/// Projected-gradient residual ||x - clamp(x - grad)||_inf at a point;
/// zero exactly at a KKT point of the box QP.
double box_qp_residual(const BoxQp& qp, const Vector& x);

/// Objective value 1/2 x'Hx + g'x.
double box_qp_objective(const BoxQp& qp, const Vector& x);

/// Objective 1/2 x'Hx + g'x of a structured problem, evaluated blockwise
/// without materializing H (cross-checks densify()).
double structured_objective(const StructuredBlockQp& qp, const Vector& x);

/// Materialize the dense equivalent of a structured problem.
BoxQp densify(const StructuredBlockQp& sqp);

/// Exact minimizer of a structured QP, computed in extended precision and
/// rounded to double. Where zero penalties make the minimizer non-unique it
/// breaks ties the way the production solver documents (l_i where the
/// gradient term is >= 0; a shared step filled in index order).
Vector structured_reference(const StructuredBlockQp& qp);

}  // namespace sprintcon::control
