#include "box_qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/validation.hpp"
#include "control/linalg.hpp"

namespace sprintcon::control {

namespace {

void check_problem(const BoxQp& qp) {
  const std::size_t n = qp.gradient.size();
  SPRINTCON_EXPECTS(qp.hessian.rows() == n && qp.hessian.cols() == n,
                    "QP Hessian dimension mismatch");
  SPRINTCON_EXPECTS(qp.lower.size() == n && qp.upper.size() == n,
                    "QP bound dimension mismatch");
  for (std::size_t i = 0; i < n; ++i)
    SPRINTCON_EXPECTS(qp.lower[i] <= qp.upper[i], "QP bounds crossed");
}

Vector gradient_at(const BoxQp& qp, const Vector& x) {
  Vector g = qp.hessian * x;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] += qp.gradient[i];
  return g;
}

}  // namespace

double box_qp_objective(const BoxQp& qp, const Vector& x) {
  const Vector hx = qp.hessian * x;
  return 0.5 * dot(x, hx) + dot(qp.gradient, x);
}

double box_qp_residual(const BoxQp& qp, const Vector& x) {
  const Vector g = gradient_at(qp, x);
  double r = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double stepped = std::clamp(x[i] - g[i], qp.lower[i], qp.upper[i]);
    r = std::max(r, std::abs(x[i] - stepped));
  }
  return r;
}

BoxQpResult solve_box_qp(const BoxQp& qp, const Vector& x0,
                         const BoxQpOptions& options) {
  check_problem(qp);
  const std::size_t n = qp.gradient.size();
  SPRINTCON_EXPECTS(x0.size() == n, "QP warm-start dimension mismatch");
  SPRINTCON_EXPECTS(options.max_iterations > 0, "QP needs >= 1 iteration");

  BoxQpResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Lipschitz constant of the gradient = lambda_max(H); the power-iteration
  // estimate can slightly undershoot, so pad it before inverting.
  const double lmax = power_iteration_max_eig(qp.hessian);
  const double step = 1.0 / std::max(lmax * 1.05, 1e-12);

  Vector x = clamp(x0, qp.lower, qp.upper);
  Vector y = x;  // FISTA extrapolation point
  double t_momentum = 1.0;

  for (int it = 0; it < options.max_iterations; ++it) {
    const Vector g = gradient_at(qp, y);
    Vector x_next(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_next[i] = std::clamp(y[i] - step * g[i], qp.lower[i], qp.upper[i]);
    }

    // O'Donoghue-Candes gradient restart: when the momentum direction
    // opposes the descent direction, drop the momentum. Restores linear
    // convergence on strongly convex problems, where plain FISTA
    // oscillates.
    double restart_test = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      restart_test += g[i] * (x_next[i] - x[i]);
    if (restart_test > 0.0) t_momentum = 1.0;

    const double t_next =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
    const double beta = (t_momentum - 1.0) / t_next;
    for (std::size_t i = 0; i < n; ++i)
      y[i] = x_next[i] + beta * (x_next[i] - x[i]);
    x = std::move(x_next);
    t_momentum = t_next;
    result.iterations = it + 1;

    // Convergence check on the true iterate (not the extrapolated point).
    const double res = box_qp_residual(qp, x);
    if (res < options.tolerance) {
      result.converged = true;
      result.residual = res;
      result.x = std::move(x);
      return result;
    }
  }

  result.residual = box_qp_residual(qp, x);
  result.converged = result.residual < options.tolerance;
  result.x = std::move(x);
  return result;
}

BoxQp densify(const StructuredBlockQp& sqp) {
  const std::size_t n = sqp.block_size();
  const std::size_t blocks = sqp.num_blocks();
  const std::size_t dim = sqp.dim();
  BoxQp qp;
  qp.hessian = Matrix(dim, dim, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j)
        qp.hessian(off + i, off + j) +=
            sqp.rank_weight[b] * sqp.gains[i] * sqp.gains[j];
      qp.hessian(off + i, off + i) += sqp.penalty[i];
    }
  }
  qp.gradient = sqp.gradient;
  qp.lower = sqp.lower;
  qp.upper = sqp.upper;
  return qp;
}

double structured_objective(const StructuredBlockQp& qp, const Vector& x) {
  const std::size_t n = qp.block_size();
  const std::size_t blocks = qp.num_blocks();
  double obj = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    double kx = 0.0;
    double quad = 0.0;
    double lin = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[off + i];
      kx += qp.gains[i] * xi;
      quad += qp.penalty[i] * xi * xi;
      lin += qp.gradient[off + i] * xi;
    }
    obj += 0.5 * (quad + qp.rank_weight[b] * kx * kx) + lin;
  }
  return obj;
}

// --- extended-precision reference -------------------------------------------

namespace {

#if defined(__SIZEOF_FLOAT128__)
__extension__ typedef __float128 Quad;
#else
typedef long double Quad;
#endif

template <typename T>
T clamp_to(T v, double lo, double hi) {
  return v < T(lo) ? T(lo) : (v > T(hi) ? T(hi) : v);
}

struct RefBlock {
  std::size_t n;
  double c;
  const double* k;
  const double* r;
  const double* g;
  const double* l;
  const double* u;
};

/// x_i at the scalar s: the separable minimizer, with zero-penalty
/// coordinates at u_i strictly below their step and l_i from it on.
template <typename T>
T coordinate_at(const RefBlock& bk, std::size_t i, T s) {
  const T d = T(bk.g[i]) + T(bk.c) * T(bk.k[i]) * s;
  if (bk.r[i] > 0.0) return clamp_to(-d / T(bk.r[i]), bk.l[i], bk.u[i]);
  return d < T(0) ? T(bk.u[i]) : T(bk.l[i]);
}

template <typename T>
T phi_at(const RefBlock& bk, T s) {
  T acc = -s;
  for (std::size_t i = 0; i < bk.n; ++i)
    acc += T(bk.k[i]) * coordinate_at(bk, i, s);
  return acc;
}

void reference_block(const RefBlock& bk, double* out) {
  if (!(bk.c > 0.0)) {
    for (std::size_t i = 0; i < bk.n; ++i)
      out[i] = static_cast<double>(coordinate_at(bk, i, Quad(0)));
    return;
  }
  // 1. Bisection in long double down to adjacent representable points.
  long double lo = 0.0L;
  long double hi = 0.0L;
  for (std::size_t i = 0; i < bk.n; ++i) {
    lo += static_cast<long double>(bk.k[i]) * bk.l[i];
    hi += static_cast<long double>(bk.k[i]) * bk.u[i];
  }
  for (int it = 0; it < 400; ++it) {
    const long double mid = 0.5L * (lo + hi);
    if (!(mid > lo && mid < hi)) break;
    if (phi_at(bk, mid) > 0.0L) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // 2. A zero-penalty step inside the final bracket is where phi jumps
  //    across zero: the root sits exactly on it.
  std::vector<Quad> x(bk.n);
  for (std::size_t j = 0; j < bk.n; ++j) {
    if (bk.r[j] > 0.0 || !(bk.k[j] > 0.0)) continue;
    const Quad step = -Quad(bk.g[j]) / (Quad(bk.c) * Quad(bk.k[j]));
    // The bisection ran in long double, so its bracket can miss the step
    // by the rounding of its own comparisons: allow a few of its ulps.
    const long double slack =
        4.0L * ((hi - lo) +
                std::abs(hi) * std::numeric_limits<long double>::epsilon());
    if (step < Quad(lo - slack) || step > Quad(hi + slack)) continue;
    const auto on_step = [&](std::size_t i) {
      return bk.r[i] == 0.0 && bk.k[i] > 0.0 &&
             -Quad(bk.g[i]) / (Quad(bk.c) * Quad(bk.k[i])) == step;
    };
    Quad rest = step;
    for (std::size_t i = 0; i < bk.n; ++i) {
      x[i] = on_step(i) ? Quad(bk.l[i]) : coordinate_at(bk, i, step);
      rest -= Quad(bk.k[i]) * x[i];
    }
    for (std::size_t i = 0; i < bk.n; ++i) {
      if (!on_step(i)) continue;
      Quad take = rest / Quad(bk.k[i]);
      take = clamp_to(take, 0.0, bk.u[i] - bk.l[i]);
      x[i] = Quad(bk.l[i]) + take;
      rest -= Quad(bk.k[i]) * take;
    }
    for (std::size_t i = 0; i < bk.n; ++i) out[i] = static_cast<double>(x[i]);
    return;
  }
  // 3. Otherwise phi is continuous at the root: solve its segment's line in
  //    extended precision, re-classifying at the new root until the free
  //    set is stable.
  Quad s = Quad(0.5L * (lo + hi));
  for (int round = 0; round < 16; ++round) {
    Quad num = 0;
    Quad den = 1;
    for (std::size_t i = 0; i < bk.n; ++i) {
      const Quad k = bk.k[i];
      const Quad xi = coordinate_at(bk, i, s);
      const bool free = bk.r[i] > 0.0 && xi > Quad(bk.l[i]) &&
                        xi < Quad(bk.u[i]);
      if (free) {
        num -= k * Quad(bk.g[i]) / Quad(bk.r[i]);
        den += Quad(bk.c) * k * k / Quad(bk.r[i]);
      } else {
        num += k * xi;
      }
    }
    const Quad next = num / den;
    if (next == s) break;
    s = next;
  }
  for (std::size_t i = 0; i < bk.n; ++i)
    out[i] = static_cast<double>(coordinate_at(bk, i, s));
}

}  // namespace

Vector structured_reference(const StructuredBlockQp& qp) {
  qp.validate();
  const std::size_t n = qp.block_size();
  Vector x(qp.dim());
  for (std::size_t b = 0; b < qp.num_blocks(); ++b) {
    const std::size_t off = b * n;
    const RefBlock bk{n,
                      qp.rank_weight[b],
                      qp.gains.data(),
                      qp.penalty.data(),
                      qp.gradient.data() + off,
                      qp.lower.data() + off,
                      qp.upper.data() + off};
    reference_block(bk, x.data() + off);
  }
  return x;
}

}  // namespace sprintcon::control
