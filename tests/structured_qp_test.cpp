// Tests for the exact structured MPC QP solver: agreement with the dense
// FISTA oracle and with the extended-precision reference (tests/box_qp.hpp)
// under adversarial conditioning, its pass bound, and the shape of the
// solves on the canonical rig.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "box_qp.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/linalg.hpp"
#include "control/mpc.hpp"
#include "control/structured_qp.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::control {
namespace {

StructuredBlockQp random_problem(Rng& rng, std::size_t n, std::size_t blocks) {
  StructuredBlockQp sqp;
  sqp.gains.resize(n);
  sqp.penalty.resize(n);
  sqp.rank_weight.resize(blocks);
  const std::size_t dim = n * blocks;
  sqp.gradient.resize(dim);
  sqp.lower.resize(dim);
  sqp.upper.resize(dim);
  for (std::size_t i = 0; i < n; ++i) {
    sqp.gains[i] = rng.uniform(0.0, 25.0);
    sqp.penalty[i] = rng.uniform(0.1, 8.0);
  }
  for (std::size_t b = 0; b < blocks; ++b)
    sqp.rank_weight[b] = rng.uniform(0.0, 4.0);
  for (std::size_t i = 0; i < dim; ++i) {
    sqp.gradient[i] = rng.uniform(-50.0, 50.0);
    sqp.lower[i] = rng.uniform(0.1, 0.4);
    sqp.upper[i] = rng.uniform(0.6, 1.0);
  }
  return sqp;
}

TEST(StructuredQp, ObjectiveAndResidualMatchDense) {
  Rng rng(32);
  const StructuredBlockQp sqp = random_problem(rng, 4, 2);
  const BoxQp dense = densify(sqp);
  Vector x(sqp.dim());
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  EXPECT_NEAR(structured_objective(sqp, x), box_qp_objective(dense, x), 1e-8);
  EXPECT_NEAR(structured_residual(sqp, x), box_qp_residual(dense, x), 1e-9);
}

TEST(StructuredQp, SolverMatchesDenseSolver) {
  Rng rng(34);
  BoxQpOptions opts;
  opts.max_iterations = 5000;
  opts.tolerance = 1e-11;
  StructuredQpScratch scratch;
  QpResult structured;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    const std::size_t blocks = 1 + static_cast<std::size_t>(trial % 3);
    const StructuredBlockQp sqp = random_problem(rng, n, blocks);
    const BoxQp dense = densify(sqp);
    Vector x0(sqp.dim(), 0.5);
    solve_structured_qp(sqp, x0, scratch, structured);
    const BoxQpResult ref = solve_box_qp(dense, x0, opts);
    EXPECT_TRUE(structured.converged);
    EXPECT_TRUE(ref.converged);
    for (std::size_t i = 0; i < sqp.dim(); ++i)
      EXPECT_NEAR(structured.x[i], ref.x[i], 1e-9)
          << "trial " << trial << " component " << i;
  }
}

TEST(StructuredQp, InvalidProblemThrows) {
  Rng rng(35);
  StructuredBlockQp sqp = random_problem(rng, 3, 2);
  StructuredQpScratch scratch;
  QpResult result;
  sqp.penalty[0] = -1.0;
  EXPECT_THROW(
      solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), scratch, result),
      InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  sqp.lower[2] = 2.0;  // crosses upper
  EXPECT_THROW(
      solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), scratch, result),
      InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  EXPECT_THROW(solve_structured_qp(sqp, Vector(2, 0.5), scratch, result),
               InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  sqp.gains[1] = -1.0;
  EXPECT_THROW(
      solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), scratch, result),
      InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  sqp.upper[4] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(
      solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), scratch, result),
      InvalidArgumentError);
}

// --- oracle property test ----------------------------------------------------

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// The MPC's own shape: one gain per rack, penalties from `profiles`
/// distinct job weights each shared by `n / profiles` identical cores, and
/// g_i = -q k ref_sum - r_i f_max. Clustered breakpoints like these make
/// plain Newton on phi 2-cycle.
StructuredBlockQp clustered_problem(Rng& rng, std::size_t profiles,
                                    std::size_t per_profile) {
  const std::size_t n = profiles * per_profile;
  StructuredBlockQp sqp;
  const double k = rng.uniform(15.0, 30.0);
  sqp.gains.assign(n, k);
  sqp.penalty.resize(n);
  for (std::size_t p = 0; p < profiles; ++p) {
    const double w = std::max(log_uniform(rng, 1e-4, 100.0), 1e-3);
    for (std::size_t j = 0; j < per_profile; ++j)
      sqp.penalty[p * per_profile + j] = w * 0.02 * k * k;
  }
  sqp.rank_weight = {1.0, 7.0};
  sqp.gradient.resize(2 * n);
  sqp.lower.assign(2 * n, 0.3);
  sqp.upper.assign(2 * n, 1.0);
  const double target = rng.uniform(0.4, 0.9) * k * static_cast<double>(n);
  for (std::size_t b = 0; b < 2; ++b) {
    const double ref_sum = sqp.rank_weight[b] * target;
    for (std::size_t i = 0; i < n; ++i) {
      sqp.gradient[b * n + i] =
          -k * ref_sum - sqp.penalty[i] * sqp.upper[b * n + i];
    }
  }
  return sqp;
}

enum class Case {
  kWideConditioning,  ///< gains 1e-3..1e3, penalties 1e-3..1e3
  kZeroPenalty,       ///< some r_i = 0: phi has step breakpoints
  kZeroGain,          ///< some k_i = 0 (some with r_i = 0 too)
  kPointBoxes,        ///< some l_i = u_i
  kRootOnLowerEnd,    ///< every coordinate wants its lower bound
  kRootOnUpperEnd,    ///< every coordinate wants its upper bound
  kClustered,         ///< 8 profiles x 8 identical cores
};

StructuredBlockQp make_case(Case c, Rng& rng) {
  if (c == Case::kClustered) return clustered_problem(rng, 8, 8);
  const std::size_t n = 1 + rng.uniform_index(24);
  const std::size_t blocks = 1 + rng.uniform_index(3);
  StructuredBlockQp sqp = random_problem(rng, n, blocks);
  for (std::size_t i = 0; i < n; ++i) {
    sqp.gains[i] = log_uniform(rng, 1e-3, 1e3);
    sqp.penalty[i] = log_uniform(rng, 1e-3, 1e3);
  }
  for (std::size_t b = 0; b < blocks; ++b)
    sqp.rank_weight[b] = log_uniform(rng, 0.1, 10.0);
  for (std::size_t i = 0; i < sqp.dim(); ++i) {
    const double k = sqp.gains[i % n];
    sqp.gradient[i] =
        k * rng.uniform(-1.0, 1.0) * 10.0 * static_cast<double>(n);
  }
  switch (c) {
    case Case::kZeroPenalty:
      for (std::size_t i = 0; i < n; ++i)
        if (rng.bernoulli(0.4)) sqp.penalty[i] = 0.0;
      break;
    case Case::kZeroGain:
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3)) sqp.gains[i] = 0.0;
        if (rng.bernoulli(0.2)) sqp.penalty[i] = 0.0;
      }
      break;
    case Case::kPointBoxes:
      for (std::size_t i = 0; i < sqp.dim(); ++i)
        if (rng.bernoulli(0.3)) sqp.upper[i] = sqp.lower[i];
      break;
    case Case::kRootOnLowerEnd:
      for (double& g : sqp.gradient) g = std::abs(g) + 1e6;
      break;
    case Case::kRootOnUpperEnd:
      for (double& g : sqp.gradient) g = -std::abs(g) - 1e6;
      break;
    default:
      break;
  }
  return sqp;
}

/// Stated accuracy of the solver against the exact minimizer (DESIGN.md §7.1
/// derives it): the worst case seen over these cases is ~5e-15 on boxes of
/// unit scale, and the bound leaves a 20x margin.
constexpr double kAbsErrorBound = 1e-13;

class StructuredQpOracle : public ::testing::TestWithParam<Case> {};

TEST_P(StructuredQpOracle, ExactWithinBoundAndPassBound) {
  Rng rng(4200 + static_cast<std::uint64_t>(GetParam()));
  StructuredQpScratch scratch;
  QpResult res;
  BoxQpOptions dense_opts;
  dense_opts.max_iterations = 20000;
  dense_opts.tolerance = 1e-10;
  for (int trial = 0; trial < 40; ++trial) {
    const StructuredBlockQp sqp = make_case(GetParam(), rng);
    Vector x0(sqp.dim());
    for (std::size_t i = 0; i < x0.size(); ++i)
      x0[i] = rng.uniform(sqp.lower[i], sqp.upper[i]);
    solve_structured_qp(sqp, x0, scratch, res);
    ASSERT_TRUE(res.converged) << "trial " << trial;
    const int bound = static_cast<int>(sqp.num_blocks() *
                                       (2 * sqp.block_size() + 1));
    EXPECT_LE(res.iterations, bound) << "trial " << trial;

    for (std::size_t i = 0; i < sqp.dim(); ++i) {
      EXPECT_GE(res.x[i], sqp.lower[i]);
      EXPECT_LE(res.x[i], sqp.upper[i]);
    }
    // Extended-precision reference: the minimizer itself.
    const Vector ref = structured_reference(sqp);
    double err = 0.0;
    for (std::size_t i = 0; i < sqp.dim(); ++i)
      err = std::max(err, std::abs(res.x[i] - ref[i]));
    EXPECT_LE(err, kAbsErrorBound) << "trial " << trial;

    // Dense FISTA oracle: independent of the structure, it must not find
    // a lower objective (it is only tolerance-accurate, so compare values).
    // Its O(dim^2) iterations are too slow for the 128-wide clustered case,
    // which the reference covers.
    if (sqp.dim() > 72) continue;
    const BoxQp dense = densify(sqp);
    const BoxQpResult d = solve_box_qp(dense, x0, dense_opts);
    const double f = box_qp_objective(dense, res.x);
    const double f_dense = box_qp_objective(dense, d.x);
    EXPECT_LE(f, f_dense + 1e-9 * (1.0 + std::abs(f_dense)))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StructuredQpOracle,
    ::testing::Values(Case::kWideConditioning, Case::kZeroPenalty,
                      Case::kZeroGain, Case::kPointBoxes,
                      Case::kRootOnLowerEnd, Case::kRootOnUpperEnd,
                      Case::kClustered),
    [](const ::testing::TestParamInfo<Case>& info) -> std::string {
      switch (info.param) {
        case Case::kWideConditioning: return "WideConditioning";
        case Case::kZeroPenalty: return "ZeroPenalty";
        case Case::kZeroGain: return "ZeroGain";
        case Case::kPointBoxes: return "PointBoxes";
        case Case::kRootOnLowerEnd: return "RootOnLowerEnd";
        case Case::kRootOnUpperEnd: return "RootOnUpperEnd";
        case Case::kClustered: return "Clustered";
      }
      return "Unknown";
    });

TEST(StructuredQp, SharedZeroPenaltyStepAbsorbsTheRoot) {
  // Two zero-penalty coordinates with the same step: phi jumps across zero
  // there, so s* sits exactly on the step and the pair takes up
  // k^T x = s* in index order while the third coordinate stays interior.
  StructuredBlockQp sqp;
  sqp.gains = {1.0, 1.0, 1.0};
  sqp.penalty = {0.0, 0.0, 1.0};
  sqp.rank_weight = {1.0};
  sqp.gradient = {-1.5, -1.5, -1.0};  // steps at s = 1.5
  sqp.lower.assign(3, 0.0);
  sqp.upper.assign(3, 1.0);
  StructuredQpScratch scratch;
  QpResult res;
  solve_structured_qp(sqp, Vector(3, 0.0), scratch, res);
  ASSERT_TRUE(res.converged);
  // At s = 1.5 the interior coordinate is clamp(-(-1 + 1.5)/1) = 0.
  EXPECT_DOUBLE_EQ(res.x[2], 0.0);
  EXPECT_DOUBLE_EQ(res.x[0] + res.x[1], 1.5);
  EXPECT_DOUBLE_EQ(res.x[0], 1.0);
  EXPECT_LE(structured_residual(sqp, res.x), 1e-15);
}

// --- canonical rig: the shape of every solve --------------------------------

TEST(StructuredQpGuard, CanonicalRigSolvesTakeFewPasses) {
  // Deterministic, no timing: the canonical rig over the evaluation seeds
  // must never hit the pass bound, and must average <= 4 search passes per
  // block (<= 8 per two-block solve). A slide back to bisection-style
  // grinding shows up here as a jump in passes per solve.
  for (std::uint64_t seed = 42; seed <= 49; ++seed) {
    scenario::RigConfig cfg;
    cfg.seed = seed;
    cfg.observability = true;
    scenario::Rig rig(cfg);
    rig.run();
    const obs::RunReport report = rig.report();
    const auto solves = report.metrics.counter("mpc.solves.structured");
    ASSERT_GT(solves, 0u) << "seed " << seed;
    EXPECT_EQ(report.metrics.counter("mpc.qp.not_converged"), 0u)
        << "seed " << seed;
    const double per_solve =
        static_cast<double>(report.metrics.counter("mpc.qp.iterations")) /
        static_cast<double>(solves);
    EXPECT_LE(per_solve, 8.0) << "seed " << seed;
  }
}

// --- structured MPC vs a dense assembly of the same cost ---------------------

MpcProblem random_mpc_problem(Rng& rng, std::size_t n) {
  MpcProblem p;
  p.gains_w_per_f.resize(n);
  p.freq_current.resize(n);
  p.freq_min.resize(n);
  p.freq_max.resize(n);
  p.penalty_weights.resize(n);
  double nominal = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p.gains_w_per_f[i] = rng.uniform(10.0, 30.0);
    p.freq_min[i] = rng.uniform(0.1, 0.3);
    p.freq_max[i] = rng.uniform(0.7, 1.0);
    p.freq_current[i] = rng.uniform(p.freq_min[i], p.freq_max[i]);
    p.penalty_weights[i] = rng.uniform(0.5, 8.0);
    nominal += p.gains_w_per_f[i] * p.freq_current[i];
  }
  p.power_feedback_w = nominal;
  p.power_target_w = nominal * rng.uniform(0.6, 1.4);
  return p;
}

/// The MPC cost (Eq. 7-9) assembled independently as a dense box QP over
/// z = [F(t+1); ...; F(t+Lc)]: predicted power at step s uses block
/// min(s, Lc), with a control penalty R on (z_b - F_max).
BoxQp dense_mpc_qp(const MpcConfig& cfg, const MpcProblem& p) {
  const std::size_t n = p.gains_w_per_f.size();
  const std::size_t lc = cfg.control_horizon;
  const std::size_t lp = cfg.prediction_horizon;
  const std::size_t dim = n * lc;
  const double decay =
      std::exp(-cfg.control_period_s / cfg.reference_time_constant_s);
  const double pred_base =
      p.power_feedback_w - dot(p.gains_w_per_f, p.freq_current);
  Vector reference(lp);
  double e = p.power_target_w - p.power_feedback_w;
  for (std::size_t s = 0; s < lp; ++s) {
    e *= decay;
    reference[s] = p.power_target_w - e;
  }
  BoxQp qp;
  qp.hessian = Matrix(dim, dim, 0.0);
  qp.gradient.assign(dim, 0.0);
  qp.lower.assign(dim, 0.0);
  qp.upper.assign(dim, 0.0);
  const double q = cfg.tracking_weight;
  for (std::size_t b = 0; b < lc; ++b) {
    const std::size_t last = (b + 1 == lc) ? lp - 1 : b;
    double steps = 0.0;
    double ref_sum = 0.0;
    for (std::size_t s = b; s <= last; ++s) {
      steps += 1.0;
      ref_sum += reference[s] - pred_base;
    }
    const std::size_t off = b * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double ki = p.gains_w_per_f[i];
      for (std::size_t j = 0; j < n; ++j)
        qp.hessian(off + i, off + j) += q * steps * ki * p.gains_w_per_f[j];
      qp.hessian(off + i, off + i) += p.penalty_weights[i];
      qp.gradient[off + i] =
          -q * ki * ref_sum - p.penalty_weights[i] * p.freq_max[i];
      qp.lower[off + i] = p.freq_min[i];
      qp.upper[off + i] = p.freq_max[i];
    }
  }
  if (cfg.max_slew_per_period > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      qp.lower[i] =
          std::max(qp.lower[i], p.freq_current[i] - cfg.max_slew_per_period);
      qp.upper[i] =
          std::min(qp.upper[i], p.freq_current[i] + cfg.max_slew_per_period);
      if (qp.lower[i] > qp.upper[i]) {
        qp.lower[i] = p.freq_min[i];
        qp.upper[i] = p.freq_max[i];
      }
    }
  }
  return qp;
}

Vector dense_mpc_freq(const MpcConfig& cfg, const MpcProblem& p) {
  BoxQpOptions opts;
  opts.max_iterations = 20000;
  opts.tolerance = 1e-11;
  const BoxQp qp = dense_mpc_qp(cfg, p);
  Vector x0;
  for (std::size_t b = 0; b < cfg.control_horizon; ++b)
    x0.insert(x0.end(), p.freq_current.begin(), p.freq_current.end());
  const BoxQpResult r = solve_box_qp(qp, x0, opts);
  EXPECT_TRUE(r.converged) << "residual " << r.residual;
  const auto n = static_cast<std::ptrdiff_t>(p.freq_current.size());
  return Vector(r.x.begin(), r.x.begin() + n);
}

TEST(StructuredMpc, MatchesDenseControllerAcrossRandomProblems) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    MpcConfig cfg;
    cfg.prediction_horizon = 4 + static_cast<std::size_t>(trial % 5);
    cfg.control_horizon = 1 + static_cast<std::size_t>(trial % 3);
    MpcPowerController structured(cfg);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 7);
    // Warm-started sequence: the controller must match a cold dense solve
    // of the same cost step by step, not just on its first solve.
    MpcProblem p = random_mpc_problem(rng, n);
    for (int step = 0; step < 4; ++step) {
      const MpcOutput a = structured.step(p);
      const Vector b = dense_mpc_freq(cfg, p);
      ASSERT_EQ(a.freq_next.size(), b.size());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(a.freq_next[i], b[i], 1e-9)
            << "trial " << trial << " step " << step << " core " << i;
      const double pred_base =
          p.power_feedback_w - dot(p.gains_w_per_f, p.freq_current);
      EXPECT_NEAR(a.predicted_power_w,
                  pred_base + dot(p.gains_w_per_f, b), 1e-6);
      p.freq_current = a.freq_next;
      p.power_feedback_w =
          dot(p.gains_w_per_f, p.freq_current) * rng.uniform(0.95, 1.05);
    }
  }
}

TEST(StructuredMpc, MatchesDenseWithSlewLimit) {
  MpcConfig cfg;
  cfg.max_slew_per_period = 0.07;
  MpcPowerController structured(cfg);
  Rng rng(78);
  const MpcProblem p = random_mpc_problem(rng, 6);
  const MpcOutput a = structured.step(p);
  const Vector b = dense_mpc_freq(cfg, p);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(a.freq_next[i], b[i], 1e-9);
    EXPECT_LE(a.freq_next[i], p.freq_current[i] + 0.07 + 1e-9);
  }
}

TEST(StructuredMpc, InPlaceStepReusesOutputBuffers) {
  MpcConfig cfg;
  MpcPowerController mpc(cfg);
  Rng rng(79);
  const MpcProblem p = random_mpc_problem(rng, 4);
  MpcOutput out;
  mpc.step(p, out);
  const double* freq_data = out.freq_next.data();
  const double* x_data = out.qp.x.data();
  for (int step = 0; step < 5; ++step) mpc.step(p, out);
  // Same problem shape => the output vectors must not have reallocated.
  EXPECT_EQ(out.freq_next.data(), freq_data);
  EXPECT_EQ(out.qp.x.data(), x_data);
}

}  // namespace
}  // namespace sprintcon::control
