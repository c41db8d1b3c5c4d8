#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"
#include "control/linalg.hpp"

namespace sprintcon::control {

MpcPowerController::MpcPowerController(const MpcConfig& config)
    : config_(config),
      decay_(std::exp(-config.control_period_s /
                      config.reference_time_constant_s)) {
  SPRINTCON_EXPECTS(config.control_horizon >= 1, "control horizon >= 1");
  SPRINTCON_EXPECTS(config.prediction_horizon >= config.control_horizon,
                    "prediction horizon must cover the control horizon");
  SPRINTCON_EXPECTS(config.control_period_s > 0.0, "control period > 0");
  SPRINTCON_EXPECTS(config.reference_time_constant_s > 0.0, "tau_r > 0");
  SPRINTCON_EXPECTS(config.tracking_weight > 0.0, "tracking weight > 0");
}

MpcOutput MpcPowerController::step(const MpcProblem& problem) {
  MpcOutput out;
  step(problem, out);
  return out;
}

void MpcPowerController::set_obs(obs::ObsSink* sink) {
  obs_ = sink;
  met_ = ObsHandles{};
  if (sink == nullptr) return;
  auto& m = sink->metrics();
  met_.solves_structured = &m.counter("mpc.solves.structured");
  met_.qp_iterations = &m.counter("mpc.qp.iterations");
  met_.qp_not_converged = &m.counter("mpc.qp.not_converged");
  met_.exit_residual = &m.histogram("mpc.qp.exit_residual");
  met_.step_us = &m.histogram("mpc.step_us");
  met_.step_us_window = &m.windowed("mpc.step_us.window");
}

double MpcPowerController::assemble(const MpcProblem& p) {
  const std::size_t n = p.gains_w_per_f.size();
  SPRINTCON_EXPECTS(n > 0, "MPC problem needs at least one actuated core");
  SPRINTCON_EXPECTS(p.freq_current.size() == n, "freq_current size mismatch");
  SPRINTCON_EXPECTS(p.freq_min.size() == n, "freq_min size mismatch");
  SPRINTCON_EXPECTS(p.freq_max.size() == n, "freq_max size mismatch");
  SPRINTCON_EXPECTS(p.penalty_weights.size() == n,
                    "penalty_weights size mismatch");
  const std::size_t lc = config_.control_horizon;
  const std::size_t lp = config_.prediction_horizon;
  const std::size_t dim = n * lc;
  sqp_.gains.resize(n);
  sqp_.penalty.resize(n);
  sqp_.rank_weight.resize(lc);
  sqp_.gradient.resize(dim);
  sqp_.lower.resize(dim);
  sqp_.upper.resize(dim);

  // One pass checks the problem and copies the block-shared data. With
  // the constructor's checks (c_b = Q * steps > 0) and the slew limit
  // (which never crosses a box) this is everything
  // StructuredBlockQp::validate() would check.
  double kf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double k = p.gains_w_per_f[i];
    const double fmin = p.freq_min[i];
    const double fmax = p.freq_max[i];
    SPRINTCON_EXPECTS(fmin <= fmax, "frequency bounds crossed");
    SPRINTCON_EXPECTS(std::isfinite(fmin) && std::isfinite(fmax),
                      "frequency bounds must be finite");
    SPRINTCON_EXPECTS(p.penalty_weights[i] >= 0.0, "penalty must be >= 0");
    SPRINTCON_EXPECTS(k >= 0.0, "power gain must be non-negative");
    sqp_.gains[i] = k;
    sqp_.penalty[i] = p.penalty_weights[i];
    kf += k * p.freq_current[i];
  }
  // Constant part of the power prediction: p_fb(t) - K . F(t).
  const double pred_base = p.power_feedback_w - kf;

  // Reference trajectory (Eq. 7), r(x) = P - e^{-(T/tau) x} (P - p_fb) at
  // x = 1..Lp, folded straight into the per-block tracking sums: block b
  // covers prediction step b, the last block the rest of the horizon.
  const double q = config_.tracking_weight;
  double e = p.power_target_w - p.power_feedback_w;
  std::size_t step = 0;
  for (std::size_t b = 0; b < lc; ++b) {
    const std::size_t last = (b + 1 == lc) ? lp - 1 : b;
    double steps = 0.0;
    double ref_sum = 0.0;
    for (; step <= last; ++step) {
      e *= decay_;
      steps += 1.0;
      ref_sum += (p.power_target_w - e) - pred_base;
    }
    sqp_.rank_weight[b] = q * steps;
    const std::size_t off = b * n;
    double* gradient = sqp_.gradient.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      gradient[i] = -q * p.gains_w_per_f[i] * ref_sum -
                    p.penalty_weights[i] * p.freq_max[i];
    }
    std::copy(p.freq_min.begin(), p.freq_min.end(), sqp_.lower.begin() + off);
    std::copy(p.freq_max.begin(), p.freq_max.end(), sqp_.upper.begin() + off);
  }

  // Tighten the first block's bounds to the DVFS slew limit (the only block
  // that is actuated). Bounds may cross if the current frequency was set
  // outside the box (e.g. after the actuated set changed); fall back to the
  // hard bounds there.
  const double max_slew = config_.max_slew_per_period;
  if (max_slew > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      double& lower = sqp_.lower[i];
      double& upper = sqp_.upper[i];
      lower = std::max(lower, p.freq_current[i] - max_slew);
      upper = std::min(upper, p.freq_current[i] + max_slew);
      if (lower > upper) {
        lower = p.freq_min[i];
        upper = p.freq_max[i];
      }
    }
  }
  return pred_base;
}

void MpcPowerController::step(const MpcProblem& problem, MpcOutput& out) {
  const std::size_t n = problem.gains_w_per_f.size();
  {
    const obs::ScopedTimer timer(
        obs_ != nullptr ? met_.step_us : nullptr,
        obs_ != nullptr ? met_.step_us_window : nullptr);
    const obs::ScopedSpan span(obs_ != nullptr ? obs_->trace() : nullptr,
                               "mpc_solve", "decision", "horizon",
                               static_cast<double>(config_.prediction_horizon));
    const double pred_base = assemble(problem);

    // Warm start from the previous solution when the shape is unchanged.
    const std::size_t dim = sqp_.dim();
    const Vector* x0 = &warm_start_;
    if (warm_start_.size() != dim) {
      x0_.resize(dim);
      for (std::size_t b = 0; b < config_.control_horizon; ++b)
        std::copy(problem.freq_current.begin(), problem.freq_current.end(),
                  x0_.begin() + static_cast<std::ptrdiff_t>(b * n));
      x0 = &x0_;
    }
    solve_structured_qp_unchecked(sqp_, *x0, sqp_scratch_, out.qp);
    warm_start_ = out.qp.x;

    out.freq_next.assign(out.qp.x.begin(),
                         out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
    // A diagnostic, so its sum may use independent lanes.
    double kf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i)
      kf[i % 4] += problem.gains_w_per_f[i] * out.freq_next[i];
    out.predicted_power_w = pred_base + ((kf[0] + kf[1]) + (kf[2] + kf[3]));
  }
  if (obs_ != nullptr) {
    // Bookkeeping outside the timed scope: the KKT residual pass is an
    // observability cost, not part of the control step.
    met_.solves_structured->add();
    met_.qp_iterations->add(static_cast<std::uint64_t>(out.qp.iterations));
    if (!out.qp.converged) met_.qp_not_converged->add();
    met_.exit_residual->record(structured_residual(sqp_, out.qp.x));
  }
}

Matrix mpc_closed_loop_matrix(const MpcConfig& config,
                              const Vector& model_gains,
                              const Vector& true_gains,
                              const Vector& penalty) {
  SPRINTCON_EXPECTS(model_gains.size() == true_gains.size(),
                    "gain vector size mismatch");
  SPRINTCON_EXPECTS(model_gains.size() == penalty.size(),
                    "penalty vector size mismatch");
  const std::size_t n = model_gains.size();
  const double q = config.tracking_weight;
  const double gamma =
      1.0 - std::exp(-config.control_period_s /
                     config.reference_time_constant_s);

  // Unconstrained one-step law: M z = q K^T (r_1 - p_fb + K F) + R F_max
  // with M = q K^T K + R. Substituting r_1 - p_fb = gamma (P - p_fb) and
  // p_fb = K_true F + C gives the homogeneous part
  //   F(t+1) = M^{-1} q K^T (K - gamma K_true) F(t) + const.
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = q * model_gains[i] * model_gains[j];
    m(i, i) += penalty[i];
  }
  Matrix rhs(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      rhs(i, j) =
          q * model_gains[i] * (model_gains[j] - gamma * true_gains[j]);
  }
  return inverse(m) * rhs;
}

}  // namespace sprintcon::control
