#include "control/structured_qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::control {

void StructuredBlockQp::validate() const {
  const std::size_t n = gains.size();
  const std::size_t blocks = rank_weight.size();
  SPRINTCON_EXPECTS(n > 0, "structured QP needs at least one variable");
  SPRINTCON_EXPECTS(blocks > 0, "structured QP needs at least one block");
  SPRINTCON_EXPECTS(penalty.size() == n, "penalty size mismatch");
  SPRINTCON_EXPECTS(gradient.size() == n * blocks, "gradient size mismatch");
  SPRINTCON_EXPECTS(lower.size() == n * blocks && upper.size() == n * blocks,
                    "bound size mismatch");
  for (std::size_t b = 0; b < blocks; ++b)
    SPRINTCON_EXPECTS(rank_weight[b] >= 0.0, "rank weight must be >= 0");
  for (std::size_t i = 0; i < n; ++i) {
    SPRINTCON_EXPECTS(penalty[i] >= 0.0, "penalty must be >= 0");
    SPRINTCON_EXPECTS(gains[i] >= 0.0, "gain must be >= 0");
  }
  for (std::size_t i = 0; i < n * blocks; ++i) {
    SPRINTCON_EXPECTS(lower[i] <= upper[i], "QP bounds crossed");
    SPRINTCON_EXPECTS(std::isfinite(lower[i]) && std::isfinite(upper[i]),
                      "QP bounds must be finite");
  }
}

double structured_residual(const StructuredBlockQp& qp, const Vector& x) {
  const std::size_t n = qp.block_size();
  const std::size_t blocks = qp.num_blocks();
  double r = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    double kx = 0.0;
    for (std::size_t i = 0; i < n; ++i) kx += qp.gains[i] * x[off + i];
    const double c_kx = qp.rank_weight[b] * kx;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = qp.penalty[i] * x[off + i] + qp.gains[i] * c_kx +
                       qp.gradient[off + i];
      const double stepped =
          std::clamp(x[off + i] - g, qp.lower[off + i], qp.upper[off + i]);
      r = std::max(r, std::abs(x[off + i] - stepped));
    }
  }
  return r;
}

namespace {

constexpr double kBig = std::numeric_limits<double>::max();

// --- two-lane arithmetic for the reductions ----------------------------------
//
// The search passes are reductions over all n coordinates, which the
// compiler may not vectorize (that would reorder the sums). These helpers
// vectorize them explicitly with a fixed lane assignment: SSE2 where the
// target has it (every x86-64), plain scalars elsewhere. Both run the same
// IEEE operations lane by lane in the same order, so every platform gets
// bit-identical results.
#if defined(__SSE2__)
using V2 = __m128d;
using M2 = __m128d;  ///< lane mask: all ones or all zeros
inline V2 load2(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void store2(double* p, V2 a) noexcept { _mm_storeu_pd(p, a); }
inline V2 splat2(double x) noexcept { return _mm_set1_pd(x); }
inline V2 add2(V2 a, V2 b) noexcept { return _mm_add_pd(a, b); }
inline V2 mul2(V2 a, V2 b) noexcept { return _mm_mul_pd(a, b); }
inline V2 max2(V2 a, V2 b) noexcept { return _mm_max_pd(a, b); }
inline V2 min2(V2 a, V2 b) noexcept { return _mm_min_pd(a, b); }
inline M2 lt2(V2 a, V2 b) noexcept { return _mm_cmplt_pd(a, b); }
inline M2 ge2(V2 a, V2 b) noexcept { return _mm_cmpge_pd(a, b); }
inline M2 or2(M2 a, M2 b) noexcept { return _mm_or_pd(a, b); }
/// m ? a : 0 per lane.
inline V2 keep2(M2 m, V2 a) noexcept { return _mm_and_pd(m, a); }
/// m ? 0 : a per lane.
inline V2 drop2(M2 m, V2 a) noexcept { return _mm_andnot_pd(m, a); }
/// m ? a : b per lane.
inline V2 select2(M2 m, V2 a, V2 b) noexcept {
  return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
}
inline double lane0(V2 a) noexcept { return _mm_cvtsd_f64(a); }
inline double lane1(V2 a) noexcept {
  return _mm_cvtsd_f64(_mm_unpackhi_pd(a, a));
}
#else
struct V2 {
  double a, b;
};
struct M2 {
  bool a, b;
};
inline V2 load2(const double* p) noexcept { return {p[0], p[1]}; }
inline void store2(double* p, V2 x) noexcept { p[0] = x.a, p[1] = x.b; }
inline V2 splat2(double x) noexcept { return {x, x}; }
inline V2 add2(V2 x, V2 y) noexcept { return {x.a + y.a, x.b + y.b}; }
inline V2 mul2(V2 x, V2 y) noexcept { return {x.a * y.a, x.b * y.b}; }
// maxpd/minpd semantics: the second operand unless the first wins.
inline V2 max2(V2 x, V2 y) noexcept {
  return {x.a > y.a ? x.a : y.a, x.b > y.b ? x.b : y.b};
}
inline V2 min2(V2 x, V2 y) noexcept {
  return {x.a < y.a ? x.a : y.a, x.b < y.b ? x.b : y.b};
}
inline M2 lt2(V2 x, V2 y) noexcept { return {x.a < y.a, x.b < y.b}; }
inline M2 ge2(V2 x, V2 y) noexcept { return {x.a >= y.a, x.b >= y.b}; }
inline M2 or2(M2 x, M2 y) noexcept { return {x.a || y.a, x.b || y.b}; }
inline V2 keep2(M2 m, V2 x) noexcept {
  return {m.a ? x.a : 0.0, m.b ? x.b : 0.0};
}
inline V2 drop2(M2 m, V2 x) noexcept {
  return {m.a ? 0.0 : x.a, m.b ? 0.0 : x.b};
}
inline V2 select2(M2 m, V2 x, V2 y) noexcept {
  return {m.a ? x.a : y.a, m.b ? x.b : y.b};
}
inline double lane0(V2 x) noexcept { return x.a; }
inline double lane1(V2 x) noexcept { return x.b; }
#endif

/// std::clamp by value: plain selects the vectorizer can pack.
inline double clamp_value(double v, double lo, double hi) noexcept {
  return v < lo ? lo : (hi < v ? hi : v);
}

/// Sum of the four lanes of (lo, hi) pairs, in a fixed order.
inline double sum4(V2 lo, V2 hi) noexcept {
  const V2 t = add2(lo, hi);
  return lane0(t) + lane1(t);
}

// --- error-free transformations ----------------------------------------------
//
// Dekker 1971, Knuth TAOCP 4.2.2; written without fma because on the
// baseline x86-64 ISA std::fma is a libm call. These plain IEEE operations
// are exact on every double target, and they vectorize.

/// Veltkamp split of a: hi + lo == a with hi holding the top 26 bits.
inline double split_hi(double a) noexcept {
  constexpr double kFactor = 134217729.0;  // 2^27 + 1
  const double t = kFactor * a;
  return t - (t - a);
}

/// Exact rounding error of p = fl(a * b), from the high halves of a and b.
inline double product_error(double a, double a_hi, double b, double b_hi,
                            double p) noexcept {
  const double a_lo = a - a_hi;
  const double b_lo = b - b_hi;
  return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo;
}

// --- the block solve ---------------------------------------------------------

/// Block view into the stacked problem and the solve's shared arrays.
struct Block {
  std::size_t n;
  double c;
  const double* k;
  const double* r;
  const double* g;
  const double* l;
  const double* u;
  const double* inv_r;
  const double* inv_k;
  const double* k_over_r;
  bool has_steps;  ///< some r_i == 0
  bool has_flat;   ///< some k_i == 0
};

/// Sums over one segment of phi, the interval between neighbouring
/// breakpoints that holds the pass point s.
struct Segment {
  double clamped = 0.0;   ///< sum of k_i x_i over coordinates at a bound
  double free_lin = 0.0;  ///< sum of -k_i g_i / r_i over free coordinates
  double free_w = 0.0;    ///< sum of k_i^2 / r_i over free coordinates
  double left = -kBig;    ///< largest breakpoint <= s
  double right = kBig;    ///< smallest breakpoint > s
};

/// One branch-free search pass: classify every coordinate at s (at u_i
/// below up[i], at l_i from lo[i] on, free between) and accumulate the
/// segment's line phi(t) = clamped + free_lin - (1 + c free_w) t.
Segment scan(const Block& bk, const double* up, const double* lo,
             double s) noexcept {
  const V2 sv = splat2(s);
  const V2 big = splat2(kBig);
  const V2 nbig = splat2(-kBig);
  V2 clamped[2] = {splat2(0.0), splat2(0.0)};
  V2 free_lin[2] = {splat2(0.0), splat2(0.0)};
  V2 free_w[2] = {splat2(0.0), splat2(0.0)};
  V2 left[2] = {nbig, nbig};
  V2 right[2] = {big, big};
  std::size_t i = 0;
  for (; i + 4 <= bk.n; i += 4) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t o = i + 2 * h;
      const V2 bu = load2(up + o);
      const V2 bl = load2(lo + o);
      const M2 at_u = lt2(sv, bu);
      const M2 at_l = ge2(sv, bl);
      const M2 bounded = or2(at_u, at_l);
      const V2 k = load2(bk.k + o);
      const V2 kr = load2(bk.k_over_r + o);
      clamped[h] = add2(clamped[h],
                        mul2(k, select2(at_u, load2(bk.u + o),
                                        keep2(at_l, load2(bk.l + o)))));
      free_lin[h] =
          add2(free_lin[h], drop2(bounded, mul2(load2(bk.g + o), kr)));
      free_w[h] = add2(free_w[h], drop2(bounded, mul2(k, kr)));
      left[h] = max2(left[h], select2(at_l, bl, select2(at_u, nbig, bu)));
      right[h] = min2(right[h], select2(at_u, bu, select2(at_l, big, bl)));
    }
  }
  Segment seg;
  seg.clamped = sum4(clamped[0], clamped[1]);
  seg.free_lin = -sum4(free_lin[0], free_lin[1]);
  seg.free_w = sum4(free_w[0], free_w[1]);
  const V2 lm = max2(left[0], left[1]);
  const V2 rm = min2(right[0], right[1]);
  seg.left = std::max(lane0(lm), lane1(lm));
  seg.right = std::min(lane0(rm), lane1(rm));
  for (; i < bk.n; ++i) {
    if (s < up[i]) {
      seg.clamped += bk.k[i] * bk.u[i];
      seg.right = std::min(seg.right, up[i]);
    } else if (s >= lo[i]) {
      seg.clamped += bk.k[i] * bk.l[i];
      seg.left = std::max(seg.left, lo[i]);
    } else {
      seg.free_lin -= bk.g[i] * bk.k_over_r[i];
      seg.free_w += bk.k[i] * bk.k_over_r[i];
      seg.left = std::max(seg.left, up[i]);
      seg.right = std::min(seg.right, lo[i]);
    }
  }
  return seg;
}

/// phi on the segment classified at s_seg, evaluated at the base point
/// whose coupled gradients are in e: the line through the segment, not
/// phi itself, so the point may sit a little outside the segment.
double segment_line(const Block& bk, const double* up, const double* lo,
                    const double* e, double s_seg) noexcept {
  const V2 sv = splat2(s_seg);
  V2 clamped[2] = {splat2(0.0), splat2(0.0)};
  V2 free_kx[2] = {splat2(0.0), splat2(0.0)};
  std::size_t i = 0;
  for (; i + 4 <= bk.n; i += 4) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t o = i + 2 * h;
      const M2 at_u = lt2(sv, load2(up + o));
      const M2 at_l = ge2(sv, load2(lo + o));
      const V2 k = load2(bk.k + o);
      clamped[h] = add2(clamped[h],
                        mul2(k, select2(at_u, load2(bk.u + o),
                                        keep2(at_l, load2(bk.l + o)))));
      // k_i x_i = -k_i e_i / r_i for a free coordinate.
      free_kx[h] = add2(free_kx[h],
                        drop2(or2(at_u, at_l),
                              mul2(load2(bk.k_over_r + o), load2(e + o))));
    }
  }
  double sum = sum4(clamped[0], clamped[1]) - sum4(free_kx[0], free_kx[1]);
  for (; i < bk.n; ++i) {
    if (s_seg < up[i]) {
      sum += bk.k[i] * bk.u[i];
    } else if (s_seg >= lo[i]) {
      sum += bk.k[i] * bk.l[i];
    } else {
      sum -= bk.k_over_r[i] * e[i];
    }
  }
  return sum;
}

/// e_i = g_i + k_i sigma for a sigma with 26 significant bits. With k_i
/// split the same way, k_hi sigma is exact and e_i carries only roundings
/// 2^-26 below its terms: for a free coordinate g_i and k_i sigma cancel
/// to -r_i x_i (exactly, by Sterbenz), and 1/r_i amplifies any rounding.
void coupled_gradients(const Block& bk, double sigma, double* e) noexcept {
  const double* k = bk.k;
  const double* g = bk.g;
  for (std::size_t i = 0; i < bk.n; ++i) {
    const double k_hi = split_hi(k[i]);
    e[i] = (g[i] + k_hi * sigma) + (k[i] - k_hi) * sigma;
  }
}

/// Root inside the segment classified at s_seg, with t its double
/// estimate: one Newton step on the segment's line from a base point s0
/// near t with c s0 = sigma exactly representable for coupled_gradients,
/// then x from s0 + delta. The step is exact on the line because the slope
/// is. Zero-penalty coordinates keep the segment's classification.
void finish_in_segment(const Block& bk, double t, double s_seg, double slope,
                       const double* up, const double* lo, double* x) {
  const double c = bk.c;
  const double sigma = split_hi(c * t);
  // s0 = sigma / c as an unevaluated sum s0_hi + s0_lo.
  const double s0_hi = sigma / c;
  const double p = s0_hi * c;
  const double p_err = product_error(s0_hi, split_hi(s0_hi), c, split_hi(c), p);
  const double s0_lo = ((sigma - p) - p_err) / c;

  coupled_gradients(bk, sigma, x);
  const double phi = (segment_line(bk, up, lo, x, s_seg) - s0_hi) - s0_lo;
  const std::size_t n = bk.n;
  const double* k = bk.k;
  const double c_delta = c * (phi / slope);
  const double* inv_r = bk.inv_r;
  const double* lower = bk.l;
  const double* upper = bk.u;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = clamp_value(-(x[i] + k[i] * c_delta) * inv_r[i], lower[i],
                       upper[i]);
  }
  if (bk.has_steps) {
    // Zero-penalty coordinates never move inside a segment.
    for (std::size_t i = 0; i < n; ++i) {
      if (bk.r[i] == 0.0) x[i] = s_seg < up[i] ? upper[i] : lower[i];
    }
  }
}

/// Root exactly on a breakpoint s0 (the search bracket closed on it). If
/// phi jumps there — zero-penalty coordinates whose step sits at s0 — those
/// coordinates take up k^T x = s0 in index order.
void finish_at_point(const Block& bk, double s0, const double* up, double* x) {
  // c s0 = sigma + offset, offset exact up to a rounding 2^-53 below it.
  const double cs = bk.c * s0;
  const double sigma = split_hi(cs);
  const double offset =
      (cs - sigma) + product_error(bk.c, split_hi(bk.c), s0, split_hi(s0), cs);
  coupled_gradients(bk, sigma, x);
  double rest = s0;
  for (std::size_t i = 0; i < bk.n; ++i) {
    if (bk.r[i] > 0.0) {
      x[i] = std::clamp(-(x[i] + bk.k[i] * offset) * bk.inv_r[i], bk.l[i],
                        bk.u[i]);
    } else {
      x[i] = s0 < up[i] ? bk.u[i] : bk.l[i];
    }
    rest -= bk.k[i] * x[i];
  }
  for (std::size_t i = 0; i < bk.n; ++i) {
    if (bk.r[i] > 0.0 || up[i] != s0) continue;
    // This step coordinate was set to l_i above (s0 >= its breakpoint).
    const double take = std::clamp(rest / bk.k[i], 0.0, bk.u[i] - bk.l[i]);
    x[i] = bk.l[i] + take;
    rest -= bk.k[i] * take;
  }
}

/// What the set-up pass learns about a block.
struct Setup {
  double all_upper;  ///< k^T u
  double all_lower;  ///< k^T l
  double warm;       ///< k^T x0, the warm start
  double min_up;     ///< smallest breakpoint
  double max_lo;     ///< largest breakpoint
};

/// Set-up pass: writes the breakpoints (x_i = u_i for s below up[i],
/// l_i from lo[i] on) and returns the sums the search starts from, in one
/// two-lane pass. A coordinate with k_i = 0 does not move with s: its
/// breakpoints are parked out of reach, on the side that gives a
/// zero-penalty coordinate its minimizing bound.
Setup set_up(const Block& bk, const double* x0, double* up, double* lo) {
  // -1/(c k_i), applied as (g + r u) * (inv_k * -inv_c).
  const double neg_inv_c = -1.0 / bk.c;
  const V2 nic = splat2(neg_inv_c);
  V2 all_upper[2] = {splat2(0.0), splat2(0.0)};
  V2 all_lower[2] = {splat2(0.0), splat2(0.0)};
  V2 warm[2] = {splat2(0.0), splat2(0.0)};
  V2 min_up[2] = {splat2(kBig), splat2(kBig)};
  V2 max_lo[2] = {splat2(-kBig), splat2(-kBig)};
  std::size_t i = 0;
  for (; i + 4 <= bk.n; i += 4) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t o = i + 2 * h;
      const V2 k = load2(bk.k + o);
      const V2 g = load2(bk.g + o);
      const V2 r = load2(bk.r + o);
      const V2 u = load2(bk.u + o);
      const V2 l = load2(bk.l + o);
      const V2 scale = mul2(load2(bk.inv_k + o), nic);
      const V2 bu = mul2(add2(g, mul2(r, u)), scale);
      const V2 bl = mul2(add2(g, mul2(r, l)), scale);
      store2(up + o, bu);
      store2(lo + o, bl);
      all_upper[h] = add2(all_upper[h], mul2(k, u));
      all_lower[h] = add2(all_lower[h], mul2(k, l));
      warm[h] = add2(warm[h], mul2(k, load2(x0 + o)));
      min_up[h] = min2(bu, min_up[h]);
      max_lo[h] = max2(bl, max_lo[h]);
    }
  }
  Setup su{};
  su.all_upper = sum4(all_upper[0], all_upper[1]);
  su.all_lower = sum4(all_lower[0], all_lower[1]);
  su.warm = sum4(warm[0], warm[1]);
  const V2 mn = min2(min_up[0], min_up[1]);
  const V2 mx = max2(max_lo[0], max_lo[1]);
  su.min_up = std::min(lane0(mn), lane1(mn));
  su.max_lo = std::max(lane0(mx), lane1(mx));
  for (; i < bk.n; ++i) {
    const double scale = bk.inv_k[i] * neg_inv_c;
    up[i] = (bk.g[i] + bk.r[i] * bk.u[i]) * scale;
    lo[i] = (bk.g[i] + bk.r[i] * bk.l[i]) * scale;
    su.all_upper += bk.k[i] * bk.u[i];
    su.all_lower += bk.k[i] * bk.l[i];
    su.warm += bk.k[i] * x0[i];
    su.min_up = std::min(su.min_up, up[i]);
    su.max_lo = std::max(su.max_lo, lo[i]);
  }
  if (bk.has_flat) {
    for (std::size_t j = 0; j < bk.n; ++j) {
      if (bk.k[j] > 0.0) continue;
      up[j] = lo[j] = (bk.r[j] == 0.0 && bk.g[j] >= 0.0) ? -kBig : kBig;
    }
    su.min_up = *std::min_element(up, up + bk.n);
    su.max_lo = *std::max_element(lo, lo + bk.n);
  }
  return su;
}

/// Solve one block into x (length n); returns the search passes taken and
/// clears `converged` if the pass bound was hit.
int solve_block(const Block& bk, const double* x0, StructuredQpScratch& sc,
                double* x, bool& converged) {
  const std::size_t n = bk.n;
  if (!(bk.c > 0.0)) {
    // Diagonal block: the coordinates are independent.
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = bk.r[i] > 0.0
                 ? std::clamp(-bk.g[i] * bk.inv_r[i], bk.l[i], bk.u[i])
                 : (bk.g[i] < 0.0 ? bk.u[i] : bk.l[i]);
    }
    return 1;
  }

  // Set-up pass: the breakpoints and the sums the search starts from.
  double* up = sc.upper_below.data();
  double* lo_bp = sc.lower_from.data();
  const Setup su = set_up(bk, x0, up, lo_bp);
  // phi is s-independent outside [min up, max lo]: every coordinate sits
  // at u_i below that window and at l_i above it. So either the root is
  // k^T u or k^T l (no coordinate free), or it lies inside the window,
  // whose ends give the search a closed bracket with known phi values.
  double lo = su.min_up;
  double hi = su.max_lo;
  if (su.all_upper < lo || su.all_lower >= hi) {
    const double t = su.all_upper < lo ? su.all_upper : su.all_lower;
    finish_in_segment(bk, t, t, 1.0, up, lo_bp, x);
    return 1;
  }
  double phi_lo = su.all_upper - lo;  // > 0
  double phi_hi = su.all_lower - hi;  // < 0
  // Regula falsi on the bracket: phi is piecewise linear, so this lands
  // near the root when the bracket spans few breakpoints.
  const auto secant = [&]() {
    const double t = lo + phi_lo * ((hi - lo) / (phi_lo - phi_hi));
    if (t >= lo && t < hi) return t;
    const double mid = 0.5 * (lo + hi);
    return mid < hi ? mid : lo;
  };
  // The warm start (last period's root) is the best guess when it is
  // still inside the window.
  double s = su.warm;
  if (!(s > lo && s < hi)) s = secant();

  // Segment search. Each pass examines the segment holding s; if the
  // segment line's root lies inside it, that root is the answer.
  // Otherwise the bracket [lo, hi) moves past the whole segment, so no
  // segment is examined twice and at most 2n + 1 passes are needed.
  const int max_passes = 2 * static_cast<int>(n) + 1;
  for (int pass = 1; pass <= max_passes; ++pass) {
    const Segment seg = scan(bk, up, lo_bp, s);
    const double slope = 1.0 + bk.c * seg.free_w;
    // On the segment phi(t) = line0 - slope t.
    const double line0 = seg.clamped + seg.free_lin;
    const double t = line0 / slope;
    if (t >= seg.left && t <= seg.right) {
      finish_in_segment(bk, t, s, slope, up, lo_bp, x);
      return pass;
    }
    if (t > seg.right) {
      lo = std::min(seg.right, hi);
      phi_lo = line0 - slope * lo;
    } else {
      hi = std::max(seg.left, lo);
      phi_hi = line0 - slope * hi;
    }
    if (lo == hi) {
      finish_at_point(bk, lo, up, x);
      return pass;
    }
    // Newton's point if it is still in the bracket, else regula falsi.
    s = (t >= lo && t < hi) ? t : secant();
  }
  converged = false;
  finish_at_point(bk, s, up, x);
  return max_passes;
}

}  // namespace

void solve_structured_qp(const StructuredBlockQp& qp, const Vector& x0,
                         StructuredQpScratch& scratch, QpResult& result) {
  qp.validate();
  SPRINTCON_EXPECTS(x0.size() == qp.dim(), "QP warm-start dimension mismatch");
  solve_structured_qp_unchecked(qp, x0, scratch, result);
}

SPRINTCON_HOT void solve_structured_qp_unchecked(const StructuredBlockQp& qp,
                                                 const Vector& x0,
                                                 StructuredQpScratch& scratch,
                                                 QpResult& result) {
  const std::size_t n = qp.block_size();
  result.x.resize(qp.dim());
  scratch.inv_penalty.resize(n);
  scratch.inv_gains.resize(n);
  scratch.gain_over_penalty.resize(n);
  scratch.upper_below.resize(n);
  scratch.lower_from.resize(n);
  // Reciprocals of the block-shared data, once per solve: 1/v, or 0 where
  // v is 0. Written as pos / (v + (1 - pos)) so no division is conditional
  // and the loop vectorizes.
  double* inv_r = scratch.inv_penalty.data();
  double* inv_k = scratch.inv_gains.data();
  double* k_over_r = scratch.gain_over_penalty.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double r = qp.penalty[i];
    const double k = qp.gains[i];
    const double r_pos = r > 0.0 ? 1.0 : 0.0;
    const double k_pos = k > 0.0 ? 1.0 : 0.0;
    inv_r[i] = r_pos / (r + (1.0 - r_pos));
    inv_k[i] = k_pos / (k + (1.0 - k_pos));
    k_over_r[i] = k * inv_r[i];
  }
  const auto is_zero = [](double v) { return v == 0.0; };
  const bool has_steps =
      std::any_of(qp.penalty.begin(), qp.penalty.end(), is_zero);
  const bool has_flat = std::any_of(qp.gains.begin(), qp.gains.end(), is_zero);
  result.iterations = 0;
  result.converged = true;
  for (std::size_t b = 0; b < qp.num_blocks(); ++b) {
    const std::size_t off = b * n;
    const Block bk{n,
                   qp.rank_weight[b],
                   qp.gains.data(),
                   qp.penalty.data(),
                   qp.gradient.data() + off,
                   qp.lower.data() + off,
                   qp.upper.data() + off,
                   scratch.inv_penalty.data(),
                   scratch.inv_gains.data(),
                   scratch.gain_over_penalty.data(),
                   has_steps,
                   has_flat};
    result.iterations += solve_block(bk, x0.data() + off, scratch,
                                     result.x.data() + off, result.converged);
  }
}

}  // namespace sprintcon::control
