#include "stats/solver.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hpcfail::stats {

namespace {
// Absolute tolerances on the root position and on |f(root)|, and the step
// budgets: beyond them the solvers throw NumericError.
constexpr double kXTol = 1e-12;
constexpr double kFTol = 1e-13;
constexpr int kMaxIterations = 200;
constexpr int kMaxExpansions = 80;

bool bracketed(double flo, double fhi) noexcept {
  return (flo <= 0.0 && fhi >= 0.0) || (flo >= 0.0 && fhi <= 0.0);
}

thread_local std::uint64_t tl_solver_steps = 0;
}  // namespace

std::uint64_t solver_steps() noexcept { return tl_solver_steps; }

void expand_bracket(const Fn& f, double& lo, double& hi, double& f_lo,
                    double& f_hi, bool positive_only) {
  HPCFAIL_EXPECTS(lo < hi, "expand_bracket requires lo < hi");
  f_lo = f(lo);
  f_hi = f(hi);
  for (int i = 0; i < kMaxExpansions; ++i) {
    if (bracketed(f_lo, f_hi)) return;
    ++tl_solver_steps;
    // Grow in the direction of the smaller |f|, geometrically.
    if (std::fabs(f_lo) < std::fabs(f_hi)) {
      lo -= (hi - lo);
      if (positive_only && lo <= 0.0) lo = (hi - lo > 1.0 ? 1e-12 : lo / 2.0);
      if (positive_only && lo <= 0.0) lo = 1e-12;
      f_lo = f(lo);
    } else {
      hi += (hi - lo);
      f_hi = f(hi);
    }
  }
  throw NumericError("expand_bracket: no sign change found");
}

double newton_bracketed(const FnWithSlope& fdf, double lo, double hi,
                        double f_lo, double f_hi) {
  HPCFAIL_EXPECTS(lo <= hi, "newton_bracketed requires lo <= hi");
  if (f_lo == 0.0) return lo;
  if (f_hi == 0.0) return hi;
  HPCFAIL_EXPECTS(bracketed(f_lo, f_hi),
                  "newton_bracketed requires a sign change");
  double x = 0.5 * (lo + hi);
  for (int i = 0; i < kMaxIterations; ++i) {
    ++tl_solver_steps;
    double dfx = 0.0;
    const double fx = fdf(x, dfx);
    if (std::fabs(fx) < kFTol) return x;
    // Maintain the bracket.
    if ((f_lo < 0.0) == (fx < 0.0)) {
      lo = x;
      f_lo = fx;
    } else {
      hi = x;
    }
    double next = (dfx != 0.0) ? x - fx / dfx : lo - 1.0;  // force bisection
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) < kXTol) return next;
    x = next;
  }
  throw NumericError("newton_bracketed: did not converge");
}

double brent(const Fn& f, double lo, double hi, double f_lo, double f_hi) {
  double a = lo;
  double b = hi;
  double fa = f_lo;
  double fb = f_hi;
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  HPCFAIL_EXPECTS(bracketed(fa, fb), "brent requires a sign change");
  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    ++tl_solver_steps;
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol1 =
        2.0 * 2.2204460492503131e-16 * std::fabs(b) + 0.5 * kXTol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0 || std::fabs(fb) < kFTol) {
      return b;
    }
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      const double s = fb / fa;
      double p;
      double q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      if (2.0 * p < std::fmin(3.0 * xm * q - std::fabs(tol1 * q),
                              std::fabs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += (std::fabs(d) > tol1) ? d : (xm > 0.0 ? tol1 : -tol1);
    fb = f(b);
    if ((fb < 0.0) == (fc < 0.0)) {
      c = a;
      fc = fa;
      e = b - a;
      d = e;
    }
  }
  throw NumericError("brent: did not converge");
}

}  // namespace hpcfail::stats
