// One-dimensional root finding used by the fitters.
//
// The Weibull shape and gamma shape likelihood equations have no closed
// form; both are solved with safeguarded Newton iteration that falls back
// to bisection whenever a Newton step would leave the current bracket. The
// gamma and H2 quantiles invert their CDFs with Brent's method. Each
// caller first grows a bracket with expand_bracket and hands its endpoint
// values on, so no solver evaluates an endpoint twice.
#pragma once

#include <cstdint>
#include <functional>

namespace hpcfail::stats {

/// Scalar function of one variable.
using Fn = std::function<double(double)>;

/// Function and derivative from one evaluation: returns f(x), writes f'(x).
using FnWithSlope = std::function<double(double, double&)>;

/// Expands [lo, hi] geometrically (keeping lo > 0 when positive_only)
/// until f(lo) and f(hi) have opposite signs, and hands back f(lo) and
/// f(hi) in `f_lo` and `f_hi`. Requires lo < hi; throws NumericError when
/// no sign change is found within 80 expansions.
void expand_bracket(const Fn& f, double& lo, double& hi, double& f_lo,
                    double& f_hi, bool positive_only = true);

/// Safeguarded Newton on a bracket [lo, hi] whose endpoint values are
/// `f_lo` and `f_hi` (as expand_bracket hands them back): it takes
/// derivative steps but keeps the iterate inside a maintained bracket,
/// bisecting whenever Newton misbehaves. The value and slope come from one
/// callback, so an objective that yields both from one pass over its data
/// (the Weibull profile score) costs one pass per step. Requires lo <= hi
/// and a sign change (InvalidArgument otherwise); throws NumericError
/// after 200 steps.
double newton_bracketed(const FnWithSlope& fdf, double lo, double hi,
                        double f_lo, double f_hi);

/// Brent's method (inverse quadratic interpolation + secant + bisection)
/// on a bracket given as for newton_bracketed.
double brent(const Fn& f, double lo, double hi, double f_lo, double f_hi);

/// Iterations performed by the solvers above *on the calling thread*
/// since thread start (every Newton/Brent step and bracket expansion
/// counts one). Thread-local, so a caller can meter one fit by
/// differencing around it regardless of what other threads solve
/// concurrently — dist::fit uses this to fill FitResult::iterations.
std::uint64_t solver_steps() noexcept;

}  // namespace hpcfail::stats
