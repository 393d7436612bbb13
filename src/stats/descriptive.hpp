// Descriptive statistics in the form the paper reports them.
//
// Section 3 (Methodology) characterizes every empirical distribution by its
// mean, median, and squared coefficient of variation C^2 = var / mean^2;
// Table 2 adds the standard deviation. `Summary` carries exactly those
// plus the usual extras used in the analysis chapters.
#pragma once

#include <span>
#include <vector>

namespace hpcfail::stats {

/// Moments and order statistics of one empirical sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double median = 0.0;
  double variance = 0.0;   ///< unbiased (n-1) sample variance
  double stddev = 0.0;
  double cv2 = 0.0;        ///< var/mean^2; NaN for a zero-mean sample
  double min = 0.0;
  double max = 0.0;
  double q25 = 0.0;        ///< lower quartile
  double q75 = 0.0;        ///< upper quartile
  double skewness = 0.0;   ///< sample skewness (g1)
};

/// Arithmetic mean. Throws InvalidArgument on an empty sample.
double mean(std::span<const double> xs);

/// Unbiased sample variance; 0 for n == 1. Throws on empty.
double variance(std::span<const double> xs);

/// Squared coefficient of variation var/mean^2. Throws on an empty
/// sample; returns quiet NaN for a zero-mean sample, where C^2 is
/// undefined (same contract as Summary::cv2).
double cv_squared(std::span<const double> xs);

/// Linear-interpolation quantile of a sorted sample, p in [0, 1].
/// Throws InvalidArgument when the span is empty, unsorted inputs are the
/// caller's responsibility.
double quantile_sorted(std::span<const double> sorted, double p);

/// Median (copies and sorts internally). Throws on empty.
double median(std::span<const double> xs);

/// Full summary (sorts a copy, then forwards to the two-argument form).
/// Throws on empty.
Summary summarize(std::span<const double> xs);

/// Full summary from a sample and its ascending copy, for callers that
/// sort a sample once and share the copy (e.g. with dist::fit_report).
/// Moments accumulate over `xs` in sample order; only the order
/// statistics (median, quartiles, min, max) read `sorted`, so the result
/// equals summarize(xs) bit for bit. Throws InvalidArgument on an empty
/// sample, or when `sorted` differs in size from `xs` or is not sorted.
Summary summarize(std::span<const double> xs, std::span<const double> sorted);

/// Sorts `xs` ascending in place, into the same sequence std::sort
/// gives: a sample of kRadixSortMinSize or more values that holds no NaN
/// and no -0.0 is radix-sorted by an order-preserving key of each value
/// (common/radix.hpp), any other sample by std::sort.
void sort_in_place(std::span<double> xs);

/// Returns a sorted copy (sort_in_place on a copy); convenience for the
/// quantile/ECDF entry points.
std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace hpcfail::stats
