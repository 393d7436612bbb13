// ASCII renderings of the paper's figure types: labelled bar charts
// (Figs 1, 2, 3a, 5, 7b/c) and multi-series CDF plots with optional log-x
// (Figs 3b, 6, 7a). These substitute for the authors' Matlab plots.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hpcfail::report {

/// Horizontal bar chart: one row per (label, value), bars scaled to
/// `width` characters, value printed at the end.
void bar_chart(std::ostream& out, const std::string& title,
               const std::vector<std::pair<std::string, double>>& bars,
               std::size_t width = 50);

/// One layer of a stacked bar chart: a name plus one value per row.
struct StackSeries {
  std::string name;
  std::vector<double> values;
};

/// Horizontal stacked bar chart (Fig 4's failures-per-month stacked by
/// root cause): one row per label, each layer drawn with its own glyph,
/// total printed at the end. Every series must have one value per label;
/// throws InvalidArgument otherwise.
void stacked_bar_chart(std::ostream& out, const std::string& title,
                       const std::vector<std::string>& labels,
                       const std::vector<StackSeries>& series,
                       std::size_t width = 50);

/// One curve of a CDF plot: a name plus (x, p) points with p in [0, 1]
/// non-decreasing.
struct CdfSeries {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

/// Renders several CDFs on one character grid (distinct glyph per
/// series), x linear or log10. Points with x <= 0 are dropped in log
/// mode (the empirical zero-gap mass still shows as the curve starting
/// above 0). Throws InvalidArgument when there is nothing to plot.
void cdf_plot(std::ostream& out, const std::string& title,
              const std::vector<CdfSeries>& series, bool log_x = true,
              std::size_t width = 72, std::size_t height = 20);

/// Samples a model CDF at `n` log- or linearly-spaced points in
/// [x_min, x_max] for use as a CdfSeries.
CdfSeries sample_cdf(const std::string& name,
                     const std::function<double(double)>& cdf, double x_min,
                     double x_max, bool log_x = true, std::size_t n = 120);

}  // namespace hpcfail::report
