#include "report/compare_report.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/strings.hpp"
#include "report/table.hpp"
#include "trace/types.hpp"

namespace hpcfail::report {

namespace {

std::string value_or_na(double value, int precision = 4) {
  if (std::isnan(value)) return "n/a";
  return format_double(value, precision);
}

std::string best_family(const dist::FitReport& fits) {
  if (fits.empty()) return "n/a";
  return dist::to_string(fits.best().family);
}

/// "weibull > lognormal > gamma > exponential" — the paper's ranked
/// goodness-of-fit verdict, per site.
std::string ranking(const dist::FitReport& fits) {
  if (fits.empty()) return "n/a";
  std::string joined;
  for (const dist::FitResult& fit : fits) {
    if (!joined.empty()) joined += " > ";
    joined += dist::to_string(fit.family);
  }
  return joined;
}

/// One table row: the metric label plus one formatted cell per site.
template <typename Extract>
void metric_row(TextTable& table, const analysis::CompareReport& report,
                const std::string& label, Extract&& extract) {
  std::vector<std::string> row;
  row.reserve(report.sites.size() + 1);
  row.push_back(label);
  for (const analysis::CompareSite& site : report.sites) {
    row.push_back(extract(site));
  }
  table.add_row(std::move(row));
}

}  // namespace

void render_compare(std::ostream& out,
                    const analysis::CompareReport& report) {
  out << "hpcfail site comparison: " << report.sites.size()
      << " site(s)\n\n";

  std::vector<std::string> header = {"metric"};
  for (const analysis::CompareSite& site : report.sites) {
    header.push_back(site.label);
  }
  TextTable table(std::move(header));

  metric_row(table, report, "records", [](const auto& s) {
    return std::to_string(s.records);
  });
  metric_row(table, report, "nodes observed", [](const auto& s) {
    return std::to_string(s.nodes);
  });
  metric_row(table, report, "span (years)", [](const auto& s) {
    return format_double(s.span_years, 4);
  });
  metric_row(table, report, "failures / node-year", [](const auto& s) {
    return format_double(s.failures_per_node_year, 4);
  });
  metric_row(table, report, "failures / proc-year", [](const auto& s) {
    return value_or_na(s.failures_per_proc_year);
  });
  for (const trace::RootCause cause : trace::kAllRootCauses) {
    metric_row(table, report, trace::to_string(cause) + " %",
               [cause](const auto& s) {
                 return format_double(
                     s.cause_fraction[trace::cause_index(cause)] * 100.0, 4);
               });
  }
  metric_row(table, report, "repair mean (min)", [](const auto& s) {
    return format_double(s.repair_minutes.mean, 4);
  });
  metric_row(table, report, "repair median (min)", [](const auto& s) {
    return format_double(s.repair_minutes.median, 4);
  });
  metric_row(table, report, "repair C^2", [](const auto& s) {
    return format_double(s.repair_minutes.cv2, 4);
  });
  metric_row(table, report, "repair best family", [](const auto& s) {
    return best_family(s.repair_fits);
  });
  metric_row(table, report, "repair lognormal mu", [](const auto& s) {
    return value_or_na(s.repair_lognormal_mu);
  });
  metric_row(table, report, "repair lognormal sigma", [](const auto& s) {
    return value_or_na(s.repair_lognormal_sigma);
  });
  metric_row(table, report, "gap mean (h)", [](const auto& s) {
    return format_double(s.gaps_seconds.mean / 3600.0, 4);
  });
  metric_row(table, report, "gap median (h)", [](const auto& s) {
    return format_double(s.gaps_seconds.median / 3600.0, 4);
  });
  metric_row(table, report, "gap C^2", [](const auto& s) {
    return format_double(s.gaps_seconds.cv2, 4);
  });
  metric_row(table, report, "interarrival best family", [](const auto& s) {
    return best_family(s.gap_fits);
  });
  metric_row(table, report, "weibull shape", [](const auto& s) {
    return value_or_na(s.weibull_shape);
  });
  metric_row(table, report, "weibull scale (h)", [](const auto& s) {
    return value_or_na(s.weibull_scale / 3600.0);
  });
  metric_row(table, report, "interarrival ranking", [](const auto& s) {
    return ranking(s.gap_fits);
  });

  table.render(out);
}

std::string render_compare_text(const analysis::CompareReport& report) {
  std::ostringstream out;
  render_compare(out, report);
  return out.str();
}

void write_compare_csv(std::ostream& out,
                       const analysis::CompareReport& report) {
  out << "site,records,nodes,span_years,failures_per_node_year,"
         "failures_per_proc_year,pct_hardware,pct_software,pct_network,"
         "pct_environment,pct_human,pct_unknown,repair_mean_min,"
         "repair_median_min,repair_cv2,repair_best_family,"
         "repair_lognormal_mu,repair_lognormal_sigma,gap_mean_hours,"
         "gap_median_hours,gap_cv2,gap_best_family,weibull_shape,"
         "weibull_scale_hours,gap_ranking\n";
  for (const analysis::CompareSite& s : report.sites) {
    out << csv_escape(s.label) << ',' << s.records << ',' << s.nodes << ','
        << format_double(s.span_years, 6) << ','
        << format_double(s.failures_per_node_year, 6) << ','
        << value_or_na(s.failures_per_proc_year, 6);
    for (const trace::RootCause cause : trace::kAllRootCauses) {
      out << ','
          << format_double(
                 s.cause_fraction[trace::cause_index(cause)] * 100.0, 6);
    }
    out << ',' << format_double(s.repair_minutes.mean, 6) << ','
        << format_double(s.repair_minutes.median, 6) << ','
        << format_double(s.repair_minutes.cv2, 6) << ','
        << best_family(s.repair_fits) << ','
        << value_or_na(s.repair_lognormal_mu, 6) << ','
        << value_or_na(s.repair_lognormal_sigma, 6) << ','
        << format_double(s.gaps_seconds.mean / 3600.0, 6) << ','
        << format_double(s.gaps_seconds.median / 3600.0, 6) << ','
        << format_double(s.gaps_seconds.cv2, 6) << ','
        << best_family(s.gap_fits) << ','
        << value_or_na(s.weibull_shape, 6) << ','
        << value_or_na(s.weibull_scale / 3600.0, 6) << ','
        << ranking(s.gap_fits) << '\n';
  }
}

}  // namespace hpcfail::report
