#include "analysis/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/time.hpp"
#include "dist/fit.hpp"
#include "report/compare_report.hpp"
#include "synth/site.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/io.hpp"
#include "trace/dataset.hpp"
#include "trace/record.hpp"

namespace hpcfail::analysis {
namespace {

CompareInput site_input(const std::string& name, std::uint64_t seed) {
  const synth::SiteProfile& profile = synth::site_profile(name);
  CompareInput input;
  input.label = name;
  input.dataset = synth::generate_site_trace(profile, seed);
  input.procs = static_cast<double>(profile.procs);
  return input;
}

TEST(CompareBattery, RejectsEmptyInputs) {
  EXPECT_THROW(compare_sites({}), InvalidArgument);
  CompareInput empty;
  empty.label = "empty";
  EXPECT_THROW(summarize_site(empty), InvalidArgument);
}

TEST(CompareBattery, SummarizesOneSyntheticSite) {
  const CompareInput input = site_input("lu", 42);
  const CompareSite site = summarize_site(input);
  const synth::SiteProfile& profile = synth::site_profile("lu");

  EXPECT_EQ(site.label, "lu");
  EXPECT_EQ(site.records, input.dataset.size());
  EXPECT_GT(site.nodes, 0u);
  EXPECT_LE(site.nodes, static_cast<std::size_t>(profile.nodes));
  EXPECT_GT(site.span_years, 1.5);
  EXPECT_LT(site.span_years, 2.5);
  EXPECT_GT(site.failures_per_node_year, 0.0);
  // procs was passed, so the per-processor rate is defined and smaller
  // (the lu profile has more processors than nodes).
  EXPECT_FALSE(std::isnan(site.failures_per_proc_year));
  EXPECT_LT(site.failures_per_proc_year, site.failures_per_node_year);

  double mix = 0.0;
  for (const double f : site.cause_fraction) {
    EXPECT_GE(f, 0.0);
    mix += f;
  }
  EXPECT_NEAR(mix, 1.0, 1e-12);

  EXPECT_EQ(site.repair_minutes.n, site.records);
  EXPECT_GT(site.repair_minutes.mean, site.repair_minutes.median)
      << "lognormal repairs are right-skewed";
  ASSERT_FALSE(site.repair_fits.empty());
  ASSERT_FALSE(site.gap_fits.empty());
  // The generator draws Weibull gaps and lognormal repairs; the fitted
  // parameters must at least exist and be positive.
  EXPECT_GT(site.weibull_shape, 0.0);
  EXPECT_GT(site.weibull_scale, 0.0);
  EXPECT_FALSE(std::isnan(site.repair_lognormal_mu));
  EXPECT_GT(site.repair_lognormal_sigma, 0.0);
}

TEST(CompareBattery, UnknownProcsYieldNanRate) {
  CompareInput input = site_input("mistral", 7);
  input.procs = 0.0;
  const CompareSite site = summarize_site(input);
  EXPECT_TRUE(std::isnan(site.failures_per_proc_year));
  EXPECT_FALSE(std::isnan(site.failures_per_node_year));
}

TEST(CompareBattery, ComparesSitesInInputOrder) {
  const CompareReport report =
      compare_sites({site_input("lu", 42), site_input("tan", 42)});
  ASSERT_EQ(report.sites.size(), 2u);
  EXPECT_EQ(report.sites[0].label, "lu");
  EXPECT_EQ(report.sites[1].label, "tan");
  // The two studies really differ: tan's hardware fraction is higher by
  // construction (0.62 vs 0.50 in the profiles).
  EXPECT_GT(report.sites[1].cause_fraction[0],
            report.sites[0].cause_fraction[0]);
}

TEST(CompareReportRender, TextHasOneColumnPerSiteAndKnownRows) {
  const CompareReport report =
      compare_sites({site_input("lu", 42), site_input("mistral", 42)});
  const std::string text = report::render_compare_text(report);
  EXPECT_NE(text.find("2 site(s)"), std::string::npos);
  EXPECT_NE(text.find("lu"), std::string::npos);
  EXPECT_NE(text.find("mistral"), std::string::npos);
  for (const char* row :
       {"records", "failures / node-year", "failures / proc-year",
        "hardware %", "repair mean (min)", "repair lognormal mu",
        "weibull shape", "interarrival ranking"}) {
    EXPECT_NE(text.find(row), std::string::npos) << row;
  }
}

TEST(CompareReportRender, CsvHasHeaderAndOneRowPerSite) {
  const CompareReport report =
      compare_sites({site_input("lu", 42), site_input("tan", 42)});
  std::ostringstream out;
  report::write_compare_csv(out, report);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);  // header + two sites
  EXPECT_EQ(csv.rfind("site,records,nodes,span_years,", 0), 0u);
  EXPECT_NE(csv.find("\nlu,"), std::string::npos);
  EXPECT_NE(csv.find("\ntan,"), std::string::npos);
}

TEST(CompareReportRender, CsvQuotesLabelsThatHoldCsvSyntax) {
  // A --trace path or a library label may hold a comma, a quote or a
  // newline; every row must still read back as the header's 25 fields.
  CompareInput quoted = site_input("lu", 42);
  quoted.label = "a,\"b";
  CompareInput multiline = quoted;
  multiline.label = "line\nbreak";
  const CompareReport report = compare_sites({quoted, multiline});
  std::ostringstream out;
  report::write_compare_csv(out, report);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_EQ(row.size(), 25u);
  EXPECT_EQ(rows[1][0], "a,\"b");
  EXPECT_EQ(rows[2][0], "line\nbreak");
}

TEST(CompareBattery, NativeAndForeignLoadsOfSameTraceAgree) {
  // Loading the same events natively or through an adapter file must
  // produce the identical battery (the differential cross-schema check).
  const synth::SiteProfile& profile = synth::site_profile("tan");
  const trace::FailureDataset ds = synth::generate_site_trace(profile, 5);
  CompareInput native;
  native.label = "site";
  native.dataset = ds;

  const trace::Adapter& adapter = trace::adapter_for("tan");
  const std::string path = "compare_differential_tan.txt";
  trace::write_csv_file(path, ds, adapter);
  CompareInput foreign;
  foreign.label = "site";
  foreign.dataset = trace::read_csv_file(path, adapter);
  std::remove(path.c_str());

  const CompareSite a = summarize_site(native);
  const CompareSite b = summarize_site(foreign);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.repair_minutes.mean, b.repair_minutes.mean);
  EXPECT_EQ(a.gaps_seconds.mean, b.gaps_seconds.mean);
  EXPECT_EQ(a.weibull_shape, b.weibull_shape);
  EXPECT_EQ(a.repair_lognormal_mu, b.repair_lognormal_mu);
  ASSERT_FALSE(a.gap_fits.empty());
  ASSERT_FALSE(b.gap_fits.empty());
  EXPECT_EQ(a.gap_fits.best().family, b.gap_fits.best().family);
}

}  // namespace
}  // namespace hpcfail::analysis
