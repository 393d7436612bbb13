// Site-profile calibration oracles: each synth::SiteProfile must
// regenerate its study's published statistics. A long trace (the window
// stretched by a per-profile duration_scale to tighten the estimators)
// is run through the same analysis::summarize_site battery `hpcfail
// compare` uses, and the fitted values must recover the profile anchors
// within the tolerances below — the same numbers documented in
// EXPERIMENTS.md ("Multi-site calibration tolerances"). Everything is
// seeded; a failure is a calibration regression, not noise.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "analysis/compare.hpp"
#include "synth/site.hpp"
#include "trace/types.hpp"

namespace hpcfail {
namespace {

struct OracleCase {
  const char* profile;     ///< registry name (= adapter name)
  double duration_scale;   ///< window stretch for the oracle run
  double rate_rel_tol;     ///< failures/proc-year, relative
  double shape_abs_tol;    ///< Weibull interarrival shape, absolute
  double repair_mean_rel_tol;
  double repair_median_rel_tol;
  double cause_mix_abs_tol;  ///< per-cause fraction, absolute (pp/100)
};

// Tolerances must match the EXPERIMENTS.md table.
constexpr OracleCase kCases[] = {
    {"lu", 4.0, 0.10, 0.06, 0.10, 0.10, 0.03},
    {"mistral", 2.0, 0.08, 0.06, 0.08, 0.08, 0.03},
    {"tan", 2.0, 0.08, 0.06, 0.08, 0.08, 0.03},
};

// Prints the registry name. gtest's default dump of the raw bytes would
// put the address of `profile` into the discovered ctest name, so the
// name would change from build to build.
void PrintTo(const OracleCase& oracle, std::ostream* os) {
  *os << oracle.profile;
}

class SiteCalibration : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SiteCalibration, RecoversPublishedStatistics) {
  const OracleCase& oracle = GetParam();
  const synth::SiteProfile& profile = synth::site_profile(oracle.profile);

  analysis::CompareInput input;
  input.label = std::string(profile.name);
  input.dataset =
      synth::generate_site_trace(profile, 42, oracle.duration_scale);
  input.procs = static_cast<double>(profile.procs);
  const analysis::CompareSite site = analysis::summarize_site(input);

  // Published failure rate per processor-year.
  EXPECT_NEAR(site.failures_per_proc_year, profile.failures_per_proc_year,
              oracle.rate_rel_tol * profile.failures_per_proc_year)
      << profile.name << ": rate";

  // Published Weibull interarrival shape (the < 1 decreasing-hazard
  // signature each study reports).
  ASSERT_FALSE(std::isnan(site.weibull_shape)) << profile.name;
  EXPECT_NEAR(site.weibull_shape, profile.weibull_shape,
              oracle.shape_abs_tol)
      << profile.name << ": weibull shape";
  EXPECT_LT(site.weibull_shape, 1.0)
      << profile.name << ": decreasing hazard";

  // Published repair-time moments (lognormal mean/median, minutes).
  EXPECT_NEAR(site.repair_minutes.mean, profile.repair.mean_minutes,
              oracle.repair_mean_rel_tol * profile.repair.mean_minutes)
      << profile.name << ": repair mean";
  EXPECT_NEAR(site.repair_minutes.median, profile.repair.median_minutes,
              oracle.repair_median_rel_tol * profile.repair.median_minutes)
      << profile.name << ": repair median";

  // Published root-cause mix, absolute per-cause tolerance.
  for (const trace::RootCause cause : trace::kAllRootCauses) {
    const std::size_t i = trace::cause_index(cause);
    EXPECT_NEAR(site.cause_fraction[i], profile.cause_mix[i],
                oracle.cause_mix_abs_tol)
        << profile.name << ": cause " << trace::to_string(cause);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, SiteCalibration,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.profile);
                         });

}  // namespace
}  // namespace hpcfail
