#include "synth/site.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/time.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/catalog.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"

namespace hpcfail::synth {
namespace {

TEST(SiteProfileRegistry, ListsProfilesAscendingByName) {
  const auto profiles = all_site_profiles();
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0]->name, "lu");
  EXPECT_EQ(profiles[1]->name, "mistral");
  EXPECT_EQ(profiles[2]->name, "tan");
  EXPECT_EQ(site_profile_names(), "lu, mistral, tan");
  EXPECT_THROW(site_profile("bluegene"), ValidationError);
}

TEST(SiteProfileRegistry, ProfilesAreInternallyConsistent) {
  for (const SiteProfile* profile : all_site_profiles()) {
    EXPECT_GT(profile->nodes, 0) << profile->name;
    EXPECT_GE(profile->procs, profile->nodes) << profile->name;
    EXPECT_GT(profile->duration_years, 0.0) << profile->name;
    EXPECT_GT(profile->failures_per_proc_year, 0.0) << profile->name;
    EXPECT_GT(profile->weibull_shape, 0.0) << profile->name;
    EXPECT_GT(profile->repair.mean_minutes, profile->repair.median_minutes)
        << profile->name << ": lognormal repairs are right-skewed";
    double mix = 0.0;
    for (const double p : profile->cause_mix) mix += p;
    EXPECT_NEAR(mix, 1.0, 1e-12) << profile->name;
    // Each profile's native format names a registered adapter.
    EXPECT_NO_THROW(trace::adapter_for(profile->format)) << profile->name;
  }
}

TEST(SiteTrace, IsDeterministicInSeed) {
  const SiteProfile& profile = site_profile("lu");
  const trace::FailureDataset a = generate_site_trace(profile, 7);
  const trace::FailureDataset b = generate_site_trace(profile, 7);
  const trace::FailureDataset c = generate_site_trace(profile, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.records()[i], b.records()[i]);
  }
  EXPECT_NE(a.size(), c.size());
}

TEST(SiteTrace, StaysInsideTheObservationWindow) {
  for (const SiteProfile* profile : all_site_profiles()) {
    const trace::FailureDataset ds = generate_site_trace(*profile, 42);
    ASSERT_GT(ds.size(), 0u) << profile->name;
    const Seconds window_end =
        profile->start + static_cast<Seconds>(profile->duration_years *
                                              kSecondsPerYear);
    for (const trace::FailureRecord& r : ds.records()) {
      EXPECT_EQ(r.system_id, profile->system_id);
      EXPECT_GE(r.node_id, 0);
      EXPECT_LT(r.node_id, profile->nodes);
      EXPECT_GE(r.start, profile->start);
      EXPECT_LT(r.start, window_end);
      EXPECT_GE(r.end, r.start);
      EXPECT_TRUE(r.is_consistent());
    }
  }
}

TEST(SiteTrace, EventCountTracksThePublishedRate) {
  // Loose envelope (±35%): the exact recovery check is the calibration
  // oracle's job, this pins gross miscalibration cheaply.
  for (const SiteProfile* profile : all_site_profiles()) {
    const trace::FailureDataset ds = generate_site_trace(*profile, 42);
    const double expected = profile->failures_per_proc_year *
                            profile->procs * profile->duration_years;
    EXPECT_GT(static_cast<double>(ds.size()), 0.65 * expected)
        << profile->name;
    EXPECT_LT(static_cast<double>(ds.size()), 1.35 * expected)
        << profile->name;
  }
}

TEST(SiteTrace, DurationScaleStretchesTheWindow) {
  const SiteProfile& profile = site_profile("mistral");
  const trace::FailureDataset one = generate_site_trace(profile, 3, 1.0);
  const trace::FailureDataset two = generate_site_trace(profile, 3, 2.0);
  EXPECT_GT(two.size(), one.size() * 3 / 2);
  EXPECT_THROW(generate_site_trace(profile, 3, 0.0), InvalidArgument);
  EXPECT_THROW(generate_site_trace(profile, 3, -1.0), InvalidArgument);
  // The window may span at most the catalog's 1000 years: far past it
  // the window end overflows and the reserve asks for ~1e302 records.
  EXPECT_THROW(generate_site_trace(profile, 3, 1e300), InvalidArgument);
  const double past_cap = std::nextafter(
      trace::kMaxProductionYears / profile.duration_years, HUGE_VAL);
  EXPECT_THROW(generate_site_trace(profile, 3, past_cap), InvalidArgument);
}

TEST(SiteTrace, RoundTripsThroughItsOwnAdapterBitIdentically) {
  // The tentpole contract end to end: a whole synthetic site trace
  // written in its native foreign format and read back through the
  // adapter is the identical dataset.
  for (const SiteProfile* profile : all_site_profiles()) {
    const trace::FailureDataset ds = generate_site_trace(*profile, 11);
    const trace::Adapter& adapter = trace::adapter_for(profile->format);
    const std::string path =
        "site_roundtrip_" + std::string(profile->name) + ".txt";
    trace::write_csv_file(path, ds, adapter);
    const trace::FailureDataset back = trace::read_csv_file(path, adapter);
    ASSERT_EQ(back.size(), ds.size()) << profile->name;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      ASSERT_EQ(back.records()[i], ds.records()[i]) << profile->name;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace hpcfail::synth
