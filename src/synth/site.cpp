#include "synth/site.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "trace/catalog.hpp"
#include "trace/types.hpp"

namespace hpcfail::synth {

namespace {

using trace::DetailCause;
using trace::RootCause;

// The three profiles below anchor to the statistics the source papers
// publish (rate per processor-year, interarrival Weibull shape, repair
// mean/median, cause mix); EXPERIMENTS.md records the anchors next to
// the calibration tolerances, with full citations. The geometries are
// scaled-down stand-ins for the studied machines so the default corpus
// stays test-sized; duration_scale stretches the window when an oracle
// needs tighter estimator variance.

const SiteProfile& lu_profile() {
  static const SiteProfile kProfile = [] {
    SiteProfile p;
    p.name = "lu";
    p.study = "Lu, Failure Data Analysis of HPC Systems (arXiv:1302.4779)";
    p.format = "lu";
    p.system_id = 1;
    p.nodes = 64;
    p.procs = 128;  // dual-processor commodity nodes
    p.start = to_epoch(2010, 6, 1);
    p.duration_years = 2.0;  // top of the study's 8-24 month span
    p.failures_per_proc_year = 1.8;
    p.weibull_shape = 0.78;
    p.repair = {120.0, 45.0};
    p.cause_mix = {0.50, 0.25, 0.10, 0.03, 0.04, 0.08};
    p.detail_mix[trace::cause_index(RootCause::hardware)] = {
        {DetailCause::memory_dimm, 0.6}, {DetailCause::disk, 0.4}};
    p.detail_mix[trace::cause_index(RootCause::software)] = {
        {DetailCause::operating_system, 0.7},
        {DetailCause::other_software, 0.3}};
    p.detail_mix[trace::cause_index(RootCause::network)] = {
        {DetailCause::nic, 0.6}, {DetailCause::network_switch, 0.4}};
    p.detail_mix[trace::cause_index(RootCause::environment)] = {
        {DetailCause::power_outage, 0.8}, {DetailCause::ac_failure, 0.2}};
    p.detail_mix[trace::cause_index(RootCause::human)] = {
        {DetailCause::operator_error, 1.0}};
    p.detail_mix[trace::cause_index(RootCause::unknown)] = {
        {DetailCause::undetermined, 1.0}};
    return p;
  }();
  return kProfile;
}

const SiteProfile& tan_profile() {
  static const SiteProfile kProfile = [] {
    SiteProfile p;
    p.name = "tan";
    p.study =
        "Tan & DeBardeleben, Failure Analysis and Quantification for "
        "Contemporary and Future Supercomputers (arXiv:1911.02118)";
    p.format = "tan";
    p.system_id = 2;
    p.nodes = 128;
    p.procs = 4096;  // 32 cores per contemporary node
    p.start = to_epoch(2016, 1, 1);
    p.duration_years = 2.0;
    p.failures_per_proc_year = 0.25;
    p.weibull_shape = 0.71;
    p.repair = {180.0, 64.0};
    p.cause_mix = {0.62, 0.18, 0.08, 0.04, 0.02, 0.06};
    p.detail_mix[trace::cause_index(RootCause::hardware)] = {
        {DetailCause::memory_dimm, 0.65},
        {DetailCause::node_interconnect, 0.35}};
    p.detail_mix[trace::cause_index(RootCause::software)] = {
        {DetailCause::parallel_fs, 0.5},
        {DetailCause::operating_system, 0.5}};
    p.detail_mix[trace::cause_index(RootCause::network)] = {
        {DetailCause::network_switch, 0.7}, {DetailCause::nic, 0.3}};
    p.detail_mix[trace::cause_index(RootCause::environment)] = {
        {DetailCause::power_outage, 0.6}, {DetailCause::ac_failure, 0.4}};
    p.detail_mix[trace::cause_index(RootCause::human)] = {
        {DetailCause::operator_error, 1.0}};
    p.detail_mix[trace::cause_index(RootCause::unknown)] = {
        {DetailCause::undetermined, 1.0}};
    return p;
  }();
  return kProfile;
}

const SiteProfile& mistral_profile() {
  static const SiteProfile kProfile = [] {
    SiteProfile p;
    p.name = "mistral";
    p.study =
        "Zasadzinski et al., Mistral supercomputer job-history analysis "
        "(arXiv:1801.07624)";
    p.format = "mistral";
    p.system_id = 3;
    p.nodes = 96;
    p.procs = 2304;  // 24 cores per node (Mistral's Broadwell partition)
    p.start = to_epoch(2017, 1, 1);
    p.duration_years = 1.5;
    p.failures_per_proc_year = 0.5;
    p.weibull_shape = 0.85;
    p.repair = {85.0, 30.0};
    p.cause_mix = {0.30, 0.45, 0.08, 0.02, 0.05, 0.10};
    p.detail_mix[trace::cause_index(RootCause::hardware)] = {
        {DetailCause::disk, 0.5}, {DetailCause::memory_dimm, 0.5}};
    p.detail_mix[trace::cause_index(RootCause::software)] = {
        {DetailCause::scheduler, 0.6}, {DetailCause::other_software, 0.4}};
    p.detail_mix[trace::cause_index(RootCause::network)] = {
        {DetailCause::nic, 1.0}};
    p.detail_mix[trace::cause_index(RootCause::environment)] = {
        {DetailCause::ac_failure, 1.0}};
    p.detail_mix[trace::cause_index(RootCause::human)] = {
        {DetailCause::operator_error, 1.0}};
    p.detail_mix[trace::cause_index(RootCause::unknown)] = {
        {DetailCause::undetermined, 1.0}};
    return p;
  }();
  return kProfile;
}

}  // namespace

std::span<const SiteProfile* const> all_site_profiles() noexcept {
  static const SiteProfile* const kAll[] = {&lu_profile(), &mistral_profile(),
                                            &tan_profile()};
  return kAll;
}

std::string site_profile_names() {
  std::string joined;
  for (const SiteProfile* profile : all_site_profiles()) {
    if (!joined.empty()) joined += ", ";
    joined += profile->name;
  }
  return joined;
}

const SiteProfile& site_profile(std::string_view name) {
  for (const SiteProfile* profile : all_site_profiles()) {
    if (profile->name == name) return *profile;
  }
  throw ValidationError("unknown site profile '" + std::string(name) +
                        "' (known sites: " + site_profile_names() + ")");
}

trace::FailureDataset generate_site_trace(const SiteProfile& profile,
                                          std::uint64_t seed,
                                          double duration_scale) {
  HPCFAIL_EXPECTS(duration_scale > 0.0 &&
                      profile.duration_years * duration_scale <=
                          trace::kMaxProductionYears,
                  "duration_scale must be positive and keep the window "
                  "within 1000 years");
  const double span_seconds =
      profile.duration_years * duration_scale * kSecondsPerYear;
  const Seconds window_end =
      profile.start + static_cast<Seconds>(std::llround(span_seconds));

  // The published rate is per processor-year; each node fails as a
  // Weibull renewal process whose mean gap realizes that rate for the
  // node's share of the processors.
  const double failures_per_node_year =
      profile.failures_per_proc_year * profile.procs /
      static_cast<double>(profile.nodes);
  HPCFAIL_EXPECTS(failures_per_node_year > 0.0,
                  "profile rate must be positive");
  const double mean_gap_seconds = kSecondsPerYear / failures_per_node_year;
  const double scale =
      mean_gap_seconds / std::tgamma(1.0 + 1.0 / profile.weibull_shape);
  const dist::Weibull gap_dist(profile.weibull_shape, scale);
  const dist::LogNormal repair_dist = dist::LogNormal::from_mean_median(
      profile.repair.mean_minutes, profile.repair.median_minutes);

  std::vector<trace::FailureRecord> records;
  records.reserve(static_cast<std::size_t>(
      failures_per_node_year * profile.nodes * profile.duration_years *
      duration_scale * 1.2));
  for (int node = 0; node < profile.nodes; ++node) {
    // Independent per-node stream: node order and node count changes
    // never perturb other nodes' draws.
    Rng rng(mix_seed(seed, static_cast<std::uint64_t>(profile.system_id),
                     static_cast<std::uint64_t>(node)));
    Seconds t = profile.start;
    while (true) {
      const double gap = gap_dist.sample(rng);
      t += std::max<Seconds>(1, static_cast<Seconds>(std::llround(gap)));
      if (t >= window_end) break;
      trace::FailureRecord record;
      record.system_id = profile.system_id;
      record.node_id = node;
      record.start = t;
      const double repair_minutes = repair_dist.sample(rng);
      record.end = t + std::max<Seconds>(
                           0, static_cast<Seconds>(
                                  std::llround(repair_minutes * 60.0)));
      record.cause = sample_cause(rng, profile.cause_mix);
      record.detail = sample_detail(
          rng, profile.detail_mix[trace::cause_index(record.cause)]);
      record.workload = trace::Workload::compute;
      records.push_back(record);
    }
  }
  return trace::FailureDataset(std::move(records));
}

}  // namespace hpcfail::synth
