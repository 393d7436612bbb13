// Full-precision pin of the fits that run a numerical solver and that the
// analyzer goldens do not reach: the gamma MLE and its Brent quantiles, the
// H2 EM fit and its quantiles, and the right-censored Weibull MLE.
//
// Samples come from the seed-42 LANL trace (systems 2, 7, 18 and 20: the
// system-wide gaps, the repair minutes and the two nodes with the most
// gaps) plus a few seeded Weibull draws, each fitted at floors 1e-9 and
// 1.0. Every double is printed with %.17g and every call with the number
// of solver steps it took (stats::solver_steps() before and after), so a
// change to any iterate shows up as a diff. The censored Weibull is fitted
// once censored at the sample's 70th percentile and once uncensored; the
// last lines are the censoring-aware fit bench_ext_hazard makes, for each
// of its four systems over 2000-2005.
// Regenerate with HPCFAIL_UPDATE_GOLDENS=1 only for an intended change.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/hazard.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "dist/gamma.hpp"
#include "dist/hyperexp.hpp"
#include "dist/weibull.hpp"
#include "stats/solver.hpp"
#include "synth/generator.hpp"
#include "testkit/golden.hpp"
#include "trace/index.hpp"

namespace hpcfail::dist {
namespace {

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

struct Sample {
  std::string label;
  std::vector<double> xs;
};

// `n` draws from `truth` with seed `seed`.
Sample draws(std::uint64_t seed, const Weibull& truth, std::size_t n) {
  Rng rng(seed);
  Sample s{"draw" + std::to_string(seed) + " " + truth.describe(), {}};
  for (std::size_t i = 0; i < n; ++i) s.xs.push_back(truth.sample(rng));
  return s;
}

std::vector<Sample> samples(const trace::FailureDataset& ds) {
  std::vector<Sample> out;
  for (const int id : {2, 7, 18, 20}) {
    const trace::DatasetView system = ds.view().for_system(id);
    const std::string sys = "sys" + std::to_string(id);
    out.push_back({sys + " gaps", system.system_interarrivals()});
    out.push_back({sys + " repair", system.repair_times_minutes()});
    std::vector<trace::NodeInterarrivalGroup> nodes =
        system.node_interarrival_groups(8);
    std::stable_sort(nodes.begin(), nodes.end(),
                     [](const auto& a, const auto& b) {
                       return a.gaps_seconds.size() > b.gaps_seconds.size();
                     });
    for (std::size_t i = 0; i < nodes.size() && i < 2; ++i) {
      const std::string node = " node" + std::to_string(nodes[i].node_id);
      out.push_back({sys + node, std::move(nodes[i].gaps_seconds)});
    }
  }
  out.push_back(draws(1, Weibull(0.7, 1e5), 200));
  out.push_back(draws(2, Weibull(0.78, 3600.0), 50));
  out.push_back(draws(3, Weibull(1.5, 100.0), 30));
  return out;
}

// What `fit` returns (or the error it throws), and its solver steps.
std::string metered(const std::function<std::string()>& fit) {
  const std::uint64_t before = stats::solver_steps();
  std::string text;
  try {
    text = fit();
  } catch (const Error& e) {
    text = std::string("error: ") + e.what();
  }
  return text + " steps=" + std::to_string(stats::solver_steps() - before);
}

void line(std::string& out, const std::string& label,
          const std::function<std::string()>& fit) {
  out += label + " " + metered(fit) + "\n";
}

// One line: each quantile followed by its solver steps.
void quantiles(std::string& out, const Distribution& model) {
  std::string text = " ";
  for (const double p : {0.001, 0.1, 0.5, 0.9, 0.999}) {
    char key[16];
    std::snprintf(key, sizeof key, " q%g=", p);
    text += key + metered([&] { return exact(model.quantile(p)); });
  }
  out += text + "\n";
}

std::string weibull_text(const Weibull& w) {
  return "shape=" + exact(w.shape()) + " scale=" + exact(w.scale());
}

void pin_sample(std::string& out, const std::string& label,
                const std::vector<double>& xs, double floor_at) {
  std::optional<GammaDist> gamma;
  line(out, label + " gamma", [&] {
    gamma = GammaDist::fit_mle(xs, floor_at);
    return "shape=" + exact(gamma->shape()) + " scale=" + exact(gamma->scale());
  });
  if (gamma) quantiles(out, *gamma);

  std::optional<HyperExp> h2;
  line(out, label + " h2", [&] {
    h2 = HyperExp::fit_em(xs, floor_at);
    return "p=" + exact(h2->weight()) + " rate1=" + exact(h2->rate1()) +
           " rate2=" + exact(h2->rate2());
  });
  if (h2) quantiles(out, *h2);

  // Type-I censoring at the 70th percentile: what lies above it is
  // observed only as having survived to it.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const double horizon = sorted[sorted.size() * 7 / 10];
  std::vector<double> events;
  std::vector<double> censored;
  for (const double x : xs) {
    if (x <= horizon) {
      events.push_back(x);
    } else {
      censored.push_back(horizon);
    }
  }
  line(out, label + " weibull_censored70", [&] {
    return weibull_text(Weibull::fit_mle_censored(events, censored, floor_at));
  });
  line(out, label + " weibull_uncensored", [&] {
    return weibull_text(Weibull::fit_mle_censored(xs, {}, floor_at));
  });
}

TEST(SolverPinGolden, GammaH2AndCensoredWeibullArePinned) {
  const trace::FailureDataset ds = synth::generate_lanl_trace(42);
  std::string out;
  for (const Sample& s : samples(ds)) {
    for (const double floor_at : {1e-9, 1.0}) {
      std::string label = s.label + " n=" + std::to_string(s.xs.size());
      label += " floor=" + exact(floor_at);
      pin_sample(out, label, s.xs, floor_at);
    }
  }

  const trace::FailureDataset late =
      ds.view()
          .between(to_epoch(2000, 1, 1), to_epoch(2006, 1, 1))
          .materialize();
  for (const int id : {7, 8, 18, 20}) {
    const analysis::HazardReport hazard =
        analysis::node_hazard_analysis(late, id);
    std::vector<double> events;
    std::vector<double> censored;
    for (const auto& obs : hazard.observations) {
      (obs.observed ? events : censored).push_back(obs.time);
    }
    std::string label = "hazard sys" + std::to_string(id);
    label += " events=" + std::to_string(events.size());
    label += " censored=" + std::to_string(censored.size());
    line(out, label, [&] {
      return weibull_text(Weibull::fit_mle_censored(events, censored, 1.0));
    });
  }

  const auto result = testkit::golden_compare(
      std::string(HPCFAIL_GOLDEN_DIR) + "/solver_fits_full_precision.golden",
      out);
  EXPECT_TRUE(static_cast<bool>(result)) << result.message;
}

}  // namespace
}  // namespace hpcfail::dist
