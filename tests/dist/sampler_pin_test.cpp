// Full-precision pin of the library's random draws: each sampling family
// the generators use, sim::heterogeneous_nodes, the LANL trace generator
// and the per-study site generators.
//
// Each family draws 4096 values from its own Rng(mix_seed(42, i)). The
// golden holds the first three at %.17g, an FNV-1a digest of all 4096 bit
// patterns, and the stream's next next_u64(), which pins how many
// uniforms the draws consumed. The node list and the traces are pinned by
// a digest of every field of every row. The analyzer goldens reach the
// LANL trace only through what the analyzers print, and the compare
// goldens allow a 1e-6 relative tolerance, so this is the byte-exact check
// that a change to a sampler moved no draw. A second case checks that
// standard_normal() is Normal(0, 1)'s draw, uniform for uniform.
// Regenerate with HPCFAIL_UPDATE_GOLDENS=1 only for an intended change.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "dist/gamma.hpp"
#include "dist/lognormal.hpp"
#include "dist/normal.hpp"
#include "dist/weibull.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"
#include "synth/site.hpp"
#include "testkit/golden.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::dist {
namespace {

constexpr std::size_t kDraws = 4096;

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// 64-bit FNV-1a over 64-bit words, least significant byte first.
class Fnv1a {
 public:
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (w >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void real(double x) { word(std::bit_cast<std::uint64_t>(x)); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Family {
  std::string label;
  std::unique_ptr<Distribution> dist;
};

std::vector<Family> families() {
  std::vector<Family> out;
  out.push_back({"Normal(0, 1)", std::make_unique<Normal>(0.0, 1.0)});
  out.push_back({"Normal(3, 2)", std::make_unique<Normal>(3.0, 2.0)});
  // The generator's mean-1 early-era gap at sigma = 1.25: mu = -sigma^2/2.
  out.push_back({"LogNormal(-0.78125, 1.25)",
                 std::make_unique<LogNormal>(-0.78125, 1.25)});
  out.push_back({"LogNormal::from_mean_median(342, 64)",
                 std::make_unique<LogNormal>(
                     LogNormal::from_mean_median(342.0, 64.0))});
  out.push_back({"GammaDist(0.4, 10)", std::make_unique<GammaDist>(0.4, 10.0)});
  out.push_back({"GammaDist(3, 2)", std::make_unique<GammaDist>(3.0, 2.0)});
  out.push_back({"Weibull(0.75, 1)", std::make_unique<Weibull>(0.75, 1.0)});
  return out;
}

std::string rows_digest(const trace::FailureDataset& ds) {
  Fnv1a h;
  for (const trace::FailureRecord& r : ds.records()) {
    h.word(static_cast<std::uint64_t>(r.system_id));
    h.word(static_cast<std::uint64_t>(r.node_id));
    h.word(static_cast<std::uint64_t>(r.start));
    h.word(static_cast<std::uint64_t>(r.end));
    h.word(static_cast<std::uint64_t>(r.workload));
    h.word(static_cast<std::uint64_t>(r.cause));
    h.word(static_cast<std::uint64_t>(r.detail));
  }
  return "rows=" + std::to_string(ds.size()) + " fnv=" + hex(h.value());
}

TEST(SamplerPinGolden, DrawsOfEveryFamilyAndGeneratorArePinned) {
  std::string out;
  const std::vector<Family> fams = families();
  for (std::size_t i = 0; i < fams.size(); ++i) {
    Rng rng(mix_seed(42, i));
    Fnv1a h;
    std::string first;
    for (std::size_t k = 0; k < kDraws; ++k) {
      const double x = fams[i].dist->sample(rng);
      if (k < 3) first += " " + exact(x);
      h.real(x);
    }
    out += fams[i].label + " first" + first + " fnv=" + hex(h.value()) +
           " next_u64=" + hex(rng.next_u64()) + "\n";
  }

  const std::vector<sim::ClusterNodeConfig> nodes = sim::heterogeneous_nodes(
      64, 30.0 * static_cast<double>(kSecondsPerDay), 0.5, 0.1, 4.0, 7);
  Fnv1a h;
  for (const sim::ClusterNodeConfig& n : nodes) {
    h.real(n.mtbf_seconds);
    h.real(n.repair_mean_seconds);
    h.real(n.repair_median_seconds);
  }
  out += "heterogeneous_nodes(64, 30 days, 0.5, 0.1, 4, 7) first_mtbf=" +
         exact(nodes.front().mtbf_seconds) + " fnv=" + hex(h.value()) + "\n";

  out += "generate_lanl_trace(7) " +
         rows_digest(synth::generate_lanl_trace(7)) + "\n";
  for (const char* site : {"lu", "mistral", "tan"}) {
    for (const double scale : {1.0, 4.0}) {
      out += std::string("generate_site_trace(") + site + ", 42, " +
             exact(scale) + ") " +
             rows_digest(synth::generate_site_trace(synth::site_profile(site),
                                                    42, scale)) +
             "\n";
    }
  }

  const auto result = testkit::golden_compare(
      std::string(HPCFAIL_GOLDEN_DIR) + "/sampler_draws_full_precision.golden",
      out);
  EXPECT_TRUE(static_cast<bool>(result)) << result.message;
}

TEST(SamplerPin, StandardNormalIsNormalZeroOneDrawForDraw) {
  const Normal unit(0.0, 1.0);
  Rng a(mix_seed(42, 0));
  Rng b(mix_seed(42, 0));
  for (std::size_t k = 0; k < kDraws; ++k) {
    const double z = standard_normal(a);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(z),
              std::bit_cast<std::uint64_t>(unit.sample(b)))
        << "draw " << k;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace hpcfail::dist
