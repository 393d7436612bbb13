// The hpcfail benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt] [--out-dir <dir>]
//
// Runs one workload against the library as a black box, checks its
// outputs, and prints one JSON result as the last line of stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (layers a workload leaves idle read 0). A run record (machine, build,
// commit, obs state) is printed just before the result and written next
// to the traced run's spans under --out-dir.
//
// Exit codes: 0 all checks passed; 1 a correctness check failed (the
// result line says which count); 2 bad usage or an unoptimised build (no
// result line).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; the smoke test checks the two agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.generate_s", "s"},
    {"synth.generate_cpu_s", "s"},
    {"trace.write_csv_s", "s"},
    {"trace.read_csv_s", "s"},
    {"trace.validate_s", "s"},
    {"trace.index_s", "s"},
    {"trace.index_cpu_s", "s"},
    {"trace.index_rss_mb", "MB"},
    {"trace.dataset_mb", "MB"},
    {"trace.extract_s", "s"},
    {"dist.fit_s", "s"},
    {"dist.fit_cpu_s", "s"},
    {"dist.fit_points", "count"},
    {"dist.fit_failed_frac", "ratio"},
    {"analysis.root_cause_s", "s"},
    {"analysis.rates_s", "s"},
    {"analysis.node_distribution_s", "s"},
    {"analysis.lifetime_s", "s"},
    {"analysis.periodicity_s", "s"},
    {"analysis.interarrival_s", "s"},
    {"analysis.per_node_fits_s", "s"},
    {"analysis.hazard_s", "s"},
    {"analysis.repair_s", "s"},
    {"analysis.availability_s", "s"},
    {"analysis.correlation_s", "s"},
    {"analysis.trend_s", "s"},
    {"analysis.outliers_s", "s"},
    {"analysis.numeric_errors", "count"},
    {"report.render_s", "s"},
    {"trace.parse_ns", "ns"},
    {"trace.append_ns", "ns"},
    {"trace.seal_count", "count"},
    {"trace.seal_max_ms", "ms"},
    {"serve.observe_ns", "ns"},
    {"serve.report_us", "us"},
    {"trace.compaction_cells", "count"},
    {"trace.compaction_cells_us", "us"},
    {"serve.cpu_us_per_event", "us"},
    {"serve.events_per_s", "1/s"},
    {"serve.sharded_events_per_s", "1/s"},
    {"serve.shard_skew", "ratio"},
    {"serve.events_rejected", "count"},
    {"serve.http_failures", "count"},
    {"trace.epochs", "count"},
    {"serve.seed_s", "s"},
    {"serve.report_p99_ms", "ms"},
    {"serve.freshness_p50_ms", "ms"},
    {"serve.freshness_p99_ms", "ms"},
    {"serve.ingest_late_p99_ms", "ms"},
    {"sim.run_p50_ms", "ms"},
    {"sim.run_p99_ms", "ms"},
    {"sim.assemble_s", "s"},
    {"sim.parallel_efficiency", "ratio"},
    {"sim.faults", "count"},
    {"bench.batch_trace_overhead_pct", "%"},
    {"bench.live_trace_overhead_pct", "%"},
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload "
               "<batch_pipeline|campaign> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt] "
               "[--out-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage_error("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--corrupt") {
        o.corrupt = true;
      } else if (arg == "--out-dir") {
        o.out_dir = value();
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage_error("--seconds must be in (0, 600]");
  }
  return o;
}

std::string llc_size() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (in >> size) return size;
  const long bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unknown";
}

std::string run_record(const Options& o) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string out = "{";
  out += "\"workload\":\"" + o.workload + "\"";
  out += ",\"seed\":" + std::to_string(o.seed);
  out += ",\"seconds\":" + std::to_string(o.seconds);
  out += ",\"trace\":" + std::string(o.trace ? "1" : "0");
  out += ",\"tiny\":" + std::string(o.tiny ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"parallelism\":" + std::to_string(hpcfail::parallelism());
  out += ",\"llc\":\"" + llc_size() + "\"";
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  out += ",\"compiler\":\"" PERFBENCH_COMPILER "\"";
  out += ",\"commit\":\"" +
         std::string(commit != nullptr ? commit : "unknown") + "\"";
  out += ",\"obs_enabled\":" +
         std::string(hpcfail::obs::enabled() ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to report numbers from an unoptimised "
               "build (build type " PERFBENCH_BUILD_TYPE ")\n";
  return 2;
#endif
#ifdef HPCFAIL_OBS_DISABLE
  std::cerr << "perfbench: the library was built with obs compiled out; "
               "the benchmark measures the default build\n";
  return 2;
#endif

  Outcome (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "batch_pipeline") {
    run = run_batch_pipeline;
  } else if (options.workload == "campaign") {
    run = run_campaign;
  } else {
    usage_error("unknown workload '" + options.workload + "'");
  }

  Tracer tracer(options.trace);
  Outcome outcome;
  try {
    outcome = run(options, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    outcome.check(false, std::string("aborted: ") + e.what());
    outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);
  }
  hpcfail::set_parallelism(0);

  // Every metric of the mode, in table order; layers the workload left
  // idle read 0. A name the workload reports outside the table is a bug.
  std::set<std::string> known;
  std::string metrics;
  const auto emit = [&](const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      outcome.check(false, std::string("non-finite metric ") + name);
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + unit + "\"}";
  };
  const auto emit_table = [&](const auto& table) {
    for (const MetricSpec& spec : table) {
      known.insert(spec.name);
      double value = 0.0;
      for (const Metric& m : outcome.metrics) {
        if (m.name == spec.name) value = m.value;
      }
      emit(spec.name, value, spec.unit);
    }
  };
  if (options.trace) {
    emit_table(kPerLayer);
  } else {
    emit_table(kEndToEnd);
  }
  for (const Metric& m : outcome.metrics) {
    if (known.count(m.name) == 0) {
      outcome.check(false, "unlisted metric " + m.name);
    }
  }

  for (const std::string& what : outcome.mismatches) {
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }

  const std::string record = run_record(options);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-traced" : "");
  std::ofstream(stem + ".record.json") << record << "\n";
  if (options.trace && !tracer.write(stem + ".spans.jsonl")) {
    std::cerr << "perfbench: cannot write " << stem << ".spans.jsonl\n";
  }

  const bool correct = outcome.failed == 0;
  std::cout << "run_record " << record << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
