// hpcfail command-line tool: trace generation, validation, analysis,
// fitting, and profiling without writing C++.
//
// Subcommands are declared in a table of ArgSpecs (name, type, default,
// required, help); parsing, typed access, per-subcommand `--help`, and the
// unknown-option diagnostics are all generated from that table, so adding
// an option is one line.  Every subcommand also accepts the global
// options:
//
//   --threads N            worker threads (default: hardware concurrency)
//   --metrics-out FILE     write an obs metrics dump after the command
//   --metrics-format FMT   json (default) | csv | prom
//   --help                 subcommand usage
//   --version              print the library version
//
// Exit codes: 0 success, 1 runtime failure (typed message on stderr),
// 2 usage error (bad/unknown/missing option) or `validate` finding
// issues — the usual lint-tool convention. Library errors map to
// distinct stderr prefixes by type: "parse error:", "validation
// error:", "fit error:", "io error:", "invalid argument:", and
// "error:" for everything else.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hpcfail.hpp"

#ifndef HPCFAIL_VERSION
#define HPCFAIL_VERSION "0.0.0-dev"
#endif

namespace {

using namespace hpcfail;

// ---------------------------------------------------------------------------
// Declarative option table

enum class ArgType { string, integer, uint64, real, timestamp, flag };

const char* type_label(ArgType type) {
  switch (type) {
    case ArgType::string: return "STR";
    case ArgType::integer: return "N";
    case ArgType::uint64: return "N";
    case ArgType::real: return "X";
    case ArgType::timestamp: return "YYYY-MM-DD";
    case ArgType::flag: return "";
  }
  return "?";
}

struct ArgSpec {
  std::string name;           ///< option name without the leading "--"
  ArgType type = ArgType::string;
  std::string default_value;  ///< empty: no default
  bool required = false;
  std::string help;
};

/// Options every subcommand accepts, appended to each subcommand's table.
const std::vector<ArgSpec>& global_specs() {
  static const std::vector<ArgSpec> kGlobals = {
      {"threads", ArgType::integer, "", false,
       "worker threads for generation/fitting (default: hardware "
       "concurrency; output is identical at any thread count)"},
      {"metrics-out", ArgType::string, "", false,
       "write collected metrics to FILE after the command"},
      {"metrics-format", ArgType::string, "json", false,
       "metrics dump format: json | csv | prom"},
  };
  return kGlobals;
}

/// Parsed option values with table-driven typed access.
class Args {
 public:
  Args(const std::vector<ArgSpec>* specs, std::string subcommand)
      : specs_(specs), subcommand_(std::move(subcommand)) {}

  void set(const std::string& name, std::string value) {
    values_[name] = std::move(value);
  }

  bool has(const std::string& name) const {
    return values_.count(name) != 0 || !spec(name).default_value.empty();
  }
  /// True only when the user passed the option explicitly.
  bool given(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string get_string(const std::string& name) const {
    return raw(name);
  }
  int get_int(const std::string& name) const {
    return static_cast<int>(parse_integer(name, raw(name)));
  }
  std::uint64_t get_u64(const std::string& name) const {
    const long long v = parse_integer(name, raw(name));
    if (v < 0) {
      throw ParseError("option --" + name + " must be non-negative");
    }
    return static_cast<std::uint64_t>(v);
  }
  double get_double(const std::string& name) const {
    try {
      return parse_double(raw(name));
    } catch (const ParseError&) {
      throw ParseError("option --" + name + " expects a number, got '" +
                       raw(name) + "'");
    }
  }
  Seconds get_timestamp(const std::string& name) const {
    return parse_timestamp(raw(name));
  }

  const std::string& subcommand() const { return subcommand_; }

 private:
  const ArgSpec& spec(const std::string& name) const {
    for (const ArgSpec& s : *specs_) {
      if (s.name == name) return s;
    }
    for (const ArgSpec& s : global_specs()) {
      if (s.name == name) return s;
    }
    throw LogicError("option --" + name + " not declared for '" +
                     subcommand_ + "'");
  }

  std::string raw(const std::string& name) const {
    const ArgSpec& s = spec(name);
    const auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    if (!s.default_value.empty()) return s.default_value;
    throw ParseError("subcommand '" + subcommand_ +
                     "' requires option --" + name);
  }

  long long parse_integer(const std::string& name,
                          const std::string& text) const {
    long long value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw ParseError("option --" + name + " expects an integer, got '" +
                       text + "'");
    }
    return value;
  }

  const std::vector<ArgSpec>* specs_;
  std::string subcommand_;
  std::map<std::string, std::string> values_;
};

struct Subcommand {
  std::string name;
  std::string summary;
  std::vector<ArgSpec> args;
  int (*run)(const Args&);
};

const std::vector<Subcommand>& subcommands();

const Subcommand* find_subcommand(const std::string& name) {
  for (const Subcommand& sc : subcommands()) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

void print_specs(std::ostream& out, const std::vector<ArgSpec>& specs) {
  for (const ArgSpec& s : specs) {
    std::string left = "  --" + s.name;
    if (s.type != ArgType::flag) left += std::string(" ") + type_label(s.type);
    if (left.size() < 26) left.resize(26, ' ');
    out << left << s.help;
    if (!s.default_value.empty()) out << " [default: " << s.default_value
                                      << "]";
    if (s.required) out << " (required)";
    out << "\n";
  }
}

void subcommand_usage(std::ostream& out, const Subcommand& sc) {
  out << "usage: hpcfail " << sc.name << " [options]\n\n"
      << sc.summary << "\n";
  if (!sc.args.empty()) {
    out << "\noptions:\n";
    print_specs(out, sc.args);
  }
  out << "\nglobal options:\n";
  print_specs(out, global_specs());
  out << "  --help                  show this message\n"
         "  --version               print the library version\n";
}

void usage(std::ostream& out) {
  out << "usage: hpcfail <command> [options]\n\ncommands:\n";
  for (const Subcommand& sc : subcommands()) {
    std::string left = "  " + sc.name;
    if (left.size() < 16) left.resize(16, ' ');
    out << left << sc.summary << "\n";
  }
  out << "\n'hpcfail <command> --help' lists each command's options;\n"
         "'hpcfail --version' prints the library version.\n";
}

/// Parses argv[first..] against the subcommand's table. Returns nullopt
/// when --help/--version was handled (caller exits 0).
std::optional<Args> parse_args(const Subcommand& sc, int argc, char** argv,
                               int first) {
  Args args(&sc.args, sc.name);
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      subcommand_usage(std::cout, sc);
      return std::nullopt;
    }
    if (arg == "--version") {
      std::cout << "hpcfail " << HPCFAIL_VERSION << "\n";
      return std::nullopt;
    }
    if (arg.rfind("--", 0) != 0) {
      throw ParseError("unexpected argument '" + arg +
                       "' for subcommand '" + sc.name + "'");
    }
    arg = arg.substr(2);
    const ArgSpec* spec = nullptr;
    for (const ArgSpec& s : sc.args) {
      if (s.name == arg) spec = &s;
    }
    for (const ArgSpec& s : global_specs()) {
      if (s.name == arg) spec = &s;
    }
    if (spec == nullptr) {
      throw ParseError("unknown option --" + arg + " for subcommand '" +
                       sc.name + "' (see 'hpcfail " + sc.name +
                       " --help')");
    }
    if (spec->type == ArgType::flag) {
      args.set(arg, "1");
      continue;
    }
    if (i + 1 >= argc) {
      throw ParseError("option --" + arg + " needs a value");
    }
    args.set(arg, argv[++i]);
  }
  for (const ArgSpec& s : sc.args) {
    if (s.required && !args.given(s.name)) {
      throw ParseError("subcommand '" + sc.name +
                       "' requires option --" + s.name);
    }
  }
  return args;
}

// ---------------------------------------------------------------------------
// Shared helpers

trace::FailureDataset load_dataset(const Args& args) {
  if (args.given("trace")) {
    return trace::read_csv_file(args.get_string("trace"));
  }
  return synth::generate_lanl_trace(args.get_u64("seed"));
}

void apply_global_options(const Args& args) {
  if (args.given("threads")) {
    const int threads = args.get_int("threads");
    if (threads < 1) throw ValidationError("--threads must be >= 1");
    set_parallelism(static_cast<unsigned>(threads));
  }
  // Validate the format eagerly so a typo fails before minutes of work.
  obs::export_format_from_string(args.get_string("metrics-format"));
}

void maybe_write_metrics(const Args& args) {
  if (!args.given("metrics-out")) return;
  const obs::ExportFormat format =
      obs::export_format_from_string(args.get_string("metrics-format"));
  obs::write_metrics_file(args.get_string("metrics-out"), format);
  std::cerr << "metrics written to " << args.get_string("metrics-out")
            << " (" << obs::to_string(format) << ")\n";
}

// ---------------------------------------------------------------------------
// Subcommand handlers

int cmd_generate(const Args& args) {
  const std::uint64_t seed = args.get_u64("seed");
  const trace::FailureDataset ds = synth::generate_lanl_trace(seed);
  trace::write_csv_file(args.get_string("out"), ds);
  std::cout << "wrote " << ds.size() << " records (seed " << seed
            << ") to " << args.get_string("out") << "\n";
  return 0;
}

int cmd_catalog(const Args&) {
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();
  report::TextTable table({"ID", "HW", "arch", "nodes", "procs",
                           "production"});
  for (const trace::SystemInfo& sys : catalog.systems()) {
    table.add_row({std::to_string(sys.id), std::string(1, sys.hw_type),
                   std::string(sys.numa ? "NUMA" : "SMP"),
                   std::to_string(sys.nodes), std::to_string(sys.procs),
                   format_timestamp(sys.production_start()).substr(0, 7) +
                       " .. " +
                       format_timestamp(sys.production_end()).substr(0,
                                                                     7)});
  }
  table.render(std::cout);
  std::cout << "total: " << catalog.total_nodes() << " nodes, "
            << catalog.total_procs() << " processors\n";
  return 0;
}

int cmd_validate(const Args& args) {
  const trace::FailureDataset ds =
      trace::read_csv_file(args.get_string("trace"));
  const trace::ValidationReport report =
      trace::validate(ds, trace::SystemCatalog::lanl());
  std::cout << report.records_checked << " records checked, "
            << report.issues.size() << " issues\n";
  for (const trace::ValidationIssue& issue : report.issues) {
    std::cout << "record " << issue.record_index << ": "
              << trace::to_string(issue.kind) << ": " << issue.message
              << "\n";
  }
  if (args.given("drop-out")) {
    const trace::FailureDataset cleaned = trace::drop_flagged(ds, report);
    trace::write_csv_file(args.get_string("drop-out"), cleaned);
    std::cout << "wrote " << cleaned.size() << " clean records to "
              << args.get_string("drop-out") << "\n";
  }
  return report.clean() ? 0 : 2;
}

int cmd_fit(const Args& args) {
  const trace::FailureDataset ds = load_dataset(args);
  analysis::InterarrivalQuery query;
  query.system_id = args.get_int("system");
  if (args.given("node")) query.node_id = args.get_int("node");
  if (args.given("from")) query.from = args.get_timestamp("from");
  if (args.given("to")) query.to = args.get_timestamp("to");
  const analysis::InterarrivalReport report =
      analysis::interarrival_analysis(ds, query);
  std::cout << report.gaps_seconds.size()
            << " interarrival times; mean "
            << format_double(report.summary.mean / 3600.0, 4)
            << " h, median "
            << format_double(report.summary.median / 3600.0, 4)
            << " h, C^2 " << format_double(report.summary.cv2, 4)
            << ", zero fraction "
            << format_double(report.zero_fraction, 3) << "\n";
  report::TextTable table({"model (best first)", "negLL", "AIC", "KS",
                           "iters"});
  for (const auto& fit : report.fits) {
    table.add_row(fit.model->describe(),
                  {fit.nll, fit.aic, fit.ks,
                   static_cast<double>(fit.iterations)});
  }
  table.render(std::cout);
  if (report.fits.failed_families > 0) {
    std::cout << report.fits.failed_families
              << " family(ies) failed to converge\n";
  }
  return 0;
}

int cmd_repair(const Args& args) {
  const trace::FailureDataset ds = load_dataset(args);
  const analysis::RepairReport report =
      analysis::repair_analysis(ds, trace::SystemCatalog::lanl());
  report::TextTable table({"cause", "mean (min)", "median", "C^2", "n"});
  for (const auto& c : report.by_cause) {
    table.add_row(trace::to_string(c.cause),
                  {c.stats.mean, c.stats.median, c.stats.cv2,
                   static_cast<double>(c.stats.n)},
                  4);
  }
  table.add_row("all", {report.all.mean, report.all.median,
                        report.all.cv2,
                        static_cast<double>(report.all.n)},
                4);
  table.render(std::cout);
  std::cout << "best model: " << report.fits.best().model->describe()
            << "\n";
  return 0;
}

int cmd_availability(const Args& args) {
  const trace::FailureDataset ds = load_dataset(args);
  const auto rows = analysis::availability_analysis(
      ds, trace::SystemCatalog::lanl());
  report::TextTable table({"system", "failures", "downtime (h)",
                           "availability %"});
  for (const auto& a : rows) {
    table.add_row(a.system_id == 0 ? "site" : std::to_string(a.system_id),
                  {static_cast<double>(a.failures), a.downtime_hours,
                   a.availability * 100.0},
                  5);
  }
  table.render(std::cout);
  return 0;
}

int cmd_report(const Args& args) {
  const trace::FailureDataset ds = load_dataset(args);
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();
  const int system_id = args.get_int("system");
  std::ostream& out = std::cout;

  out << "hpcfail failure report: " << ds.size() << " records, "
      << format_timestamp(ds.first_start()).substr(0, 10) << " .. "
      << format_timestamp(ds.last_end()).substr(0, 10) << "\n\n";

  // Fig 1(a): the root-cause breakdown over every record.
  const analysis::RootCauseReport causes =
      analysis::root_cause_breakdown(ds, catalog);
  std::vector<std::pair<std::string, double>> bars;
  for (const trace::RootCause cause : trace::kAllRootCauses) {
    bars.emplace_back(
        trace::to_string(cause),
        causes.all.count_percent[analysis::breakdown_index(cause)]);
  }
  report::bar_chart(out, "failures by root cause (% of records)", bars);
  out << "\n";

  // Fig 2: failure rates per system.
  report::TextTable rates(
      {"system", "HW", "failures", "fail/yr", "fail/yr/proc"});
  for (const analysis::SystemRate& r : analysis::failure_rates(ds, catalog)) {
    rates.add_row({std::to_string(r.system_id), std::string(1, r.hw_type),
                   std::to_string(r.failures),
                   format_double(r.failures_per_year, 4),
                   format_double(r.failures_per_year_per_proc, 4)});
  }
  rates.render(out);
  out << "\n";

  // Fig 6 view (ii): system-wide interarrival fits for --system. The
  // solver iteration counts are intentionally omitted: the report output
  // is golden-snapshotted and only statistically meaningful values
  // belong in the snapshot.
  analysis::InterarrivalQuery query;
  query.system_id = system_id;
  const analysis::InterarrivalReport inter =
      analysis::interarrival_analysis(ds, query);
  out << "system " << system_id << " interarrival times: "
      << inter.gaps_seconds.size() << " gaps, mean "
      << format_double(inter.summary.mean / 3600.0, 4) << " h, C^2 "
      << format_double(inter.summary.cv2, 4) << ", zero fraction "
      << format_double(inter.zero_fraction, 3) << "\n";
  report::TextTable fits({"model (best first)", "negLL", "AIC", "KS"});
  for (const auto& fit : inter.fits) {
    fits.add_row(fit.model->describe(), {fit.nll, fit.aic, fit.ks});
  }
  fits.render(out);
  out << "\n";

  // Table 2: repair times by root cause.
  const analysis::RepairReport repair =
      analysis::repair_analysis(ds, catalog);
  report::TextTable by_cause({"cause", "mean (min)", "median", "C^2", "n"});
  for (const auto& c : repair.by_cause) {
    by_cause.add_row(trace::to_string(c.cause),
                     {c.stats.mean, c.stats.median, c.stats.cv2,
                      static_cast<double>(c.stats.n)},
                     4);
  }
  by_cause.add_row("all", {repair.all.mean, repair.all.median,
                           repair.all.cv2,
                           static_cast<double>(repair.all.n)},
                   4);
  by_cause.render(out);
  out << "best repair-time model: " << repair.fits.best().model->describe()
      << "\n";
  return 0;
}

int cmd_profile(const Args& args) {
  struct StageRow {
    std::string name;
    double wall = 0.0;
    double cpu = 0.0;
  };
  std::vector<StageRow> rows;
  // Each stage runs under its own CPU-measuring ScopedTimer so the table
  // is read off the timers directly (and the same numbers land in the obs
  // registry as profile.<stage>.seconds / .cpu_seconds histograms for
  // --metrics-out).
  const auto timed = [&rows](const std::string& name, auto&& fn) {
    obs::ScopedTimer stage("profile." + name, /*cpu=*/true);
    fn();
    stage.stop();
    rows.push_back({name, stage.elapsed_seconds(), stage.cpu_seconds()});
  };

  const std::uint64_t seed = args.get_u64("seed");
  const int system_id = args.get_int("system");

  trace::FailureDataset ds;
  if (args.given("trace")) {
    timed("load", [&] { ds = trace::read_csv_file(args.get_string("trace")); });
  } else {
    timed("generate", [&] { ds = synth::generate_lanl_trace(seed); });
  }
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();

  timed("validate", [&] { (void)trace::validate(ds, catalog); });
  // Force the one-time index build so the analysis stages below measure
  // extraction cost alone.
  timed("index", [&] { (void)ds.index(); });
  timed("failure_rates", [&] { (void)analysis::failure_rates(ds, catalog); });
  timed("interarrival", [&] {
    analysis::InterarrivalQuery query;
    query.system_id = system_id;
    (void)analysis::interarrival_analysis(ds, query);
  });
  timed("per_node_fits", [&] {
    (void)analysis::per_node_interarrival_fits(ds, system_id);
  });
  timed("repair", [&] { (void)analysis::repair_analysis(ds, catalog); });
  timed("availability", [&] {
    (void)analysis::availability_analysis(ds, catalog);
  });

  std::cout << ds.size() << " records, " << parallelism() << " threads\n";
  report::TextTable table({"stage", "wall (s)", "cpu (s)", "cpu/wall"});
  double total_wall = 0.0;
  double total_cpu = 0.0;
  for (const StageRow& r : rows) {
    table.add_row(r.name,
                  {r.wall, r.cpu, r.wall > 0.0 ? r.cpu / r.wall : 0.0}, 4);
    total_wall += r.wall;
    total_cpu += r.cpu;
  }
  table.add_row("total",
                {total_wall, total_cpu,
                 total_wall > 0.0 ? total_cpu / total_wall : 0.0},
                4);
  table.render(std::cout);
  return 0;
}

int cmd_campaign(const Args& args) {
  sim::CampaignSpec spec;
  std::vector<sim::CampaignScenario> library = sim::default_scenarios();
  if (args.given("trace")) {
    const trace::FailureDataset ds =
        trace::read_csv_file(args.get_string("trace"));
    library.push_back(
        sim::replay_scenario(ds, args.get_int("replay-system")));
  }
  const std::string scenario = args.get_string("scenario");
  if (scenario == "all") {
    spec.scenarios = std::move(library);
  } else {
    std::string known;
    for (const sim::CampaignScenario& s : library) {
      if (s.name == scenario) spec.scenarios.push_back(s);
      known += " | " + s.name;
    }
    if (spec.scenarios.empty()) {
      throw ValidationError("unknown scenario '" + scenario +
                            "' (expected: all" + known + ")");
    }
  }
  const std::string policy = args.get_string("policy");
  for (const sim::CampaignPolicy& p : sim::default_policy_set()) {
    if (policy == "all" || p.name == policy) spec.policies.push_back(p);
  }
  if (spec.policies.empty()) {
    throw ValidationError("unknown policy '" + policy +
                          "' (expected: all | none | hourly | hourly-ranked)");
  }
  spec.runs_per_cell = args.get_u64("runs");
  spec.seed = args.get_u64("seed");
  const sim::Campaign campaign(std::move(spec));

  if (args.given("dry-run")) {
    std::cout << "campaign: " << campaign.spec().scenarios.size()
              << " scenario(s) x " << campaign.spec().policies.size()
              << " policy(ies) x " << campaign.spec().runs_per_cell
              << " replicate(s) = " << campaign.total_runs()
              << " runs, fingerprint " << campaign.fingerprint() << "\n";
    report::TextTable table(
        {"cell", "scenario", "policy", "nodes", "faults/run"});
    for (std::size_t cell = 0; cell < campaign.cell_count(); ++cell) {
      const auto schedule = campaign.schedule_for(cell, 0);
      table.add_row(
          {std::to_string(cell), campaign.scenario_of_cell(cell).name,
           campaign.policy_of_cell(cell).name,
           std::to_string(campaign.scenario_of_cell(cell).node_count),
           std::to_string(schedule.size())});
    }
    table.render(std::cout);
    return 0;
  }

  sim::CampaignCheckpoint resume;
  const sim::CampaignCheckpoint* resume_ptr = nullptr;
  std::string checkpoint_path;
  if (args.given("checkpoint")) {
    checkpoint_path = args.get_string("checkpoint");
    if (std::ifstream(checkpoint_path).good()) {
      resume = sim::load_campaign_checkpoint(checkpoint_path);
      resume_ptr = &resume;
      std::cout << "resuming from " << checkpoint_path << " ("
                << resume.completed.size() << "/" << resume.total_runs
                << " runs done)\n";
    }
  }

  sim::CampaignResult result;
  if (args.given("limit-runs")) {
    const sim::CampaignCheckpoint advanced =
        campaign.run_partial(args.get_u64("limit-runs"), resume_ptr);
    if (!checkpoint_path.empty()) {
      sim::save_campaign_checkpoint(checkpoint_path, advanced);
    }
    if (!advanced.complete()) {
      std::cout << "campaign paused: " << advanced.completed.size() << "/"
                << advanced.total_runs << " runs done\n";
      return 0;
    }
    result = campaign.summarize(advanced);
  } else {
    result = campaign.run(resume_ptr);
    if (!checkpoint_path.empty()) {
      sim::CampaignCheckpoint finished;
      finished.fingerprint = campaign.fingerprint();
      finished.total_runs = campaign.total_runs();
      finished.completed = result.runs;
      sim::save_campaign_checkpoint(checkpoint_path, finished);
    }
  }

  const auto render_report = [&result](std::ostream& out) {
    report::TextTable table({"scenario", "policy", "runs", "faults",
                             "makespan (h)", "95% CI", "waste %",
                             "interrupts"});
    for (const sim::CampaignCellSummary& c : result.cells) {
      table.add_row(
          {c.scenario, c.policy, std::to_string(c.runs),
           std::to_string(c.faults_injected),
           format_double(c.makespan.point / 3600.0, 4),
           format_double(c.makespan.lo / 3600.0, 4) + ".." +
               format_double(c.makespan.hi / 3600.0, 4),
           format_double(c.waste_fraction.point * 100.0, 3),
           format_double(c.interruptions.point, 3)});
    }
    table.render(out);
    out << "total faults injected: " << result.total_faults_injected()
        << " across " << result.runs.size() << " runs\n";
  };
  render_report(std::cout);
  if (args.given("report-out")) {
    std::ofstream out(args.get_string("report-out"));
    if (!out) {
      throw IoError("cannot open report file: " +
                    args.get_string("report-out"));
    }
    render_report(out);
    out.flush();
    if (!out) {
      throw IoError("failed writing report file: " +
                    args.get_string("report-out"));
    }
    std::cerr << "campaign report written to "
              << args.get_string("report-out") << "\n";
  }
  return 0;
}

serve::Server* g_serve_instance = nullptr;

extern "C" void handle_stop_signal(int) {
  // Server::stop() is async-signal-safe (one self-pipe write).
  if (g_serve_instance != nullptr) g_serve_instance->stop();
}

int cmd_serve(const Args& args) {
  serve::ServerOptions opts;
  opts.host = args.get_string("host");
  opts.ingest_port = args.get_int("ingest-port");
  opts.http_port = args.get_int("http-port");
  opts.window_seconds =
      static_cast<Seconds>(args.get_int("window-hours")) * kSecondsPerHour;
  opts.bucket_seconds = static_cast<Seconds>(args.get_u64("bucket-seconds"));
  opts.max_buckets = static_cast<std::size_t>(args.get_u64("max-buckets"));
  opts.max_events = args.get_u64("max-events");
  opts.ingest_threads = static_cast<std::size_t>(args.get_u64("ingest-threads"));
  if (args.given("retain-hours")) {
    opts.epoch.retain_seconds =
        static_cast<Seconds>(args.get_u64("retain-hours")) * kSecondsPerHour;
  }
  opts.epoch.max_sealed_events =
      static_cast<std::size_t>(args.get_u64("max-sealed-events"));
  if (args.given("tail")) opts.tail_path = args.get_string("tail");
  if (args.given("format")) opts.ingest_format = args.get_string("format");

  std::unique_ptr<serve::Server> server;
  if (args.given("trace")) {
    trace::FailureDataset seed =
        trace::read_csv_file(args.get_string("trace"));
    std::cout << "seeded with " << seed.size() << " records from "
              << args.get_string("trace") << "\n";
    server = std::make_unique<serve::Server>(opts, std::move(seed));
  } else {
    server = std::make_unique<serve::Server>(opts);
  }
  server->start();
  g_serve_instance = server.get();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // key=value lines so scripts can scrape the resolved ephemeral ports.
  std::cout << "ingest_port=" << server->ingest_port() << "\n"
            << "http_port=" << server->http_port() << "\n"
            << "serving on " << opts.host << " (line protocol -> ingest, "
            << "GET /report /stats /metrics /healthz /shutdown -> http)"
            << std::endl;

  server->wait();
  g_serve_instance = nullptr;
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  std::cout << "ingested " << server->events_ingested() << " events ("
            << server->events_rejected() << " rejected), index epoch "
            << server->dataset().epoch() << ", " << server->dataset().size()
            << " records";
  if (server->dataset().compacted_events() > 0) {
    std::cout << ", " << server->dataset().compacted_events()
              << " compacted";
  }
  std::cout << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  serve::ReplayOptions opts;
  opts.host = args.get_string("host");
  opts.port = args.get_int("port");
  opts.speedup = args.get_double("speedup");
  opts.connections = static_cast<std::size_t>(args.get_u64("connections"));
  opts.limit = args.get_u64("limit");
  if (args.given("format")) {
    opts.format = &trace::adapter_for(args.get_string("format"));
  }

  // --format selects both the file parser and the wire format, so a
  // foreign trace replays into a daemon started with the same --format.
  const trace::FailureDataset dataset =
      trace::read_csv_file(args.get_string("trace"), *opts.format);
  std::cout << "replaying " << dataset.size() << " records to " << opts.host
            << ":" << opts.port << " over " << opts.connections
            << " connection(s)";
  if (opts.speedup > 0.0) {
    std::cout << " at " << format_double(opts.speedup, 6) << "x trace time";
  } else {
    std::cout << " at full speed";
  }
  std::cout << std::endl;

  const serve::ReplayStats stats = serve::replay_dataset(dataset, opts);

  // key=value lines so scripts (the CI replay-smoke job) can assert on
  // exact totals.
  std::cout << "sent=" << stats.events_sent << "\n"
            << "bytes=" << stats.bytes_sent << "\n"
            << "trace_span_seconds=" << stats.trace_span << "\n"
            << "wall_seconds=" << format_double(stats.wall_seconds, 6) << "\n"
            << "events_per_sec=" << format_double(stats.events_per_sec, 6)
            << "\n";
  return 0;
}

/// One `--trace` entry, `PATH` or `PATH:FORMAT` — the suffix is treated
/// as a format only when it names a registered adapter, so plain paths
/// containing ':' still load as native CSV.
struct TraceEntry {
  std::string path;
  const trace::Adapter* format = &trace::native_format();
};

TraceEntry parse_trace_entry(const std::string& entry) {
  const std::size_t colon = entry.rfind(':');
  if (colon != std::string::npos) {
    const std::string suffix = entry.substr(colon + 1);
    for (const trace::Adapter* adapter : trace::all_adapters()) {
      if (adapter->name() == suffix) {
        return {entry.substr(0, colon), adapter};
      }
    }
  }
  return {entry};
}

int cmd_compare(const Args& args) {
  std::vector<analysis::CompareInput> inputs;
  if (args.given("site")) {
    for (const std::string& name : split(args.get_string("site"), ',')) {
      const synth::SiteProfile& profile = synth::site_profile(name);
      analysis::CompareInput input;
      input.label = std::string(profile.name);
      input.dataset = synth::generate_site_trace(
          profile, args.get_u64("seed"), args.get_double("duration-scale"));
      input.procs = static_cast<double>(profile.procs);
      inputs.push_back(std::move(input));
    }
  }
  if (args.given("trace")) {
    for (const std::string& entry : split(args.get_string("trace"), ',')) {
      const TraceEntry parsed = parse_trace_entry(entry);
      analysis::CompareInput input;
      input.label = parsed.path;
      input.dataset = trace::read_csv_file(parsed.path, *parsed.format);
      inputs.push_back(std::move(input));
    }
  }
  if (inputs.empty()) {
    throw ValidationError(
        "compare needs at least one --site or --trace entry");
  }

  const analysis::CompareReport report = analysis::compare_sites(inputs);
  report::render_compare(std::cout, report);

  const auto write_file = [](const std::string& path, auto&& emit) {
    std::ofstream out(path);
    if (!out) throw IoError("cannot open '" + path + "' for writing");
    emit(out);
    out.flush();
    if (!out) throw IoError("write failed for '" + path + "'");
  };
  if (args.given("out")) {
    write_file(args.get_string("out"), [&report](std::ostream& out) {
      report::render_compare(out, report);
    });
    std::cerr << "comparison report written to " << args.get_string("out")
              << "\n";
  }
  if (args.given("csv-out")) {
    write_file(args.get_string("csv-out"), [&report](std::ostream& out) {
      report::write_compare_csv(out, report);
    });
    std::cerr << "comparison CSV written to " << args.get_string("csv-out")
              << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The subcommand table

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kTable = {
      {"generate", "synthesize a LANL-shaped failure trace",
       {
           {"out", ArgType::string, "", true, "output CSV path"},
           {"seed", ArgType::uint64, "42", false, "generator seed"},
       },
       &cmd_generate},
      {"catalog", "print the LANL system catalog", {}, &cmd_catalog},
      {"validate", "check a trace for consistency issues (exit 2 if any)",
       {
           {"trace", ArgType::string, "", true, "trace CSV to validate"},
           {"drop-out", ArgType::string, "", false,
            "write the trace minus flagged records to FILE"},
       },
       &cmd_validate},
      {"fit", "fit interarrival-time distributions (Fig 6)",
       {
           {"trace", ArgType::string, "", false,
            "trace CSV (default: generate with --seed)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed when no --trace"},
           {"system", ArgType::integer, "", true, "system id to analyze"},
           {"node", ArgType::integer, "", false,
            "restrict to one node (view i)"},
           {"from", ArgType::timestamp, "", false, "window start"},
           {"to", ArgType::timestamp, "", false, "window end"},
       },
       &cmd_fit},
      {"repair", "repair-time statistics and fits (Table 2, Fig 7)",
       {
           {"trace", ArgType::string, "", false,
            "trace CSV (default: generate with --seed)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed when no --trace"},
       },
       &cmd_repair},
      {"availability", "per-system availability summary",
       {
           {"trace", ArgType::string, "", false,
            "trace CSV (default: generate with --seed)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed when no --trace"},
       },
       &cmd_availability},
      {"report", "composite text report (Figs 1/2/6, Table 2)",
       {
           {"trace", ArgType::string, "", false,
            "trace CSV (default: generate with --seed)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed when no --trace"},
           {"system", ArgType::integer, "20", false,
            "system id for the interarrival section"},
       },
       &cmd_report},
      {"profile", "run the full pipeline, print a stage wall/cpu table",
       {
           {"trace", ArgType::string, "", false,
            "trace CSV (default: generate with --seed)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed when no --trace"},
           {"system", ArgType::integer, "20", false,
            "system id for the interarrival stages"},
       },
       &cmd_profile},
      {"campaign", "run a fault-injection campaign over the simulator",
       {
           {"scenario", ArgType::string, "all", false,
            "scenario: cascade | bursts | contention | renewal | all"},
           {"policy", ArgType::string, "all", false,
            "policy: none | hourly | hourly-ranked | all"},
           {"runs", ArgType::uint64, "8", false,
            "replicates per (scenario, policy) cell"},
           {"seed", ArgType::uint64, "42", false,
            "campaign seed (results are bit-identical at any --threads)"},
           {"trace", ArgType::string, "", false,
            "trace CSV: adds a replay scenario of --replay-system"},
           {"replay-system", ArgType::integer, "20", false,
            "system id to replay when --trace is given"},
           {"checkpoint", ArgType::string, "", false,
            "checkpoint FILE: resume from it when present, save after"},
           {"limit-runs", ArgType::uint64, "", false,
            "execute at most N outstanding runs, checkpoint, and stop"},
           {"report-out", ArgType::string, "", false,
            "also write the campaign report to FILE"},
           {"dry-run", ArgType::flag, "", false,
            "validate the spec and print per-cell schedules without "
            "simulating"},
       },
       &cmd_campaign},
      {"serve", "streaming ingest daemon with live windowed analytics",
       {
           {"host", ArgType::string, "127.0.0.1", false,
            "address both listeners bind to"},
           {"ingest-port", ArgType::integer, "0", false,
            "TCP line-protocol ingest port (0 = ephemeral, printed as "
            "ingest_port=N)"},
           {"http-port", ArgType::integer, "0", false,
            "HTTP report/metrics port (0 = ephemeral, printed as "
            "http_port=N)"},
           {"window-hours", ArgType::integer, "24", false,
            "default /report window"},
           {"bucket-seconds", ArgType::uint64, "3600", false,
            "analytics bucket width"},
           {"max-buckets", ArgType::uint64, "336", false,
            "retained buckets per analytics cell"},
           {"tail", ArgType::string, "", false,
            "also follow an appended trace file"},
           {"trace", ArgType::string, "", false,
            "seed dataset CSV loaded before serving"},
           {"max-events", ArgType::uint64, "0", false,
            "stop after N accepted events (0 = run until SIGINT or "
            "/shutdown)"},
           {"ingest-threads", ArgType::uint64, "1", false,
            "ingest shards/threads; sealed snapshots are bit-identical "
            "at any count"},
           {"retain-hours", ArgType::uint64, "", false,
            "compact raw events older than N hours into per-cell "
            "sufficient statistics at seal time"},
           {"max-sealed-events", ArgType::uint64, "0", false,
            "compact oldest events when the sealed snapshot exceeds N "
            "(0 = unbounded)"},
           {"format", ArgType::string, "", false,
            "ingest wire format: lu | mistral | tan (default: native CSV "
            "rows)"},
       },
       &cmd_serve},
      {"replay", "replay a trace into a daemon's TCP ingest at scaled time",
       {
           {"trace", ArgType::string, "", true, "trace CSV to replay"},
           {"host", ArgType::string, "127.0.0.1", false, "daemon address"},
           {"port", ArgType::integer, "", true, "daemon ingest port"},
           {"speedup", ArgType::real, "0", false,
            "trace-seconds per wall-second (0 = as fast as possible)"},
           {"connections", ArgType::uint64, "1", false,
            "parallel TCP connections, events sharded by (system, node)"},
           {"limit", ArgType::uint64, "0", false,
            "replay at most N events (0 = whole trace)"},
           {"format", ArgType::string, "", false,
            "trace file and wire format: lu | mistral | tan (default: "
            "native CSV)"},
       },
       &cmd_replay},
      {"compare", "side-by-side cross-study battery over several traces",
       {
           {"site", ArgType::string, "", false,
            "comma-separated synthetic site profiles: lu | mistral | tan"},
           {"trace", ArgType::string, "", false,
            "comma-separated trace files, each PATH or PATH:FORMAT "
            "(lu | mistral | tan; default native CSV)"},
           {"seed", ArgType::uint64, "42", false,
            "generator seed for --site traces"},
           {"duration-scale", ArgType::real, "1", false,
            "scale factor on each profile's observation window"},
           {"out", ArgType::string, "", false,
            "also write the text report to FILE"},
           {"csv-out", ArgType::string, "", false,
            "also write the per-site CSV to FILE"},
       },
       &cmd_compare},
  };
  return kTable;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(std::cout);
    return 0;
  }
  if (command == "--version") {
    std::cout << "hpcfail " << HPCFAIL_VERSION << "\n";
    return 0;
  }
  try {
    const Subcommand* sc = find_subcommand(command);
    if (sc == nullptr) {
      std::cerr << "unknown command '" << command << "'\n";
      usage(std::cerr);
      return 2;
    }
    const std::optional<Args> args = parse_args(*sc, argc, argv, 2);
    if (!args) return 0;  // --help / --version handled
    apply_global_options(*args);
    const int rc = sc->run(*args);
    maybe_write_metrics(*args);
    return rc;
  } catch (const ParseError& e) {
    // Usage errors (bad/unknown/missing options) exit 2; runtime
    // failures below exit 1.
    std::cerr << "parse error: " << e.what() << "\n";
    return 2;
  } catch (const ValidationError& e) {
    std::cerr << "validation error: " << e.what() << "\n";
    return 1;
  } catch (const FitError& e) {
    std::cerr << "fit error: " << e.what() << "\n";
    return 1;
  } catch (const IoError& e) {
    std::cerr << "io error: " << e.what() << "\n";
    return 1;
  } catch (const InvalidArgument& e) {
    std::cerr << "invalid argument: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
