// The CLI's exit-code contract, table-driven over every subcommand:
//   0 success, 1 runtime failure (io / validation / fit / ...),
//   2 usage error (unknown command/option, missing required option).
// Each row shells out to the real binary (HPCFAIL_CLI_PATH, injected by
// CMake) and checks the exit code plus the stderr prefix the top-level
// error taxonomy promises.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs `hpcfail <args>` with stdout/stderr captured to temp files.
RunResult run_cli(const std::string& args) {
  // Per (process, invocation) name: ctest runs each test in its own
  // process with a shared TempDir, so a bare counter collides.
  static int invocation = 0;
  const std::string stem =
      (std::filesystem::path(::testing::TempDir()) /
       ("cli_run_" + std::to_string(::getpid()) + "_" +
        std::to_string(invocation++)))
          .string();
  const std::string out_path = stem + ".out";
  const std::string err_path = stem + ".err";
  const std::string command = std::string(HPCFAIL_CLI_PATH) + " " + args +
                              " > " + out_path + " 2> " + err_path;
  const int raw = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  result.out = read_file(out_path);
  result.err = read_file(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// One row of the contract: a command line, the promised exit code, and
// (for failures) the stderr prefix of the error taxonomy.
struct ContractRow {
  std::string args;
  int exit_code;
  std::string err_prefix;  // empty = don't care
};

const std::vector<std::string>& all_subcommands() {
  static const std::vector<std::string> kNames = {
      "generate", "catalog",      "validate", "fit",      "repair", "report",
      "availability", "profile",  "campaign", "serve",    "replay",
      "compare"};
  return kNames;
}

TEST(CliContract, SubcommandTableMatchesHelpOutput) {
  // Keeps all_subcommands() honest: a new subcommand must be added to
  // this contract suite or this test fails.
  const auto help = run_cli("help");
  EXPECT_EQ(help.exit_code, 0);  // global usage, on stdout
  for (const auto& name : all_subcommands()) {
    EXPECT_NE(help.out.find("  " + name), std::string::npos)
        << "usage does not list " << name;
  }
  // And nothing extra: count the command lines between "commands:" and
  // the blank line that follows the list.
  const auto begin = help.out.find("commands:");
  ASSERT_NE(begin, std::string::npos);
  const auto end = help.out.find("\n\n", begin);
  ASSERT_NE(end, std::string::npos);
  std::size_t listed = 0;
  for (std::size_t pos = begin; pos < end;
       pos = help.out.find('\n', pos + 1)) {
    if (help.out.compare(pos, 3, "\n  ") == 0) ++listed;
  }
  EXPECT_EQ(listed, all_subcommands().size());
}

TEST(CliContract, EverySubcommandHonoursHelpAndRejectsUnknownOptions) {
  for (const auto& name : all_subcommands()) {
    const auto help = run_cli(name + " --help");
    EXPECT_EQ(help.exit_code, 0) << name;
    EXPECT_NE(help.out.find("usage: hpcfail " + name), std::string::npos)
        << name;

    const auto unknown = run_cli(name + " --definitely-not-an-option 1");
    EXPECT_EQ(unknown.exit_code, 2) << name;
    EXPECT_TRUE(starts_with(unknown.err, "parse error:")) << name << ": "
                                                          << unknown.err;
  }
}

TEST(CliContract, ExitCodeTable) {
  const std::string missing = "/nonexistent/no_such_trace.csv";
  const std::vector<ContractRow> rows = {
      // usage errors -> 2
      {"", 2, ""},
      {"frobnicate", 2, ""},
      {"generate", 2, "parse error:"},          // missing required --out
      {"validate", 2, "parse error:"},          // missing required --trace
      {"fit", 2, "parse error:"},               // missing required --system
      {"fit --system", 2, "parse error:"},      // option without a value
      {"fit --system notanint", 2, "parse error:"},
      {"repair --seed -3", 2, "parse error:"},  // uint64 cannot be negative
      {"serve --max-events -1", 2, "parse error:"},
      {"replay", 2, "parse error:"},  // missing required --trace/--port
      {"replay --trace " + missing, 2, "parse error:"},  // missing --port
      // --speedup takes a real; rejected at parse time, before any io
      {"replay --trace " + missing + " --port 1 --speedup fast", 2,
       "parse error:"},
      // runtime failures -> 1
      {"serve --ingest-port 70000 --max-events 1", 1, "validation error:"},
      {"serve --host not.an.ip --max-events 1", 1, "validation error:"},
      {"serve --ingest-threads 0 --max-events 1", 1, "validation error:"},
      {"serve --ingest-threads 65 --max-events 1", 1, "validation error:"},
      // the first hour count whose seconds overflow Seconds
      {"serve --retain-hours 2562047788015216 --max-events 1", 1,
       "validation error: --retain-hours"},
      {"serve --trace " + missing + " --max-events 1", 1, "io error:"},
      {"replay --trace " + missing + " --port 80", 1, "io error:"},
      {"fit --system 20 --trace " + missing, 1, "io error:"},
      {"validate --trace " + missing, 1, "io error:"},
      {"repair --trace " + missing, 1, "io error:"},
      {"report --trace " + missing, 1, "io error:"},
      {"generate --out /nonexistent-dir/sub/trace.csv", 1, "io error:"},
      {"catalog --metrics-out /nonexistent-dir/m.json", 1, "io error:"},
      {"fit --system 20 --seed 1 --threads 0", 1, "validation error:"},
      {"fit --system 999 --seed 1", 1, ""},  // no such system in the trace
      // successes -> 0
      {"--version", 0, ""},
      {"catalog", 0, ""},
  };

  for (const auto& row : rows) {
    const auto result = run_cli(row.args);
    EXPECT_EQ(result.exit_code, row.exit_code)
        << "hpcfail " << row.args << "\nstderr: " << result.err;
    if (!row.err_prefix.empty()) {
      EXPECT_TRUE(starts_with(result.err, row.err_prefix))
          << "hpcfail " << row.args << "\nstderr: " << result.err;
    }
  }
}

TEST(CliContract, MetricsOutUnwritablePathFailsWithIoError) {
  // --metrics-out is a global option: the pipeline runs, then the export
  // fails cleanly with the io taxonomy, not a crash or silent success.
  const auto result = run_cli(
      "catalog --metrics-out /nonexistent-dir/deep/metrics.json "
      "--metrics-format json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_TRUE(starts_with(result.err, "io error:")) << result.err;
}

TEST(CliContract, MetricsFormatIsValidated) {
  const auto result = run_cli("catalog --metrics-out m.json "
                              "--metrics-format yaml");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_TRUE(starts_with(result.err, "validation error:")) << result.err;
}

TEST(CliContract, ValidateFlagsSuspectTraceWithExitTwo) {
  // A readable trace with a record validate must flag (a system id no
  // LANL catalog entry knows): exit 2 = "issues found", distinct from
  // exit 1 = could not even read the trace.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "suspect.csv").string();
  {
    std::ofstream out(path);
    out << "system,node,start,end,workload,cause,detail\n";
    out << "99,3,2005-01-02 09:00:00,2005-01-02 10:00:00,compute,hardware,"
           "memory_dimm\n";
  }
  const auto result = run_cli("validate --trace " + path);
  EXPECT_EQ(result.exit_code, 2) << result.err << result.out;
  std::remove(path.c_str());
}

TEST(CliContract, ReplayValidatesOptionsAfterReadingTheTrace) {
  // With a readable trace, bad replay options surface as validation
  // errors (exit 1), distinct from the parse taxonomy.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "replay_opts.csv")
          .string();
  {
    std::ofstream out(path);
    out << "system,node,start,end,workload,cause,detail\n";
    out << "20,3,2005-01-02 09:00:00,2005-01-02 10:00:00,compute,hardware,"
           "memory_dimm\n";
  }
  for (const std::string& bad :
       {std::string("--port 70000"), std::string("--port 1 --speedup -2"),
        std::string("--port 1 --connections 0"),
        std::string("--port 1 --host not.an.ip")}) {
    const auto result = run_cli("replay --trace " + path + " " + bad);
    EXPECT_EQ(result.exit_code, 1) << bad << "\nstderr: " << result.err;
    EXPECT_TRUE(starts_with(result.err, "validation error:"))
        << bad << "\nstderr: " << result.err;
  }
  std::remove(path.c_str());
}

TEST(CliContract, InconsistentTraceRecordIsAParseError) {
  // end < start is rejected while reading the CSV ("parse error: line
  // 2: inconsistent record"), before validate ever runs — a usage-level
  // failure, distinct from validate's own issues-found exit.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "corrupt.csv").string();
  {
    std::ofstream out(path);
    out << "system,node,start,end,workload,cause,detail\n";
    out << "20,3,2005-01-02 10:00:00,2005-01-02 09:00:00,compute,hardware,"
           "memory_dimm\n";
  }
  const auto result = run_cli("validate --trace " + path);
  EXPECT_EQ(result.exit_code, 2) << result.err << result.out;
  EXPECT_TRUE(starts_with(result.err, "parse error:")) << result.err;
  std::remove(path.c_str());
}

TEST(CliContract, ProfileTimesEveryStageUnderOneName) {
  // One timer serves the profile table and the dump: each stage row has
  // its .seconds and .cpu_seconds histograms, the library's own stage
  // timers carry perfbench's layer names, and no span, stage gauge or
  // pre-rename name is left.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "profile.json").string();
  const std::string args =
      "profile --seed 7 --system 20 --threads 2 --metrics-format json";
  const auto result = run_cli(args + " --metrics-out " + path);
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const std::string dump = read_file(path);
  std::remove(path.c_str());
  EXPECT_NE(dump.find("\"schema_version\": 2,"), std::string::npos);
  const std::size_t section = dump.find("\"histograms\": [");
  ASSERT_NE(section, std::string::npos) << dump;
  const auto has_histogram = [&](const std::string& name) {
    const std::string entry = "{\"name\": \"" + name + "\"";
    return dump.find(entry, section) != std::string::npos;
  };

  std::istringstream stages(
      "generate validate index failure_rates interarrival per_node_fits "
      "repair availability total");
  for (std::string stage; stages >> stage;) {
    EXPECT_NE(result.out.find("\n" + stage + " "), std::string::npos) << stage;
    if (stage == "total") continue;
    EXPECT_TRUE(has_histogram("profile." + stage + ".seconds")) << stage;
    EXPECT_TRUE(has_histogram("profile." + stage + ".cpu_seconds")) << stage;
  }
  std::istringstream library(
      "synth.generate trace.index analysis.rates analysis.per_node_fits");
  for (std::string stage; library >> stage;) {
    EXPECT_TRUE(has_histogram(stage + ".seconds")) << stage;
  }
  std::istringstream gone(
      "span. stage. trace.index_build analysis.failure_rates "
      "analysis.per_node_interarrival dataset.index_build_ms "
      "ingest.rebuild_ms");
  for (std::string prefix; gone >> prefix;) {
    EXPECT_EQ(dump.find("\"name\": \"" + prefix), std::string::npos) << prefix;
  }
}

}  // namespace
