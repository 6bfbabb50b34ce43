// tsgbench — command-line driver for the benchmark library.
//
// Subcommands:
//   list                         list methods and datasets
//   run       --method M --dataset D [--epoch-scale S] [--repeats K] [--seed N]
//                                fit one method on one dataset and print the
//                                measure suite (one Figure 5 cell)
//   evaluate  --real a.csv --generated b.csv --seq-len L
//                                score a generated set stored as CSV against a
//                                real set (windows stacked row-wise, l rows per
//                                window, N columns)
//   recommend --dataset D [--goal general|classification|forecasting|stats|clustering]
//                                run the §6.5 recommendation engine
//   profile   --dataset D        print a dataset's statistical profile
//
// All numeric output is deterministic for a fixed --seed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/harness.h"
#include "core/preprocess.h"
#include "core/recommend.h"
#include "data/simulators.h"
#include "io/csv.h"
#include "io/table.h"
#include "methods/factory.h"

namespace {

using tsg::core::Dataset;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : tsg::bench::ParseDoubleOrExit("--" + key, it->second);
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : tsg::bench::ParseInt64OrExit("--" + key, it->second);
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args.flags[key] = argv[i + 1];
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tsgbench_cli <command> [flags]\n"
      "  list\n"
      "  run       --method M --dataset D [--epoch-scale S] [--repeats K]\n"
      "            [--seed N] [--eval-samples E]\n"
      "  evaluate  --real a.csv --generated b.csv --seq-len L [--repeats K]\n"
      "  recommend --dataset D [--goal general|classification|forecasting|stats|\n"
      "            clustering]\n"
      "  profile   --dataset D\n");
  return 2;
}

bool FindDataset(const std::string& name, tsg::data::DatasetId* id) {
  for (tsg::data::DatasetId candidate : tsg::data::AllDatasets()) {
    if (name == tsg::data::DatasetName(candidate)) {
      *id = candidate;
      return true;
    }
  }
  return false;
}

tsg::core::Preprocessed Prepare(tsg::data::DatasetId id, uint64_t seed) {
  tsg::data::SimulatorOptions sim;
  sim.scale = 0.02;
  sim.seed = seed;
  const tsg::data::RawSeries raw = tsg::data::Simulate(id, sim);
  tsg::core::PreprocessOptions pre;
  pre.shuffle_seed = seed ^ 0x5481;
  return tsg::core::Preprocess(raw, pre);
}

int CmdList() {
  std::printf("Methods:\n");
  for (const auto& m : tsg::methods::AllMethodNames()) std::printf("  %s\n",
                                                                   m.c_str());
  std::printf("Datasets:\n");
  for (tsg::data::DatasetId id : tsg::data::AllDatasets()) {
    const auto stats = tsg::data::GetPaperStats(id);
    std::printf("  %-12s (R=%lld, l=%lld, N=%lld, %s)\n", tsg::data::DatasetName(id),
                static_cast<long long>(stats.r), static_cast<long long>(stats.l),
                static_cast<long long>(stats.n), stats.domain);
  }
  return 0;
}

int CmdRun(const Args& args) {
  const std::string method_name = args.Get("method");
  tsg::data::DatasetId id;
  if (method_name.empty() || !FindDataset(args.Get("dataset"), &id)) {
    return Usage();
  }
  auto method = tsg::methods::CreateMethod(method_name);
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const auto data = Prepare(id, seed);

  tsg::core::HarnessOptions options;
  options.fit.epoch_scale = args.GetDouble("epoch-scale", 0.3);
  options.fit.seed = seed;
  options.stochastic_repeats = static_cast<int>(args.GetInt("repeats", 3));
  options.max_eval_samples = args.GetInt("eval-samples", 96);
  options.embedder.epochs = 8;
  options.seed = seed;
  tsg::core::Harness harness(options);

  const auto run = harness.RunMethod(*method.value(), data.train, data.test);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const auto& result = run.value();
  std::printf("%s on %s: fit %.1fs (%s)\n", result.method.c_str(),
              result.dataset.c_str(), result.fit_seconds,
              tsg::core::Harness::TrainingTimeBucket(result.fit_seconds));
  tsg::io::Table table({"Measure", "Score"});
  for (const auto& [measure, summary] : result.scores) {
    table.AddRow({measure, tsg::io::Table::MeanStd(summary.mean, summary.std)});
  }
  table.Print();
  return 0;
}

/// Loads stacked windows (l rows per window) from a CSV with N columns.
tsg::StatusOr<Dataset> LoadWindows(const std::string& path, int64_t seq_len,
                                   const std::string& name) {
  auto matrix = tsg::io::ReadCsv(path, /*skip_header=*/false);
  if (!matrix.ok()) return matrix.status();
  const auto& m = matrix.value();
  if (seq_len <= 0 || m.rows() % seq_len != 0) {
    return tsg::Status::InvalidArgument("row count is not a multiple of --seq-len");
  }
  Dataset ds;
  ds.set_name(name);
  for (int64_t start = 0; start + seq_len <= m.rows(); start += seq_len) {
    ds.Add(m.Block(start, 0, seq_len, m.cols()));
  }
  return ds;
}

int CmdEvaluate(const Args& args) {
  const int64_t seq_len = args.GetInt("seq-len", 0);
  auto real = LoadWindows(args.Get("real"), seq_len, "real");
  auto generated = LoadWindows(args.Get("generated"), seq_len, "generated");
  if (!real.ok() || !generated.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!real.ok() ? real.status() : generated.status()).ToString().c_str());
    return 1;
  }
  tsg::core::HarnessOptions options;
  options.stochastic_repeats = static_cast<int>(args.GetInt("repeats", 3));
  options.embedder.epochs = 8;
  tsg::core::Harness harness(options);
  const auto scores = harness.EvaluateGenerated(real.value(), real.value(),
                                                generated.value(), "cli");
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  tsg::io::Table table({"Measure", "Score"});
  for (const auto& [measure, summary] : scores.value()) {
    table.AddRow({measure, tsg::io::Table::MeanStd(summary.mean, summary.std)});
  }
  table.Print();
  return 0;
}

int CmdRecommend(const Args& args) {
  tsg::data::DatasetId id;
  if (!FindDataset(args.Get("dataset"), &id)) return Usage();
  const auto data = Prepare(id, 42);
  const auto profile = tsg::core::ProfileDataset(data.train);

  tsg::core::ApplicationGoal goal = tsg::core::ApplicationGoal::kGeneral;
  const std::string goal_name = args.Get("goal", "general");
  if (goal_name == "classification") {
    goal = tsg::core::ApplicationGoal::kClassification;
  } else if (goal_name == "forecasting") {
    goal = tsg::core::ApplicationGoal::kForecasting;
  } else if (goal_name == "stats") {
    goal = tsg::core::ApplicationGoal::kStatisticalMatch;
  } else if (goal_name == "clustering") {
    goal = tsg::core::ApplicationGoal::kClustering;
  }

  const auto rec = tsg::core::Recommend(profile, goal);
  std::printf("Methods:");
  for (const auto& m : rec.methods) std::printf(" %s", m.c_str());
  std::printf("\nMeasures:");
  for (const auto& m : rec.measures) std::printf(" %s", m.c_str());
  std::printf("\nRationale:\n");
  for (const auto& line : rec.rationale) std::printf("  - %s\n", line.c_str());
  return 0;
}

int CmdProfile(const Args& args) {
  tsg::data::DatasetId id;
  if (!FindDataset(args.Get("dataset"), &id)) return Usage();
  const auto data = Prepare(id, 42);
  const auto profile = tsg::core::ProfileDataset(data.train);
  std::printf("dataset=%s R=%lld l=%lld N=%lld mean|ACF|=%.3f small_data=%d "
              "high_dimensional=%d long_sequence=%d\n",
              tsg::data::DatasetName(id),
              static_cast<long long>(profile.num_samples),
              static_cast<long long>(profile.seq_len),
              static_cast<long long>(profile.num_features), profile.mean_abs_acf,
              profile.small_data, profile.high_dimensional, profile.long_sequence);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.command == "list") return CmdList();
  if (args.command == "run") return CmdRun(args);
  if (args.command == "evaluate") return CmdEvaluate(args);
  if (args.command == "recommend") return CmdRecommend(args);
  if (args.command == "profile") return CmdProfile(args);
  return Usage();
}
