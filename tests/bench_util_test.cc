#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "bench_util.h"
#include "io/csv.h"
#include "io/lease.h"
#include "methods/common.h"
#include "methods/factory.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"

namespace tsg::bench {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchConfigTest, DefaultsAndDerivedKnobs) {
  unsetenv("TSGBENCH_SCALE");
  unsetenv("TSGBENCH_SEED");
  setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_test", 1);
  const BenchConfig config = LoadConfig();
  EXPECT_DOUBLE_EQ(config.scale, 1.0);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.out_dir, "/tmp/tsg_bench_cfg_test");
  EXPECT_TRUE(std::filesystem::exists(config.out_dir));
  EXPECT_DOUBLE_EQ(config.dataset_scale(), 0.02);
  EXPECT_EQ(config.stochastic_repeats(), 2);
  std::filesystem::remove_all(config.out_dir);
}

TEST(BenchConfigTest, EnvOverridesApply) {
  setenv("TSGBENCH_SCALE", "2.5", 1);
  setenv("TSGBENCH_SEED", "123", 1);
  setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_test2", 1);
  const BenchConfig config = LoadConfig();
  EXPECT_DOUBLE_EQ(config.scale, 2.5);
  EXPECT_EQ(config.seed, 123u);
  EXPECT_EQ(config.stochastic_repeats(), 5);   // Paper-fidelity repeats at scale>=2.
  EXPECT_EQ(config.max_eval_samples(), 256);
  unsetenv("TSGBENCH_SCALE");
  unsetenv("TSGBENCH_SEED");
  unsetenv("TSGBENCH_OUT");
  std::filesystem::remove_all("/tmp/tsg_bench_cfg_test2");
}

// A scale or seed that is not a number is an error naming the variable, not a
// silent fallback to the default scale or seed 0.
TEST(BenchConfigDeathTest, GarbageScaleOrSeedExits2) {
  const auto load_with = [](const char* name, const char* value) {
    setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_test3", 1);
    setenv(name, value, 1);
    LoadConfig();
    std::exit(0);
  };
  EXPECT_EXIT(load_with("TSGBENCH_SCALE", "abc"), testing::ExitedWithCode(2),
              "TSGBENCH_SCALE");
  EXPECT_EXIT(load_with("TSGBENCH_SCALE", "inf"), testing::ExitedWithCode(2),
              "TSGBENCH_SCALE");
  EXPECT_EXIT(load_with("TSGBENCH_SEED", "xyz"), testing::ExitedWithCode(2),
              "TSGBENCH_SEED");
  EXPECT_EXIT(load_with("TSGBENCH_SEED", "12abc"), testing::ExitedWithCode(2),
              "TSGBENCH_SEED");
}

TEST(PrepareDatasetTest, CapsLongWindowDatasets) {
  BenchConfig config;
  config.out_dir = "/tmp/tsg_bench_prep_test";
  const auto boiler = PrepareDataset(data::DatasetId::kBoiler, config);
  // Boiler (l=192) is capped near 176 windows at scale 1.
  EXPECT_LE(boiler.train.num_samples() + boiler.test.num_samples(), 200);
  EXPECT_EQ(boiler.train.seq_len(), 192);
  std::filesystem::remove_all(config.out_dir);
}

TEST(ToCellsTest, FiltersMeasuresAndDedupesTime) {
  const std::vector<GridRow> rows = {
      {"A", "d1", "MDD", 0.1, 0.0, 3.0},
      {"A", "d1", "ACD", 0.2, 0.0, 3.0},
      {"B", "d1", "MDD", 0.3, 0.0, 5.0},
      {"B", "d1", "ACD", 0.4, 0.0, 5.0},
  };
  const auto cells = ToCells(rows, {"MDD", "Time"});
  // 2 MDD cells + 2 deduplicated Time cells.
  ASSERT_EQ(cells.size(), 4u);
  int time_cells = 0;
  for (const auto& c : cells) {
    if (c.measure == "Time") {
      ++time_cells;
      EXPECT_EQ(c.mean, c.method == "A" ? 3.0 : 5.0);
    }
  }
  EXPECT_EQ(time_cells, 2);
}

TEST(DistinctTest, PreservesFirstSeenOrder) {
  const std::vector<GridRow> rows = {
      {"A", "d2", "MDD", 0, 0, 0},
      {"A", "d1", "ACD", 0, 0, 0},
      {"A", "d2", "ACD", 0, 0, 0},
  };
  const auto measures = DistinctMeasures(rows);
  ASSERT_EQ(measures.size(), 2u);
  EXPECT_EQ(measures[0], "MDD");
  EXPECT_EQ(measures[1], "ACD");
  const auto datasets = DistinctDatasets(rows);
  ASSERT_EQ(datasets.size(), 2u);
  EXPECT_EQ(datasets[0], "d2");
}

/// Returns the value of a global counter (0 when it does not exist yet).
int64_t CounterValue(const std::string& name) {
  return obs::MetricRegistry::Global().GetCounter(name).value();
}

/// The lease path the grid sweep uses for (TimeVAE, DLG) cells — both names are
/// filesystem-safe, so the mapping is the checkpoint path + ".lease".
std::string LeasePathFor(const BenchConfig& config, const std::string& method,
                         const std::string& dataset) {
  return CheckpointDir(config) + "/" + method + "__" + dataset + ".csv.lease";
}

/// A token whose pid is guaranteed dead on this host: a reaped fork child.
std::string DeadOwnerToken() {
  const pid_t child = fork();
  EXPECT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  EXPECT_EQ(waitpid(child, &wstatus, 0), child);
  char host[256] = {};
  EXPECT_EQ(gethostname(host, sizeof(host) - 1), 0);
  return std::string(host) + ":" + std::to_string(child) + ":dead";
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// The `.lease` files left in a checkpoint directory.
int CountLeases(const BenchConfig& config) {
  int leases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(CheckpointDir(config))) {
    if (entry.path().extension() == ".lease") ++leases;
  }
  return leases;
}

/// The checkpoint directory is the grid's only cache: a second RunGrid over the
/// same out_dir computes nothing and returns the first run's rows bit for bit,
/// wall-clock fit times included.
TEST(GridCacheTest, RoundTripsThroughCsv) {
  BenchConfig config;
  config.out_dir = "/tmp/tsg_bench_cache_test";
  config.scale = 0.31;  // Unique checkpoint key for this test.
  std::filesystem::remove_all(config.out_dir);
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  const auto grid = RunGrid(config, methods, datasets);
  ASSERT_FALSE(grid.rows.empty());
  EXPECT_TRUE(grid.failures.empty());
  EXPECT_EQ(grid.computed, 1);

  const int64_t computed_before = CounterValue("grid.cells.computed");
  const auto cached = RunGrid(config, methods, datasets);
  EXPECT_EQ(CounterValue("grid.cells.computed"), computed_before);
  EXPECT_EQ(cached.computed, 0);
  ASSERT_EQ(cached.rows.size(), grid.rows.size());
  for (size_t i = 0; i < grid.rows.size(); ++i) {
    EXPECT_EQ(cached.rows[i].method, grid.rows[i].method);
    EXPECT_EQ(cached.rows[i].dataset, grid.rows[i].dataset);
    EXPECT_EQ(cached.rows[i].measure, grid.rows[i].measure);
    EXPECT_TRUE(BitEqual(cached.rows[i].mean, grid.rows[i].mean));
    EXPECT_TRUE(BitEqual(cached.rows[i].stddev, grid.rows[i].stddev));
    EXPECT_TRUE(BitEqual(cached.rows[i].fit_seconds, grid.rows[i].fit_seconds));
  }
  std::filesystem::remove_all(config.out_dir);
}

/// A checkpoint whose numbers do not parse in full is not trusted: the cell is
/// recomputed and its checkpoint rewritten, instead of loading "0.12x" as 0.12.
TEST(GridCheckpointTest, NonNumericMeanIsRecomputed) {
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_bench_ckpt_corrupt";
  std::filesystem::remove_all(config.out_dir);
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  const auto clean = RunGrid(config, methods, datasets);
  ASSERT_TRUE(clean.failures.empty());
  const std::string ckpt = CheckpointDir(config) + "/TimeVAE__DLG.csv";

  for (const std::string bad : {"0.12x", "abc"}) {
    auto lines = io::ReadCsvRows(ckpt);
    ASSERT_TRUE(lines.ok()) << lines.status().ToString();
    ASSERT_GE(lines.value().size(), 2u);
    ASSERT_EQ(lines.value()[0][4], "mean");
    lines.value()[1][4] = bad;
    ASSERT_TRUE(io::WriteCsvRows(ckpt, lines.value()).ok());

    const int64_t computed_before = CounterValue("grid.cells.computed");
    const auto again = RunGrid(config, methods, datasets);
    EXPECT_EQ(again.computed, 1) << bad;
    EXPECT_EQ(CounterValue("grid.cells.computed"), computed_before + 1) << bad;
    ASSERT_EQ(again.rows.size(), clean.rows.size());
    for (size_t i = 0; i < clean.rows.size(); ++i) {
      EXPECT_TRUE(BitEqual(again.rows[i].mean, clean.rows[i].mean)) << bad;
    }
    auto rewritten = io::ReadCsvRows(ckpt);
    ASSERT_TRUE(rewritten.ok());
    double mean = 0.0;
    EXPECT_TRUE(io::ParseDoubleCell(rewritten.value()[1][4], &mean)) << bad;
  }
  std::filesystem::remove_all(config.out_dir);
}

/// Everything %.17g writes loads back: NaN, infinities and subnormals are
/// valid scores, not corrupt cells.
TEST(GridCheckpointTest, NonFiniteAndSubnormalScoresLoad) {
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_bench_ckpt_nonfinite";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));
  ASSERT_TRUE(io::WriteCsvRows(
                  CheckpointDir(config) + "/TimeVAE__DLG.csv",
                  {{"status", "method", "dataset", "measure", "mean", "stddev",
                    "fit_seconds", "error"},
                   {"ok", "TimeVAE", "DLG", "A", "nan", "inf", "1.5", ""},
                   {"ok", "TimeVAE", "DLG", "B", "-inf", "4.9406564584124654e-324",
                    "1.5", ""}})
                  .ok());
  const auto grid = RunGrid(config, {"TimeVAE"}, {data::DatasetId::kDlg});
  EXPECT_EQ(grid.computed, 0);
  ASSERT_EQ(grid.rows.size(), 2u);
  EXPECT_TRUE(std::isnan(grid.rows[0].mean));
  EXPECT_EQ(grid.rows[0].stddev, std::numeric_limits<double>::infinity());
  EXPECT_EQ(grid.rows[1].mean, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(grid.rows[1].stddev, std::numeric_limits<double>::denorm_min());
  std::filesystem::remove_all(config.out_dir);
}

/// RunGrid honours the lease protocol: a cell whose owner died mid-compute is
/// reclaimed, and no lease outlives the run.
TEST(GridLeaseTest, RunGridReclaimsDeadOwnersLease) {
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_bench_rungrid_reclaim";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));
  ASSERT_TRUE(io::AcquireLease(LeasePathFor(config, "TimeVAE", "DLG"),
                               DeadOwnerToken())
                  .value());

  const int64_t reclaimed_before = CounterValue("grid.cells.reclaimed");
  const auto grid = RunGrid(config, {"TimeVAE"}, {data::DatasetId::kDlg});
  EXPECT_TRUE(grid.failures.empty());
  EXPECT_EQ(grid.computed, 1);
  EXPECT_EQ(CounterValue("grid.cells.reclaimed"), reclaimed_before + 1);
  EXPECT_EQ(CountLeases(config), 0);
  std::filesystem::remove_all(config.out_dir);
}

// ---- Fault injection (ISSUE acceptance): a method whose training loss goes NaN
// must surface as a per-cell error record, while every other cell of the grid
// matches a clean run bit-for-bit. ----

/// Goes through the real GuardedStep path with a NaN loss, exactly as a diverged
/// training run would.
class FaultyNaNMethod : public core::TsgMethod {
 public:
  Status Fit(const core::Dataset& train, const core::FitOptions& options) override {
    (void)train;
    (void)options;
    ag::Var w = ag::Var::Parameter(linalg::Matrix(1, 1));
    nn::Sgd opt({w}, 0.1);
    linalg::Matrix poison(1, 1);
    poison(0, 0) = std::numeric_limits<double>::quiet_NaN();
    const ag::Var loss = ag::Mul(w, ag::Var::Constant(poison));
    return methods::GuardedStep(opt, loss, 5.0, {"FaultyNaN", "train", 3});
  }
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override {
    (void)count;
    (void)rng;
    return {};
  }
  std::string name() const override { return "FaultyNaN"; }
};

TEST(GridFaultToleranceTest, NanLossBecomesCellErrorAndOtherCellsMatchCleanRun) {
  methods::RegisterMethod("FaultyNaN",
                          [] { return std::make_unique<FaultyNaNMethod>(); });
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};

  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_bench_fault_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, {"TimeVAE"}, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());
  ASSERT_FALSE(clean_grid.rows.empty());

  BenchConfig faulty = clean;
  faulty.out_dir = "/tmp/tsg_bench_fault_injected";
  std::filesystem::remove_all(faulty.out_dir);
  std::filesystem::create_directories(faulty.out_dir);
  const auto grid = RunGrid(faulty, {"TimeVAE", "FaultyNaN"}, datasets);

  // The injected cell failed, with full method/phase/epoch context.
  ASSERT_EQ(grid.failures.size(), 1u);
  EXPECT_EQ(grid.failures[0].method, "FaultyNaN");
  EXPECT_NE(grid.failures[0].error.find("NUMERICAL_ERROR"), std::string::npos)
      << grid.failures[0].error;
  EXPECT_NE(grid.failures[0].error.find("non-finite loss"), std::string::npos)
      << grid.failures[0].error;
  EXPECT_NE(grid.failures[0].error.find("epoch 3"), std::string::npos)
      << grid.failures[0].error;

  // Every healthy cell is bit-identical to the clean run.
  ASSERT_EQ(grid.rows.size(), clean_grid.rows.size());
  for (size_t i = 0; i < grid.rows.size(); ++i) {
    EXPECT_EQ(grid.rows[i].method, clean_grid.rows[i].method);
    EXPECT_EQ(grid.rows[i].measure, clean_grid.rows[i].measure);
    EXPECT_EQ(std::memcmp(&grid.rows[i].mean, &clean_grid.rows[i].mean,
                          sizeof(double)),
              0)
        << grid.rows[i].measure;
    EXPECT_EQ(std::memcmp(&grid.rows[i].stddev, &clean_grid.rows[i].stddev,
                          sizeof(double)),
              0)
        << grid.rows[i].measure;
  }

  // The summary artifact records both cells.
  const std::string summary = ReadWholeFile(GridSummaryPath(faulty));
  EXPECT_NE(summary.find("\"status\":\"error\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"status\":\"ok\""), std::string::npos) << summary;

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(faulty.out_dir);
}

// ---- Kill/resume (ISSUE acceptance): a grid interrupted after some cells and
// restarted must produce a byte-identical summary artifact, without recomputing
// the completed cells. ----

TEST(GridResumeTest, InterruptedGridResumesByteIdentical) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};

  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_bench_resume_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  // Simulate a run killed after completing only the first dataset's cell: the
  // checkpoint for (TimeVAE, dlg) lands on disk, the rest never runs.
  BenchConfig resumed = clean;
  resumed.out_dir = "/tmp/tsg_bench_resume_killed";
  std::filesystem::remove_all(resumed.out_dir);
  std::filesystem::create_directories(resumed.out_dir);
  const auto partial = RunGrid(resumed, methods, {data::DatasetId::kDlg});
  ASSERT_TRUE(partial.failures.empty());
  ASSERT_FALSE(partial.rows.empty());

  // Restart with the full grid: the completed cell loads from its checkpoint.
  const auto full = RunGrid(resumed, methods, datasets);
  ASSERT_TRUE(full.failures.empty());
  ASSERT_EQ(full.rows.size(), clean_grid.rows.size());

  // The checkpointed cell was not recomputed: its wall-clock fit time survives
  // the CSV round trip bit-for-bit (a recompute would give a new timing).
  for (const auto& row : full.rows) {
    if (row.dataset == partial.rows.front().dataset) {
      EXPECT_EQ(std::memcmp(&row.fit_seconds, &partial.rows.front().fit_seconds,
                            sizeof(double)),
                0);
    }
  }

  // The summary artifact is byte-identical to the uninterrupted run's.
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  const std::string resumed_summary = ReadWholeFile(GridSummaryPath(resumed));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(clean_summary, resumed_summary);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(resumed.out_dir);
}

// ---- Concurrent sweeps: lease-claimed workers and a strict supervisor sweep
// must reproduce the single-process grid byte for byte, reclaim cells whose
// owner died, and surface error cells. ----

TEST(ShardedGridTest, WorkerPlusStrictMergeMatchesSingleProcessByteForByte) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_shard_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  BenchConfig sharded = clean;
  sharded.out_dir = "/tmp/tsg_shard_worker";
  std::filesystem::remove_all(sharded.out_dir);
  std::filesystem::create_directories(sharded.out_dir);
  SweepOptions options;
  options.label = "test-shard";
  const auto completed = SweepGrid(sharded, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 2);

  // Strict merge: every cell must come from a worker checkpoint.
  SweepOptions merge_options;
  merge_options.compute_missing = false;
  const auto merged = SweepGrid(sharded, methods, datasets, merge_options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().rows.size(), clean_grid.rows.size());

  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  const std::string merged_summary = ReadWholeFile(GridSummaryPath(sharded));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(clean_summary, merged_summary);

  // An overlapping second worker finds every cell checkpointed: zero computed.
  const auto again = SweepGrid(sharded, methods, datasets, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().computed, 0);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(sharded.out_dir);
}

TEST(ShardedGridTest, DeadOwnersLeaseIsStolenAndCellReclaimed) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_reclaim";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));

  // A worker died mid-cell: its lease survives, no checkpoint exists.
  const std::string lease = LeasePathFor(config, "TimeVAE", "DLG");
  ASSERT_TRUE(io::AcquireLease(lease, DeadOwnerToken()).value());

  const int64_t reclaimed_before = CounterValue("grid.cells.reclaimed");
  const int64_t stolen_before = CounterValue("grid.leases.stolen");
  SweepOptions options;
  options.label = "test-reclaim";
  const auto completed = SweepGrid(config, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 1);
  EXPECT_EQ(CounterValue("grid.cells.reclaimed"), reclaimed_before + 1);
  EXPECT_EQ(CounterValue("grid.leases.stolen"), stolen_before + 1);
  EXPECT_FALSE(std::filesystem::exists(lease));

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, LiveLeaseTimesOutWorkerAndBlocksMerge) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_live";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));

  // Our own (live) pid holds the cell, as a healthy concurrent worker would.
  const std::string lease = LeasePathFor(config, "TimeVAE", "DLG");
  ASSERT_TRUE(io::AcquireLease(lease, io::LeaseOwnerToken()).value());

  SweepOptions options;
  options.label = "test-live";
  options.max_wait_seconds = 0.2;
  const auto completed = SweepGrid(config, methods, datasets, options);
  ASSERT_FALSE(completed.ok());
  EXPECT_EQ(completed.status().code(), StatusCode::kFailedPrecondition);

  // A merging sweep that may compute the cell waits on the live owner too.
  SweepOptions merge_options;
  merge_options.max_wait_seconds = 0.2;
  const auto merged = SweepGrid(config, methods, datasets, merge_options);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, StrictMergeFailsOnMissingCheckpoint) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_missing";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);

  SweepOptions options;
  options.compute_missing = false;
  const auto merged = SweepGrid(config, methods, datasets, options);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, MergeComputesMissingCellsAndMatchesCleanRun) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_merge_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  // No worker ran at all: the supervisor computes the whole grid itself. A
  // dangling dead lease on the cell must not stop it.
  BenchConfig merged_config = clean;
  merged_config.out_dir = "/tmp/tsg_merge_computes";
  std::filesystem::remove_all(merged_config.out_dir);
  std::filesystem::create_directories(CheckpointDir(merged_config));
  ASSERT_TRUE(io::AcquireLease(LeasePathFor(merged_config, "TimeVAE", "DLG"),
                               DeadOwnerToken())
                  .value());

  const int64_t reclaimed_before = CounterValue("grid.leases.stolen");
  SweepOptions options;
  options.compute_missing = true;
  const auto merged = SweepGrid(merged_config, methods, datasets, options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().rows.size(), clean_grid.rows.size());
  EXPECT_EQ(CounterValue("grid.leases.stolen"), reclaimed_before + 1);

  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  const std::string merged_summary = ReadWholeFile(GridSummaryPath(merged_config));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(clean_summary, merged_summary);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(merged_config.out_dir);
}

TEST(ShardedGridTest, MergeCarriesErrorCellsFromWorkerCheckpoints) {
  static const bool registered = [] {
    methods::RegisterMethod("ShardFaulty",
                            [] { return std::make_unique<FaultyNaNMethod>(); });
    return true;
  }();
  (void)registered;

  const std::vector<std::string> methods = {"TimeVAE", "ShardFaulty"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_errors";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);

  SweepOptions options;
  options.label = "test-errors";
  const auto completed = SweepGrid(config, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 2);  // The failing cell still checkpoints.

  SweepOptions merge_options;
  merge_options.compute_missing = false;
  const auto merged = SweepGrid(config, methods, datasets, merge_options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().failures.size(), 1u);
  EXPECT_EQ(merged.value().failures[0].method, "ShardFaulty");
  ASSERT_FALSE(merged.value().rows.empty());

  const std::string summary = ReadWholeFile(GridSummaryPath(config));
  EXPECT_NE(summary.find("\"status\":\"error\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"status\":\"ok\""), std::string::npos) << summary;

  std::filesystem::remove_all(config.out_dir);
}

}  // namespace
}  // namespace tsg::bench
