#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"

namespace tsg::bench {

namespace {

std::string g_metrics_out;

}  // namespace

void ParseBenchFlags(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    constexpr const char* kPrefix = "--metrics_out=";
    if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
      g_metrics_out = argv[i] + std::strlen(kPrefix);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
}

const std::string& MetricsOutPath() { return g_metrics_out; }

bool ConsumeFlag(int* argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (flag == argv[i]) {
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

bool RequireNoUnknownFlags(int argc, char** argv, const std::string& usage) {
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      ok = false;
    }
  }
  if (!ok) std::fprintf(stderr, "usage: %s\n", usage.c_str());
  return ok;
}

bool ConsumeFlagValue(int* argc, char** argv, const std::string& name,
                      std::string* value) {
  const std::string prefix = "--" + name + "=";
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *value = argv[i] + prefix.size();
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

void WriteMetricsSnapshot() {
  if (g_metrics_out.empty()) return;
  const Status s = obs::MetricRegistry::Global().WriteSnapshot(g_metrics_out);
  if (!s.ok()) {
    std::fprintf(stderr, "metrics snapshot write failed: %s\n",
                 s.ToString().c_str());
  } else {
    std::fprintf(stderr, "[obs] metrics snapshot written to %s\n",
                 g_metrics_out.c_str());
  }
}

BenchConfig LoadConfig() {
  BenchConfig config;
  if (const char* scale = std::getenv("TSGBENCH_SCALE")) {
    config.scale = std::max(0.05, std::atof(scale));
  }
  if (const char* seed = std::getenv("TSGBENCH_SEED")) {
    config.seed = static_cast<uint64_t>(std::atoll(seed));
  }
  if (const char* out = std::getenv("TSGBENCH_OUT")) {
    config.out_dir = out;
  }
  if (const char* store_dir = std::getenv("TSGBENCH_STORE_DIR")) {
    config.store_dir = store_dir;
  }
  std::filesystem::create_directories(config.out_dir);
  return config;
}

size_t ReportFailures(const GridResult& grid) {
  for (const CellError& failure : grid.failures) {
    std::fprintf(stderr, "[grid] FAILED cell %s / %s: %s\n",
                 failure.method.c_str(), failure.dataset.c_str(),
                 failure.error.c_str());
  }
  return grid.failures.size();
}

std::vector<core::CellResult> ToCells(const std::vector<GridRow>& rows,
                                      const std::vector<std::string>& measures) {
  std::vector<core::CellResult> cells;
  for (const std::string& measure : measures) {
    if (measure == "Time") {
      // Deduplicate by (method, dataset) — fit time repeats on every measure row.
      std::vector<std::pair<std::string, std::string>> seen;
      for (const GridRow& row : rows) {
        const auto key = std::make_pair(row.method, row.dataset);
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
        cells.push_back({row.method, row.dataset, "Time", row.fit_seconds, 0.0});
      }
      continue;
    }
    for (const GridRow& row : rows) {
      if (row.measure == measure) {
        cells.push_back({row.method, row.dataset, row.measure, row.mean, row.stddev});
      }
    }
  }
  return cells;
}

namespace {

std::vector<std::string> Distinct(const std::vector<GridRow>& rows,
                                  std::string GridRow::*field) {
  std::vector<std::string> out;
  for (const GridRow& row : rows) {
    if (std::find(out.begin(), out.end(), row.*field) == out.end()) {
      out.push_back(row.*field);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> DistinctMeasures(const std::vector<GridRow>& rows) {
  return Distinct(rows, &GridRow::measure);
}

std::vector<std::string> DistinctDatasets(const std::vector<GridRow>& rows) {
  return Distinct(rows, &GridRow::dataset);
}

}  // namespace tsg::bench
