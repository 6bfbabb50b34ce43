#ifndef TSG_BENCH_BENCH_UTIL_H_
#define TSG_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/ranking.h"
#include "grid/grid.h"

namespace tsg::bench {

/// Reads TSGBENCH_SCALE / TSGBENCH_SEED / TSGBENCH_OUT / TSGBENCH_STORE_DIR and
/// ensures out_dir exists. A scale or seed that is not a number exits 2.
BenchConfig LoadConfig();

/// Strict numeric values for flags and environment variables: `text`, the value
/// of `name`, must parse whole (io::ParseDoubleCell / io::ParseInt64Cell), a
/// double must be finite and an integer must lie in [min, max]. Anything else
/// prints an error naming `name` and exits 2, so garbage never silently
/// becomes 0.
double ParseDoubleOrExit(const std::string& name, const std::string& text);
int64_t ParseInt64OrExit(
    const std::string& name, const std::string& text,
    int64_t min = std::numeric_limits<int64_t>::min(),
    int64_t max = std::numeric_limits<int64_t>::max());

/// Strips bench-harness flags from argv before any other argument parsing (call
/// first in main, before benchmark::Initialize for Google Benchmark binaries).
/// Currently recognizes --metrics_out=<path>, which arms WriteMetricsSnapshot().
void ParseBenchFlags(int* argc, char** argv);

/// Terminal flag-parsing step: call after every Consume* call has stripped the
/// flags the binary understands. Any `--name[=value]` argument still present is
/// unknown — the function prints "unknown flag" plus `usage` to stderr and
/// returns false so main can exit 2, instead of the old behavior of silently
/// ignoring a mistyped flag and running the full (possibly hours-long) job
/// with its default. Non-flag positional arguments are left alone.
bool RequireNoUnknownFlags(int argc, char** argv, const std::string& usage);

/// Removes a bare `--<name>` flag from argv; returns true when it was present.
bool ConsumeFlag(int* argc, char** argv, const std::string& name);

/// Removes a `--<name>=<value>` flag from argv and stores the value; returns
/// false (argv untouched, *value unchanged) when the flag is absent.
bool ConsumeFlagValue(int* argc, char** argv, const std::string& name,
                      std::string* value);

/// Path given via --metrics_out, or empty when the flag was not passed.
const std::string& MetricsOutPath();

/// Writes the process-wide obs::MetricRegistry snapshot to the --metrics_out
/// path (atomic write). No-op without the flag. Bench mains call this last so
/// the snapshot covers the whole run.
void WriteMetricsSnapshot();

/// Prints any failed cells to stderr; returns the number of failures. Bench mains
/// call this so partial grids are visible without aborting the figure.
size_t ReportFailures(const GridResult& grid);

/// Converts grid rows to the RankingAnalysis cell format for a set of measures
/// (training time is appended as the synthetic measure "Time" when requested).
std::vector<core::CellResult> ToCells(const std::vector<GridRow>& rows,
                                      const std::vector<std::string>& measures);

/// Distinct values preserving first-seen order.
std::vector<std::string> DistinctMeasures(const std::vector<GridRow>& rows);
std::vector<std::string> DistinctDatasets(const std::vector<GridRow>& rows);

}  // namespace tsg::bench

#endif  // TSG_BENCH_BENCH_UTIL_H_
