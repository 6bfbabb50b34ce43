// Outside-in instrumentation for the benchmark: an in-memory span recorder
// plus delegating wrappers around the public layer interfaces (core::TsgMethod
// and core::ModelStore). Nothing here touches the program's own obs trace
// tree; spans are recorded only around calls the benchmark makes into a
// layer, so the per-layer numbers stay correct whatever the program's own
// span nesting does.

#ifndef TSG_PERFBENCH_LAYERS_H_
#define TSG_PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/method.h"
#include "io/json.h"
#include "io/json_parse.h"
#include "store/artifact_store.h"

namespace tsg::perfbench {

/// One closed span. Times are seconds since the recorder was created.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span.
  std::string name;     ///< Layer-qualified name, e.g. "methods.fit".
  std::string owner;    ///< Cell ("TimeGAN/DLG") or phase the span belongs to.
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe in-memory span store. Spans nest through a per-thread stack of
/// open spans; a span opened on a pool thread names its parent explicitly.
/// Spans are only kept in memory and written out once, after the run.
class SpanRecorder {
 public:
  SpanRecorder();

  /// RAII span. `parent` = -1 nests under the innermost open span of the
  /// calling thread (a root span when there is none).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::string owner,
          int64_t parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return span_.id; }

   private:
    SpanRecorder& recorder_;
    Span span_;
  };

  double Now() const;
  std::vector<Span> spans() const;

  /// Sum over spans of `name` of their duration, and per span name the sum
  /// of self time (the duration minus the time its direct children cover).
  double TotalSeconds(const std::string& name) const;
  std::map<std::string, double> SelfSecondsByName() const;

  /// {"spans":[{"id":..,"parent":..,"name":..,"owner":..,"start":..,"end":..}]}
  void WriteJson(io::JsonWriter& json) const;

 private:
  void Close(const Span& span);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Delegates every TsgMethod call to a real method, recording
/// methods.fit / methods.generate / methods.restore / methods.snapshot spans
/// owned by `cell`. Generation output and fitted state are the inner
/// method's, untouched.
class TracedMethod : public core::TsgMethod {
 public:
  TracedMethod(std::unique_ptr<core::TsgMethod> inner, SpanRecorder& recorder,
               std::string cell);

  Status Fit(const core::Dataset& train,
             const core::FitOptions& options) override;
  std::vector<core::Matrix> Generate(int64_t count, Rng& rng) const override;
  std::vector<std::vector<core::Matrix>> GenerateBatch(
      const std::vector<core::GenRequest>& requests) const override;
  StatusOr<core::MethodSnapshot> Snapshot() const override;
  Status Restore(const core::MethodSnapshot& snapshot) override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override;

 private:
  std::unique_ptr<core::TsgMethod> inner_;
  SpanRecorder& recorder_;
  const std::string cell_;
};

/// Delegating core::ModelStore over an ArtifactStore: store.load / store.save
/// spans plus the artifact bytes moved by successful loads and saves.
class TracedStore : public core::ModelStore {
 public:
  TracedStore(store::ArtifactStore& inner, SpanRecorder& recorder);

  StatusOr<core::MethodSnapshot> Load(const core::ModelKey& key) override;
  Status Save(const core::ModelKey& key,
              const core::MethodSnapshot& snapshot) override;

  int64_t bytes_loaded() const { return bytes_loaded_.load(); }
  int64_t bytes_saved() const { return bytes_saved_.load(); }

 private:
  store::ArtifactStore& inner_;
  SpanRecorder& recorder_;
  std::atomic<int64_t> bytes_loaded_{0};
  std::atomic<int64_t> bytes_saved_{0};
};

/// Reads a flat counter/timer view out of an obs::MetricRegistry snapshot.
class RegistryView {
 public:
  /// Snapshot of this process's global registry.
  static RegistryView Capture();

  /// Sum of counters whose name starts with `prefix` and ends with `suffix`.
  int64_t CounterSum(const std::string& prefix, const std::string& suffix) const;
  double TimerSeconds(const std::string& name) const;
  int64_t TimerCount(const std::string& name) const;
  double Gauge(const std::string& name) const;

 private:
  io::JsonValue doc_;
};

/// Named output checks of one run. A failed check makes the run incorrect.
class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail = "");
  void Expect(const std::string& name, const Status& status);
  bool all_ok() const;
  int64_t count() const { return static_cast<int64_t>(checks_.size()); }
  int64_t failures() const;
  void Write(io::JsonWriter& json) const;

 private:
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks_;
};

/// Ordered name -> value map printed as one flat JSON object.
using MetricMap = std::map<std::string, double>;

/// Prints one run's raw result as the last line of stdout:
/// {"correct","attempted","failed","metrics","report","checks"}.
void WriteResult(const Checks& checks, int64_t attempted, int64_t failed,
                 const MetricMap& metrics, const MetricMap& report);

/// User+system CPU seconds of this process so far (getrusage).
double ProcessCpuSeconds();
/// Peak resident set size of this process in MB (VmHWM), 0 when unreadable.
double PeakRssMb();
/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1] (0 for an empty vector).
double Quantile(std::vector<double> values, double q);

}  // namespace tsg::perfbench

#endif  // TSG_PERFBENCH_LAYERS_H_
