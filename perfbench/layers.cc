#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.h"

namespace tsg::perfbench {

namespace {

/// Innermost open span id of this thread, per recorder-agnostic stack. The
/// benchmark uses one recorder per process, so a single stack suffices.
thread_local std::vector<int64_t> t_open_spans;

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::string owner, int64_t parent)
    : recorder_(recorder) {
  span_.id = recorder.next_id_.fetch_add(1);
  span_.parent = parent >= 0 ? parent
                 : t_open_spans.empty() ? -1
                                        : t_open_spans.back();
  span_.name = std::move(name);
  span_.owner = std::move(owner);
  t_open_spans.push_back(span_.id);
  span_.start = recorder.Now();
}

SpanRecorder::Scope::~Scope() {
  span_.end = recorder_.Now();
  t_open_spans.pop_back();
  recorder_.Close(span_);
}

void SpanRecorder::Close(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out = spans_;
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans()) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  const std::vector<Span> all = spans();
  std::map<int64_t, double> child_seconds;
  for (const Span& span : all) {
    if (span.parent >= 0) child_seconds[span.parent] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (const Span& span : all) {
    self[span.name] += (span.end - span.start) - child_seconds[span.id];
  }
  return self;
}

void SpanRecorder::WriteJson(io::JsonWriter& json) const {
  json.BeginObject();
  json.Key("spans").BeginArray();
  for (const Span& span : spans()) {
    json.BeginObject();
    json.Key("id").Int(span.id);
    json.Key("parent").Int(span.parent);
    json.Key("name").String(span.name);
    json.Key("owner").String(span.owner);
    json.Key("start").Number(span.start);
    json.Key("end").Number(span.end);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

TracedMethod::TracedMethod(std::unique_ptr<core::TsgMethod> inner,
                           SpanRecorder& recorder, std::string cell)
    : inner_(std::move(inner)), recorder_(recorder), cell_(std::move(cell)) {}

Status TracedMethod::Fit(const core::Dataset& train,
                         const core::FitOptions& options) {
  const SpanRecorder::Scope span(recorder_, "methods.fit", cell_);
  return inner_->Fit(train, options);
}

std::vector<core::Matrix> TracedMethod::Generate(int64_t count,
                                                 Rng& rng) const {
  const SpanRecorder::Scope span(recorder_, "methods.generate", cell_);
  return inner_->Generate(count, rng);
}

std::vector<std::vector<core::Matrix>> TracedMethod::GenerateBatch(
    const std::vector<core::GenRequest>& requests) const {
  const SpanRecorder::Scope span(recorder_, "methods.generate", cell_);
  return inner_->GenerateBatch(requests);
}

StatusOr<core::MethodSnapshot> TracedMethod::Snapshot() const {
  const SpanRecorder::Scope span(recorder_, "methods.snapshot", cell_);
  return inner_->Snapshot();
}

Status TracedMethod::Restore(const core::MethodSnapshot& snapshot) {
  const SpanRecorder::Scope span(recorder_, "methods.restore", cell_);
  return inner_->Restore(snapshot);
}

uint64_t TracedMethod::HyperparameterDigest() const {
  return inner_->HyperparameterDigest();
}

std::string TracedMethod::name() const { return inner_->name(); }

TracedStore::TracedStore(store::ArtifactStore& inner, SpanRecorder& recorder)
    : inner_(inner), recorder_(recorder) {}

StatusOr<core::MethodSnapshot> TracedStore::Load(const core::ModelKey& key) {
  StatusOr<core::MethodSnapshot> snapshot = [&] {
    const SpanRecorder::Scope span(recorder_, "store.load", key.method);
    return inner_.Load(key);
  }();
  if (snapshot.ok()) {
    bytes_loaded_.fetch_add(FileBytes(inner_.PathFor(key)));
  }
  return snapshot;
}

Status TracedStore::Save(const core::ModelKey& key,
                         const core::MethodSnapshot& snapshot) {
  Status status = [&] {
    const SpanRecorder::Scope span(recorder_, "store.save", key.method);
    return inner_.Save(key, snapshot);
  }();
  if (status.ok()) {
    bytes_saved_.fetch_add(FileBytes(inner_.PathFor(key)));
  }
  return status;
}

RegistryView RegistryView::Capture() {
  RegistryView view;
  StatusOr<io::JsonValue> doc =
      io::JsonValue::Parse(obs::MetricRegistry::Global().SnapshotJson(true));
  if (doc.ok()) view.doc_ = std::move(doc).value();
  return view;
}

namespace {

const io::JsonValue* Section(const io::JsonValue& doc, const char* half,
                             const char* section) {
  const io::JsonValue* outer = doc.Find(half);
  return outer == nullptr ? nullptr : outer->Find(section);
}

}  // namespace

int64_t RegistryView::CounterSum(const std::string& prefix,
                                 const std::string& suffix) const {
  const io::JsonValue* counters = Section(doc_, "counts", "counters");
  if (counters == nullptr) return 0;
  int64_t total = 0;
  for (const auto& [name, value] : counters->object_items()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<int64_t>(value.number_value());
    }
  }
  return total;
}

double RegistryView::TimerSeconds(const std::string& name) const {
  const io::JsonValue* timers = Section(doc_, "timings", "timers");
  const io::JsonValue* timer = timers == nullptr ? nullptr : timers->Find(name);
  return timer == nullptr ? 0.0 : timer->GetNumber("total_seconds", 0.0);
}

int64_t RegistryView::TimerCount(const std::string& name) const {
  const io::JsonValue* timers = Section(doc_, "timings", "timers");
  const io::JsonValue* timer = timers == nullptr ? nullptr : timers->Find(name);
  return timer == nullptr ? 0 : timer->GetInt("count", 0);
}

double RegistryView::Gauge(const std::string& name) const {
  const io::JsonValue* gauges = Section(doc_, "timings", "gauges");
  return gauges == nullptr ? 0.0 : gauges->GetNumber(name, 0.0);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const size_t mid = values.size() / 2;
    return 0.5 * (values[mid - 1] + values[mid]);
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Checks::Expect(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, ok ? "" : detail});
  if (!ok) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED %s: %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Checks::Expect(const std::string& name, const Status& status) {
  Expect(name, status.ok(), status.ToString());
}

bool Checks::all_ok() const { return failures() == 0; }

int64_t Checks::failures() const {
  int64_t n = 0;
  for (const Check& c : checks_) n += c.ok ? 0 : 1;
  return n;
}

void Checks::Write(io::JsonWriter& json) const {
  json.BeginArray();
  for (const Check& c : checks_) {
    json.BeginObject();
    json.Key("name").String(c.name);
    json.Key("ok").Bool(c.ok);
    json.Key("detail").String(c.detail);
    json.EndObject();
  }
  json.EndArray();
}

namespace {

void WriteMetricMap(io::JsonWriter& json, const MetricMap& metrics) {
  json.BeginObject();
  for (const auto& [name, value] : metrics) json.Key(name).Number(value);
  json.EndObject();
}

}  // namespace

void WriteResult(const Checks& checks, int64_t attempted, int64_t failed,
                 const MetricMap& metrics, const MetricMap& report) {
  io::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(checks.all_ok());
  json.Key("attempted").Int(attempted);
  json.Key("failed").Int(failed);
  json.Key("metrics");
  WriteMetricMap(json, metrics);
  json.Key("report");
  WriteMetricMap(json, report);
  json.Key("checks");
  checks.Write(json);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace tsg::perfbench
