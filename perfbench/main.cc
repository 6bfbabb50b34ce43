// tsg_perfbench: the compiled half of the repository benchmark (see
// perfbench/README.md). perfbench/run.py builds and drives it:
//
//   tsg_perfbench setup --seed=N --root=DIR
//   tsg_perfbench grid --seed=N --root=DIR [--trace] [--trace_out=PATH]
//   tsg_perfbench probe --store=DIR --root=DIR --gen_seed=S [--streams=FILE]
//   tsg_perfbench info
//
// `--streams` names a file with one replayed stream_eval request per line:
// "<method> <dataset> <count> <gen_seed> <window> <chunk>".

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "base/thread_pool.h"
#include "bench_util.h"
#include "core/measures.h"
#include "io/json.h"
#include "kernels/kernels.h"
#include "methods/factory.h"
#include "workloads.h"

namespace {

using tsg::bench::ConsumeFlag;
using tsg::bench::ConsumeFlagValue;

constexpr const char* kUsage =
    "tsg_perfbench setup --seed=N --root=DIR\n"
    "tsg_perfbench grid --seed=N --root=DIR [--trace] [--trace_out=PATH]\n"
    "tsg_perfbench probe --store=DIR --root=DIR --gen_seed=S [--streams=FILE]\n"
    "tsg_perfbench info";

int Grid(int argc, char** argv, bool setup_only) {
  tsg::perfbench::GridArgs args;
  std::string value;
  if (ConsumeFlagValue(&argc, argv, "seed", &value)) args.seed = std::strtoull(value.c_str(), nullptr, 10);
  ConsumeFlagValue(&argc, argv, "root", &args.root);
  if (!setup_only) {
    args.trace = ConsumeFlag(&argc, argv, "trace");
    ConsumeFlagValue(&argc, argv, "trace_out", &args.trace_out);
  }
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, kUsage)) return 2;
  if (args.root.empty()) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  return setup_only ? tsg::perfbench::RunGridSetup(args)
                    : tsg::perfbench::RunGridWorkload(args);
}

int Probe(int argc, char** argv) {
  tsg::perfbench::ProbeArgs args;
  std::string value;
  ConsumeFlagValue(&argc, argv, "store", &args.store);
  ConsumeFlagValue(&argc, argv, "root", &args.root);
  if (ConsumeFlagValue(&argc, argv, "gen_seed", &value)) args.gen_seed = std::strtoull(value.c_str(), nullptr, 10);
  std::string streams_path;
  ConsumeFlagValue(&argc, argv, "streams", &streams_path);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, kUsage)) return 2;
  if (args.store.empty() || args.root.empty()) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  if (!streams_path.empty()) {
    std::ifstream in(streams_path);
    tsg::perfbench::StreamSpec spec;
    while (in >> spec.method >> spec.dataset >> spec.count >> spec.gen_seed >>
           spec.window >> spec.chunk) {
      if (spec.count < 1 || spec.window < 1 || spec.chunk < 1) {
        std::fprintf(stderr, "bad stream spec in %s\n", streams_path.c_str());
        return 2;
      }
      args.streams.push_back(spec);
    }
  }
  return tsg::perfbench::RunServeProbe(args);
}

int Info() {
  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("backend").String(tsg::kernels::BackendName());
  json.Key("threads").Int(tsg::base::ThreadPool::Global().max_parallelism());
  json.Key("methods").BeginArray();
  for (const std::string& method : tsg::methods::AllMethodNames()) json.String(method);
  json.EndArray();
  json.Key("grid_datasets").BeginArray();
  for (const auto id : tsg::perfbench::kGridDatasets) json.String(tsg::data::DatasetName(id));
  json.EndArray();
  json.Key("serve_datasets").BeginArray();
  for (const auto id : tsg::perfbench::kServeDatasets) json.String(tsg::data::DatasetName(id));
  json.EndArray();
  json.Key("serve_count").Int(tsg::perfbench::kServeCount);
  json.Key("suite").BeginArray();
  for (const auto& measure : tsg::core::DefaultMeasureSuite(false)) {
    json.String(measure->name());
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  // Drop the subcommand so flag parsing sees only flags.
  for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
  argc = argc > 1 ? argc - 1 : argc;
  if (command == "setup") return Grid(argc, argv, /*setup_only=*/true);
  if (command == "grid") return Grid(argc, argv, /*setup_only=*/false);
  if (command == "probe") return Probe(argc, argv);
  if (command == "info") return Info();
  std::fprintf(stderr, "usage:\n%s\n", kUsage);
  return 2;
}
