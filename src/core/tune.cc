#include "core/tune.h"

#include <algorithm>
#include <sstream>

#include "ag/tape.h"
#include "base/check.h"

namespace tsg::core {

std::vector<TuneCandidate> DefaultCandidates(uint64_t seed) {
  std::vector<TuneCandidate> candidates;
  for (const int64_t batch : {16, 32, 64}) {
    for (int restart = 0; restart < 2; ++restart) {
      FitOptions options;
      options.batch_size = batch;
      options.seed = seed + static_cast<uint64_t>(restart) * 7919;
      std::ostringstream label;
      label << "batch=" << batch << " restart=" << restart;
      candidates.push_back({options, label.str()});
    }
  }
  return candidates;
}

TuneResult TuneMethod(
    const std::function<std::unique_ptr<TsgMethod>()>& factory,
    std::vector<TuneCandidate> candidates, const Dataset& train,
    const Dataset& validation,
    const std::function<double(const Dataset&, const Dataset&)>& objective,
    const TuneOptions& options) {
  TSG_CHECK(!candidates.empty());
  TSG_CHECK(!train.empty() && !validation.empty());

  TuneResult result;
  double epoch_scale = options.initial_epoch_scale;
  std::vector<std::pair<double, TuneCandidate>> pool;
  for (auto& c : candidates) pool.emplace_back(0.0, std::move(c));

  for (int rung = 0; rung < options.rungs && !pool.empty(); ++rung) {
    for (auto& [score, candidate] : pool) {
      FitOptions fit = candidate.options;
      fit.epoch_scale = epoch_scale;
      std::unique_ptr<TsgMethod> method = factory();
      ag::BeginTrainingRun();
      const Status status = method->Fit(train, fit);
      if (!status.ok()) {
        score = 1e300;  // Failed fits drop out at the cut.
        continue;
      }
      Rng rng(options.seed ^ (0x7u << rung));
      const int64_t count = std::min(options.eval_samples,
                                     validation.num_samples());
      Dataset generated("tuned", method->Generate(count, rng));
      score = objective(validation.Head(count), generated);

      std::ostringstream line;
      line << "rung " << rung << " (epoch_scale " << epoch_scale << "): "
           << candidate.label << " -> " << score;
      result.trials.push_back(line.str());
    }
    std::sort(pool.begin(), pool.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (rung + 1 < options.rungs) {
      pool.resize(std::max<size_t>(1, (pool.size() + 1) / 2));
      epoch_scale *= 2.0;
    }
  }
  result.best = pool.front().second;
  result.best_score = pool.front().first;
  return result;
}

}  // namespace tsg::core
