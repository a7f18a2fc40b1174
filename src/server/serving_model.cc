#include "server/serving_model.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace t3 {

namespace {

Result<std::shared_ptr<const ServingModel>> Prepare(T3Model model,
                                                    uint32_t version,
                                                    std::string source,
                                                    double load_ms) {
  const Stopwatch build_watch;
  const Status valid = model.forest().Validate();
  if (!valid.ok()) return valid;
  QuickScorer scorer(model.forest());
  const ServingModel::Timings timings{load_ms, build_watch.ElapsedSeconds() * 1e3};
  ServingModel serving{std::move(model), std::move(scorer), version, std::move(source),
                       timings};
  return std::make_shared<const ServingModel>(std::move(serving));
}

}  // namespace

std::string ServingModel::TimingsText() const {
  return StrFormat("load %.3g ms, build %.3g ms", timings.load_ms,
                   timings.build_ms);
}

Result<std::shared_ptr<const ServingModel>> MakeServingModel(
    T3Model model, uint32_t version, std::string source) {
  return Prepare(std::move(model), version, std::move(source), 0.0);
}

Result<std::shared_ptr<const ServingModel>> LoadServingModel(
    const std::string& path, uint32_t version) {
  const Stopwatch watch;
  Result<T3Model> model = T3Model::LoadFromFile(path);
  if (!model.ok()) return model.status();
  return Prepare(*std::move(model), version, path, watch.ElapsedSeconds() * 1e3);
}

ModelRegistry::ModelRegistry(std::shared_ptr<const ServingModel> initial) {
  T3_CHECK(initial != nullptr);
  next_version_.store(initial->version + 1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(initial);
}

Result<std::shared_ptr<const ServingModel>> ModelRegistry::SwapFromFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const std::shared_ptr<const ServingModel> serving = Current();
  const uint32_t version = next_version_.load(std::memory_order_relaxed);
  Result<std::shared_ptr<const ServingModel>> loaded =
      LoadServingModel(path, version);
  if (!loaded.ok()) return loaded.status();
  if ((*loaded)->num_features() != serving->num_features()) {
    return FailedPreconditionError(StrFormat(
        "hot swap rejected: %s has %d features, the served model has %d",
        path.c_str(), (*loaded)->num_features(), serving->num_features()));
  }
  next_version_.store(version + 1, std::memory_order_relaxed);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = *loaded;
  }
  return loaded;
}

}  // namespace t3
