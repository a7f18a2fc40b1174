#ifndef T3_HARNESS_TRAINING_H_
#define T3_HARNESS_TRAINING_H_

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "gbt/trainer.h"
#include "harness/corpus.h"
#include "harness/evaluate.h"
#include "model/t3_model.h"

namespace t3 {

/// Record predicate selecting a training (or evaluation) subset of the
/// corpus, e.g. leave-one-out families. A null filter means the standard
/// train split (!is_test).
using RecordFilter = std::function<bool(const QueryRecord&)>;

/// The paper's training setup: 200 trees x <= 31 leaves, MAPE objective on
/// negated log targets, 10% validation split with 20-round early stopping.
inline TrainParams DefaultT3TrainParams() {
  TrainParams params;
  params.num_trees = 200;
  params.max_leaves = 31;
  params.objective = Objective::kMape;
  params.validation_fraction = 0.1;
  params.early_stopping_rounds = 20;
  return params;
}

/// Everything besides the corpus and the train split that determines one
/// trained model's bytes: the prediction target, an optional
/// feature-ablation mask, and the trainer's hyperparameters.
struct T3Config {
  PredictionTarget target = PredictionTarget::kPerTuple;
  /// Feature indices zeroed in every training row (ablation). A zeroed
  /// column is constant, the histogram trainer never splits a constant
  /// feature, so the trained forest provably ignores those features at
  /// evaluation time too (Workbench::GetModel checks this via
  /// FeatureSplitCounts after every training run).
  std::vector<int> drop_features;
  TrainParams train = DefaultT3TrainParams();
};

/// The assembled training problem of one model configuration.
struct TrainingMatrix {
  std::vector<double> rows;     ///< Row-major, targets.size() x num_features.
  std::vector<double> targets;  ///< TransformTarget()-domain labels.
  size_t num_features = 0;
};

/// Assembles the training matrix of one model configuration over the
/// filtered corpus records through the target's QueryBatch rules:
///
/// - kPerTuple:    one row per pipeline (features under `mode`), target =
///                 -log(pipeline seconds / max(input cardinality, 1)),
/// - kPerPipeline: one row per pipeline, target = -log(pipeline seconds),
/// - kPerQuery:    one summed feature vector per query, target =
///                 -log(query seconds).
///
/// `runs_limit` > 0 re-derives the target label as the median of the first
/// `runs_limit` stored benchmark runs (Figure 14's varying-run study); 0
/// uses the stored medians. The first non-empty row pins the width, rows of
/// another width are skipped, and config.drop_features columns are zeroed.
///
/// The assembly is bit-deterministic regardless of `pool`: workers fill
/// contiguous chunks of records and the chunks are joined in corpus order,
/// so every thread count (including pool == nullptr) produces identical
/// bytes. Fails with InvalidArgument when no usable training rows survive.
Result<TrainingMatrix> BuildTrainingMatrix(const Corpus& corpus,
                                           const RecordFilter& train_filter,
                                           CardinalityMode mode,
                                           const T3Config& config,
                                           int runs_limit,
                                           ThreadPool* pool = nullptr);

}  // namespace t3

#endif  // T3_HARNESS_TRAINING_H_
