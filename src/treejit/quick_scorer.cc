#include "treejit/quick_scorer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/cpu_features.h"

// The 8-lane scan is compiled ahead of time for AVX2 and dispatched at
// run time (BatchKernelsEnabled), so the rest of the build stays portable.
// -DT3_DISABLE_AVX2=ON compiles it out, leaving the one-row scan alone.
#if defined(__x86_64__) && !defined(T3_DISABLE_AVX2)
#define T3_QUICK_SCORER_AVX2 1
#include <immintrin.h>
#define T3_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define T3_QUICK_SCORER_AVX2 0
#endif

namespace t3 {

bool BatchJitSupported() { return T3_QUICK_SCORER_AVX2 != 0; }

namespace {

/// Bits [from, to) of a 64-bit word, 0 <= from < to <= 64.
uint64_t BitRange(uint32_t from, uint32_t to) {
  const uint64_t below_to = to == 64 ? ~uint64_t{0} : (uint64_t{1} << to) - 1;
  return below_to & ~((uint64_t{1} << from) - 1);
}

/// Maps finite doubles to integers in the same order (-0.0 just below
/// +0.0, which only splits a tie).
uint64_t OrderKey(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// Tree walks in flight at once. One walk is a chain of dependent loads
/// (the next node comes off the stack the last visit wrote), so running a
/// few side by side overlaps their latencies.
constexpr size_t kWalks = 4;

}  // namespace

QuickScorer::QuickScorer(const Forest& forest)
    : base_score_(forest.base_score), num_features_(forest.num_features) {
  // A valid tree has (nodes + 1) / 2 leaves, so every tree's words and
  // leaf values are placed before any walk.
  const size_t num_trees = forest.trees.size();
  tree_word_.resize(num_trees);
  tree_leaf_.resize(num_trees);
  size_t num_leaves = 0;
  size_t num_inner = 0;
  vectorized_ = BatchJitSupported();
  for (size_t t = 0; t < num_trees; ++t) {
    const size_t leaves = (forest.trees[t].nodes.size() + 1) / 2;
    vectorized_ = vectorized_ && leaves <= 32;
    tree_word_[t] = static_cast<uint32_t>(initial_bits_.size());
    tree_leaf_[t] = static_cast<uint32_t>(num_leaves);
    for (size_t from = 0; from < leaves; from += 64) {
      initial_bits_.push_back(BitRange(
          0, static_cast<uint32_t>(std::min<size_t>(leaves - from, 64))));
    }
    num_leaves += leaves;
    num_inner += leaves - 1;
  }
  T3_CHECK(initial_bits_.size() < kSpanTag && num_leaves < kSpanTag);
  leaf_value_.resize(num_leaves);

  struct Split {
    double threshold;
    uint64_t mask;
    uint32_t word;
    bool default_left;
  };
  // Splits in walk order, plus one slot for the stand-in writes below.
  std::vector<Split> found(num_inner + 1);
  std::vector<int32_t> found_feature(num_inner + 1);
  size_t num_splits = 0;

  // A node to visit and, for a right child, the inner node whose left
  // subtree it closes (-1 for a left child).
  struct Visit {
    int32_t node;
    int32_t closes;
  };
  struct Walk {
    size_t tree = 0;
    const TreeNode* nodes = nullptr;  // Null once there is no tree left.
    size_t depth = 0;
    uint32_t leaf = 0;
    std::vector<Visit> stack;
    std::vector<uint32_t> first_leaf;  // Node -> first leaf of its subtree.
    std::vector<int32_t> leaf_node;    // Leaf number -> node.
  };
  size_t next_tree = 0;
  auto start = [&](Walk& walk) {
    if (next_tree == num_trees) {
      walk.nodes = nullptr;
      return false;
    }
    const std::vector<TreeNode>& nodes = forest.trees[next_tree].nodes;
    walk.tree = next_tree++;
    walk.nodes = nodes.data();
    walk.stack.resize(nodes.size() + 2);
    walk.first_leaf.resize(nodes.size());
    walk.leaf_node.resize(nodes.size());
    walk.stack[0] = {0, -1};
    walk.depth = 1;
    walk.leaf = 0;
    return true;
  };
  // One visit of a preorder walk, left child first: leaves are numbered
  // left to right, and a right child is reached right after its sibling's
  // subtree, so its parent's left subtree holds the leaves
  // [first_leaf[parent], leaves numbered so far). The visit has no branch
  // on the node kind, which would mispredict about half the time. Every
  // visit writes a split, but only a right child advances past it (a left
  // child writes a stand-in for itself that the next visit overwrites);
  // every node claims leaf_node[leaf], but only a leaf takes the number; a
  // leaf's -1 children land where the next push overwrites them.
  auto step = [&](Walk& walk) {
    const Visit visit = walk.stack[--walk.depth];
    const TreeNode& node = walk.nodes[visit.node];
    walk.first_leaf[static_cast<size_t>(visit.node)] = walk.leaf;
    walk.leaf_node[walk.leaf] = visit.node;

    const bool closes = visit.closes >= 0;
    const size_t owner =
        static_cast<size_t>(closes ? visit.closes : visit.node);
    const TreeNode& parent = walk.nodes[owner];
    const uint32_t from = walk.first_leaf[owner];
    const uint32_t to = closes ? walk.leaf : from + 1;
    const uint32_t first = from / 64;
    const uint32_t last = (to - 1) / 64;
    const uint32_t word_base = tree_word_[walk.tree];
    found_feature[num_splits] = parent.feature;
    Split& split = found[num_splits];
    split.threshold = parent.threshold;
    split.default_left = parent.default_left;
    if (first == last) [[likely]] {
      split.word = word_base + first;
      split.mask = ~BitRange(from % 64, (to - 1) % 64 + 1);
    } else {
      split.word = kSpanTag + static_cast<uint32_t>(spans_.size());
      split.mask = 0;  // Unused: ClearSpan masks the span's words.
      spans_.push_back({word_base + first, word_base + last,
                        ~BitRange(from % 64, 64),
                        ~BitRange(0, (to - 1) % 64 + 1)});
    }
    num_splits += closes ? 1 : 0;

    walk.leaf += node.is_leaf ? 1 : 0;
    walk.stack[walk.depth] = {node.right, visit.node};
    walk.stack[walk.depth + 1] = {node.left, -1};
    walk.depth += node.is_leaf ? 0 : 2;
  };
  auto finish = [&](const Walk& walk) {
    T3_CHECK(walk.leaf == (forest.trees[walk.tree].nodes.size() + 1) / 2);
    double* values = leaf_value_.data() + tree_leaf_[walk.tree];
    for (uint32_t l = 0; l < walk.leaf; ++l) {
      values[l] = walk.nodes[walk.leaf_node[l]].value;
    }
  };

  // Each walk that finishes its tree starts the next one.
  std::array<Walk, kWalks> walks;
  size_t running = 0;
  for (Walk& walk : walks) running += start(walk) ? 1 : 0;
  while (running > 0) {
    for (Walk& walk : walks) {
      if (walk.depth > 0) {
        step(walk);
      } else if (walk.nodes != nullptr) {
        finish(walk);
        if (!start(walk)) --running;
      }
    }
  }
  T3_CHECK(num_splits == num_inner && spans_.size() < kSpanTag);

  // Order the splits by feature, then threshold. Two stable counting
  // passes on the top 16 bits of each threshold's OrderKey, then one on
  // the feature, leave each feature's splits sorted but for ties in those
  // bits, so the std::sort that finishes each feature finds them nearly in
  // order and rarely mispredicts. Thresholds are finite, so `<` orders
  // them; equal thresholds (+0.0 and -0.0 among them) pass or stop the
  // scan together, so their relative order does not matter.
  std::vector<uint16_t> top(num_splits);
  for (size_t j = 0; j < num_splits; ++j) {
    top[j] = static_cast<uint16_t>(OrderKey(found[j].threshold) >> 48);
  }
  std::vector<uint32_t> order(num_splits);
  std::vector<uint32_t> scratch(num_splits);
  for (size_t j = 0; j < num_splits; ++j) order[j] = static_cast<uint32_t>(j);
  // Returns each bucket's end in the new order.
  auto counting_pass = [&](size_t num_buckets, auto bucket_of) {
    std::vector<uint32_t> end(num_buckets + 1, 0);
    for (const uint32_t j : order) ++end[bucket_of(j) + 1];
    for (size_t b = 0; b < num_buckets; ++b) end[b + 1] += end[b];
    for (const uint32_t j : order) scratch[end[bucket_of(j)]++] = j;
    order.swap(scratch);
    return end;
  };
  counting_pass(256, [&](uint32_t j) { return size_t{top[j]} & 255; });
  counting_pass(256, [&](uint32_t j) { return size_t{top[j]} >> 8; });
  const std::vector<uint32_t> end =
      counting_pass(static_cast<size_t>(num_features_), [&](uint32_t j) {
        return static_cast<size_t>(found_feature[j]);
      });
  std::vector<Split> splits(num_splits);
  for (size_t k = 0; k < num_splits; ++k) splits[k] = found[order[k]];
  uint32_t begin = 0;
  for (size_t f = 0; f < static_cast<size_t>(num_features_); ++f) {
    if (begin == end[f]) continue;
    std::sort(splits.begin() + begin, splits.begin() + end[f],
              [](const Split& a, const Split& b) {
                return a.threshold < b.threshold;
              });
    split_features_.push_back(static_cast<int32_t>(f));
    feature_begin_.push_back(begin);
    begin = end[f];
  }
  feature_begin_.push_back(static_cast<uint32_t>(num_splits));

  threshold_.reserve(num_splits);
  word_.reserve(num_splits);
  mask_.reserve(num_splits);
  default_left_.reserve(num_splits);
  for (const Split& split : splits) {
    threshold_.push_back(split.threshold);
    word_.push_back(split.word);
    mask_.push_back(split.mask);
    default_left_.push_back(split.default_left ? 1 : 0);
  }
}

void QuickScorer::ClearSpan(const Span& span, uint64_t* bits) {
  bits[span.first_word] &= span.first_mask;
  for (uint32_t w = span.first_word + 1; w < span.last_word; ++w) bits[w] = 0;
  bits[span.last_word] &= span.last_mask;
}

double QuickScorer::Score(const double* row, uint64_t* bits) const {
  std::memcpy(bits, initial_bits_.data(), num_words() * sizeof(uint64_t));
  const double* threshold = threshold_.data();
  const uint32_t* word = word_.data();
  const uint64_t* mask = mask_.data();
  // Clears the leaves split `i` rules out for a row that leaves it right.
  auto apply = [&](size_t i) {
    if (word[i] < kSpanTag) [[likely]] {
      bits[word[i]] &= mask[i];
    } else {
      ClearSpan(spans_[word[i] - kSpanTag], bits);
    }
  };
  for (size_t k = 0; k < split_features_.size(); ++k) {
    const double x = row[split_features_[k]];
    size_t i = feature_begin_[k];
    const size_t end = feature_begin_[k + 1];
    if (std::isnan(x)) {
      for (; i < end; ++i) {
        if (default_left_[i] == 0) apply(i);
      }
    } else {
      // The splits with x >= threshold are those whose `x < threshold` is
      // false: the row leaves them to the right.
      for (; i < end && x >= threshold[i]; ++i) apply(i);
    }
  }
  double sum = base_score_;
  for (size_t t = 0; t < tree_word_.size(); ++t) {
    // The exit leaf is never cleared, so the scan stops inside the tree.
    size_t w = tree_word_[t];
    while (bits[w] == 0) ++w;
    sum += leaf_value_[tree_leaf_[t] + 64 * (w - tree_word_[t]) +
                       static_cast<size_t>(std::countr_zero(bits[w]))];
  }
  return sum;
}

double QuickScorer::Predict(const double* row) const {
  std::vector<uint64_t> bits(num_words());
  return Score(row, bits.data());
}

void QuickScorer::PredictBatch(const double* rows, size_t num_rows,
                               size_t num_features, double* out) const {
#ifndef NDEBUG
  T3_CHECK(num_rows == 0 || num_features >= static_cast<size_t>(num_features_));
#endif
  size_t done = 0;
#if T3_QUICK_SCORER_AVX2
  if (vectorized_ && BatchKernelsEnabled()) {
    done = num_rows / 8 * 8;
    PredictBlocks(rows, num_rows / 8, num_features, out);
  }
#endif
  PredictEachRow(rows + done * num_features, num_rows - done, num_features,
                 out + done);
}

void QuickScorer::PredictEachRow(const double* rows, size_t num_rows,
                                 size_t num_features, double* out) const {
#ifndef NDEBUG
  T3_CHECK(num_rows == 0 || num_features >= static_cast<size_t>(num_features_));
#endif
  std::vector<uint64_t> bits(num_words());
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Score(rows + i * num_features, bits.data());
  }
}

#if T3_QUICK_SCORER_AVX2

namespace {

/// The 8 lane masks of a block, in row order, from two 4-double compare
/// results over rows (0, 1, 4, 5) and (2, 3, 6, 7): vshufps keeps the low
/// 32 bits of each 64-bit mask, taking two from `a` then two from `b` in
/// each 128-bit half.
T3_TARGET_AVX2 __m256i NarrowMasks(__m256d a, __m256d b) {
  return _mm256_castps_si256(_mm256_shuffle_ps(
      _mm256_castpd_ps(a), _mm256_castpd_ps(b), _MM_SHUFFLE(2, 0, 2, 0)));
}

/// One tree's bitvectors for the 8 rows of a block, one 32-bit lane each.
struct alignas(32) LaneBits {
  uint32_t lane[8];
};

}  // namespace

T3_TARGET_AVX2 void QuickScorer::PredictBlocks(const double* rows,
                                               size_t num_blocks,
                                               size_t stride,
                                               double* out) const {
  const size_t num_trees = tree_word_.size();
  std::vector<LaneBits> bits(num_trees);
  // Every tree has one word, so a split's word_ is its tree's index.
  auto* words = reinterpret_cast<__m256i*>(bits.data());
  // A store through __m256i may alias anything, `this` included, so the
  // arrays are read through locals the stores cannot change.
  const double* threshold = threshold_.data();
  const uint32_t* word = word_.data();
  const uint64_t* mask = mask_.data();
  const uint8_t* default_left = default_left_.data();
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  for (size_t b = 0; b < num_blocks; ++b, rows += 8 * stride, out += 8) {
    for (size_t t = 0; t < num_trees; ++t) {
      words[t] = _mm256_set1_epi32(static_cast<int32_t>(initial_bits_[t]));
    }
    for (size_t k = 0; k < split_features_.size(); ++k) {
      // The block's values of one feature, feature-major, rows (0, 1, 4, 5)
      // in `lo` and (2, 3, 6, 7) in `hi` for NarrowMasks.
      const double* x = rows + split_features_[k];
      const __m256d lo =
          _mm256_set_pd(x[5 * stride], x[4 * stride], x[stride], x[0]);
      const __m256d hi = _mm256_set_pd(x[7 * stride], x[6 * stride],
                                       x[3 * stride], x[2 * stride]);
      const __m256i nan = NarrowMasks(_mm256_cmp_pd(lo, lo, _CMP_UNORD_Q),
                                      _mm256_cmp_pd(hi, hi, _CMP_UNORD_Q));
      const bool any_nan = _mm256_testz_si256(nan, nan) == 0;
      const size_t end = feature_begin_[k + 1];
      for (size_t i = feature_begin_[k]; i < end; ++i) {
        // The rows whose `x < threshold` is false leave split i right.
        const __m256d t = _mm256_broadcast_sd(&threshold[i]);
        __m256i right = NarrowMasks(_mm256_cmp_pd(lo, t, _CMP_GE_OQ),
                                    _mm256_cmp_pd(hi, t, _CMP_GE_OQ));
        if (any_nan) {
          // A NaN row goes right at every default_left == false split, so
          // the whole run is scanned.
          if (default_left[i] == 0) right = _mm256_or_si256(right, nan);
        } else if (_mm256_testz_si256(right, right) != 0) {
          break;  // Thresholds ascend: no row passes a later one either.
        }
        const __m256i clear = _mm256_andnot_si256(
            _mm256_set1_epi32(static_cast<int32_t>(mask[i])), right);
        words[word[i]] = _mm256_andnot_si256(clear, words[word[i]]);
      }
    }
    // Each row's exit leaf is its lowest set bit, v & -v. Its index is the
    // exponent of that power of two as a float; bit 31 converts to -2^31,
    // whose sign the 0xFF mask drops.
    __m256d sum_lo = _mm256_set1_pd(base_score_);
    __m256d sum_hi = sum_lo;
    for (size_t t = 0; t < num_trees; ++t) {
      const __m256i v = words[t];
      const __m256i lowest =
          _mm256_and_si256(v, _mm256_sub_epi32(_mm256_setzero_si256(), v));
      const __m256i exponent = _mm256_and_si256(
          _mm256_srli_epi32(_mm256_castps_si256(_mm256_cvtepi32_ps(lowest)),
                            23),
          _mm256_set1_epi32(0xFF));
      const __m256i leaf = _mm256_add_epi32(
          exponent,
          _mm256_set1_epi32(static_cast<int32_t>(tree_leaf_[t]) - 127));
      // The masked gather with a zero source: the unmasked one leaves its
      // source operand undefined, which GCC flags as maybe-uninitialized.
      sum_lo = _mm256_add_pd(
          sum_lo, _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                           leaf_value_.data(),
                                           _mm256_castsi256_si128(leaf),
                                           all_lanes, 8));
      sum_hi = _mm256_add_pd(
          sum_hi, _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                           leaf_value_.data(),
                                           _mm256_extracti128_si256(leaf, 1),
                                           all_lanes, 8));
    }
    _mm256_storeu_pd(out, sum_lo);
    _mm256_storeu_pd(out + 4, sum_hi);
  }
}

#endif  // T3_QUICK_SCORER_AVX2

}  // namespace t3
