#include "varade/trees/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace varade::trees {

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config) : config_(config) {
  check(config_.max_depth >= 1, "max_depth must be >= 1");
  check(config_.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  check(config_.min_samples_split >= 2, "min_samples_split must be >= 2");
}

void DecisionTreeRegressor::fit(const Tensor& x, const Tensor& y) {
  check(x.rank() == 2, "fit expects X of shape [n, d]");
  std::vector<Index> rows(static_cast<std::size_t>(x.dim(0)));
  std::iota(rows.begin(), rows.end(), Index{0});
  fit_rows(x, y, rows);
}

void DecisionTreeRegressor::fit_rows(const Tensor& x, const Tensor& y,
                                     const std::vector<Index>& rows) {
  check(x.rank() == 2 && y.rank() == 1, "fit expects X [n, d] and y [n]");
  check(x.dim(0) == y.dim(0), "X and y row counts differ");
  check(!rows.empty(), "cannot fit a tree on zero samples");
  for (Index r : rows) check(r >= 0 && r < x.dim(0), "row index out of range");
  n_features_ = x.dim(1);
  nodes_.clear();
  depth_ = 0;
  std::vector<Index> work = rows;
  Rng rng(config_.seed);
  build(x, y, work, 0, static_cast<Index>(work.size()), 0, rng);
  // Keep the walk array at its exact size: the capacity left by growth lives
  // as long as the tree does.
  nodes_ = std::vector<Node>(nodes_.begin(), nodes_.end());
}

int DecisionTreeRegressor::build(const Tensor& x, const Tensor& y, std::vector<Index>& rows,
                                 Index begin, Index end, int depth, Rng& rng) {
  const Index n = end - begin;
  const Index d = n_features_;

  double sum = 0.0;
  double sum_sq = 0.0;
  for (Index i = begin; i < end; ++i) {
    const float v = y[rows[static_cast<std::size_t>(i)]];
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const float mean = static_cast<float>(sum / n);
  const double node_sse = sum_sq - sum * sum / n;

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{.child = {node_id, node_id}, .value = mean});
  depth_ = std::max(depth_, depth);

  const bool can_split = depth < config_.max_depth && n >= config_.min_samples_split &&
                         node_sse > 1e-12;
  if (!can_split) return node_id;

  // Choose candidate features (all, or a random subset for ensembles).
  std::vector<Index> features(static_cast<std::size_t>(d));
  std::iota(features.begin(), features.end(), Index{0});
  Index n_candidates = d;
  if (config_.max_features > 0 && config_.max_features < d) {
    std::shuffle(features.begin(), features.end(), rng.engine());
    n_candidates = config_.max_features;
  }

  double best_gain = 0.0;
  Index best_feature = -1;
  float best_threshold = 0.0F;

  std::vector<std::pair<float, float>> vals;  // (feature value, target)
  vals.reserve(static_cast<std::size_t>(n));
  for (Index fi = 0; fi < n_candidates; ++fi) {
    const Index f = features[static_cast<std::size_t>(fi)];
    vals.clear();
    for (Index i = begin; i < end; ++i) {
      const Index r = rows[static_cast<std::size_t>(i)];
      vals.emplace_back(x[r * d + f], y[r]);
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;  // constant feature

    // Scan split positions; SSE reduction = sum^2_l/n_l + sum^2_r/n_r - sum^2/n.
    double sum_left = 0.0;
    for (Index i = 0; i + 1 < n; ++i) {
      sum_left += vals[static_cast<std::size_t>(i)].second;
      const Index n_left = i + 1;
      const Index n_right = n - n_left;
      if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) continue;
      const float v_here = vals[static_cast<std::size_t>(i)].first;
      const float v_next = vals[static_cast<std::size_t>(i + 1)].first;
      if (v_here == v_next) continue;  // cannot split between equal values
      const double sum_right = sum - sum_left;
      const double gain =
          sum_left * sum_left / n_left + sum_right * sum_right / n_right - sum * sum / n;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5F * (v_here + v_next);
      }
    }
  }

  if (best_feature < 0) return node_id;

  // Partition rows in [begin, end) by the chosen split.
  auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin), rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](Index r) { return x[r * d + best_feature] <= best_threshold; });
  const Index mid = static_cast<Index>(mid_it - rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate split (numeric ties)

  const int left = build(x, y, rows, begin, mid, depth + 1, rng);
  const int right = build(x, y, rows, mid, end, depth + 1, rng);
  Node& split = nodes_[static_cast<std::size_t>(node_id)];
  split.feature = static_cast<int>(best_feature);
  split.threshold = best_threshold;
  split.child[0] = left;
  split.child[1] = right;
  return node_id;
}

// One level of the walk, an indexed load rather than a branch: equality goes
// left, NaN goes right, and a leaf maps to itself.
int DecisionTreeRegressor::step(const Node* nodes, int id, const float* sample) {
  const Node& nd = nodes[id];
  return nd.child[!(sample[nd.feature] <= nd.threshold)];
}

// Exactly depth() steps, whatever the row, so every row takes the same path
// length and the loop's exit never depends on the data.
int DecisionTreeRegressor::leaf_of(const float* sample) const {
  const Node* nodes = nodes_.data();
  int id = 0;
  for (int level = 0; level < depth_; ++level) id = step(nodes, id, sample);
  return id;
}

float DecisionTreeRegressor::predict_one(const float* sample) const {
  check(fitted(), "predict on unfitted tree");
  return nodes_[static_cast<std::size_t>(leaf_of(sample))].value;
}

float DecisionTreeRegressor::predict_one(const Tensor& sample) const {
  check(sample.rank() == 1 && sample.dim(0) == n_features_,
        "predict_one expects [" + std::to_string(n_features_) + "]");
  return predict_one(sample.data());
}

Tensor DecisionTreeRegressor::predict(const Tensor& x) const {
  check(x.rank() == 2 && x.dim(1) == n_features_, "predict expects [n, d]");
  const Index n = x.dim(0);
  Tensor out({n});
  for (Index i = 0; i < n; ++i) out[i] = predict_one(x.data() + i * n_features_);
  return out;
}

void DecisionTreeRegressor::accumulate_rows(const float* x, Index n, Index d, double scale,
                                            double* acc) const {
  // Branch-then-fail (not check()) so the hot path — one call per tree per
  // batch — never constructs message strings.
  if (!fitted()) fail("predict on unfitted tree");
  if (d != n_features_)
    fail("accumulate_rows expects ", n_features_, " features, got ", d);
  const Node* nodes = nodes_.data();
  // Blocks of four rows walk in lockstep, so their dependent load chains
  // overlap; each row still adds its own scale * leaf value, tree by tree.
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* s = x + i * d;
    int id0 = 0;
    int id1 = 0;
    int id2 = 0;
    int id3 = 0;
    for (int level = 0; level < depth_; ++level) {
      id0 = step(nodes, id0, s);
      id1 = step(nodes, id1, s + d);
      id2 = step(nodes, id2, s + 2 * d);
      id3 = step(nodes, id3, s + 3 * d);
    }
    acc[i] += scale * nodes[id0].value;
    acc[i + 1] += scale * nodes[id1].value;
    acc[i + 2] += scale * nodes[id2].value;
    acc[i + 3] += scale * nodes[id3].value;
  }
  for (; i < n; ++i) acc[i] += scale * nodes[leaf_of(x + i * d)].value;
}

}  // namespace varade::trees
