#include "core/dynamic_connectivity.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "graph/reference.h"
#include "mpc/primitives.h"

namespace streammpc {

std::pair<std::vector<Update>, std::vector<Update>> normalize_batch(
    const Batch& batch) {
  // Net effect per edge: +1 (insert), -1 (delete), or 0 (offsetting pair).
  // The stream is valid (§1.2), so the net can never leave {-1, 0, +1}.
  std::unordered_map<Edge, int, EdgeHash> net;
  std::unordered_map<Edge, Weight, EdgeHash> weight;
  for (const Update& u : batch) {
    const int delta = u.type == UpdateType::kInsert ? 1 : -1;
    const int now = (net[u.e] += delta);
    SMPC_CHECK_MSG(-1 <= now && now <= 1, "invalid update multiplicity");
    weight[u.e] = u.w;
  }
  std::vector<Update> ins;
  std::vector<Update> del;
  for (const Update& u : batch) {  // preserve batch order deterministically
    auto it = net.find(u.e);
    if (it == net.end()) continue;
    if (it->second > 0) ins.push_back(Update{UpdateType::kInsert, u.e, weight[u.e]});
    if (it->second < 0) del.push_back(Update{UpdateType::kDelete, u.e, weight[u.e]});
    net.erase(it);
  }
  return {std::move(ins), std::move(del)};
}

DynamicConnectivity::DynamicConnectivity(VertexId n,
                                         const ConnectivityConfig& config,
                                         mpc::Cluster* cluster)
    : n_(n),
      config_(config),
      cluster_(cluster),
      sketches_(n, config.sketch),
      ingest_(n, cluster, config, &sketches_, "connectivity/sketch-update"),
      forest_(n, cluster),
      labels_(n) {
  for (VertexId v = 0; v < n; ++v) labels_[v] = v;
  publish_usage();
}

void DynamicConnectivity::apply_batch(const Batch& batch) {
  if (cluster_ != nullptr) cluster_->begin_phase();
  ++stats_.batches;

  // Preprocessing: the batch arrives scattered over machines and is sorted
  // onto a dedicated machine in O(1) rounds (§1.2, [GSZ11]).
  mpc::sort(cluster_, batch.size(), "connectivity/preprocess");
  mpc::gather_to_one(cluster_, 2 * batch.size(), "connectivity/batch");

  auto [ins, del] = normalize_batch(batch);
  if (!ins.empty()) apply_inserts(ins);
  if (!del.empty()) apply_deletes(del);
  publish_usage();
}

void DynamicConnectivity::flush_ingest() {
  try {
    ingest_.flush();
  } catch (...) {
    // A failed delivery can leave the resident sketches partially updated
    // (strict-mode throw mid-flush); anything derived from the previous
    // sketch state is no longer trustworthy for local repair.
    repairable_ = false;
    repair_links_.clear();
    query_cache_.invalidate();
    throw;
  }
}

void DynamicConnectivity::apply_inserts(const std::vector<Update>& ins) {
  stats_.inserts += ins.size();

  // Sketch updates: one routed, batched, bank-parallel ingest.
  delta_scratch_.clear();
  for (const Update& u : ins) delta_scratch_.push_back(EdgeDelta{u.e, +1});
  ingest_.submit(delta_scratch_);

  // Auxiliary graph H over affected components (Claim 6.1): one vertex per
  // component, one edge per insert joining two distinct components; its
  // spanning forest F_H (local DSU on one machine) is the set of new tree
  // edges.
  std::unordered_map<VertexId, std::uint32_t> comp_index;
  std::vector<Edge> f_h;
  std::optional<Dsu> dsu;
  std::vector<VertexId> touched;
  touched.reserve(2 * ins.size());
  // Two passes: collect components, then run the local DSU.
  for (const Update& u : ins) {
    touched.push_back(u.e.u);
    touched.push_back(u.e.v);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cand;
  for (const Update& u : ins) {
    const VertexId cu = labels_[u.e.u];
    const VertexId cv = labels_[u.e.v];
    if (cu == cv) continue;  // non-tree edge: sketches only
    const auto iu = comp_index.try_emplace(cu, comp_index.size()).first->second;
    const auto iv = comp_index.try_emplace(cv, comp_index.size()).first->second;
    cand.emplace_back(iu, iv);
    f_h.push_back(u.e);  // aligned with cand
  }
  mpc::gather_to_one(cluster_, 2 * f_h.size() + comp_index.size(),
                     "connectivity/aux-H");
  std::vector<Edge> links;
  if (!cand.empty()) {
    dsu.emplace(comp_index.size());
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (dsu->unite(static_cast<VertexId>(cand[i].first),
                     static_cast<VertexId>(cand[i].second))) {
        links.push_back(f_h[i]);
      }
    }
  }
  stats_.tree_inserts += links.size();
  // Insert-only partition changes are exactly these accepted tree edges;
  // remember them so the next snapshot() can repair instead of rebuild.
  repair_links_.insert(repair_links_.end(), links.begin(), links.end());
  forest_.batch_link(links);
  relabel_trees_of(touched);
}

void DynamicConnectivity::apply_deletes(const std::vector<Update>& del) {
  stats_.deletes += del.size();
  // A deletion may split a component, which no local repair can express —
  // the next snapshot() must rebuild from labels_/forest_ (the
  // repair-vs-rebuild rule, core/query_cache.h).
  repairable_ = false;
  repair_links_.clear();
  query_cache_.invalidate();

  delta_scratch_.clear();
  for (const Update& u : del) delta_scratch_.push_back(EdgeDelta{u.e, -1});
  ingest_.submit(delta_scratch_);
  // Replacement-edge sampling below reads the sketches: every buffered
  // delta (earlier insert batches included) must be resident first.
  flush_ingest();

  std::vector<Edge> cuts;
  std::vector<VertexId> touched;
  touched.reserve(2 * del.size());
  for (const Update& u : del) {
    touched.push_back(u.e.u);
    touched.push_back(u.e.v);
    if (forest_.is_tree_edge(u.e)) cuts.push_back(u.e);
  }
  stats_.tree_deletes += cuts.size();
  if (cuts.empty()) {  // non-tree deletions only: nothing else to do
    relabel_trees_of(touched);
    return;
  }
  forest_.batch_cut(cuts);

  // Fragments: the trees now holding the endpoints of the cut edges; every
  // fragment of an affected component contains at least one such endpoint.
  std::vector<TourId> fragments;
  {
    std::unordered_map<TourId, std::uint32_t> seen;
    for (const Edge& e : cuts) {
      for (const VertexId x : {e.u, e.v}) {
        const TourId t = forest_.tour_of(x);
        if (seen.try_emplace(t, seen.size()).second) fragments.push_back(t);
      }
    }
  }
  std::unordered_map<TourId, std::uint32_t> frag_index;
  for (std::uint32_t i = 0; i < fragments.size(); ++i)
    frag_index[fragments[i]] = i;

  // Merge per-fragment sketches (fan-in-s trees, O(1/phi) rounds) and
  // gather them all on one machine (Lemma 6.5).
  const std::uint64_t banks = sketches_.banks();
  const std::uint64_t levels_cap = banks;
  mpc::aggregate(cluster_, n_, 1, "connectivity/sketch-merge");
  mpc::gather_to_one(
      cluster_,
      fragments.size() * levels_cap *
          sketches_.params(0).nominal_words(),
      "connectivity/boruvka-gather");

  // The pre-cut trees, as fragments joined through the cut edges.
  const auto frag_of = [&](VertexId x) {
    return static_cast<VertexId>(frag_index.at(forest_.tour_of(x)));
  };
  Dsu trees(fragments.size());
  for (const Edge& e : cuts) trees.unite(frag_of(e.u), frag_of(e.v));

  // Local AGM/Boruvka over the fragments (§6.3, "Constructing F_H").
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  Dsu groups(fragments.size());
  std::vector<Edge> replacements;
  unsigned bank = 0;
  unsigned empty_streak = 0;
  while (bank < banks) {
    ++stats_.boruvka_levels;
    // Group the fragments: group id = first appearance of the DSU root in
    // fragment order (deterministic).
    root_group_.assign(fragments.size(), kNone);
    frag_group_.resize(fragments.size());
    group_size_.clear();
    group_tree_.clear();
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      const VertexId root = groups.find(static_cast<VertexId>(i));
      if (root_group_[root] == kNone) {
        root_group_[root] = static_cast<std::uint32_t>(group_size_.size());
        group_size_.push_back(0);
        group_tree_.push_back(trees.find(static_cast<VertexId>(i)));
      }
      frag_group_[i] = root_group_[root];
      group_size_[frag_group_[i]] += forest_.members_of(fragments[i]).size();
    }
    if (group_size_.size() <= 1) break;
    // Complement sampling: a pre-cut tree is a union of graph components,
    // so the summed sketch of its groups is zero and the largest group's
    // sketch is the negated sum of its siblings'.  Every group names its
    // tree's largest group (ties to the lowest id) as its complement; that
    // group gets no members of its own and sample_boundaries sums it from
    // its siblings — the level costs the small groups only.
    tree_largest_.assign(fragments.size(), kNone);
    for (std::uint32_t g = 0; g < group_size_.size(); ++g) {
      std::uint32_t& best = tree_largest_[group_tree_[g]];
      if (best == kNone || group_size_[g] > group_size_[best]) best = g;
    }
    group_complement_.resize(group_size_.size());
    for (std::uint32_t g = 0; g < group_size_.size(); ++g)
      group_complement_[g] = tree_largest_[group_tree_[g]];
    // Lay every other group's vertex list out as one CSR, so the level is
    // answered by a single top-down pass over the bank's arena.
    group_csr_.build(
        fragments.size(),
        [&](std::size_t i) { return frag_group_[i]; },
        [&](std::size_t i) {
          const std::uint32_t g = frag_group_[i];
          if (group_complement_[g] == g) return std::span<const VertexId>();
          const auto& members = forest_.members_of(fragments[i]);
          return std::span<const VertexId>(members.data(), members.size());
        });
    const auto samples = sketches_.sample_boundaries(
        bank, group_csr_.members(), group_csr_.offsets(), group_complement_,
        boundary_scratch_);

    bool any_edge = false;
    bool any_union = false;
    for (const auto& edge : samples) {
      if (!edge) continue;
      any_edge = true;
      // Both endpoints necessarily lie in fragments of the same original
      // component (total memory stores no inter-component edges).
      const auto ia = frag_index.find(forest_.tour_of(edge->u));
      const auto ib = frag_index.find(forest_.tour_of(edge->v));
      SMPC_CHECK_MSG(ia != frag_index.end() && ib != frag_index.end(),
                     "sampled replacement edge leaves the fragment set");
      if (groups.unite(static_cast<VertexId>(ia->second),
                       static_cast<VertexId>(ib->second))) {
        replacements.push_back(*edge);
        any_union = true;
      }
    }
    ++bank;
    if (!any_edge) {
      ++stats_.empty_levels;
      ++empty_streak;
      if (empty_streak >= config_.boruvka_patience) break;
    } else {
      empty_streak = 0;
      if (!any_union) break;  // every group sampled only intra-group? cannot
                              // happen; defensive stop
    }
  }
  stats_.max_banks_used = std::max<std::uint64_t>(stats_.max_banks_used, bank);
  stats_.replacements_found += replacements.size();

  // Re-join via the insertion machinery (§6.3's final step).
  forest_.batch_link(replacements);
  relabel_trees_of(touched);
}

void DynamicConnectivity::relabel_trees_of(const std::vector<VertexId>& touched) {
  // Recompute the min-vertex label of every tree containing a touched
  // vertex.  Every tree whose composition changed contains at least one
  // endpoint of the batch (replacement edges live in trees that also hold
  // cut endpoints), so this covers all label changes.  O(1) rounds: the
  // minima are tree aggregations, the labels a broadcast back.
  mpc::aggregate(cluster_, n_, 1, "connectivity/relabel");
  std::unordered_map<TourId, char> done;
  for (const VertexId x : touched) {
    const TourId t = forest_.tour_of(x);
    if (!done.try_emplace(t, 1).second) continue;
    const auto& members = forest_.tree_members(x);
    VertexId label = members.front();
    for (const VertexId v : members) label = std::min(label, v);
    for (const VertexId v : members) labels_[v] = label;
  }
}

void DynamicConnectivity::bootstrap(std::span<const Edge> edges) {
  SMPC_CHECK_MSG(stats_.batches == 0 && forest_.tree_edges().empty(),
                 "bootstrap requires a fresh structure");
  if (cluster_ != nullptr) {
    cluster_->begin_phase();
    // Static connectivity in O(log n) rounds [AGM12, NO21]: route the m
    // edges (a sort), then O(log n) Boruvka-style contraction rounds.
    std::uint64_t lg = 1;
    while ((1ULL << lg) < n_) ++lg;
    cluster_->add_rounds(cluster_->sort_rounds(edges.size()) + lg,
                         "connectivity/bootstrap");
  }
  // Sketches absorb every edge; the spanning forest comes from one local
  // static computation, installed with a single batch join.
  Dsu dsu(n_);
  std::vector<Edge> forest_edges;
  std::vector<VertexId> touched;
  delta_scratch_.clear();
  for (const Edge& e : edges) {
    delta_scratch_.push_back(EdgeDelta{e, +1});
    ++stats_.inserts;
    if (dsu.unite(e.u, e.v)) {
      forest_edges.push_back(e);
      touched.push_back(e.u);
    }
  }
  ingest_.submit(delta_scratch_, "connectivity/bootstrap");
  stats_.tree_inserts += forest_edges.size();
  repair_links_.insert(repair_links_.end(), forest_edges.begin(),
                       forest_edges.end());
  forest_.batch_link(forest_edges);
  relabel_trees_of(touched);
  publish_usage();
}

std::vector<bool> DynamicConnectivity::batch_query(
    std::span<const std::pair<VertexId, VertexId>> pairs) {
  if (cluster_ != nullptr) {
    cluster_->begin_phase();
    mpc::sort(cluster_, pairs.size(), "connectivity/query-batch");
    cluster_->note_object(2 * pairs.size(), "connectivity/query-batch");
  }
  std::vector<bool> out;
  out.reserve(pairs.size());
  for (const auto& [u, v] : pairs) out.push_back(same_component(u, v));
  return out;
}

QueryCache::SnapshotPtr DynamicConnectivity::snapshot() {
  // Flush-on-query: buffered deltas bump the mutation epoch as they merge,
  // so acquire/repair/publish must not race a pending drain's epoch bump.
  flush_ingest();
  const std::uint64_t epoch = sketches_.mutation_epoch();
  if (auto snap = query_cache_.acquire(epoch)) return snap;
  if (repairable_) {
    // Insert-only since the published snapshot: merge the accepted tree
    // edges into it locally — no forest walk, no relabel, no sketch reads.
    if (auto snap = query_cache_.repair(epoch, repair_links_)) {
      repair_links_.clear();
      return snap;
    }
  }
  auto snap = query_cache_.publish(epoch, labels_, spanning_forest());
  repair_links_.clear();
  repairable_ = true;
  return snap;
}

std::vector<std::vector<VertexId>> DynamicConnectivity::components() {
  mpc::sort(cluster_, n_, "connectivity/report-components");
  // Materialized from the snapshot's CSR, which is built once per mutation
  // epoch in the same deterministic first-appearance order this function
  // used to recompute (hash-map regroup) on every call.
  const auto snap = snapshot();
  std::vector<std::vector<VertexId>> out(snap->components());
  for (std::size_t g = 0; g < out.size(); ++g) {
    const auto members = snap->component(g);
    out[g].assign(members.begin(), members.end());
  }
  return out;
}

std::vector<Edge> DynamicConnectivity::spanning_forest() const {
  std::vector<Edge> out(forest_.tree_edges().begin(),
                        forest_.tree_edges().end());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t DynamicConnectivity::memory_words() const {
  return sketches_.allocated_words() + forest_.words() + n_;
}

void DynamicConnectivity::publish_usage() {
  if (cluster_ == nullptr) return;
  cluster_->set_usage(config_.ledger_prefix + "/sketches",
                      sketches_.allocated_words());
  cluster_->set_usage(config_.ledger_prefix + "/forest", forest_.words());
  cluster_->set_usage(config_.ledger_prefix + "/labels", n_);
}

}  // namespace streammpc
