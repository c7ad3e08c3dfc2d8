#include "core/agm_static.h"

#include <algorithm>

#include "common/check.h"
#include "graph/reference.h"
#include "mpc/primitives.h"

namespace streammpc {

AgmStaticConnectivity::AgmStaticConnectivity(
    VertexId n, const GraphSketchConfig& sketch, mpc::Cluster* cluster,
    mpc::ExecMode mode, const std::optional<GutterIngestConfig>& async_ingest)
    : n_(n),
      cluster_(cluster),
      sketches_(n, sketch),
      ingest_(n, cluster, IngestConfig::of(mode, async_ingest), &sketches_,
              "agm/sketch-update") {}

void AgmStaticConnectivity::flush_ingest() {
  try {
    ingest_.flush();
  } catch (...) {
    poison_repair();
    throw;
  }
}

void AgmStaticConnectivity::poison_repair() {
  repairable_ = false;
  pending_inserts_.clear();
  query_cache_.invalidate();
}

void AgmStaticConnectivity::note_update(const Update& update) {
  if (update.type != UpdateType::kInsert) {
    // A deletion may split a component; only a fresh Boruvka can see the
    // split (the repair-vs-rebuild rule, core/query_cache.h).
    repairable_ = false;
    pending_inserts_.clear();
    query_cache_.invalidate();
    return;
  }
  if (!repairable_) return;
  // Past this the buffer rivals the sketches themselves — rebuilding is
  // cheaper than repairing, and memory stays O(n).
  if (pending_inserts_.size() >= 8 * static_cast<std::size_t>(n_) + 64) {
    repairable_ = false;
    pending_inserts_.clear();
    return;
  }
  pending_inserts_.push_back(update.e);
}

void AgmStaticConnectivity::apply(const Update& update) {
  delta_scratch_.assign(
      1, EdgeDelta{update.e, update.type == UpdateType::kInsert ? +1 : -1});
  // Ingest FIRST: a rejected delta (bad edge, strict budget refusal) must
  // not leave a phantom edge in the repair buffer — a later repair would
  // then disagree with a rebuild from the actual resident sketches.
  try {
    ingest_.submit(delta_scratch_);
  } catch (...) {
    poison_repair();
    throw;
  }
  note_update(update);
}

void AgmStaticConnectivity::apply_batch(const Batch& batch) {
  if (cluster_ != nullptr) cluster_->begin_phase();
  delta_scratch_.clear();
  for (const Update& u : batch)
    delta_scratch_.push_back(
        EdgeDelta{u.e, u.type == UpdateType::kInsert ? +1 : -1});
  // Same ingest-before-note ordering as apply(): a throw mid-batch leaves
  // an unknowable subset of the deltas resident, so poison instead of
  // guessing which of the batch's edges are repair-safe.
  try {
    ingest_.submit(delta_scratch_);
  } catch (...) {
    poison_repair();
    throw;
  }
  for (const Update& u : batch) note_update(u);
  if (cluster_ != nullptr)
    cluster_->set_usage("agm/sketches", sketches_.allocated_words());
}

AgmStaticConnectivity::QueryResult
AgmStaticConnectivity::query_spanning_forest() {
  // Flush-on-query: the Boruvka below reads the resident sketches.
  flush_ingest();
  const std::uint64_t rounds_before =
      cluster_ != nullptr ? cluster_->rounds() : 0;
  QueryResult result;
  Dsu dsu(n_);
  std::vector<VertexId> vertex_ids(n_);
  for (VertexId v = 0; v < n_; ++v) vertex_ids[v] = v;
  unsigned level = 0;
  for (; level < sketches_.banks(); ++level) {
    // One Boruvka level: merge each supernode's sketches (bank `level`)
    // and sample one outgoing edge per supernode.
    if (cluster_ != nullptr) {
      cluster_->add_rounds(cluster_->aggregate_rounds(n_) + 1,
                           "agm/query-level");
      cluster_->charge_comm(n_);
    }
    // Supernode CSR (group id = first appearance of the DSU root in vertex
    // order — deterministic); one top-down arena pass answers every
    // supernode's boundary query together.
    group_csr_.build(
        n_, [&](std::size_t v) { return dsu.find(static_cast<VertexId>(v)); },
        [&](std::size_t v) {
          return std::span<const VertexId>(&vertex_ids[v], 1);
        });
    const auto samples =
        sketches_.sample_boundaries(level, group_csr_.members(),
                                    group_csr_.offsets(), {},
                                    boundary_scratch_);
    bool progress = false;
    for (const auto& e : samples) {
      if (e && dsu.unite(e->u, e->v)) {
        result.forest.push_back(*e);
        progress = true;
      }
    }
    if (!progress) break;
  }
  std::sort(result.forest.begin(), result.forest.end());
  result.components = dsu.num_sets();
  result.levels = level + 1;
  result.rounds =
      cluster_ != nullptr ? cluster_->rounds() - rounds_before : 0;
  return result;
}

QueryCache::SnapshotPtr AgmStaticConnectivity::snapshot() {
  // Flush-on-query: pending drains bump the mutation epoch as they merge,
  // so the epoch must be settled before acquire/repair/publish read it.
  flush_ingest();
  const std::uint64_t epoch = sketches_.mutation_epoch();
  if (auto snap = query_cache_.acquire(epoch)) return snap;
  if (repairable_) {
    // Insert-only since the published snapshot: every buffered edge either
    // merges two cached components (entering the forest) or is swallowed —
    // no Boruvka, no sketch reads.
    if (auto snap = query_cache_.repair(epoch, pending_inserts_)) {
      pending_inserts_.clear();
      return snap;
    }
  }
  // Rebuild: one fresh Boruvka, then canonical min-vertex labels from its
  // forest (ascending-v scan, so the first vertex reaching each DSU root
  // is the component minimum).
  QueryResult fresh = query_spanning_forest();
  Dsu dsu(n_);
  for (const Edge& e : fresh.forest) dsu.unite(e.u, e.v);
  std::vector<VertexId> min_of_root(n_, kNoVertex);
  std::vector<VertexId> labels(n_);
  for (VertexId v = 0; v < n_; ++v) {
    VertexId& m = min_of_root[dsu.find(v)];
    if (m == kNoVertex) m = v;
    labels[v] = m;
  }
  auto snap = query_cache_.publish(epoch, std::move(labels),
                                   std::move(fresh.forest));
  pending_inserts_.clear();
  repairable_ = true;
  return snap;
}

}  // namespace streammpc
