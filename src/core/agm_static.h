// Direct MPC implementation of the Ahn–Guha–McGregor sketch algorithm
// (paper §4.1) — the baseline the paper's maintained-forest design is
// measured against (§2.1, bench E8).
//
// State: only the t = O(log n) independent sketch banks per vertex; no
// forest, no component ids.  Every update is a sketch update (O(1)
// rounds).  A spanning-forest query runs the AGM Boruvka procedure: level
// i merges the sketches of the current supernodes using bank i and samples
// one outgoing edge per supernode — O(log n) levels, hence O(log n) MPC
// rounds per query, versus O(1) for the paper's structure.
//
// Space is the same O(n log^3 n) as the maintained structure; the trade is
// purely update-versus-query rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/query_cache.h"
#include "graph/types.h"
#include "ingest/ingest_runtime.h"
#include "mpc/cluster.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class AgmStaticConnectivity {
 public:
  // `mode` selects how update batches execute against the cluster (flat /
  // routed-with-accounting / per-machine simulation); ignored when
  // `cluster` is null.  The simulated mode's batch scheduler follows the
  // SMPC_SCHED / SMPC_GROW env switches (SchedulerConfig's kAuto).
  // `async_ingest` opts into the async front door (ingest/gutter_ingest.h):
  // updates buffer in per-vertex-block gutters and drain through
  // worker-built delta sketches, flushed automatically before every query;
  // a default-constructed label becomes "agm/sketch-update" so ledger
  // charges land exactly where direct ingest puts them.
  AgmStaticConnectivity(
      VertexId n, const GraphSketchConfig& sketch,
      mpc::Cluster* cluster = nullptr,
      mpc::ExecMode mode = mpc::ExecMode::kRouted,
      const std::optional<GutterIngestConfig>& async_ingest = std::nullopt);

  VertexId n() const { return n_; }

  // O(1)-round updates: only the endpoint sketches change.  With a cluster
  // attached, the batch is routed per machine (Cluster::route_batch) and
  // its per-machine delta loads are charged on the cluster's CommLedger.
  void apply(const Update& update);
  void apply_batch(const Batch& batch);

  // Drains buffered updates (no-op when async ingest is off).  A throwing
  // flush poisons the repair state: the next snapshot() rebuilds.
  void flush_ingest();

  struct QueryResult {
    std::vector<Edge> forest;   // sampled spanning forest (sorted)
    std::size_t components = 0; // supernode count at termination
    unsigned levels = 0;        // Boruvka levels executed
    std::uint64_t rounds = 0;   // MPC rounds charged for this query
  };

  // Reconstructs a spanning forest from the sketches alone (§4.1's t
  // iterative steps).  Consumes one bank per level; correct w.h.p. when
  // banks >= ~2 log2 n.
  QueryResult query_spanning_forest();

  // Serve-heavy path (core/query_cache.h): the first query after a
  // mutation runs the Boruvka above ONCE and publishes labels + forest as
  // an immutable snapshot; point queries then cost one atomic load instead
  // of O(log n) Boruvka levels.  Insert-only runs since the last publish
  // are repaired with a local DSU pass over the buffered inserted edges
  // (capped at ~8n, beyond which a rebuild is cheaper than the buffer);
  // any deletion forces a rebuild.  Writer-side, like the updates.
  QueryCache::SnapshotPtr snapshot();
  // Point queries against the current snapshot (refreshing it if stale).
  bool connected(VertexId u, VertexId v) { return snapshot()->connected(u, v); }
  std::size_t num_components() { return snapshot()->components(); }
  QueryCache& query_cache() { return query_cache_; }
  const QueryCache& query_cache() const { return query_cache_; }

  std::uint64_t memory_words() const { return sketches_.allocated_words(); }
  const VertexSketches& sketches() const { return sketches_; }
  // The ingest runtime's pieces (see IngestRuntime).
  const mpc::Simulator* simulator() const { return ingest_.simulator(); }
  const mpc::BatchScheduler* scheduler() const { return ingest_.scheduler(); }
  const GutterIngest* gutter() const { return ingest_.gutter(); }

 private:
  // Folds one update into the repair buffer / repairability flag.  Called
  // only AFTER the update's delta was accepted for delivery: a rejected
  // update must never leave a phantom edge in the repair buffer.
  void note_update(const Update& update);
  // Throw path: repair bookkeeping can no longer describe the resident
  // sketches; force the next snapshot() to rebuild.
  void poison_repair();

  VertexId n_;
  mpc::Cluster* cluster_;
  VertexSketches sketches_;
  // Declared after the sketches: its destructor's gutter flush delivers
  // into them.
  IngestRuntime ingest_;
  std::vector<EdgeDelta> delta_scratch_;  // reused batch-ingest buffer
  // Reused buffers for the top-down Boruvka queries.
  GroupCsr group_csr_;
  BoundaryScratch boundary_scratch_;
  // Serve-heavy query cache: edges inserted since the last published
  // snapshot (repairable while no delete intervened and the buffer stays
  // under its cap — this structure keeps no forest, so EVERY insert is a
  // candidate repair edge, unlike DynamicConnectivity's accepted links).
  QueryCache query_cache_;
  std::vector<Edge> pending_inserts_;
  bool repairable_ = true;
};

}  // namespace streammpc
