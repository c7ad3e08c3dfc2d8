// The paper's §4 *sequential streaming* connectivity algorithm
// (Algorithms 1–4) — the single-machine counterpart of the MPC structure,
// and the algorithm Section 5 then implements in MPC.
//
// State (§4.2): component ids C[v] (minimum vertex id of the component),
// an explicit spanning forest F, and a linear AGM sketch per vertex.
//
//   Insert {u,v} (Algorithm 2): update the endpoint sketches; if the
//   components differ, add {u,v} to F and relabel the losing side.
//
//   Delete {u,v} (Algorithm 3): update the endpoint sketches; if {u,v} is
//   a tree edge, split F into Z_u and Z_v, merge the sketches of Z_u, and
//   query for a replacement edge across the cut (Observation 4.3); rejoin
//   or relabel.
//
//   Query (Algorithm 4): report the maintained forest — O(1) time.
//
// Update time is ~O(n) (the paper's trade-off against AGM's polylog
// updates: AGM pays O(log n) rounds at query time, this structure none),
// space is O(n log^3 n) bits.  Correctness is w.h.p. against an oblivious
// adversary for poly(n)-length streams.
//
// The class keeps t >= 1 independent sketch banks and rotates the bank
// used per deletion so repeated deletions do not re-query the same
// randomness (the single-sketch variant of the paper corresponds to
// banks = 1; §6.3 upgrades to t = O(log n), which is the default here).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/query_cache.h"
#include "graph/types.h"
#include "ingest/ingest_runtime.h"
#include "mpc/cluster.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class StreamingConnectivity {
 public:
  // With a non-null `cluster`, every sketch-delta flush is routed through
  // mpc::Cluster::route_batch and charged per machine on the cluster's
  // CommLedger (the §5 view of the §4 algorithm); with nullptr the
  // structure runs unaccounted, single-machine.  Routing never changes the
  // sketch state, so results are identical either way.  `mode` selects how
  // buffered delta flushes execute against the cluster (flat / routed /
  // machine-by-machine simulation); ignored when `cluster` is null.  The
  // simulated mode's batch scheduler follows the SMPC_SCHED / SMPC_GROW
  // env switches (SchedulerConfig's kAuto).  `async_ingest` opts into the
  // async front door (ingest/gutter_ingest.h): sketch deltas buffer in
  // per-vertex-block gutters and drain through worker-built delta
  // sketches, flushed automatically before every sketch read (cut
  // queries, snapshot()); forest/label bookkeeping never reads the
  // sketches between flushes.  A default-constructed label becomes
  // "streaming/sketch-update" so ledger charges land exactly where direct
  // ingest puts them.
  explicit StreamingConnectivity(
      VertexId n, GraphSketchConfig sketch = {},
      mpc::Cluster* cluster = nullptr,
      mpc::ExecMode mode = mpc::ExecMode::kRouted,
      const std::optional<GutterIngestConfig>& async_ingest = std::nullopt);

  VertexId n() const { return n_; }

  // Single-update stream interface (Algorithm 1's dispatch).
  void insert(VertexId u, VertexId v);
  void erase(VertexId u, VertexId v);
  void apply(const Update& update);

  // Applies a whole stream segment.  Equivalent to apply() in order, but
  // sketch deltas are buffered and flushed through the batched bank-
  // parallel ingest path; the buffer is flushed before every tree-edge
  // deletion so each cut query sees exactly the prefix it would have seen
  // under single-update processing.
  //
  // Preconditions: endpoints < n(); deletions only of edges whose endpoints
  // are currently connected (a valid stream).  Not thread-safe against
  // concurrent mutation or queries.  Deterministic: for a fixed sketch
  // seed, the resulting forest/labels are identical to per-update apply()
  // processing, with or without an attached cluster.
  void apply_stream(std::span<const Update> updates);

  // Drains buffered deltas (no-op when async ingest is off).  A throwing
  // flush poisons the repair state: the next snapshot() rebuilds.
  void flush_ingest();

  // --- queries ---------------------------------------------------------------
  VertexId component_of(VertexId v) const { return labels_[v]; }
  bool same_component(VertexId u, VertexId v) const {
    return labels_[u] == labels_[v];
  }
  std::size_t num_components() const { return components_; }
  const std::vector<VertexId>& labels() const { return labels_; }
  std::vector<Edge> spanning_forest() const;  // sorted
  bool is_tree_edge(Edge e) const;

  // Serve-heavy path (core/query_cache.h): immutable snapshot of
  // labels/forest/components for lock-free concurrent readers, repaired
  // from the tree edges accepted since the last publish after insert-only
  // runs, rebuilt after any deletion.  Writer-side, like the updates.
  QueryCache::SnapshotPtr snapshot();
  QueryCache& query_cache() { return query_cache_; }
  const QueryCache& query_cache() const { return query_cache_; }

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t tree_deletes = 0;
    std::uint64_t replacements_found = 0;
    std::uint64_t splits = 0;  // deletions that disconnected a component
  };
  const Stats& stats() const { return stats_; }

  std::uint64_t memory_words() const;

  const VertexSketches& sketches() const { return sketches_; }
  // The ingest runtime's pieces (see IngestRuntime).
  const mpc::Simulator* simulator() const { return ingest_.simulator(); }
  const mpc::BatchScheduler* scheduler() const { return ingest_.scheduler(); }
  const GutterIngest* gutter() const { return ingest_.gutter(); }

 private:
  // Collects the vertices of u's tree in F via BFS (the Z_u of §4.2).
  std::vector<VertexId> collect_tree(VertexId u) const;
  void relabel(const std::vector<VertexId>& vertices, VertexId label);
  // Forest-only halves of insert/erase, shared by the single-update and
  // buffered-stream paths (the sketch delta is applied separately).
  void insert_forest(VertexId u, VertexId v);
  void erase_forest(VertexId u, VertexId v);

  VertexId n_;
  mpc::Cluster* cluster_;
  VertexSketches sketches_;
  // Declared after the sketches: its destructor's gutter flush delivers
  // into them.
  IngestRuntime ingest_;
  std::vector<std::set<VertexId>> forest_adj_;
  std::vector<VertexId> labels_;
  std::size_t components_;
  std::size_t forest_edges_ = 0;
  unsigned next_bank_ = 0;
  BoundaryScratch cut_query_scratch_;  // reused cut-query buffers
  // Serve-heavy query cache: tree edges accepted since the last published
  // snapshot, repairable while no delete intervened.
  QueryCache query_cache_;
  std::vector<Edge> repair_links_;
  bool repairable_ = true;
  Stats stats_;
};

}  // namespace streammpc
