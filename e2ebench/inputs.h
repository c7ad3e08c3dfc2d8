// Workload definitions, the seeded update streams they feed, and the
// oracle every answer is checked against.  Everything here runs outside
// the timed regions: the program under test only ever sees the batches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/reference.h"
#include "graph/types.h"
#include "mpc/config.h"

namespace e2ebench {

using streammpc::Batch;
using streammpc::Edge;
using streammpc::VertexId;

struct Spec {
  enum class Front { kConnectivity, kMatching };
  enum class Shape { kChurn, kGrow, kServe };

  std::string name;
  Front front = Front::kConnectivity;
  Shape shape = Shape::kChurn;
  VertexId n = 1 << 14;
  streammpc::mpc::ExecMode mode = streammpc::mpc::ExecMode::kRouted;
  // kProportional on `grow`; the library default elsewhere.
  streammpc::mpc::SplitPolicy policy = streammpc::mpc::SplitPolicy::kAuto;
  bool async_ingest = false;
  unsigned drain_threads = 0;  // 0 = library default
  std::size_t batch_size = 512;
  std::size_t initial_edges = 0;  // bootstrap graph (matching: warm-up inserts)
  unsigned pa_degree = 0;         // grow: preferential-attachment k
  double delete_fraction = 0;     // churn: share of deletes per batch
  unsigned delete_every = 0;      // serve: every k-th batch deletes only
  unsigned snapshot_every = 1;    // read rounds that call snapshot()
  bool batch_query = false;       // serve: batch_query() on every batch
  std::size_t queries = 0;        // point queries per read round
  unsigned warmup_batches = 0;    // untimed batches counted into setup
  std::size_t model_batches = 0;  // fixed prefix the model counts cover;
                                  // also the minimum measured batches
};

// All workloads, in the order the docs list them.
const std::vector<Spec>& workloads();
const Spec* find_workload(const std::string& name);

// The live edge set with O(1) uniform removal.
class EdgePool {
 public:
  bool contains(Edge e) const { return index_.count(e) > 0; }
  void insert(Edge e);
  Edge remove_at(std::size_t i);
  std::size_t size() const { return live_.size(); }
  const std::vector<Edge>& live() const { return live_; }

 private:
  std::vector<Edge> live_;
  std::unordered_map<Edge, std::size_t, streammpc::EdgeHash> index_;
};

// The seeded update stream of one workload.  The same (spec, seed) always
// yields the same initial graph and the same batch sequence.
class Stream {
 public:
  Stream(const Spec& spec, std::uint64_t seed);

  // Edges handed to bootstrap() (empty for workloads without one).
  const std::vector<Edge>& initial() const { return initial_; }
  // The next batch; empty once a finite stream (grow) is exhausted.
  Batch next();
  // Ground truth after every batch returned so far.
  const EdgePool& pool() const { return pool_; }
  // `count` uniformly random vertex pairs for a read round.
  std::vector<std::pair<VertexId, VertexId>> query_pairs(std::size_t count);

 private:
  Edge fresh_edge();

  const Spec& spec_;
  streammpc::Rng rng_;
  streammpc::Rng query_rng_;
  std::vector<Edge> initial_;
  // Insert-only prefix of the stream: grow's shuffled power-law edges, or
  // matching's initial graph.
  std::vector<Edge> arrivals_;
  std::size_t next_arrival_ = 0;
  std::uint64_t batches_ = 0;
  EdgePool pool_;
};

// Connectivity ground truth: a graph/reference.h Dsu over the live edges,
// rebuilt after any batch with deletions and extended by plain unions
// otherwise.
class ConnectivityOracle {
 public:
  explicit ConnectivityOracle(VertexId n) : n_(n), dsu_(n) {}
  void rebuild(std::span<const Edge> live);
  void insert(Edge e);
  bool connected(VertexId u, VertexId v) { return dsu_.same(u, v); }
  // Canonical min-vertex labels (the library's component ids).
  std::vector<VertexId> labels();

 private:
  VertexId n_;
  streammpc::Dsu dsu_;
};

// Min-vertex labels of `live` by BFS (graph/reference.h component_labels).
std::vector<VertexId> reference_labels(VertexId n, std::span<const Edge> live);

// True iff `matching` is vertex-disjoint and every edge is live.
bool valid_matching(VertexId n, std::span<const Edge> matching,
                    const EdgePool& pool);

}  // namespace e2ebench
