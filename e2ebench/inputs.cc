#include "inputs.h"

#include <algorithm>

#include "graph/adjacency.h"
#include "graph/generators.h"

namespace e2ebench {

using streammpc::make_edge;
using streammpc::Update;
using streammpc::UpdateType;
using streammpc::mpc::ExecMode;
using streammpc::mpc::SplitPolicy;

const std::vector<Spec>& workloads() {
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> out;
    {
      // Delete-heavy uniform churn: Boruvka replacement search, Euler
      // cuts, and a snapshot rebuild after every batch.
      Spec s;
      s.name = "churn";
      s.shape = Spec::Shape::kChurn;
      s.n = 1 << 14;
      s.batch_size = 512;
      s.initial_edges = 4 * s.n;
      s.delete_fraction = 0.5;
      s.queries = 256;
      s.warmup_batches = 3;
      s.model_batches = 200;  // enough samples for p95
      out.push_back(s);
    }
    {
      // Insert-only power-law growth under the simulated executor with
      // the proportional scheduler: sketch ingest, the cell grid and the
      // probe do the work, and every snapshot after the first repairs.
      Spec s;
      s.name = "grow";
      s.shape = Spec::Shape::kGrow;
      s.n = 1 << 14;
      s.mode = ExecMode::kSimulated;
      s.policy = SplitPolicy::kProportional;
      s.batch_size = 256;
      s.pa_degree = 8;
      s.queries = 256;
      s.warmup_batches = 4;
      s.model_batches = 400;  // of the 508 after warm-up
      out.push_back(s);
    }
    {
      // Small batches through the async gutter, deletes confined to
      // periodic batches, batch_query() on every batch and a snapshot()
      // every few: the per-phase fixed cost and the submit/flush path.
      Spec s;
      s.name = "serve";
      s.shape = Spec::Shape::kServe;
      s.n = 1 << 14;
      s.async_ingest = true;
      s.drain_threads = 1;  // plus the writer and the ingest pool
      s.batch_size = 32;
      s.initial_edges = 4 * s.n;
      s.delete_every = 8;
      s.snapshot_every = 4;
      s.batch_query = true;
      s.queries = 1024;
      s.warmup_batches = 16;
      s.model_batches = 512;
      out.push_back(s);
    }
    {
      // Churn through DynamicApproxMatching: the AKLY sparsifiers and the
      // batch maximal matching, the only workload of the matching module.
      // Not gated in BENCHMARK.json: its timings, reads above all, swing
      // with memory interference from other tenants of a shared host.
      Spec s;
      s.name = "matching";
      s.front = Spec::Front::kMatching;
      s.shape = Spec::Shape::kChurn;
      s.n = 1 << 13;
      s.batch_size = 256;
      s.initial_edges = 4 * s.n;
      s.delete_fraction = 0.5;
      s.queries = 1;
      s.warmup_batches = 3;
      s.model_batches = 64;
      out.push_back(s);
    }
    return out;
  }();
  return specs;
}

const Spec* find_workload(const std::string& name) {
  for (const Spec& s : workloads())
    if (s.name == name) return &s;
  return nullptr;
}

void EdgePool::insert(Edge e) {
  index_[e] = live_.size();
  live_.push_back(e);
}

Edge EdgePool::remove_at(std::size_t i) {
  const Edge e = live_[i];
  live_[i] = live_.back();
  index_[live_[i]] = i;
  live_.pop_back();
  index_.erase(e);
  return e;
}

Stream::Stream(const Spec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed), query_rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  if (spec.shape == Spec::Shape::kGrow) {
    arrivals_ =
        streammpc::gen::preferential_attachment(spec.n, spec.pa_degree, rng_);
    streammpc::shuffle(arrivals_, rng_);
    return;
  }
  auto edges = streammpc::gen::gnm(spec.n, spec.initial_edges, rng_);
  if (spec.front == Spec::Front::kMatching) {
    // No bootstrap entry point: the initial graph arrives as insert
    // batches ahead of the churn.
    arrivals_ = std::move(edges);
    return;
  }
  initial_ = std::move(edges);
  for (const Edge& e : initial_) pool_.insert(e);
}

Edge Stream::fresh_edge() {
  for (;;) {
    const auto a = static_cast<VertexId>(rng_.below(spec_.n));
    auto b = static_cast<VertexId>(rng_.below(spec_.n - 1));
    if (b >= a) ++b;
    const Edge e = make_edge(a, b);
    if (!pool_.contains(e)) return e;
  }
}

Batch Stream::next() {
  Batch batch;
  const auto insert = [&](Edge e) {
    pool_.insert(e);
    batch.push_back(Update{UpdateType::kInsert, e, 1});
  };
  const auto erase_random = [&] {
    const Edge e = pool_.remove_at(rng_.below(pool_.size()));
    batch.push_back(Update{UpdateType::kDelete, e, 1});
  };
  if (next_arrival_ < arrivals_.size()) {
    const std::size_t end =
        std::min(arrivals_.size(), next_arrival_ + spec_.batch_size);
    for (; next_arrival_ < end; ++next_arrival_)
      insert(arrivals_[next_arrival_]);
    return batch;
  }
  if (spec_.shape == Spec::Shape::kGrow) return batch;  // exhausted

  ++batches_;
  // An edge deleted and re-inserted (or inserted and deleted) inside one
  // batch is an offsetting pair the library cancels; the pool tracks the
  // same net effect, so the oracle stays exact.
  if (spec_.shape == Spec::Shape::kServe) {
    // A delete batch removes as many edges as the insert batches since the
    // previous one added, so the graph stays near its initial size.
    if (batches_ % spec_.delete_every == 0) {
      for (std::size_t i = 0; i < (spec_.delete_every - 1) * spec_.batch_size;
           ++i)
        erase_random();
    } else {
      for (std::size_t i = 0; i < spec_.batch_size; ++i) insert(fresh_edge());
    }
    return batch;
  }
  for (std::size_t i = 0; i < spec_.batch_size; ++i) {
    if (pool_.size() > 0 && rng_.uniform01() < spec_.delete_fraction) {
      erase_random();
    } else {
      insert(fresh_edge());
    }
  }
  return batch;
}

std::vector<std::pair<VertexId, VertexId>> Stream::query_pairs(
    std::size_t count) {
  std::vector<std::pair<VertexId, VertexId>> pairs(count);
  for (auto& [u, v] : pairs) {
    u = static_cast<VertexId>(query_rng_.below(spec_.n));
    v = static_cast<VertexId>(query_rng_.below(spec_.n));
  }
  return pairs;
}

void ConnectivityOracle::rebuild(std::span<const Edge> live) {
  dsu_ = streammpc::Dsu(n_);
  for (const Edge& e : live) dsu_.unite(e.u, e.v);
}

void ConnectivityOracle::insert(Edge e) { dsu_.unite(e.u, e.v); }

std::vector<VertexId> ConnectivityOracle::labels() {
  std::vector<VertexId> min_of(n_, streammpc::kNoVertex);
  std::vector<VertexId> out(n_);
  for (VertexId v = 0; v < n_; ++v) {
    const VertexId r = dsu_.find(v);
    if (min_of[r] == streammpc::kNoVertex) min_of[r] = v;  // v ascending
    out[v] = min_of[r];
  }
  return out;
}

std::vector<VertexId> reference_labels(VertexId n, std::span<const Edge> live) {
  streammpc::AdjGraph g(n);
  for (const Edge& e : live) g.insert_edge(e.u, e.v);
  return streammpc::component_labels(g);
}

bool valid_matching(VertexId n, std::span<const Edge> matching,
                    const EdgePool& pool) {
  std::vector<char> used(n, 0);
  for (const Edge& e : matching) {
    if (e.u >= n || e.v >= n || !pool.contains(e)) return false;
    if (used[e.u] || used[e.v]) return false;
    used[e.u] = used[e.v] = 1;
  }
  return true;
}

}  // namespace e2ebench
