// E9 — ablation for §6.2: the batched Euler-tour operations are the paper's
// key mechanism for O(1)-round phases.
//
// Claim: joining (or splitting) k tree edges via the auxiliary-sequence
// batch operation costs O(1) rounds total, while performing the same k
// operations one at a time costs Theta(k) rounds — the gap the paper's
// batch machinery buys over [ILMP19]'s single-update Euler tours.  E9b
// also records the local wall clock of the split: the batch split walks
// each affected tour once, the sequential one once per edge.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "euler/tour_forest.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

void join_ablation() {
  bench::section("E9a: batch join vs k sequential joins (n = 2048)",
                 "batch = O(1) rounds; sequential = Theta(k) rounds");
  Table t({"k", "batch rounds", "sequential rounds", "speedup"});
  for (const std::size_t k : {4u, 16u, 64u, 256u, 1024u}) {
    Rng rng(9800 + k);
    const VertexId n = 2048;
    std::vector<Edge> links;
    {
      // A random forest of k edges.
      Dsu dsu(n);
      while (links.size() < k) {
        const VertexId u = static_cast<VertexId>(rng.below(n));
        const VertexId v = static_cast<VertexId>(rng.below(n));
        if (u == v) continue;
        if (dsu.unite(u, v)) links.push_back(make_edge(u, v));
      }
    }
    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;

    mpc::Cluster batched_cluster(mc);
    EulerTourForest batched(n, &batched_cluster);
    batched.batch_link(links);

    mpc::Cluster seq_cluster(mc);
    EulerTourForest sequential(n, &seq_cluster);
    sequential.sequential_link(links);

    t.add_row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(batched_cluster.rounds())
        .cell(seq_cluster.rounds())
        .cell(static_cast<double>(seq_cluster.rounds()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, batched_cluster.rounds())),
              1);
  }
  t.print(std::cout);
}

// Median wall clock of `cut` over fresh copies of `linked`, in ms.
template <typename Cut>
double median_cut_ms(const EulerTourForest& linked, const Cut& cut) {
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    EulerTourForest f = linked;
    bench::Timer timer;
    cut(f);
    ms.push_back(timer.seconds() * 1e3);
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

void split_ablation() {
  bench::section("E9b: batch split vs k sequential splits (n = 2048)",
                 "same shape for deletions");
  Table t({"k", "batch rounds", "sequential rounds", "speedup", "batch ms",
           "sequential ms", "time speedup"});
  for (const std::size_t k : {4u, 16u, 64u, 256u, 1024u}) {
    Rng rng(9900 + k);
    const VertexId n = 2048;
    const auto tree = gen::random_tree(n, rng);

    auto cuts = tree;
    shuffle(cuts, rng);
    cuts.resize(k);

    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;

    mpc::Cluster batched_cluster(mc);
    EulerTourForest batched(n, &batched_cluster);
    batched.batch_link(tree);
    const auto base_b = batched_cluster.rounds();
    batched.batch_cut(cuts);

    mpc::Cluster seq_cluster(mc);
    EulerTourForest sequential(n, &seq_cluster);
    sequential.batch_link(tree);
    const auto base_s = seq_cluster.rounds();
    sequential.sequential_cut(cuts);

    // Wall clock on an uncharged copy of the same tree.
    EulerTourForest linked(n);
    linked.batch_link(tree);
    const double batch_ms = median_cut_ms(
        linked, [&](EulerTourForest& f) { f.batch_cut(cuts); });
    const double seq_ms = median_cut_ms(
        linked, [&](EulerTourForest& f) { f.sequential_cut(cuts); });

    t.add_row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(batched_cluster.rounds() - base_b)
        .cell(seq_cluster.rounds() - base_s)
        .cell(static_cast<double>(seq_cluster.rounds() - base_s) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, batched_cluster.rounds() - base_b)),
              1)
        .cell(batch_ms, 3)
        .cell(seq_ms, 3)
        .cell(seq_ms / std::max(batch_ms, 1e-6), 1);
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace streammpc

int main() {
  std::cout << "E9 — Euler-tour batch operations ablation (§6.2)\n";
  streammpc::join_ablation();
  streammpc::split_ablation();
  return 0;
}
