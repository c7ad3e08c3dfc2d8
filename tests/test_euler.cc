// Tests for the Euler-tour forest: single operations (Lemma 5.1),
// Identify-Path (Lemma 7.2), batch join/split (§6.2–6.3), randomized fuzz
// against a reference forest, and MPC round accounting (batch ops are O(1)
// rounds; sequential ops are Theta(k)).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "common/random.h"
#include "euler/tour_forest.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

// Reference path via BFS over an adjacency copy of the forest.
std::vector<Edge> bfs_path(const AdjGraph& forest, VertexId u, VertexId v) {
  std::vector<VertexId> parent(forest.n(), kNoVertex);
  std::queue<VertexId> q;
  q.push(u);
  parent[u] = u;
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    if (x == v) break;
    for (const auto& [y, w] : forest.neighbors(x)) {
      if (parent[y] == kNoVertex) {
        parent[y] = x;
        q.push(y);
      }
    }
  }
  std::vector<Edge> path;
  for (VertexId x = v; x != u; x = parent[x]) path.push_back(make_edge(parent[x], x));
  std::sort(path.begin(), path.end());
  return path;
}

// Byte-exact forest comparison: per vertex, the tour id, the tour
// sequence, f/l and the member list, plus the tree-edge set.
void expect_same_forest(const EulerTourForest& a, const EulerTourForest& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.num_trees(), b.num_trees());
  EXPECT_EQ(a.tree_edges(), b.tree_edges());
  for (VertexId v = 0; v < a.n(); ++v) {
    EXPECT_EQ(a.tour_of(v), b.tour_of(v)) << "vertex " << v;
    EXPECT_EQ(a.tour_sequence(v), b.tour_sequence(v)) << "vertex " << v;
    EXPECT_EQ(a.first_pos(v), b.first_pos(v)) << "vertex " << v;
    EXPECT_EQ(a.last_pos(v), b.last_pos(v)) << "vertex " << v;
    EXPECT_EQ(a.tree_members(v), b.tree_members(v)) << "vertex " << v;
  }
}

// Runs `cuts` through batch_cut on one copy of `f` and sequential_cut on
// another and expects byte-identical results.
void expect_batch_cut_matches_sequential(const EulerTourForest& f,
                                         const std::vector<Edge>& cuts) {
  EulerTourForest batched = f;
  EulerTourForest sequential = f;
  batched.batch_cut(cuts);
  sequential.sequential_cut(cuts);
  batched.validate();
  expect_same_forest(batched, sequential);
}

TEST(EulerTour, InitialStateIsSingletons) {
  EulerTourForest f(5);
  f.validate();
  EXPECT_EQ(f.num_trees(), 5u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(f.tree_size(v), 1u);
    EXPECT_TRUE(f.tour_sequence(v).empty());
  }
  EXPECT_FALSE(f.same_tree(0, 1));
}

TEST(EulerTour, LinkTwoSingletons) {
  EulerTourForest f(4);
  f.link(0, 1);
  f.validate();
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_EQ(f.num_trees(), 3u);
  EXPECT_EQ(f.tour_sequence(0).size(), 4u);  // 4(|T|-1)
  EXPECT_TRUE(f.is_tree_edge(make_edge(0, 1)));
}

TEST(EulerTour, TourLengthInvariant) {
  EulerTourForest f(8);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  f.link(1, 4);
  f.validate();
  EXPECT_EQ(f.tour_sequence(0).size(), 4u * 4u);
  // Each vertex occurs 2*deg times.
  const auto& tour = f.tour_sequence(0);
  std::map<VertexId, int> occurrences;
  for (VertexId x : tour) ++occurrences[x];
  EXPECT_EQ(occurrences[1], 6);  // degree 3
  EXPECT_EQ(occurrences[0], 2);
  EXPECT_EQ(occurrences[3], 2);
}

TEST(EulerTour, MakeRootRotates) {
  EulerTourForest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  for (VertexId v = 0; v < 4; ++v) {
    f.make_root(v);
    f.validate();
    EXPECT_EQ(f.tour_sequence(v).front(), v);
    EXPECT_EQ(f.tour_sequence(v).back(), v);
  }
}

TEST(EulerTour, CutSplitsCorrectly) {
  EulerTourForest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  f.link(3, 4);
  f.cut(2, 3);
  f.validate();
  EXPECT_EQ(f.num_trees(), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_TRUE(f.same_tree(0, 2));
  EXPECT_TRUE(f.same_tree(3, 4));
  EXPECT_FALSE(f.same_tree(2, 3));
  EXPECT_FALSE(f.is_tree_edge(make_edge(2, 3)));
}

TEST(EulerTour, CutToSingletons) {
  EulerTourForest f(2);
  f.link(0, 1);
  f.cut(0, 1);
  f.validate();
  EXPECT_EQ(f.num_trees(), 2u);
  EXPECT_TRUE(f.tour_sequence(0).empty());
  EXPECT_TRUE(f.tour_sequence(1).empty());
}

TEST(EulerTour, CutNonTreeEdgeThrows) {
  EulerTourForest f(4);
  f.link(0, 1);
  EXPECT_THROW(f.cut(0, 2), CheckError);
}

TEST(EulerTour, LinkSameTreeThrows) {
  EulerTourForest f(4);
  f.link(0, 1);
  f.link(1, 2);
  EXPECT_THROW(f.link(0, 2), CheckError);
}

TEST(EulerTour, IdentifyPathOnPathGraph) {
  EulerTourForest f(8);
  for (VertexId i = 0; i + 1 < 8; ++i) f.link(i, i + 1);
  auto path = f.identify_path(1, 5);
  std::sort(path.begin(), path.end());
  const std::vector<Edge> expect{{1, 2}, {2, 3}, {3, 4}, {4, 5}};
  EXPECT_EQ(path, expect);
  EXPECT_TRUE(f.identify_path(3, 3).empty());
  f.validate();
}

TEST(EulerTour, IdentifyPathAgainstBfsFuzz) {
  Rng rng(500);
  const VertexId n = 60;
  EulerTourForest f(n);
  AdjGraph ref(n);
  for (const Edge& e : gen::random_tree(n, rng)) {
    f.link(e.u, e.v);
    ref.insert_edge(e.u, e.v);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    const VertexId v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    auto path = f.identify_path(u, v);
    std::sort(path.begin(), path.end());
    EXPECT_EQ(path, bfs_path(ref, u, v));
  }
  f.validate();
}

TEST(EulerTour, BatchLinkSimpleChain) {
  EulerTourForest f(6);
  const std::vector<Edge> links{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 1u);
  EXPECT_EQ(f.tour_sequence(0).size(), 4u * 5u);
}

TEST(EulerTour, BatchLinkStar) {
  EulerTourForest f(9);
  std::vector<Edge> links;
  for (VertexId i = 1; i < 9; ++i) links.push_back(make_edge(0, i));
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 1u);
}

TEST(EulerTour, BatchLinkMergesExistingTrees) {
  EulerTourForest f(12);
  // Three existing paths: 0-1-2, 3-4-5, 6-7-8; vertices 9..11 singletons.
  f.link(0, 1);
  f.link(1, 2);
  f.link(3, 4);
  f.link(4, 5);
  f.link(6, 7);
  f.link(7, 8);
  // Join them through internal vertices plus a singleton.
  const std::vector<Edge> links{make_edge(1, 4), make_edge(4, 7),
                                make_edge(8, 9)};
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 3u);  // big tree + {10} + {11}
  EXPECT_TRUE(f.same_tree(0, 9));
  EXPECT_EQ(f.tree_size(0), 10u);
}

TEST(EulerTour, BatchLinkCycleThrows) {
  EulerTourForest f(4);
  const std::vector<Edge> links{{0, 1}, {1, 2}, make_edge(0, 2)};
  EXPECT_THROW(f.batch_link(links), CheckError);
}

TEST(EulerTour, BatchLinkMultipleComponents) {
  EulerTourForest f(10);
  const std::vector<Edge> links{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}};
  f.batch_link(links);
  f.validate();
  // Components: {0,1,2}, {3,4}, {5,6,7}, {8}, {9}.
  EXPECT_EQ(f.num_trees(), 5u);
  EXPECT_TRUE(f.same_tree(5, 7));
  EXPECT_FALSE(f.same_tree(2, 3));
}

TEST(EulerTour, BatchCutShattersTree) {
  EulerTourForest f(8);
  for (VertexId i = 0; i + 1 < 8; ++i) f.link(i, i + 1);
  const std::vector<Edge> cuts{{1, 2}, {4, 5}, {6, 7}};
  f.batch_cut(cuts);
  f.validate();
  EXPECT_EQ(f.num_trees(), 4u);
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_TRUE(f.same_tree(2, 4));
  EXPECT_TRUE(f.same_tree(5, 6));
  EXPECT_FALSE(f.same_tree(1, 2));
}

TEST(EulerTour, BatchEqualsSequentialFuzz) {
  // Random batched links/cuts must leave exactly the forest that performing
  // them one at a time leaves: same tours, tour ids, f/l and members.
  Rng rng(501);
  for (int trial = 0; trial < 300; ++trial) {
    const VertexId n = 40;
    EulerTourForest batched(n), sequential(n);
    Dsu dsu(n);
    // Build a random forest in 3 batched waves.
    for (int wave = 0; wave < 3; ++wave) {
      std::vector<Edge> links;
      for (int i = 0; i < 10; ++i) {
        const VertexId u = static_cast<VertexId>(rng.below(n));
        const VertexId v = static_cast<VertexId>(rng.below(n));
        if (u == v) continue;
        if (dsu.unite(u, v)) links.push_back(make_edge(u, v));
      }
      batched.batch_link(links);
      sequential.sequential_link(links);
      batched.validate();
      sequential.validate();
      for (VertexId u = 0; u < n; ++u) {
        EXPECT_EQ(batched.same_tree(u, 0), sequential.same_tree(u, 0));
      }
    }
    // Re-root a few trees, then cut a random subset of tree edges in one
    // batch, in shuffled order.
    for (int i = 0; i < 3; ++i)
      batched.make_root(static_cast<VertexId>(rng.below(n)));
    std::vector<Edge> all_edges(batched.tree_edges().begin(),
                                batched.tree_edges().end());
    std::sort(all_edges.begin(), all_edges.end());
    std::vector<Edge> cuts;
    for (const Edge& e : all_edges) {
      if (rng.chance(0.4)) cuts.push_back(e);
    }
    shuffle(cuts, rng);
    expect_batch_cut_matches_sequential(batched, cuts);
  }
}

TEST(EulerTour, BatchCutMatchesSequentialOnReRootedTrees) {
  Rng rng(504);
  const VertexId n = 30;
  EulerTourForest f(n);
  for (const Edge& e : gen::random_tree(n, rng)) f.link(e.u, e.v);
  std::vector<Edge> edges(f.tree_edges().begin(), f.tree_edges().end());
  std::sort(edges.begin(), edges.end());
  for (VertexId root = 0; root < n; root += 7) {
    f.make_root(root);
    const std::vector<Edge> cuts{edges[root % edges.size()],
                                 edges[(root * 3 + 5) % edges.size()]};
    if (cuts[0] == cuts[1]) continue;
    expect_batch_cut_matches_sequential(f, cuts);
  }
}

TEST(EulerTour, BatchCutMatchesSequentialOnNestedCuts) {
  // A parent edge and a child edge in one batch, in both orders, plus a
  // cut that leaves the root a singleton.
  EulerTourForest f(8);
  for (VertexId i = 0; i + 1 < 6; ++i) f.link(i, i + 1);
  f.link(2, 6);
  f.link(6, 7);
  expect_batch_cut_matches_sequential(f, {make_edge(1, 2), make_edge(2, 3)});
  expect_batch_cut_matches_sequential(f, {make_edge(2, 3), make_edge(1, 2)});
  expect_batch_cut_matches_sequential(
      f, {make_edge(6, 7), make_edge(0, 1), make_edge(2, 6), make_edge(4, 5)});
}

TEST(EulerTour, BatchCutMatchesSequentialAcrossTrees) {
  Rng rng(505);
  const VertexId n = 48;
  EulerTourForest f(n);
  // Three trees over disjoint vertex ranges, linked in random order.
  for (VertexId base : {VertexId{0}, VertexId{16}, VertexId{32}}) {
    for (const Edge& e : gen::random_tree(16, rng))
      f.link(base + e.u, base + e.v);
  }
  std::vector<Edge> edges(f.tree_edges().begin(), f.tree_edges().end());
  std::sort(edges.begin(), edges.end());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Edge> cuts;
    for (const Edge& e : edges)
      if (rng.chance(0.3)) cuts.push_back(e);
    shuffle(cuts, rng);
    expect_batch_cut_matches_sequential(f, cuts);
  }
}

TEST(EulerTour, BatchCutRejectsInvalidBatchWithoutMutation) {
  mpc::MpcConfig cfg;
  cfg.n = 8;
  mpc::Cluster cluster(cfg);
  EulerTourForest f(8, &cluster);
  for (VertexId i = 0; i + 1 < 6; ++i) f.link(i, i + 1);
  const EulerTourForest before = f;
  const auto rounds = cluster.rounds();
  // Non-tree edge after a valid one.
  const std::vector<Edge> non_tree{make_edge(1, 2), make_edge(0, 7)};
  EXPECT_THROW(f.batch_cut(non_tree), CheckError);
  expect_same_forest(f, before);
  // Repeated edge, the second time in reversed orientation.
  const std::vector<Edge> repeated{make_edge(3, 4), make_edge(1, 2),
                                   Edge{4, 3}};
  EXPECT_THROW(f.batch_cut(repeated), CheckError);
  expect_same_forest(f, before);
  EXPECT_EQ(cluster.rounds(), rounds);
  f.validate();
}

TEST(EulerTour, RandomOpFuzzAgainstReference) {
  Rng rng(502);
  const VertexId n = 32;
  EulerTourForest f(n);
  AdjGraph ref(n);
  Dsu* dsu = nullptr;  // rebuilt per query batch
  for (int step = 0; step < 400; ++step) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    const VertexId v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    const bool connected = f.same_tree(u, v);
    if (!connected) {
      f.link(u, v);
      ref.insert_edge(u, v);
    } else if (f.is_tree_edge(make_edge(u, v)) && rng.chance(0.7)) {
      f.cut(u, v);
      ref.erase_edge(u, v);
    } else {
      f.make_root(u);
    }
    if (step % 50 == 0) f.validate();
  }
  f.validate();
  // Final partition must agree with the reference graph's components.
  const auto labels = component_labels(ref);
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b)
      EXPECT_EQ(f.same_tree(a, b), labels[a] == labels[b]);
  (void)dsu;
}

TEST(EulerTour, BatchIdentifyPaths) {
  Rng rng(503);
  const VertexId n = 40;
  EulerTourForest f(n);
  AdjGraph ref(n);
  for (const Edge& e : gen::random_tree(n, rng)) {
    f.link(e.u, e.v);
    ref.insert_edge(e.u, e.v);
  }
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 12; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    pairs.emplace_back(u, v);
  }
  const auto paths = f.batch_identify_paths(
      std::span<const std::pair<VertexId, VertexId>>(pairs.data(),
                                                     pairs.size()));
  ASSERT_EQ(paths.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto got = paths[i];
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, bfs_path(ref, pairs[i].first, pairs[i].second));
  }
  f.validate();
}

TEST(EulerTour, BatchLinkIsConstantRoundsSequentialIsLinear) {
  // E9's claim at unit-test scale: batch join of k edges charges O(1)
  // broadcasts; k sequential joins charge Theta(k).
  mpc::MpcConfig cfg;
  cfg.n = 256;
  cfg.phi = 0.5;
  const int k = 32;

  mpc::Cluster batched_cluster(cfg);
  EulerTourForest batched(256, &batched_cluster);
  std::vector<Edge> links;
  for (VertexId i = 0; i + 1 < static_cast<VertexId>(k); ++i)
    links.push_back(make_edge(i, i + 1));
  batched.batch_link(links);
  const auto batched_rounds = batched_cluster.rounds();

  mpc::Cluster seq_cluster(cfg);
  EulerTourForest sequential(256, &seq_cluster);
  sequential.sequential_link(links);
  const auto seq_rounds = seq_cluster.rounds();

  EXPECT_LE(batched_rounds, 5u);
  EXPECT_GE(seq_rounds, static_cast<std::uint64_t>(links.size()));
}

TEST(EulerTour, WordsTracksSize) {
  EulerTourForest f(16);
  const auto w0 = f.words();
  for (VertexId i = 0; i + 1 < 16; ++i) f.link(i, i + 1);
  EXPECT_GT(f.words(), w0);
}

}  // namespace
}  // namespace streammpc
