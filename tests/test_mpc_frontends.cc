// Front-end execution-mode matrix (ISSUE 4 satellite): all six front ends
// — DynamicConnectivity, AgmStaticConnectivity, StreamingConnectivity,
// DynamicBipartiteness, ApproxMsf, DynamicApproxMatching — accept
// Flat | Routed | Simulated and report identical query results in every
// mode; the cluster-attached modes expose simulator() stats.  The
// connectivity trio's matrix lives in test_mpc_simulation*.cc; this file
// covers the three front ends ported here (bipartiteness, approximate
// MSF, matching) plus the cross-mode equivalence loop over all of them.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bipartite/bipartiteness.h"
#include "common/random.h"
#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "matching/dynamic_matching.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "msf/approx_msf.h"
#include "test_support.h"

namespace streammpc {
namespace {

constexpr mpc::ExecMode kModes[] = {mpc::ExecMode::kFlat,
                                    mpc::ExecMode::kRouted,
                                    mpc::ExecMode::kSimulated};

const char* mode_name(mpc::ExecMode mode) {
  switch (mode) {
    case mpc::ExecMode::kFlat: return "flat";
    case mpc::ExecMode::kRouted: return "routed";
    case mpc::ExecMode::kSimulated: return "simulated";
  }
  return "?";
}

// A churny update stream that repeatedly makes and breaks bipartiteness:
// a path (bipartite), an odd chord (not), delete it again, plus noise.
Batch bipartite_probe_batches(VertexId n, int round) {
  Batch batch;
  if (round == 0) {
    for (VertexId v = 0; v + 1 < n; ++v)
      batch.push_back(Update{UpdateType::kInsert, make_edge(v, v + 1), 1});
  } else if (round == 1) {
    batch.push_back(Update{UpdateType::kInsert, make_edge(0, 2), 1});
  } else if (round == 2) {
    batch.push_back(Update{UpdateType::kDelete, make_edge(0, 2), 1});
    batch.push_back(
        Update{UpdateType::kInsert, make_edge(0, static_cast<VertexId>(3)), 1});
  } else {
    batch.push_back(
        Update{UpdateType::kDelete, make_edge(0, static_cast<VertexId>(3)), 1});
    batch.push_back(Update{UpdateType::kDelete, make_edge(4, 5), 1});
  }
  return batch;
}

// ---------------- ledger pins per front end ---------------------------------
// One seeded stream through each front end, sync and async, routed and
// simulated; the ledger is compared per label against literal values
// measured when every front end still wired its own simulator, scheduler
// and gutter.  The sync-vs-async and mode-vs-flat comparisons cannot see a
// wrong default ledger label in the shared ingest runtime — both sides
// would move together — these pins can.

enum class Front { kDynamic, kAgm, kStreaming, kMatching };

struct LedgerPin {
  std::map<std::string, std::uint64_t> rounds_by_label;
  std::uint64_t total_words = 0;
  std::uint64_t max_machine_load = 0;
  std::vector<std::uint64_t> words_by_machine;
};

struct PinCase {
  Front front;
  mpc::ExecMode mode;
  bool async;
  LedgerPin pin;
};

LedgerPin run_pinned_stream(Front front, mpc::ExecMode mode, bool async) {
  constexpr VertexId n = 64;
  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 4;
  // Every delivery fits, so no SMPC_SCHED / SMPC_GROW setting splits,
  // grows or records an overrun: the pins hold under every CI gate.
  mc.local_memory_words = std::uint64_t{1} << 24;
  mpc::Cluster cluster(mc);
  Rng rng(97001);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 2 * n;
  opt.num_batches = 5;
  opt.batch_size = 40;
  opt.delete_fraction = 0.4;
  const std::vector<Batch> stream = gen::churn_stream(opt, rng);
  GraphSketchConfig sketch;
  sketch.banks = 6;
  sketch.seed = 97002;
  GutterIngestConfig gutter;
  gutter.gutter_capacity = 16;
  gutter.drain_threads = 2;
  std::optional<GutterIngestConfig> async_ingest;
  if (async) async_ingest = gutter;
  switch (front) {
    case Front::kDynamic: {
      ConnectivityConfig cc;
      cc.sketch = sketch;
      cc.exec_mode = mode;
      cc.async_ingest = async;
      cc.gutter = gutter;
      DynamicConnectivity dc(n, cc, &cluster);
      for (const Batch& b : stream) dc.apply_batch(b);
      dc.flush_ingest();
      break;
    }
    case Front::kAgm: {
      AgmStaticConnectivity agm(n, sketch, &cluster, mode, async_ingest);
      for (const Batch& b : stream) agm.apply_batch(b);
      agm.flush_ingest();
      break;
    }
    case Front::kStreaming: {
      StreamingConnectivity sc(n, sketch, &cluster, mode, async_ingest);
      for (const Batch& b : stream) sc.apply_stream(b);
      sc.flush_ingest();
      break;
    }
    case Front::kMatching: {
      DynamicMatchingConfig mcfg;
      mcfg.exec_mode = mode;
      mcfg.seed = 97003;
      DynamicApproxMatching matching(n, mcfg, &cluster);
      for (const Batch& b : stream) matching.apply_batch(b);
      break;
    }
  }
  const mpc::CommLedger& ledger = cluster.comm_ledger();
  return LedgerPin{cluster.rounds_by_label(), ledger.total_words(),
                   ledger.max_machine_load(), ledger.words_by_machine()};
}

const PinCase kLedgerPins[] = {
    {Front::kDynamic, mpc::ExecMode::kRouted, false,
     {{{"connectivity/aux-H", 9},
       {"connectivity/batch", 9},
       {"connectivity/boruvka-gather", 5},
       {"connectivity/preprocess", 26},
       {"connectivity/relabel", 28},
       {"connectivity/sketch-merge", 10},
       {"connectivity/sketch-update", 14},
       {"euler/batch-join", 36},
       {"euler/batch-split", 15}},
      1102, 44, {264, 292, 278, 268}}},
    {Front::kDynamic, mpc::ExecMode::kRouted, true,
     {{{"connectivity/aux-H", 9},
       {"connectivity/batch", 9},
       {"connectivity/boruvka-gather", 5},
       {"connectivity/preprocess", 26},
       {"connectivity/relabel", 28},
       {"connectivity/sketch-merge", 10},
       {"connectivity/sketch-update", 31},
       {"euler/batch-join", 36},
       {"euler/batch-split", 15}},
      1102, 32, {264, 292, 278, 268}}},
    {Front::kDynamic, mpc::ExecMode::kSimulated, false,
     {{{"connectivity/aux-H", 9},
       {"connectivity/batch", 9},
       {"connectivity/boruvka-gather", 5},
       {"connectivity/preprocess", 26},
       {"connectivity/relabel", 28},
       {"connectivity/sketch-merge", 10},
       {"connectivity/sketch-update", 14},
       {"euler/batch-join", 36},
       {"euler/batch-split", 15}},
      1102, 44, {264, 292, 278, 268}}},
    {Front::kDynamic, mpc::ExecMode::kSimulated, true,
     {{{"connectivity/aux-H", 9},
       {"connectivity/batch", 9},
       {"connectivity/boruvka-gather", 5},
       {"connectivity/preprocess", 26},
       {"connectivity/relabel", 28},
       {"connectivity/sketch-merge", 10},
       {"connectivity/sketch-update", 31},
       {"euler/batch-join", 36},
       {"euler/batch-split", 15}},
      1102, 32, {264, 292, 278, 268}}},
    {Front::kAgm, mpc::ExecMode::kRouted, false,
     {{{"agm/sketch-update", 9}},
      1158, 46, {284, 304, 290, 280}}},
    {Front::kAgm, mpc::ExecMode::kRouted, true,
     {{{"agm/sketch-update", 22}},
      1158, 32, {284, 304, 290, 280}}},
    {Front::kAgm, mpc::ExecMode::kSimulated, false,
     {{{"agm/sketch-update", 9}},
      1158, 46, {284, 304, 290, 280}}},
    {Front::kAgm, mpc::ExecMode::kSimulated, true,
     {{{"agm/sketch-update", 22}},
      1158, 32, {284, 304, 290, 280}}},
    {Front::kStreaming, mpc::ExecMode::kRouted, false,
     {{{"streaming/sketch-update", 50}},
      1158, 44, {284, 304, 290, 280}}},
    {Front::kStreaming, mpc::ExecMode::kRouted, true,
     {{{"streaming/sketch-update", 108}},
      1158, 32, {284, 304, 290, 280}}},
    {Front::kStreaming, mpc::ExecMode::kSimulated, false,
     {{{"streaming/sketch-update", 50}},
      1158, 44, {284, 304, 290, 280}}},
    {Front::kStreaming, mpc::ExecMode::kSimulated, true,
     {{{"streaming/sketch-update", 108}},
      1158, 32, {284, 304, 290, 280}}},
    {Front::kMatching, mpc::ExecMode::kRouted, false,
     {{{"matching/maximal-batch", 18},
       {"matching/preprocess", 26},
       {"matching/sketch-update", 9}},
      1158, 46, {284, 304, 290, 280}}},
    {Front::kMatching, mpc::ExecMode::kSimulated, false,
     {{{"matching/maximal-batch", 18},
       {"matching/preprocess", 26},
       {"matching/sketch-update", 9}},
      1158, 46, {284, 304, 290, 280}}},
};

TEST(FrontEndModes, BipartitenessIdenticalAcrossModes) {
  const VertexId n = 24;
  BipartitenessConfig cfg;
  cfg.connectivity.sketch.banks = 8;
  cfg.connectivity.sketch.seed = 91001;

  for (const mpc::ExecMode mode : {mpc::ExecMode::kRouted,
                                   mpc::ExecMode::kSimulated}) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(2 * n, 8);
    BipartitenessConfig mode_cfg = cfg;
    mode_cfg.connectivity.exec_mode = mode;
    DynamicBipartiteness under_test(n, mode_cfg, &cluster);
    DynamicBipartiteness reference(n, cfg);

    for (int round = 0; round < 4; ++round) {
      const Batch batch = bipartite_probe_batches(n, round);
      reference.apply_batch(batch);
      under_test.apply_batch(batch);
      ASSERT_EQ(reference.is_bipartite(), under_test.is_bipartite())
          << "round " << round;
      ASSERT_EQ(reference.num_components(), under_test.num_components());
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(reference.is_component_bipartite(v),
                  under_test.is_component_bipartite(v))
            << "round " << round << " vertex " << v;
      }
    }
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().batches, 0u);
      EXPECT_GT(under_test.simulator()->stats().cell_steps, 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
    EXPECT_GT(cluster.comm_ledger().rounds(), 0u);
  }
}

TEST(FrontEndModes, ApproxMsfIdenticalAcrossModesAndExposesSimulator) {
  const VertexId n = 48;
  ApproxMsfConfig cfg;
  cfg.eps = 0.25;
  cfg.w_max = 16;
  cfg.connectivity.sketch.banks = 6;
  cfg.connectivity.sketch.seed = 92001;

  Rng rng(93);
  const auto edges = gen::connected_gnm(n, 120, rng);
  const auto weighted = gen::with_random_weights(edges, 1, 16, rng);
  const auto batches =
      gen::into_batches(gen::insert_stream(weighted, rng), 24);

  ApproxMsf flat(n, cfg);
  for (const Batch& b : batches) flat.apply_batch(b);
  EXPECT_EQ(flat.simulator(), nullptr);

  for (const mpc::ExecMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(n, 8);
    ApproxMsfConfig mode_cfg = cfg;
    mode_cfg.connectivity.exec_mode = mode;
    ApproxMsf under_test(n, mode_cfg, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);

    EXPECT_DOUBLE_EQ(flat.weight_estimate(), under_test.weight_estimate());
    EXPECT_EQ(flat.forest(), under_test.forest());
    EXPECT_EQ(flat.num_components(), under_test.num_components());
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().machine_steps, 0u);
      EXPECT_GT(under_test.simulator()->stats().peak_resident_words, 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
  }
}

TEST(FrontEndModes, MatchingIdenticalAcrossModesAndExposesSimulator) {
  const VertexId n = 48;
  DynamicMatchingConfig cfg;
  cfg.alpha = 4.0;
  cfg.seed = 94001;

  // A valid mixed stream: inserts with interleaved deletes of live edges.
  const auto deltas = test::random_deltas(n, 160, 95);
  std::vector<Batch> batches;
  Batch current;
  for (const EdgeDelta& d : deltas) {
    current.push_back(Update{
        d.delta > 0 ? UpdateType::kInsert : UpdateType::kDelete, d.e, 1});
    if (current.size() == 20) {
      batches.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) batches.push_back(current);

  DynamicApproxMatching flat(n, cfg);
  for (const Batch& b : batches) flat.apply_batch(b);
  EXPECT_EQ(flat.simulator(), nullptr);

  for (const mpc::ExecMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicMatchingConfig mode_cfg = cfg;
    mode_cfg.exec_mode = mode;
    DynamicApproxMatching under_test(n, mode_cfg, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);

    // Samplers are linear, so every machine schedule yields the same H
    // stream and hence the same maximal matching — exactly.
    EXPECT_EQ(flat.matching_size(), under_test.matching_size());
    EXPECT_EQ(flat.matching(), under_test.matching());
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().batches, 0u);
      EXPECT_GT(under_test.simulator()->stats().machine_steps, 0u);
      EXPECT_GT(cluster.comm_ledger().rounds(), 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
    if (mode != mpc::ExecMode::kFlat) {
      // Routing replaced the PR 2-era flat broadcast: the ledger now
      // carries real per-machine delivery loads for matching batches.
      EXPECT_GT(cluster.comm_ledger().total_words(), 0u);
    }
  }
}

TEST(FrontEndLedgers, PinnedPerLabelAcrossModesAndAsync) {
  for (const PinCase& c : kLedgerPins) {
    SCOPED_TRACE(::testing::Message()
                 << "front " << static_cast<int>(c.front) << ", "
                 << mode_name(c.mode) << (c.async ? ", async" : ", sync"));
    const LedgerPin got = run_pinned_stream(c.front, c.mode, c.async);
    EXPECT_EQ(got.rounds_by_label, c.pin.rounds_by_label);
    EXPECT_EQ(got.total_words, c.pin.total_words);
    EXPECT_EQ(got.max_machine_load, c.pin.max_machine_load);
    EXPECT_EQ(got.words_by_machine, c.pin.words_by_machine);
  }
}

}  // namespace
}  // namespace streammpc
