// M1 — microbenchmarks for the sketching substrate: coordinate codec,
// 1-sparse cells, L0-sampler update/merge/query, full edge updates on the
// per-vertex sketch banks; plus the flat-arena engine against the frozen
// seed implementation (legacy_sketch_ref.h) at the default config
// (n = 2^16, 12 banks), the AoS cell layout against the frozen
// pre-switch SoA engine (soa_ref_arena.h) at a cache-pressured geometry,
// and the top-down Boruvka group query against the full-merge sampler on
// churn-like fragments — all recorded in BENCH_sketch_micro.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "bench_util.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "legacy_sketch_ref.h"
#include "sketch/coord.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"
#include "soa_ref_arena.h"

namespace streammpc {
namespace {

std::vector<Edge> random_edges(VertexId n, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  return edges;
}

void BM_CoordEncode(benchmark::State& state) {
  EdgeCoordCodec codec(1 << 16);
  Rng rng(1);
  std::vector<Edge> edges;
  for (int i = 0; i < 1024; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(1 << 16));
    VertexId v = static_cast<VertexId>(rng.below((1 << 16) - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(edges[i++ & 1023]));
  }
}
BENCHMARK(BM_CoordEncode);

void BM_CoordDecode(benchmark::State& state) {
  EdgeCoordCodec codec(1 << 16);
  Rng rng(2);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(codec.dimension()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(coords[i++ & 1023]));
  }
}
BENCHMARK(BM_CoordDecode);

void BM_OneSparseUpdate(benchmark::State& state) {
  OneSparseCell cell;
  Rng rng(3);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(1ULL << 30));
  std::size_t i = 0;
  for (auto _ : state) {
    cell.update(coords[i & 1023], (i & 1) ? 1 : -1, 0x1234567);
    ++i;
  }
  benchmark::DoNotOptimize(cell);
}
BENCHMARK(BM_OneSparseUpdate);

void BM_L0SamplerUpdate(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 4);
  L0Sampler sampler;
  Rng rng(5);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(1ULL << 30));
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.update(params, coords[i++ & 1023], 1);
  }
  benchmark::DoNotOptimize(sampler);
}
BENCHMARK(BM_L0SamplerUpdate);

void BM_L0SamplerMerge(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 6);
  Rng rng(7);
  L0Sampler a, b;
  for (int i = 0; i < 256; ++i) {
    a.update(params, rng.below(1ULL << 30), 1);
    b.update(params, rng.below(1ULL << 30), 1);
  }
  for (auto _ : state) {
    L0Sampler acc = a;
    acc.merge(params, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_L0SamplerMerge);

void BM_L0SamplerQuery(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 8);
  Rng rng(9);
  L0Sampler sampler;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    sampler.update(params, rng.below(1ULL << 30), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(params));
  }
}
BENCHMARK(BM_L0SamplerQuery)->Arg(1)->Arg(64)->Arg(4096);

void BM_VertexSketchEdgeUpdate(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = static_cast<unsigned>(state.range(0));
  cfg.seed = 10;
  const VertexId n = 4096;
  VertexSketches vs(n, cfg);
  Rng rng(11);
  std::vector<Edge> edges;
  for (int i = 0; i < 1024; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    vs.update_edge(edges[i & 1023], (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_VertexSketchEdgeUpdate)->Arg(4)->Arg(12);

void BM_VertexSketchEdgeUpdateLegacy(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = static_cast<unsigned>(state.range(0));
  cfg.seed = 10;
  const VertexId n = 4096;
  legacy::LegacyVertexSketches vs(n, cfg);
  const auto edges = random_edges(n, 1024, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    vs.update_edge(edges[i & 1023], (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_VertexSketchEdgeUpdateLegacy)->Arg(4)->Arg(12);

void BM_VertexSketchBatchedUpdate(benchmark::State& state) {
  // Whole-batch ingest through update_edges; counters report per-edge
  // throughput so this is directly comparable to BM_VertexSketchEdgeUpdate.
  GraphSketchConfig cfg;
  cfg.banks = 12;
  cfg.seed = 10;
  cfg.ingest_threads = static_cast<unsigned>(state.range(0));
  const VertexId n = 4096;
  VertexSketches vs(n, cfg);
  const auto edges = random_edges(n, 1024, 11);
  std::vector<EdgeDelta> batch;
  batch.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    batch.push_back(EdgeDelta{edges[i], (i & 1) ? 1 : -1});
  for (auto _ : state) {
    vs.update_edges(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_VertexSketchBatchedUpdate)->Arg(1)->Arg(2)->Arg(4);

void BM_MergedBoundarySample(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = 2;
  cfg.seed = 12;
  const VertexId n = 1024;
  VertexSketches vs(n, cfg);
  Rng rng(13);
  for (int i = 0; i < 4096; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    vs.update_edge(make_edge(u, v), 1);
  }
  std::vector<VertexId> component;
  for (VertexId v = 0; v < static_cast<VertexId>(state.range(0)); ++v)
    component.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.sample_boundary(0, component));
  }
}
BENCHMARK(BM_MergedBoundarySample)->Arg(16)->Arg(128)->Arg(512);

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Direct legacy-vs-flat comparison at the acceptance config (n = 2^16,
// 12 banks), measured in one process and written to
// BENCH_sketch_micro.json.  Returns ops/sec for `edges` single updates.
template <typename Sketches>
double measure_update_throughput(Sketches& vs, const std::vector<Edge>& edges,
                                 int repeats) {
  bench::Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    const std::int64_t delta = (rep & 1) ? -1 : +1;
    for (const Edge& e : edges) vs.update_edge(e, delta);
  }
  return static_cast<double>(edges.size()) * repeats / timer.seconds();
}

// One timed batched-ingest pass: every delta set to `delta`, one
// update_edges.  Caller is responsible for warm-up (page allocation) and
// for alternating the sign so cell magnitudes stay bounded.
template <typename Sketches>
double timed_pass(Sketches& vs, std::vector<EdgeDelta>& batch,
                  std::int64_t delta) {
  for (auto& d : batch) d.delta = delta;
  bench::Timer timer;
  vs.update_edges(batch);
  return timer.seconds();
}

// Realized AoS-vs-SoA hot-path ingest comparison (the ISSUE 10 gate).
//
// Two measurements, both against the frozen pre-switch SoA storage
// (soa_ref_arena.h), both on the identical per-pass edge permutation:
//
//  1. The batched-ingest HOT LOOP — the per-bank cell loop the grid
//     executor runs (plan_coord + apply to both endpoints on a warmed,
//     preparation-complete arena), each side with its own shipped hint
//     discipline: the SoA engine's one-edge-ahead page-map prefetch vs
//     the AoS engine's pipelined exact-record prefetch
//     (BankArena::prefetch_planned).  This is the loop the cell-layout
//     switch changed, and it carries the >= 1.3x gate.
//  2. The END-TO-END update_edges pipeline (staging, validation,
//     encoding, the canonical page-preparation pass, then the same hot
//     loop), recorded as layout.speedup_update_edges — transparently NOT
//     gated: the shared hash/stage/prepare work is identical code on
//     both sides and dilutes the layout effect to ~1.1x.
//
// Geometry: shape {rows=8, buckets=8} — the theory-faithful O(log n)-rows
// regime — rather than the light {2, 8} default: s-sparse recovery at
// constant failure probability per level needs Theta(log n) rows, and at
// 8 rows an endpoint-level touches 8 records = ~8 cache lines AoS vs up
// to ~24 SoA (w / s / fp live in three arrays), so the memory system
// carries a realistic share of the walk.  The arenas (~0.5 GiB per side)
// dwarf L2, and each pass runs a fresh permutation of the batch — page
// allocation is first-touch in batch order, so REPLAYING the warm-up
// order would walk the arenas near-sequentially and the stream
// prefetcher would hide either layout.  Cells are linear, so the
// resulting bytes are permutation-blind.
//
// Protocol: both sides stay live and warmed; passes are INTERLEAVED
// (soa, aos, soa, aos, ...) and the reported speedup is the median of
// per-pair time ratios.  Pairing adjacent passes cancels the slow
// throughput drift of a shared host (observed ±15% between back-to-back
// runs), which an unpaired A-then-B protocol folds straight into the
// ratio.
void record_layout_json(bench::BenchJson& json) {
  const VertexId n = 1 << 18;
  const std::size_t m = std::size_t{1} << 16;
  const int pairs = 7;
  const L0Shape shape{8, 8};
  const auto edges = random_edges(n, m, 47);

  // --- 1. hot loop, one bank pair seeded the way VertexSketches /
  // SoaRefSketches seed their first bank ---------------------------------
  EdgeCoordCodec codec(n);
  SplitMix64 sm(42);
  L0Params params(codec.dimension(), shape, sm.next());
  BankArena aos(n, params);
  soa_ref::SoaBankArena soa(n, params);
  std::vector<Coord> coords(m);
  {
    CoordPlan plan;
    for (std::size_t i = 0; i < m; ++i) {
      coords[i] = codec.encode(edges[i]);
      const unsigned depth = params.depth_of(coords[i]);
      // Canonical first-touch preparation (begin_routed_cells' order);
      // every timed pass below is allocation-free.
      aos.prepare_pages(edges[i].v, depth);
      aos.prepare_pages(edges[i].u, depth);
      soa.prepare_pages(edges[i].v, depth);
      soa.prepare_pages(edges[i].u, depth);
    }
  }
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;

  // The frozen engine's loop: one-edge-ahead page-map prefetch, plan,
  // apply (soa_ref_arena.h's update_edges apply phase, verbatim).
  const auto soa_pass = [&](std::int64_t delta) {
    CoordPlan& plan = soa.plan_scratch();
    bench::Timer timer;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k];
      if (k + 1 < m) soa.prefetch_hot(edges[order[k + 1]]);
      params.plan_coord(coords[i], delta, plan);
      soa.apply(edges[i].v, coords[i], delta, plan, /*negated=*/false);
      soa.apply(edges[i].u, coords[i], -delta, plan, /*negated=*/true);
    }
    return timer.seconds();
  };
  // The production loop: ingest_cell's software pipeline — hash + hint
  // item k+1's exact records while item k applies into lines prefetched
  // one iteration ago.
  CoordPlan plan_cur, plan_next;
  const auto aos_pass = [&](std::int64_t delta) {
    CoordPlan* cur = &plan_cur;
    CoordPlan* next = &plan_next;
    bench::Timer timer;
    params.plan_coord(coords[order[0]], delta, *cur);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k];
      if (k + 1 < m) {
        const std::size_t j = order[k + 1];
        aos.prefetch_hot(edges[j]);
        params.plan_coord(coords[j], delta, *next);
        aos.prefetch_planned(edges[j], *next);
      }
      aos.apply(edges[i].v, coords[i], delta, *cur, /*negated=*/false);
      aos.apply(edges[i].u, coords[i], -delta, *cur, /*negated=*/true);
      std::swap(cur, next);
    }
    return timer.seconds();
  };

  std::mt19937_64 shuffle_rng(1234);
  std::vector<double> ratios, soa_secs, aos_secs;
  for (int p = 0; p < pairs; ++p) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    const std::int64_t delta = (p & 1) ? +1 : -1;
    const double ts = soa_pass(delta);
    const double ta = aos_pass(delta);
    ratios.push_back(ts / ta);
    soa_secs.push_back(ts);
    aos_secs.push_back(ta);
  }
  const double speedup = median(ratios);
  const double soa_ops = static_cast<double>(m) / median(soa_secs);
  const double aos_ops = static_cast<double>(m) / median(aos_secs);

  // --- 2. end-to-end update_edges, same geometry ------------------------
  GraphSketchConfig cfg;
  cfg.seed = 42;
  cfg.banks = 1;
  cfg.shape = shape;
  cfg.ingest_threads = 1;
  std::vector<EdgeDelta> batch;
  batch.reserve(m);
  for (const Edge& e : edges) batch.push_back(EdgeDelta{e, +1});
  soa_ref::SoaRefSketches soa_vs(n, cfg);
  VertexSketches aos_vs(n, cfg);
  soa_vs.update_edges(batch);  // warm-up: allocates every page
  aos_vs.update_edges(batch);
  std::vector<double> e2e_ratios;
  for (int p = 0; p < pairs; ++p) {
    std::shuffle(batch.begin(), batch.end(), shuffle_rng);
    const std::int64_t delta = (p & 1) ? +1 : -1;
    const double ts = timed_pass(soa_vs, batch, delta);
    const double ta = timed_pass(aos_vs, batch, delta);
    e2e_ratios.push_back(ts / ta);
  }
  const double e2e_speedup = median(e2e_ratios);

  json.set("layout.n", static_cast<std::uint64_t>(n));
  json.set("layout.edges", static_cast<std::uint64_t>(m));
  json.set("layout.rows", static_cast<std::uint64_t>(shape.rows));
  json.set("layout.buckets", static_cast<std::uint64_t>(shape.buckets));
  json.set("layout.pairs", static_cast<std::uint64_t>(pairs));
  json.set("layout.ops_per_sec_hot_loop_soa", soa_ops);
  json.set("layout.ops_per_sec_hot_loop_aos", aos_ops);
  json.set("layout.speedup_aos_vs_soa_batched", speedup);
  json.set("layout.speedup_update_edges", e2e_speedup);
  json.set("layout.soa_words", soa.allocated_words());
  json.set("layout.aos_words", aos.allocated_words());
  json.set("layout.aos_speedup_ok", speedup >= 1.3 ? 1.0 : 0.0);
  std::cout << "batched ingest hot loop (n=" << n << ", m=" << m
            << ", shape={8,8}): soa=" << soa_ops << " aos=" << aos_ops
            << " ops/sec (median-of-" << pairs << "-pairs " << speedup
            << "x, gate >= 1.3x " << (speedup >= 1.3 ? "OK" : "FAIL")
            << "); end-to-end update_edges " << e2e_speedup << "x\n";
}

// Top-down Boruvka sampling against the full-merge oracle it replaced, on
// the fragments a churn batch leaves behind: a G(n, 4n) graph, its
// spanning forest, 64 random tree edges cut.  One Boruvka level per bank
// samples every fragment, each pre-cut tree's largest fragment as the
// complement of its siblings (DynamicConnectivity's delete path):
//   * lazy — VertexSketches::sample_boundaries with the complement map;
//   * full — merged_into every level of every other fragment, sum the
//     siblings into the complement, then sample() (the pre-top-down path).
// Interleaved pairs (full, lazy, ...); the speedup is the median of
// per-pair time ratios.  exact_ok is 1 iff both answer identically for
// every fragment in every bank.
void record_boruvka_json(bench::BenchJson& json) {
  const VertexId n = 1 << 14;
  const std::size_t cuts = 64;
  const int pairs = 7;
  GraphSketchConfig cfg;  // defaults: 12 banks, {2, 8} shape
  cfg.seed = 44;
  cfg.ingest_threads = 1;
  Rng rng(45);
  const auto edges = gen::gnm(n, 4 * static_cast<std::size_t>(n), rng);
  VertexSketches vs(n, cfg);
  std::vector<EdgeDelta> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back(EdgeDelta{e, +1});
  vs.update_edges(batch);

  // Spanning forest, then cut `cuts` random tree edges.
  Dsu forest(n);
  std::vector<Edge> tree;
  for (const Edge& e : edges)
    if (forest.unite(e.u, e.v)) tree.push_back(e);
  shuffle(tree, rng);
  Dsu pieces(n);
  for (std::size_t i = cuts; i < tree.size(); ++i)
    pieces.unite(tree[i].u, tree[i].v);
  // Fragments = pieces holding a cut endpoint, in first-appearance order;
  // each pre-cut tree's largest fragment is its complement group.
  std::vector<VertexId> frag_of(n, kNoVertex);
  std::vector<VertexId> roots;
  for (std::size_t i = 0; i < cuts; ++i) {
    for (const VertexId x : {tree[i].u, tree[i].v}) {
      const VertexId r = pieces.find(x);
      if (frag_of[r] != kNoVertex) continue;
      frag_of[r] = static_cast<VertexId>(roots.size());
      roots.push_back(r);
    }
  }
  const std::size_t groups = roots.size();
  std::vector<std::vector<VertexId>> frag_vertices(groups);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId f = frag_of[pieces.find(v)];
    if (f != kNoVertex) frag_vertices[f].push_back(v);
  }
  std::vector<std::uint32_t> largest(n, ~0u);  // [pre-cut tree root]
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint32_t& best = largest[forest.find(roots[g])];
    if (best == ~0u || frag_vertices[g].size() > frag_vertices[best].size())
      best = g;
  }
  std::vector<std::uint32_t> complement(groups);
  std::vector<VertexId> members;
  std::vector<std::uint32_t> offsets{0};
  for (std::uint32_t g = 0; g < groups; ++g) {
    complement[g] = largest[forest.find(roots[g])];
    if (complement[g] != g)
      members.insert(members.end(), frag_vertices[g].begin(),
                     frag_vertices[g].end());
    offsets.push_back(static_cast<std::uint32_t>(members.size()));
  }

  BoundaryScratch scratch;
  std::vector<std::optional<Edge>> lazy(groups * vs.banks());
  const auto lazy_pass = [&] {
    bench::Timer timer;
    for (unsigned b = 0; b < vs.banks(); ++b) {
      const auto out =
          vs.sample_boundaries(b, members, offsets, complement, scratch);
      std::copy(out.begin(), out.end(), lazy.begin() + b * groups);
    }
    return timer.seconds();
  };
  std::vector<L0Sampler> merged(groups);
  std::vector<std::optional<Edge>> full(groups * vs.banks());
  const auto full_pass = [&] {
    bench::Timer timer;
    for (unsigned b = 0; b < vs.banks(); ++b) {
      const L0Params& params = vs.params(b);
      for (std::uint32_t g = 0; g < groups; ++g) {
        const std::span<const VertexId> own(
            members.data() + offsets[g], offsets[g + 1] - offsets[g]);
        vs.merged_into(b, own, merged[g]);
      }
      for (std::uint32_t g = 0; g < groups; ++g)
        if (complement[g] != g) merged[complement[g]].merge(params, merged[g]);
      for (std::uint32_t g = 0; g < groups; ++g)
        full[b * groups + g] = vs.decode_sample(b, merged[g]);
    }
    return timer.seconds();
  };
  std::vector<double> ratios, full_secs, lazy_secs;
  bool exact = true;
  for (int p = 0; p < pairs; ++p) {
    const double tf = full_pass();
    const double tl = lazy_pass();
    exact = exact && lazy == full;
    ratios.push_back(tf / tl);
    full_secs.push_back(tf);
    lazy_secs.push_back(tl);
  }
  const double speedup = median(ratios);
  const double calls = static_cast<double>(vs.banks());
  json.set("boruvka.n", static_cast<std::uint64_t>(n));
  json.set("boruvka.cuts", static_cast<std::uint64_t>(cuts));
  json.set("boruvka.groups", static_cast<std::uint64_t>(groups));
  json.set("boruvka.walked_members", static_cast<std::uint64_t>(members.size()));
  json.set("boruvka.pairs", static_cast<std::uint64_t>(pairs));
  json.set("boruvka.ms_per_level_full", 1e3 * median(full_secs) / calls);
  json.set("boruvka.ms_per_level_lazy", 1e3 * median(lazy_secs) / calls);
  json.set("boruvka.speedup_lazy_vs_full", speedup);
  json.set("boruvka.exact_ok", exact ? 1.0 : 0.0);
  std::cout << "boruvka group sampling (n=" << n << ", " << cuts << " cuts, "
            << groups << " fragments, " << members.size()
            << " walked members): full " << 1e3 * median(full_secs) / calls
            << " ms/level, lazy " << 1e3 * median(lazy_secs) / calls
            << " ms/level (median-of-" << pairs << "-pairs " << speedup
            << "x), exact " << (exact ? "OK" : "FAIL") << "\n";
}

void record_speedup_json() {
  const VertexId n = 1 << 16;
  const std::size_t m = 4096;
  const int repeats = 4;
  GraphSketchConfig cfg;  // defaults: 12 banks, {2, 8} shape
  cfg.seed = 42;
  const auto edges = random_edges(n, m, 43);

  legacy::LegacyVertexSketches legacy_vs(n, cfg);
  const double legacy_ops =
      measure_update_throughput(legacy_vs, edges, repeats);

  cfg.ingest_threads = 1;
  VertexSketches flat_vs(n, cfg);
  const double flat_ops = measure_update_throughput(flat_vs, edges, repeats);

  std::vector<EdgeDelta> batch;
  for (const Edge& e : edges) batch.push_back(EdgeDelta{e, +1});
  VertexSketches batched_vs(n, cfg);
  bench::Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    for (auto& d : batch) d.delta = (rep & 1) ? -1 : +1;
    batched_vs.update_edges(batch);
  }
  const double batched_ops =
      static_cast<double>(m) * repeats / timer.seconds();

  bench::BenchJson json("sketch_micro");
  json.set("config.n", static_cast<std::uint64_t>(n));
  json.set("config.banks", static_cast<std::uint64_t>(cfg.banks));
  json.set("config.rows", static_cast<std::uint64_t>(cfg.shape.rows));
  json.set("config.buckets", static_cast<std::uint64_t>(cfg.shape.buckets));
  json.set("config.edges", static_cast<std::uint64_t>(m * repeats));
  json.set("edge_update.ops_per_sec_legacy", legacy_ops);
  json.set("edge_update.ops_per_sec_flat", flat_ops);
  json.set("edge_update.ops_per_sec_batched", batched_ops);
  json.set("edge_update.speedup_flat_vs_legacy", flat_ops / legacy_ops);
  json.set("edge_update.speedup_batched_vs_legacy", batched_ops / legacy_ops);
  json.set("memory.flat_words", flat_vs.allocated_words());
  record_layout_json(json);
  record_boruvka_json(json);
  json.flush();

  std::cout << "single-thread edge-update ops/sec: legacy=" << legacy_ops
            << " flat=" << flat_ops << " batched=" << batched_ops
            << " (speedup " << flat_ops / legacy_ops << "x / "
            << batched_ops / legacy_ops << "x)\n";
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  streammpc::record_speedup_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
