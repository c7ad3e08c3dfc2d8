#include "sketch/graphsketch.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "mpc/cluster.h"
#include "sketch/delta_sketch.h"

namespace streammpc {

namespace {
// Below this batch size the per-dispatch cost of waking the pool exceeds
// the cell-parallel win: the measured serial/parallel crossover of the
// grid at 2 and 4 ingest threads (bench_ingest E11b; DESIGN.md, "Unified
// ingest pipeline").
constexpr std::size_t kParallelBatchMin = 16;

unsigned resolve_threads(unsigned configured, unsigned banks) {
  if (configured == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    configured = hw == 0 ? 1 : hw;
  }
  return std::min(configured, banks);
}
}  // namespace

VertexSketches::VertexSketches(VertexId n, const GraphSketchConfig& config)
    : n_(n),
      codec_(n),
      ingest_threads_(resolve_threads(config.ingest_threads, config.banks)) {
  SMPC_CHECK(config.banks >= 1);
  SplitMix64 sm(config.seed);
  params_.reserve(config.banks);
  arenas_.reserve(config.banks);
  for (unsigned b = 0; b < config.banks; ++b) {
    params_.emplace_back(codec_.dimension(), config.shape, sm.next());
    arenas_.emplace_back(n, params_.back());
  }
}

ThreadPool* VertexSketches::pool() {
  if (ingest_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(ingest_threads_);
  return pool_.get();
}

void VertexSketches::update_edge(Edge e, std::int64_t delta) {
  const EdgeDelta one{e, delta};
  update_edges(std::span<const EdgeDelta>(&one, 1));
}

void VertexSketches::run_plan(std::size_t items) {
  exec_plan_.run(*this, items >= kParallelBatchMin ? pool() : nullptr);
}

void VertexSketches::update_edges(std::span<const EdgeDelta> batch) {
  if (batch.empty()) return;
  // Flat ingest IS the grid: one machine owning both endpoints of every
  // delta.  Same canonical preparation order and per-bank apply order as
  // every other path, hence byte-identical for any chunking.
  exec_plan_.lower_flat(batch);
  run_plan(batch.size());
}

void VertexSketches::update_edges(const mpc::RoutedBatch& routed) {
  if (routed.items.empty()) return;
  exec_plan_.lower_routed(routed);
  run_plan(routed.items.size());
}

std::uint64_t VertexSketches::merge_delta(const mpc::RoutedBatch& routed,
                                          const DeltaSketch& delta) {
  if (routed.items.empty()) return 0;
  exec_plan_.lower_delta(routed, delta);
  return exec_plan_.run(
      *this, routed.items.size() >= kParallelBatchMin ? pool() : nullptr);
}

std::uint64_t VertexSketches::merge_delta_cells(const DeltaSketch& delta,
                                                ThreadPool* pool) {
  SMPC_CHECK_MSG(delta.banks() == banks(),
                 "delta sketch bank count mismatch");
  const auto merge_bank = [&](std::size_t b) {
    arenas_[b].merge_from(delta.arena(static_cast<unsigned>(b)));
  };
  if (pool != nullptr && banks() >= 2) {
    pool->parallel_for(banks(), merge_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) merge_bank(b);
  }
  // The prepared-cells state was consumed by this batch; require a fresh
  // preparation pass before any further cell ingest.
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  return delta.applied();
}

void VertexSketches::begin_routed_cells(const mpc::RoutedBatch& routed,
                                        ThreadPool* pool) {
  const std::size_t count = routed.items.size();
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  // Validate and encode every item before any page is allocated, so a bad
  // edge throws with the arenas untouched (the same contract as
  // ingest_items).
  coord_scratch_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Edge e = routed.items[i].delta.e;
    SMPC_CHECK(e.u < e.v && e.v < n_);
    coord_scratch_[i] = codec_.encode(e);
  }
  // Two plan buffers per (machine, bank) cell: ingest_cell's pipelined
  // loop double-buffers the current and lookahead CoordPlans.
  const std::size_t cells =
      static_cast<std::size_t>(routed.machines()) * banks() * 2;
  if (cell_plans_.size() < cells) cell_plans_.resize(cells);
  // Page preparation, one independent pass per bank.  The CSR already
  // stores items grouped by machine in ascending order, so a linear walk
  // IS the canonical machine-major first-touch sequence of serial ingest;
  // within an item the endpoints and levels are touched in exactly
  // apply()'s order (max endpoint first, hot page, then deepening
  // overflow).  Banks share nothing, so fanning the pass across `pool`
  // cannot change any bank's allocation sequence.
  const auto prepare_bank = [&](std::size_t b) {
    BankArena& arena = arenas_[b];
    const L0Params& params = params_[b];
    for (std::size_t i = 0; i < count; ++i) {
      const mpc::RoutedBatch::Item& item = routed.items[i];
      if (item.delta.delta == 0 || item.endpoints == 0) continue;
      const unsigned depth = params.depth_of(coord_scratch_[i]);
      if (item.endpoints & mpc::RoutedBatch::kEndpointV)
        arena.prepare_pages(item.delta.e.v, depth);
      if (item.endpoints & mpc::RoutedBatch::kEndpointU)
        arena.prepare_pages(item.delta.e.u, depth);
    }
  };
  if (pool != nullptr && count >= kParallelBatchMin) {
    pool->parallel_for(banks(), prepare_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) prepare_bank(b);
  }
  cells_ready_batch_ = &routed;
  cells_ready_items_ = count;
}

std::uint64_t VertexSketches::ingest_cell(std::uint64_t machine, unsigned bank,
                                          const mpc::RoutedBatch& routed) {
  SMPC_CHECK(machine < routed.machines() && bank < banks());
  SMPC_CHECK_MSG(cells_ready_batch_ == &routed &&
                     cells_ready_items_ == routed.items.size(),
                 "begin_routed_cells must prepare this batch first");
  const std::size_t begin = routed.offsets[machine];
  const std::size_t end = routed.offsets[machine + 1];
  BankArena& arena = arenas_[bank];
  const L0Params& params = params_[bank];
  // Software-pipelined apply loop (the hint discipline
  // BankArena::prefetch_planned documents): item i+1's plan is hashed and
  // its exact cell records hinted while item i applies into lines
  // prefetched one iteration ago, so the random record misses overlap the
  // plan hashing instead of stalling apply.  Two plan buffers per cell
  // (cur/next) double-buffer the lookahead; the apply ORDER is untouched,
  // so the resulting bytes are identical to the unpipelined loop.
  CoordPlan* cur = &cell_plans_[2 * (machine * banks() + bank)];
  CoordPlan* next = cur + 1;
  std::size_t planned_for = end;  // index whose plan sits in *cur
  std::uint64_t applied = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const mpc::RoutedBatch::Item& item = routed.items[i];
    if (item.delta.delta == 0 || item.endpoints == 0) continue;
    if (planned_for != i)
      params.plan_coord(coord_scratch_[i], item.delta.delta, *cur);
    if (i + 1 < end) {
      const mpc::RoutedBatch::Item& peek = routed.items[i + 1];
      if (peek.delta.delta != 0 && peek.endpoints != 0) {
        arena.prefetch_hot(peek.delta.e);
        params.plan_coord(coord_scratch_[i + 1], peek.delta.delta, *next);
        arena.prefetch_planned(peek.delta.e, *next);
        planned_for = i + 1;
      }
    }
    const Coord c = coord_scratch_[i];
    if (item.endpoints & mpc::RoutedBatch::kEndpointV)
      arena.apply(item.delta.e.v, c, item.delta.delta, *cur, /*negated=*/false);
    if (item.endpoints & mpc::RoutedBatch::kEndpointU)
      arena.apply(item.delta.e.u, c, -item.delta.delta, *cur, /*negated=*/true);
    ++applied;
    if (planned_for == i + 1) std::swap(cur, next);
  }
  return applied;
}

void VertexSketches::begin_transaction(const mpc::RoutedBatch& routed,
                                       ThreadPool* pool) {
  const std::size_t count = routed.items.size();
  // Same validate-and-encode pass as begin_routed_cells (which re-runs it
  // identically afterwards) — a bad edge must throw before any page is
  // saved, and the snapshot needs each item's depth.
  coord_scratch_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Edge e = routed.items[i].delta.e;
    SMPC_CHECK(e.u < e.v && e.v < n_);
    coord_scratch_[i] = codec_.encode(e);
  }
  const auto snapshot_bank = [&](std::size_t b) {
    BankArena& arena = arenas_[b];
    const L0Params& params = params_[b];
    arena.snapshot_begin();
    for (std::size_t i = 0; i < count; ++i) {
      const mpc::RoutedBatch::Item& item = routed.items[i];
      if (item.delta.delta == 0 || item.endpoints == 0) continue;
      const unsigned depth = params.depth_of(coord_scratch_[i]);
      if (item.endpoints & mpc::RoutedBatch::kEndpointV)
        arena.snapshot_pages(item.delta.e.v, depth);
      if (item.endpoints & mpc::RoutedBatch::kEndpointU)
        arena.snapshot_pages(item.delta.e.u, depth);
    }
  };
  if (pool != nullptr && count >= kParallelBatchMin) {
    pool->parallel_for(banks(), snapshot_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) snapshot_bank(b);
  }
}

void VertexSketches::rollback_transaction() {
  note_mutation();  // restored bytes are still a state-change event
  for (BankArena& arena : arenas_) arena.rollback_pages();
  // The truncated stores may regrow past the fold's counts with different
  // owners, so the next resident_fold starts over.
  fold_.machines = 0;
  // The prepared-cells state described a batch whose pages may no longer
  // exist; force a fresh preparation pass before any further cell ingest.
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
}

void VertexSketches::commit_transaction() {
  for (BankArena& arena : arenas_) arena.snapshot_commit();
}

std::span<const std::uint64_t> VertexSketches::resident_fold(
    const mpc::Cluster& cluster) const {
  ResidentFold& fold = fold_;
  const std::uint64_t machines = cluster.machines();
  const unsigned stores = arenas_.front().stores();
  bool refold = fold.machines != machines;
  for (std::size_t b = 0; b < arenas_.size() && !refold; ++b) {
    for (unsigned s = 0; s < stores && !refold; ++s) {
      refold = arenas_[b].store_footprint(s).owners.size() <
               fold.folded[b * stores + s];
    }
  }
  if (refold) {
    ++fold.refolds;
    fold.machines = machines;
    fold.folded.assign(arenas_.size() * stores, 0);
    fold.cell_words.assign(machines, 0);
    fold.half_block.resize(machines);
    for (std::uint64_t m = 0; m < machines; ++m) {
      const auto [first, last] = cluster.vertex_block(m, n_);
      fold.half_block[m] = (last - first) / 2;
    }
  }
  // Each store charges its pages' cell words to the owners' machines plus,
  // once its page map exists, half a word per vertex of every block.
  std::uint64_t mapped_stores = 0;
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    for (unsigned s = 0; s < stores; ++s) {
      const BankArena::StoreFootprint store = arenas_[b].store_footprint(s);
      std::uint32_t& folded = fold.folded[b * stores + s];
      for (std::size_t p = folded; p < store.owners.size(); ++p)
        fold.cell_words[cluster.machine_of(store.owners[p], n_)] +=
            store.page_words;
      folded = static_cast<std::uint32_t>(store.owners.size());
      if (!store.page_of.empty()) ++mapped_stores;
    }
  }
  fold.words.resize(machines);
  for (std::uint64_t m = 0; m < machines; ++m)
    fold.words[m] = fold.cell_words[m] + mapped_stores * fold.half_block[m];
  return fold.words;
}

std::uint64_t VertexSketches::resident_words(std::uint64_t machine,
                                             const mpc::Cluster& cluster) const {
  SMPC_CHECK(machine < cluster.machines());
  return resident_fold(cluster)[machine];
}

void VertexSketches::merged_into(unsigned bank,
                                 std::span<const VertexId> vertices,
                                 L0Sampler& out) const {
  SMPC_CHECK(bank < banks());
  arenas_[bank].merge_into(params_[bank], vertices, out);
}

L0Sampler VertexSketches::merged(unsigned bank,
                                 std::span<const VertexId> vertices) const {
  L0Sampler acc;
  merged_into(bank, vertices, acc);
  return acc;
}

std::optional<Edge> VertexSketches::decode_sample(unsigned bank,
                                                  const L0Sampler& s) const {
  const auto r = s.sample(params_[bank]);
  if (!r) return std::nullopt;
  return codec_.decode(r->coord);
}

std::optional<Edge> VertexSketches::sample_boundary(
    unsigned bank, std::span<const VertexId> vertices,
    BoundaryScratch& scratch) const {
  const std::uint32_t offsets[2] = {
      0, static_cast<std::uint32_t>(vertices.size())};
  return sample_boundaries(bank, vertices, offsets, {}, scratch).front();
}

std::optional<Edge> VertexSketches::sample_boundary(
    unsigned bank, std::span<const VertexId> vertices) const {
  BoundaryScratch scratch;
  return sample_boundary(bank, vertices, scratch);
}

std::span<const std::optional<Edge>> VertexSketches::sample_boundaries(
    unsigned bank, std::span<const VertexId> members,
    std::span<const std::uint32_t> offsets,
    std::span<const std::uint32_t> complement,
    BoundaryScratch& scratch) const {
  SMPC_CHECK(bank < banks());
  SMPC_CHECK(!offsets.empty());
  const std::size_t groups = offsets.size() - 1;
  SMPC_CHECK(complement.empty() || complement.size() == groups);
  const L0Params& params = params_[bank];
  const BankArena& arena = arenas_[bank];
  const std::size_t cells = params.cells_per_level();
  if (scratch.sums.size() < groups * cells) scratch.sums.resize(groups * cells);
  scratch.touched.assign(groups, 0);
  scratch.done.assign(groups, 0);
  scratch.out.assign(groups, std::nullopt);
  std::vector<char>& done = scratch.done;
  std::vector<char>& touched = scratch.touched;
  const auto is_complement = [&](std::uint32_t g) {
    return !complement.empty() && complement[g] == g;
  };
  // A complement group is summed from the groups naming it, never from
  // the arena; one that nobody names is the zero sampler, done at once.
  for (std::uint32_t g = 0; g < groups; ++g) {
    if (!is_complement(g)) continue;
    SMPC_CHECK_MSG(offsets[g] == offsets[g + 1],
                   "a complement group has no members of its own");
    done[g] = 1;
  }
  scratch.walk.clear();
  scratch.open.clear();
  for (std::uint32_t g = 0; g < groups; ++g) {
    if (is_complement(g)) continue;
    scratch.walk.push_back(g);
    if (complement.empty()) continue;
    const std::uint32_t c = complement[g];
    SMPC_CHECK_MSG(c < groups && complement[c] == c,
                   "a complement map must name complement groups");
    if (done[c]) {
      done[c] = 0;
      scratch.open.push_back(c);
    }
  }
  std::size_t pending = scratch.walk.size() + scratch.open.size();
  // Sparsest level first; each level sums only what an open answer needs.
  for (unsigned j = params.levels(); j-- > 0 && pending > 0;) {
    arena.sum_level(j, members, offsets, scratch.walk, scratch.sums, touched);
    for (const std::uint32_t c : scratch.open) {
      std::fill(scratch.sums.begin() + c * cells,
                scratch.sums.begin() + (c + 1) * cells, OneSparseCell{});
      touched[c] = 0;
    }
    if (!scratch.open.empty()) {
      for (const std::uint32_t g : scratch.walk) {
        const std::uint32_t c = complement[g];
        if (done[c] || !touched[g]) continue;
        for (std::size_t i = 0; i < cells; ++i)
          scratch.sums[c * cells + i].merge(scratch.sums[g * cells + i]);
        touched[c] = 1;
      }
    }
    // Recover level j of every undecoded group it can be nonzero for.
    const auto recover = [&](std::uint32_t g) {
      if (done[g] || !touched[g]) return;
      const auto r = L0Sampler::sample_level(
          params, j,
          std::span<const OneSparseCell>(scratch.sums.data() + g * cells,
                                         cells));
      if (!r) return;
      scratch.out[g] = codec_.decode(r->coord);
      done[g] = 1;
      --pending;
    };
    for (const std::uint32_t g : scratch.walk) recover(g);
    for (const std::uint32_t c : scratch.open) recover(c);
    // Drop what no open answer reads any more.
    std::erase_if(scratch.walk, [&](std::uint32_t g) {
      return done[g] && (complement.empty() || done[complement[g]]);
    });
    std::erase_if(scratch.open, [&](std::uint32_t c) { return done[c]; });
  }
  return scratch.out;
}

std::uint64_t VertexSketches::allocated_words() const {
  std::uint64_t total = 0;
  for (const BankArena& arena : arenas_) total += arena.allocated_words();
  return total;
}

std::uint64_t VertexSketches::nominal_words_per_vertex() const {
  return params_.front().nominal_words() * banks();
}

}  // namespace streammpc
