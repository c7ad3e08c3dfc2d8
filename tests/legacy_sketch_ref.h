// Frozen copy of the seed (pre-flat-arena) sketch ingest path, kept as a
// differential-testing oracle and benchmark baseline.
//
// The production engine (src/sketch/graphsketch.h) stores cells in flat
// per-bank arenas and plans each coordinate's hashes once per bank; this
// header preserves the original nested-vector layout and per-cell
// Mersenne61::pow calls verbatim.  For a fixed seed the two must produce
// byte-identical sample() results — tests/test_sketch_ingest.cc asserts
// exactly that, and bench_sketch_micro / bench_ingest measure the speedup
// against this implementation.
//
// Do not "fix" or optimize this file: its value is that it does not change.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/field.h"
#include "common/random.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"
#include "sketch/ssparse.h"

namespace streammpc::legacy {

// s-sparse recovery grid exactly as the seed stored it: a lazily allocated
// rows*buckets vector of cells, one heap object per (vertex, level).
class LegacySSparseRecovery {
 public:
  LegacySSparseRecovery() = default;

  void update(const SSparseParams& params, Coord c, std::int64_t delta) {
    SMPC_CHECK(c < params.dimension());
    if (delta == 0) return;
    ensure(params);
    const unsigned buckets = params.shape().buckets;
    for (unsigned r = 0; r < params.shape().rows; ++r) {
      const std::uint64_t b = params.row_bucket(r, c);
      // Seed behavior: every cell update recomputes Mersenne61::pow(z, c).
      cells_[static_cast<std::size_t>(r) * buckets + b].update(c, delta,
                                                               params.z());
    }
  }

  void merge(const SSparseParams& params, const LegacySSparseRecovery& other) {
    if (!other.allocated()) return;
    ensure(params);
    SMPC_CHECK(cells_.size() == other.cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cells_[i].merge(other.cells_[i]);
  }

  std::vector<OneSparseResult> recover(const SSparseParams& params) const {
    if (!allocated()) return {};
    return recover_cells(params,
                         std::span<const OneSparseCell>(cells_.data(),
                                                        cells_.size()));
  }

  bool allocated() const { return !cells_.empty(); }
  // Read-only probes for the s-sparse unit tests (tests/test_sketch.cc).
  bool is_zero() const {
    for (const OneSparseCell& cell : cells_)
      if (!cell.is_zero()) return false;
    return true;
  }
  // Memory words: 4 per OneSparseCell (w, the 2-word s, fp).
  std::uint64_t words() const { return cells_.size() * 4; }

 private:
  void ensure(const SSparseParams& params) {
    if (cells_.empty()) {
      cells_.resize(static_cast<std::size_t>(params.shape().rows) *
                    params.shape().buckets);
    }
  }

  std::vector<OneSparseCell> cells_;
};

// L0-sampler as the seed stored it: a vector of per-level recovery grids.
class LegacyL0Sampler {
 public:
  LegacyL0Sampler() = default;

  void update(const L0Params& params, Coord c, std::int64_t delta) {
    if (delta == 0) return;
    ensure(params);
    const unsigned depth = params.depth_of(c);
    for (unsigned j = 0; j <= depth; ++j) {
      levels_[j].update(params.level_params(j), c, delta);
    }
  }

  void merge(const L0Params& params, const LegacyL0Sampler& other) {
    if (!other.allocated()) return;
    ensure(params);
    for (unsigned j = 0; j < params.levels(); ++j) {
      levels_[j].merge(params.level_params(j), other.levels_[j]);
    }
  }

  std::optional<OneSparseResult> sample(const L0Params& params) const {
    if (!allocated()) return std::nullopt;
    for (unsigned j = params.levels(); j-- > 0;) {
      const auto recovered = levels_[j].recover(params.level_params(j));
      if (recovered.empty()) continue;
      const OneSparseResult* best = &recovered.front();
      std::uint64_t best_rank = params.rank_of(best->coord);
      for (const auto& r : recovered) {
        const std::uint64_t rank = params.rank_of(r.coord);
        if (rank < best_rank) {
          best_rank = rank;
          best = &r;
        }
      }
      return *best;
    }
    return std::nullopt;
  }

  bool allocated() const { return !levels_.empty(); }

 private:
  void ensure(const L0Params& params) {
    if (levels_.empty()) levels_.resize(params.levels());
  }

  std::vector<LegacySSparseRecovery> levels_;
};

// Per-vertex sketch banks with the seed's [bank][vertex] nested-vector
// storage and its one-endpoint-at-a-time update loop.
class LegacyVertexSketches {
 public:
  LegacyVertexSketches(VertexId n, const GraphSketchConfig& config)
      : n_(n), codec_(n) {
    SMPC_CHECK(config.banks >= 1);
    SplitMix64 sm(config.seed);
    params_.reserve(config.banks);
    samplers_.resize(config.banks);
    for (unsigned b = 0; b < config.banks; ++b) {
      params_.emplace_back(codec_.dimension(), config.shape, sm.next());
      samplers_[b].resize(n);
    }
  }

  unsigned banks() const { return static_cast<unsigned>(params_.size()); }

  void update_edge(Edge e, std::int64_t delta) {
    SMPC_CHECK(e.u < e.v && e.v < n_);
    const Coord c = codec_.encode(e);
    for (unsigned b = 0; b < banks(); ++b) {
      samplers_[b][e.v].update(params_[b], c, delta);
      samplers_[b][e.u].update(params_[b], c, -delta);
    }
  }

  std::optional<Edge> sample_boundary(
      unsigned bank, std::span<const VertexId> vertices) const {
    SMPC_CHECK(bank < banks());
    LegacyL0Sampler acc;
    for (VertexId v : vertices) {
      SMPC_CHECK(v < n_);
      acc.merge(params_[bank], samplers_[bank][v]);
    }
    const auto r = acc.sample(params_[bank]);
    if (!r) return std::nullopt;
    return codec_.decode(r->coord);
  }

 private:
  VertexId n_;
  EdgeCoordCodec codec_;
  std::vector<L0Params> params_;
  std::vector<std::vector<LegacyL0Sampler>> samplers_;
};

}  // namespace streammpc::legacy
