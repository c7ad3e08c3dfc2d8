#include "sketch/l0sampler.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace streammpc {

namespace {
unsigned levels_for(std::uint64_t dimension) {
  unsigned l = 1;
  while ((1ULL << l) < dimension) ++l;
  return l + 1;
}
}  // namespace

L0Params::L0Params(std::uint64_t dimension, L0Shape shape, std::uint64_t seed)
    : dimension_(dimension),
      levels_(levels_for(dimension)),
      shape_(shape),
      level_hash_(SplitMix64(seed).next()),
      rank_hash_(2, SplitMix64(seed ^ 0xabcdef12345ULL).next()) {
  SMPC_CHECK(dimension >= 1);
  SplitMix64 sm(seed + 0x1234);
  level_params_.reserve(levels_);
  for (unsigned j = 0; j < levels_; ++j) {
    level_params_.emplace_back(SSparseShape{shape.rows, shape.buckets},
                               dimension, sm.next());
  }
}

unsigned L0Params::depth_of(Coord c) const {
  // Hash into [0, 2^levels); coordinate belongs to level j iff
  // value < 2^{levels - j}, so depth = levels - max(1, bit_width(value))
  // — level 0 always contains c, hence the clamp at levels - 1.
  const std::uint64_t v = level_hash_.bucket(c, 1ULL << levels_);
  const unsigned width = static_cast<unsigned>(std::bit_width(v));
  return levels_ - (width > 1 ? width : 1);
}

void L0Params::plan_coord(Coord c, std::int64_t delta, CoordPlan& plan) const {
  const unsigned rows = shape_.rows;
  const unsigned buckets = shape_.buckets;
  plan.depth = depth_of(c);
  // One plan buffer may serve params of different geometries (the
  // thread-local scratch in L0Sampler::update) — size each array for the
  // current geometry independently.
  if (plan.term_pos.size() < levels_) {
    plan.term_pos.resize(levels_);
    plan.term_neg.resize(levels_);
  }
  const std::size_t offsets_needed = static_cast<std::size_t>(levels_) * rows;
  if (plan.offsets.size() < offsets_needed) plan.offsets.resize(offsets_needed);
  const std::uint64_t fd = field_encode_delta(delta);
  for (unsigned j = 0; j <= plan.depth; ++j) {
    const SSparseParams& lp = level_params_[j];
    const std::uint64_t term = Mersenne61::mul(fd, lp.pow_z(c));
    plan.term_pos[j] = term;
    plan.term_neg[j] = Mersenne61::sub(0, term);
    for (unsigned r = 0; r < rows; ++r) {
      plan.offsets[static_cast<std::size_t>(j) * rows + r] =
          static_cast<std::uint32_t>(r * buckets + lp.row_bucket(r, c));
    }
  }
}

std::uint64_t L0Params::nominal_words() const {
  // levels * rows * buckets cells of 4 words each, plus O(1) metadata.
  const auto& sh = level_params_.front().shape();
  return static_cast<std::uint64_t>(levels_) * sh.rows * sh.buckets * 4 + 8;
}

void L0Sampler::ensure_levels(const L0Params& params, unsigned levels) {
  cells_per_level_ = params.cells_per_level();
  const std::size_t needed = levels * cells_per_level_;
  // Grow to the touched prefix only — a sampler whose coordinates stay
  // shallow never pays for the deep levels (the seed's lazy grids).
  if (cells_.size() < needed) cells_.resize(needed);
}

void L0Sampler::reset(const L0Params& params) {
  if (cells_.empty()) {
    ensure_levels(params, params.levels());
  } else if (active_levels_ > 0) {
    // Only the active prefix can hold nonzero cells.
    std::fill(cells_.begin(),
              cells_.begin() + active_levels_ * cells_per_level_,
              OneSparseCell{});
  }
  active_levels_ = 0;
}

void L0Sampler::update(const L0Params& params, Coord c, std::int64_t delta) {
  if (delta == 0) return;
  SMPC_CHECK(c < params.dimension());
  // One source of truth for the per-level terms and cell offsets: the same
  // plan the arena ingest path applies (the scratch is thread-local so
  // sampler instances stay lean).
  thread_local CoordPlan plan;
  params.plan_coord(c, delta, plan);
  ensure_levels(params, plan.depth + 1);
  if (plan.depth + 1 > active_levels_) active_levels_ = plan.depth + 1;
  const unsigned rows = params.shape().rows;
  for (unsigned j = 0; j <= plan.depth; ++j) {
    OneSparseCell* level = cells_.data() + j * cells_per_level_;
    const std::uint32_t* offsets =
        plan.offsets.data() + static_cast<std::size_t>(j) * rows;
    for (unsigned r = 0; r < rows; ++r) {
      level[offsets[r]].apply_term(c, delta, plan.term_pos[j]);
    }
  }
}

void L0Sampler::merge(const L0Params& params, const L0Sampler& other) {
  if (!other.allocated() || other.active_levels_ == 0) return;
  ensure_levels(params, other.active_levels_);
  // Cells above the other's watermark are zero — skip them.
  const std::size_t limit = other.active_levels_ * cells_per_level_;
  SMPC_CHECK(limit <= cells_.size() && limit <= other.cells_.size());
  for (std::size_t i = 0; i < limit; ++i) cells_[i].merge(other.cells_[i]);
  if (other.active_levels_ > active_levels_)
    active_levels_ = other.active_levels_;
}

std::optional<OneSparseResult> L0Sampler::sample(const L0Params& params) const {
  if (!allocated()) return std::nullopt;
  // Scan from the sparsest (active) level down; the first level with a
  // successful recovery yields the min-rank support element.  Levels above
  // the watermark are all-zero and recover nothing, exactly like the
  // seed's unallocated levels.
  for (unsigned j = active_levels_; j-- > 0;) {
    if (auto r = sample_level(
            params, j,
            std::span<const OneSparseCell>(cells_.data() + j * cells_per_level_,
                                           cells_per_level_)))
      return r;
  }
  return std::nullopt;
}

std::optional<OneSparseResult> L0Sampler::sample_level(
    const L0Params& params, unsigned level,
    std::span<const OneSparseCell> cells) {
  SMPC_CHECK(level < params.levels() &&
             cells.size() == params.cells_per_level());
  const auto recovered = recover_cells(params.level_params(level), cells);
  if (recovered.empty()) return std::nullopt;
  // Min-wise selection: the recovered coordinate of least rank (ties to
  // the smallest coordinate — recover_cells returns them sorted).
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

std::uint64_t L0Sampler::words() const {
  // OneSparseCell = w (1 word) + s (2 words) + fp (1 word).
  return cells_.size() * 4;
}

}  // namespace streammpc
