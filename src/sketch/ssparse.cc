#include "sketch/ssparse.h"

#include <algorithm>

#include "common/check.h"
#include "common/field.h"

namespace streammpc {

SSparseParams::SSparseParams(SSparseShape shape, std::uint64_t dimension,
                             std::uint64_t seed)
    : shape_(shape), dimension_(dimension) {
  SMPC_CHECK(shape.rows >= 1 && shape.buckets >= 1);
  SMPC_CHECK(dimension >= 1);
  SplitMix64 sm(seed);
  z_ = Mersenne61::reduce(sm.next());
  if (z_ < 2) z_ += 2;  // avoid degenerate fingerprint bases 0/1
  z_squares_[0] = Mersenne61::reduce(z_);
  for (unsigned i = 1; i < 64; ++i)
    z_squares_[i] = Mersenne61::mul(z_squares_[i - 1], z_squares_[i - 1]);
  row_hashes_.reserve(shape.rows);
  for (unsigned r = 0; r < shape.rows; ++r)
    row_hashes_.emplace_back(sm.next());
}

std::vector<OneSparseResult> recover_cells(
    const SSparseParams& params, std::span<const OneSparseCell> cells) {
  std::vector<OneSparseResult> out;
  for (const OneSparseCell& cell : cells) {
    if (auto r = cell.decode(params.z(), params.dimension())) {
      out.push_back(*r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const OneSparseResult& a, const OneSparseResult& b) {
              return a.coord < b.coord;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const OneSparseResult& a, const OneSparseResult& b) {
                          return a.coord == b.coord;
                        }),
            out.end());
  return out;
}

}  // namespace streammpc
