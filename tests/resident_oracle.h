// Exactness oracle for the incremental resident fold
// (VertexSketches::resident_fold): the words of one bank arena's cell and
// page-map storage attributable to the vertex block [lo, hi), recounted
// by an O(hi - lo) scan of every level store's page map.
//
// It counts pages from the page maps, not from the page owner lists the
// fold itself folds, so it catches owner lists that disagree with the page
// maps (e.g. after rollback_pages).  Page-map words are charged at
// allocated_words()'s half-word-per-entry rate, so summing over a
// partition of [0, n) reproduces allocated_words() up to one word of
// rounding per block.
//
// Used by tests/test_mpc_grid.cc (ResidentFold.*) and bench_ingest's E11c
// row, which times the fold against this scan.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "graph/types.h"
#include "sketch/arena.h"

namespace streammpc::test {

inline std::uint64_t resident_words(const BankArena& arena, VertexId lo,
                                    VertexId hi) {
  std::uint64_t words = 0;
  for (unsigned store = 0; store < arena.stores(); ++store) {
    const BankArena::StoreFootprint footprint = arena.store_footprint(store);
    if (footprint.page_of.empty()) continue;
    SMPC_CHECK(lo <= hi && hi <= footprint.page_of.size());
    std::uint64_t pages = 0;
    for (VertexId v = lo; v < hi; ++v) {
      if (footprint.page_of[v] != BankArena::kNoPage) ++pages;
    }
    words += pages * footprint.page_words + (hi - lo) / 2;
  }
  return words;
}

}  // namespace streammpc::test
