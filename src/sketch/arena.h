// Flat per-bank arena for the AGM vertex sketches.
//
// The seed implementation stored bank b as vector<L0Sampler> with each
// sampler owning one s-sparse recovery object per level, each owning
// vector<OneSparseCell> (tests/legacy_sketch_ref.h keeps that layout) —
// three levels of pointer chasing and one small heap allocation per
// (vertex, level) on the edge-update hot path.  The arena replaces that
// with contiguous cell storage, split by level depth to match the
// geometric level distribution (depth >= j with probability 2^-j, so
// almost every update ends within the first few levels):
//
//   * a *hot store*: one page map (vertex -> page, kNoPage when untouched)
//     and a packed array of ArenaCell records of per-vertex pages covering
//     levels 0..kHotLevels-1 — cell (vertex, level, row, bucket) lives at
//     page(vertex) * hot_cells + level * rows * buckets + row * buckets +
//     bucket, so ~94% of updates resolve with a single map lookup into one
//     contiguous page;
//   * *overflow stores*: one lazily created (map + records) store per deep
//     level >= kHotLevels, allocation granularity matching the seed's lazy
//     per-(vertex, level) grids, so rare deep levels never force a full
//     O(log n)-level page and total memory stays ~O(n);
//   * empty vertices cost one kNoPage map entry and nothing else.
//
// Cell layout is AoS (one 32-byte record per cell) rather than the
// earlier three SoA parallel arrays: an edge update touches every field
// of each cell it hits, so the record layout costs ONE cache line per
// (cell row) instead of three (w, s, fp lived ~pages apart).  E10c
// measures ~24 lines per update under SoA vs ~8 under AoS at the default
// 2x8 geometry; merges walk pages sequentially either way and tie.
//
// Banks share no state, which is what makes batched ingest embarrassingly
// parallel across banks (see VertexSketches::update_edges).  All cell
// arithmetic matches OneSparseCell exactly, so for a fixed seed the arena
// is bit-identical to the seed's nested storage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "sketch/l0sampler.h"

namespace streammpc {

// One sketch cell as a packed 32-byte record: {w, s_lo, s_hi, fp}.
// The s accumulator is a signed __int128 stored as two uint64_t halves
// and recombined at the field boundary — embedding a __int128 member
// directly would give the record 16-byte alignment and (with the three
// 8-byte neighbors) 48 bytes of padded size.  alignas(32) keeps sizeof
// at 32 AND guarantees a record never straddles a 64-byte cache line,
// so the update hot path pays exactly one line per cell row.
struct alignas(32) ArenaCell {
  std::int64_t w = 0;       // sum of applied deltas
  std::uint64_t s_lo = 0;   // low half of the __int128 coord-weighted sum
  std::uint64_t s_hi = 0;   // high half (two's complement)
  std::uint64_t fp = 0;     // Mersenne-61 fingerprint accumulator

  __int128 s() const {
    return static_cast<__int128>(
        (static_cast<unsigned __int128>(s_hi) << 64) | s_lo);
  }
  void set_s(__int128 value) {
    const auto bits = static_cast<unsigned __int128>(value);
    s_lo = static_cast<std::uint64_t>(bits);
    s_hi = static_cast<std::uint64_t>(bits >> 64);
  }
  // apply()'s per-cell arithmetic: w and s by integer addition, fp in
  // the Mersenne-61 field.  Identical to OneSparseCell::add_term.
  void add_delta(std::int64_t dw, __int128 ds, std::uint64_t term) {
    w += dw;
    set_s(s() + ds);
    fp = Mersenne61::add(fp, term);
  }
  // Cell-wise sum (the merge_from fold).  Cells are linear, so this
  // commutes with add_delta in any interleaving.
  void accumulate(const ArenaCell& other) {
    w += other.w;
    set_s(s() + other.s());
    fp = Mersenne61::add(fp, other.fp);
  }
};
static_assert(sizeof(ArenaCell) == 32, "cell record must stay 32B packed");
static_assert(alignof(ArenaCell) == 32,
              "cell records must never straddle a cache line");

class BankArena {
 public:
  BankArena(VertexId n, const L0Params& params);

  // Applies a planned coordinate update to vertex v's cells.  `delta` is
  // the signed weight for THIS endpoint (already negated for the min
  // endpoint); `negated` selects the matching precomputed fingerprint
  // terms from the plan.
  void apply(VertexId v, Coord c, std::int64_t delta, const CoordPlan& plan,
             bool negated);

  // Allocates (if absent) every page an apply(v, ...) of depth `depth`
  // would touch: the hot page plus the overflow pages of levels
  // [hot, depth].  Mirrors apply's first-touch allocation sequence exactly,
  // so a serial preparation pass in canonical order yields the same page
  // numbering as serial ingest — after which apply() on prepared vertices
  // performs no allocation and concurrent apply() calls on DISJOINT
  // vertex sets are race-free (they write disjoint, pre-sized cells).
  // This is what makes the Simulator's (machine, bank) grid cells
  // schedulable in any order while staying byte-identical to serial
  // machine-by-machine ingest.
  void prepare_pages(VertexId v, unsigned depth);

  // One level store's footprint, in the terms allocated_words() charges:
  // the owners of its pages in allocation order (the reverse map — pages
  // are only ever appended, and only rollback_pages truncates), the cell
  // words one page holds, and its page map ([vertex] -> page or kNoPage;
  // empty until populated, then charged half a word per vertex).  Stores
  // are numbered hot first, then one per overflow level.  This is what
  // lets VertexSketches::resident_fold count only the pages allocated
  // since its last call.
  static constexpr std::uint32_t kNoPage = ~0u;
  struct StoreFootprint {
    std::span<const VertexId> owners;
    std::uint64_t page_words = 0;
    std::span<const std::uint32_t> page_of;
  };
  unsigned stores() const {
    return 1 + static_cast<unsigned>(overflow_.size());
  }
  StoreFootprint store_footprint(unsigned store) const;

  // --- transactional ingest (fault tolerance, see mpc/fault_injector.h) -----
  // Brackets one batch's page preparation + apply pipeline so a faulted or
  // over-budget machine's partial grid work can be rolled back instead of
  // poisoning the arena.  Protocol, per batch:
  //
  //   snapshot_begin();                       // record page watermarks
  //   snapshot_pages(v, depth) per endpoint;  // save pre-images, mirror of
  //                                           // the prepare_pages pass
  //   ...prepare_pages + apply as usual...
  //   rollback_pages() or snapshot_commit();
  //
  // snapshot_pages saves the pre-image cell records of every
  // already-allocated page an apply(v, <= depth) would touch (first save
  // wins; all saves happen before any apply, so every saved image is the
  // true pre-batch state) and remembers v as a fresh-page candidate
  // otherwise.  Pages allocated after snapshot_begin are recognized by the
  // watermark, so rollback restores saved images record-wise, truncates
  // each store back to its watermark, and clears the fresh candidates'
  // page-map entries — leaving the arena byte-identical to the snapshot
  // point.  The contract that makes this exact is the grid discipline
  // prepare_pages already guarantees: every page the batch touches is
  // allocated during the preparation pass over exactly the (vertex, depth)
  // set the snapshot walked.
  void snapshot_begin();
  void snapshot_pages(VertexId v, unsigned depth);
  void rollback_pages();
  void snapshot_commit();

  // Element-wise sum of the vertices' cells into `out` (Lemma 3.5's S_A):
  // sum_level over every level, for one group.  Resets `out` first and
  // reuses its buffer — no allocation after the first call with the same
  // scratch sampler.
  void merge_into(const L0Params& params, std::span<const VertexId> vertices,
                  L0Sampler& out) const;

  // The per-level group walker every sketch read goes through (merge_into
  // and VertexSketches::sample_boundaries).  `members` concatenates the
  // groups' vertex lists and `offsets` is the CSR boundary array (group g
  // = members[offsets[g] .. offsets[g+1])).  For each group g named in
  // `walk`, writes the sum of level `level` of its members' cells to
  // sums[g * cells_per_level ..] (cells_per_level cells, zero when no
  // member owns a page there) and sets touched[g] to whether any member
  // owns a page at that level.  An untouched level of a group is zero.
  // Only the listed groups are read or written, so a caller walking the
  // levels top-down can drop a group as soon as it has what it needs.
  // Cell sums commute, so the sums equal any other summation order.
  void sum_level(unsigned level, std::span<const VertexId> members,
                 std::span<const std::uint32_t> offsets,
                 std::span<const std::uint32_t> walk,
                 std::span<OneSparseCell> sums, std::span<char> touched) const;

  // Copy of one vertex's sampler (zero sampler if the vertex is untouched).
  L0Sampler extract(const L0Params& params, VertexId v) const;

  // --- scratch-arena support (the gutter drain path, src/ingest/) -----------
  // Returns the arena to the all-empty state in O(allocated pages) time:
  // only the page-map entries of vertices that actually own a page are
  // cleared (each store tracks its pages' owners), and every cell buffer
  // keeps its capacity.  This is what makes a per-drain scratch arena
  // reusable — a full page-map wipe would cost O(n * banks) per drain.
  // Not allowed inside an arena transaction.
  void reset();

  // Cell-wise merge of `src` (same geometry: same n and L0 shape/levels)
  // into this arena: every page src holds is added into the owning
  // vertex's page here — w and s by integer addition, fp by Mersenne-61
  // addition, exactly apply()'s arithmetic.  Cell values are linear in the
  // applied deltas, so ingesting batch A and then merging a scratch arena
  // that absorbed batch B yields cell values identical to ingesting A ∪ B
  // directly, in any order.  Pages missing here are allocated in src's
  // first-touch order (after a begin_routed_cells preparation pass over
  // the same items, no allocation happens and the page numbering matches
  // direct ingest exactly).  Arenas of different banks share nothing, so
  // per-bank merges may run concurrently.
  void merge_from(const BankArena& src);

  // Hints an upcoming edge's hot-path lines into cache; the ingest loop
  // calls this one edge ahead so the loads overlap with the current
  // edge's hash computation.  Two-stage: the page-map entries first, then
  // — when the endpoints already own hot pages — the first cell record of
  // each page, so the record line streams in behind the map line.  The
  // map reads here are plain loads (safe: a non-empty map is fully
  // sized), typically hitting the line the previous edge's map prefetch
  // pulled.
  void prefetch_hot(Edge e) const {
    if (hot_.page_of.empty()) return;
    const std::uint32_t* map = hot_.page_of.data();
    __builtin_prefetch(map + e.u);
    __builtin_prefetch(map + e.v);
    const ArenaCell* cells = hot_.cells.data();
    const std::uint32_t pu = map[e.u];
    const std::uint32_t pv = map[e.v];
    if (pu != kNoPage)
      __builtin_prefetch(cells + static_cast<std::size_t>(pu) * hot_cells_);
    if (pv != kNoPage)
      __builtin_prefetch(cells + static_cast<std::size_t>(pv) * hot_cells_);
  }

  // Exact-cell prefetch for a PLANNED upcoming update: hints, with write
  // intent, every record — hot and overflow — that apply(e.v)/apply(e.u)
  // with this plan will touch.  This is the strong form of the ingest hint the AoS record
  // makes worthwhile: one 32-byte record per (level, row) is one line, so
  // the plan's offsets name the exact lines — under SoA the same
  // information cost three lines per cell and the hint was left at the
  // page map.  The pipelined ingest loops (ingest_cell /
  // DeltaSketch::accumulate) call prefetch_hot for item i+1 BEFORE
  // hashing its plan and this AFTER, so the map demand-reads here land on
  // lines already in flight and the record lines arrive while item i
  // applies.
  // Deepening this hint from "overflow map only" to the exact overflow
  // records is what moved the measured layout speedup from ~1.2x to
  // ~1.7x: about half the items carry depth >= 1, and their overflow
  // cell misses otherwise serialize behind the hot-level applies.  The
  // level walk goes through level_records on purpose — one page lookup
  // and one branch per (level, endpoint) ahead of a straight-line
  // prefetch burst measured faster than per-row page-presence tests.
  void prefetch_planned(Edge e, const CoordPlan& plan) const {
    const unsigned limit = plan.depth < levels_ ? plan.depth : levels_ - 1;
    for (unsigned j = 0; j <= limit; ++j) {
      const std::uint32_t* offsets =
          plan.offsets.data() + static_cast<std::size_t>(j) * rows_;
      for (const VertexId vtx : {e.v, e.u}) {
        const std::span<const ArenaCell> records = level_records(j, vtx);
        if (records.empty()) continue;
        for (unsigned r = 0; r < rows_; ++r)
          __builtin_prefetch(records.data() + offsets[r], 1);
      }
    }
  }

  // Words of cell and page-map storage currently allocated.
  std::uint64_t allocated_words() const;

  // Per-bank scratch plan, owned here so concurrent bank tasks never share
  // a buffer.
  CoordPlan& plan_scratch() { return plan_; }

  // Read-only view of vertex v's cells_per_level records at `level`
  // (empty span when the vertex owns no page there).  Layout-inspection
  // hook for the byte-exactness tests and the measured E10c cache-line
  // census; not on any hot path.
  std::span<const ArenaCell> level_records(unsigned level, VertexId v) const;
  unsigned levels() const { return levels_; }

 private:
  // Levels resolved through the single hot page map; depth >= kHotLevels
  // has probability 2^-kHotLevels.
  static constexpr unsigned kHotLevels = 1;

  // One page map plus packed cell-record pages of `cells` records each.
  struct Store {
    std::vector<std::uint32_t> page_of;  // [vertex] -> page index or kNoPage
    std::vector<ArenaCell> cells;        // [page * cells + cell]
    std::vector<VertexId> owner;  // [page] -> owning vertex (reverse map)
    std::uint32_t pages = 0;
  };

  // Per-store snapshot: the page watermark at snapshot_begin, saved
  // pre-image records of pages the batch will touch, and the vertices
  // that may receive fresh (post-watermark) pages.
  struct StoreSnap {
    std::uint32_t watermark = 0;  // store.pages at snapshot_begin
    bool had_map = false;         // page_of was populated at snapshot_begin
    std::vector<char> saved_mark;            // [page < watermark] image saved
    std::vector<std::uint32_t> saved_pages;  // pages with saved images
    std::vector<ArenaCell> saved_cells;      // images, `cells` records/page
    std::vector<VertexId> fresh_candidates;  // had no page at snapshot time
  };

  // Where level `level` lives: its store, the records per page there, and
  // the level's first record within a page.
  struct LevelSlot {
    const Store* store;
    std::size_t page_cells;
    std::size_t within;
  };
  LevelSlot level_slot(unsigned level) const;

  std::uint32_t page_for(Store& store, VertexId v, std::size_t cells);
  Store& overflow_store(unsigned level);
  static void snap_begin_store(StoreSnap& snap, const Store& store);
  static void snap_save_page(StoreSnap& snap, const Store& store, VertexId v,
                             std::size_t cells);
  static void snap_rollback_store(StoreSnap& snap, Store& store,
                                  std::size_t cells);

  VertexId n_;
  unsigned levels_;
  unsigned hot_levels_;  // min(kHotLevels, levels_)
  unsigned rows_;
  std::size_t cells_per_level_;
  std::size_t hot_cells_;  // hot_levels_ * cells_per_level_
  Store hot_;              // levels 0..hot_levels_-1, map sized on demand
  std::vector<Store> overflow_;  // [level - hot_levels_], maps lazily sized
  CoordPlan plan_;
  bool txn_active_ = false;
  StoreSnap hot_snap_;
  std::vector<StoreSnap> overflow_snap_;  // lazily sized to overflow_.size()
};

}  // namespace streammpc
