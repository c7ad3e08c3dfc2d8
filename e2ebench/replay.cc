#include "replay.h"

#include <algorithm>
#include <cstring>

namespace e2ebench {

using namespace streammpc;

ShadowReplay::ShadowReplay(VertexId n, const ConnectivityConfig& config,
                           const mpc::MpcConfig& mpc_config)
    : n_(n),
      mode_(config.exec_mode),
      cluster_(mpc_config),
      sketches_(n, config.sketch),
      forest_(n, &cluster_) {
  if (mode_ == mpc::ExecMode::kSimulated) {
    simulator_ = std::make_unique<mpc::Simulator>(
        cluster_, config.simulator_scratch_words);
    scheduler_ = std::make_unique<mpc::BatchScheduler>(cluster_, *simulator_,
                                                       config.scheduler);
  }
  if (config.async_ingest) {
    GutterIngestConfig gcfg = config.gutter;
    if (gcfg.label == GutterIngestConfig{}.label)
      gcfg.label = "connectivity/sketch-update";  // as the front end does
    gutter_ = std::make_unique<GutterIngest>(n, sketches_, gcfg, &cluster_,
                                             mode_, simulator_.get(),
                                             scheduler_.get());
  }
}

void ShadowReplay::ingest(std::span<const EdgeDelta> deltas,
                          const std::string& label, Trace& trace) {
  if (deltas.empty()) return;
  if (gutter_ != nullptr) {
    trace.span("ingest.submit_ms", time_ms([&] { gutter_->submit(deltas); }));
    return;
  }
  trace.span("mpc.route_ms",
             time_ms([&] { cluster_.route_batch(deltas, n_, routed_); }));
  if (mode_ == mpc::ExecMode::kSimulated) {
    if (scheduler_->enabled()) {
      mpc::Simulator::BudgetProbe probe;
      trace.span("mpc.probe_ms",
                 time_ms([&] { probe = simulator_->probe(routed_, sketches_); }));
      if (!probe.fits) {
        // Over budget: the scheduler's own split loop re-routes and
        // re-probes, so all of it counts as execution.
        trace.span("mpc.execute_ms", time_ms([&] {
                     scheduler_->execute(deltas, n_, label, sketches_);
                   }));
        return;
      }
    }
    trace.span("mpc.execute_ms", time_ms([&] {
                 simulator_->execute(routed_, label, sketches_);
               }));
    return;
  }
  trace.span("mpc.charge_ms",
             time_ms([&] { cluster_.charge_routed(routed_, label); }));
  trace.span("sketch.update_edges_ms",
             time_ms([&] { sketches_.update_edges(routed_); }));
}

void ShadowReplay::follow_forest(const DynamicConnectivity& front,
                                 Trace* trace) {
  const auto& theirs = front.forest().tree_edges();
  const auto& ours = forest_.tree_edges();
  std::vector<Edge> cuts;
  std::vector<Edge> links;
  for (const Edge& e : ours)
    if (!theirs.count(e)) cuts.push_back(e);
  for (const Edge& e : theirs)
    if (!ours.count(e)) links.push_back(e);
  std::sort(cuts.begin(), cuts.end());
  std::sort(links.begin(), links.end());
  const double cut_ms = time_ms([&] { forest_.batch_cut(cuts); });
  const double link_ms = time_ms([&] { forest_.batch_link(links); });
  if (trace != nullptr) {
    trace->span("euler.batch_cut_ms", cut_ms);
    trace->span("euler.batch_link_ms", link_ms);
  }
}

void ShadowReplay::bootstrap(std::span<const Edge> edges,
                             const DynamicConnectivity& front) {
  Trace untimed;
  deltas_.clear();
  for (const Edge& e : edges) deltas_.push_back(EdgeDelta{e, +1});
  ingest(deltas_, "connectivity/bootstrap", untimed);
  follow_forest(front, nullptr);
}

void ShadowReplay::batch(const Batch& batch, const DynamicConnectivity& front,
                         Trace& trace) {
  const auto [ins, del] = normalize_batch(batch);
  deltas_.clear();
  for (const Update& u : ins) deltas_.push_back(EdgeDelta{u.e, +1});
  ingest(deltas_, "connectivity/sketch-update", trace);
  deltas_.clear();
  for (const Update& u : del) deltas_.push_back(EdgeDelta{u.e, -1});
  ingest(deltas_, "connectivity/sketch-update", trace);
  // The front end flushes before sampling replacement edges.
  if (!del.empty()) flush(trace);
  follow_forest(front, &trace);
}

void ShadowReplay::flush(Trace& trace) {
  if (gutter_ == nullptr) return;
  trace.span("ingest.flush_ms", time_ms([&] { gutter_->flush(); }));
}

void ShadowReplay::reset_ledger() {
  cluster_.comm_ledger().reset(cluster_.machines());
}

bool ShadowReplay::same_ledger(const mpc::CommLedger& front) const {
  const mpc::CommLedger& ours = cluster_.comm_ledger();
  return ours.rounds() == front.rounds() &&
         ours.total_words() == front.total_words() &&
         ours.max_machine_load() == front.max_machine_load() &&
         ours.words_by_machine() == front.words_by_machine() &&
         ours.peak_machine_total_words() == front.peak_machine_total_words();
}

std::string ShadowReplay::identical_to(const DynamicConnectivity& front) const {
  const VertexSketches& theirs = front.sketches();
  if (theirs.banks() != sketches_.banks()) return "bank count differs";
  for (unsigned b = 0; b < sketches_.banks(); ++b) {
    const BankArena& x = sketches_.arena(b);
    const BankArena& y = theirs.arena(b);
    if (x.allocated_words() != y.allocated_words())
      return "bank " + std::to_string(b) + " allocated words differ";
    for (unsigned level = 0; level < x.levels(); ++level) {
      for (VertexId v = 0; v < n_; ++v) {
        const auto rx = x.level_records(level, v);
        const auto ry = y.level_records(level, v);
        if (rx.size() != ry.size() ||
            (!rx.empty() &&
             std::memcmp(rx.data(), ry.data(), rx.size_bytes()) != 0)) {
          return "bank " + std::to_string(b) + " level " +
                 std::to_string(level) + " vertex " + std::to_string(v) +
                 " records differ";
        }
      }
    }
  }
  if (forest_.tree_edges() != front.forest().tree_edges())
    return "tree-edge sets differ";
  return "";
}

}  // namespace e2ebench
