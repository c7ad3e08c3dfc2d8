#include "ingest/ingest_path.h"

#include "common/check.h"
#include "mpc/cluster.h"
#include "sketch/graphsketch.h"

namespace streammpc {

IngestTarget sketch_target(VertexSketches& sketches,
                           mpc::Simulator* simulator) {
  IngestTarget target;
  target.flat = [&sketches](std::span<const EdgeDelta> deltas) {
    sketches.update_edges(deltas);
  };
  target.routed = [&sketches](const mpc::RoutedBatch& routed) {
    sketches.update_edges(routed);
  };
  if (simulator != nullptr)
    target.simulated = mpc::BatchScheduler::sketch_target(*simulator, sketches);
  return target;
}

void IngestPath::deliver(std::span<const EdgeDelta> deltas,
                         const std::string& label, const IngestTarget& target,
                         mpc::RoutedBatch& scratch) const {
  // Charging a round for an empty batch would skew the per-structure round
  // accounting (front ends reach here on e.g. all-cancelling batches).
  if (deltas.empty()) return;
  if (cluster == nullptr || mode == mpc::ExecMode::kFlat) {
    target.flat(deltas);
    return;
  }
  const bool simulated = mode == mpc::ExecMode::kSimulated;
  SMPC_CHECK_MSG(!simulated || target.simulated.deliver != nullptr,
                 "simulated execution mode requires a Simulator");
  if (simulated && scheduler != nullptr && scheduler->enabled()) {
    // The adaptive control loop routes per chunk itself.
    scheduler->execute(deltas, universe, label, target.simulated);
    return;
  }
  // Route the batch to the machines hosting the affected endpoints (§6.1)
  // and charge the actual per-machine loads — not a flat broadcast (the
  // simulated executor charges and budgets them itself).
  cluster->route_batch(deltas, universe, scratch);
  if (simulated) {
    target.simulated.deliver(scratch, label);
    return;
  }
  cluster->charge_routed(scratch, label);
  target.routed(scratch);
}

}  // namespace streammpc
