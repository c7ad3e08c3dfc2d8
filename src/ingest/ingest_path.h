// The one dispatch over mpc::ExecMode that every ingest delivery goes
// through: IngestRuntime's synchronous submits and GutterIngest's
// simulated drains both call IngestPath::deliver.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "graph/types.h"
#include "mpc/batch_scheduler.h"
#include "mpc/config.h"

namespace streammpc {

class VertexSketches;

// Where one delivered batch lands, per mode.  `flat` applies the raw
// deltas (kFlat, or no cluster); `routed` applies a routed batch whose
// per-machine loads were already charged (kRouted); `simulated` is the
// scheduler's resident + deliver pair (kSimulated — the deliver hook runs
// the Simulator, which charges and budgets).
struct IngestTarget {
  std::function<void(std::span<const EdgeDelta>)> flat;
  std::function<void(const mpc::RoutedBatch&)> routed;
  mpc::BatchScheduler::Target simulated;
};

// The vertex-sketch target: update_edges for kFlat/kRouted, and — when a
// simulator is given — BatchScheduler::sketch_target for kSimulated.
IngestTarget sketch_target(VertexSketches& sketches,
                           mpc::Simulator* simulator);

// How a batch reaches the machines (non-owning).
struct IngestPath {
  VertexId universe = 0;
  mpc::Cluster* cluster = nullptr;
  mpc::ExecMode mode = mpc::ExecMode::kFlat;
  mpc::BatchScheduler* scheduler = nullptr;  // kSimulated only; may be null

  // THE ExecMode dispatch.  Every mode applies the same bytes (the state
  // is linear); they differ only in routing, accounting, and enforcement:
  //   kFlat, or no cluster — target.flat(deltas); nothing charged;
  //   kRouted    — route under [0, universe), charge the per-machine
  //                loads under `label`, then target.routed;
  //   kSimulated — with an enabled scheduler, its probe/split/retry/grow
  //                loop over target.simulated; otherwise route and
  //                target.simulated.deliver once.
  // An empty batch delivers nothing and charges nothing.  `scratch` is the
  // caller's reusable routing buffer.
  void deliver(std::span<const EdgeDelta> deltas, const std::string& label,
               const IngestTarget& target, mpc::RoutedBatch& scratch) const;
};

}  // namespace streammpc
