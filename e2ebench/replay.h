// The traced run's replay: every batch's sketch deltas and tree-edge
// changes, pushed through the lower layers' public entry points on shadow
// instances so each layer can be timed from outside the library.
//
// The shadow mirrors what DynamicConnectivity does with one batch: the
// normalized inserts, then the deletes, go to the sketches through the
// same path the front end's exec mode selects (route + charge + ingest,
// route + probe + simulate, or gutter submit, with a gutter flush wherever
// the front end flushes), and the forest applies the batch's diff of
// tree_edges() as one batch_cut plus one batch_link.  identical_to() and
// same_ledger() then check that the shadow reached the same bytes and the
// same ledger as the front end.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic_connectivity.h"
#include "euler/tour_forest.h"
#include "harness.h"
#include "ingest/gutter_ingest.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace e2ebench {

class ShadowReplay {
 public:
  ShadowReplay(streammpc::VertexId n,
               const streammpc::ConnectivityConfig& config,
               const streammpc::mpc::MpcConfig& mpc_config);

  ShadowReplay(const ShadowReplay&) = delete;
  ShadowReplay& operator=(const ShadowReplay&) = delete;

  // Mirrors DynamicConnectivity::bootstrap (untimed set-up).
  void bootstrap(std::span<const streammpc::Edge> edges,
                 const streammpc::DynamicConnectivity& front);
  // Mirrors one apply_batch; `front` has already applied it.  Spans land
  // in `trace` under their per-layer names.
  void batch(const streammpc::Batch& batch,
             const streammpc::DynamicConnectivity& front, Trace& trace);
  // Mirrors a gutter flush outside apply_batch (snapshot, flush_ingest).
  void flush(Trace& trace);
  // Clears the shadow's comm ledger, as the runner clears the front end's
  // before every iteration.
  void reset_ledger();
  // True when the shadow's comm ledger equals `front`'s.
  bool same_ledger(const streammpc::mpc::CommLedger& front) const;

  // Empty when the shadow's sketch arenas (every level record of every
  // vertex and bank) and tree-edge set equal the front end's; otherwise a
  // description of the first difference.
  std::string identical_to(const streammpc::DynamicConnectivity& front) const;

 private:
  void ingest(std::span<const streammpc::EdgeDelta> deltas,
              const std::string& label, Trace& trace);
  void follow_forest(const streammpc::DynamicConnectivity& front,
                     Trace* trace);

  streammpc::VertexId n_;
  streammpc::mpc::ExecMode mode_;
  streammpc::mpc::Cluster cluster_;
  streammpc::VertexSketches sketches_;
  streammpc::EulerTourForest forest_;
  std::unique_ptr<streammpc::mpc::Simulator> simulator_;
  std::unique_ptr<streammpc::mpc::BatchScheduler> scheduler_;
  streammpc::mpc::RoutedBatch routed_;
  std::vector<streammpc::EdgeDelta> deltas_;
  // Declared last: its destructor flushes into the members above.
  std::unique_ptr<streammpc::GutterIngest> gutter_;
};

}  // namespace e2ebench
