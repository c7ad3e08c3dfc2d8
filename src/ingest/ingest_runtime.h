// The one ingest runtime every front end forwards its update batches to.
//
// The paper charges every phase's ingest the same way: route the batch to
// the machines hosting its endpoints, then apply it in O(1/phi) rounds
// under local memory s (§1.2, Theorem 6.7), with over-budget batches
// re-sized by the batch-dynamic discipline of Nowicki–Onak
// (arXiv:2002.07800).  IngestRuntime is that step, built once per front
// end: it owns the simulated executor (mpc::Simulator with the fault
// injector attached), the adaptive mpc::BatchScheduler, the optional async
// GutterIngest, and the routing scratch, and IngestPath::deliver is the
// single dispatch over mpc::ExecMode.  A front end holds one runtime and
// only forwards: submit() per batch, flush() before any sketch read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "graph/types.h"
#include "ingest/gutter_ingest.h"
#include "ingest/ingest_path.h"
#include "mpc/config.h"
#include "mpc/simulator.h"

namespace streammpc {

class VertexSketches;

// The settable ingest values of a front end.  ConnectivityConfig inherits
// all of them; AgmStaticConnectivity and StreamingConnectivity expose only
// the mode and the async opt-in, DynamicApproxMatching only the mode and
// the scheduler.
struct IngestConfig {
  // How batches execute against the attached cluster: flat in-process,
  // routed-with-accounting, or machine-by-machine simulation under
  // per-machine scratch budgets (see mpc::ExecMode / mpc::Simulator).
  // Ignored when no cluster is attached.
  mpc::ExecMode exec_mode = mpc::ExecMode::kRouted;
  // Adaptive batch scheduling (kSimulated mode only): when the split
  // policy is active, over-budget batches are deterministically bisected
  // and retried instead of throwing MemoryBudgetExceeded (see
  // mpc::BatchScheduler; default kAuto = the SMPC_SCHED env switch).
  mpc::SchedulerConfig scheduler;
  // Per-machine scratch budget for the simulated executor, in words
  // (0 = the cluster's local memory s) — the Simulator ctor's
  // scratch_words knob, exposed so a front end can run a tighter memory
  // discipline than s without shrinking the cluster itself.
  std::uint64_t simulator_scratch_words = 0;
  // Deterministic fault plan attached to the simulated executor
  // (kSimulated mode only; see mpc::FaultInjector).  Not owned; must
  // outlive the structure.  nullptr (default) = no faults, no
  // transactional overhead.
  mpc::FaultInjector* fault_injector = nullptr;
  // Async ingest front door (ingest/gutter_ingest.h): sketch deltas
  // buffer in per-vertex-block gutters and drain through worker-built
  // delta sketches; after a flush the resident state is byte-identical to
  // synchronous ingest of the same drain batches.
  bool async_ingest = false;
  // Geometry/thread knobs for the gutter (used iff async_ingest).  A
  // default-constructed label is replaced by the runtime's ledger label
  // ("<front end>/sketch-update"), so drain charges land exactly where
  // direct ingest puts them.
  GutterIngestConfig gutter;

  // Every other value at its default: the mode, plus the async opt-in
  // when `async_ingest` holds a gutter config.
  static IngestConfig of(
      mpc::ExecMode mode,
      const std::optional<GutterIngestConfig>& async_ingest = std::nullopt);
};

class IngestRuntime {
 public:
  // `sketches` (unowned, may be null for a front end that brings its own
  // IngestTarget) receives submit(deltas); `cluster` (unowned, may be null
  // = flat) must outlive the runtime.  `label` is the ledger label of
  // every submit that names none, the gutter's default included.  The
  // Simulator and BatchScheduler exist iff a cluster is attached in
  // kSimulated mode; the GutterIngest iff config.async_ingest.
  IngestRuntime(VertexId universe, mpc::Cluster* cluster,
                const IngestConfig& config, VertexSketches* sketches,
                const std::string& label);
  // Not copyable or movable: the targets and the gutter hold references
  // to the owner's sketches and to this runtime's simulator.
  IngestRuntime(const IngestRuntime&) = delete;
  IngestRuntime& operator=(const IngestRuntime&) = delete;

  // Delivers one batch to the sketches under the runtime's label (or
  // `label`) — or buffers it in the gutter, whose drains deliver the same
  // bytes under the gutter's label, possibly in a later phase than
  // submission (flush() bounds that).
  void submit(std::span<const EdgeDelta> deltas) { submit(deltas, label_); }
  void submit(std::span<const EdgeDelta> deltas, const std::string& label) {
    if (gutter_ != nullptr) return gutter_->submit(deltas);
    path_.deliver(deltas, label, sketch_target_, routed_);
  }
  // Delivers one batch to a caller-built target under the runtime's label
  // (never guttered).
  void submit(std::span<const EdgeDelta> deltas, const IngestTarget& target) {
    path_.deliver(deltas, label_, target, routed_);
  }
  // Drains the gutter (no-op without one); rethrows the first delivery
  // error, like GutterIngest::flush.
  void flush() {
    if (gutter_ != nullptr) gutter_->flush();
  }

  // Non-null iff a cluster is attached in kSimulated mode.
  const mpc::Simulator* simulator() const { return simulator_.get(); }
  mpc::Simulator* simulator() { return simulator_.get(); }
  // Non-null under the same condition; splits only when its resolved
  // policy is active (scheduler()->enabled()).
  const mpc::BatchScheduler* scheduler() const { return scheduler_.get(); }
  // Non-null iff config.async_ingest.
  const GutterIngest* gutter() const { return gutter_.get(); }

 private:
  IngestPath path_;
  std::string label_;
  std::unique_ptr<mpc::Simulator> simulator_;
  std::unique_ptr<mpc::BatchScheduler> scheduler_;
  IngestTarget sketch_target_;
  mpc::RoutedBatch routed_;
  // Declared last: its destructor flush delivers through the members
  // above.
  std::unique_ptr<GutterIngest> gutter_;
};

}  // namespace streammpc
