#include "ingest/ingest_runtime.h"

#include "common/check.h"

namespace streammpc {

IngestConfig IngestConfig::of(
    mpc::ExecMode mode, const std::optional<GutterIngestConfig>& async_ingest) {
  IngestConfig config;
  config.exec_mode = mode;
  config.async_ingest = async_ingest.has_value();
  if (async_ingest) config.gutter = *async_ingest;
  return config;
}

IngestRuntime::IngestRuntime(VertexId universe, mpc::Cluster* cluster,
                             const IngestConfig& config,
                             VertexSketches* sketches,
                             const std::string& label)
    : path_{universe, cluster, config.exec_mode, nullptr}, label_(label) {
  if (cluster != nullptr && config.exec_mode == mpc::ExecMode::kSimulated) {
    simulator_ = std::make_unique<mpc::Simulator>(
        *cluster, config.simulator_scratch_words);
    simulator_->attach_fault_injector(config.fault_injector);
    scheduler_ = std::make_unique<mpc::BatchScheduler>(*cluster, *simulator_,
                                                       config.scheduler);
    path_.scheduler = scheduler_.get();
  }
  if (sketches != nullptr)
    sketch_target_ = sketch_target(*sketches, simulator_.get());
  if (config.async_ingest) {
    SMPC_CHECK_MSG(sketches != nullptr, "async ingest needs vertex sketches");
    GutterIngestConfig gutter = config.gutter;
    if (gutter.label == GutterIngestConfig{}.label) gutter.label = label;
    gutter_ = std::make_unique<GutterIngest>(universe, *sketches, gutter,
                                             cluster, config.exec_mode,
                                             simulator_.get(),
                                             scheduler_.get());
  }
}

}  // namespace streammpc
