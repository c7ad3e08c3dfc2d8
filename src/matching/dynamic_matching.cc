#include "matching/dynamic_matching.h"

#include "common/check.h"
#include "common/random.h"
#include "mpc/primitives.h"

namespace streammpc {

namespace {

// Matching's two ingest values: the mode and the scheduler.
IngestConfig ingest_config(const DynamicMatchingConfig& config) {
  IngestConfig ingest = IngestConfig::of(config.exec_mode);
  ingest.scheduler = config.scheduler;
  return ingest;
}

}  // namespace

DynamicApproxMatching::DynamicApproxMatching(
    VertexId n, const DynamicMatchingConfig& config, mpc::Cluster* cluster)
    : n_(n),
      cluster_(cluster),
      ingest_(n, cluster, ingest_config(config), /*sketches=*/nullptr,
              "matching/sketch-update") {
  SMPC_CHECK(n >= 2);
  target_.flat = [this](std::span<const EdgeDelta> deltas) {
    for (const EdgeDelta& d : deltas)
      for (auto& inst : guesses_) inst.sparsifier->apply_delta(d.e, d.delta);
  };
  target_.routed = [this](const mpc::RoutedBatch& routed) {
    for (std::uint64_t m = 0; m < routed.machines(); ++m)
      apply_owned(routed.machine_items(m));
  };
  target_.simulated.resident = [this](std::span<std::uint64_t> out) {
    for (auto& inst : guesses_) inst.sparsifier->add_resident_words(out);
  };
  target_.simulated.deliver = [this](const mpc::RoutedBatch& routed,
                                     const std::string& label) {
    // The sampler shards' resident words are charged only when the
    // scheduler probes them.  With it disabled the delivery keeps
    // resident = 0: nothing reads the fold then, and charging it would
    // change the budget gate and the ledger of every scheduler-off run.
    std::span<const std::uint64_t> resident;
    if (ingest_.scheduler()->enabled()) {
      resident_scratch_.assign(cluster_->machines(), 0);
      target_.simulated.resident(resident_scratch_);
      resident = resident_scratch_;
    }
    ingest_.simulator()->execute(
        routed, label,
        [this](std::uint64_t, std::span<const mpc::RoutedBatch::Item> items) {
          apply_owned(items);
        },
        resident);
  };
  SplitMix64 sm(config.seed);
  for (std::uint64_t guess = n; guess >= 1; guess /= 2) {
    Instance inst;
    inst.opt_guess = guess;
    AklyConfig ac;
    ac.alpha = config.alpha;
    ac.opt_guess = guess;
    ac.shape = config.shape;
    ac.seed = sm.next();
    inst.sparsifier = std::make_unique<AklySparsifier>(n, ac);
    // The Theta(log n) guesses run in parallel on the MPC: a phase costs
    // the max of the instances' round bills, so only the largest guess
    // (the first, with the dominating sparsifier) carries the cluster.
    inst.maximal = std::make_unique<BatchMaximalMatching>(
        config.kappa, guesses_.empty() ? cluster : nullptr);
    guesses_.push_back(std::move(inst));
    if (guess == 1) break;
  }
}

void DynamicApproxMatching::apply_owned(
    std::span<const mpc::RoutedBatch::Item> items) {
  // Every delta lands once; samplers are linear, so the machine schedule
  // is irrelevant to the resulting state.
  for (const mpc::RoutedBatch::Item& item : items) {
    if (!(item.endpoints & mpc::RoutedBatch::kEndpointU)) continue;
    for (auto& inst : guesses_)
      inst.sparsifier->apply_delta(item.delta.e, item.delta.delta);
  }
}

void DynamicApproxMatching::apply_batch(const Batch& batch) {
  if (cluster_ != nullptr) cluster_->begin_phase();
  mpc::sort(cluster_, batch.size(), "matching/preprocess");
  // Route the batch to the machines hosting the endpoint state — the
  // actual per-machine delta loads, not a flat broadcast.  The Theta(log
  // n) guesses run in parallel on the MPC (each machine hosts a shard of
  // every guess), so one delivery serves them all.
  delta_scratch_.clear();
  delta_scratch_.reserve(batch.size());
  for (const Update& u : batch) {
    delta_scratch_.push_back(
        EdgeDelta{u.e, u.type == UpdateType::kInsert ? 1 : -1});
  }
  for (auto& inst : guesses_) inst.sparsifier->begin_batch(batch);
  ingest_.submit(delta_scratch_, target_);
  for (auto& inst : guesses_) {
    auto delta = inst.sparsifier->finish_batch();
    inst.maximal->apply(delta.remove, delta.add);
  }
  if (cluster_ != nullptr)
    cluster_->set_usage("matching/dynamic", memory_words());
}

std::vector<Edge> DynamicApproxMatching::matching() const {
  const Instance* best = nullptr;
  for (const auto& inst : guesses_) {
    if (best == nullptr || inst.maximal->size() > best->maximal->size())
      best = &inst;
  }
  return best == nullptr ? std::vector<Edge>{} : best->maximal->matching();
}

std::size_t DynamicApproxMatching::matching_size() const {
  std::size_t best = 0;
  for (const auto& inst : guesses_)
    best = std::max(best, inst.maximal->size());
  return best;
}

std::uint64_t DynamicApproxMatching::memory_words() const {
  std::uint64_t total = 0;
  for (const auto& inst : guesses_) {
    total += inst.sparsifier->memory_words() + inst.maximal->memory_words();
  }
  return total;
}

}  // namespace streammpc
