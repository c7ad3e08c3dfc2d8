#include "systems.h"

#include <algorithm>
#include <sstream>

#include "core/dynamic_connectivity.h"
#include "matching/dynamic_matching.h"
#include "replay.h"

namespace e2ebench {

using namespace streammpc;

namespace {

const char* mode_name(mpc::ExecMode mode) {
  switch (mode) {
    case mpc::ExecMode::kFlat: return "flat";
    case mpc::ExecMode::kRouted: return "routed";
    case mpc::ExecMode::kSimulated: return "simulated";
  }
  return "?";
}

const char* policy_name(mpc::SplitPolicy policy) {
  switch (policy) {
    case mpc::SplitPolicy::kAuto: return "auto";
    case mpc::SplitPolicy::kNone: return "none";
    case mpc::SplitPolicy::kBisect: return "bisect";
    case mpc::SplitPolicy::kProportional: return "proportional";
  }
  return "?";
}

mpc::MpcConfig mpc_config_for(const Spec& spec) {
  mpc::MpcConfig config;
  config.n = spec.n;
  return config;
}

class ConnectivitySystem final : public System {
 public:
  ConnectivitySystem(const Spec& spec, const Stream& stream, Trace* trace)
      : spec_(spec),
        mpc_config_(mpc_config_for(spec)),
        cluster_(mpc_config_),
        config_(config_for(spec)),
        dc_(spec.n, config_, &cluster_),
        oracle_(spec.n),
        trace_(trace) {
    if (trace_ != nullptr)
      shadow_ = std::make_unique<ShadowReplay>(spec.n, config_, mpc_config_);
    if (!stream.initial().empty()) {
      dc_.bootstrap(stream.initial());
      if (shadow_) shadow_->bootstrap(stream.initial(), dc_);
    }
    oracle_.rebuild(stream.pool().live());
  }

  Tick apply(const Batch& batch, const Stream& stream) override {
    Tick t;
    const std::uint64_t r0 = cluster_.rounds();
    t.front_ms = time_ms([&] { dc_.apply_batch(batch); });
    t.rounds = cluster_.rounds() - r0;
    t.bench_ms = time_ms([&] {
      const bool deletes =
          std::any_of(batch.begin(), batch.end(), [](const Update& u) {
            return u.type == UpdateType::kDelete;
          });
      if (deletes) {
        oracle_.rebuild(stream.pool().live());
      } else {
        for (const Update& u : batch) oracle_.insert(u.e);
      }
      if (trace_ == nullptr) return;
      const double before = trace_->total_ms();
      shadow_->batch(batch, dc_, *trace_);
      const double children = trace_->total_ms() - before;
      trace_->span("core.apply_batch_ms", t.front_ms);
      trace_->span("core.apply_self_ms", t.front_ms - children);
      trace_->count("sketch.planned_shards",
                    dc_.sketches().last_planned_shards());
    });
    return t;
  }

  Tick read(Stream& stream, std::uint64_t batch_no) override {
    Tick t;
    const bool snapshot_due = batch_no % spec_.snapshot_every == 0;
    if (!spec_.batch_query && !snapshot_due) return t;
    t.read = true;
    std::vector<std::pair<VertexId, VertexId>> pairs;
    t.bench_ms += time_ms([&] { pairs = stream.query_pairs(spec_.queries); });
    std::vector<bool> answers(pairs.size());
    if (spec_.batch_query) {
      const double ms = time_ms([&] { answers = dc_.batch_query(pairs); });
      t.front_ms += ms;
      span("core.query_ms", ms);
    }
    if (snapshot_due) {
      QueryCache::SnapshotPtr snap;
      const std::uint64_t r0 = cluster_.rounds();
      const double snap_ms = time_ms([&] { snap = dc_.snapshot(); });
      t.rounds += cluster_.rounds() - r0;
      t.front_ms += snap_ms;
      span("core.snapshot_ms", snap_ms);
      if (!spec_.batch_query) {
        const double ms = time_ms([&] {
          for (std::size_t i = 0; i < pairs.size(); ++i)
            answers[i] = snap->connected(pairs[i].first, pairs[i].second);
        });
        t.front_ms += ms;
        span("core.query_ms", ms);
      }
      t.bench_ms += time_ms([&] {
        if (shadow_) shadow_->flush(*trace_);
        ++t.checks;
        if (snap->labels != oracle_.labels()) ++t.wrong;
      });
    }
    t.queries = pairs.size();
    t.bench_ms += time_ms([&] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        ++t.checks;
        if (answers[i] != oracle_.connected(pairs[i].first, pairs[i].second))
          ++t.wrong;
      }
    });
    return t;
  }

  Tick flush() override {
    Tick t;
    const std::uint64_t r0 = cluster_.rounds();
    t.front_ms = time_ms([&] { dc_.flush_ingest(); });
    t.rounds = cluster_.rounds() - r0;
    span("core.flush_ms", t.front_ms);
    if (shadow_) t.bench_ms = time_ms([&] { shadow_->flush(*trace_); });
    return t;
  }

  std::string final_check(const Stream& stream) override {
    if (dc_.labels() != reference_labels(spec_.n, stream.pool().live()))
      return "final labels differ from the BFS reference";
    return "";
  }

  std::uint64_t memory_words() const override { return dc_.memory_words(); }
  mpc::Cluster& cluster() override { return cluster_; }

  void reset_ledger() override {
    if (shadow_ && !shadow_->same_ledger(cluster_.comm_ledger()))
      ++ledger_mismatches_;
    cluster_.comm_ledger().reset(cluster_.machines());
    if (shadow_) shadow_->reset_ledger();
  }

  void begin_window() override {
    base_ = Baseline{};
    base_.core = dc_.stats();
    base_.query = dc_.query_cache().stats();
    if (dc_.simulator()) base_.sim = dc_.simulator()->stats();
    if (dc_.scheduler()) base_.sched = dc_.scheduler()->stats();
    if (dc_.gutter()) base_.gutter = dc_.gutter()->stats();
    base_.auto_sharded = dc_.sketches().auto_sharded_batches();
  }

  std::map<std::string, double> layer_counters(
      std::uint64_t batches) const override {
    std::map<std::string, double> out;
    const double per = batches == 0 ? 0 : 1.0 / static_cast<double>(batches);
    const auto delta = [per](std::uint64_t now, std::uint64_t base) {
      return static_cast<double>(now - base) * per;
    };
    const auto& core = dc_.stats();
    out["core.boruvka_levels"] =
        delta(core.boruvka_levels, base_.core.boruvka_levels);
    out["core.empty_levels"] = delta(core.empty_levels, base_.core.empty_levels);
    out["core.tree_deletes"] = delta(core.tree_deletes, base_.core.tree_deletes);
    out["core.replacements"] =
        delta(core.replacements_found, base_.core.replacements_found);
    const auto& query = dc_.query_cache().stats();
    out["query.hits"] = delta(query.hits, base_.query.hits);
    out["query.repairs"] = delta(query.repairs, base_.query.repairs);
    out["query.rebuilds"] = delta(query.rebuilds, base_.query.rebuilds);
    out["sketch.planned_shards"] =
        trace_ ? trace_->counter("sketch.planned_shards") * per : 0;
    out["sketch.auto_sharded_batches"] =
        delta(dc_.sketches().auto_sharded_batches(), base_.auto_sharded);
    out["sketch.allocated_words"] =
        static_cast<double>(dc_.sketches().allocated_words());
    if (const auto* sim = dc_.simulator()) {
      out["sim.cell_steps"] =
          delta(sim->stats().cell_steps, base_.sim.cell_steps);
      out["sim.machine_steps"] =
          delta(sim->stats().machine_steps, base_.sim.machine_steps);
    }
    if (const auto* sched = dc_.scheduler()) {
      out["sched.subbatches"] =
          delta(sched->stats().subbatches, base_.sched.subbatches);
    }
    if (const auto* gutter = dc_.gutter()) {
      const auto& g = gutter->stats();
      out["gutter.flushes"] = delta(g.flushes, base_.gutter.flushes);
      out["gutter.flush_drains"] =
          delta(g.flush_drains, base_.gutter.flush_drains);
      out["gutter.capacity_drains"] =
          delta(g.capacity_drains, base_.gutter.capacity_drains);
      out["gutter.delta_batches"] =
          delta(g.delta_batches, base_.gutter.delta_batches);
      const std::uint64_t flushes = g.flushes - base_.gutter.flushes;
      out["gutter.drains_per_flush"] =
          flushes == 0 ? 0
                       : static_cast<double>(g.flush_drains -
                                             base_.gutter.flush_drains) /
                             static_cast<double>(flushes);
    }
    return out;
  }

  std::string replay_check() const override {
    if (!shadow_) return "";
    if (ledger_mismatches_ != 0)
      return std::to_string(ledger_mismatches_) +
             " iterations left different comm ledgers";
    return shadow_->identical_to(dc_);
  }

  std::string settings() const override {
    const auto& sk = dc_.sketches();
    std::ostringstream os;
    os << "mode=" << mode_name(config_.exec_mode)
       << " machines=" << cluster_.machines()
       << " sketch.banks=" << sk.banks() << " sketch.shards="
       << (sk.adaptive_shards() ? std::string("auto")
                                : std::to_string(sk.shards()))
       << " sketch.ingest_threads=" << config_.sketch.ingest_threads;
    if (const auto* sim = dc_.simulator())
      os << " sim.grid_threads=" << sim->grid_threads();
    if (const auto* sched = dc_.scheduler())
      os << " sched.policy=" << policy_name(sched->policy());
    if (const auto* gutter = dc_.gutter())
      os << " gutter.drain_threads=" << gutter->drain_threads()
         << " gutter.gutters=" << gutter->gutters();
    return os.str();
  }

 private:
  static ConnectivityConfig config_for(const Spec& spec) {
    ConnectivityConfig config;
    config.exec_mode = spec.mode;
    config.scheduler.policy = spec.policy;
    config.async_ingest = spec.async_ingest;
    config.gutter.drain_threads = spec.drain_threads;
    config.sketch.ingest_threads = kPoolThreads;
    return config;
  }

  void span(const std::string& name, double ms) {
    if (trace_ != nullptr) trace_->span(name, ms);
  }

  struct Baseline {
    DynamicConnectivity::Stats core;
    QueryCache::Stats query;
    mpc::Simulator::Stats sim;
    mpc::BatchScheduler::Stats sched;
    GutterIngest::Stats gutter;
    std::uint64_t auto_sharded = 0;
  };

  const Spec& spec_;
  mpc::MpcConfig mpc_config_;
  mpc::Cluster cluster_;
  ConnectivityConfig config_;
  DynamicConnectivity dc_;
  ConnectivityOracle oracle_;
  Trace* trace_;
  std::unique_ptr<ShadowReplay> shadow_;
  Baseline base_;
  std::uint64_t ledger_mismatches_ = 0;
};

class MatchingSystem final : public System {
 public:
  MatchingSystem(const Spec& spec, Trace* trace)
      : spec_(spec),
        cluster_(mpc_config_for(spec)),
        matching_(spec.n, config_for(spec), &cluster_),
        trace_(trace) {}

  Tick apply(const Batch& batch, const Stream&) override {
    Tick t;
    const std::uint64_t r0 = cluster_.rounds();
    t.front_ms = time_ms([&] { matching_.apply_batch(batch); });
    t.rounds = cluster_.rounds() - r0;
    if (trace_ != nullptr) trace_->span("matching.apply_ms", t.front_ms);
    return t;
  }

  Tick read(Stream& stream, std::uint64_t) override {
    Tick t;
    t.read = true;
    std::vector<Edge> found;
    t.front_ms = time_ms([&] { found = matching_.matching(); });
    if (trace_ != nullptr) trace_->span("matching.read_ms", t.front_ms);
    t.queries = 1;
    t.bench_ms = time_ms([&] {
      ++t.checks;
      if (!valid_matching(spec_.n, found, stream.pool())) ++t.wrong;
    });
    return t;
  }

  Tick flush() override { return Tick{}; }

  std::string final_check(const Stream& stream) override {
    if (!valid_matching(spec_.n, matching_.matching(), stream.pool()))
      return "final matching is not a matching of live edges";
    return "";
  }

  std::uint64_t memory_words() const override {
    return matching_.memory_words();
  }
  mpc::Cluster& cluster() override { return cluster_; }

  void reset_ledger() override {
    cluster_.comm_ledger().reset(cluster_.machines());
  }

  std::string settings() const override {
    std::ostringstream os;
    os << "mode=" << mode_name(config_for(spec_).exec_mode)
       << " machines=" << cluster_.machines()
       << " matching.instances=" << matching_.instances();
    return os.str();
  }

 private:
  static DynamicMatchingConfig config_for(const Spec& spec) {
    DynamicMatchingConfig config;
    config.exec_mode = spec.mode;
    config.scheduler.policy = spec.policy;
    return config;
  }

  const Spec& spec_;
  mpc::Cluster cluster_;
  DynamicApproxMatching matching_;
  Trace* trace_;
};

}  // namespace

std::unique_ptr<System> make_system(const Spec& spec, const Stream& stream,
                                    Trace* trace) {
  if (spec.front == Spec::Front::kMatching)
    return std::make_unique<MatchingSystem>(spec, trace);
  return std::make_unique<ConnectivitySystem>(spec, stream, trace);
}

}  // namespace e2ebench
