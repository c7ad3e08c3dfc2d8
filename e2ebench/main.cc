// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload <churn|grow|serve|matching> --seed <n>
//            --seconds <s> --trace <0|1>
//
// --trace 0 drives the workload's front end through its seeded
// update-and-query stream for about --seconds and reports the end-to-end
// metrics.  --trace 1 runs the same stream twice — untraced, then traced
// with the shadow replay (replay.h) — and reports the per-layer metrics
// plus the tracing overhead.  Every answer is checked against the oracle;
// the last stdout line is the JSON result, and the exit code is non-zero
// when any check failed.  See README.md for the workloads and metrics.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "systems.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0))
        return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// Everything one measured window accumulates.
struct Window {
  Samples apply_ms;
  Samples read_ms;
  double update_ms = 0;  // apply_batch + flush_ingest
  double read_total_ms = 0;
  double front_ms = 0;  // all front-end calls
  double bench_ms = 0;  // generation, oracle, replay, checks
  double wall_ms = 0;
  double host_steal_pct = 0;  // share of host CPU time stolen meanwhile
  std::uint64_t batches = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;
  std::uint64_t update_rounds = 0;
  std::uint64_t memory_peak = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Comm-ledger totals, read and cleared around every iteration, and the
  // cluster's rounds per label over the window.
  std::uint64_t ledger_words = 0;
  double phase_max_load_sum = 0;
  std::uint64_t delivering_phases = 0;
  std::uint64_t peak_machine_total = 0;
  std::vector<std::uint64_t> words_by_machine;
  std::map<std::string, std::uint64_t> rounds_by_label;

  // Model counts over the workload's fixed batch prefix.
  bool model_frozen = false;
  double rounds_per_batch = 0;
  double comm_words_per_update = 0;
  double max_load_words = 0;  // mean per-phase max, delivering phases
  std::uint64_t model_memory_peak = 0;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

class Runner {
 public:
  Runner(const Spec& spec, std::uint64_t seed, Trace* trace)
      : spec_(spec), seed_(seed), trace_(trace) {}

  // Builds a fresh system over a fresh copy of the stream: construction,
  // bootstrap and the warm-up batches with their read rounds.  Returns
  // the set-up seconds, bench-side work excluded.
  double setup(Window& w) {
    system_.reset();
    stream_ = std::make_unique<Stream>(spec_, seed_);
    batch_no_ = 0;
    double bench_ms = 0;
    std::size_t warmup = spec_.warmup_batches;
    if (spec_.front == Spec::Front::kMatching)  // initial graph as inserts
      warmup += (spec_.initial_edges + spec_.batch_size - 1) / spec_.batch_size;
    const auto t0 = Clock::now();
    system_ = make_system(spec_, *stream_, trace_);
    for (std::size_t i = 0; i < warmup; ++i) {
      Batch batch;
      bench_ms += time_ms([&] { batch = stream_->next(); });
      const Tick a = system_->apply(batch, *stream_);
      ++batch_no_;
      const Tick r = system_->read(*stream_, batch_no_);
      bench_ms += a.bench_ms + r.bench_ms;
      w.attempted += 1 + (r.read ? 1 : 0);
      if (r.wrong != 0) w.fail("wrong answer in a warm-up read round");
    }
    return (ms_between(t0, Clock::now()) - bench_ms) / 1000.0;
  }

  System& system() { return *system_; }

  void begin_window() {
    system_->begin_window();
    rounds_base_ = system_->cluster().rounds_by_label();
  }

  // One batch and its read round.  False when the stream is exhausted or
  // an operation threw (recorded in `w`).
  bool step(Window& w) {
    Batch batch;
    w.bench_ms += time_ms([&] { batch = stream_->next(); });
    if (batch.empty()) return false;
    system_->reset_ledger();
    ++w.attempted;
    Tick a;
    try {
      a = system_->apply(batch, *stream_);
    } catch (const std::exception& e) {
      w.fail(std::string("apply_batch threw: ") + e.what());
      return false;
    }
    ++batch_no_;
    ++w.batches;
    w.updates += batch.size();
    w.apply_ms.add(a.front_ms);
    w.update_ms += a.front_ms;
    w.update_rounds += a.rounds;
    w.front_ms += a.front_ms;
    w.bench_ms += a.bench_ms;
    w.bench_ms += time_ms([&] {
      w.memory_peak = std::max(w.memory_peak, system_->memory_words());
    });
    Tick r;
    try {
      r = system_->read(*stream_, batch_no_);
    } catch (const std::exception& e) {
      ++w.attempted;
      w.fail(std::string("read round threw: ") + e.what());
      return false;
    }
    if (r.read) {
      ++w.attempted;
      ++w.reads;
      w.read_ms.add(r.front_ms);
      w.read_total_ms += r.front_ms;
      w.queries += r.queries;
      if (r.wrong != 0)
        w.fail("read round " + std::to_string(batch_no_) + ": " +
               std::to_string(r.wrong) + " of " + std::to_string(r.checks) +
               " answers disagree with the oracle");
    }
    w.update_rounds += r.rounds;
    w.front_ms += r.front_ms;
    w.bench_ms += r.bench_ms;
    fold_ledger(w);
    if (w.batches == spec_.model_batches) freeze_model(w);
    return true;
  }

  // Final flush (timed as update work) and the full-state check.
  void finish(Window& w) {
    ++w.attempted;
    system_->reset_ledger();
    try {
      const Tick f = system_->flush();
      w.update_ms += f.front_ms;
      w.update_rounds += f.rounds;
      w.front_ms += f.front_ms;
      w.bench_ms += f.bench_ms;
    } catch (const std::exception& e) {
      w.fail(std::string("flush_ingest threw: ") + e.what());
      return;
    }
    fold_ledger(w);
    for (const auto& [label, rounds] : system_->cluster().rounds_by_label()) {
      const auto it = rounds_base_.find(label);
      w.rounds_by_label[label] +=
          rounds - (it == rounds_base_.end() ? 0 : it->second);
    }
    if (!w.model_frozen) freeze_model(w);
    std::string error;
    w.bench_ms += time_ms([&] { error = system_->final_check(*stream_); });
    if (!error.empty()) w.fail(error);
  }

  void freeze_model(Window& w) {
    w.model_frozen = true;
    w.rounds_per_batch = static_cast<double>(w.update_rounds) /
                         static_cast<double>(std::max<std::uint64_t>(w.batches, 1));
    w.comm_words_per_update =
        static_cast<double>(w.ledger_words) /
        static_cast<double>(std::max<std::uint64_t>(w.updates, 1));
    w.max_load_words =
        w.phase_max_load_sum /
        static_cast<double>(std::max<std::uint64_t>(w.delivering_phases, 1));
    w.model_memory_peak = w.memory_peak;
  }

  // Adds the comm ledger of the iteration that just ran to the window.
  void fold_ledger(Window& w) {
    const auto& ledger = system_->cluster().comm_ledger();
    w.ledger_words += ledger.total_words();
    if (ledger.rounds() != 0) {
      w.phase_max_load_sum += static_cast<double>(ledger.max_machine_load());
      ++w.delivering_phases;
    }
    w.peak_machine_total =
        std::max(w.peak_machine_total, ledger.peak_machine_total_words());
    const auto& words = ledger.words_by_machine();
    if (w.words_by_machine.size() < words.size())
      w.words_by_machine.resize(words.size(), 0);
    for (std::size_t m = 0; m < words.size(); ++m)
      w.words_by_machine[m] += words[m];
  }

 private:
  const Spec& spec_;
  std::uint64_t seed_;
  Trace* trace_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<System> system_;
  std::uint64_t batch_no_ = 0;
  std::map<std::string, std::uint64_t> rounds_base_;
};

double elapsed_ms(Clock::time_point since) {
  return ms_between(since, Clock::now());
}

// Per-layer metrics: spans in ms per measured batch, then counters.
const std::vector<std::string> kSpans = {
    "core.apply_batch_ms", "core.apply_self_ms", "core.snapshot_ms",
    "core.query_ms",       "core.flush_ms",      "matching.apply_ms",
    "matching.read_ms",    "mpc.route_ms",       "mpc.charge_ms",
    "sketch.update_edges_ms", "mpc.execute_ms",  "mpc.probe_ms",
    "ingest.submit_ms",    "ingest.flush_ms",    "euler.batch_cut_ms",
    "euler.batch_link_ms"};
const std::vector<std::string> kFrontSpans = {
    "core.apply_batch_ms", "core.snapshot_ms", "core.query_ms",
    "core.flush_ms",       "matching.apply_ms", "matching.read_ms"};
const std::vector<std::pair<std::string, std::string>> kCounters = {
    {"core.boruvka_levels", "count"},
    {"core.empty_levels", "count"},
    {"core.tree_deletes", "count"},
    {"core.replacements", "count"},
    {"sketch.planned_shards", "count"},
    {"sketch.auto_sharded_batches", "count"},
    {"sketch.allocated_words", "words"},
    {"sim.cell_steps", "count"},
    {"sim.machine_steps", "count"},
    {"sched.subbatches", "count"},
    {"gutter.flushes", "count"},
    {"gutter.flush_drains", "count"},
    {"gutter.capacity_drains", "count"},
    {"gutter.delta_batches", "count"},
    {"gutter.drains_per_flush", "count"},
    {"query.hits", "count"},
    {"query.repairs", "count"},
    {"query.rebuilds", "count"}};
// Cluster round labels (rounds_by_label) reported one by one; rounds
// under any other label are summed into mpc.rounds.other.
const std::vector<std::string> kRoundLabels = {
    "connectivity.preprocess",  "connectivity.batch",
    "connectivity.aux-H",       "connectivity.sketch-update",
    "connectivity.sketch-merge", "connectivity.boruvka-gather",
    "connectivity.relabel",     "connectivity.query-batch",
    "euler.batch-join",         "euler.batch-split",
    "matching.preprocess",      "matching.sketch-update",
    "matching.maximal-batch"};

// Runs batches into `w` until `budget_ms` has passed and at least
// `min_batches` ran, or `max_batches` ran.  A finite stream that runs out
// ends the window unless `setups` is given and another whole pass fits in
// the budget: then a fresh system replays the stream (its set-up time is
// one more setup sample).
void run_window(Window& w, Runner& runner, std::uint64_t max_batches,
                double budget_ms, std::uint64_t min_batches, Samples* setups) {
  runner.begin_window();
  const auto steal0 = cpu_steal_ticks();
  const auto start = Clock::now();
  auto pass_start = start;
  bool finished = false;
  for (;;) {
    if (w.batches >= max_batches) break;
    const bool more = runner.step(w);
    if (!more && w.failed != 0) break;
    if (!more) {  // a finite stream ran out: finish this pass
      runner.finish(w);
      const double pass_ms = elapsed_ms(pass_start);
      finished = setups == nullptr || elapsed_ms(start) + pass_ms > budget_ms;
      if (finished) break;
      setups->add(runner.setup(w));
      runner.begin_window();
      pass_start = Clock::now();
      continue;
    }
    if (elapsed_ms(start) >= budget_ms && w.batches >= min_batches) break;
  }
  if (!finished) runner.finish(w);
  w.wall_ms = elapsed_ms(start);
  const auto steal1 = cpu_steal_ticks();
  if (steal1.second > steal0.second)
    w.host_steal_pct = 100.0 * static_cast<double>(steal1.first - steal0.first) /
                       static_cast<double>(steal1.second - steal0.second);
}

void print_summary(const Spec& spec, const std::string& settings,
                   const Window& w) {
  std::cout << "# workload=" << spec.name << " n=" << spec.n
            << " batch_size=" << spec.batch_size << " " << settings
            << " nproc=" << std::thread::hardware_concurrency()
            << " peak_rss_mb=" << peak_rss_mb() << "\n";
  std::cout << "# batches=" << w.batches << " reads=" << w.reads
            << " updates=" << w.updates << " queries=" << w.queries
            << " attempted=" << w.attempted << " failed=" << w.failed
            << " failed_ops_ratio="
            << static_cast<double>(w.failed) /
                   static_cast<double>(std::max<std::uint64_t>(w.attempted, 1))
            << " host_steal_pct=" << w.host_steal_pct << "\n";
  for (const std::string& e : w.errors) std::cout << "# error: " << e << "\n";
}

int emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
         const MetricList& metrics) {
  metrics.print_table(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

int run_untraced(const Spec& spec, const Args& args) {
  Runner runner(spec, args.seed, nullptr);
  Window w;
  Samples setups;
  constexpr int kSetups = 3;  // setup_s is their median
  for (int i = 0; i < kSetups; ++i) setups.add(runner.setup(w));
  const std::string settings = runner.system().settings();
  run_window(w, runner, ~std::uint64_t{0}, args.seconds * 1000.0,
             spec.model_batches, &setups);

  MetricList m;
  m.add("updates_per_s", static_cast<double>(w.updates) / (w.update_ms / 1000.0),
        "updates/s");
  m.add("batch_p50_ms", w.apply_ms.quantile(0.50), "ms");
  m.add("batch_p95_ms", w.apply_ms.quantile(0.95), "ms");
  m.add("read_p50_ms", w.read_ms.quantile(0.50), "ms");
  m.add("read_p95_ms", w.read_ms.quantile(0.95), "ms");
  m.add("queries_per_s",
        static_cast<double>(w.queries) / (w.read_total_ms / 1000.0),
        "queries/s");
  m.add("rounds_per_batch", w.rounds_per_batch, "rounds");
  m.add("max_machine_load_words", w.max_load_words, "words");
  m.add("comm_words_per_update", w.comm_words_per_update, "words");
  m.add("memory_words_peak", static_cast<double>(w.model_memory_peak),
        "words");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", setups.quantile(0.5), "s");
  print_summary(spec, settings, w);
  std::cout << "# samples: batches=" << w.apply_ms.size()
            << " reads=" << w.read_ms.size() << " setups=" << setups.size()
            << "\n";
  return emit(w.failed == 0, w.attempted, w.failed, m);
}

int run_traced(const Spec& spec, const Args& args) {
  // Untraced half: fixes the batch count K and the reference wall time.
  Window plain;
  {
    Runner runner(spec, args.seed, nullptr);
    runner.setup(plain);
    run_window(plain, runner, ~std::uint64_t{0}, args.seconds * 500.0, 1,
               nullptr);
  }
  // Traced half: the same K batches with spans and the shadow replay.
  Trace trace;
  Window traced;
  std::string settings;
  std::string replay_error;
  std::map<std::string, double> counters;
  {
    Runner runner(spec, args.seed, &trace);
    runner.setup(traced);
    settings = runner.system().settings();
    trace.clear();
    run_window(traced, runner, plain.batches, 1e300, 0, nullptr);
    counters = runner.system().layer_counters(traced.batches);
    replay_error = runner.system().replay_check();
  }
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(traced.batches, 1));

  MetricList m;
  for (const std::string& name : kSpans)
    m.add(name, trace.span_ms(name) / batches, "ms");
  for (const auto& [name, unit] : kCounters) {
    const auto it = counters.find(name);
    m.add(name, it == counters.end() ? 0 : it->second, unit);
  }
  std::uint64_t max_words = 0;
  std::uint64_t total_words = 0;
  for (const std::uint64_t words : traced.words_by_machine) {
    max_words = std::max(max_words, words);
    total_words += words;
  }
  m.add("mpc.ledger_total_words",
        static_cast<double>(traced.ledger_words) / batches, "words");
  m.add("mpc.peak_machine_total_words",
        static_cast<double>(traced.peak_machine_total), "words");
  m.add("mpc.load_skew",
        total_words == 0 ? 0
                         : static_cast<double>(max_words) *
                               static_cast<double>(traced.words_by_machine.size()) /
                               static_cast<double>(total_words),
        "ratio");
  std::map<std::string, double> rounds;  // metric name -> rounds per batch
  for (const auto& [label, count] : traced.rounds_by_label) {
    std::string name = label;
    std::replace(name.begin(), name.end(), '/', '.');
    if (std::find(kRoundLabels.begin(), kRoundLabels.end(), name) ==
        kRoundLabels.end()) {
      std::cout << "# other round label: " << label << "\n";
      name = "other";
    }
    rounds["mpc.rounds." + name] += static_cast<double>(count) / batches;
  }
  for (const std::string& label : kRoundLabels)
    m.add("mpc.rounds." + label, rounds["mpc.rounds." + label], "rounds");
  m.add("mpc.rounds.other", rounds["mpc.rounds.other"], "rounds");

  double front_spans = 0;
  for (const std::string& name : kFrontSpans) front_spans += trace.span_ms(name);
  const double coverage = front_spans / (traced.wall_ms - traced.bench_ms);
  m.add("trace.batches", static_cast<double>(traced.batches), "count");
  m.add("trace.span_coverage", coverage, "ratio");
  m.add("trace.overhead_pct",
        100.0 * (traced.wall_ms - plain.wall_ms) / plain.wall_ms, "%");
  m.add("trace.frontend_overhead_pct",
        100.0 * (traced.front_ms - plain.front_ms) / plain.front_ms, "%");
  m.add("trace.replay_identical", replay_error.empty() ? 1 : 0, "bool");

  print_summary(spec, settings, traced);
  // The replay and the span coverage are two more checks.
  std::uint64_t attempted = plain.attempted + traced.attempted + 2;
  std::uint64_t failed = plain.failed + traced.failed;
  if (!replay_error.empty()) {
    std::cout << "# replay mismatch: " << replay_error << "\n";
    ++failed;
  }
  if (coverage < 0.95 || coverage > 1.05) {
    std::cout << "# front-end spans cover " << coverage
              << " of the front-end wall time (want 0.95..1.05)\n";
    ++failed;
  }
  return emit(failed == 0 && traced.batches == plain.batches, attempted,
              failed, m);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  // Before any library object exists: no SMPC_* knob from the caller's
  // shell may steer shards, threads or the scheduler.  The simulator's
  // grid width has no config field, so its pin goes through its knob.
  clear_smpc_env();
  setenv("SMPC_SIM_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  const Spec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const Spec& s : workloads()) std::cerr << " " << s.name;
    std::cerr << "\n";
    return 2;
  }
  try {
    return args.trace ? run_traced(*spec, args) : run_untraced(*spec, args);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
