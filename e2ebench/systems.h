// The front ends under test, behind the one interface the runner loop
// uses.  Each system times its own calls into the library, keeps every
// bench-side cost (oracle checks, replay, input generation it triggers)
// out of those timings, and reports the counters the metrics read.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.h"
#include "inputs.h"
#include "mpc/cluster.h"

namespace e2ebench {

// Worker threads of the library pools the workloads use (sketch ingest,
// the simulator's cell grid).  The library default, the hardware
// concurrency, oversubscribes the CPU a shared 4-vCPU VM really gets: on
// churn, four busy pool threads drew 5-14% host steal time and moved the
// median batch latency by up to 45% from run to run, two threads drew
// 3-6%, and one drew under 1.5% with the median within 4% at the same
// throughput.  Shards and the grid order still run, serially.
inline constexpr unsigned kPoolThreads = 1;

// What one call into a system measured.
struct Tick {
  double front_ms = 0;  // time inside the library's front-end calls
  double bench_ms = 0;  // bench-side work (checks, replay) inside the call
  std::uint64_t rounds = 0;   // cluster rounds charged to updates
  std::uint64_t queries = 0;  // point queries answered
  std::uint64_t checks = 0;   // answers compared with the oracle
  std::uint64_t wrong = 0;    // of those, answers that disagreed
  bool read = false;          // a read round ran
};

class System {
 public:
  virtual ~System() = default;

  // Applies one batch (timed) and brings the oracle to `stream`'s ground
  // truth (untimed).
  virtual Tick apply(const Batch& batch, const Stream& stream) = 0;
  // The read round after batch number `batch_no` (1-based since the
  // stream began); checks every answer.
  virtual Tick read(Stream& stream, std::uint64_t batch_no) = 0;
  // Delivers anything still buffered (timed as update work).
  virtual Tick flush() = 0;
  // Full-state check against graph/reference.h after the last batch;
  // empty when it holds, else what differed.
  virtual std::string final_check(const Stream& stream) = 0;

  virtual std::uint64_t memory_words() const = 0;
  virtual streammpc::mpc::Cluster& cluster() = 0;

  // Clears the comm ledger; the runner reads it after every iteration.
  // A traced run first checks that the shadow's ledger matches.
  virtual void reset_ledger() = 0;

  // Starts the measured window: records counter baselines.
  virtual void begin_window() {}
  // Per-layer counters of the front end accumulated since begin_window(),
  // keyed by metric name; additive counts come out per batch.
  virtual std::map<std::string, double> layer_counters(
      std::uint64_t /*batches*/) const {
    return {};
  }
  // Traced runs: empty when the replay matched the front end byte for
  // byte, else the first difference.
  virtual std::string replay_check() const { return ""; }

  // Library settings the run resolved (threads, shards, scheduler).
  virtual std::string settings() const = 0;
};

// Constructs the workload's front end and feeds it the stream's initial
// graph.  `trace` non-null = a traced run: spans go there and, for the
// connectivity workloads, a shadow replay follows every batch.
std::unique_ptr<System> make_system(const Spec& spec, const Stream& stream,
                                    Trace* trace);

}  // namespace e2ebench
