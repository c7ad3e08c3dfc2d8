// E11 — end-to-end ingest throughput through the flat-arena sketch engine.
//
// Measures the edge-update hot path at five altitudes:
//   * raw sketches, single updates (update_edge) — legacy vs flat engine;
//   * raw sketches, batched updates (update_edges) with a bank-parallel
//     thread sweep, plus a batch-size sweep at 1, 2 and 4 threads that
//     locates the grid's serial/parallel crossover;
//   * routed batches through the simulated MPC cluster (route_batch +
//     per-machine CommLedger accounting, §5/§6) at several machine counts;
//   * the AGM baseline structure absorbing insert batches (§4.1);
//   * streaming connectivity consuming a mixed insert/delete stream
//     through the buffered apply_stream path (§4.2), routed on a cluster;
//   * the per-delivery resident fold (VertexSketches::resident_fold, the
//     Simulator's resident + delivered budget probe) on a power-law
//     insert stream, timed against the O(n) page-map scan it replaced
//     (now tests/resident_oracle.h) and checked word for word against it
//     after every batch.
//
// Emits the paper-style table on stdout and BENCH_ingest.json for the
// cross-PR perf trajectory.  `--quick` shrinks the workload for CI smoke
// runs.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "core/agm_static.h"
#include "core/streaming_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "legacy_sketch_ref.h"
#include "mpc/cluster.h"
#include "resident_oracle.h"
#include "sketch/graphsketch.h"

namespace streammpc {
namespace {

struct IngestBenchConfig {
  VertexId n = 1 << 16;
  std::size_t edges = 1 << 15;
  std::size_t batch_size = 1 << 12;
  int repeats = 2;
  unsigned fold_pa_degree = 4;  // resident-fold row: edges per new vertex
};

double ops_per_sec(std::size_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
}

// Resident fold vs the full scan, per batch: after each insert batch the
// fold reads every machine's resident words (incrementally, from the pages
// allocated since the last call) and the oracle rescans every bank's page
// maps over every machine's vertex block.  Only the two reads are timed.
// The stream is replayed on fresh sketches five times and the median
// trial's speedup is recorded, so one noisy trial cannot move the gate.
void resident_fold_row(const IngestBenchConfig& cfg,
                       bench::BenchJson& json) {
  const VertexId n = 1 << 14;
  const std::uint64_t machines = 128;
  const std::size_t batch = 1024;
  Rng rng(7005);
  std::vector<Edge> edges =
      gen::preferential_attachment(n, cfg.fold_pa_degree, rng);
  shuffle(edges, rng);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, +1});
  const std::size_t batches = (deltas.size() + batch - 1) / batch;

  mpc::MpcConfig mc;
  mc.n = n;
  mc.phi = 0.5;
  mc.machines = machines;
  const mpc::Cluster cluster(mc);
  GraphSketchConfig sketch;
  sketch.seed = 7006;

  struct Trial {
    double fold_s = 0, scan_s = 0;
    double speedup() const { return fold_s > 0 ? scan_s / fold_s : 0.0; }
  };
  bool exact = true;
  std::vector<std::uint64_t> scan(machines);
  std::vector<Trial> trials(5);
  for (Trial& trial : trials) {
    VertexSketches vs(n, sketch);
    for (std::size_t start = 0; start < deltas.size(); start += batch) {
      vs.update_edges(std::span<const EdgeDelta>(deltas).subspan(
          start, std::min(batch, deltas.size() - start)));
      bench::Timer fold_timer;
      const std::span<const std::uint64_t> fold = vs.resident_fold(cluster);
      trial.fold_s += fold_timer.seconds();
      bench::Timer scan_timer;
      for (std::uint64_t m = 0; m < machines; ++m) {
        const auto [first, last] = cluster.vertex_block(m, n);
        scan[m] = 0;
        for (unsigned b = 0; b < vs.banks(); ++b)
          scan[m] += test::resident_words(vs.arena(b),
                                          static_cast<VertexId>(first),
                                          static_cast<VertexId>(last));
      }
      trial.scan_s += scan_timer.seconds();
      exact = exact && std::equal(fold.begin(), fold.end(), scan.begin());
    }
  }
  std::sort(trials.begin(), trials.end(), [](const Trial& a, const Trial& b) {
    return a.speedup() < b.speedup();
  });
  const Trial& median = trials[trials.size() / 2];
  const double fold_ms = 1e3 * median.fold_s / batches;
  const double scan_ms = 1e3 * median.scan_s / batches;
  bench::section("E11c: resident fold per delivery (n = 2^14, " +
                     std::to_string(machines) + " machines, " +
                     std::to_string(batches) + " power-law insert batches)",
                 "");
  Table t({"read", "ms/batch", "vs scan"});
  t.add_row().cell("page-map scan").cell(scan_ms, 4).cell(1.0, 2);
  t.add_row().cell("incremental fold").cell(fold_ms, 4)
      .cell(median.speedup(), 1);
  t.print(std::cout);
  std::cout << "fold == scan after every batch: " << (exact ? "yes" : "NO")
            << "\n";
  json.set("resident_fold.batches", static_cast<std::uint64_t>(batches));
  json.set("resident_fold.fold_ms_per_batch", fold_ms);
  json.set("resident_fold.scan_ms_per_batch", scan_ms);
  json.set("resident_fold.speedup_vs_scan", median.speedup());
  json.set("resident_fold.exact_ok", exact ? 1 : 0);
}

void run(const IngestBenchConfig& cfg) {
  bench::BenchJson json("ingest");
  json.set("config.n", static_cast<std::uint64_t>(cfg.n));
  json.set("config.edges", static_cast<std::uint64_t>(cfg.edges));
  json.set("config.batch_size", static_cast<std::uint64_t>(cfg.batch_size));

  Rng rng(7001);
  const auto edges = gen::gnm(cfg.n, cfg.edges, rng);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, +1});

  GraphSketchConfig sketch;  // defaults: 12 banks, {2, 8}
  sketch.seed = 7002;

  bench::section("E11: sketch ingest throughput (n = " +
                     std::to_string(cfg.n) + ", m = " +
                     std::to_string(cfg.edges) + ", 12 banks)",
                 "flat arenas + once-per-bank planning >= 2x the seed "
                 "nested-vector path; banks are an embarrassingly "
                 "parallel axis");
  Table t({"path", "threads", "edges/sec", "vs legacy"});

  // Legacy nested-vector baseline, single updates.
  double legacy_ops;
  {
    legacy::LegacyVertexSketches vs(cfg.n, sketch);
    bench::Timer timer;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      const std::int64_t delta = (rep & 1) ? -1 : +1;
      for (const Edge& e : edges) vs.update_edge(e, delta);
    }
    legacy_ops = ops_per_sec(edges.size() * cfg.repeats, timer.seconds());
  }
  t.add_row().cell("legacy update_edge").cell(std::uint64_t{1}).cell(
      legacy_ops, 0).cell(1.0, 2);
  json.set("update_edge.legacy_ops_per_sec", legacy_ops);

  // Flat engine, single updates.
  {
    GraphSketchConfig serial = sketch;
    serial.ingest_threads = 1;
    VertexSketches vs(cfg.n, serial);
    bench::Timer timer;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      const std::int64_t delta = (rep & 1) ? -1 : +1;
      for (const Edge& e : edges) vs.update_edge(e, delta);
    }
    const double ops = ops_per_sec(edges.size() * cfg.repeats, timer.seconds());
    t.add_row().cell("flat update_edge").cell(std::uint64_t{1}).cell(ops, 0)
        .cell(ops / legacy_ops, 2);
    json.set("update_edge.flat_ops_per_sec", ops);
    json.set("update_edge.speedup_vs_legacy", ops / legacy_ops);
  }

  // Flat engine, batched updates, thread sweep over the bank axis.
  for (const unsigned threads : {1u, 2u, 4u}) {
    GraphSketchConfig threaded = sketch;
    threaded.ingest_threads = threads;
    VertexSketches vs(cfg.n, threaded);
    bench::Timer timer;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      for (std::size_t start = 0; start < deltas.size();
           start += cfg.batch_size) {
        const std::size_t len =
            std::min(cfg.batch_size, deltas.size() - start);
        std::span<EdgeDelta> chunk(deltas.data() + start, len);
        for (EdgeDelta& d : chunk) d.delta = (rep & 1) ? -1 : +1;
        vs.update_edges(chunk);
      }
    }
    const double ops = ops_per_sec(edges.size() * cfg.repeats, timer.seconds());
    t.add_row()
        .cell("batched update_edges")
        .cell(static_cast<std::uint64_t>(threads))
        .cell(ops, 0)
        .cell(ops / legacy_ops, 2);
    json.set("update_edges.threads_" + std::to_string(threads) +
                 ".ops_per_sec",
             ops);
  }

  // Serial/parallel crossover of the 2-D grid: batched update_edges at
  // small batch sizes and 1, 2, 4 ingest threads, after an untimed insert
  // pass has allocated every page (best of three delete + insert rounds).
  // Below the library's parallel threshold a multi-threaded VertexSketches
  // runs serially, so there the threads > 1 rows track threads = 1.
  {
    const std::vector<EdgeDelta> probe(
        deltas.begin(),
        deltas.begin() + std::min<std::size_t>(deltas.size(), 2048));
    Table ct({"batch", "threads", "edges/sec", "vs 1 thread"});
    for (const std::size_t batch : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}) {
      double serial_ops = 0;
      for (const unsigned threads : {1u, 2u, 4u}) {
        GraphSketchConfig threaded = sketch;
        threaded.ingest_threads = threads;
        VertexSketches vs(cfg.n, threaded);
        std::vector<EdgeDelta> work = probe;
        const auto pass = [&](std::int64_t sign) {
          for (EdgeDelta& d : work) d.delta = sign;
          for (std::size_t start = 0; start < work.size(); start += batch) {
            const std::size_t len = std::min(batch, work.size() - start);
            vs.update_edges(std::span<const EdgeDelta>(work.data() + start,
                                                       len));
          }
        };
        pass(+1);
        double best = 0;
        for (int round = 0; round < 3; ++round) {
          bench::Timer timer;
          pass(-1);
          pass(+1);
          best = std::max(best, ops_per_sec(2 * work.size(), timer.seconds()));
        }
        if (threads == 1) serial_ops = best;
        ct.add_row()
            .cell(static_cast<std::uint64_t>(batch))
            .cell(static_cast<std::uint64_t>(threads))
            .cell(best, 0)
            .cell(best / serial_ops, 2);
        json.set("crossover.batch_" + std::to_string(batch) + ".threads_" +
                     std::to_string(threads) + ".ops_per_sec",
                 best);
      }
    }
    bench::section("E11b: serial/parallel crossover of the 2-D grid",
                   "the ingest pool pays for itself from the library's "
                   "parallel threshold (16 items) up");
    ct.print(std::cout);
  }

  // Routed ingest: the same batches split per simulated machine
  // (mpc::Cluster::route_batch) with CommLedger accounting — the honest
  // §5/§6 path.  Routing overhead vs the flat batch path is the price of
  // per-machine delta accounting.
  for (const std::uint64_t machines : {4u, 16u}) {
    mpc::MpcConfig mc;
    mc.n = cfg.n;
    mc.phi = 0.5;
    mc.machines = machines;
    mpc::Cluster cluster(mc);
    GraphSketchConfig serial = sketch;
    serial.ingest_threads = 1;
    VertexSketches vs(cfg.n, serial);
    mpc::RoutedBatch routed;
    bench::Timer timer;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      for (std::size_t start = 0; start < deltas.size();
           start += cfg.batch_size) {
        const std::size_t len =
            std::min(cfg.batch_size, deltas.size() - start);
        std::span<EdgeDelta> chunk(deltas.data() + start, len);
        for (EdgeDelta& d : chunk) d.delta = (rep & 1) ? -1 : +1;
        cluster.route_batch(chunk, cfg.n, routed);
        cluster.charge_routed(routed, "bench/routed-ingest");
        vs.update_edges(routed);
      }
    }
    const double ops = ops_per_sec(edges.size() * cfg.repeats, timer.seconds());
    t.add_row()
        .cell("routed update_edges, " + std::to_string(machines) + " machines")
        .cell(std::uint64_t{1})
        .cell(ops, 0)
        .cell(ops / legacy_ops, 2);
    const std::string key = "routed.machines_" + std::to_string(machines);
    const mpc::CommLedger& ledger = cluster.comm_ledger();
    json.set(key + ".ops_per_sec", ops);
    json.set(key + ".ledger_rounds", ledger.rounds());
    json.set(key + ".ledger_total_words", ledger.total_words());
    json.set(key + ".ledger_max_machine_load", ledger.max_machine_load());
    if (machines == 16) std::cout << ledger.report();
  }

  // AGM baseline structure absorbing insert batches end-to-end.
  {
    AgmStaticConnectivity agm(cfg.n, sketch);
    Rng stream_rng(7003);
    const auto stream = gen::insert_stream(edges, stream_rng);
    bench::Timer timer;
    for (std::size_t start = 0; start < stream.size();
         start += cfg.batch_size) {
      const std::size_t len = std::min(cfg.batch_size, stream.size() - start);
      agm.apply_batch(Batch(stream.begin() + start,
                            stream.begin() + start + len));
    }
    const double ops = ops_per_sec(stream.size(), timer.seconds());
    t.add_row().cell("agm apply_batch").cell(std::uint64_t{0}).cell(ops, 0)
        .cell(ops / legacy_ops, 2);
    json.set("agm.apply_batch_ops_per_sec", ops);
  }

  // Streaming connectivity over a mixed stream via apply_stream.
  {
    const VertexId sc_n = std::min<VertexId>(cfg.n, 4096);
    Rng sc_rng(7004);
    gen::ChurnOptions churn;
    churn.n = sc_n;
    churn.initial_edges = std::min<std::size_t>(cfg.edges, 4 * sc_n);
    churn.num_batches = 16;
    churn.batch_size = std::max<std::size_t>(cfg.batch_size / 16, 64);
    churn.delete_fraction = 0.3;
    const auto batches = gen::churn_stream(churn, sc_rng);
    GraphSketchConfig sc_sketch = sketch;
    mpc::MpcConfig sc_mc;
    sc_mc.n = sc_n;
    sc_mc.phi = 0.5;
    sc_mc.machines = 8;
    mpc::Cluster sc_cluster(sc_mc);
    StreamingConnectivity sc(sc_n, sc_sketch, &sc_cluster);
    std::size_t updates = 0;
    bench::Timer timer;
    for (const Batch& batch : batches) {
      sc.apply_stream(std::span<const Update>(batch.data(), batch.size()));
      updates += batch.size();
    }
    const double ops = ops_per_sec(updates, timer.seconds());
    t.add_row().cell("streaming apply_stream").cell(std::uint64_t{0})
        .cell(ops, 0).cell(0.0, 2);
    json.set("streaming.apply_stream_ops_per_sec", ops);
    json.set("streaming.updates", static_cast<std::uint64_t>(updates));
    const mpc::CommLedger& ledger = sc_cluster.comm_ledger();
    json.set("streaming.ledger_rounds", ledger.rounds());
    json.set("streaming.ledger_total_words", ledger.total_words());
    json.set("streaming.ledger_max_machine_load", ledger.max_machine_load());
    std::cout << "streaming connectivity on " << sc_mc.machines
              << " machines: " << ledger.report();
  }

  t.print(std::cout);
  resident_fold_row(cfg, json);
  json.flush();
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::IngestBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 1 << 12;
      cfg.edges = 1 << 12;
      cfg.batch_size = 1 << 10;
      cfg.repeats = 1;
      cfg.fold_pa_degree = 2;
    } else {
      std::cerr << "unknown argument: " << argv[i]
                << "\nusage: bench_ingest [--quick]\n";
      return 2;
    }
  }
  streammpc::run(cfg);
  return 0;
}
