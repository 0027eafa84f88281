// netmark_e2e: the end-to-end NETMARK benchmark (see ../BENCHMARK.md).
//
//   netmark_e2e --workload xdb_hot|xdb_cold|federated
//               --seed N --seconds S --trace 0|1 --workdir DIR
//   netmark_e2e --smoke --workdir DIR
//
// Prints a report on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics of the traced
// in-process replay. --smoke runs every workload on a tiny corpus and
// asserts the benchmark's own invariants.

#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "run.h"
#include "traced.h"
#include "workload.h"

namespace e2e {
namespace {

// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string> kEndToEndNames = {
    "setup_s", "xdb_p50_ms", "xdb_goodput_qps", "put_p50_ms", "peak_rss_mb"};
const std::vector<std::string> kPerLayerNames = {
    "server.handle_us_p50", "server.transport_us_p50", "server.epoll_wakeups_per_req",
    "server.shed_ratio", "query.parse_us_p50", "query.execute_us_p50",
    "query.execute_us_p99", "query.result_cache_hit_ratio", "query.plan_cache_hit_ratio",
    "query.index_probes_per_req", "query.nodes_walked_per_req", "query.sections_per_req",
    "query.compose_us_p50", "query.compose_us_p99", "textindex.lookup_us_p50",
    "textindex.postings_per_lookup", "xmlstore.reconstruct_us_p50", "xmlstore.pin_us_p99",
    "xmlstore.list_documents_us_p50", "xmlstore.prepare_us_p50", "xmlstore.insert_us_p50",
    "xmlstore.insert_us_p99", "xmlstore.delete_us_p50", "xmlstore.mvcc_versions_retained_max",
    "storage.wal_bytes_per_doc", "storage.wal_fsyncs_per_doc", "storage.wal_commit_us_p99",
    "storage.checkpoints", "storage.disk_bytes_per_input_byte", "convert.upmark_us_p50",
    "daemon.convert_ns_per_doc", "daemon.insert_ns_per_doc", "xslt.transform_us_p50",
    "xml.serialize_us_p50", "xml.response_bytes_p50", "federation.fanout_us_p50",
    "federation.remote_us_p50", "federation.augment_us_p50", "federation.conn_reuse_ratio",
    "loadgen.lag_ms_p99", "trace.coverage", "trace.overhead_pct", "server.xdb_p99_ms",
    "server.put_p99_ms",
    "daemon.sweep_docs_per_s", "error_ratio"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value().c_str());
    else if (flag == "--trace") args.trace = std::atoi(value().c_str());
    else if (flag == "--workdir") args.workdir = value();
    else if (flag == "--smoke") args.smoke = true;
    else Die("unknown flag " + flag);
  }
  if (args.workdir.empty()) Die("--workdir is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Latencies(const std::vector<Outcome>& outcomes) {
  // A failed request misses every latency limit: it counts as the client's
  // 10 s timeout.
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) out.push_back(o.correct ? o.latency_ms() : 10000.0);
  return out;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Totals Count(const Run& run) {
  Totals t;
  t.attempted = run.extra_attempted;
  t.failed = run.extra_failed;
  auto add = [&t](const std::vector<Outcome>& v) {
    t.attempted += v.size();
    for (const Outcome& o : v) t.failed += o.correct ? 0 : 1;
  };
  for (const auto& round : run.open_rounds) add(round);
  for (const auto& round : run.closed_rounds) add(round.outcomes);
  for (const auto& round : run.put_rounds) add(round);
  return t;
}

/// Median over rounds of a per-round percentile.
double RoundMedian(const std::vector<std::vector<Outcome>>& rounds, double q) {
  std::vector<double> per_round;
  for (const auto& round : rounds) per_round.push_back(Percentile(Latencies(round), q));
  return Median(per_round);
}

/// Percentile of all rounds' samples pooled: a p99 needs the samples (a
/// round of xdb_hot has 900, of xdb_cold 50), and measured over five
/// seeds the pooled p99 spread less than the median of per-round p99s.
double Pooled(const std::vector<std::vector<Outcome>>& rounds, double q) {
  std::vector<Outcome> all;
  for (const auto& round : rounds) all.insert(all.end(), round.begin(), round.end());
  return Percentile(Latencies(all), q);
}

std::vector<Metric> EndToEnd(const Run& run) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(run.setup_seconds), "s"});
  m.push_back({"xdb_p50_ms", RoundMedian(run.open_rounds, 0.50), "ms"});
  std::vector<double> goodput;
  for (const ClosedLoopResult& round : run.closed_rounds) {
    size_t good = 0;
    for (const Outcome& o : round.outcomes) good += o.correct ? 1 : 0;
    goodput.push_back(static_cast<double>(good) / round.seconds);
  }
  m.push_back({"xdb_goodput_qps", Median(goodput), "req/s"});
  m.push_back({"put_p50_ms", RoundMedian(run.put_rounds, 0.50), "ms"});
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  return m;
}

void PrintResult(bool correct, const Totals& totals, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(totals.attempted) +
                     ", \"failed\": " + std::to_string(totals.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// One run of one workload; returns (correct, totals, metrics).
struct Outcomes {
  bool correct = false;
  Totals totals;
  std::vector<Metric> metrics;
};

Outcomes RunOnce(Kind kind, const Args& args, const std::filesystem::path& workdir) {
  Run run(MakePlan(kind, args.seed, args.seconds, args.smoke));
  run.workdir = workdir;
  std::filesystem::create_directories(workdir);
  std::fprintf(stderr, "== %s seed=%llu seconds=%g trace=%d: %zu URLs, open %zu @ %g/s, "
               "%zu PUTs @ %g/s\n",
               run.plan.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace, run.plan.space.size(), run.plan.open_seq.size(),
               run.plan.read_rate, run.plan.puts.size(), run.plan.put_rate);
  int64_t t = NowNanos();
  auto lap = [&t](const char* phase) {
    const int64_t now = NowNanos();
    std::fprintf(stderr, "  %-16s %7.2f s\n", phase, static_cast<double>(now - t) / 1e9);
    t = now;
  };
  SetUp(&run);
  lap("set-up");
  const auto before = run.main->nm->metrics()->Collect();
  ComputeExpected(&run);
  lap("references");
  RunReads(&run);
  lap("http reads");
  std::unique_ptr<TracedRun> traced;
  if (args.trace != 0) {
    traced = std::make_unique<TracedRun>(&run);
    traced->ReplayReads();
    lap("traced reads");
  }
  RunWrites(&run);
  lap("http writes");
  CheckPutsReconstruct(&run);
  CrossCheck(&run, before);

  Outcomes out;
  out.metrics = EndToEnd(run);
  PrintTable("end-to-end (" + run.plan.name + ")", out.metrics);
  if (args.trace != 0) {
    out.metrics = traced->Finish(before, (workdir / "spans.jsonl").string());
    // Tails and fsync-bound rates too noisy to gate on a shared machine:
    // watched here, with no bound.
    out.metrics.push_back({"server.xdb_p99_ms", Pooled(run.open_rounds, 0.99), "ms"});
    out.metrics.push_back({"server.put_p99_ms", Pooled(run.put_rounds, 0.99), "ms"});
    out.metrics.push_back({"daemon.sweep_docs_per_s", Median(run.sweep_docs_per_s), "docs/s"});
    lap("traced replay");
    PrintTable("per-layer (" + run.plan.name + ")", out.metrics);
  }
  out.totals = Count(run);
  if (args.trace != 0) {
    out.metrics.push_back({"error_ratio",
                           Ratio(static_cast<double>(out.totals.failed),
                                 static_cast<double>(out.totals.attempted)),
                           "ratio"});
  }
  for (const std::string& e : run.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  out.correct = out.totals.failed == 0;
  return out;
}

/// --smoke: every workload on a tiny corpus, both modes; asserts that every
/// metric is finite, checks pass, and a seed fixes the request sequence.
int Smoke(Args args) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what.c_str());
      ++failures;
    }
  };
  for (Kind kind : {Kind::kXdbHot, Kind::kXdbCold, Kind::kFederated}) {
    Plan a = MakePlan(kind, 7, 2, true);
    Plan b = MakePlan(kind, 7, 2, true);
    Plan c = MakePlan(kind, 8, 2, true);
    expect(a.space == b.space && a.open_seq == b.open_seq &&
               a.closed_seq == b.closed_seq && a.puts.size() == b.puts.size(),
           a.name + ": same seed, same sequence");
    expect(a.open_seq != c.open_seq, a.name + ": another seed, another sequence");
    for (int trace : {0, 1}) {
      args.seed = 7;
      args.seconds = 2;
      args.trace = trace;
      args.smoke = true;
      Outcomes out = RunOnce(kind, args,
                             std::filesystem::path(args.workdir) /
                                 (a.name + "_t" + std::to_string(trace)));
      expect(out.correct, a.name + ": correctness checks pass");
      std::vector<std::string> names;
      for (const Metric& m : out.metrics) names.push_back(m.name);
      expect(names == (trace == 0 ? kEndToEndNames : kPerLayerNames),
             a.name + ": every metric of BENCHMARK.json emitted, in order");
      for (const Metric& m : out.metrics) {
        expect(std::isfinite(m.value) && !m.unit.empty(),
               a.name + ": " + m.name + " finite with a unit");
      }
    }
  }
  std::fprintf(stderr, failures == 0 ? "SMOKE PASS\n" : "SMOKE FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args = ParseArgs(argc, argv);
  if (args.smoke) return Smoke(args);
  Kind kind;
  if (!ParseKind(args.workload, &kind)) Die("unknown workload '" + args.workload + "'");
  Outcomes out = RunOnce(kind, args, args.workdir);
  PrintResult(out.correct, out.totals, out.metrics);
  return 0;
}
