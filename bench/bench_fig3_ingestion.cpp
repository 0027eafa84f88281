// Fig 3 — the NETMARK system pipeline: daemon -> SGML parser / converters ->
// XML Store. Measures drag-and-drop ingestion throughput end to end (file in
// drop folder to queryable nodes) across document formats, and the staged
// parallel pipeline's scaling across upmark/parse worker counts.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "server/daemon.h"
#include "workload/corpus.h"

namespace {

using namespace netmark;

server::DaemonOptions SweepOptions(const std::filesystem::path& drop, int workers) {
  server::DaemonOptions opts;
  opts.drop_dir = drop;
  opts.worker_threads = workers;
  // Benchmarks pre-write every file; skip the still-being-written deferral.
  opts.stable_age = std::chrono::milliseconds(0);
  return opts;
}

// Full daemon path: k mixed-format files dropped, one sweep.
void BM_DaemonSweep(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  workload::CorpusGenerator gen(99);
  auto corpus = gen.MixedCorpus(k);
  uint64_t nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto dir = bench::Unwrap(TempDir::Make("ingest"), "dir");
    NetmarkOptions options;
    options.data_dir = dir.Sub("data").string();
    auto nm = bench::Unwrap(Netmark::Open(options), "open");
    std::filesystem::path drop = dir.Sub("drop");
    std::filesystem::create_directories(drop);
    for (const auto& doc : corpus) {
      bench::Check(WriteFile(drop / doc.file_name, doc.content), "write");
    }
    server::IngestionDaemon daemon(nm->store(), &nm->converters(),
                                   SweepOptions(drop, 0));
    state.ResumeTiming();

    int processed = bench::Unwrap(daemon.ProcessOnce(), "sweep");
    benchmark::DoNotOptimize(processed);

    state.PauseTiming();
    nodes = nm->store()->node_count();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.counters["docs"] = static_cast<double>(k);
  state.counters["nodes_stored"] = static_cast<double>(nodes);
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * static_cast<int64_t>(k)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DaemonSweep)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Worker-count scaling of one sweep over a fixed mixed corpus (the tentpole
// measurement: parallel upmark/parse feeding the single writer).
void BM_DaemonSweepWorkers(benchmark::State& state) {
  const size_t kDocs = 200;
  int workers = static_cast<int>(state.range(0));
  workload::CorpusGenerator gen(99);
  auto corpus = gen.MixedCorpus(kDocs);
  for (auto _ : state) {
    state.PauseTiming();
    auto dir = bench::Unwrap(TempDir::Make("ingestw"), "dir");
    NetmarkOptions options;
    options.data_dir = dir.Sub("data").string();
    auto nm = bench::Unwrap(Netmark::Open(options), "open");
    std::filesystem::path drop = dir.Sub("drop");
    std::filesystem::create_directories(drop);
    for (const auto& doc : corpus) {
      bench::Check(WriteFile(drop / doc.file_name, doc.content), "write");
    }
    server::IngestionDaemon daemon(nm->store(), &nm->converters(),
                                   SweepOptions(drop, workers));
    state.ResumeTiming();

    int processed = bench::Unwrap(daemon.ProcessOnce(), "sweep");
    benchmark::DoNotOptimize(processed);

    state.PauseTiming();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kDocs));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * static_cast<int64_t>(kDocs)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DaemonSweepWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Per-format conversion+store cost (which converter dominates the pipeline?).
void BM_IngestOneFormat(benchmark::State& state, int kind) {
  workload::CorpusGenerator gen(7);
  std::vector<workload::GeneratedDoc> docs;
  for (int i = 0; i < 32; ++i) {
    switch (kind) {
      case 0: docs.push_back(gen.Proposal(i)); break;
      case 1: docs.push_back(gen.TaskPlan(i)); break;
      case 2: docs.push_back(gen.AnomalyReport(i)); break;
      case 3: docs.push_back(gen.LessonLearned(i)); break;
      case 4: docs.push_back(gen.RiskMemo(i)); break;
      default: docs.push_back(gen.BudgetSheet(i)); break;
    }
  }
  size_t i = 0;
  auto inst = bench::MakeLoadedInstance(0);
  for (auto _ : state) {
    const auto& doc = docs[i % docs.size()];
    // Unique names so every iteration is a fresh document.
    auto id = inst.nm->IngestContent(std::to_string(i) + "_" + doc.file_name,
                                     doc.content);
    bench::Check(id.status(), "ingest");
    benchmark::DoNotOptimize(*id);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["nodes_per_doc"] =
      static_cast<double>(inst.nm->store()->node_count()) /
      static_cast<double>(inst.nm->store()->document_count());
}
BENCHMARK_CAPTURE(BM_IngestOneFormat, nrt_word, 0)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IngestOneFormat, plain_text, 1)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IngestOneFormat, html, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IngestOneFormat, xml, 3)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IngestOneFormat, markdown, 4)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IngestOneFormat, csv, 5)->Unit(benchmark::kMicrosecond);

void PrintPipelineReport() {
  bench::ReportHeader("Fig 3: ingestion pipeline (daemon -> parser -> store)",
                      "any document format dropped into a folder becomes "
                      "queryable nodes with no per-format setup");
  bench::JsonLines json("fig3_ingestion");
  json.EmitConfig("wal=on,fsync=commit");
  auto dir = bench::Unwrap(TempDir::Make("fig3"), "dir");
  NetmarkOptions options;
  options.data_dir = dir.Sub("data").string();
  auto nm = bench::Unwrap(Netmark::Open(options), "open");
  std::filesystem::path drop = dir.Sub("drop");
  std::filesystem::create_directories(drop);
  workload::CorpusGenerator gen(123);
  const size_t kDocs = 300;
  for (const auto& doc : gen.MixedCorpus(kDocs)) {
    bench::Check(WriteFile(drop / doc.file_name, doc.content), "write");
  }
  server::IngestionDaemon daemon(nm->store(), &nm->converters(),
                                 SweepOptions(drop, 0));
  Stopwatch watch;
  int processed = bench::Unwrap(daemon.ProcessOnce(), "sweep");
  double seconds = watch.ElapsedSeconds();
  std::printf("%10s %10s %12s %14s %16s\n", "docs", "ok", "nodes", "docs/sec",
              "index terms");
  std::printf("%10d %10d %12llu %14.0f %16zu\n", static_cast<int>(kDocs), processed,
              static_cast<unsigned long long>(nm->store()->node_count()),
              static_cast<double>(processed) / seconds,
              nm->store()->text_index().num_terms());
  json.Emit("daemon_sweep", static_cast<double>(kDocs),
            seconds * 1e9 / static_cast<double>(processed),
            static_cast<double>(processed) / seconds, "docs/sec");
  std::printf("shape check: all %zu mixed-format documents ingested by one "
              "sweep, zero DDL.\n", kDocs);

  // Thread-count sweep over a fresh >= 200-file mixed corpus per worker
  // count: the speedup is measured, not asserted.
  std::printf("\n-- parallel pipeline: upmark/parse workers -> single writer --\n");
  std::printf("%8s %10s %14s %12s %14s %14s\n", "workers", "docs", "docs/sec",
              "speedup", "convert_ms", "insert_ms");
  const size_t kSweepDocs = 240;
  auto sweep_corpus = workload::CorpusGenerator(77).MixedCorpus(kSweepDocs);
  double base_rate = 0;
  for (int workers : {1, 2, 4, 8}) {
    auto wdir = bench::Unwrap(TempDir::Make("fig3w"), "dir");
    NetmarkOptions wopts;
    wopts.data_dir = wdir.Sub("data").string();
    auto wnm = bench::Unwrap(Netmark::Open(wopts), "open");
    std::filesystem::path wdrop = wdir.Sub("drop");
    std::filesystem::create_directories(wdrop);
    for (const auto& doc : sweep_corpus) {
      bench::Check(WriteFile(wdrop / doc.file_name, doc.content), "write");
    }
    server::IngestionDaemon wdaemon(wnm->store(), &wnm->converters(),
                                    SweepOptions(wdrop, workers));
    Stopwatch wwatch;
    int ok = bench::Unwrap(wdaemon.ProcessOnce(), "sweep");
    double wsec = wwatch.ElapsedSeconds();
    server::DaemonCounters counters = wdaemon.counters();
    double rate = static_cast<double>(ok) / wsec;
    if (workers == 1) base_rate = rate;
    std::printf("%8d %10d %14.0f %11.2fx %14.1f %14.1f\n", workers, ok, rate,
                base_rate > 0 ? rate / base_rate : 1.0,
                static_cast<double>(counters.convert_ns) * 1e-6,
                static_cast<double>(counters.insert_ns) * 1e-6);
    json.Emit("thread_sweep", static_cast<double>(workers),
              wsec * 1e9 / static_cast<double>(ok), rate, "docs/sec");
  }
  std::printf("shape check: identical doc-id assignment at every worker count "
              "(writer commits in sorted-filename order).\n");

  // Durability cost: one sweep over the same corpus with every commit
  // logged and fsynced, plus the redo-recovery time (crash simulated by
  // copying the live directory before any clean close).
  std::printf("\n-- durability: WAL commit cost and recovery --\n");
  std::printf("%10s %10s %14s %16s %16s\n", "wal", "docs", "docs/sec",
              "commit_p50_us", "wal_bytes");
  const size_t kWalDocs = 120;
  auto wal_corpus = workload::CorpusGenerator(55).MixedCorpus(kWalDocs);
  auto mdir = bench::Unwrap(TempDir::Make("fig3wal"), "dir");
  NetmarkOptions mopts;
  mopts.data_dir = mdir.Sub("data").string();
  auto mnm = bench::Unwrap(Netmark::Open(mopts), "open");
  std::filesystem::path mdrop = mdir.Sub("drop");
  std::filesystem::create_directories(mdrop);
  for (const auto& doc : wal_corpus) {
    bench::Check(WriteFile(mdrop / doc.file_name, doc.content), "write");
  }
  server::IngestionDaemon mdaemon(mnm->store(), &mnm->converters(),
                                  SweepOptions(mdrop, 1));
  Stopwatch mwatch;
  int mok = bench::Unwrap(mdaemon.ProcessOnce(), "sweep");
  double msec = mwatch.ElapsedSeconds();
  double mrate = static_cast<double>(mok) / msec;

  double commit_p50 = 0;
  uint64_t wal_bytes = 0;
  auto snap = mnm->metrics()->Collect();
  for (const auto& h : snap.histograms) {
    if (h.name == "netmark_wal_commit_micros") commit_p50 = h.p50;
  }
  for (const auto& c : snap.counters) {
    if (c.name == "netmark_wal_bytes_appended_total") wal_bytes = c.value;
  }
  std::printf("%10s %10d %14.0f %16.0f %16llu\n", "commit", mok, mrate,
              commit_p50, static_cast<unsigned long long>(wal_bytes));
  json.Emit("wal_commit", static_cast<double>(mok),
            msec * 1e9 / static_cast<double>(mok), mrate, "docs/sec");

  // SIGKILL-shaped crash: copy the directory while the store is live
  // (heaps unflushed, log full), then time the reopen's redo pass.
  std::filesystem::path crash = mdir.Sub("crashed");
  std::filesystem::copy(mopts.data_dir, crash,
                        std::filesystem::copy_options::recursive);
  auto revived = bench::Unwrap(
      xmlstore::XmlStore::Open(crash.string()), "recovery open");
  const storage::RecoveryStats& rec = revived->database()->recovery_stats();
  std::printf("recovery: %llu committed txns, %llu pages in %.1f ms "
              "(%llu docs recovered)\n",
              static_cast<unsigned long long>(rec.committed_txns),
              static_cast<unsigned long long>(rec.pages_applied),
              static_cast<double>(rec.micros) / 1000.0,
              static_cast<unsigned long long>(revived->document_count()));
  json.Emit("recovery", static_cast<double>(rec.pages_applied),
            static_cast<double>(rec.micros) * 1000.0,
            rec.micros > 0 ? static_cast<double>(rec.pages_applied) * 1e6 /
                                 static_cast<double>(rec.micros)
                           : 0,
            "pages/sec");
  std::printf("shape check: recovery replays the whole unflushed log.\n");

  // Final snapshot of the first sweep's daemon registry (ingest counters +
  // prepare/insert histograms) into BENCH_fig3_ingestion.json.
  json.EmitMetrics(*daemon.metrics());
}

}  // namespace

int main(int argc, char** argv) {
  PrintPipelineReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
