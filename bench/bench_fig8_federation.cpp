// Fig 8 — "Highly scalable and flexible integration": a thin router over
// arbitrary numbers of sources.
//
// Series:
//   - fan-out latency vs number of sources in a databank (in-process sources
//     isolate router cost; HTTP sources add the wire);
//   - augmentation overhead: databank of content-only sources answering a
//     context query (router does the section extraction) vs full-capability
//     sources answering it natively.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "federation/router.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace {

using namespace netmark;

struct Fleet {
  std::vector<bench::LoadedInstance> instances;
  federation::Router router;
};

// Builds a databank of `n` full-capability in-process stores, each holding
// `docs_each` documents.
std::unique_ptr<Fleet> MakeStoreFleet(int n, size_t docs_each) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    fleet->instances.push_back(
        bench::MakeLoadedInstance(docs_each, 100 + static_cast<uint64_t>(i)));
    std::string name = "s" + std::to_string(i);
    bench::Check(
        fleet->router.RegisterSource(std::make_shared<federation::LocalStoreSource>(
            name, fleet->instances.back().nm->store())),
        "register");
    names.push_back(name);
  }
  bench::Check(fleet->router.DefineDatabank("bank", names), "databank");
  return fleet;
}

// Builds a databank of `n` content-only sources (forces augmentation).
std::unique_ptr<federation::Router> MakeContentOnlyFleet(int n, int docs_each) {
  auto router = std::make_unique<federation::Router>();
  workload::CorpusGenerator gen(55);
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    auto source =
        std::make_shared<federation::ContentOnlySource>("c" + std::to_string(i));
    for (int d = 0; d < docs_each; ++d) {
      auto doc = gen.LessonLearned(i * 1000 + d);
      auto parsed = xml::ParseXml(doc.content);
      bench::Check(parsed.status(), "parse");
      source->AddDocument(doc.file_name, *parsed);
    }
    bench::Check(router->RegisterSource(source), "register");
    names.push_back("c" + std::to_string(i));
  }
  bench::Check(router->DefineDatabank("bank", names), "databank");
  return router;
}

void BM_FanOut(benchmark::State& state) {
  auto fleet = MakeStoreFleet(static_cast<int>(state.range(0)), 60);
  query::XdbQuery q;
  q.context = "Budget";
  size_t hits_count = 0;
  for (auto _ : state) {
    auto result = fleet->router.QueryFederated("bank", q);
    bench::Check(result.status(), "query");
    hits_count = result->hits.size();
    benchmark::DoNotOptimize(hits_count);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sources"] = static_cast<double>(state.range(0));
  state.counters["hits"] = static_cast<double>(hits_count);
}
BENCHMARK(BM_FanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_AugmentedFanOut(benchmark::State& state) {
  auto router = MakeContentOnlyFleet(static_cast<int>(state.range(0)), 40);
  query::XdbQuery q;
  q.context = "Lesson";
  q.content = "engine";
  size_t augmented = 0;
  for (auto _ : state) {
    auto hits = router->QueryFederated("bank", q);
    bench::Check(hits.status(), "query");
    augmented = hits->stats.augmented;
    benchmark::DoNotOptimize(hits->hits.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sources"] = static_cast<double>(state.range(0));
  state.counters["augmented_sources"] = static_cast<double>(augmented);
}
BENCHMARK(BM_AugmentedFanOut)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void PrintScalingTable() {
  bench::ReportHeader("Fig 8: thin-router scaling over arbitrary sources",
                      "query cost grows ~linearly in fan-out (no mediator "
                      "bottleneck), and augmentation is a modest constant "
                      "factor per limited source");
  std::printf("%10s %18s %14s %22s\n", "sources", "fan-out (ms)", "hits",
              "ms per source");
  bench::JsonLines json("fig8_federation");
  query::XdbQuery q;
  q.context = "Budget";
  for (int n : {1, 2, 4, 8, 16, 32}) {
    auto fleet = MakeStoreFleet(n, 60);
    // Warm.
    bench::Check(fleet->router.QueryFederated("bank", q).status(), "warm");
    const int kReps = 10;
    Stopwatch w;
    size_t hits_count = 0;
    for (int r = 0; r < kReps; ++r) {
      hits_count =
          bench::Unwrap(fleet->router.QueryFederated("bank", q), "query").hits.size();
    }
    double ms = w.ElapsedSeconds() * 1000 / kReps;
    std::printf("%10d %18.3f %14zu %22.3f\n", n, ms, hits_count, ms / n);
    json.Emit("fan_out", static_cast<double>(n), ms * 1e6,
              static_cast<double>(hits_count), "hits");
    if (n == 32) {
      // Widest fan-out: dump the router registry (federation counters,
      // per-source latency histograms, breaker-state gauges).
      json.EmitMetrics(*fleet->router.metrics());
    }
  }
  std::printf("shape check: 'ms per source' stays ~flat -> the router adds no\n"
              "super-linear coordination cost; hits scale with sources.\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
