// Anomaly Tracking (paper Table 1, §3) — federated querying of two
// web-accessible anomaly databases, plus the capability-limited Lessons
// Learned server from §2.1.5.
//
// Topology (Fig 8): two live NETMARK HTTP servers each hold one center's
// anomaly reports; a content-search-only lessons source sits beside them.
// One declarative databank ties them together, and the thin router pushes
// down what each source supports, augmenting the rest.
//
// Run: ./build/examples/anomaly_tracking

#include <cstdio>
#include <cstdlib>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "federation/content_only_source.h"
#include "federation/remote_source.h"
#include "server/http_client.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace {

void Check(const netmark::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(netmark::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

}  // namespace

int main() {
  auto dir = Unwrap(netmark::TempDir::Make("anomaly"), "temp dir");
  netmark::workload::CorpusGenerator gen(777);

  // --- Two remote anomaly databases, served over real HTTP ---------------
  std::vector<std::unique_ptr<netmark::Netmark>> centers;
  const char* center_names[] = {"johnson-anomalies", "marshall-anomalies"};
  for (int c = 0; c < 2; ++c) {
    netmark::NetmarkOptions options;
    options.data_dir = dir.Sub("center" + std::to_string(c)).string();
    auto nm = Unwrap(netmark::Netmark::Open(options), "open center");
    for (int i = 0; i < 6; ++i) {
      auto doc = gen.AnomalyReport(c * 100 + i);
      Unwrap(nm->IngestContent(doc.file_name, doc.content), "ingest report");
    }
    Check(nm->StartServer(), "start server");
    std::printf("%s serving %llu reports on 127.0.0.1:%u\n", center_names[c],
                static_cast<unsigned long long>(nm->store()->document_count()),
                nm->server_port());
    centers.push_back(std::move(nm));
  }

  // --- The Lessons Learned server: content search only --------------------
  auto lessons =
      std::make_shared<netmark::federation::ContentOnlySource>("lessons-learned");
  for (int i = 0; i < 8; ++i) {
    auto doc = gen.LessonLearned(i);
    auto parsed = Unwrap(netmark::xml::ParseXml(doc.content), "parse lesson");
    lessons->AddDocument(doc.file_name, parsed);
  }
  // One pinned entry so the augmentation walkthrough below always has a hit
  // (it is the paper's own example: Context=Title & Content=Engine).
  auto pinned = Unwrap(
      netmark::xml::ParseXml(
          "<document><context>Title</context>"
          "<content>Engine inspection lesson from STS-93</content>"
          "<context>Lesson</context>"
          "<content>Always borescope the engine nozzle between flights.</content>"
          "</document>"),
      "parse pinned lesson");
  lessons->AddDocument("lesson_engine.xml", pinned);
  std::printf("lessons-learned holds %zu entries (content search ONLY)\n\n",
              lessons->document_count());

  // --- The application: one databank declaration, zero schemas ------------
  netmark::NetmarkOptions options;
  options.data_dir = dir.Sub("app").string();
  auto app = Unwrap(netmark::Netmark::Open(options), "open app");
  for (int c = 0; c < 2; ++c) {
    Check(app->RegisterSource(std::make_shared<netmark::federation::RemoteSource>(
              center_names[c], std::make_unique<netmark::server::SocketTransport>(
                                   "127.0.0.1", centers[c]->server_port()))),
          "register remote");
  }
  Check(app->RegisterSource(lessons), "register lessons");
  Check(app->DefineDatabank(
            "anomalies", {"johnson-anomalies", "marshall-anomalies",
                          "lessons-learned"}),
        "define databank");

  // Query 1: every critical disposition, across both centers at once.
  std::printf("== Context=Disposition & Content=critical (both centers) ==\n");
  auto critical = Unwrap(
      app->QueryDatabankFederated("anomalies",
                                  "context=Disposition&content=critical"),
      "federated query");
  for (const auto& hit : critical.hits) {
    std::printf("  [%s] %s: %.70s\n", hit.source.c_str(), hit.file_name.c_str(),
                hit.body ? hit.body->Text().c_str() : "");
  }
  std::printf("  (%zu sources queried, %zu full push-down, %zu augmented,"
              " complete=%s)\n\n",
              critical.stats.sources_queried, critical.stats.pushed_down_full,
              critical.stats.augmented, critical.complete() ? "yes" : "no");

  // Query 2: the paper's augmentation walkthrough — Context=Title against
  // the lessons server, which can only run the Content part itself.
  std::printf("== Context=Title & Content=engine (lessons server augmented) ==\n");
  auto lessons_hits = Unwrap(
      app->QueryDatabankFederated("anomalies", "context=Title&content=engine"),
      "augmented query");
  for (const auto& hit : lessons_hits.hits) {
    std::printf("  [%s] %s -> %s\n", hit.source.c_str(), hit.file_name.c_str(),
                hit.body ? hit.body->Text().c_str() : "");
  }
  std::printf("  (%zu sources needed client-side augmentation)\n",
              lessons_hits.stats.augmented);
  for (const auto& outcome : lessons_hits.sources) {
    std::printf("  source %-18s %s after %d attempt(s)\n",
                outcome.source.c_str(),
                std::string(netmark::federation::SourceStateToString(outcome.state))
                    .c_str(),
                outcome.attempts);
  }

  for (auto& nm : centers) nm->StopServer();
  return 0;
}
