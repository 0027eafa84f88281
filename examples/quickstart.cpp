// Quickstart: the 60-second tour of the NETMARK public API.
//
//   1. Open an instance.
//   2. Drop heterogeneous documents in (text, markdown, HTML).
//   3. Ask context / content / combined XDB queries.
//   4. Compose results into a new document with XSLT.
//
// Run: ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>

#include "common/temp_dir.h"
#include "core/netmark.h"

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
  auto dir = Unwrap(netmark::TempDir::Make("quickstart"), "temp dir");
  netmark::NetmarkOptions options;
  options.data_dir = dir.Sub("data").string();
  auto nm = Unwrap(netmark::Netmark::Open(options), "open");

  // --- 1. Ingest: three formats, zero schema work -------------------------
  Unwrap(nm->IngestContent("status.txt",
                           "MISSION STATUS\n"
                           "The shuttle engine review completed on schedule.\n"
                           "\n"
                           "TECHNOLOGY GAP\n"
                           "The avionics technology gap is shrinking rapidly.\n"),
         "ingest txt");
  Unwrap(nm->IngestContent("notes.md",
                           "# Mission Status\n\n"
                           "Ground telemetry shows **green** across the board.\n"),
         "ingest md");
  Unwrap(nm->IngestContent(
             "review.html",
             "<html><h1>Technology Gap</h1>"
             "<p>Flight software closes the gap with rapid iteration.</p></html>"),
         "ingest html");

  std::printf("ingested %llu documents, %llu nodes, %zu index terms\n\n",
              static_cast<unsigned long long>(nm->store()->document_count()),
              static_cast<unsigned long long>(nm->store()->node_count()),
              nm->store()->text_index().num_terms());

  // --- 2. Context search: pull the same-named section from every document -
  std::printf("== Context=Technology Gap ==\n");
  for (const auto& hit : Unwrap(nm->Query("context=Technology+Gap"), "query")) {
    std::printf("  [%s] %s: %s\n", hit.file_name.c_str(), hit.heading.c_str(),
                hit.body->Text().c_str());
  }

  // --- 3. Content search: which documents mention a term anywhere? --------
  std::printf("\n== Content=telemetry ==\n");
  for (const auto& hit : Unwrap(nm->Query("content=telemetry"), "query")) {
    std::printf("  document #%lld (%s)\n", static_cast<long long>(hit.doc_id),
                hit.file_name.c_str());
  }

  // --- 4. Combined: sections titled X that mention Y ----------------------
  std::printf("\n== Context=Technology Gap & Content=shrinking ==\n");
  for (const auto& hit :
       Unwrap(nm->Query("context=Technology+Gap&content=shrinking"), "query")) {
    std::printf("  [%s] %s\n", hit.file_name.c_str(), hit.body->Text().c_str());
  }

  // --- 5. Compose a brand-new document from the hits with XSLT ------------
  const char* stylesheet =
      "<xsl:stylesheet>"
      "<xsl:template match=\"/\">"
      "<briefing title=\"Technology Gap roundup\">"
      "<xsl:for-each select=\"results/result\">"
      "<xsl:sort select=\"@doc\"/>"
      "<item from=\"{@doc}\"><xsl:value-of select=\"content\"/></item>"
      "</xsl:for-each>"
      "</briefing>"
      "</xsl:template>"
      "</xsl:stylesheet>";
  std::printf("\n== XSLT-composed briefing ==\n%s\n",
              Unwrap(nm->QueryAndTransform("context=Technology+Gap", stylesheet),
                     "transform")
                  .c_str());
  return 0;
}
