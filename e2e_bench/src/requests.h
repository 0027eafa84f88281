// Seeded inputs: the drop-folder corpus, each workload's /xdb URL space,
// the request sequences drawn from it, and the documents the writer PUTs.
// Everything here is a pure function of the seed; NETMARK only ever sees
// the generated bytes.

#ifndef NETMARK_E2E_REQUESTS_H_
#define NETMARK_E2E_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/corpus.h"

namespace e2e {

/// Stylesheet registered as `xslt=report` on every instance (the Fig 7
/// report sheet: one <section> per result, sorted by document).
extern const char* const kReportSheet;

/// Name of the databank the federated workload queries.
inline constexpr const char* kDatabank = "fed";

/// `n` mixed-format documents cycling through all six src/workload
/// generators (proposal .doc, task plan .txt, anomaly .html, lesson .xml,
/// risk memo .md, budget sheet .csv).
std::vector<netmark::workload::GeneratedDoc> MixedCorpus(uint64_t seed, size_t n,
                                                         const std::string& prefix);

// The URL spaces and the popularity ranking are part of a workload's
// definition, not of its seed: a seed that put another URL on top of the
// Zipf ranking would change the workload, not just its sample.

/// The 64-URL hot space: a third context-only, a third context+content, a
/// third content-only, and about a third with `xslt=report`. With
/// `databank` set, every URL names it (the federated workload).
std::vector<std::string> HotSpace(const std::string& databank);

/// The long-tail cold space: context x content x xslt, at least 4x the
/// result cache's 1,024 entries, including broad context-only sections.
std::vector<std::string> ColdSpace();

/// `count` indices into a space of `n` URLs ranked by position, drawn
/// Zipf(1.0).
std::vector<uint32_t> ZipfSequence(uint64_t seed, size_t n, size_t count);

/// `count` indices drawn uniformly from [0, n).
std::vector<uint32_t> UniformSequence(uint64_t seed, size_t n, size_t count);

/// One WebDAV PUT the writer issues.
struct PutDoc {
  std::string name;
  std::string body;
  bool overwrite = false;  ///< reuses an earlier name (delete + insert)
};

/// `count` mixed-format PUTs; about 20% reuse the name of an earlier PUT of
/// the same stream, so WebDAV replaces that document.
std::vector<PutDoc> PutStream(uint64_t seed, size_t count);

}  // namespace e2e

#endif  // NETMARK_E2E_REQUESTS_H_
