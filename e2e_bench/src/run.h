// One benchmark run: set-up, the HTTP phases, the sweeps and the checks.
// The untraced and the traced run share all of it; the traced run adds the
// in-process replay (traced.h).

#ifndef NETMARK_E2E_RUN_H_
#define NETMARK_E2E_RUN_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "instance.h"
#include "loadgen.h"
#include "observability/metrics.h"
#include "workload.h"

namespace e2e {

/// Length and 128-bit hash of a response body: what a reply is compared
/// against (bodies themselves would be held in memory and show in
/// peak_rss_mb).
struct BodyDigest {
  size_t size = 0;
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  bool operator==(const BodyDigest&) const = default;
};
BodyDigest Digest(std::string_view body);

/// Federated replies carry per-source wall times in <sources>; drops every
/// latency_ms="..." attribute so only the result set is compared.
std::string StripSourceLatencies(std::string body);

/// Registry figures before and after a phase.
double CounterSum(const netmark::observability::MetricsSnapshot& snap,
                  const std::string& name, const std::string& label_value = "");
const netmark::observability::HistogramSample* FindHistogram(
    const netmark::observability::MetricsSnapshot& snap, const std::string& name);

/// Result-cache lookups of the open loops: the server's registry against a
/// model of the cache. At a steady epoch a lookup hits when its key (the
/// executor's canonical query string) was looked up before; the model does
/// not evict.
struct CacheCheck {
  uint64_t requests = 0;       ///< open-loop /xdb requests sent
  uint64_t lookups = 0;        ///< registry hits + misses over the open loops
  uint64_t hits = 0;           ///< registry hits over the open loops
  uint64_t expected_hits = 0;  ///< the model's hits on the same sequence
  /// Predicted hits whose first lookup was still in flight when they were
  /// sent: two concurrent first lookups both miss.
  uint64_t concurrent = 0;
  uint64_t evictions = 0;  ///< registry evictions over all read phases
};

struct Run {
  explicit Run(Plan p) : plan(std::move(p)) {}

  Plan plan;
  std::filesystem::path workdir;
  std::unique_ptr<Instance> remote;  ///< federated only
  std::unique_ptr<Instance> main;    ///< the instance under load
  std::vector<double> setup_seconds;
  uint64_t input_bytes = 0;          ///< source bytes ingested into main
  uint64_t docs_inserted = 0;        ///< documents committed after set-up
  netmark::server::DaemonCounters daemon_after_setup;

  /// Expected reply per URL of plan.space.
  std::vector<BodyDigest> expected;
  std::vector<char> have_expected;

  // Outcomes of the HTTP phases, per round.
  std::vector<std::vector<Outcome>> open_rounds;
  std::vector<ClosedLoopResult> closed_rounds;
  std::vector<std::vector<uint32_t>> closed_sent;  ///< plan.space indices per round
  std::vector<std::vector<Outcome>> put_rounds;
  std::vector<int64_t> put_ids;  ///< doc id acknowledged per PUT (-1: none)
  std::vector<double> sweep_docs_per_s;
  uint64_t xdb_requests_sent = 0;
  uint64_t put_requests_sent = 0;
  CacheCheck cache;

  // Failures beyond the outcomes: cross-check and reconstruct mismatches.
  uint64_t extra_attempted = 0;
  uint64_t extra_failed = 0;
  std::mutex error_mu;
  std::vector<std::string> errors;
  void NoteError(const std::string& what);
  /// Counts one check beyond the outcomes; notes `what` when it failed.
  void Expect(bool ok, const std::string& what);
};

void SetUp(Run* run);
/// References for every URL the reads send, in-process before timing.
void ComputeExpected(Run* run);
/// Warm-up, then plan.rounds rounds of open loop and closed loop, at one
/// steady epoch.
void RunReads(Run* run);
/// plan.rounds rounds of open-loop PUTs and timed drop-folder sweeps.
void RunWrites(Run* run);
/// Drops `batch` into the drop folder and times one daemon sweep of it.
void SweepBatch(Run* run, const std::vector<netmark::workload::GeneratedDoc>& batch);
/// Every acknowledged PUT's latest document id must reconstruct.
void CheckPutsReconstruct(Run* run);
/// Compares the benchmark's counts with the server's own instruments,
/// printing both; a disagreement in the request counts or the result-cache
/// hits fails the run.
void CrossCheck(Run* run, const netmark::observability::MetricsSnapshot& before);

}  // namespace e2e

#endif  // NETMARK_E2E_RUN_H_
