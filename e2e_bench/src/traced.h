// The traced run's in-process replay: the same seeded request sequence the
// HTTP phases sent, through direct calls into each module's public
// functions, each call inside a span. Per-layer metrics come from here.

#ifndef NETMARK_E2E_TRACED_H_
#define NETMARK_E2E_TRACED_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "run.h"

namespace e2e {

/// \brief The traced replay of one run: `run`'s sequence again, on fresh
/// caches of its own (so it neither reads nor warms the caches the HTTP
/// phases use), with every public call inside a span.
class TracedRun {
 public:
  explicit TracedRun(Run* run);
  ~TracedRun();
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  /// Replays the reads RunReads sent: the open loops timed, the warm-up and
  /// the closed loops' keys untimed (so the replay's caches hold what the
  /// server's did). Call after RunReads and before RunWrites, on the store
  /// the HTTP reads saw.
  void ReplayReads();
  /// Replays the PUTs, writes the spans to `spans_path` and returns every
  /// per-layer metric. `before` is the main instance's registry right
  /// after set-up.
  std::vector<Metric> Finish(const netmark::observability::MetricsSnapshot& before,
                             const std::string& spans_path);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace e2e

#endif  // NETMARK_E2E_TRACED_H_
