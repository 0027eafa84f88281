// The workloads and the seeded plan of one run: which URLs, in which
// order, at which offered rates, for how long.

#ifndef NETMARK_E2E_WORKLOAD_H_
#define NETMARK_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/query_hit.h"
#include "requests.h"
#include "workload/corpus.h"

namespace e2e {

enum class Kind { kXdbHot, kXdbCold, kFederated };

/// Reader connections of the open and the closed loop: the whole load comes
/// from at most nproc (4) connections.
inline constexpr int kConnections = 4;

/// Everything one run sends, fixed by (workload, seed, seconds) before any
/// instance starts.
struct Plan {
  Kind kind = Kind::kXdbHot;
  std::string name;
  uint64_t seed = 0;
  bool smoke = false;

  size_t corpus_docs = 0;  ///< swept in at setup
  size_t remote_docs = 0;  ///< federated: the second instance's corpus
  int setups = 0;          ///< set-ups per run; setup_s is their median
  int rounds = 0;          ///< rounds the phases are split into

  double read_rate = 0;   ///< open-loop /xdb requests per second
  double put_rate = 0;    ///< open-loop PUTs per second (one connection)
  double open_seconds = 0;
  double closed_seconds = 0;
  double put_seconds = 0;

  std::vector<std::string> space;  ///< distinct /xdb targets
  std::vector<uint32_t> warm;      ///< warm-up requests (untimed)
  std::vector<uint32_t> open_seq;  ///< open-loop requests, in due order
  std::vector<uint32_t> closed_seq;
  std::vector<PutDoc> puts;
  std::vector<std::vector<netmark::workload::GeneratedDoc>> sweep_batches;

  bool federated() const { return kind == Kind::kFederated; }
};

/// Parses a workload name ("xdb_hot", ...); false when unknown.
bool ParseKind(const std::string& name, Kind* kind);

Plan MakePlan(Kind kind, uint64_t seed, double seconds, bool smoke);

}  // namespace e2e

#endif  // NETMARK_E2E_WORKLOAD_H_
