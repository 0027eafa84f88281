#include "workload.h"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

// Offered open-loop /xdb rates, about a third to a half of the goodput the
// closed loop measured on each workload at the commit that introduced this
// benchmark (4-core x86-64 container, loopback; BENCHMARK.md). Lower load
// keeps queueing, and with it the effect of outside noise, small.
double ReadRate(Kind kind) {
  switch (kind) {
    case Kind::kXdbHot: return 1000;
    case Kind::kXdbCold: return 50;
    case Kind::kFederated: return 300;
  }
  return 100;
}

// Offered PUT rate on one connection, on every workload: about a third of
// the PUT capacity measured the same way (PUTs back to back on one
// connection after the reads, 560-730/s over the first 600 and 490-620/s
// over the next 600, all three workloads, seeds 1-2; BENCHMARK.md). The
// capacity falls as the store grows: every PUT lists the documents.
constexpr double kPutRate = 200;

size_t Count(double rate, double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
}

}  // namespace

bool ParseKind(const std::string& name, Kind* kind) {
  if (name == "xdb_hot") *kind = Kind::kXdbHot;
  else if (name == "xdb_cold") *kind = Kind::kXdbCold;
  else if (name == "federated") *kind = Kind::kFederated;
  else return false;
  return true;
}

Plan MakePlan(Kind kind, uint64_t seed, double seconds, bool smoke) {
  Plan plan;
  plan.kind = kind;
  plan.seed = seed;
  plan.smoke = smoke;
  switch (kind) {
    case Kind::kXdbHot: plan.name = "xdb_hot"; break;
    case Kind::kXdbCold: plan.name = "xdb_cold"; break;
    case Kind::kFederated: plan.name = "federated"; break;
  }
  plan.corpus_docs = smoke ? 60 : 1000;
  plan.remote_docs = smoke ? 30 : 500;
  plan.setups = smoke ? 1 : 3;
  plan.rounds = smoke ? 1 : 8;

  // Smoke runs keep every phase but offer a small load.
  plan.read_rate = smoke ? std::min(ReadRate(kind), 100.0) : ReadRate(kind);
  plan.put_rate = smoke ? 50 : kPutRate;
  // Shares of --seconds per phase. xdb_cold spends more on its open loop:
  // at its low rate that is what buys samples.
  const bool cold = kind == Kind::kXdbCold;
  plan.open_seconds = (cold ? 0.5 : 0.45) * seconds;
  plan.closed_seconds = 0.25 * seconds;
  plan.put_seconds = 0.25 * seconds;

  plan.space = cold ? ColdSpace() : HotSpace(plan.federated() ? kDatabank : "");
  const size_t open_n = Count(plan.read_rate, plan.open_seconds);
  // Closed-loop requests cycle through this list, a slice per round.
  // Goodput is two to three times the offered rate; 6x keeps a round from
  // wrapping, which on xdb_cold would turn repeats into cache hits.
  const size_t closed_n = std::max<size_t>(Count(6 * plan.read_rate, plan.closed_seconds), 100);
  // Hot: one Zipf sequence (one popularity ranking) split into warm-up,
  // open and closed parts. Cold: each part drawn uniformly on its own.
  if (cold) {
    const size_t n = plan.space.size();
    plan.warm = UniformSequence(seed + 1, n, smoke ? 10 : 50);
    plan.open_seq = UniformSequence(seed + 2, n, open_n);
    plan.closed_seq = UniformSequence(seed + 3, n, closed_n);
  } else {
    const size_t warm_n = smoke ? 20 : 500;
    std::vector<uint32_t> all = ZipfSequence(seed, plan.space.size(),
                                             warm_n + open_n + closed_n);
    plan.warm.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(warm_n));
    plan.open_seq.assign(all.begin() + static_cast<ptrdiff_t>(warm_n),
                         all.begin() + static_cast<ptrdiff_t>(warm_n + open_n));
    plan.closed_seq.assign(all.begin() + static_cast<ptrdiff_t>(warm_n + open_n),
                           all.end());
  }

  plan.puts = PutStream(seed, Count(plan.put_rate, plan.put_seconds));

  const int batches = plan.rounds;
  const size_t batch_docs = smoke ? 12 : 100;
  for (int b = 0; b < batches; ++b) {
    plan.sweep_batches.push_back(MixedCorpus(seed ^ (0x7377656570ULL + b), batch_docs,
                                             "sweep" + std::to_string(b) + "_"));
  }
  return plan;
}

}  // namespace e2e
