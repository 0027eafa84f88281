// Proposal Financial Management (paper Table 1, "1 hour" application).
//
// An information system for tracking proposal financials: all proposals
// submitted in response to a call (Word-format files, here NRT) land in a
// drop folder; the application answers aggregate questions — proposal counts
// by NASA division, dollar totals, largest requests — by querying Budget
// sections and doing the arithmetic client-side. No schema was designed for
// any of this: the "assembly" is this one file.
//
// Run: ./build/examples/proposal_financial [n_proposals]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/string_util.h"
#include "common/temp_dir.h"
#include "core/netmark.h"
#include "workload/corpus.h"

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

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 40;
  auto dir = Unwrap(netmark::TempDir::Make("proposals"), "temp dir");
  netmark::NetmarkOptions options;
  options.data_dir = dir.Sub("data").string();
  auto nm = Unwrap(netmark::Netmark::Open(options), "open");

  // Simulate the submission inbox: generated Word-style proposals dropped
  // into the watched folder, picked up by the daemon path.
  std::filesystem::path drop = dir.Sub("inbox");
  std::filesystem::create_directories(drop);
  netmark::workload::CorpusGenerator gen(4242);
  for (int i = 0; i < n; ++i) {
    auto doc = gen.Proposal(i);
    Check(netmark::WriteFile(drop / doc.file_name, doc.content), "write proposal");
  }
  netmark::server::DaemonOptions daemon_opts;
  daemon_opts.drop_dir = drop;
  daemon_opts.stable_age = std::chrono::milliseconds(0);  // inbox is pre-written
  Check(nm->StartDaemon(daemon_opts), "start daemon");
  int ingested = Unwrap(nm->ProcessDropFolderOnce(), "sweep inbox");
  nm->StopDaemon();
  std::printf("ingested %d proposals from the inbox\n\n", ingested);

  // Aggregate: the Budget section of every proposal carries the requested
  // amount and division; parse them out of the query hits.
  auto hits = Unwrap(nm->Query("context=Budget"), "budget query");
  struct DivisionStats {
    int proposals = 0;
    long long total_k = 0;
    long long max_k = 0;
  };
  std::map<std::string, DivisionStats> by_division;
  for (const auto& hit : hits) {
    // "The requested amount is <N> thousand dollars for division <D>."
    const std::string text = hit.body->Text();
    size_t amount_pos = text.find("requested amount is ");
    size_t division_pos = text.find("for division ");
    if (amount_pos == std::string::npos || division_pos == std::string::npos) {
      continue;
    }
    long long amount = std::stoll(text.substr(amount_pos + 20));
    std::string division = text.substr(division_pos + 13);
    division = division.substr(0, division.find_first_of(". "));
    DivisionStats& stats = by_division[division];
    ++stats.proposals;
    stats.total_k += amount;
    stats.max_k = std::max(stats.max_k, amount);
  }

  std::printf("%-16s %10s %14s %12s\n", "division", "proposals", "total ($K)",
              "max ($K)");
  long long grand_total = 0;
  int grand_count = 0;
  for (const auto& [division, stats] : by_division) {
    std::printf("%-16s %10d %14lld %12lld\n", division.c_str(), stats.proposals,
                stats.total_k, stats.max_k);
    grand_total += stats.total_k;
    grand_count += stats.proposals;
  }
  std::printf("%-16s %10d %14lld\n", "TOTAL", grand_count, grand_total);

  // A drill-down a program manager would ask: which proposals mention a
  // specific subsystem in their technical approach?
  auto turbine =
      Unwrap(nm->Query("context=Technical+Approach&content=turbine"), "drill-down");
  std::printf("\nproposals whose Technical Approach mentions 'turbine': %zu\n",
              turbine.size());
  for (const auto& hit : turbine) {
    std::printf("  %s\n", hit.file_name.c_str());
  }
  return 0;
}
