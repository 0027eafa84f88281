#include "run.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <unordered_map>

#include "query/compose.h"
#include "query/executor.h"
#include "query/xdb_query.h"
#include "server/http_message.h"
#include "server/netmark_service.h"
#include "xml/serializer.h"
#include "xslt/stylesheet.h"

namespace e2e {

namespace fs = std::filesystem;
namespace obs = netmark::observability;

BodyDigest Digest(std::string_view body) {
  // Two FNV-1a-64 streams with different offsets.
  BodyDigest d;
  d.size = body.size();
  d.h1 = 0xcbf29ce484222325ULL;
  d.h2 = 0x84222325cbf29ce4ULL;
  for (unsigned char c : body) {
    d.h1 = (d.h1 ^ c) * 0x100000001b3ULL;
    d.h2 = (d.h2 ^ c) * 0x100000001b3ULL + 0x9E3779B97F4A7C15ULL;
  }
  return d;
}

std::string StripSourceLatencies(std::string body) {
  static const std::string kAttr = " latency_ms=\"";
  size_t pos = 0;
  while ((pos = body.find(kAttr, pos)) != std::string::npos) {
    size_t end = body.find('"', pos + kAttr.size());
    if (end == std::string::npos) break;
    body.erase(pos, end + 1 - pos);
  }
  return body;
}

double CounterSum(const obs::MetricsSnapshot& snap, const std::string& name,
                  const std::string& label_value) {
  double total = 0;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name != name) continue;
    if (!label_value.empty()) {
      bool match = false;
      for (const auto& [k, v] : c.labels) match = match || v == label_value;
      if (!match) continue;
    }
    total += static_cast<double>(c.value);
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name && label_value.empty()) total += g.value;
  }
  return total;
}

const obs::HistogramSample* FindHistogram(const obs::MetricsSnapshot& snap,
                                          const std::string& name) {
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void Run::NoteError(const std::string& what) {
  std::lock_guard<std::mutex> lock(error_mu);
  if (errors.size() < 20) errors.push_back(what);
}

void Run::Expect(bool ok, const std::string& what) {
  ++extra_attempted;
  if (!ok) {
    ++extra_failed;
    NoteError(what);
  }
}

namespace {

std::string QueryPart(const std::string& target) {
  size_t q = target.find('?');
  return q == std::string::npos ? std::string() : target.substr(q + 1);
}

/// The in-process answer to an /xdb target through direct calls and a
/// cache-less executor: the reference the HTTP replies are compared with.
std::string DirectAnswer(const netmark::xmlstore::XmlStore& store,
                         const netmark::query::QueryExecutor& executor,
                         const netmark::xslt::Stylesheet& sheet,
                         const std::string& target) {
  netmark::query::XdbQuery q =
      Unwrap(netmark::query::ParseXdbQuery(QueryPart(target)), "parse reference query");
  netmark::xml::Document results;
  {
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot = store.BeginRead();
    auto hits = Unwrap(executor.Execute(q, snapshot), "reference execute");
    results = Unwrap(netmark::query::ComposeResults(store, q, hits), "reference compose");
  }
  if (!q.xslt.empty()) {
    results = Unwrap(netmark::xslt::Transform(sheet, results), "reference transform");
  }
  return netmark::xml::Serialize(results);
}

/// Runs fn(i) for i in [0, n) on up to four threads.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Request wires for seq[from, to).
std::vector<std::string> Wires(const Plan& plan, const std::vector<uint32_t>& seq,
                               size_t from, size_t to) {
  std::vector<std::string> wires;
  wires.reserve(to - from);
  for (size_t i = from; i < to; ++i) wires.push_back(GetWire(plan.space[seq[i]]));
  return wires;
}

/// [from, to) of round `r` when `n` items are split into `rounds` rounds.
std::pair<size_t, size_t> Slice(size_t n, size_t r, size_t rounds) {
  return {n * r / rounds, n * (r + 1) / rounds};
}

/// \brief The result-cache model of CacheCheck: which keys were looked up.
class CacheModel {
 public:
  explicit CacheModel(const Plan& plan);
  /// Looks up plan.space[index]; true when it should hit.
  bool Lookup(uint32_t index);
  uint32_t key(uint32_t index) const { return key_[index]; }

 private:
  std::vector<uint32_t> key_;  ///< key id per URL of plan.space
  std::vector<char> seen_;     ///< per key id
};

CacheModel::CacheModel(const Plan& plan) {
  std::unordered_map<std::string, uint32_t> ids;
  key_.reserve(plan.space.size());
  for (const std::string& target : plan.space) {
    netmark::query::XdbQuery q =
        Unwrap(netmark::query::ParseXdbQuery(QueryPart(target)), "parse cache key");
    auto [it, fresh] = ids.emplace(q.ToQueryString(), static_cast<uint32_t>(ids.size()));
    key_.push_back(it->second);
  }
  seen_.assign(ids.size(), 0);
}

bool CacheModel::Lookup(uint32_t index) {
  char& seen = seen_[key_[index]];
  const bool hit = seen != 0;
  seen = 1;
  return hit;
}

/// Feeds one open loop's requests, in due order, to the model and counts
/// the hits it predicts, and those of them that were sent while their key's
/// first lookup in this loop was still in flight.
void PredictOpenLoop(CacheModel* model, const std::vector<uint32_t>& seq, size_t from,
                     const std::vector<Outcome>& outcomes, CacheCheck* check) {
  std::unordered_map<uint32_t, size_t> first;  // key -> outcome of its first lookup
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const uint32_t idx = seq[from + i];
    if (!model->Lookup(idx)) {
      first.emplace(model->key(idx), i);
      continue;
    }
    ++check->expected_hits;
    auto it = first.find(model->key(idx));
    if (it != first.end() && outcomes[it->second].done_ns > outcomes[i].sent_ns) {
      ++check->concurrent;
    }
  }
}

}  // namespace

void SetUp(Run* run) {
  const Plan& plan = run->plan;
  std::vector<netmark::workload::GeneratedDoc> corpus =
      MixedCorpus(plan.seed, plan.corpus_docs, "");
  std::vector<netmark::workload::GeneratedDoc> remote_corpus;
  if (plan.federated()) {
    remote_corpus = MixedCorpus(plan.seed ^ 0x72656D6F7465ULL, plan.remote_docs, "r_");
  }
  for (const auto& doc : corpus) run->input_bytes += doc.content.size();

  for (int s = 0; s < plan.setups; ++s) {
    // Set-ups before the last are timed, then torn down; the last one is
    // the instance the workload runs against.
    const fs::path dir = run->workdir / ("setup" + std::to_string(s));
    WriteDropFiles(dir / "main" / "drop", corpus);
    std::unique_ptr<Instance> remote;
    double seconds = 0;
    if (plan.federated()) {
      WriteDropFiles(dir / "remote" / "drop", remote_corpus);
      remote = StartInstance(dir / "remote", remote_corpus.size());
      seconds += remote->setup_seconds;
    }
    std::unique_ptr<Instance> main = StartInstance(dir / "main", corpus.size());
    if (plan.federated()) AttachFederation(main.get(), *remote, plan.seed);
    seconds += main->setup_seconds;
    run->setup_seconds.push_back(seconds);
    if (s + 1 == plan.setups) {
      run->main = std::move(main);
      run->remote = std::move(remote);
      run->daemon_after_setup = run->main->daemon->counters();
    } else {
      main.reset();
      remote.reset();
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
}

void ComputeExpected(Run* run) {
  const Plan& plan = run->plan;
  std::vector<char> needed(plan.space.size(), 0);
  for (const auto* seq : {&plan.warm, &plan.open_seq, &plan.closed_seq}) {
    for (uint32_t idx : *seq) needed[idx] = 1;
  }
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < needed.size(); ++i) {
    if (needed[i]) indices.push_back(i);
  }
  Instance& inst = *run->main;
  run->expected.assign(plan.space.size(), BodyDigest{});
  run->have_expected.assign(plan.space.size(), 0);
  if (plan.federated()) {
    // A cache-less service over a router of its own whose local source has
    // no cache either; the remote instance answers each URL here first.
    std::unique_ptr<netmark::federation::Router> router =
        MakeDatabankRouter(inst, nullptr, nullptr);
    netmark::server::NetmarkService reference(inst.nm->store());
    reference.set_router(router.get());
    netmark::query::ResultCacheOptions off;
    off.enabled = false;
    reference.ConfigureQueryCache(off, {});
    Check(reference.RegisterStylesheet("report", kReportSheet), "reference stylesheet");
    ParallelFor(indices.size(), [&](size_t i) {
      const uint32_t idx = indices[i];
      auto request = Unwrap(netmark::server::ParseRequest(GetWire(plan.space[idx])),
                            "parse reference request");
      netmark::server::HttpResponse reply = reference.Handle(request);
      if (reply.status != 200) Die("reference " + plan.space[idx] + " failed");
      run->expected[idx] = Digest(StripSourceLatencies(std::move(reply.body)));
    });
  } else {
    const netmark::query::QueryExecutor executor(inst.nm->store());
    ParallelFor(indices.size(), [&](size_t i) {
      thread_local netmark::xslt::Stylesheet sheet =
          Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "parse stylesheet");
      const uint32_t idx = indices[i];
      run->expected[idx] =
          Digest(DirectAnswer(*inst.nm->store(), executor, sheet, plan.space[idx]));
    });
  }
  for (uint32_t idx : indices) run->have_expected[idx] = 1;
}

void RunReads(Run* run) {
  const Plan& plan = run->plan;
  const uint16_t port = run->main->port;
  auto check = [run](const std::vector<uint32_t>& seq, size_t from) -> ResponseCheck {
    return [run, &seq, from](uint32_t i, const HttpResult& reply) {
      const uint32_t idx = seq[from + i];
      bool ok = reply.status == 200 && run->have_expected[idx];
      if (ok) {
        BodyDigest got = run->plan.federated() ? Digest(StripSourceLatencies(reply.body))
                                               : Digest(reply.body);
        ok = got == run->expected[idx];
      }
      if (!ok) {
        run->NoteError("reply " + std::to_string(reply.status) + " to " +
                       run->plan.space[idx] + " failed its check");
      }
      return ok;
    };
  };
  obs::MetricsRegistry* registry = run->main->nm->metrics();
  const obs::MetricsSnapshot reads_before = registry->Collect();
  CacheModel model(plan);

  // Warm-up: every warm request as fast as the connections allow.
  {
    std::vector<Outcome> warm =
        RunOpenLoop(port, Wires(plan, plan.warm, 0, plan.warm.size()), 1e9, kConnections,
                    NowNanos(), check(plan.warm, 0));
    run->xdb_requests_sent += warm.size();
    run->extra_attempted += warm.size();
    for (const Outcome& o : warm) run->extra_failed += o.correct ? 0 : 1;
    for (uint32_t idx : plan.warm) model.Lookup(idx);
  }

  // The phases run in rounds, each a slice of every sequence: a disturbance
  // from outside (this machine is shared) then spoils one round, and the
  // per-round medians the report takes discard it.
  const size_t rounds = static_cast<size_t>(plan.rounds);
  CacheCheck& cache = run->cache;
  for (size_t r = 0; r < rounds; ++r) {
    auto [open_from, open_to] = Slice(plan.open_seq.size(), r, rounds);
    std::vector<std::string> wires = Wires(plan, plan.open_seq, open_from, open_to);
    const obs::MetricsSnapshot before = registry->Collect();
    run->open_rounds.push_back(RunOpenLoop(port, wires, plan.read_rate, kConnections,
                                           NowNanos() + 20'000'000,
                                           check(plan.open_seq, open_from)));
    const obs::MetricsSnapshot after = registry->Collect();
    const double hits = CounterSum(after, "netmark_query_cache_hits_total") -
                        CounterSum(before, "netmark_query_cache_hits_total");
    const double misses = CounterSum(after, "netmark_query_cache_misses_total") -
                          CounterSum(before, "netmark_query_cache_misses_total");
    cache.hits += static_cast<uint64_t>(hits);
    cache.lookups += static_cast<uint64_t>(hits + misses);
    cache.requests += run->open_rounds.back().size();
    PredictOpenLoop(&model, plan.open_seq, open_from, run->open_rounds.back(), &cache);

    auto [closed_from, closed_to] = Slice(plan.closed_seq.size(), r, rounds);
    run->closed_rounds.push_back(RunClosedLoop(
        port, Wires(plan, plan.closed_seq, closed_from, closed_to), kConnections,
        plan.closed_seconds / static_cast<double>(rounds),
        check(plan.closed_seq, closed_from)));
    // The keys the closed loop looked up, in the order they were sent.
    std::vector<Outcome> by_time = run->closed_rounds.back().outcomes;
    std::stable_sort(by_time.begin(), by_time.end(),
                     [](const Outcome& a, const Outcome& b) { return a.sent_ns < b.sent_ns; });
    std::vector<uint32_t>& sent = run->closed_sent.emplace_back();
    for (const Outcome& o : by_time) {
      sent.push_back(plan.closed_seq[closed_from + o.index]);
      model.Lookup(sent.back());
    }
  }
  cache.evictions = static_cast<uint64_t>(
      CounterSum(registry->Collect(), "netmark_query_cache_evictions_total") -
      CounterSum(reads_before, "netmark_query_cache_evictions_total"));
  for (const auto& round : run->open_rounds) run->xdb_requests_sent += round.size();
  for (const auto& round : run->closed_rounds) run->xdb_requests_sent += round.outcomes.size();
}

void RunWrites(Run* run) {
  const Plan& plan = run->plan;
  const uint16_t port = run->main->port;
  run->put_ids.assign(plan.puts.size(), -1);
  const size_t rounds = static_cast<size_t>(plan.rounds);
  for (size_t r = 0; r < rounds; ++r) {
    auto [from, to] = Slice(plan.puts.size(), r, rounds);
    std::vector<std::string> wires;
    for (size_t i = from; i < to; ++i) {
      wires.push_back(PutWire("/docs/" + plan.puts[i].name, plan.puts[i].body));
    }
    ResponseCheck put_check = [run, from = from](uint32_t i, const HttpResult& reply) {
      const std::string prefix = "/docs/";
      const bool ok = (reply.status == 201 || reply.status == 204) &&
                      reply.location.rfind(prefix, 0) == 0;
      if (ok) {
        run->put_ids[from + i] = std::atoll(reply.location.c_str() + prefix.size());
      } else {
        run->NoteError("PUT " + run->plan.puts[from + i].name + " got " +
                       std::to_string(reply.status));
      }
      return ok;
    };
    run->put_rounds.push_back(
        RunOpenLoop(port, wires, plan.put_rate, 1, NowNanos() + 10'000'000, put_check));
    // Between PUT rounds, timed drop-folder sweeps of fresh files.
    const size_t batches = plan.sweep_batches.size();
    for (size_t b = r * batches / rounds; b < (r + 1) * batches / rounds; ++b) {
      SweepBatch(run, plan.sweep_batches[b]);
    }
  }
  for (const auto& round : run->put_rounds) {
    run->put_requests_sent += round.size();
    for (const Outcome& o : round) run->docs_inserted += o.correct ? 1 : 0;
  }
  for (const PutDoc& put : plan.puts) run->input_bytes += put.body.size();
}

void CheckPutsReconstruct(Run* run) {
  const Plan& plan = run->plan;
  std::map<std::string, int64_t> latest;
  for (size_t i = 0; i < plan.puts.size(); ++i) {
    if (run->put_ids[i] >= 0) latest[plan.puts[i].name] = run->put_ids[i];
  }
  netmark::xmlstore::XmlStore* store = run->main->nm->store();
  auto snapshot = store->BeginRead();
  for (const auto& [name, id] : latest) {
    run->Expect(store->Reconstruct(id).ok(), "acknowledged PUT " + name + " (id " +
                                                 std::to_string(id) +
                                                 ") does not reconstruct");
  }
}

void SweepBatch(Run* run, const std::vector<netmark::workload::GeneratedDoc>& batch) {
  Instance& inst = *run->main;
  WriteDropFiles(inst.drop, batch);
  for (const auto& doc : batch) run->input_bytes += doc.content.size();
  const int64_t t0 = NowNanos();
  int swept = Unwrap(inst.daemon->ProcessOnce(), "timed sweep");
  const double seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  run->extra_attempted += batch.size();
  if (static_cast<size_t>(swept) != batch.size()) {
    run->extra_failed += batch.size() - std::min(batch.size(), static_cast<size_t>(swept));
    run->NoteError("sweep ingested " + std::to_string(swept) + " of " +
                   std::to_string(batch.size()));
  }
  run->sweep_docs_per_s.push_back(static_cast<double>(swept) / seconds);
  run->docs_inserted += static_cast<uint64_t>(swept);
}

void CrossCheck(Run* run, const obs::MetricsSnapshot& before) {
  obs::MetricsSnapshot now = run->main->nm->metrics()->Collect();
  auto delta = [&](const std::string& name, const std::string& label = "") {
    return CounterSum(now, name, label) - CounterSum(before, name, label);
  };
  const double xdb_served = delta("netmark_http_requests_total", "/xdb");
  const double docs_served = delta("netmark_http_requests_total", "/docs");
  const CacheCheck& c = run->cache;
  const obs::HistogramSample* latency = FindHistogram(now, "netmark_query_latency_micros");
  std::fprintf(stderr,
               "cross-check (benchmark | server registry):\n"
               "  /xdb requests      %10llu | %10.0f\n"
               "  PUT /docs requests %10llu | %10.0f\n"
               "  open-loop result-cache lookups %llu | %llu\n"
               "  open-loop result-cache hits: expected %llu (less up to %llu concurrent "
               "first lookups and %llu evictions) | %llu, ratio %.4f\n"
               "  whole run: cache hits %.0f misses %.0f evictions %.0f\n"
               "  WAL bytes %.0f, fsyncs %.0f, epoll wakeups %.0f, MVCC GC reclaimed %.0f\n"
               "  netmark_query_latency_micros p50 %.0f us\n",
               static_cast<unsigned long long>(run->xdb_requests_sent), xdb_served,
               static_cast<unsigned long long>(run->put_requests_sent), docs_served,
               static_cast<unsigned long long>(c.requests),
               static_cast<unsigned long long>(c.lookups),
               static_cast<unsigned long long>(c.expected_hits),
               static_cast<unsigned long long>(c.concurrent),
               static_cast<unsigned long long>(c.evictions),
               static_cast<unsigned long long>(c.hits),
               Ratio(static_cast<double>(c.hits), static_cast<double>(c.lookups)),
               delta("netmark_query_cache_hits_total"),
               delta("netmark_query_cache_misses_total"),
               delta("netmark_query_cache_evictions_total"),
               delta("netmark_wal_bytes_appended_total"), delta("netmark_wal_fsyncs_total"),
               delta("netmark_http_server_epoll_wakeups_total"),
               delta("netmark_mvcc_gc_reclaimed_total"),
               latency == nullptr ? 0.0 : latency->p50);
  run->Expect(xdb_served == static_cast<double>(run->xdb_requests_sent) &&
                  docs_served == static_cast<double>(run->put_requests_sent),
              "request counts disagree with the server's registry");
  const uint64_t floor =
      c.expected_hits - std::min(c.expected_hits, c.concurrent + c.evictions);
  run->Expect(c.lookups == c.requests && c.hits <= c.expected_hits && c.hits >= floor,
              "result-cache lookups or hits disagree with the server's registry");
}

}  // namespace e2e
