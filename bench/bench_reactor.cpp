// Reactor scalability benchmark: N idle keep-alive connections held open
// against the epoll server while a closed-loop query load and a concurrent
// ingestion writer run. The point of the reactor is that quiet sockets cost
// one epoll registration, not a parked worker.
//
// The run primes N idle keep-alive connections, runs a closed loop plus the
// ingestion writer, then verifies sampled idle connections still answer and
// the open_connections gauge saw them all.
//
// Emits JSONL including a {"metric":"netmark_reactor_active_request_micros",
// "p50",...} summary line the CI serving-stress job gates against the
// previous run with tools/check_bench_regression.py --metric.
//
// Knobs (env): NETMARK_BENCH_REACTOR_CONNS (default 10000, auto-capped to
// the fd limit), _CLIENTS (4), _SECONDS (2), _SEED (1).

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "server/http_client.h"
#include "server/http_message.h"

namespace netmark {
namespace {

constexpr size_t kCorpusSize = 60;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  int64_t parsed = std::atoll(value);
  return parsed > 0 ? parsed : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

double Percentile(std::vector<double>& latencies, double q) {
  if (latencies.empty()) return 0;
  size_t idx = std::min(latencies.size() - 1,
                        static_cast<size_t>(q * static_cast<double>(latencies.size())));
  std::nth_element(latencies.begin(), latencies.begin() + static_cast<ptrdiff_t>(idx),
                   latencies.end());
  return latencies[idx];
}

/// Raises RLIMIT_NOFILE to the hard limit; returns the resulting soft limit.
size_t RaiseFdLimit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  rl.rlim_cur = rl.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &rl);
  ::getrlimit(RLIMIT_NOFILE, &rl);
  return static_cast<size_t>(rl.rlim_cur);
}

/// Sends one keep-alive GET on an already-connected socket and reads the
/// complete response (framed exactly as the server frames requests).
/// Returns true on a 200 with the connection left open.
bool RoundTrip(int fd, const char* target) {
  std::string request = std::string("GET ") + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: keep-alive\r\nContent-Length: 0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string buffer;
  size_t head_end = std::string::npos;
  char chunk[4096];
  while (server::CompleteMessageBytes(buffer, &head_end) == 0) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or timeout before a complete response
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return buffer.compare(0, 12, "HTTP/1.1 200") == 0;
}

/// Connects to the server (with retries — 10k connects can transiently
/// overflow the listen backlog) and primes one keep-alive request so the
/// connection is a real, served, idle keep-alive socket. Returns the fd or
/// -1.
int DialIdleConn(uint16_t port) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        RoundTrip(fd, "/healthz")) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * (attempt + 1)));
  }
  return -1;
}

struct RunResult {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  uint64_t ops = 0;
  uint64_t failures = 0;
};

/// Closed loop: each client issues the next request as soon as the previous
/// response arrives (mixed document fetch + XDB query), with an ingestion
/// writer committing concurrently — the measured "active requests".
RunResult RunActiveLoad(Netmark* nm, int clients, double seconds,
                        const std::vector<int64_t>& doc_ids) {
  uint16_t port = nm->server_port();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client("127.0.0.1", port);
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t start = MonotonicMicros();
        auto response =
            (i % 2 == 0)
                ? client.Get("/docs/" + std::to_string(doc_ids[i % doc_ids.size()]))
                : client.Get("/xdb?context=Budget&limit=10");
        int64_t micros = MonotonicMicros() - start;
        if (response.ok() && response->status == 200) {
          latencies[static_cast<size_t>(t)].push_back(static_cast<double>(micros));
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  // Ingestion writer: keeps exclusive-lock commits flowing so the figures
  // reflect the contended serving path, not an idle store.
  std::thread writer([&] {
    workload::CorpusGenerator gen(11);
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto doc = gen.MixedCorpus(1);
      bench::Check(nm->IngestContent("reactor-writer-" + std::to_string(i++) + ".txt",
                                     doc[0].content)
                       .status(),
                   "writer ingest");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  int64_t t0 = MonotonicMicros();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  writer.join();
  double elapsed = static_cast<double>(MonotonicMicros() - t0) / 1e6;

  RunResult result;
  std::vector<double> all;
  for (std::vector<double>& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  result.ops = all.size();
  result.failures = failures.load();
  result.ops_per_sec = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  result.p50_us = Percentile(all, 0.5);
  result.p95_us = Percentile(all, 0.95);
  result.p99_us = Percentile(all, 0.99);
  return result;
}

double GaugeValue(const observability::MetricsRegistry& registry,
                  const std::string& name) {
  observability::MetricsSnapshot snap = registry.Collect();
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return -1;
}

}  // namespace
}  // namespace netmark

int main() {
  using namespace netmark;

  size_t fd_limit = RaiseFdLimit();
  size_t conns = static_cast<size_t>(EnvInt("NETMARK_BENCH_REACTOR_CONNS", 10000));
  // Client and server ends both live in this process: two fds per idle
  // connection, plus slack for the store, clients, and epoll plumbing.
  size_t max_conns = fd_limit > 1024 ? (fd_limit - 512) / 2 : 128;
  if (conns > max_conns) {
    std::printf("fd limit %zu caps idle connections at %zu (asked %zu)\n",
                fd_limit, max_conns, conns);
    conns = max_conns;
  }
  int clients = static_cast<int>(EnvInt("NETMARK_BENCH_REACTOR_CLIENTS", 4));
  double seconds = EnvDouble("NETMARK_BENCH_REACTOR_SECONDS", 2.0);
  uint64_t seed = static_cast<uint64_t>(EnvInt("NETMARK_BENCH_REACTOR_SEED", 1));

  bench::ReportHeader("Reactor scalability (idle keep-alive fan-in)",
                      "a lean mediator multiplexes thousands of quiet client "
                      "connections without a per-connection thread");
  bench::JsonLines jsonl("reactor");
  char config[200];
  std::snprintf(config, sizeof(config),
                "conns=%zu,clients=%d,workers=%d,seconds=%g,"
                "mix=docs+xdb,writer=50ops/s",
                conns, clients, server::HttpServerOptions{}.worker_threads,
                seconds);
  jsonl.EmitConfig(config);
  std::printf("%-28s %10s %12s %10s %10s %8s\n", "phase", "idle_conns",
              "ops/s", "p50_us", "p99_us", "errors");

  NetmarkOptions options;
  // Idle connections must survive the whole run, and priming counts one
  // request per connection — neither may trigger reap or rotation.
  options.http_server.idle_timeout_ms = 600000;
  options.http_server.max_requests_per_connection = 1 << 30;
  bench::LoadedInstance inst =
      bench::MakeLoadedInstance(kCorpusSize, options, 2025 + seed);
  bench::Check(inst.nm->StartServer(0), "start epoll server");
  uint16_t port = inst.nm->server_port();
  auto docs = bench::Unwrap(inst.nm->ListDocuments(), "list docs");
  std::vector<int64_t> doc_ids;
  for (const auto& doc : docs) doc_ids.push_back(doc.doc_id);

  // Prime the idle fleet from a few threads (a serial loop of 10k
  // roundtrips would dominate the run).
  int primers = static_cast<int>(
      std::min<size_t>(8, std::max<size_t>(1, conns / 256 + 1)));
  std::vector<std::vector<int>> fleet_parts(static_cast<size_t>(primers));
  std::atomic<size_t> failed_dials{0};
  {
    std::vector<std::thread> threads;
    int64_t prime_start = MonotonicMicros();
    for (int p = 0; p < primers; ++p) {
      threads.emplace_back([&, p] {
        size_t share = conns / static_cast<size_t>(primers) +
                       (static_cast<size_t>(p) < conns % static_cast<size_t>(primers) ? 1 : 0);
        fleet_parts[static_cast<size_t>(p)].reserve(share);
        for (size_t i = 0; i < share; ++i) {
          int fd = DialIdleConn(port);
          if (fd < 0) {
            failed_dials.fetch_add(1);
            continue;
          }
          fleet_parts[static_cast<size_t>(p)].push_back(fd);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::printf("primed %zu/%zu idle connections in %.2fs (%zu dial failures)\n",
                conns - failed_dials.load(), conns,
                static_cast<double>(MonotonicMicros() - prime_start) / 1e6,
                failed_dials.load());
  }
  std::vector<int> fleet;
  fleet.reserve(conns);
  for (auto& part : fleet_parts) {
    fleet.insert(fleet.end(), part.begin(), part.end());
  }
  double open_gauge_primed =
      GaugeValue(*inst.nm->metrics(), "netmark_http_server_open_connections");

  RunResult r = RunActiveLoad(inst.nm.get(), clients, seconds, doc_ids);
  std::printf("%-28s %10zu %12.0f %10.0f %10.0f %8llu\n", "epoll+idle-fleet",
              fleet.size(), r.ops_per_sec, r.p50_us, r.p99_us,
              static_cast<unsigned long long>(r.failures));

  // The fleet must have survived the load: spot-check that sampled idle
  // connections still answer on the same socket.
  size_t sample = std::min<size_t>(64, fleet.size());
  size_t alive = 0;
  for (size_t i = 0; i < sample; ++i) {
    size_t idx = i * (fleet.size() / std::max<size_t>(sample, 1));
    if (RoundTrip(fleet[idx], "/healthz")) ++alive;
  }
  std::printf("idle-fleet spot check: %zu/%zu sampled connections alive; "
              "open_connections gauge at prime time: %.0f\n",
              alive, sample, open_gauge_primed);

  jsonl.Emit("epoll_active_p50", static_cast<double>(fleet.size()),
             r.p50_us * 1000.0, r.ops_per_sec, "ops/s");
  jsonl.Emit("epoll_active_p99", static_cast<double>(fleet.size()),
             r.p99_us * 1000.0, r.ops_per_sec, "ops/s");
  jsonl.Emit("sustained_idle_conns", static_cast<double>(conns),
             0.0, static_cast<double>(fleet.size()), "conns");
  jsonl.EmitSummary("netmark_reactor_active_request_micros", r.ops, r.p50_us,
                    r.p95_us, r.p99_us);
  jsonl.EmitMetrics(*inst.nm->metrics());

  bool ok = true;
  if (fleet.size() < conns) {
    std::printf("FAIL: sustained only %zu of %zu idle connections\n",
                fleet.size(), conns);
    ok = false;
  }
  if (alive < sample) {
    std::printf("FAIL: %zu of %zu sampled idle connections died under load\n",
                sample - alive, sample);
    ok = false;
  }
  if (open_gauge_primed >= 0 &&
      open_gauge_primed < static_cast<double>(fleet.size())) {
    std::printf("FAIL: open_connections gauge %.0f below fleet size %zu\n",
                open_gauge_primed, fleet.size());
    ok = false;
  }

  inst.nm->StopServer();  // drain retires the idle fleet server-side
  for (int fd : fleet) ::close(fd);
  std::printf("results: %s\n", jsonl.path().c_str());
  return ok ? 0 : 1;
}
