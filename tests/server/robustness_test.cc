// Robustness: malformed/truncated HTTP input must fail cleanly, and the
// server must survive hostile clients and concurrent load.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/temp_dir.h"
#include "core/netmark.h"
#include "server/http_client.h"
#include "server/http_server.h"

namespace netmark::server {
namespace {

TEST(HttpParserRobustnessTest, TruncationsNeverCrash) {
  const std::string valid =
      "PUT /docs/x.txt?a=b HTTP/1.1\r\n"
      "Host: h\r\nContent-Length: 4\r\n\r\nbody";
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    auto result = ParseRequest(valid.substr(0, cut));
    // Either a clean error or (once the head is complete) a parse; body may
    // legitimately be shorter than Content-Length at this layer.
    if (cut < valid.find("\r\n\r\n") + 4) {
      EXPECT_FALSE(result.ok()) << "cut at " << cut;
    }
  }
}

TEST(HttpParserRobustnessTest, RandomByteCorruptionNeverCrashes) {
  const std::string valid =
      "GET /xdb?context=Budget HTTP/1.1\r\nHost: h\r\n\r\n";
  netmark::Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupted = valid;
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      corrupted[rng.Uniform(corrupted.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto result = ParseRequest(corrupted);  // must not crash; outcome may vary
    if (result.ok()) {
      EXPECT_FALSE(result->method.empty());
    }
  }
}

TEST(HttpServerRobustnessTest, GarbageConnectionsDoNotKillTheServer) {
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("ok"); });
  ASSERT_TRUE(server.Start().ok());
  // Throw raw garbage at the socket, then confirm normal service continues.
  for (int i = 0; i < 5; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char* junk = i % 2 == 0 ? "NOT HTTP AT ALL\r\n\r\n" : "\x00\xff\xfe";
    (void)::send(fd, junk, strlen(junk), MSG_NOSIGNAL);
    ::close(fd);  // also exercises clients hanging up early
  }
  HttpClient client("127.0.0.1", server.port());
  auto resp = client.Get("/alive");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body, "ok");
}

TEST(HttpServerRobustnessTest, ConcurrentClientsAllServed) {
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest& req) {
    handled.fetch_add(1);
    return HttpResponse::Ok(std::string(req.query));
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kRequestsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        std::string tag = "t=" + std::to_string(t) + "&i=" + std::to_string(i);
        auto resp = client.Get("/q?" + tag);
        if (!resp.ok() || resp->status != 200 || resp->body != tag) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handled.load(), kThreads * kRequestsEach);
}

// A store whose WAL fsync fails must stop acknowledging writes (fail-stop)
// while the HTTP surface keeps serving reads and reports the degradation.
TEST(DegradedModeServingTest, FsyncFailureKeepsReadsServingAndReportsDegraded) {
  auto dir = netmark::TempDir::Make("degraded_http");
  ASSERT_TRUE(dir.ok());
  const std::string data_dir = dir->Sub("data").string();

  // Seed one document with a healthy store, then close it.
  {
    NetmarkOptions options;
    options.data_dir = data_dir;
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    ASSERT_TRUE((*nm)->IngestContent("memo.txt", "OVERVIEW\nall good\n").ok());
    ASSERT_TRUE((*nm)->store()->Checkpoint().ok());
  }

  // Reopen with every fsync failing from the start.
  netmark::FaultSpec spec;
  spec.kind = netmark::FaultSpec::Kind::kFsyncFail;
  spec.nth = 1;
  spec.sticky = true;
  netmark::FaultInjectingEnv env(spec);
  NetmarkOptions options;
  options.data_dir = data_dir;
  options.storage.env = &env;
  auto nm = Netmark::Open(options);
  ASSERT_TRUE(nm.ok());

  auto request = [](std::string method, std::string path, std::string body) {
    HttpRequest req;
    req.method = std::move(method);
    req.path = std::move(path);
    req.target = req.path;
    req.body = std::move(body);
    return req;
  };

  // First mutation: the fsync fault surfaces as a hard error, and — crucially
  // — the document is NOT acknowledged.
  HttpResponse put1 =
      (*nm)->service()->Handle(request("PUT", "/docs/new.txt", "BUDGET\nQ3\n"));
  EXPECT_GE(put1.status, 500) << put1.body;
  EXPECT_TRUE((*nm)->store()->degraded());

  // Later mutations see the latched read-only mode: 503 with a retry hint.
  HttpResponse put2 =
      (*nm)->service()->Handle(request("PUT", "/docs/more.txt", "NOTES\nx\n"));
  EXPECT_EQ(put2.status, 503) << put2.body;
  EXPECT_EQ(put2.Header("Retry-After"), "10");
  EXPECT_NE(put2.body.find("read-only"), std::string::npos) << put2.body;

  // Reads keep serving the acked corpus.
  HttpRequest query = request("GET", "/xdb", "");
  query.query = "context=Overview";
  query.target = "/xdb?context=Overview";
  HttpResponse xdb = (*nm)->service()->Handle(query);
  EXPECT_EQ(xdb.status, 200) << xdb.body;
  EXPECT_NE(xdb.body.find("all good"), std::string::npos);

  // /healthz reports the degraded latch and its reason.
  HttpResponse health = (*nm)->service()->Handle(request("GET", "/healthz", ""));
  EXPECT_EQ(health.status, 200) << health.body;
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"degraded_reason\""), std::string::npos);
  EXPECT_NE(health.body.find("injected"), std::string::npos) << health.body;
}

}  // namespace
}  // namespace netmark::server
