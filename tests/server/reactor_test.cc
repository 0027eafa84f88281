// Epoll-reactor serving tests: incremental framing across arbitrary TCP
// segment boundaries, pipelined requests, slow-loris 408s, drain with a
// half-parsed request parked in the reactor buffer — plus a suite that pins
// the externally observable serving contract (keep-alive, rotation,
// shedding, timeouts, drain).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "server/http_client.h"
#include "server/http_message.h"
#include "server/http_server.h"

namespace netmark::server {
namespace {

/// Blocking loopback socket connected to `port` (5s kernel timeouts so a
/// server bug fails the test instead of hanging it).
int Dial(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

/// Reads exactly one complete HTTP response off `fd` (leftover bytes stay
/// in `*carry` for the next call — the client side of pipelining).
std::string ReadOneResponse(int fd, std::string* carry) {
  size_t head_end = std::string::npos;
  char chunk[4096];
  size_t total;
  while ((total = CompleteMessageBytes(*carry, &head_end)) == 0) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return "";  // EOF/timeout: caller asserts on content
    carry->append(chunk, static_cast<size_t>(n));
  }
  std::string response = carry->substr(0, total);
  carry->erase(0, total);
  return response;
}

/// Reads until EOF (for close-delimited error responses like 408).
std::string ReadUntilEof(int fd) {
  std::string raw;
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  return raw;
}

TEST(ReactorFramingTest, RequestLineSplitAcrossThreeSegments) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok(req.path);
  });
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  // Three segments, split mid-request-line and mid-header; the flushes plus
  // sleeps force separate recv()s (and separate epoll readiness events).
  SendAll(fd, "GET /seg");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  SendAll(fd, "mented HTTP/1.1\r\nHo");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  SendAll(fd, "st: x\r\nContent-Length: 0\r\n\r\n");
  std::string carry;
  std::string response = ReadOneResponse(fd, &carry);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("/segmented"), std::string::npos) << response;
  ::close(fd);
  server.Stop();
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.read_timeouts(), 0u);
}

TEST(ReactorFramingTest, BodySplitAcrossSegments) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok(req.body);
  });
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  SendAll(fd, "PUT /b HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nhello");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  SendAll(fd, "world");
  std::string carry;
  std::string response = ReadOneResponse(fd, &carry);
  EXPECT_NE(response.find("helloworld"), std::string::npos) << response;
  ::close(fd);
  server.Stop();
}

TEST(ReactorFramingTest, TwoPipelinedRequestsInOneSegment) {
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest& req) {
    handled.fetch_add(1);
    return HttpResponse::Ok(req.path);
  });
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  // Both requests land in one send() — the reactor must dispatch the first,
  // keep the second buffered while the worker runs, and serve it from the
  // completion without waiting for more bytes from the client.
  SendAll(fd,
          "GET /first HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
          "GET /second HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  std::string carry;
  std::string first = ReadOneResponse(fd, &carry);
  std::string second = ReadOneResponse(fd, &carry);
  EXPECT_NE(first.find("/first"), std::string::npos) << first;
  EXPECT_NE(second.find("/second"), std::string::npos) << second;
  EXPECT_NE(first.find("keep-alive"), std::string::npos) << first;
  ::close(fd);
  server.Stop();
  EXPECT_EQ(handled.load(), 2);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(server.keepalive_reuses(), 1u);
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(ReactorFramingTest, SlowLorisHeaderTrickleHits408) {
  HttpServerOptions options;
  options.read_timeout_ms = 150;
  options.idle_timeout_ms = 5000;
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); },
                    options);
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  // Keep bytes trickling so the connection is never idle — the read
  // deadline is anchored at the FIRST byte, so steady drips must not push
  // it out (the classic slow-loris hold-a-slot-forever attack).
  const std::string head = "GET /loris HTTP/1.1\r\nX-Drip: ";
  int64_t start = MonotonicMicros();
  for (size_t i = 0; i < head.size(); ++i) {
    ssize_t n = ::send(fd, head.data() + i, 1, MSG_NOSIGNAL);
    if (n <= 0) break;  // server already gave up on us — fine
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    if (MonotonicMicros() - start > 1000 * 1000) break;
  }
  std::string raw = ReadUntilEof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  EXPECT_EQ(server.read_timeouts(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
  server.Stop();
}

TEST(ReactorFramingTest, DrainWithHalfParsedRequestInReactorBuffer) {
  HttpServerOptions options;
  options.read_timeout_ms = 5000;  // far beyond the drain grace window
  options.idle_timeout_ms = 5000;
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); },
                    options);
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  SendAll(fd, "GET /half HTTP/1.1\r\nHost: ");  // head never completes
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Stop() must not wait out the full 5s read deadline: the half-parsed
  // request gets only the clamped grace window, then a 408 and the close.
  int64_t stop_start = MonotonicMicros();
  server.Stop();
  int64_t stop_micros = MonotonicMicros() - stop_start;
  EXPECT_LT(stop_micros, 2 * 1000 * 1000) << "drain waited out a read deadline";

  std::string raw = ReadUntilEof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(ReactorFramingTest, OpenConnectionsGaugeTracksIdleSockets) {
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.open_connections(), 0);
  std::vector<int> fds;
  for (int i = 0; i < 5; ++i) fds.push_back(Dial(server.port()));
  // Idle connections (no request sent) must each cost one registration.
  for (int i = 0; i < 400 && server.open_connections() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), 5);
  EXPECT_GT(server.epoll_wakeups(), 0u);
  for (int fd : fds) ::close(fd);
  for (int i = 0; i < 400 && server.open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), 0);
  server.Stop();
}

// The serving contract as a client observes it: keep-alive, rotation, 503
// shedding, 408 on stalls, quiet idle reaps, and graceful drain.

TEST(ReactorContractTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok(std::string(req.query));
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    auto resp = client.Get("/q?n=" + std::to_string(i));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->body, "n=" + std::to_string(i));
    EXPECT_EQ(resp->Header("Connection"), "keep-alive");
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.keepalive_reuses(), 9u);
  EXPECT_EQ(server.requests_served(), 10u);
  server.Stop();
}

TEST(ReactorContractTest, MaxRequestsPerConnectionRotates) {
  HttpServerOptions options;
  options.max_requests_per_connection = 3;
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); },
                    options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 7; ++i) {
    auto resp = client.Get("/r");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 3u);
  EXPECT_EQ(server.connections_accepted(), 3u);
  server.Stop();
}

TEST(ReactorContractTest, ShedsWith503AndRetryAfterWhenSaturated) {
  HttpServerOptions options;
  options.worker_threads = 1;
  options.accept_queue_capacity = 1;
  std::atomic<bool> release{false};
  HttpServer server(
      [&](const HttpRequest&) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return HttpResponse::Ok("done");
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> blocked;
  std::atomic<int> ok_count{0};
  auto spawn_blocked = [&] {
    blocked.emplace_back([&] {
      HttpClient client("127.0.0.1", server.port());
      auto resp = client.Get("/slow");
      if (resp.ok() && resp->status == 200) ok_count.fetch_add(1);
    });
  };
  spawn_blocked();
  for (int i = 0; i < 400 && server.active_connections() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.active_connections(), 1);
  spawn_blocked();
  for (int i = 0; i < 400 && server.connections_accepted() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int shed_seen = 0;
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    auto resp = client.Get("/extra");
    if (resp.ok() && resp->status == 503) {
      ++shed_seen;
      EXPECT_EQ(resp->Header("Retry-After"), "1");
    }
  }
  EXPECT_GT(shed_seen, 0);
  EXPECT_GT(server.connections_shed(), 0u);
  release.store(true);
  for (std::thread& t : blocked) t.join();
  EXPECT_EQ(ok_count.load(), 2);
  server.Stop();
}

TEST(ReactorContractTest, StalledRequestGets408) {
  HttpServerOptions options;
  options.read_timeout_ms = 150;
  options.idle_timeout_ms = 2000;
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); },
                    options);
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  SendAll(fd, "GET /stalled HTTP/1.1\r\n");
  std::string raw = ReadUntilEof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  EXPECT_EQ(server.read_timeouts(), 1u);
  server.Stop();
}

TEST(ReactorContractTest, IdleConnectionIsReapedQuietly) {
  HttpServerOptions options;
  options.idle_timeout_ms = 120;
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok("x"); },
                    options);
  ASSERT_TRUE(server.Start().ok());
  int fd = Dial(server.port());
  char chunk[64];
  ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  EXPECT_EQ(n, 0);  // quiet close: EOF, no bytes written
  ::close(fd);
  EXPECT_EQ(server.read_timeouts(), 0u);
  server.Stop();
}

TEST(ReactorContractTest, GracefulDrainFinishesInFlightRequest) {
  std::atomic<bool> handler_entered{false};
  HttpServer server(
      [&](const HttpRequest&) {
        handler_entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return HttpResponse::Ok("finished");
      });
  ASSERT_TRUE(server.Start().ok());
  std::thread in_flight([&, port = server.port()] {
    HttpClient client("127.0.0.1", port);
    auto resp = client.Get("/slow");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->body, "finished");
    EXPECT_EQ(resp->Header("Connection"), "close");
  });
  while (!handler_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  in_flight.join();
  EXPECT_EQ(server.requests_served(), 1u);
}

}  // namespace
}  // namespace netmark::server
