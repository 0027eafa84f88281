#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common.h"

namespace e2e {

namespace {

constexpr int kIoTimeoutSeconds = 10;

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void SleepUntil(int64_t deadline_ns) {
  int64_t now = NowNanos();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

}  // namespace

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConnection::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{kIoTimeoutSeconds, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

HttpResult HttpConnection::Send(const std::string& wire) {
  HttpResult result;
  // A kept connection the server has since closed fails before any reply
  // byte; retry such a failure once on a fresh connection.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && !Connect()) return result;
    size_t sent = 0;
    bool ok = true;
    while (sent < wire.size()) {
      ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        ok = false;
        break;
      }
      sent += static_cast<size_t>(n);
    }
    bool keep = false;
    if (ok && Read(&result, &keep)) {
      if (!keep) Close();
      return result;
    }
    const bool nothing_received = result.status == 0 && buf_.empty();
    Close();
    if (!(reused && nothing_received)) break;
  }
  result.status = 0;
  return result;
}

bool HttpConnection::Read(HttpResult* out, bool* keep) {
  size_t head_end = std::string::npos;
  char chunk[16384];
  auto fill = [&]() {
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  };
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  std::string_view head(buf_.data(), head_end);
  // Status line: HTTP/1.1 200 OK
  size_t sp = head.find(' ');
  if (sp == std::string_view::npos || head.size() < sp + 4) return false;
  int status = std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
  size_t content_length = 0;
  bool close = false;
  std::string location;
  size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos && line_start < head.size()) {
    line_start += 2;
    size_t line_end = head.find("\r\n", line_start);
    std::string_view line = head.substr(
        line_start, (line_end == std::string_view::npos ? head.size() : line_end) -
                        line_start);
    size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (IEquals(name, "content-length")) {
        content_length = static_cast<size_t>(std::strtoull(std::string(value).c_str(),
                                                           nullptr, 10));
      } else if (IEquals(name, "connection")) {
        close = IEquals(value, "close");
      } else if (IEquals(name, "location")) {
        location = std::string(value);
      }
    }
    line_start = line_end;
  }
  const size_t total = head_end + 4 + content_length;
  while (buf_.size() < total) {
    if (!fill()) return false;
  }
  out->status = status;
  out->body.assign(buf_, head_end + 4, content_length);
  out->location = std::move(location);
  buf_.erase(0, total);
  *keep = !close;
  return true;
}

std::string GetWire(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
}

std::string PutWire(const std::string& target, const std::string& body) {
  return "PUT " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n"
         "Content-Type: application/octet-stream\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<Outcome> RunOpenLoop(uint16_t port, const std::vector<std::string>& wires,
                                 double rate, int threads, int64_t start_ns,
                                 const ResponseCheck& check) {
  std::vector<Outcome> outcomes(wires.size());
  const double interval_ns = 1e9 / rate;
  std::vector<std::thread> senders;
  for (int t = 0; t < threads; ++t) {
    senders.emplace_back([&, t] {
      HttpConnection conn(port);
      for (size_t i = static_cast<size_t>(t); i < wires.size();
           i += static_cast<size_t>(threads)) {
        Outcome& o = outcomes[i];
        o.index = static_cast<uint32_t>(i);
        o.due_ns = start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
        SleepUntil(o.due_ns);
        o.sent_ns = NowNanos();
        HttpResult reply = conn.Send(wires[i]);
        o.done_ns = NowNanos();
        o.status = reply.status;
        o.correct = reply.status != 0 && check(o.index, reply);
      }
    });
  }
  for (std::thread& s : senders) s.join();
  return outcomes;
}

ClosedLoopResult RunClosedLoop(uint16_t port, const std::vector<std::string>& wires,
                               int threads, double seconds, const ResponseCheck& check) {
  std::vector<std::vector<Outcome>> per_thread(static_cast<size_t>(threads));
  const int64_t start = NowNanos();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      HttpConnection conn(port);
      std::vector<Outcome>& mine = per_thread[static_cast<size_t>(t)];
      for (size_t i = static_cast<size_t>(t); NowNanos() < end;
           i += static_cast<size_t>(threads)) {
        Outcome o;
        o.index = static_cast<uint32_t>(i % wires.size());
        o.due_ns = o.sent_ns = NowNanos();
        HttpResult reply = conn.Send(wires[o.index]);
        o.done_ns = NowNanos();
        o.status = reply.status;
        o.correct = reply.status != 0 && check(o.index, reply);
        mine.push_back(o);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  ClosedLoopResult result;
  result.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  for (auto& v : per_thread) {
    result.outcomes.insert(result.outcomes.end(), v.begin(), v.end());
  }
  return result;
}

}  // namespace e2e
