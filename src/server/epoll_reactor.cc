#include "server/epoll_reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace netmark::server {

namespace {

/// How long the listener stays parked after EMFILE/ENFILE before the
/// reactor retries registration (a CloseConn in the meantime unparks it
/// immediately — a slot just freed).
constexpr int64_t kListenerParkMicros = 50 * 1000;
/// epoll_wait timeout cap: bounds staleness of the draining_ re-check even
/// if a wake were ever missed.
constexpr int64_t kMaxWaitMicros = 1000 * 1000;

/// One-shot, non-blocking response write for reactor-thread error paths
/// (503 shed, 408 timeout). The payloads are far below a loopback socket
/// buffer; a client too stalled to take them gets the close alone.
void SendBestEffort(int fd, const HttpResponse& response) {
  std::string wire = response.Serialize();
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
}

}  // namespace

EpollReactor::~EpollReactor() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

netmark::Status EpollReactor::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return netmark::Status::IOError(std::string("epoll_create1: ") +
                                    std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return netmark::Status::IOError(std::string("eventfd: ") +
                                    std::strerror(errno));
  }
  // The reactor must never block in accept().
  int flags = ::fcntl(server_->listen_fd_, F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(server_->listen_fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return netmark::Status::IOError(std::string("fcntl(listen): ") +
                                    std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered; OnAccept drains to EAGAIN anyway
  ev.data.fd = server_->listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev) != 0) {
    return netmark::Status::IOError(std::string("epoll_ctl(listen): ") +
                                    std::strerror(errno));
  }
  listener_registered_ = true;
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return netmark::Status::IOError(std::string("epoll_ctl(wake): ") +
                                    std::strerror(errno));
  }
  return netmark::Status::OK();
}

void EpollReactor::Wake() {
  uint64_t one = 1;
  (void)::write(wake_fd_, &one, sizeof(one));
}

void EpollReactor::Complete(HttpServer::Completion done) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(done);
  }
  Wake();
}

void EpollReactor::Run() {
  std::vector<epoll_event> events(256);
  while (true) {
    int64_t now = netmark::MonotonicMicros();
    if (!drain_started_ && server_->draining_.load(std::memory_order_acquire)) {
      StartDrain(now);
    }
    ProcessCompletions(now);
    FireTimers(now);
    if (drain_started_ && conns_.empty()) break;

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()),
                         NextTimeoutMs(netmark::MonotonicMicros()));
    if (n < 0) {
      if (errno == EINTR) continue;
      NETMARK_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    server_->epoll_wakeups_.fetch_add(1);
    server_->handles_.epoll_wakeups->Increment();
    now = netmark::MonotonicMicros();
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else if (fd == server_->listen_fd_) {
        OnAccept(now);
      } else {
        OnConnEvent(fd, now);
      }
    }
  }
  // Normal exit leaves no connections (the drain retires them all); after
  // an epoll failure, release whatever is left so Stop() can still join.
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    server_->open_connections_.fetch_sub(1);
  }
  conns_.clear();
}

int EpollReactor::NextTimeoutMs(int64_t now) const {
  int64_t wait = kMaxWaitMicros;
  if (!timers_.empty()) {
    wait = std::min(wait, timers_.top().deadline - now);
  }
  // +999: round up so a timer due in 100us does not busy-spin at timeout 0.
  return static_cast<int>(std::max<int64_t>(wait + 999, 0) / 1000);
}

void EpollReactor::OnAccept(int64_t now) {
  while (true) {
    int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      server_->accept_errors_.fetch_add(1);
      server_->handles_.accept_errors->Increment();
      NETMARK_LOG(Warning) << "accept: " << std::strerror(errno);
      if (errno == EMFILE || errno == ENFILE) ParkListener(now);
      return;
    }
    server_->connections_accepted_.fetch_add(1);
    server_->open_connections_.fetch_add(1);
    Conn& conn = conns_[fd];
    conn = Conn{};
    conn.fd = fd;
    conn.id = ++next_conn_id_;
    conn.idle_deadline =
        now + int64_t{server_->options_.idle_timeout_ms} * 1000;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      NETMARK_LOG(Warning) << "epoll_ctl(conn): " << std::strerror(errno);
      CloseConn(fd);
      continue;
    }
    ArmDeadline(conn);
  }
}

void EpollReactor::OnConnEvent(int fd, int64_t now) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // stale event for a retired connection
  Conn& conn = it->second;
  // EPOLLONESHOT delivered at most this one event: drain the socket to
  // EAGAIN or no more bytes arrive until the next re-arm.
  bool peer_eof = false;
  char chunk[16384];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.buffer.append(chunk, static_cast<size_t>(n));
      if (conn.buffer.size() > kMaxHttpMessageBytes) {
        CloseConn(fd);
        return;
      }
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(fd);
    return;
  }
  if (!conn.message_started && !conn.buffer.empty()) {
    // First byte of a request: the (fresher) read deadline takes over from
    // the idle deadline.
    conn.message_started = true;
    conn.read_deadline =
        now + int64_t{server_->options_.read_timeout_ms} * 1000;
  }
  size_t frame_len = CompleteMessageBytes(conn.buffer, &conn.head_end);
  if (frame_len > 0) {
    Dispatch(conn, frame_len, now);
    return;
  }
  if (peer_eof) {
    // EOF without a complete request: clean close at a boundary or a
    // mid-request abort — nothing to answer either way.
    CloseConn(fd);
    return;
  }
  ArmDeadline(conn);
  if (!RearmEpoll(conn)) CloseConn(fd);
}

void EpollReactor::Dispatch(Conn& conn, size_t frame_len, int64_t now) {
  HttpServer::FramedRequest request;
  request.fd = conn.fd;
  request.conn_id = conn.id;
  request.raw.assign(conn.buffer, 0, frame_len);
  request.served_before = conn.served;
  request.enqueued_micros = now;
  conn.buffer.erase(0, frame_len);
  conn.head_end = std::string::npos;
  conn.message_started = false;  // leftover bytes restart at completion
  if (!server_->request_queue_->TryPush(std::move(request))) {
    // Queue full (or closing): shed this request with an immediate 503
    // instead of queueing unboundedly behind slow requests.
    server_->connections_shed_.fetch_add(1);
    server_->handles_.shed->Increment();
    HttpResponse resp =
        HttpResponse::Text(503, "server overloaded, retry shortly");
    resp.headers["Connection"] = "close";
    resp.headers["Retry-After"] = "1";
    SendBestEffort(conn.fd, resp);
    CloseConn(conn.fd);
    return;
  }
  server_->queue_depth_.fetch_add(1, std::memory_order_relaxed);
  conn.served += 1;
  conn.in_flight = true;
  ++conn.timer_gen;  // no reactor deadline while a worker owns the request
}

void EpollReactor::ProcessCompletions(int64_t now) {
  std::vector<HttpServer::Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (const HttpServer::Completion& fin : done) {
    auto it = conns_.find(fin.fd);
    if (it == conns_.end() || it->second.id != fin.conn_id) continue;
    Conn& conn = it->second;
    conn.in_flight = false;
    if (!fin.keep) {
      CloseConn(fin.fd);
      continue;
    }
    // Pipelined carryover: the client may have sent the next request while
    // the previous one executed — frame it straight from the buffer.
    size_t frame_len = CompleteMessageBytes(conn.buffer, &conn.head_end);
    if (frame_len > 0) {
      Dispatch(conn, frame_len, now);
      continue;
    }
    if (!conn.buffer.empty()) {
      conn.message_started = true;
      conn.read_deadline =
          now + int64_t{server_->options_.read_timeout_ms} * 1000;
    } else {
      conn.message_started = false;
      conn.idle_deadline =
          now + int64_t{server_->options_.idle_timeout_ms} * 1000;
    }
    ArmDeadline(conn);
    if (!RearmEpoll(conn)) CloseConn(fin.fd);
  }
}

void EpollReactor::FireTimers(int64_t now) {
  while (!timers_.empty() && timers_.top().deadline <= now) {
    TimerEntry entry = timers_.top();
    timers_.pop();
    if (entry.fd < 0) {
      UnparkListener();
      continue;
    }
    auto it = conns_.find(entry.fd);
    if (it == conns_.end() || it->second.id != entry.conn_id ||
        it->second.timer_gen != entry.gen || it->second.in_flight) {
      continue;  // lazily cancelled: the connection advanced since arming
    }
    if (it->second.message_started) {
      // Request started but stalled past the read deadline: answer 408.
      server_->read_timeouts_.fetch_add(1);
      server_->handles_.read_timeouts->Increment();
      HttpResponse resp = HttpResponse::Text(408, "request read timed out");
      resp.headers["Connection"] = "close";
      SendBestEffort(entry.fd, resp);
    }
    CloseConn(entry.fd);  // idle expiry reaps quietly
  }
}

void EpollReactor::StartDrain(int64_t now) {
  drain_started_ = true;
  drain_deadline_ = now + kDrainGraceMicros;
  if (listener_registered_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
    listener_registered_ = false;
  }
  // Idle keep-alive connections have nothing in progress: retire them now.
  // Mid-read connections keep their (clamped) deadline — a request that
  // completes inside the grace window is still served, with
  // Connection: close; in-flight requests finish at their own pace and
  // retire through their completions.
  std::vector<int> idle;
  for (auto& [fd, conn] : conns_) {
    if (!conn.in_flight && !conn.message_started && conn.buffer.empty()) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) CloseConn(fd);
  for (auto& [fd, conn] : conns_) {
    if (!conn.in_flight) ArmDeadline(conn);  // re-arm with the drain clamp
  }
}

void EpollReactor::ArmDeadline(Conn& conn) {
  int64_t deadline =
      conn.message_started ? conn.read_deadline : conn.idle_deadline;
  if (drain_started_) deadline = std::min(deadline, drain_deadline_);
  ++conn.timer_gen;
  timers_.push(TimerEntry{deadline, conn.fd, conn.id, conn.timer_gen});
}

bool EpollReactor::RearmEpoll(const Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  ev.data.fd = conn.fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0;
}

void EpollReactor::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  server_->open_connections_.fetch_sub(1);
  // An fd slot just freed: if EMFILE parked the listener, resume accepting
  // without waiting out the retry timer.
  if (!listener_registered_ && !drain_started_) UnparkListener();
}

void EpollReactor::ParkListener(int64_t now) {
  if (!listener_registered_) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
  listener_registered_ = false;
  timers_.push(TimerEntry{now + kListenerParkMicros, -1, 0, 0});
}

void EpollReactor::UnparkListener() {
  if (listener_registered_ || drain_started_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = server_->listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev) == 0) {
    listener_registered_ = true;
  }
}

}  // namespace netmark::server
