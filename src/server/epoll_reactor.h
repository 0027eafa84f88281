// Readiness-driven connection engine behind HttpServer. One reactor thread
// owns every socket:
//
//            ┌──────────────── epoll (LT + EPOLLONESHOT) ───────────────┐
//   accept ──┤ register conn ── readable ── frame bytes ── complete? ───┤
//            │      │                │          │             │yes      │
//            │   idle timer      read timer   re-arm      dispatch to   │
//            │   (quiet reap)    (408)        oneshot     worker queue  │
//            └──────────────────────────────────────────────────────────┘
//
// The reactor thread is the only code that touches the epoll set, the
// per-connection buffers, and the timer heap — no locks on the hot path.
// Workers receive fully framed requests (HttpServer::FramedRequest), write
// the response on the connection's fd themselves, and post a Completion
// back through a mutex-guarded vector + eventfd wake. EPOLLONESHOT
// guarantees the reactor never reads a connection while a worker owns its
// in-flight request, so the fd is never shared concurrently.

#ifndef NETMARK_SERVER_EPOLL_REACTOR_H_
#define NETMARK_SERVER_EPOLL_REACTOR_H_

#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "server/http_server.h"

namespace netmark::server {

/// \brief Single-threaded epoll state machine driving all connections.
///
/// Lifecycle (all driven by HttpServer): Init() after the listen socket is
/// bound, Run() as the dedicated reactor thread body (returns once a drain
/// completes), Wake() + the server's draining_ flag to start a drain.
/// Complete() is the one cross-thread entry point, called by pool workers.
class EpollReactor {
 public:
  explicit EpollReactor(HttpServer* server) : server_(server) {}
  ~EpollReactor();
  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  /// Creates the epoll set + wake eventfd and registers the (made
  /// non-blocking) listen socket. Call before spawning Run().
  netmark::Status Init();

  /// Reactor loop: accepts, reads, frames, dispatches, and fires timers
  /// until the server drains (draining_ set + all connections retired).
  void Run();

  /// Pokes the reactor out of epoll_wait (drain signal, completions).
  /// Thread-safe.
  void Wake();

  /// Worker → reactor: the response for (fd, conn_id) was written; keep
  /// says whether to re-arm the connection for its next request or close
  /// it. Thread-safe.
  void Complete(HttpServer::Completion done);

 private:
  /// Per-connection state. Owned exclusively by the reactor thread; workers
  /// refer to a connection only by its (fd, id) pair.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;     ///< monotonic; guards completions against fd reuse
    std::string buffer;  ///< bytes received but not yet dispatched
    /// Cached "\r\n\r\n" scan state for CompleteMessageBytes (avoids
    /// rescanning the whole head on every trickled byte).
    size_t head_end = std::string::npos;
    int served = 0;             ///< requests dispatched on this connection
    bool in_flight = false;     ///< a worker owns the current request
    bool message_started = false;  ///< first byte of the next request seen
    int64_t idle_deadline = 0;  ///< applies while message_started is false
    int64_t read_deadline = 0;  ///< applies once message_started
    /// Bumped whenever the deadline changes; heap entries with a stale gen
    /// are skipped on pop (lazy timer cancellation).
    uint64_t timer_gen = 0;
  };

  /// Timer heap entry. fd < 0 marks the listener re-registration retry
  /// used after EMFILE parks the listen socket.
  struct TimerEntry {
    int64_t deadline = 0;
    int fd = -1;
    uint64_t conn_id = 0;
    uint64_t gen = 0;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.deadline > b.deadline;
    }
  };

  void OnAccept(int64_t now);
  void OnConnEvent(int fd, int64_t now);
  void FireTimers(int64_t now);
  void ProcessCompletions(int64_t now);
  void StartDrain(int64_t now);
  /// Hands buffer[0, frame_len) to the worker queue, or sheds with 503 and
  /// closes when the queue is full. May erase the connection.
  void Dispatch(Conn& conn, size_t frame_len, int64_t now);
  /// Pushes a timer entry for the connection's current effective deadline
  /// (read vs idle, clamped by the drain grace window).
  void ArmDeadline(Conn& conn);
  bool RearmEpoll(const Conn& conn);
  void CloseConn(int fd);
  void ParkListener(int64_t now);
  void UnparkListener();
  /// epoll_wait timeout until the next timer (capped; ms).
  int NextTimeoutMs(int64_t now) const;

  HttpServer* server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool listener_registered_ = false;
  bool drain_started_ = false;
  int64_t drain_deadline_ = 0;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<int, Conn> conns_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timers_;

  std::mutex completions_mu_;
  std::vector<HttpServer::Completion> completions_;  ///< guarded by mu
};

}  // namespace netmark::server

#endif  // NETMARK_SERVER_EPOLL_REACTOR_H_
