// Load generation over real loopback HTTP: a minimal keep-alive client of
// the benchmark's own, an open loop (fixed offered rate, each request timed
// from when it was due) and a closed loop (N connections, next request on
// each reply).

#ifndef NETMARK_E2E_LOADGEN_H_
#define NETMARK_E2E_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

struct HttpResult {
  int status = 0;  ///< 0: connect/send/receive failed or timed out
  std::string body;
  std::string location;  ///< Location header (PUT replies)
};

/// \brief One keep-alive loopback connection. Reconnects transparently when
/// the server closes it (Connection: close, max requests per connection).
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request in wire format and reads the reply (10 s budget).
  HttpResult Send(const std::string& wire);

 private:
  bool Connect();
  void Close();
  /// Reads one response; false on error. `*keep` = reusable afterwards.
  bool Read(HttpResult* out, bool* keep);

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

std::string GetWire(const std::string& target);
std::string PutWire(const std::string& target, const std::string& body);

/// Decides whether a reply to request `index` is correct. Called on the
/// sending thread after the reply is timed; must be thread-safe.
using ResponseCheck = std::function<bool(uint32_t index, const HttpResult& reply)>;

/// One request of an open or closed loop.
struct Outcome {
  int64_t due_ns = 0;   ///< schedule slot (open loop); send time (closed)
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint32_t index = 0;   ///< position in the request list
  int status = 0;
  bool correct = false;

  double latency_ms() const { return static_cast<double>(done_ns - due_ns) / 1e6; }
  double lag_ms() const { return static_cast<double>(sent_ns - due_ns) / 1e6; }
};

/// Open loop: request i is due at start_ns + i / rate and goes out on
/// connection i % threads as soon as it is due and that connection is
/// free. Returns one Outcome per request, in request order.
std::vector<Outcome> RunOpenLoop(uint16_t port, const std::vector<std::string>& wires,
                                 double rate, int threads, int64_t start_ns,
                                 const ResponseCheck& check);

/// Closed loop: `threads` connections each send wires[t], wires[t+threads],
/// ... (cycling) back to back for `seconds`.
struct ClosedLoopResult {
  std::vector<Outcome> outcomes;
  double seconds = 0;
};
ClosedLoopResult RunClosedLoop(uint16_t port, const std::vector<std::string>& wires,
                               int threads, double seconds, const ResponseCheck& check);

}  // namespace e2e

#endif  // NETMARK_E2E_LOADGEN_H_
