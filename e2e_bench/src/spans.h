// In-memory spans for the traced replay, recorded from the benchmark's own
// code around calls into NETMARK's public functions: name, start, end,
// parent and request id. Written out as JSON lines when the run ends.

#ifndef NETMARK_E2E_SPANS_H_
#define NETMARK_E2E_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  int parent = -1;       ///< index into the log; -1 for a root
  int64_t request = -1;  ///< request id shared by a request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Append-only span log for one thread.
class SpanLog {
 public:
  int Begin(std::string name, int parent, int64_t request);
  void End(int id);
  /// Records an already-measured interval.
  int Add(std::string name, int parent, int64_t request, int64_t start_ns,
          int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it that child spans cover, per span.
  std::vector<int64_t> SelfNanos() const;
  /// Self times in microseconds grouped by span name.
  std::map<std::string, std::vector<double>> SelfMicrosByName() const;
  /// One JSON object per span; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, int64_t request)
      : log_(log), id_(log->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void End() {
    if (!ended_) log_->End(id_);
    ended_ = true;
  }

 private:
  SpanLog* log_;
  int id_;
  bool ended_ = false;
};

}  // namespace e2e

#endif  // NETMARK_E2E_SPANS_H_
