// Federated sources and their capability descriptors (paper §2.1.5).
//
// "A source that is queried need not necessarily have XML or even
// Context+Content searching capabilities. However NETMARK 'augments' the
// query capability in that it uses whatever query and search capabilities
// are available at the source and then does further processing required."

#ifndef NETMARK_FEDERATION_SOURCE_H_
#define NETMARK_FEDERATION_SOURCE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "query/result_set.h"
#include "query/xdb_query.h"

namespace netmark::observability {
class Trace;
}  // namespace netmark::observability

namespace netmark::federation {

/// \brief Per-call deadline threaded from the query entry point down to every
/// source attempt ("a slow remote costs its budget and nothing more"), plus
/// the request's trace so transports can hang their spans under the calling
/// source's span. The trace pointer is valid for the duration of the call
/// (the router's fan-out jobs hold shared ownership of the trace).
struct CallContext {
  /// Absolute deadline in MonotonicMicros() time; 0 = unbounded.
  int64_t deadline_micros = 0;
  /// Request trace (null = untraced call) and the span to parent under.
  observability::Trace* trace = nullptr;
  int span = -1;

  static CallContext Unbounded() { return CallContext{}; }
  static CallContext WithTimeoutMs(int64_t timeout_ms) {
    return CallContext{netmark::MonotonicMicros() + timeout_ms * 1000};
  }

  /// Copy of this context re-parented under `span` of `trace`.
  CallContext WithSpan(observability::Trace* new_trace, int new_span) const {
    CallContext out = *this;
    out.trace = new_trace;
    out.span = new_span;
    return out;
  }

  bool bounded() const { return deadline_micros != 0; }
  bool expired() const {
    return bounded() && netmark::MonotonicMicros() >= deadline_micros;
  }
  /// Remaining budget in microseconds (max() when unbounded, <= 0 when
  /// expired).
  int64_t remaining_micros() const {
    if (!bounded()) return std::numeric_limits<int64_t>::max();
    return deadline_micros - netmark::MonotonicMicros();
  }
  int64_t remaining_ms() const {
    int64_t us = remaining_micros();
    if (us == std::numeric_limits<int64_t>::max()) return us;
    return us / 1000;
  }
  /// The tighter of this deadline and `now + timeout_ms` (timeout_ms <= 0
  /// leaves the context unchanged). Trace attribution is preserved.
  CallContext Tightened(int64_t timeout_ms) const {
    if (timeout_ms <= 0) return *this;
    int64_t candidate = netmark::MonotonicMicros() + timeout_ms * 1000;
    if (!bounded() || candidate < deadline_micros) {
      CallContext out = *this;
      out.deadline_micros = candidate;
      return out;
    }
    return *this;
  }
};

/// What a source can evaluate natively. The router pushes down the largest
/// supported sub-query and augments the remainder itself.
struct Capabilities {
  bool context_search = false;  ///< heading-scoped section queries
  bool content_search = false;  ///< keyword document queries
  bool phrase_search = false;   ///< quoted phrases in keys

  static Capabilities Full() { return {true, true, true}; }
  static Capabilities ContentOnly() { return {false, true, false}; }
};

/// \brief One information source inside a databank.
class Source {
 public:
  virtual ~Source() = default;
  virtual const std::string& name() const = 0;
  virtual Capabilities capabilities() const = 0;

  /// Executes the *supported subset* of `query` (the router guarantees it
  /// only sends what `capabilities()` advertises) and returns its answer:
  /// the hits plus what is missing from them (docs/XDB_QUERY.md). The
  /// router fills each hit's `source`. Implementations should honour
  /// `ctx.deadline_micros` and return Status::DeadlineExceeded once the
  /// budget is spent.
  virtual netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query,
                                                   const CallContext& ctx) = 0;

  /// Convenience: execute with no deadline.
  netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query) {
    return Execute(query, CallContext::Unbounded());
  }
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_SOURCE_H_
