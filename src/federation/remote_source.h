// RemoteSource: a source reached over HTTP — another NETMARK server's XDB
// endpoint ("users can access NETMARK documents by simple HTTP requests").
//
// The transport is abstract so federation does not depend on the server
// module; netmark::server provides the socket-backed implementation.

#ifndef NETMARK_FEDERATION_REMOTE_SOURCE_H_
#define NETMARK_FEDERATION_REMOTE_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "federation/source.h"
#include "observability/trace.h"

namespace netmark::federation {

/// \brief Minimal HTTP GET transport.
class HttpTransport {
 public:
  virtual ~HttpTransport() = default;
  /// Fetches `path_and_query` ("/xdb?context=..."), returning the body.
  /// Implementations must give up with Status::DeadlineExceeded once
  /// `ctx.deadline_micros` passes instead of blocking indefinitely.
  virtual netmark::Result<std::string> Get(const std::string& path_and_query,
                                           const CallContext& ctx) = 0;

  /// Convenience: fetch with no deadline.
  netmark::Result<std::string> Get(const std::string& path_and_query) {
    return Get(path_and_query, CallContext::Unbounded());
  }
};

/// \brief Federated source proxied over HTTP to a remote NETMARK instance.
class RemoteSource : public Source {
 public:
  RemoteSource(std::string name, std::unique_ptr<HttpTransport> transport,
               Capabilities capabilities = Capabilities::Full())
      : name_(std::move(name)),
        transport_(std::move(transport)),
        capabilities_(capabilities) {}

  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return capabilities_; }
  using Source::Execute;
  /// The remote's `<results>` reply, decoded (query::Decode); a malformed
  /// reply is a ParseError. Declared content-only, the source asks for each
  /// matching document's element (`xpath=/*`) and answers with the
  /// documents whole in the bodies, as ContentOnlySource does.
  netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query,
                                           const CallContext& ctx) override;

 private:
  std::string name_;
  std::unique_ptr<HttpTransport> transport_;
  Capabilities capabilities_;
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_REMOTE_SOURCE_H_
