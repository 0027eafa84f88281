// HTTP/1.1 message types and wire codecs (request parsing, response
// serialization, and the inverse pair for the client side).

#ifndef NETMARK_SERVER_HTTP_MESSAGE_H_
#define NETMARK_SERVER_HTTP_MESSAGE_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"

namespace netmark::server {

/// Case-insensitive header map.
struct CaseInsensitiveLess {
  bool operator()(const std::string& a, const std::string& b) const;
};
using HeaderMap = std::map<std::string, std::string, CaseInsensitiveLess>;

/// \brief One HTTP request.
struct HttpRequest {
  std::string method;   ///< GET, PUT, DELETE, PROPFIND, ...
  std::string target;   ///< raw request target ("/xdb?context=a")
  std::string path;     ///< decoded path ("/xdb")
  std::string query;    ///< raw query string ("context=a")
  HeaderMap headers;
  std::string body;

  // Serving-path timings stamped by HttpServer (not part of the wire
  // format); the service renders them as trace spans. Both are rounded up
  // to 1us so a measured-but-fast stage still shows in the span tree.
  int64_t queue_wait_micros = 0;  ///< handoff-queue wait
  int64_t parse_micros = 0;       ///< head + body parse time

  std::string_view Header(const std::string& name) const {
    auto it = headers.find(name);
    return it == headers.end() ? std::string_view{} : std::string_view(it->second);
  }
  /// Serializes to wire format (client side).
  std::string Serialize() const;
};

/// \brief One HTTP response.
struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;

  static HttpResponse Ok(std::string body, std::string content_type = "text/xml");
  static HttpResponse Text(int status, std::string message);
  static HttpResponse NotFound(std::string message = "not found");
  static HttpResponse BadRequest(std::string message);
  static HttpResponse ServerError(std::string message);

  std::string_view Header(const std::string& name) const {
    auto it = headers.find(name);
    return it == headers.end() ? std::string_view{} : std::string_view(it->second);
  }
  /// Serializes to wire format (server side); sets Content-Length.
  std::string Serialize() const;
};

/// \brief Incremental HTTP/1.1 framing: returns the byte length of the
/// first complete message in `buffer` (head + Content-Length body), or 0
/// while more bytes are needed. `head_end` caches the "\r\n\r\n" scan
/// position across calls — pass a variable holding std::string::npos for a
/// fresh message and reset it to npos after consuming the framed bytes.
/// The epoll reactor frames with this, so pipelined requests split across
/// arbitrary TCP segment boundaries are reassembled exactly.
size_t CompleteMessageBytes(std::string_view buffer, size_t* head_end);

/// \brief Parses a full request (head + body) from raw bytes.
netmark::Result<HttpRequest> ParseRequest(std::string_view raw);
/// \brief Parses a full response from raw bytes.
netmark::Result<HttpResponse> ParseResponse(std::string_view raw);

/// \brief Splits a request target into decoded path + raw query string.
netmark::Status SplitTarget(std::string_view target, std::string* path,
                            std::string* query);

}  // namespace netmark::server

#endif  // NETMARK_SERVER_HTTP_MESSAGE_H_
