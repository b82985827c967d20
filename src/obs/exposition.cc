#include "obs/exposition.h"

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"

namespace xtopk {
namespace obs {
namespace {

std::string MakeResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string HandleRequest(std::string_view request_line) {
  // "GET <path> HTTP/1.x" — anything else is a 400.
  if (request_line.substr(0, 4) != "GET ") {
    XTOPK_COUNTER("obs.http.bad_requests").Add(1);
    return MakeResponse("400 Bad Request", "text/plain", "bad request\n");
  }
  XTOPK_COUNTER("obs.http.requests").Add(1);
  std::string_view rest = request_line.substr(4);
  size_t space = rest.find(' ');
  std::string_view path =
      space == std::string_view::npos ? rest : rest.substr(0, space);
  // Ignore any query string: the endpoints take no parameters.
  size_t question = path.find('?');
  if (question != std::string_view::npos) path = path.substr(0, question);

  if (path == "/metrics") {
    return MakeResponse("200 OK", "text/plain; version=0.0.4",
                        MetricsRegistry::Global().Snapshot().ToPrometheusText());
  }
  if (path == "/vars") {
    return MakeResponse("200 OK", "application/json",
                        MetricsRegistry::Global().Snapshot().ToJson());
  }
  if (path == "/slowlog") {
    return MakeResponse("200 OK", "application/json",
                        SlowQueryLog::Global().ToJson());
  }
  if (path == "/events") {
    return MakeResponse("200 OK", "application/json",
                        EventLog::Global().ToJson());
  }
  if (path == "/healthz") {
    return MakeResponse("200 OK", "text/plain", "ok\n");
  }
  return MakeResponse("404 Not Found", "text/plain", "not found\n");
}

}  // namespace obs
}  // namespace xtopk
