#ifndef XTOPK_OBS_EXPOSITION_H_
#define XTOPK_OBS_EXPOSITION_H_

#include <string>
#include <string_view>

namespace xtopk {
namespace obs {

/// The telemetry surface the serve port (serve::QueryServer) answers:
///   /metrics  Prometheus text format (cumulative + windowed gauges)
///   /vars     full JSON snapshot (counters, histograms, windows)
///   /slowlog  recent slow-query captures as a JSON array
///   /events   flight-recorder ring as JSON
///   /healthz  "ok"
///
/// Pure request -> response mapping: `request_line` is e.g.
/// "GET /metrics HTTP/1.0"; returns the full HTTP response including
/// status line and headers (400 for anything but GET, 404 for an unknown
/// path).
std::string HandleRequest(std::string_view request_line);

}  // namespace obs
}  // namespace xtopk

#endif  // XTOPK_OBS_EXPOSITION_H_
