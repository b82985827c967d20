#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"

namespace xtopk {
namespace obs {
namespace {

TEST(ExpositionTest, HandleRequestRoutes) {
  XTOPK_COUNTER("test.exposition.requests_seen").Add(3);
  std::string metrics = HandleRequest("GET /metrics HTTP/1.0");
  EXPECT_EQ(metrics.find("HTTP/1.0 200 OK"), 0u);
  EXPECT_NE(metrics.find("test_exposition_requests_seen"), std::string::npos);

  std::string vars = HandleRequest("GET /vars HTTP/1.0");
  EXPECT_NE(vars.find("application/json"), std::string::npos);
  EXPECT_NE(vars.find("\"counters\""), std::string::npos);
  EXPECT_NE(vars.find("\"windows\""), std::string::npos);

  std::string slowlog = HandleRequest("GET /slowlog HTTP/1.0");
  EXPECT_NE(slowlog.find("\"slow_queries\""), std::string::npos);

  std::string events = HandleRequest("GET /events HTTP/1.0");
  EXPECT_NE(events.find("\"events\""), std::string::npos);

  EXPECT_NE(HandleRequest("GET /healthz HTTP/1.0").find("ok"),
            std::string::npos);
  EXPECT_EQ(
      HandleRequest("GET /nope HTTP/1.0").find("404"), 9u);
  EXPECT_NE(HandleRequest("POST /metrics HTTP/1.0")
                .find("400 Bad Request"),
            std::string::npos);
  // Query strings are ignored, not 404ed.
  EXPECT_EQ(
      HandleRequest("GET /healthz?x=1 HTTP/1.0").find("HTTP/1.0 200"),
      0u);
}

}  // namespace
}  // namespace obs
}  // namespace xtopk
