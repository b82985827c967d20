#ifndef XTOPK_TOOLS_DEMO_DOC_H_
#define XTOPK_TOOLS_DEMO_DOC_H_

#include <string>

namespace xtopk_tools {

// The built-in demo document shared by the profiling/telemetry CLIs
// (xtopk_profile, xtopk_replay, xtopk_serve): a generated bibliography
// large enough that a query's wall time is dominated by actual search work
// (tiny toy documents would profile the tracer, not the engine). Fully
// deterministic, so replay fingerprints recorded against it are stable.
inline std::string BuildDemoXml() {
  const char* topics[] = {"storage", "ranking",  "indexing", "joins",
                          "caching", "parsing",  "scoring",  "pruning"};
  const char* authors[] = {"alice", "bob", "carol", "dave", "erin"};
  std::string xml = "<bib>\n";
  for (int i = 0; i < 400; ++i) {
    const char* topic = topics[i % 8];
    xml += "<book year=\"" + std::to_string(1990 + i % 30) + "\">";
    xml += "<title>xml " + std::string(topic) + " techniques volume " +
           std::to_string(i) + "</title>";
    xml += "<author>" + std::string(authors[i % 5]) + "</author>";
    if (i % 3 == 0) {
      xml += "<chapter>keyword search over xml data</chapter>";
    }
    if (i % 5 == 0) {
      xml += "<chapter>top k query processing and " + std::string(topic) +
             "</chapter>";
    }
    xml += "<chapter>notes on " + std::string(topics[(i + 3) % 8]) +
           " and data management</chapter>";
    xml += "</book>\n";
  }
  xml +=
      "<article><title>supporting top k keyword search in xml databases"
      "</title><author>alice</author><author>bob</author>"
      "<abstract>keyword search queries over xml data with top k ranking"
      "</abstract></article>\n";
  xml += "</bib>\n";
  return xml;
}

}  // namespace xtopk_tools

#endif  // XTOPK_TOOLS_DEMO_DOC_H_
