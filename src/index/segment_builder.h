#ifndef XTOPK_INDEX_SEGMENT_BUILDER_H_
#define XTOPK_INDEX_SEGMENT_BUILDER_H_

#include <vector>

#include "index/index_builder.h"
#include "index/jdewey_index.h"
#include "storage/segment_manifest.h"
#include "xml/jdewey.h"
#include "xml/xml_tree.h"

namespace xtopk {

/// The one JDewey index builder: the column-oriented lists of exactly the
/// nodes in `nodes`, numbered by `enc` — a SHARED (possibly incrementally
/// maintained) encoding for segments and the memtable, a fresh one over
/// every node for IndexBuilder.
///
///  - Scores carry the RAW term frequency of each occurrence. The tf·idf
///    local score needs corpus-global statistics (per-term df, the global
///    max raw score, the corpus node count) that one segment cannot know;
///    ScoreRawTfs (core/scoring.h) applies them, in IndexBuilder and, at
///    query time, in SegmentSetVersion::Resolve.
///
///  - Rows are sorted by JDewey sequence (CompareJDewey's order): under a
///    maintained encoding a partially re-encoded subtree can put creation
///    order out of value order, and Property 3.1 (non-decreasing column
///    values) must hold per segment for the cursor-layer merge to be a
///    plain sorted merge. Under a fresh encoding this is document order.
///
/// The (level, value) -> node mapping covers `nodes` plus all their
/// ancestors, so ELCA/SLCA answers that land above the segment's own nodes
/// still materialize.
JDeweyIndex BuildSegmentIndex(const XmlTree& tree, const JDeweyEncoding& enc,
                              const std::vector<NodeId>& nodes,
                              const IndexBuildOptions& options);

/// Largest raw term frequency of a list whose scores carry raw tfs.
uint32_t MaxTf(const JDeweyList& list);

/// Derives the sidecar manifest of a segment index whose scores carry raw
/// term frequencies. `covered_nodes` is left 0 — the caller knows the
/// covered-node count, the index does not.
SegmentManifest ManifestFromSegment(const JDeweyIndex& segment);

}  // namespace xtopk

#endif  // XTOPK_INDEX_SEGMENT_BUILDER_H_
