#ifndef XTOPK_STORAGE_SEGMENT_MANIFEST_H_
#define XTOPK_STORAGE_SEGMENT_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/histogram.h"
#include "util/status.h"

namespace xtopk {

/// Per-term statistics of one sealed segment. `rows` is the segment's
/// inverted-list length (its contribution to the corpus-wide document
/// frequency); `max_tf` the largest raw term frequency of any row. Both
/// are what query-time score normalization needs from a segment WITHOUT
/// loading its lists: df(t) = sum of rows over segments, and the global
/// normalizer max_raw = max over terms of RawLocalScore(max_tf, df, N)
/// (RawLocalScore is monotone in tf for fixed df, so the per-term max is
/// attained at max_tf).
///
/// `levels` holds one equal-height histogram per JDewey level over the
/// term's distinct level ids in this segment; SegmentedIndex merges these
/// across segments into corpus-global planner statistics without touching
/// any posting pages. The record IS the term's TermStats, so a disk
/// environment hands planners a pointer into its manifest instead of a
/// second copy of every histogram.
struct SegmentTermStats : TermStats {
  std::string term;
  uint32_t max_tf = 0;
};

/// Sidecar metadata of a sealed segment (stored next to the page file as
/// `<segment>.manifest`, docs/FORMATS.md). Byte layout:
///
///   magic "XTKSMAN3" | varint covered_nodes | varint term_count
///   front-coded term dictionary (storage/dictionary.h)
///   per term, in dictionary-code (sorted) order:
///            varint rows | varint max_tf | varint level_count
///            per level: varint bucket_count
///              per bucket: varint (lo - prev_hi) | varint (hi - lo)
///                        | varint count          (prev_hi starts at 0)
///   fixed32 LE CRC32C over all preceding bytes
///
/// Load verifies the magic and the checksum and returns Corruption on any
/// mismatch or truncation (earlier manifest versions included), so a
/// damaged manifest is detected before its statistics can skew scores or
/// plans.
struct SegmentManifest {
  uint64_t covered_nodes = 0;          ///< nodes this segment indexed
  std::vector<SegmentTermStats> terms; ///< sorted by term

  Status Save(const std::string& path) const;
  static StatusOr<SegmentManifest> Load(const std::string& path);
};

}  // namespace xtopk

#endif  // XTOPK_STORAGE_SEGMENT_MANIFEST_H_
