#ifndef XTOPK_INDEX_INDEX_IO_H_
#define XTOPK_INDEX_INDEX_IO_H_

#include <string>

#include "index/dewey_index.h"
#include "util/status.h"

namespace xtopk {

/// Dewey-index persistence with the prefix+varint compression of
/// Xu & Papakonstantinou (the "stack-based" rows of Table I measure this
/// encoding's real bytes). Format "XTD1" (docs/FORMATS.md). JDewey indexes
/// persist as the paged disk image (index/disk_index.h).
namespace index_io {

void EncodeDeweyIndex(const DeweyIndex& index, std::string* out);
Status DecodeDeweyIndex(const std::string& data, DeweyIndex* out);

}  // namespace index_io
}  // namespace xtopk

#endif  // XTOPK_INDEX_INDEX_IO_H_
