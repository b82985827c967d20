#include "index/index_io.h"

#include <cstring>

#include "index/index_access.h"
#include "storage/serializer.h"
#include "util/varint.h"

namespace xtopk {
namespace index_io {
namespace {

constexpr char kDeweyMagic[4] = {'X', 'T', 'D', '1'};

}  // namespace

void EncodeDeweyIndex(const DeweyIndex& index, std::string* out) {
  out->append(kDeweyMagic, sizeof(kDeweyMagic));
  const auto& term_ids = IndexIoAccess::TermIds(index);
  const auto& lists = IndexIoAccess::Lists(index);
  varint::PutU32(out, static_cast<uint32_t>(lists.size()));
  // Stable term order for deterministic bytes.
  std::vector<const std::string*> terms(lists.size());
  for (const auto& [term, id] : term_ids) terms[id] = &term;
  for (size_t t = 0; t < lists.size(); ++t) {
    const DeweyList& list = lists[t];
    ser::PutLengthPrefixed(out, *terms[t]);
    varint::PutU32(out, list.num_rows());
    DeweyId prev;
    for (uint32_t row = 0; row < list.num_rows(); ++row) {
      const DeweyId& cur = list.deweys[row];
      // Prefix compression: shared length, remainder count, components.
      size_t shared = prev.CommonPrefixLength(cur);
      varint::PutU32(out, static_cast<uint32_t>(shared));
      varint::PutU32(out, static_cast<uint32_t>(cur.length() - shared));
      for (size_t i = shared; i < cur.length(); ++i) {
        varint::PutU32(out, cur[i]);
      }
      prev = cur;
    }
    for (uint32_t row = 0; row < list.num_rows(); ++row) {
      varint::PutU32(out, list.nodes[row]);
      ser::PutFloat(out, list.scores[row]);
    }
  }
}

Status DecodeDeweyIndex(const std::string& data, DeweyIndex* out) {
  size_t pos = 0;
  if (data.size() < 4 || std::memcmp(data.data(), kDeweyMagic, 4) != 0) {
    return Status::Corruption("dewey index: bad magic");
  }
  pos = 4;
  uint32_t term_count = 0;
  Status s = varint::GetU32(data, &pos, &term_count);
  if (!s.ok()) return s;
  auto* term_ids = IndexIoAccess::TermIds(out);
  auto* lists = IndexIoAccess::Lists(out);
  term_ids->clear();
  lists->clear();
  lists->resize(term_count);
  for (uint32_t t = 0; t < term_count; ++t) {
    std::string term;
    s = ser::GetLengthPrefixed(data, &pos, &term);
    if (!s.ok()) return s;
    term_ids->emplace(std::move(term), t);
    DeweyList& list = (*lists)[t];
    uint32_t rows = 0;
    s = varint::GetU32(data, &pos, &rows);
    if (!s.ok()) return s;
    list.deweys.reserve(rows);
    std::vector<uint32_t> prev;
    for (uint32_t row = 0; row < rows; ++row) {
      uint32_t shared = 0, extra = 0;
      s = varint::GetU32(data, &pos, &shared);
      if (s.ok()) s = varint::GetU32(data, &pos, &extra);
      if (!s.ok()) return s;
      if (shared > prev.size()) {
        return Status::Corruption("dewey index: bad shared prefix");
      }
      std::vector<uint32_t> comps(prev.begin(), prev.begin() + shared);
      for (uint32_t i = 0; i < extra; ++i) {
        uint32_t c = 0;
        s = varint::GetU32(data, &pos, &c);
        if (!s.ok()) return s;
        comps.push_back(c);
      }
      prev = comps;
      list.deweys.emplace_back(std::move(comps));
    }
    list.nodes.resize(rows);
    list.scores.resize(rows);
    for (uint32_t row = 0; row < rows; ++row) {
      s = varint::GetU32(data, &pos, &list.nodes[row]);
      if (s.ok()) s = ser::GetFloat(data, &pos, &list.scores[row]);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace index_io
}  // namespace xtopk
