#include "storage/segment_manifest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "storage/dictionary.h"
#include "util/crc32c.h"
#include "util/varint.h"

namespace xtopk {

namespace {
constexpr char kMagic[] = "XTKSMAN3";
constexpr size_t kMagicLen = 8;

void PutFixed32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void PutHistogram(std::string* buf, const LevelHistogram& hist) {
  varint::PutU64(buf, hist.buckets().size());
  uint64_t prev_hi = 0;
  for (const LevelHistogram::Bucket& b : hist.buckets()) {
    varint::PutU64(buf, b.lo - prev_hi);
    varint::PutU32(buf, b.hi - b.lo);
    varint::PutU64(buf, static_cast<uint64_t>(std::llround(b.count)));
    prev_hi = b.hi;
  }
}

Status GetHistogram(const std::string& body, size_t* pos, const char* path,
                    LevelHistogram* hist) {
  uint64_t bucket_count = 0;
  Status s = varint::GetU64(body, pos, &bucket_count);
  if (!s.ok()) return s;
  if (bucket_count > body.size()) {  // each bucket needs >= 3 bytes
    return Status::Corruption(std::string("manifest histogram overruns: ") +
                              path);
  }
  std::vector<LevelHistogram::Bucket> buckets;
  buckets.reserve(bucket_count);
  uint64_t prev_hi = 0;
  for (uint64_t i = 0; i < bucket_count; ++i) {
    uint64_t lo_delta = 0;
    uint32_t width = 0;
    uint64_t count = 0;
    s = varint::GetU64(body, pos, &lo_delta);
    if (s.ok()) s = varint::GetU32(body, pos, &width);
    if (s.ok()) s = varint::GetU64(body, pos, &count);
    if (!s.ok()) return s;
    LevelHistogram::Bucket b;
    uint64_t lo = prev_hi + lo_delta;
    uint64_t hi = lo + width;
    if (hi > 0xFFFFFFFFull) {
      return Status::Corruption(std::string("manifest bucket out of range: ") +
                                path);
    }
    b.lo = static_cast<uint32_t>(lo);
    b.hi = static_cast<uint32_t>(hi);
    b.count = static_cast<double>(count);
    prev_hi = hi;
    buckets.push_back(b);
  }
  if (!hist->AssignChecked(std::move(buckets))) {
    return Status::Corruption(std::string("manifest histogram invalid: ") +
                              path);
  }
  return Status::Ok();
}

Status WriteBuffer(const std::string& buf, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create manifest: " + path);
  }
  size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  int closed = std::fclose(f);
  if (written != buf.size() || closed != 0) {
    return Status::IoError("short manifest write: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status SegmentManifest::Save(const std::string& path) const {
  // Term order in the file is dictionary-code order (sorted); `terms` is
  // sorted by convention, but re-derive the order so the writer never
  // depends on it.
  std::vector<uint32_t> order(terms.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return terms[a].term < terms[b].term;
  });
  std::vector<std::string> names;
  names.reserve(terms.size());
  for (uint32_t i : order) names.push_back(terms[i].term);
  auto dict = FrontCodedDict::Build(names);
  if (!dict.ok()) return dict.status();

  std::string buf(kMagic, kMagicLen);
  varint::PutU64(&buf, covered_nodes);
  varint::PutU64(&buf, terms.size());
  dict->Serialize(&buf);
  for (uint32_t i : order) {
    const SegmentTermStats& t = terms[i];
    varint::PutU32(&buf, t.rows);
    varint::PutU32(&buf, t.max_tf);
    varint::PutU64(&buf, t.levels.size());
    for (const LevelHistogram& hist : t.levels) PutHistogram(&buf, hist);
  }
  PutFixed32(&buf, crc32c::Compute(buf));
  return WriteBuffer(buf, path);
}

StatusOr<SegmentManifest> SegmentManifest::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open manifest: " + path);
  }
  std::string buf;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, n);
  }
  std::fclose(f);

  if (buf.size() < kMagicLen + 4 || buf.compare(0, kMagicLen, kMagic) != 0) {
    return Status::Corruption("bad manifest magic: " + path);
  }
  std::string body = buf.substr(0, buf.size() - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<unsigned char>(buf[buf.size() - 4 + i]))
              << (8 * i);
  }
  if (crc32c::Compute(body) != stored) {
    return Status::Corruption("manifest checksum mismatch: " + path);
  }

  SegmentManifest manifest;
  size_t pos = kMagicLen;
  uint64_t term_count = 0;
  Status s = varint::GetU64(body, &pos, &manifest.covered_nodes);
  if (s.ok()) s = varint::GetU64(body, &pos, &term_count);
  if (!s.ok()) return s;
  if (term_count > body.size()) {
    return Status::Corruption("manifest term count overruns buffer: " + path);
  }
  // The names live in one front-coded dictionary ahead of the per-term
  // records; code order == record order.
  auto dict = FrontCodedDict::Deserialize(body, &pos);
  if (!dict.ok()) return dict.status();
  if (dict->size() != term_count) {
    return Status::Corruption("manifest dictionary size mismatch: " + path);
  }
  std::vector<std::string> names = dict->DecodeAll();
  manifest.terms.reserve(term_count);
  for (uint64_t i = 0; i < term_count; ++i) {
    SegmentTermStats t;
    t.term = std::move(names[i]);
    uint64_t level_count = 0;
    s = varint::GetU32(body, &pos, &t.rows);
    if (s.ok()) s = varint::GetU32(body, &pos, &t.max_tf);
    if (s.ok()) s = varint::GetU64(body, &pos, &level_count);
    if (!s.ok()) return s;
    if (level_count > body.size()) {
      return Status::Corruption("manifest level count overruns buffer: " +
                                path);
    }
    t.levels.resize(level_count);
    for (uint64_t l = 0; l < level_count; ++l) {
      s = GetHistogram(body, &pos, path.c_str(), &t.levels[l]);
      if (!s.ok()) return s;
    }
    manifest.terms.push_back(std::move(t));
  }
  return manifest;
}

}  // namespace xtopk
