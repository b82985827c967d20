#include "index/disk_index.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "index/index_access.h"
#include "index/segment_builder.h"
#include "obs/metrics.h"
#include "storage/compression.h"
#include "storage/fault_pagefile.h"
#include "storage/serializer.h"
#include "util/crc32c.h"
#include "util/varint.h"

namespace xtopk {
namespace {

/// The image's footer magic and format version. The bytes are those of
/// the last of three historical layouts, which is why the magic ends in 2
/// and the version reads 3; earlier footers are rejected as Corruption.
constexpr char kMagic[8] = {'X', 'T', 'K', 'D', 'I', 'S', 'K', '2'};
constexpr uint32_t kFormatVersion = 3;

/// Sidecar flag bits. The dictionary bit is always set: the image has one
/// term space.
constexpr uint8_t kSidecarDictTerms = 1u << 0;
constexpr uint8_t kSidecarDag = 1u << 1;
constexpr uint8_t kSidecarDictRows = 1u << 2;

/// Appends byte streams to a PageFile, handing out extents. Blobs are
/// packed back to back and may span pages. Each flushed page's CRC32C
/// (over the full zero-padded 8 KiB page, exactly the bytes ReadPage
/// returns) is recorded for the segment's checksum table.
class BlobWriter {
 public:
  explicit BlobWriter(PageFile* file) : file_(file) {}

  BlobExtent Append(const std::string& data) {
    BlobExtent extent;
    extent.start_page = next_page_;
    extent.start_offset = static_cast<uint32_t>(buffer_.size());
    extent.length = data.size();
    size_t pos = 0;
    while (pos < data.size()) {
      size_t room = PageFile::kPageSize - buffer_.size();
      size_t take = std::min(room, data.size() - pos);
      buffer_.append(data, pos, take);
      pos += take;
      if (buffer_.size() == PageFile::kPageSize) {
        Status s = FlushPage();
        if (!s.ok()) {
          status_ = s;
          return extent;
        }
      }
    }
    return extent;
  }

  Status Finish() {
    if (!status_.ok()) return status_;
    if (!buffer_.empty()) return FlushPage();
    return Status::Ok();
  }

  const Status& status() const { return status_; }
  /// One CRC per flushed page, in page order. Valid after Finish().
  const std::vector<uint32_t>& page_crcs() const { return page_crcs_; }

 private:
  Status FlushPage() {
    buffer_.resize(PageFile::kPageSize, '\0');  // CRC covers the padding too
    page_crcs_.push_back(crc32c::Compute(buffer_));
    auto page = file_->AppendPage(buffer_);
    if (!page.ok()) return page.status();
    buffer_.clear();
    ++next_page_;
    return Status::Ok();
  }

  PageFile* file_;
  std::string buffer_;
  PageId next_page_ = 0;
  std::vector<uint32_t> page_crcs_;
  Status status_;
};

void PutExtent(std::string* out, const BlobExtent& extent) {
  varint::PutU32(out, extent.start_page);
  varint::PutU32(out, extent.start_offset);
  varint::PutU64(out, extent.length);
}

Status GetExtent(const std::string& data, size_t* pos, BlobExtent* extent) {
  Status s = varint::GetU32(data, pos, &extent->start_page);
  if (s.ok()) s = varint::GetU32(data, pos, &extent->start_offset);
  if (s.ok()) s = varint::GetU64(data, pos, &extent->length);
  return s;
}

/// Parsed image footer.
struct FooterInfo {
  BlobExtent dir_extent;
  BlobExtent table_extent;
  BlobExtent sidecar_extent;
  uint32_t data_page_count = 0;
  uint32_t table_crc = 0;
};

/// Read failures worth retrying: transient I/O errors, and corruption —
/// damage injected (or occurring) in flight is per-read, so a clean
/// retry can succeed; true on-disk corruption just exhausts the budget.
bool RetryableRead(const Status& s) {
  return s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kCorruption;
}

void RetryBackoff(uint32_t attempt, uint32_t backoff_us) {
  XTOPK_COUNTER("storage.io.retries").Add(1);
  if (backoff_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<uint64_t>(backoff_us) *
                                  (attempt + 1)));
  }
}

Status ParseFooter(const std::string& footer, FooterInfo* info) {
  if (footer.size() < sizeof(kMagic)) {
    return Status::Corruption("disk index: footer too short");
  }
  if (std::memcmp(footer.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("disk index: bad magic");
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  Status s = varint::GetU32(footer, &pos, &version);
  if (!s.ok()) return s;
  if (version != kFormatVersion) {
    return Status::Corruption("disk index: unsupported format version");
  }
  s = GetExtent(footer, &pos, &info->dir_extent);
  if (s.ok()) s = GetExtent(footer, &pos, &info->table_extent);
  if (s.ok()) s = GetExtent(footer, &pos, &info->sidecar_extent);
  if (s.ok()) s = varint::GetU32(footer, &pos, &info->data_page_count);
  if (s.ok()) s = ser::GetFixed32(footer, &pos, &info->table_crc);
  if (!s.ok()) return s;
  // The footer checksums itself: the fixed32 after the payload covers
  // every preceding byte, so a damaged footer (including damaged padding)
  // is caught before any extent is trusted.
  size_t payload_end = pos;
  uint32_t stored_crc = 0;
  s = ser::GetFixed32(footer, &pos, &stored_crc);
  if (!s.ok()) return s;
  if (stored_crc != crc32c::Compute(footer.data(), payload_end)) {
    XTOPK_COUNTER("storage.checksum.mismatches").Add(1);
    return Status::Corruption("disk index: footer checksum mismatch");
  }
  return Status::Ok();
}

/// Current registry values of the cache counters DiskIoStats reports
/// (pages_read stays on the PageFile instance).
DiskIoStats RegistryIoCounters() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  DiskIoStats s;
  s.pool_hits = reg.GetCounter("storage.pool.hits").value();
  s.pool_misses = reg.GetCounter("storage.pool.misses").value();
  s.decoded_hits = reg.GetCounter("storage.decoded.hits").value();
  s.decoded_misses = reg.GetCounter("storage.decoded.misses").value();
  return s;
}

/// Serialized-size accounting of one DiskIndexWriter::Write call,
/// published as storage.disk_write.bytes.* gauges so the Table-1 bench
/// can break a segment into components (tree / postings / dictionaries)
/// without re-parsing the file. Gauges, not counters: each Write
/// overwrites the previous call's figures.
struct WriteAccounting {
  uint64_t lengths = 0, scores = 0, columns = 0, tree = 0, directory = 0,
           sidecar = 0;
  void Publish() const {
    XTOPK_GAUGE("storage.disk_write.bytes.postings")
        .Set(static_cast<int64_t>(lengths + scores + columns));
    XTOPK_GAUGE("storage.disk_write.bytes.tree")
        .Set(static_cast<int64_t>(tree));
    XTOPK_GAUGE("storage.disk_write.bytes.directory")
        .Set(static_cast<int64_t>(directory));
    XTOPK_GAUGE("storage.disk_write.bytes.sidecar")
        .Set(static_cast<int64_t>(sidecar));
  }
};

/// Saturating delta: a registry ResetAll between baseline and read would
/// otherwise wrap; report the post-reset absolute value instead.
uint64_t CounterDelta(uint64_t now, uint64_t baseline) {
  return now >= baseline ? now - baseline : now;
}

}  // namespace

Status DiskIndexWriter::Write(const JDeweyIndex& index, const std::string& path,
                              const Options& options, uint64_t covered_nodes) {
  PageFile file;
  Status s = file.Open(path, /*create=*/true);
  if (!s.ok()) return s;
  BlobWriter writer(&file);

  const size_t term_count = index.terms().size();
  // File term order is sorted term order: a term's file id is its
  // dictionary code.
  std::vector<uint32_t> order(term_count);
  for (uint32_t t = 0; t < term_count; ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return index.terms()[a] < index.terms()[b];
  });

  // The catalog is index-wide: every DAG-carrying list shares one.
  std::shared_ptr<const DagCatalog> catalog;
  if (options.dag) {
    for (const JDeweyList& list : index.lists()) {
      if (list.dag != nullptr && list.dag->catalog != nullptr &&
          !list.dag->catalog->empty()) {
        catalog = list.dag->catalog;
        break;
      }
    }
  }
  const bool write_dag = catalog != nullptr;

  std::string directory;
  directory.push_back(options.include_scores ? 1 : 0);
  varint::PutU32(&directory, index.max_level());
  varint::PutU32(&directory, static_cast<uint32_t>(term_count));

  // Per-term DAG metadata collected as the terms stream out, keyed by
  // file term id: (id, has_dedup flags, row deltas).
  std::string dag_terms_blob;
  uint32_t dag_term_count = 0;

  WriteAccounting acc;
  for (uint32_t ft = 0; ft < term_count; ++ft) {
    const uint32_t t = order[ft];
    const JDeweyList& list = index.lists()[t];
    varint::PutU32(&directory, list.num_rows());
    varint::PutU32(&directory, list.max_length);

    std::string lengths_blob;
    if (options.dict_rows) {
      std::vector<uint32_t> rows(list.lengths.begin(), list.lengths.end());
      EncodeDictRows(rows, &lengths_blob);
    } else {
      for (uint16_t len : list.lengths) varint::PutU32(&lengths_blob, len);
    }
    acc.lengths += lengths_blob.size();
    PutExtent(&directory, writer.Append(lengths_blob));

    if (options.include_scores) {
      std::string scores_blob;
      if (options.dict_rows) {
        // Scores travel as their float bit patterns: bit-exact, and the
        // few distinct tf·idf values repetitive corpora produce pack
        // into a handful of dictionary codes.
        std::vector<uint32_t> bits(list.scores.size());
        for (size_t r = 0; r < list.scores.size(); ++r) {
          std::memcpy(&bits[r], &list.scores[r], sizeof(uint32_t));
        }
        EncodeDictRows(bits, &scores_blob);
      } else {
        for (float score : list.scores) ser::PutFloat(&scores_blob, score);
      }
      acc.scores += scores_blob.size();
      PutExtent(&directory, writer.Append(scores_blob));
    } else {
      PutExtent(&directory, BlobExtent{});
    }

    const DagListData* dag =
        (write_dag && list.dag != nullptr) ? list.dag.get() : nullptr;
    bool any_dedup = false;
    for (uint32_t l = 0; l < list.max_length; ++l) {
      const bool dedup_level =
          dag != nullptr && l < dag->has_dedup.size() && dag->has_dedup[l];
      any_dedup |= dedup_level;
      std::string column_blob;
      // Deduplicated levels must be self-contained on disk (their row ids
      // are not derivable from the lengths stream), hence kDict.
      EncodeColumn(dedup_level ? dag->dedup[l] : list.columns[l],
                   dedup_level ? ColumnCodec::kDict : ColumnCodec::kAuto,
                   &column_blob);
      acc.columns += column_blob.size();
      PutExtent(&directory, writer.Append(column_blob));
    }
    if (!writer.status().ok()) return writer.status();

    if (dag != nullptr && (any_dedup || !dag->row_deltas.empty())) {
      ++dag_term_count;
      varint::PutU32(&dag_terms_blob, ft);
      varint::PutU32(&dag_terms_blob, list.max_length);
      for (uint32_t l = 0; l < list.max_length; ++l) {
        dag_terms_blob.push_back(
            (l < dag->has_dedup.size() && dag->has_dedup[l]) ? 1 : 0);
      }
      std::vector<uint32_t> classes;
      classes.reserve(dag->row_deltas.size());
      for (const auto& [cls, deltas] : dag->row_deltas) classes.push_back(cls);
      std::sort(classes.begin(), classes.end());  // deterministic bytes
      varint::PutU32(&dag_terms_blob, static_cast<uint32_t>(classes.size()));
      for (uint32_t cls : classes) {
        const std::vector<int64_t>& deltas = dag->row_deltas.at(cls);
        varint::PutU32(&dag_terms_blob, cls);
        varint::PutU32(&dag_terms_blob, static_cast<uint32_t>(deltas.size()));
        // Delta-encoded across instances (like the catalog's value
        // deltas): each copy contributes the same number of rows, so the
        // stride is near-constant and second-order deltas stay tiny.
        int64_t prev = 0;
        for (int64_t d : deltas) {
          varint::PutS64(&dag_terms_blob, d - prev);
          prev = d;
        }
      }
    }
  }

  // Node mapping, delta-encoded per level.
  const auto& level_nodes = IndexIoAccess::LevelNodes(index);
  std::string nodes_blob;
  varint::PutU32(&nodes_blob, static_cast<uint32_t>(level_nodes.size()));
  for (const auto& level : level_nodes) {
    varint::PutU32(&nodes_blob, static_cast<uint32_t>(level.size()));
    uint32_t prev_value = 0;
    int64_t prev_node = 0;
    for (const auto& [value, node] : level) {
      varint::PutU32(&nodes_blob, value - prev_value);
      varint::PutS64(&nodes_blob, static_cast<int64_t>(node) - prev_node);
      prev_value = value;
      prev_node = static_cast<int64_t>(node);
    }
  }
  BlobExtent nodes_extent = writer.Append(nodes_blob);
  PutExtent(&directory, nodes_extent);

  // Sidecar: flags, term dictionary, DAG catalog + per-term expansion
  // metadata. Written through BlobWriter so the per-page CRCs cover it
  // like any data blob.
  std::string sidecar;
  uint8_t flags = kSidecarDictTerms;
  if (write_dag) flags |= kSidecarDag;
  if (options.dict_rows) flags |= kSidecarDictRows;
  sidecar.push_back(static_cast<char>(flags));
  std::vector<std::string> sorted_terms;
  sorted_terms.reserve(term_count);
  for (uint32_t t : order) sorted_terms.push_back(index.terms()[t]);
  auto dict = FrontCodedDict::Build(sorted_terms);
  if (!dict.ok()) return dict.status();
  dict->Serialize(&sidecar);
  if (write_dag) {
    catalog->Serialize(&sidecar);
    varint::PutU32(&sidecar, dag_term_count);
    sidecar.append(dag_terms_blob);
  }
  BlobExtent sidecar_extent = writer.Append(sidecar);
  acc.tree = nodes_blob.size();
  acc.directory = directory.size();
  acc.sidecar = sidecar.size();
  acc.Publish();

  BlobExtent dir_extent = writer.Append(directory);
  s = writer.Finish();
  if (!s.ok()) return s;

  // Checksum table: one fixed32 CRC per data page. Its own pages are
  // appended directly (not through BlobWriter — they must not alter the
  // table they carry) and are covered by table_crc instead.
  const std::vector<uint32_t>& crcs = writer.page_crcs();
  std::string table;
  table.reserve(crcs.size() * 4);
  for (uint32_t crc : crcs) ser::PutFixed32(&table, crc);
  BlobExtent table_extent;
  table_extent.start_page = file.page_count();
  table_extent.start_offset = 0;
  table_extent.length = table.size();
  for (size_t off = 0; off < table.size(); off += PageFile::kPageSize) {
    auto page = file.AppendPage(
        table.substr(off, std::min(PageFile::kPageSize, table.size() - off)));
    if (!page.ok()) return page.status();
  }
  if (table.empty()) table_extent.start_page = 0;

  std::string footer(kMagic, sizeof(kMagic));
  varint::PutU32(&footer, kFormatVersion);
  PutExtent(&footer, dir_extent);
  PutExtent(&footer, table_extent);
  PutExtent(&footer, sidecar_extent);
  varint::PutU32(&footer, static_cast<uint32_t>(crcs.size()));
  ser::PutFixed32(&footer, crc32c::Compute(table));
  ser::PutFixed32(&footer, crc32c::Compute(footer));
  auto footer_page = file.AppendPage(footer);
  if (!footer_page.ok()) return footer_page.status();
  s = file.Sync();
  if (!s.ok()) return s;
  s = file.Close();
  if (!s.ok()) return s;

  // The manifest is the image's companion: Write is its one writer, so a
  // sealed segment's covered-node count lands in the same file the
  // planner statistics do.
  SegmentManifest manifest = ManifestFromSegment(index);
  manifest.covered_nodes = covered_nodes;
  return manifest.Save(path + ".manifest");
}

StatusOr<std::shared_ptr<DiskIndexEnv>> DiskIndexEnv::Open(
    const std::string& path, DiskIndexOptions options) {
  XTOPK_COUNTER("index.envs_opened").Add(1);
  std::shared_ptr<DiskIndexEnv> env(new DiskIndexEnv());
  env->file_ = MakeFaultAwarePageFile();
  Status s = env->file_->Open(path, /*create=*/false);
  if (!s.ok()) return s;
  if (env->file_->page_count() == 0) {
    return Status::Corruption("disk index: empty file");
  }
  env->pool_ = std::make_unique<BufferPool>(env->file_.get(),
                                            options.pool_pages,
                                            options.pool_shards);
  env->decoded_ =
      std::make_unique<DecodedBlockCache>(options.decoded_cache_bytes);
  // Counter baseline before any directory I/O, so io_stats() scopes to
  // this environment's activity from a fresh zero (the pre-registry
  // instance counters started here too).
  env->stats_baseline_ = RegistryIoCounters();
  env->skip_enabled_ = options.enable_skip;
  env->io_retries_ = options.io_retries;
  env->retry_backoff_us_ = options.retry_backoff_us;
  if (const char* skip_env = std::getenv("XTOPK_DISABLE_SKIP");
      skip_env != nullptr && skip_env[0] != '\0' &&
      std::string_view(skip_env) != "0") {
    env->skip_enabled_ = false;
  }

  // Footer: read + parse inside the retry loop, since a footer CRC
  // mismatch means the *read* was damaged (parse failure alone cannot
  // distinguish damaged-in-flight from damaged-on-disk).
  FooterInfo footer_info;
  for (uint32_t attempt = 0;; ++attempt) {
    std::string footer;
    s = env->file_->ReadPage(env->file_->page_count() - 1, &footer);
    if (s.ok()) s = ParseFooter(footer, &footer_info);
    if (s.ok()) break;
    if (attempt >= options.io_retries || !RetryableRead(s)) return s;
    RetryBackoff(attempt, options.retry_backoff_us);
  }

  // Checksum table: read raw (its pages are covered by table_crc, not by
  // the table itself), verify, then arm the pool's verifier so every later
  // physical page read is checked before caching.
  XTOPK_COUNTER("storage.checksum.segments_v2").Add(1);
  for (uint32_t attempt = 0;; ++attempt) {
    std::string table;
    s = env->ReadBlobUnpooled(footer_info.table_extent, &table);
    if (s.ok() && crc32c::Compute(table) != footer_info.table_crc) {
      XTOPK_COUNTER("storage.checksum.mismatches").Add(1);
      s = Status::Corruption("disk index: checksum table damaged");
    }
    if (s.ok() && table.size() != footer_info.data_page_count * 4ull) {
      s = Status::Corruption("disk index: checksum table size mismatch");
    }
    if (s.ok()) {
      env->page_crcs_.resize(footer_info.data_page_count);
      size_t pos = 0;
      for (uint32_t p = 0; p < footer_info.data_page_count; ++p) {
        s = ser::GetFixed32(table, &pos, &env->page_crcs_[p]);
        if (!s.ok()) break;
      }
    }
    if (s.ok()) break;
    env->page_crcs_.clear();
    if (attempt >= options.io_retries || !RetryableRead(s)) return s;
    RetryBackoff(attempt, options.retry_backoff_us);
  }
  DiskIndexEnv* raw = env.get();  // pool_ is owned by env
  env->pool_->SetVerifier([raw](PageId id, const std::string& page) {
    return raw->VerifyPage(id, page);
  });

  // Sidecar, part 1: the flags byte and term dictionary come before the
  // directory (a directory entry's position is its dictionary code); the
  // DAG section needs the directory's max_level and term count, so its
  // parse resumes below.
  std::string sidecar;
  s = env->ReadBlob(footer_info.sidecar_extent, &sidecar);
  if (!s.ok()) return s;
  if (sidecar.empty()) {
    return Status::Corruption("disk index: empty sidecar");
  }
  size_t sidecar_pos = 0;
  const uint8_t flags = static_cast<uint8_t>(sidecar[sidecar_pos++]);
  if ((flags & ~(kSidecarDictTerms | kSidecarDag | kSidecarDictRows)) != 0) {
    return Status::Corruption("disk index: unknown sidecar flags");
  }
  if ((flags & kSidecarDictTerms) == 0) {
    return Status::Corruption("disk index: sidecar lacks the term dictionary");
  }
  const bool has_dag = (flags & kSidecarDag) != 0;
  env->dict_rows_ = (flags & kSidecarDictRows) != 0;
  auto dict = FrontCodedDict::Deserialize(sidecar, &sidecar_pos);
  if (!dict.ok()) return dict.status();
  env->term_dict_ = std::move(*dict);

  std::string directory;
  s = env->ReadBlob(footer_info.dir_extent, &directory);
  if (!s.ok()) return s;

  size_t pos = 0;
  if (directory.empty()) return Status::Corruption("disk index: empty dir");
  env->has_scores_ = directory[pos++] != 0;
  uint32_t max_level = 0, term_count = 0;
  s = varint::GetU32(directory, &pos, &max_level);
  if (s.ok()) s = varint::GetU32(directory, &pos, &term_count);
  if (!s.ok()) return s;
  *IndexIoAccess::MaxLevel(&env->node_map_) = max_level;
  if (env->term_dict_.size() != term_count) {
    return Status::Corruption("disk index: term dictionary size mismatch");
  }

  env->directory_.resize(term_count);
  for (uint32_t t = 0; t < term_count; ++t) {
    TermInfo& info = env->directory_[t];  // code == term id == t
    info.term_id = t;
    s = varint::GetU32(directory, &pos, &info.rows);
    if (s.ok()) s = varint::GetU32(directory, &pos, &info.max_length);
    if (s.ok()) s = GetExtent(directory, &pos, &info.lengths);
    if (s.ok()) s = GetExtent(directory, &pos, &info.scores);
    if (!s.ok()) return s;
    info.columns.resize(info.max_length);
    for (uint32_t l = 0; l < info.max_length; ++l) {
      s = GetExtent(directory, &pos, &info.columns[l]);
      if (!s.ok()) return s;
    }
  }

  // Sidecar, part 2: DAG catalog + per-term expansion metadata,
  // validated against the directory before anything trusts it.
  if (has_dag) {
    auto catalog = DagCatalog::Deserialize(sidecar, &sidecar_pos, max_level);
    if (!catalog.ok()) return catalog.status();
    env->dag_catalog_ = std::move(*catalog);
    env->dag_meta_.resize(term_count);
    uint32_t dag_terms = 0;
    s = varint::GetU32(sidecar, &sidecar_pos, &dag_terms);
    if (!s.ok()) return s;
    if (dag_terms > term_count) {
      return Status::Corruption("disk index: sidecar dag term count");
    }
    for (uint32_t i = 0; i < dag_terms; ++i) {
      uint32_t term_id = 0, levels = 0;
      s = varint::GetU32(sidecar, &sidecar_pos, &term_id);
      if (s.ok()) s = varint::GetU32(sidecar, &sidecar_pos, &levels);
      if (!s.ok()) return s;
      if (term_id >= term_count || env->dag_meta_[term_id] != nullptr) {
        return Status::Corruption("disk index: sidecar dag term id");
      }
      if (levels != env->directory_[term_id].max_length) {
        return Status::Corruption("disk index: sidecar dag level count");
      }
      auto meta = std::make_unique<DagTermMeta>();
      meta->has_dedup.resize(levels, 0);
      for (uint32_t l = 0; l < levels; ++l) {
        if (sidecar_pos >= sidecar.size()) {
          return Status::Corruption("disk index: sidecar truncated");
        }
        char flag = sidecar[sidecar_pos++];
        if (flag != 0 && flag != 1) {
          return Status::Corruption("disk index: sidecar dedup flag");
        }
        meta->has_dedup[l] = flag;
      }
      uint32_t n_classes = 0;
      s = varint::GetU32(sidecar, &sidecar_pos, &n_classes);
      if (!s.ok()) return s;
      if (n_classes > env->dag_catalog_->classes.size()) {
        return Status::Corruption("disk index: sidecar class count");
      }
      for (uint32_t c = 0; c < n_classes; ++c) {
        uint32_t cls = 0, n_inst = 0;
        s = varint::GetU32(sidecar, &sidecar_pos, &cls);
        if (s.ok()) s = varint::GetU32(sidecar, &sidecar_pos, &n_inst);
        if (!s.ok()) return s;
        if (cls >= env->dag_catalog_->classes.size() ||
            n_inst != env->dag_catalog_->classes[cls].instances.size() ||
            meta->row_deltas.count(cls) != 0) {
          return Status::Corruption("disk index: sidecar row-delta header");
        }
        std::vector<int64_t> deltas(n_inst);
        int64_t prev = 0;
        for (uint32_t d = 0; d < n_inst; ++d) {
          int64_t step = 0;
          s = varint::GetS64(sidecar, &sidecar_pos, &step);
          if (!s.ok()) return s;
          // Untrusted second-order delta: guard the accumulation (signed
          // overflow is UB) and keep row deltas in a plausible range.
          if (__builtin_add_overflow(prev, step, &deltas[d]) ||
              deltas[d] > int64_t(UINT32_MAX) ||
              deltas[d] < -int64_t(UINT32_MAX)) {
            return Status::Corruption("disk index: sidecar row delta range");
          }
          prev = deltas[d];
        }
        meta->row_deltas.emplace(cls, std::move(deltas));
      }
      env->dag_meta_[term_id] = std::move(meta);
    }
  }
  if (sidecar_pos != sidecar.size()) {
    return Status::Corruption("disk index: sidecar trailing bytes");
  }

  // Node mapping (startup I/O, counted once; shared by all sessions).
  BlobExtent nodes_extent;
  s = GetExtent(directory, &pos, &nodes_extent);
  if (!s.ok()) return s;
  std::string nodes_blob;
  s = env->ReadBlob(nodes_extent, &nodes_blob);
  if (!s.ok()) return s;
  pos = 0;
  uint32_t level_count = 0;
  s = varint::GetU32(nodes_blob, &pos, &level_count);
  if (!s.ok()) return s;
  auto* level_nodes = IndexIoAccess::LevelNodes(&env->node_map_);
  level_nodes->resize(level_count);
  for (uint32_t l = 0; l < level_count; ++l) {
    uint32_t entries = 0;
    s = varint::GetU32(nodes_blob, &pos, &entries);
    if (!s.ok()) return s;
    uint32_t prev_value = 0;
    int64_t prev_node = 0;
    auto& level = (*level_nodes)[l];
    level.reserve(entries);
    for (uint32_t e = 0; e < entries; ++e) {
      uint32_t dv = 0;
      int64_t dn = 0;
      s = varint::GetU32(nodes_blob, &pos, &dv);
      if (s.ok()) s = varint::GetS64(nodes_blob, &pos, &dn);
      if (!s.ok()) return s;
      prev_value += dv;
      prev_node += dn;
      level.emplace_back(prev_value, static_cast<NodeId>(prev_node));
    }
  }

  // The manifest: lenient on purpose. A missing or damaged one costs plan
  // quality here, never the Open — queries then run on Frequency-based
  // estimates. SealedSegment, which needs it, checks manifest() itself.
  env->manifest_ = SegmentManifest::Load(path + ".manifest");
  return env;
}

const DiskIndexEnv::TermInfo* DiskIndexEnv::FindTerm(
    const std::string& term) const {
  uint32_t code = term_dict_.Lookup(term);
  return code == FrontCodedDict::kNotFound ? nullptr : &directory_[code];
}

std::unique_ptr<DiskJDeweyIndex> DiskIndexEnv::NewSession() {
  XTOPK_COUNTER("index.sessions_opened").Add(1);
  return std::unique_ptr<DiskJDeweyIndex>(
      new DiskJDeweyIndex(shared_from_this()));
}

Status DiskIndexEnv::ReadBlob(const BlobExtent& extent, std::string* out) {
  Status s;
  for (uint32_t attempt = 0;; ++attempt) {
    s = ReadBlobOnce(extent, out);
    if (s.ok()) return s;
    if (attempt >= io_retries_ || !RetryableRead(s)) return s;
    // Failed pages were never admitted to the pool, so the retry reads
    // the disk again rather than replaying the damaged copy.
    RetryBackoff(attempt, retry_backoff_us_);
  }
}

Status DiskIndexEnv::ReadBlobOnce(const BlobExtent& extent, std::string* out) {
  out->clear();
  out->reserve(extent.length);
  PageId page = extent.start_page;
  size_t offset = extent.start_offset;
  uint64_t remaining = extent.length;
  while (remaining > 0) {
    auto data = pool_->GetPage(page);
    if (!data.ok()) return data.status();
    size_t take = std::min<uint64_t>(remaining,
                                     PageFile::kPageSize - offset);
    out->append(**data, offset, take);
    remaining -= take;
    offset = 0;
    ++page;
  }
  return Status::Ok();
}

Status DiskIndexEnv::ReadBlobUnpooled(const BlobExtent& extent,
                                      std::string* out) {
  out->clear();
  out->reserve(extent.length);
  PageId page = extent.start_page;
  size_t offset = extent.start_offset;
  uint64_t remaining = extent.length;
  std::string buf;
  while (remaining > 0) {
    Status s = file_->ReadPage(page, &buf);
    if (!s.ok()) return s;
    size_t take = std::min<uint64_t>(remaining,
                                     PageFile::kPageSize - offset);
    out->append(buf, offset, take);
    remaining -= take;
    offset = 0;
    ++page;
  }
  return Status::Ok();
}

Status DiskIndexEnv::VerifyPage(PageId id, const std::string& page) const {
  // Pages past the data range (checksum table, footer) have no table
  // entry; they never flow through the pool after Open anyway.
  if (id >= page_crcs_.size()) return Status::Ok();
  XTOPK_COUNTER("storage.checksum.page_verifications").Add(1);
  if (crc32c::Compute(page) != page_crcs_[id]) {
    XTOPK_COUNTER("storage.checksum.mismatches").Add(1);
    return Status::Corruption("disk index: page checksum mismatch");
  }
  return Status::Ok();
}

uint32_t DiskIndexEnv::Frequency(const std::string& term) const {
  XTOPK_COUNTER("index.term_lookups").Add(1);
  const TermInfo* info = FindTerm(term);
  if (info == nullptr) {
    XTOPK_COUNTER("index.term_lookup_misses").Add(1);
    return 0;
  }
  return info->rows;
}

uint32_t DiskIndexEnv::MaxLength(const std::string& term) const {
  const TermInfo* info = FindTerm(term);
  return info == nullptr ? 0 : info->max_length;
}

const TermStats* DiskIndexEnv::Stats(const std::string& term) const {
  if (!manifest_.ok()) return nullptr;
  const std::vector<SegmentTermStats>& terms = manifest_->terms;
  auto it = std::lower_bound(
      terms.begin(), terms.end(), term,
      [](const SegmentTermStats& a, const std::string& t) {
        return a.term < t;
      });
  if (it == terms.end() || it->term != term || !it->has_histograms()) {
    return nullptr;
  }
  return &*it;
}

DiskIoStats DiskIndexEnv::io_stats() const {
  DiskIoStats now = RegistryIoCounters();
  DiskIoStats stats;
  stats.pages_read = file_->pages_read();
  stats.pool_hits = CounterDelta(now.pool_hits, stats_baseline_.pool_hits);
  stats.pool_misses =
      CounterDelta(now.pool_misses, stats_baseline_.pool_misses);
  stats.decoded_hits =
      CounterDelta(now.decoded_hits, stats_baseline_.decoded_hits);
  stats.decoded_misses =
      CounterDelta(now.decoded_misses, stats_baseline_.decoded_misses);
  return stats;
}

void DiskIndexEnv::ResetIoStats() {
  file_->ResetStats();
  stats_baseline_ = RegistryIoCounters();
}

DiskJDeweyIndex::DiskJDeweyIndex(std::shared_ptr<DiskIndexEnv> env)
    : env_(std::move(env)) {
  *IndexIoAccess::MaxLevel(&view_) = env_->node_map_.max_level();
  IndexIoAccess::BorrowLevelNodes(&view_, env_->node_map_);
}

StatusOr<std::unique_ptr<DiskJDeweyIndex>> DiskJDeweyIndex::Open(
    const std::string& path, size_t pool_pages) {
  DiskIndexOptions options;
  options.pool_pages = pool_pages;
  auto env = DiskIndexEnv::Open(path, options);
  if (!env.ok()) return env.status();
  return (*env)->NewSession();
}

uint32_t DiskJDeweyIndex::Frequency(const std::string& term) const {
  return env_->Frequency(term);
}

uint32_t DiskJDeweyIndex::MaxLength(const std::string& term) const {
  return env_->MaxLength(term);
}

Status DiskJDeweyIndex::MaterializeBase(const std::string& term,
                                        const DiskIndexEnv::TermInfo& info,
                                        TermState* state, bool need_scores) {
  auto* lists = IndexIoAccess::Lists(&view_);
  auto* terms = IndexIoAccess::Terms(&view_);
  auto* term_ids = IndexIoAccess::TermIds(&view_);
  state->view_id = static_cast<uint32_t>(lists->size());
  lists->emplace_back();
  terms->push_back(term);
  term_ids->emplace(term, state->view_id);

  JDeweyList& list = lists->back();
  list.max_length = info.max_length;
  list.columns.resize(info.max_length);

  DecodedBlockCache& cache = *env_->decoded_;
  if (auto cached = cache.GetLengths(info.term_id)) {
    list.lengths = *cached;  // memcpy-cheap vs re-decoding the varints
  } else {
    std::string lengths_blob;
    Status s = env_->ReadBlob(info.lengths, &lengths_blob);
    if (!s.ok()) return s;
    size_t pos = 0;
    std::vector<uint16_t> lengths(info.rows);
    if (env_->dict_rows_) {
      std::vector<uint32_t> raw;
      s = DecodeDictRows(lengths_blob, &pos, info.rows, &raw);
      if (!s.ok()) return s;
      for (uint32_t r = 0; r < info.rows; ++r) {
        if (raw[r] == 0 || raw[r] > info.max_length) {
          return Status::Corruption("disk index: bad row length");
        }
        lengths[r] = static_cast<uint16_t>(raw[r]);
      }
    } else {
      for (uint32_t r = 0; r < info.rows; ++r) {
        uint32_t len = 0;
        s = varint::GetU32(lengths_blob, &pos, &len);
        if (!s.ok()) return s;
        if (len == 0 || len > info.max_length) {
          return Status::Corruption("disk index: bad row length");
        }
        lengths[r] = static_cast<uint16_t>(len);
      }
    }
    list.lengths = lengths;
    cache.PutLengths(info.term_id, std::make_shared<const std::vector<uint16_t>>(
                                       std::move(lengths)));
  }

  // DAG term: hang the (session-local) expansion companion off the
  // list now; its dedup columns flip on as MaterializeColumns loads them.
  if (info.term_id < env_->dag_meta_.size() &&
      env_->dag_meta_[info.term_id] != nullptr) {
    const DiskIndexEnv::DagTermMeta& meta = *env_->dag_meta_[info.term_id];
    auto dag = std::make_shared<DagListData>();
    dag->catalog = env_->dag_catalog_;
    dag->row_deltas = meta.row_deltas;
    dag->dedup.resize(info.max_length);
    dag->has_dedup.assign(info.max_length, 0);
    state->dag = dag;
    list.dag = dag;
  }

  list.scores.assign(info.rows, 0.0f);
  if (need_scores) {
    Status s = MaterializeScores(info, state);
    if (!s.ok()) return s;
  }
  // Occurrence nodes are not needed by the join algorithms; leave empty.
  return Status::Ok();
}

Status DiskJDeweyIndex::MaterializeScores(const DiskIndexEnv::TermInfo& info,
                                          TermState* state) {
  if (state->scores_loaded || !env_->has_scores_ || info.scores.length == 0) {
    return Status::Ok();
  }
  JDeweyList& list = (*IndexIoAccess::Lists(&view_))[state->view_id];
  DecodedBlockCache& cache = *env_->decoded_;
  if (auto cached = cache.GetScores(info.term_id)) {
    list.scores = *cached;
    state->scores_loaded = true;
    return Status::Ok();
  }
  std::string scores_blob;
  Status s = env_->ReadBlob(info.scores, &scores_blob);
  if (!s.ok()) return s;
  size_t pos = 0;
  std::vector<float> scores(info.rows);
  if (env_->dict_rows_) {
    std::vector<uint32_t> bits;
    s = DecodeDictRows(scores_blob, &pos, info.rows, &bits);
    if (!s.ok()) return s;
    static_assert(sizeof(float) == sizeof(uint32_t));
    if (info.rows > 0) {
      std::memcpy(scores.data(), bits.data(), info.rows * sizeof(float));
    }
  } else {
    for (uint32_t r = 0; r < info.rows; ++r) {
      s = ser::GetFloat(scores_blob, &pos, &scores[r]);
      if (!s.ok()) return s;
    }
  }
  list.scores = scores;
  cache.PutScores(info.term_id,
                  std::make_shared<const std::vector<float>>(std::move(scores)));
  state->scores_loaded = true;
  return Status::Ok();
}

Status DiskJDeweyIndex::MaterializeColumns(
    const DiskIndexEnv::TermInfo& info, TermState* state, uint32_t up_to_level,
    const std::vector<ValueBounds>* level_bounds) {
  JDeweyList& list = (*IndexIoAccess::Lists(&view_))[state->view_id];
  up_to_level = std::min(up_to_level, info.max_length);
  if (state->coverage.size() < info.max_length) {
    state->coverage.resize(info.max_length);
  }
  if (!env_->skip_enabled_) level_bounds = nullptr;
  // DAG terms always load full columns: a deduplicated level expands to
  // the exact full column (never a partial one), and mixing partial
  // sibling levels with expanded ones would complicate coverage for no
  // gain — shared-subtree lists are the compressed, small ones.
  const DiskIndexEnv::DagTermMeta* dag_meta =
      (info.term_id < env_->dag_meta_.size())
          ? env_->dag_meta_[info.term_id].get()
          : nullptr;
  if (dag_meta != nullptr) level_bounds = nullptr;
  DecodedBlockCache& cache = *env_->decoded_;

  for (uint32_t level = 1; level <= up_to_level; ++level) {
    LevelCoverage& cov = state->coverage[level - 1];
    if (cov.full) continue;
    const ValueBounds* bounds =
        (level_bounds != nullptr && level - 1 < level_bounds->size())
            ? &(*level_bounds)[level - 1]
            : nullptr;
    XTOPK_COUNTER("index.columns_materialized").Add(1);

    // Deduplicated level of a DAG term: the blob holds the dedup column
    // (self-contained kDict codec). The decoded cache stores the dedup
    // form — it is the small one — and every session expands it back to
    // the bit-identical full column through the checked expander, so a
    // damaged sidecar or blob surfaces as Corruption, never as wrong
    // results. The dedup column also lands on the list's DagListData,
    // which is what lets the join layer intersect shared subtrees once.
    if (dag_meta != nullptr && dag_meta->has_dedup[level - 1] != 0) {
      Column dedup;
      if (auto cached = cache.GetColumn(info.term_id, level)) {
        dedup = *cached;
      } else {
        std::string blob;
        Status s = env_->ReadBlob(info.columns[level - 1], &blob);
        if (!s.ok()) return s;
        size_t pos = 0;
        s = DecodeColumn(blob, &pos, nullptr, &dedup);
        if (!s.ok()) return s;
        cache.PutColumn(info.term_id, level,
                        std::make_shared<const Column>(dedup));
      }
      auto expanded = ExpandDedupColumnChecked(
          dedup, *env_->dag_catalog_, state->dag->row_deltas, level);
      if (!expanded.ok()) return expanded.status();
      uint32_t present_rows = 0;
      for (uint16_t len : list.lengths) present_rows += (len >= level);
      if (expanded->row_count() != present_rows) {
        return Status::Corruption("disk index: dag expansion row mismatch");
      }
      XTOPK_COUNTER("index.dag.columns_expanded").Add(1);
      list.columns[level - 1] = std::move(*expanded);
      state->dag->dedup[level - 1] = std::move(dedup);
      state->dag->has_dedup[level - 1] = 1;
      cov = LevelCoverage{};
      cov.full = true;
      continue;
    }

    if (auto cached = cache.GetColumn(info.term_id, level)) {
      list.columns[level - 1] = *cached;  // run-vector copy, no decode
      cov = LevelCoverage{};
      cov.full = true;
      continue;
    }
    std::string blob;
    Status s = env_->ReadBlob(info.columns[level - 1], &blob);
    if (!s.ok()) return s;
    std::vector<uint32_t> present;
    for (uint32_t row = 0; row < list.lengths.size(); ++row) {
      if (list.lengths[row] >= level) present.push_back(row);
    }

    // Skip path: group-varint columns with bounds materialize only the
    // physical blocks whose value range can intersect them, assembled
    // from per-block cache fragments where possible. A block whose skip
    // directory or payload turns out damaged degrades to the full
    // decode below (which re-validates the whole blob) instead of
    // failing the load outright.
    GvbColumnReader reader;
    bool skip_degraded = false;
    if (bounds != nullptr && reader.Open(blob, 0).ok()) {
      BlockSkipIndex::Range range =
          reader.skip().ProbeRange(bounds->lo, bounds->hi);
      if (cov.partial) {
        // Widen to the union so earlier bounds stay covered; the range
        // between the two stays contiguous (a superset is always sound).
        range.lo = std::min(range.lo, static_cast<size_t>(cov.lo_block));
        range.hi = std::max(range.hi, static_cast<size_t>(cov.hi_block));
      }
      Column column;
      for (size_t b = range.lo; b < range.hi && !skip_degraded; ++b) {
        auto fragment =
            cache.GetColumnBlock(info.term_id, level, static_cast<uint32_t>(b));
        if (fragment == nullptr) {
          Column decoded;
          s = reader.DecodeBlock(b, present, &decoded);
          if (!s.ok()) {
            XTOPK_COUNTER("storage.degraded.full_decode_fallbacks").Add(1);
            skip_degraded = true;
            break;
          }
          auto shared = std::make_shared<const Column>(std::move(decoded));
          cache.PutColumnBlock(info.term_id, level, static_cast<uint32_t>(b),
                               shared);
          fragment = std::move(shared);
        }
        // AppendRunChecked re-merges a run split across a block boundary
        // and catches fragments that are individually valid but
        // non-monotonic across the boundary (a skip directory damaged in
        // flight) — those degrade to the full decode too.
        for (const Run& run : fragment->runs()) {
          if (!column.AppendRunChecked(run.first_row, run.value, run.count)) {
            XTOPK_COUNTER("storage.degraded.full_decode_fallbacks").Add(1);
            skip_degraded = true;
            break;
          }
        }
      }
      if (!skip_degraded) {
        list.columns[level - 1] = std::move(column);
        if (range.lo == 0 && range.hi == reader.block_count()) {
          cov = LevelCoverage{};
          cov.full = true;
          cache.PutColumn(info.term_id, level, std::make_shared<const Column>(
                                                   list.columns[level - 1]));
        } else {
          XTOPK_COUNTER("storage.skip.partial_loads").Add(1);
          XTOPK_COUNTER("storage.skip.blocks_skipped")
              .Add(reader.block_count() - (range.hi - range.lo));
          cov.partial = true;
          cov.lo_block = static_cast<uint32_t>(range.lo);
          cov.hi_block = static_cast<uint32_t>(range.hi);
        }
        continue;
      }
    }

    // Full decode: no bounds, or a non-group-varint (delta / RLE)
    // column. Also the upgrade path from partial to full coverage.
    size_t pos = 0;
    Column column;
    s = DecodeColumn(blob, &pos, &present, &column);
    if (!s.ok()) return s;
    list.columns[level - 1] = column;
    cov = LevelCoverage{};
    cov.full = true;
    cache.PutColumn(info.term_id, level,
                    std::make_shared<const Column>(std::move(column)));
  }
  return Status::Ok();
}

StatusOr<const JDeweyList*> DiskJDeweyIndex::LoadList(const std::string& term,
                                                      uint32_t up_to_level,
                                                      bool need_scores) {
  return LoadList(term, up_to_level, need_scores, nullptr);
}

StatusOr<const JDeweyList*> DiskJDeweyIndex::LoadList(
    const std::string& term, uint32_t up_to_level, bool need_scores,
    const std::vector<ValueBounds>* level_bounds) {
  const DiskIndexEnv::TermInfo* found = env_->FindTerm(term);
  if (found == nullptr) {
    return static_cast<const JDeweyList*>(nullptr);
  }
  const DiskIndexEnv::TermInfo& info = *found;
  TermState& state = state_[info.term_id];
  if (state.view_id == UINT32_MAX) {
    XTOPK_COUNTER("index.lists_loaded").Add(1);
    Status s = MaterializeBase(term, info, &state, need_scores);
    if (!s.ok()) {
      // Roll back the half-built view slot. Without this, view_id stays
      // set over an empty list and a later query on the same session
      // would silently reuse it (empty results) instead of re-reading.
      auto* lists = IndexIoAccess::Lists(&view_);
      if (state.view_id != UINT32_MAX &&
          state.view_id + 1 == lists->size()) {
        lists->pop_back();
        IndexIoAccess::Terms(&view_)->pop_back();
        IndexIoAccess::TermIds(&view_)->erase(term);
      }
      state_.erase(info.term_id);
      XTOPK_COUNTER("storage.degraded.load_rollbacks").Add(1);
      return s;
    }
  } else if (need_scores) {
    Status s = MaterializeScores(info, &state);
    if (!s.ok()) return s;
  }
  Status s = MaterializeColumns(info, &state, up_to_level, level_bounds);
  if (!s.ok()) return s;
  return &(*IndexIoAccess::Lists(&view_))[state.view_id];
}

StatusOr<std::vector<SearchResult>> DiskJDeweyIndex::SearchComplete(
    const std::vector<std::string>& keywords, JoinSearchOptions options) {
  return SearchComplete(keywords, options, nullptr);
}

StatusOr<std::vector<SearchResult>> DiskJDeweyIndex::SearchComplete(
    const std::vector<std::string>& keywords, JoinSearchOptions options,
    JoinSearchStats* stats) {
  // The session is the posting source: the shared resolve pipeline loads
  // the seed list fully and every other list with the seed's per-level
  // value bounds (skip-decodes when the environment allows them).
  JoinSearch search(this, options);
  auto results = search.Search(keywords);
  if (stats != nullptr) *stats = search.stats();
  if (!search.status().ok()) return search.status();
  return results;
}

StatusOr<std::vector<SearchResult>> DiskJDeweyIndex::SearchTopK(
    const std::vector<std::string>& keywords, TopKSearchOptions options) {
  // Posting-source mode: TopKSearch materializes the queried lists fully
  // (semantic pruning probes arbitrary components) and derives their
  // score-ordered segments per query.
  TopKSearch search(this, options);
  auto results = search.Search(keywords);
  if (!search.status().ok()) return search.status();
  return results;
}

}  // namespace xtopk
