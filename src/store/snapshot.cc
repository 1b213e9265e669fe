#include "store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <sstream>

#include "match/serialize.h"
#include "store/crc32.h"
#include "util/binary_io.h"
#include "wiki/serialize.h"

namespace wikimatch {
namespace store {
namespace {

std::string EncodeHeader(uint32_t section_count) {
  util::BinaryWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotVersion);
  w.PutU32(section_count);
  w.PutU32(0);  // reserved
  return w.TakeBuffer();
}

util::Status WriteAll(std::FILE* file, std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    return util::Status::IoError("short write to snapshot file");
  }
  return util::Status::OK();
}

// A temp path next to `path`, unique across processes (pid) and across
// writers within one process (counter).
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".tmp";
}

// Makes a rename inside the directory of `path` durable.
util::Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return util::Status::IoError("cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::Status::IoError("cannot fsync directory " + dir);
  return util::Status::OK();
}

// The meta section payload (kind 4).
void EncodeMeta(const SnapshotMeta& meta, util::BinaryWriter* w) {
  w->PutU64(meta.generation);
  w->PutU64(meta.history.size());
  for (const auto& rec : meta.history) {
    w->PutU64(rec.generation);
    w->PutU64(rec.articles_added);
    w->PutU64(rec.articles_updated);
    w->PutU64(rec.articles_removed);
    w->PutU64(rec.units_reused);
    w->PutU64(rec.units_recomputed);
  }
  // Options fingerprint: trailing fields appended after the original
  // payload, so old readers (which stop after the history) never see them
  // and a meta section without a fingerprint keeps its original bytes — an
  // additive extension, no version bump. A present fingerprint starts with
  // a 1 flag byte; absence writes nothing at all.
  if (meta.options.has_value()) {
    const OptionsFingerprint& fp = *meta.options;
    w->PutU8(1);
    w->PutDouble(fp.t_sim);
    w->PutDouble(fp.t_lsi);
    w->PutDouble(fp.t_inductive);
    w->PutDouble(fp.t_revise_min_sim);
    w->PutDouble(fp.min_link_support);
    w->PutU64(fp.lsi_rank);
    w->PutDouble(fp.lsi_co_occur_tolerance);
    w->PutU8(fp.use_vsim ? 1 : 0);
    w->PutU8(fp.use_lsim ? 1 : 0);
    w->PutU8(fp.use_lsi ? 1 : 0);
    w->PutU8(fp.use_integrate_constraint ? 1 : 0);
    w->PutU8(fp.use_revise_uncertain ? 1 : 0);
    w->PutU8(fp.use_inductive_grouping ? 1 : 0);
    w->PutU8(fp.random_order ? 1 : 0);
    w->PutU8(fp.single_step ? 1 : 0);
    w->PutU64(fp.random_seed);
    w->PutU8(fp.keep_all_pairs ? 1 : 0);
    w->PutU8(fp.translate_values ? 1 : 0);
    w->PutU64(fp.schema_min_occurrences);
    w->PutU64(fp.schema_max_sample_infoboxes);
    w->PutU64(fp.type_min_votes);
    w->PutDouble(fp.type_min_confidence);
    // Trailing fingerprint extension (same tolerant-read pattern as the
    // fingerprint itself): older readers stop before it.
    w->PutU8(fp.use_exact_cosine ? 1 : 0);
  }
}

}  // namespace

OptionsFingerprint OptionsFingerprint::From(
    const match::PipelineOptions& options) {
  OptionsFingerprint fp;
  const match::MatcherConfig& m = options.matcher;
  fp.t_sim = m.t_sim;
  fp.t_lsi = m.t_lsi;
  fp.t_inductive = m.t_inductive;
  fp.t_revise_min_sim = m.t_revise_min_sim;
  fp.min_link_support = m.min_link_support;
  fp.lsi_rank = m.lsi.rank;
  fp.lsi_co_occur_tolerance = m.lsi.co_occur_tolerance;
  fp.use_vsim = m.use_vsim;
  fp.use_lsim = m.use_lsim;
  fp.use_lsi = m.use_lsi;
  fp.use_integrate_constraint = m.use_integrate_constraint;
  fp.use_revise_uncertain = m.use_revise_uncertain;
  fp.use_inductive_grouping = m.use_inductive_grouping;
  fp.random_order = m.random_order;
  fp.single_step = m.single_step;
  fp.random_seed = m.random_seed;
  fp.keep_all_pairs = m.keep_all_pairs;
  fp.translate_values = options.schema.translate_values;
  fp.schema_min_occurrences = options.schema.min_occurrences;
  fp.schema_max_sample_infoboxes = options.schema.max_sample_infoboxes;
  fp.type_min_votes = options.type_min_votes;
  fp.type_min_confidence = options.type_min_confidence;
  return fp;
}

std::string OptionsFingerprint::ToString() const {
  std::ostringstream os;
  os << "t_sim=" << t_sim << " t_lsi=" << t_lsi
     << " t_inductive=" << t_inductive
     << " t_revise_min_sim=" << t_revise_min_sim
     << " min_link_support=" << min_link_support << " lsi_rank=" << lsi_rank
     << " lsi_co_occur_tolerance=" << lsi_co_occur_tolerance
     << " use_vsim=" << use_vsim << " use_lsim=" << use_lsim
     << " use_lsi=" << use_lsi
     << " use_integrate_constraint=" << use_integrate_constraint
     << " use_revise_uncertain=" << use_revise_uncertain
     << " use_inductive_grouping=" << use_inductive_grouping
     << " random_order=" << random_order << " single_step=" << single_step
     << " random_seed=" << random_seed
     << " keep_all_pairs=" << keep_all_pairs
     << " use_exact_cosine=" << use_exact_cosine
     << " translate_values=" << translate_values
     << " schema_min_occurrences=" << schema_min_occurrences
     << " schema_max_sample_infoboxes=" << schema_max_sample_infoboxes
     << " type_min_votes=" << type_min_votes
     << " type_min_confidence=" << type_min_confidence;
  return os.str();
}

util::Result<SnapshotWriter> SnapshotWriter::Open(const std::string& path) {
  std::string temp_path = TempPathFor(path);
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::IoError("cannot open " + temp_path +
                                 " for writing");
  }
  SnapshotWriter writer(file, path, std::move(temp_path));
  // Provisional header with section_count = 0; Finish() patches it. A
  // reader that sees zero sections treats the file as incomplete.
  auto status = WriteAll(file, EncodeHeader(0));
  if (!status.ok()) return status;
  return writer;
}

SnapshotWriter::SnapshotWriter(SnapshotWriter&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      section_count_(other.section_count_) {
  other.file_ = nullptr;
}

SnapshotWriter& SnapshotWriter::operator=(SnapshotWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    file_ = other.file_;
    path_ = std::move(other.path_);
    temp_path_ = std::move(other.temp_path_);
    section_count_ = other.section_count_;
    other.file_ = nullptr;
  }
  return *this;
}

SnapshotWriter::~SnapshotWriter() { Abandon(); }

void SnapshotWriter::Abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  ::unlink(temp_path_.c_str());
}

util::Status SnapshotWriter::WriteSection(
    SectionKind kind,
    const std::function<void(util::BinaryWriter*)>& encode) {
  if (file_ == nullptr) {
    return util::Status::Internal("snapshot writer already finished");
  }
  // Provisional header: the payload size and CRC are known only once the
  // payload has streamed past, and are patched in afterwards.
  const off_t header_at = ::ftello(file_);
  if (header_at < 0) return util::Status::IoError("cannot tell " + temp_path_);
  util::BinaryWriter header;
  header.PutU32(static_cast<uint32_t>(kind));
  header.PutU64(0);  // payload size
  header.PutU32(0);  // CRC
  WIKIMATCH_RETURN_NOT_OK(WriteAll(file_, header.buffer()));

  uint32_t crc = 0;
  util::BinaryWriter payload([this, &crc](std::string_view block) {
    crc = Crc32(block, crc);
    return WriteAll(file_, block);
  });
  encode(&payload);
  WIKIMATCH_RETURN_NOT_OK(payload.Flush());

  util::BinaryWriter patch;
  patch.PutU64(payload.size());
  patch.PutU32(crc);
  if (::fseeko(file_, header_at + 4, SEEK_SET) != 0) {
    return util::Status::IoError("cannot seek in " + temp_path_);
  }
  WIKIMATCH_RETURN_NOT_OK(WriteAll(file_, patch.buffer()));
  if (::fseeko(file_, 0, SEEK_END) != 0) {
    return util::Status::IoError("cannot seek in " + temp_path_);
  }
  ++section_count_;
  return util::Status::OK();
}

util::Status SnapshotWriter::WriteCorpus(const wiki::Corpus& corpus) {
  return WriteSection(SectionKind::kCorpus, [&](util::BinaryWriter* w) {
    wiki::EncodeCorpus(corpus, w);
  });
}

util::Status SnapshotWriter::WriteDictionary(
    const match::TranslationDictionary& dict) {
  return WriteSection(SectionKind::kDictionary, [&](util::BinaryWriter* w) {
    match::EncodeDictionary(dict, w);
  });
}

util::Status SnapshotWriter::WritePipeline(
    const std::string& lang_a, const std::string& lang_b,
    const match::PipelineResult& result) {
  return WriteSection(SectionKind::kPipeline, [&](util::BinaryWriter* w) {
    w->PutString(lang_a);
    w->PutString(lang_b);
    match::EncodePipelineResult(result, w);
  });
}

util::Status SnapshotWriter::WriteMeta(const SnapshotMeta& meta) {
  return WriteSection(SectionKind::kMeta, [&](util::BinaryWriter* w) {
    EncodeMeta(meta, w);
  });
}

util::Status SnapshotWriter::WriteSyncReport(const sync::SyncReport& report) {
  return WriteSection(SectionKind::kSyncReport, [&](util::BinaryWriter* w) {
    sync::EncodeSyncReport(report, w);
  });
}

util::Status SnapshotWriter::Finish() {
  if (file_ == nullptr) {
    return util::Status::Internal("snapshot writer already finished");
  }
  util::Status status = util::Status::OK();
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    status = util::Status::IoError("cannot seek to snapshot header");
  }
  if (status.ok()) status = WriteAll(file_, EncodeHeader(section_count_));
  if (status.ok() &&
      (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0)) {
    status = util::Status::IoError("cannot flush " + temp_path_);
  }
  if (!status.ok()) {
    Abandon();
    return status;
  }
  const int close_rc = std::fclose(file_);
  file_ = nullptr;
  if (close_rc != 0 || std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    ::unlink(temp_path_.c_str());
    return util::Status::IoError("cannot replace " + path_ + " with " +
                                 temp_path_);
  }
  return SyncParentDirectory(path_);
}

util::Status WriteSnapshotFile(const Snapshot& snapshot,
                               const std::string& path) {
  auto writer = SnapshotWriter::Open(path);
  if (!writer.ok()) return writer.status();
  WIKIMATCH_RETURN_NOT_OK(writer->WriteCorpus(snapshot.corpus));
  WIKIMATCH_RETURN_NOT_OK(writer->WriteDictionary(snapshot.dictionary));
  for (const auto& [pair, result] : snapshot.pipelines) {
    WIKIMATCH_RETURN_NOT_OK(
        writer->WritePipeline(pair.first, pair.second, result));
  }
  // Generation-0 snapshots with no history omit the meta section so their
  // bytes match pre-meta writers (and old readers never see kind 4 at all
  // unless a delta was actually applied).
  if (!snapshot.meta.IsDefault()) {
    WIKIMATCH_RETURN_NOT_OK(writer->WriteMeta(snapshot.meta));
  }
  // Same additive pattern for the sync report (kind 5): omitted when no
  // sync has run, so such snapshots keep their pre-sync bytes.
  if (!snapshot.sync_report.empty()) {
    WIKIMATCH_RETURN_NOT_OK(writer->WriteSyncReport(snapshot.sync_report));
  }
  return writer->Finish();
}

util::Status DecodeSnapshotSection(SectionKind kind,
                                   std::string_view payload,
                                   Snapshot* snapshot) {
  util::BinaryReader pr(payload);
  switch (kind) {
    case SectionKind::kCorpus: {
      auto corpus = wiki::DecodeCorpus(&pr);
      if (!corpus.ok()) {
        return corpus.status().WithContext("snapshot corpus section");
      }
      snapshot->corpus = std::move(corpus).ValueOrDie();
      break;
    }
    case SectionKind::kDictionary: {
      auto dict = match::DecodeDictionary(&pr);
      if (!dict.ok()) {
        return dict.status().WithContext("snapshot dictionary section");
      }
      snapshot->dictionary = std::move(dict).ValueOrDie();
      break;
    }
    case SectionKind::kPipeline: {
      auto lang_a = pr.ReadString();
      if (!lang_a.ok()) return lang_a.status();
      auto lang_b = pr.ReadString();
      if (!lang_b.ok()) return lang_b.status();
      auto result = match::DecodePipelineResult(&pr);
      if (!result.ok()) {
        return result.status().WithContext("snapshot pipeline section " +
                                           *lang_a + ":" + *lang_b);
      }
      snapshot->pipelines.emplace(
          LanguagePair(std::move(lang_a).ValueOrDie(),
                       std::move(lang_b).ValueOrDie()),
          std::move(result).ValueOrDie());
      break;
    }
    case SectionKind::kMeta: {
      SnapshotMeta meta;
      auto gen = pr.ReadU64();
      if (!gen.ok()) {
        return gen.status().WithContext("snapshot meta section");
      }
      meta.generation = gen.ValueOrDie();
      auto count = pr.ReadU64();
      if (!count.ok()) {
        return count.status().WithContext("snapshot meta section");
      }
      for (uint64_t i = 0; i < count.ValueOrDie(); ++i) {
        DeltaRecord rec;
        uint64_t* fields[] = {&rec.generation,     &rec.articles_added,
                              &rec.articles_updated, &rec.articles_removed,
                              &rec.units_reused,   &rec.units_recomputed};
        for (uint64_t* field : fields) {
          auto v = pr.ReadU64();
          if (!v.ok()) {
            return v.status().WithContext("snapshot meta section");
          }
          *field = v.ValueOrDie();
        }
        meta.history.push_back(rec);
      }
      // Options fingerprint: optional trailing fields. Files from
      // writers that predate it simply end here (flag read fails on
      // exhausted payload → absent); a zero flag byte also means absent.
      if (auto flag = pr.ReadU8(); flag.ok() && flag.ValueOrDie() == 1) {
        OptionsFingerprint fp;
        auto rd = [&pr](double* out) {
          auto v = pr.ReadDouble();
          if (!v.ok()) return v.status();
          *out = v.ValueOrDie();
          return util::Status::OK();
        };
        auto ru = [&pr](uint64_t* out) {
          auto v = pr.ReadU64();
          if (!v.ok()) return v.status();
          *out = v.ValueOrDie();
          return util::Status::OK();
        };
        auto rb = [&pr](bool* out) {
          auto v = pr.ReadU8();
          if (!v.ok()) return v.status();
          *out = v.ValueOrDie() != 0;
          return util::Status::OK();
        };
        util::Status st = util::Status::OK();
        if (st.ok()) st = rd(&fp.t_sim);
        if (st.ok()) st = rd(&fp.t_lsi);
        if (st.ok()) st = rd(&fp.t_inductive);
        if (st.ok()) st = rd(&fp.t_revise_min_sim);
        if (st.ok()) st = rd(&fp.min_link_support);
        if (st.ok()) st = ru(&fp.lsi_rank);
        if (st.ok()) st = rd(&fp.lsi_co_occur_tolerance);
        if (st.ok()) st = rb(&fp.use_vsim);
        if (st.ok()) st = rb(&fp.use_lsim);
        if (st.ok()) st = rb(&fp.use_lsi);
        if (st.ok()) st = rb(&fp.use_integrate_constraint);
        if (st.ok()) st = rb(&fp.use_revise_uncertain);
        if (st.ok()) st = rb(&fp.use_inductive_grouping);
        if (st.ok()) st = rb(&fp.random_order);
        if (st.ok()) st = rb(&fp.single_step);
        if (st.ok()) st = ru(&fp.random_seed);
        if (st.ok()) st = rb(&fp.keep_all_pairs);
        if (st.ok()) st = rb(&fp.translate_values);
        if (st.ok()) st = ru(&fp.schema_min_occurrences);
        if (st.ok()) st = ru(&fp.schema_max_sample_infoboxes);
        if (st.ok()) st = ru(&fp.type_min_votes);
        if (st.ok()) st = rd(&fp.type_min_confidence);
        if (!st.ok()) {
          return st.WithContext("snapshot meta options fingerprint");
        }
        // use_exact_cosine rode in after the original fingerprint: files
        // written before it end exactly here and read back as true.
        if (auto v = pr.ReadU8(); v.ok()) {
          fp.use_exact_cosine = v.ValueOrDie() != 0;
        }
        meta.options = fp;
      }
      // Any further trailing bytes (fields appended by a newer writer)
      // are ignored.
      snapshot->meta = std::move(meta);
      break;
    }
    case SectionKind::kSyncReport: {
      auto report = sync::DecodeSyncReport(payload);
      if (!report.ok()) {
        return report.status().WithContext("snapshot sync report section");
      }
      snapshot->sync_report = std::move(report).ValueOrDie();
      break;
    }
    default:
      // Unknown kind within a supported version (including the reserved
      // kinds 6 and 7): skip.
      break;
  }
  return util::Status::OK();
}

}  // namespace store
}  // namespace wikimatch
