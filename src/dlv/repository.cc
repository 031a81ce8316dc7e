#include "dlv/repository.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/checked_io.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dlv/layout.h"
#include "dlv/recovery.h"

namespace modelhub {

namespace {

std::string SnapshotKey(const std::string& version, int64_t sequence) {
  return version + "/s" + std::to_string(sequence);
}

}  // namespace

std::string SerializeParams(const std::vector<NamedParam>& params) {
  std::string out;
  PutVarint64(&out, params.size());
  for (const auto& param : params) {
    PutLengthPrefixed(&out, Slice(param.name));
    PutVarint64(&out, static_cast<uint64_t>(param.value.rows()));
    PutVarint64(&out, static_cast<uint64_t>(param.value.cols()));
    PutLengthPrefixed(&out, Slice(param.value.ToBytes()));
  }
  return out;
}

Result<std::vector<NamedParam>> ParseParams(Slice bytes) {
  uint64_t count = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&bytes, &count));
  std::vector<NamedParam> out;
  for (uint64_t i = 0; i < count; ++i) {
    Slice name;
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&bytes, &name));
    uint64_t rows = 0;
    uint64_t cols = 0;
    MH_RETURN_IF_ERROR(GetVarint64(&bytes, &rows));
    MH_RETURN_IF_ERROR(GetVarint64(&bytes, &cols));
    Slice data;
    MH_RETURN_IF_ERROR(GetLengthPrefixed(&bytes, &data));
    MH_ASSIGN_OR_RETURN(FloatMatrix value,
                        FloatMatrix::FromBytes(static_cast<int64_t>(rows),
                                               static_cast<int64_t>(cols),
                                               data));
    out.push_back({name.ToString(), std::move(value)});
  }
  return out;
}

Status Repository::InitSchema() {
  MH_RETURN_IF_ERROR(catalog_->CreateTable(
      {"versions",
       {{"id", ColumnType::kInt},
        {"name", ColumnType::kText},
        {"created_at", ColumnType::kInt},
        {"network", ColumnType::kText},
        {"parent", ColumnType::kText},
        {"message", ColumnType::kText}}}));
  MH_RETURN_IF_ERROR(catalog_->CreateTable(
      {"snapshots",
       {{"version_id", ColumnType::kInt},
        {"sequence", ColumnType::kInt},
        {"iteration", ColumnType::kInt},
        {"location", ColumnType::kText}}}));
  MH_RETURN_IF_ERROR(catalog_->CreateTable(
      {"logs",
       {{"version_id", ColumnType::kInt},
        {"iteration", ColumnType::kInt},
        {"loss", ColumnType::kReal},
        {"accuracy", ColumnType::kReal},
        {"learning_rate", ColumnType::kReal}}}));
  MH_RETURN_IF_ERROR(catalog_->CreateTable(
      {"hyperparams",
       {{"version_id", ColumnType::kInt},
        {"key", ColumnType::kText},
        {"value", ColumnType::kText}}}));
  MH_RETURN_IF_ERROR(catalog_->CreateTable(
      {"files",
       {{"version_id", ColumnType::kInt},
        {"name", ColumnType::kText},
        {"object", ColumnType::kText}}}));
  return catalog_->CreateTable({"lineage",
                                {{"base", ColumnType::kText},
                                 {"derived", ColumnType::kText},
                                 {"message", ColumnType::kText}}});
}

Result<Repository> Repository::Init(Env* env, const std::string& root) {
  if (env->FileExists(repo_layout::CatalogPath(root))) {
    return Status::AlreadyExists("repository already exists at " + root);
  }
  MH_RETURN_IF_ERROR(env->CreateDirs(root));
  MH_RETURN_IF_ERROR(env->CreateDirs(repo_layout::StagingDir(root)));
  MH_RETURN_IF_ERROR(env->CreateDirs(repo_layout::ObjectsDir(root)));
  Repository repo;
  repo.env_ = env;
  repo.root_ = root;
  MH_ASSIGN_OR_RETURN(Catalog catalog,
                      Catalog::Open(env, repo_layout::CatalogPath(root)));
  repo.catalog_ = std::make_shared<Catalog>(std::move(catalog));
  repo.archive_ = std::make_shared<ArchiveHandle>();
  MH_RETURN_IF_ERROR(repo.InitSchema());
  MH_RETURN_IF_ERROR(repo.Flush());
  return repo;
}

Result<Repository> Repository::Open(Env* env, const std::string& root) {
  if (!env->FileExists(repo_layout::CatalogPath(root))) {
    return Status::NotFound("no repository at " + root);
  }
  // Resolve any interrupted commit publish (roll forward past the commit
  // point, roll back otherwise) before trusting the on-disk state.
  MH_RETURN_IF_ERROR(RecoverRepository(env, root).status());
  Repository repo;
  repo.env_ = env;
  repo.root_ = root;
  MH_ASSIGN_OR_RETURN(Catalog catalog,
                      Catalog::Open(env, repo_layout::CatalogPath(root)));
  repo.catalog_ = std::make_shared<Catalog>(std::move(catalog));
  repo.archive_ = std::make_shared<ArchiveHandle>();
  MH_RETURN_IF_ERROR(repo.InitSchema());
  return repo;
}

Result<int64_t> Repository::VersionId(const std::string& name) const {
  MH_ASSIGN_OR_RETURN(auto rows,
                      catalog_->Scan("versions", [&](const Row& row) {
                        return row[1].AsText() == name;
                      }));
  if (rows.empty()) return Status::NotFound("no model version: " + name);
  return rows[0][0].AsInt();
}

std::string Repository::StagingPath(const std::string& version,
                                    int64_t sequence) const {
  return repo_layout::StagingFile(root_, version, sequence);
}

Result<int64_t> Repository::Commit(const CommitRequest& request) {
  TraceSpan span("dlv.commit");
  span.Annotate("version", request.name);
  Stopwatch watch;
  if (request.name.empty()) {
    return Status::InvalidArgument("model version needs a name");
  }
  if (VersionId(request.name).ok()) {
    return Status::AlreadyExists("model version exists: " + request.name);
  }
  MH_RETURN_IF_ERROR(request.network.Validate());
  if (!request.parent.empty()) {
    MH_RETURN_IF_ERROR(VersionId(request.parent).status());
  }
  // Stage every catalog mutation on a copy: a failed or interrupted commit
  // must leave both the in-memory catalog and the on-disk state untouched.
  Catalog staged = *catalog_;
  const int64_t id = staged.NextSequence();
  const int64_t created_at = staged.NextSequence();
  MH_RETURN_IF_ERROR(staged
                         .Insert("versions",
                                 {id, request.name, created_at,
                                  request.network.Serialize(), request.parent,
                                  request.message})
                         .status());
  if (!request.parent.empty()) {
    MH_RETURN_IF_ERROR(
        staged
            .Insert("lineage", {request.parent, request.name, request.message})
            .status());
  }
  // Payloads to publish, keyed by root-relative final path. The journal
  // identifies each artifact by the CRC of its logical payload — the bytes
  // under the CRC footer for framed files — because the whole-file CRC of
  // a framed file is the fixed CRC-32 residue (see recovery.h).
  struct PendingFile {
    std::string rel_path;
    std::string bytes;         ///< Exact file bytes written to disk.
    uint32_t payload_crc = 0;  ///< CRC-32 of the logical payload.
    bool framed = false;
  };
  std::vector<PendingFile> pending;
  for (size_t s = 0; s < request.snapshots.size(); ++s) {
    const auto& snapshot = request.snapshots[s];
    MH_RETURN_IF_ERROR(staged
                           .Insert("snapshots",
                                   {id, static_cast<int64_t>(s),
                                    snapshot.iteration, "staging"})
                           .status());
    std::string framed = WithCrcFooter(SerializeParams(snapshot.params));
    // The footer just written is the payload's CRC: reuse it as the
    // journal identity instead of checksumming the payload again.
    Slice footer(framed.data() + framed.size() - 4, 4);
    uint32_t payload_crc = 0;
    MH_RETURN_IF_ERROR(GetFixed32(&footer, &payload_crc));
    pending.push_back({JoinPath("staging",
                                repo_layout::StagingFileName(
                                    request.name, static_cast<int64_t>(s))),
                       std::move(framed), payload_crc, /*framed=*/true});
  }
  for (const auto& entry : request.log) {
    MH_RETURN_IF_ERROR(staged
                           .Insert("logs", {id, entry.iteration, entry.loss,
                                            entry.train_accuracy,
                                            entry.learning_rate})
                           .status());
  }
  for (const auto& [key, value] : request.hyperparams) {
    MH_RETURN_IF_ERROR(staged.Insert("hyperparams", {id, key, value}).status());
  }
  for (const auto& [file_name, contents] : request.files) {
    const uint32_t content_crc = Crc32(Slice(contents));
    char object[32];
    std::snprintf(object, sizeof(object), "%08x-%zu", content_crc,
                  contents.size());
    // Objects are content-addressed: an existing file with this name already
    // has these bytes, and may be shared with earlier versions — never
    // republish it (a rollback would otherwise quarantine shared data).
    if (!env_->FileExists(repo_layout::ObjectFile(root_, object))) {
      pending.push_back({JoinPath("objects", object), contents, content_crc,
                         /*framed=*/false});
    }
    MH_RETURN_IF_ERROR(
        staged.Insert("files", {id, file_name, std::string(object)}).status());
  }
  // Publish protocol: journal the intent, write tmps, rename into place,
  // then atomically replace the catalog — the commit point. A crash at any
  // step is resolved by RecoverRepository to fully-old or fully-new state.
  const std::string catalog_image = staged.SerializeForDisk();
  CommitJournal journal;
  journal.new_catalog_crc = Crc32(Slice(*StripCrcFooter(catalog_image)));
  for (const auto& p : pending) {
    journal.entries.push_back(
        {p.rel_path + ".tmp", p.rel_path, p.payload_crc, p.framed});
  }
  const Status publish = [&]() -> Status {
    MH_RETURN_IF_ERROR(WriteChecked(env_,
                                    repo_layout::CommitJournalPath(root_),
                                    SerializeCommitJournal(journal)));
    for (const auto& p : pending) {
      MH_RETURN_IF_ERROR(
          env_->WriteFile(JoinPath(root_, p.rel_path) + ".tmp", p.bytes));
    }
    for (const auto& p : pending) {
      MH_RETURN_IF_ERROR(env_->RenameFile(JoinPath(root_, p.rel_path) + ".tmp",
                                          JoinPath(root_, p.rel_path)));
    }
    return env_->WriteFile(repo_layout::CatalogPath(root_), catalog_image);
  }();
  if (!publish.ok()) {
    // Best-effort immediate rollback; a crash before this runs is handled
    // identically by the next Open.
    (void)RecoverRepository(env_, root_);
    MH_COUNTER("dlv.commit.errors")->Increment();
    return publish;
  }
  // Past the commit point: a leftover journal merely rolls forward (to a
  // no-op) at the next Open, so a failed delete is not an error.
  (void)env_->DeleteFile(repo_layout::CommitJournalPath(root_));
  *catalog_ = std::move(staged);
  uint64_t published_bytes = 0;
  for (const auto& p : pending) published_bytes += p.bytes.size();
  MH_COUNTER("dlv.commit.count")->Increment();
  MH_COUNTER("dlv.commit.snapshots")->Add(request.snapshots.size());
  MH_COUNTER("dlv.commit.bytes")->Add(published_bytes);
  MH_HISTOGRAM("dlv.commit.us")
      ->Record(static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0));
  span.Annotate("bytes", published_bytes);
  return id;
}

Result<int64_t> Repository::Copy(const std::string& source_name,
                                 const std::string& new_name) {
  MH_ASSIGN_OR_RETURN(NetworkDef network, GetNetwork(source_name));
  MH_ASSIGN_OR_RETURN(auto hyperparams, GetHyperparams(source_name));
  CommitRequest request;
  request.name = new_name;
  network.set_name(new_name);
  request.network = std::move(network);
  request.hyperparams = hyperparams;
  request.parent = source_name;
  request.message = "copy of " + source_name;
  return Commit(request);
}

Result<std::vector<ModelVersionInfo>> Repository::List() const {
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("versions"));
  std::vector<ModelVersionInfo> out;
  for (const Row& row : rows) {
    ModelVersionInfo info;
    info.id = row[0].AsInt();
    info.name = row[1].AsText();
    info.created_at = row[2].AsInt();
    info.parent = row[4].AsText();
    MH_ASSIGN_OR_RETURN(auto snapshot_rows,
                        catalog_->Scan("snapshots", [&](const Row& r) {
                          return r[0].AsInt() == info.id;
                        }));
    info.num_snapshots = static_cast<int64_t>(snapshot_rows.size());
    info.archived = !snapshot_rows.empty();
    for (const Row& r : snapshot_rows) {
      if (r[3].AsText() == "staging") info.archived = false;
    }
    MH_ASSIGN_OR_RETURN(auto log_rows,
                        catalog_->Scan("logs", [&](const Row& r) {
                          return r[0].AsInt() == info.id;
                        }));
    for (const Row& r : log_rows) {
      info.best_accuracy = std::max(info.best_accuracy, r[3].AsReal());
    }
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const ModelVersionInfo& a, const ModelVersionInfo& b) {
              return a.created_at < b.created_at;
            });
  return out;
}

Result<ModelVersionInfo> Repository::GetInfo(const std::string& name) const {
  MH_ASSIGN_OR_RETURN(auto all, List());
  for (const auto& info : all) {
    if (info.name == name) return info;
  }
  return Status::NotFound("no model version: " + name);
}

Result<NetworkDef> Repository::GetNetwork(const std::string& name) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("versions", [&](const Row& r) {
                        return r[0].AsInt() == id;
                      }));
  return NetworkDef::Parse(rows[0][3].AsText());
}

Result<std::vector<TrainLogEntry>> Repository::GetLog(
    const std::string& name) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("logs", [&](const Row& r) {
                        return r[0].AsInt() == id;
                      }));
  std::vector<TrainLogEntry> out;
  for (const Row& row : rows) {
    TrainLogEntry entry;
    entry.iteration = row[1].AsInt();
    entry.loss = row[2].AsReal();
    entry.train_accuracy = row[3].AsReal();
    entry.learning_rate = row[4].AsReal();
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const TrainLogEntry& a, const TrainLogEntry& b) {
              return a.iteration < b.iteration;
            });
  return out;
}

Result<std::map<std::string, std::string>> Repository::GetHyperparams(
    const std::string& name) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows,
                      catalog_->Scan("hyperparams", [&](const Row& r) {
                        return r[0].AsInt() == id;
                      }));
  std::map<std::string, std::string> out;
  for (const Row& row : rows) {
    out[row[1].AsText()] = row[2].AsText();
  }
  return out;
}

Result<std::string> Repository::GetFile(const std::string& name,
                                        const std::string& file_name) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("files", [&](const Row& r) {
                        return r[0].AsInt() == id && r[1].AsText() == file_name;
                      }));
  if (rows.empty()) {
    return Status::NotFound("no file " + file_name + " in " + name);
  }
  return env_->ReadFile(repo_layout::ObjectFile(root_, rows[0][2].AsText()));
}

std::vector<std::pair<std::string, std::string>> Repository::GetLineage()
    const {
  auto rows = catalog_->Scan("lineage");
  std::vector<std::pair<std::string, std::string>> out;
  if (!rows.ok()) return out;
  for (const Row& row : *rows) {
    out.emplace_back(row[0].AsText(), row[1].AsText());
  }
  return out;
}

Result<int64_t> Repository::NumSnapshots(const std::string& name) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("snapshots", [&](const Row& r) {
                        return r[0].AsInt() == id;
                      }));
  return static_cast<int64_t>(rows.size());
}

Result<std::vector<NamedParam>> Repository::GetSnapshotParams(
    const std::string& name, int64_t sequence) const {
  MH_ASSIGN_OR_RETURN(const int64_t id, VersionId(name));
  MH_ASSIGN_OR_RETURN(auto rows, catalog_->Scan("snapshots", [&](const Row& r) {
                        return r[0].AsInt() == id;
                      }));
  if (rows.empty()) {
    return Status::NotFound("version has no snapshots: " + name);
  }
  if (sequence < 0) {
    for (const Row& row : rows) {
      sequence = std::max(sequence, row[1].AsInt());
    }
  }
  const Row* found = nullptr;
  for (const Row& row : rows) {
    if (row[1].AsInt() == sequence) found = &row;
  }
  if (found == nullptr) {
    return Status::NotFound("no snapshot " + std::to_string(sequence) +
                            " in " + name);
  }
  TraceSpan span("dlv.checkout");
  span.Annotate("snapshot", SnapshotKey(name, sequence));
  MH_COUNTER("dlv.checkout.count")->Increment();
  if ((*found)[3].AsText() == "staging") {
    MH_COUNTER("dlv.checkout.staging")->Increment();
    MH_ASSIGN_OR_RETURN(std::string bytes,
                        ReadChecked(env_, StagingPath(name, sequence)));
    return ParseParams(Slice(bytes));
  }
  // Archived in PAS: lazily open the archive reader.
  MH_COUNTER("dlv.checkout.archived")->Increment();
  MH_ASSIGN_OR_RETURN(ArchiveReader * archive, OpenArchive());
  return archive->RetrieveSnapshot(SnapshotKey(name, sequence));
}

Result<ArchiveReader*> Repository::OpenArchive() const {
  MH_ASSIGN_OR_RETURN(std::shared_ptr<ArchiveReader> reader, SharedArchive());
  return reader.get();
}

Result<std::shared_ptr<ArchiveReader>> Repository::SharedArchive() const {
  {
    std::lock_guard<std::mutex> lock(archive_->mu);
    if (archive_->reader != nullptr) return archive_->reader;
  }
  return ReloadArchive();
}

std::shared_ptr<ArchiveReader> Repository::CachedArchive() const {
  std::lock_guard<std::mutex> lock(archive_->mu);
  return archive_->reader;
}

Result<std::shared_ptr<ArchiveReader>> Repository::ReloadArchive() const {
  MH_ASSIGN_OR_RETURN(ArchiveReader reader,
                      ArchiveReader::Open(env_, repo_layout::PasDir(root_)));
  auto shared = std::make_shared<ArchiveReader>(std::move(reader));
  std::lock_guard<std::mutex> lock(archive_->mu);
  archive_->reader = shared;
  return shared;
}

Result<std::vector<int>> Repository::Eval(const std::string& name,
                                          const Tensor& input) const {
  MH_ASSIGN_OR_RETURN(NetworkDef def, GetNetwork(name));
  MH_ASSIGN_OR_RETURN(Network net, Network::Create(def));
  MH_ASSIGN_OR_RETURN(std::vector<NamedParam> params, GetSnapshotParams(name));
  MH_RETURN_IF_ERROR(net.SetParameters(params));
  return net.Predict(input);
}

Result<std::vector<Repository::ParamDiffEntry>> Repository::DiffParameters(
    const std::string& a, const std::string& b) const {
  MH_ASSIGN_OR_RETURN(auto params_a, GetSnapshotParams(a));
  MH_ASSIGN_OR_RETURN(auto params_b, GetSnapshotParams(b));
  std::vector<ParamDiffEntry> out;
  for (const auto& pa : params_a) {
    ParamDiffEntry entry;
    entry.name = pa.name;
    const NamedParam* pb = nullptr;
    for (const auto& candidate : params_b) {
      if (candidate.name == pa.name) {
        pb = &candidate;
        break;
      }
    }
    if (pb == nullptr) {
      entry.only_in_a = true;
    } else if (pb->value.rows() != pa.value.rows() ||
               pb->value.cols() != pa.value.cols()) {
      entry.shape_changed = true;
    } else {
      MH_ASSIGN_OR_RETURN(FloatMatrix diff, pa.value.Sub(pb->value));
      entry.l2_distance = diff.L2Norm();
      const double base = pa.value.L2Norm();
      entry.relative_distance = base > 0 ? entry.l2_distance / base : 0.0;
    }
    out.push_back(std::move(entry));
  }
  for (const auto& pb : params_b) {
    bool seen = false;
    for (const auto& pa : params_a) {
      if (pa.name == pb.name) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      ParamDiffEntry entry;
      entry.name = pb.name;
      entry.only_in_b = true;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

Result<Repository::ComparisonResult> Repository::CompareOnData(
    const std::string& a, const std::string& b, const Tensor& input) const {
  ComparisonResult result;
  MH_ASSIGN_OR_RETURN(result.labels_a, Eval(a, input));
  MH_ASSIGN_OR_RETURN(result.labels_b, Eval(b, input));
  int agree = 0;
  for (size_t i = 0; i < result.labels_a.size(); ++i) {
    if (result.labels_a[i] == result.labels_b[i]) ++agree;
  }
  result.agreement = result.labels_a.empty()
                         ? 0.0
                         : static_cast<double>(agree) /
                               static_cast<double>(result.labels_a.size());
  return result;
}

Result<ArchiveBuildReport> Repository::Archive(const ArchiveOptions& options) {
  TraceSpan span("dlv.archive");
  Stopwatch watch;
  MH_COUNTER("dlv.archive.count")->Increment();
  MH_ASSIGN_OR_RETURN(auto versions, List());
  ArchiveBuilder builder(env_, repo_layout::PasDir(root_));
  struct SnapshotRef {
    std::string version;
    int64_t sequence;
  };
  std::vector<SnapshotRef> all;
  std::map<std::string, int64_t> last_sequence;
  for (const auto& info : versions) {
    MH_ASSIGN_OR_RETURN(const int64_t count, NumSnapshots(info.name));
    for (int64_t s = 0; s < count; ++s) {
      MH_ASSIGN_OR_RETURN(auto params, GetSnapshotParams(info.name, s));
      MH_RETURN_IF_ERROR(
          builder.AddSnapshot(SnapshotKey(info.name, s), std::move(params)));
      all.push_back({info.name, s});
      if (s > 0) {
        MH_RETURN_IF_ERROR(
            builder.AddDeltaCandidate(SnapshotKey(info.name, s - 1),
                                      SnapshotKey(info.name, s)));
      }
    }
    if (count > 0) last_sequence[info.name] = count - 1;
  }
  if (all.empty()) {
    return Status::FailedPrecondition("repository has no snapshots");
  }
  // Cross-version candidates: parent's latest snapshot -> child's first
  // (fine-tuned models start from the parent's weights, Sec. IV-B).
  for (const auto& info : versions) {
    if (info.parent.empty()) continue;
    auto parent_it = last_sequence.find(info.parent);
    auto child_it = last_sequence.find(info.name);
    if (parent_it == last_sequence.end() || child_it == last_sequence.end()) {
      continue;
    }
    MH_RETURN_IF_ERROR(builder.AddDeltaCandidate(
        SnapshotKey(info.parent, parent_it->second),
        SnapshotKey(info.name, 0)));
  }
  // Drop our own cached reader BEFORE the rebuild so its generation pin
  // doesn't force Build to leave the superseded files behind. Readers in
  // other processes / Repository instances keep their own pins and stay
  // safe; their generations are swept by the lifecycle GC later.
  {
    std::lock_guard<std::mutex> lock(archive_->mu);
    archive_->reader.reset();
  }
  MH_ASSIGN_OR_RETURN(ArchiveBuildReport report, builder.Build(options));
  span.Annotate("threads", static_cast<uint64_t>(report.pipeline.threads));
  span.Annotate("raw_bytes", report.pipeline.raw_bytes);
  // The archive publish above is internally atomic (manifest-last). Flip the
  // snapshot locations on a staged catalog copy and publish it with one
  // atomic write before touching the staging files: a crash in between
  // leaves either the old state (archive generation unreferenced — garbage,
  // collected by the next Build) or the new state (staging files garbage,
  // swept up below or reported by fsck).
  Catalog staged = *catalog_;
  MH_RETURN_IF_ERROR(staged
                         .Update(
                             "snapshots",
                             [](const Row& r) {
                               return r[3].AsText() == "staging";
                             },
                             [](Row* r) { (*r)[3] = "pas"; })
                         .status());
  MH_RETURN_IF_ERROR(env_->WriteFile(repo_layout::CatalogPath(root_),
                                     staged.SerializeForDisk()));
  *catalog_ = std::move(staged);
  // Best effort: the archive already holds these snapshots, so leftover
  // staging files are merely unreferenced (fsck reports them).
  for (const auto& ref : all) {
    const std::string path = StagingPath(ref.version, ref.sequence);
    if (env_->FileExists(path)) {
      (void)env_->DeleteFile(path);
    }
  }
  MH_COUNTER("dlv.archive.snapshots")->Add(all.size());
  MH_HISTOGRAM("dlv.archive.us")
      ->Record(static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0));
  span.Annotate("snapshots", static_cast<uint64_t>(all.size()));
  return report;
}

Result<std::string> Repository::Describe(const std::string& name) const {
  MH_ASSIGN_OR_RETURN(ModelVersionInfo info, GetInfo(name));
  MH_ASSIGN_OR_RETURN(NetworkDef network, GetNetwork(name));
  MH_ASSIGN_OR_RETURN(auto hyperparams, GetHyperparams(name));
  MH_ASSIGN_OR_RETURN(auto log, GetLog(name));
  std::ostringstream out;
  out << "model version: " << info.name << " (id " << info.id << ")\n";
  out << "created_at: " << info.created_at << "\n";
  if (!info.parent.empty()) out << "parent: " << info.parent << "\n";
  out << "snapshots: " << info.num_snapshots
      << (info.archived ? " (archived)" : " (staged)") << "\n";
  out << "network: " << network.name() << ", " << network.nodes().size()
      << " nodes, input " << network.in_channels() << "x"
      << network.in_height() << "x" << network.in_width() << "\n";
  auto params = network.ParameterCount();
  if (params.ok()) out << "parameters: " << *params << "\n";
  if (!hyperparams.empty()) {
    out << "hyperparameters:\n";
    for (const auto& [key, value] : hyperparams) {
      out << "  " << key << " = " << value << "\n";
    }
  }
  if (!log.empty()) {
    out << "training log (" << log.size() << " entries), final loss "
        << log.back().loss << ", final accuracy " << log.back().train_accuracy
        << "\n";
  }
  return out.str();
}

Result<std::string> Repository::Diff(const std::string& a,
                                     const std::string& b) const {
  MH_ASSIGN_OR_RETURN(NetworkDef net_a, GetNetwork(a));
  MH_ASSIGN_OR_RETURN(NetworkDef net_b, GetNetwork(b));
  MH_ASSIGN_OR_RETURN(auto hyper_a, GetHyperparams(a));
  MH_ASSIGN_OR_RETURN(auto hyper_b, GetHyperparams(b));
  MH_ASSIGN_OR_RETURN(ModelVersionInfo info_a, GetInfo(a));
  MH_ASSIGN_OR_RETURN(ModelVersionInfo info_b, GetInfo(b));
  std::ostringstream out;
  out << "diff " << a << " .. " << b << "\n";
  // Network node diff by name.
  for (const auto& node : net_a.nodes()) {
    if (!net_b.HasNode(node.name)) {
      out << "- node " << node.name << " (" << LayerKindToString(node.kind)
          << ")\n";
    } else {
      auto other = net_b.GetNode(node.name);
      if (other.ok() && !(*other == node)) {
        out << "~ node " << node.name << ": " << node.AttributesString()
            << " -> " << other->AttributesString() << "\n";
      }
    }
  }
  for (const auto& node : net_b.nodes()) {
    if (!net_a.HasNode(node.name)) {
      out << "+ node " << node.name << " (" << LayerKindToString(node.kind)
          << ")\n";
    }
  }
  // Hyperparameter diff.
  std::set<std::string> keys;
  for (const auto& [key, value] : hyper_a) keys.insert(key);
  for (const auto& [key, value] : hyper_b) keys.insert(key);
  for (const auto& key : keys) {
    const auto it_a = hyper_a.find(key);
    const auto it_b = hyper_b.find(key);
    const std::string va = it_a == hyper_a.end() ? "<unset>" : it_a->second;
    const std::string vb = it_b == hyper_b.end() ? "<unset>" : it_b->second;
    if (va != vb) {
      out << "~ hyperparam " << key << ": " << va << " -> " << vb << "\n";
    }
  }
  out << "accuracy: " << info_a.best_accuracy << " vs " << info_b.best_accuracy
      << "\n";
  return out.str();
}

Status Repository::Flush() { return catalog_->Flush(); }

}  // namespace modelhub
