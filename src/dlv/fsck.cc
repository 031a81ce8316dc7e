#include "dlv/fsck.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/checked_io.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dlv/catalog.h"
#include "dlv/layout.h"
#include "dlv/recovery.h"
#include "dlv/repository.h"
#include "nn/network_def.h"
#include "pas/archive.h"

namespace modelhub {

namespace {

std::string SnapshotKey(const std::string& version, int64_t sequence) {
  return version + "/s" + std::to_string(sequence);
}

/// Parses a content-addressed object name ("%08x-%zu": payload CRC and
/// size). Returns false for names the repository never generates.
bool ParseObjectName(const std::string& name, uint32_t* crc, size_t* size) {
  unsigned int parsed_crc = 0;
  size_t parsed_size = 0;
  if (std::sscanf(name.c_str(), "%8x-%zu", &parsed_crc, &parsed_size) != 2) {
    return false;
  }
  char round_trip[32];
  std::snprintf(round_trip, sizeof(round_trip), "%08x-%zu", parsed_crc,
                parsed_size);
  if (name != round_trip) return false;
  *crc = parsed_crc;
  *size = parsed_size;
  return true;
}

/// Reports files in `dir` that `referenced` does not name; optionally
/// quarantines them.
void CheckOrphans(Env* env, const std::string& root, const std::string& dir,
                  const std::set<std::string>& referenced,
                  const std::string& label, const FsckOptions& options,
                  FsckReport* report) {
  if (!env->DirExists(dir)) return;
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    const std::string path = JoinPath(dir, name);
    if (env->DirExists(path) || referenced.count(name)) continue;
    report->defects.push_back("orphaned " + label + " file: " + path);
    if (options.quarantine) {
      auto moved = QuarantineFile(env, root, path);
      if (moved.ok()) {
        report->repairs.push_back("quarantined " + path);
      }
    }
  }
}

}  // namespace

std::string FsckReport::ToString() const {
  std::ostringstream out;
  for (const std::string& line : notes) out << "note: " << line << "\n";
  for (const std::string& line : repairs) out << "repair: " << line << "\n";
  for (const std::string& line : defects) out << "defect: " << line << "\n";
  if (clean()) {
    out << "fsck: repository is clean\n";
  } else {
    out << "fsck: " << defects.size() << " defect(s) found\n";
  }
  return out.str();
}

Result<FsckReport> RunFsck(Env* env, const std::string& root,
                           const FsckOptions& options) {
  if (!env->FileExists(repo_layout::CatalogPath(root))) {
    return Status::NotFound("no repository at " + root);
  }
  TraceSpan span("dlv.fsck");
  FsckReport report;

  // --- Phase 1: resolve any interrupted commit publish, exactly as Open
  // would, so the remaining checks see a crash-consistent state.
  auto recovery = RecoverRepository(env, root);
  if (!recovery.ok()) {
    report.defects.push_back("crash recovery failed: " +
                             recovery.status().ToString());
  } else {
    for (const std::string& action : recovery->actions) {
      report.repairs.push_back(action);
    }
  }

  // --- Phase 2: the catalog. Everything else hangs off it; if it does not
  // load there is nothing further to cross-check.
  auto catalog = Catalog::Open(env, repo_layout::CatalogPath(root));
  if (!catalog.ok()) {
    report.defects.push_back("catalog unreadable: " +
                             catalog.status().ToString());
    return report;
  }
  report.notes.push_back("catalog loaded");

  auto scan = [&](const char* table) {
    auto rows = catalog->Scan(table);
    if (!rows.ok()) {
      report.defects.push_back(std::string("catalog table missing: ") + table);
      return std::vector<Row>{};
    }
    return *rows;
  };
  const std::vector<Row> versions = scan("versions");
  const std::vector<Row> snapshots = scan("snapshots");
  const std::vector<Row> files = scan("files");
  const std::vector<Row> lineage = scan("lineage");

  // --- Phase 3: versions — every stored network definition must parse.
  std::map<int64_t, std::string> version_names;
  std::set<std::string> name_set;
  for (const Row& row : versions) {
    const std::string& name = row[1].AsText();
    version_names[row[0].AsInt()] = name;
    name_set.insert(name);
    auto network = NetworkDef::Parse(row[3].AsText());
    if (!network.ok()) {
      report.defects.push_back("version " + name +
                               " has an unparseable network definition: " +
                               network.status().ToString());
    }
  }
  report.notes.push_back(std::to_string(versions.size()) +
                         " version(s) checked");

  // --- Phase 4: snapshots. Staged ones must have a CRC-clean parseable
  // staging file; archived ones must be present in the PAS manifest.
  std::set<std::string> referenced_staging;
  std::vector<std::pair<std::string, int64_t>> archived;
  for (const Row& row : snapshots) {
    auto it = version_names.find(row[0].AsInt());
    if (it == version_names.end()) {
      report.defects.push_back("snapshot row references unknown version id " +
                               std::to_string(row[0].AsInt()));
      continue;
    }
    const std::string& version = it->second;
    const int64_t sequence = row[1].AsInt();
    const std::string& location = row[3].AsText();
    if (location == "staging") {
      referenced_staging.insert(
          repo_layout::StagingFileName(version, sequence));
      const std::string path =
          repo_layout::StagingFile(root, version, sequence);
      auto bytes = ReadChecked(env, path);
      if (!bytes.ok()) {
        report.defects.push_back("staged snapshot " +
                                 SnapshotKey(version, sequence) + ": " +
                                 bytes.status().ToString());
        continue;
      }
      if (auto params = ParseParams(Slice(*bytes)); !params.ok()) {
        report.defects.push_back("staged snapshot " +
                                 SnapshotKey(version, sequence) +
                                 " does not parse: " +
                                 params.status().ToString());
      }
    } else if (location == "pas") {
      archived.emplace_back(version, sequence);
    } else {
      report.defects.push_back("snapshot " + SnapshotKey(version, sequence) +
                               " has unknown location '" + location + "'");
    }
  }
  report.notes.push_back(std::to_string(snapshots.size()) +
                         " snapshot(s) checked");

  // --- Phase 5: the PAS archive — chunk CRCs, delta-chain resolvability,
  // and membership of every archived snapshot.
  const std::string pas_dir = repo_layout::PasDir(root);
  std::set<std::string> referenced_pas;
  uint64_t archive_generation = 0;
  const bool have_manifest =
      env->FileExists(JoinPath(pas_dir, "manifest.bin"));
  if (have_manifest || !archived.empty()) {
    auto reader = ArchiveReader::Open(env, pas_dir);
    if (!reader.ok()) {
      report.defects.push_back("archive unreadable: " +
                               reader.status().ToString());
    } else {
      referenced_pas.insert("manifest.bin");
      // Builds that kept a chunk index left it next to the manifest; the
      // next Build deletes it, so it is no orphan.
      referenced_pas.insert(kLegacyChunkIndexFile);
      for (const std::string& name : reader->data_files()) {
        referenced_pas.insert(name);
      }
      for (const std::string& defect : reader->VerifyIntegrity()) {
        report.defects.push_back("archive: " + defect);
      }
      const auto& names = reader->snapshot_names();
      const std::set<std::string> in_manifest(names.begin(), names.end());
      for (const auto& [version, sequence] : archived) {
        if (!in_manifest.count(SnapshotKey(version, sequence))) {
          report.defects.push_back("archived snapshot " +
                                   SnapshotKey(version, sequence) +
                                   " is missing from the archive manifest");
        }
      }
      archive_generation = reader->generation();
      report.notes.push_back("archive generation " +
                             std::to_string(archive_generation) +
                             " verified");
    }
  }

  // --- Phase 6: content-addressed objects — size and CRC must match the
  // name for every referenced object.
  std::set<std::string> referenced_objects;
  for (const Row& row : files) {
    auto it = version_names.find(row[0].AsInt());
    const std::string owner =
        it == version_names.end() ? "<unknown version>" : it->second;
    const std::string& object = row[2].AsText();
    referenced_objects.insert(object);
    uint32_t expected_crc = 0;
    size_t expected_size = 0;
    if (!ParseObjectName(object, &expected_crc, &expected_size)) {
      report.defects.push_back("file '" + row[1].AsText() + "' of " + owner +
                               " references malformed object name " + object);
      continue;
    }
    auto bytes = env->ReadFile(repo_layout::ObjectFile(root, object));
    if (!bytes.ok()) {
      report.defects.push_back("object " + object + " (file '" +
                               row[1].AsText() + "' of " + owner +
                               "): " + bytes.status().ToString());
      continue;
    }
    if (bytes->size() != expected_size ||
        Crc32(Slice(*bytes)) != expected_crc) {
      report.defects.push_back("object " + object +
                               " content does not match its name (file '" +
                               row[1].AsText() + "' of " + owner + ")");
    }
  }
  report.notes.push_back(std::to_string(files.size()) + " object(s) checked");

  // --- Phase 7: lineage — both endpoints must be real versions.
  for (const Row& row : lineage) {
    for (int col = 0; col < 2; ++col) {
      const std::string& endpoint = row[col].AsText();
      if (!name_set.count(endpoint)) {
        report.defects.push_back("lineage edge references unknown version " +
                                 endpoint);
      }
    }
  }

  // --- Phase 8: orphans — files no catalog row references.
  CheckOrphans(env, root, repo_layout::StagingDir(root), referenced_staging,
               "staging", options, &report);
  CheckOrphans(env, root, repo_layout::ObjectsDir(root), referenced_objects,
               "object", options, &report);
  // The archive directory gets a GC-aware pass instead of CheckOrphans:
  // generation-numbered data files that the manifest does not reference
  // are lifecycle state, not corruption. Superseded generations are
  // pending GC (possibly pinned by in-flight retrievals); generations
  // newer than the manifest are an interrupted rebuild that the next
  // compaction supersedes. Both are notes. Files the archive never
  // writes remain orphan defects.
  if (!referenced_pas.empty()) {
    auto pas_names = env->ListDir(pas_dir);
    if (pas_names.ok()) {
      std::map<uint64_t, std::pair<uint64_t, uint64_t>> stale_generations;
      for (const std::string& name : *pas_names) {
        const std::string path = JoinPath(pas_dir, name);
        if (env->DirExists(path) || referenced_pas.count(name)) continue;
        uint64_t gen = 0;
        if (ParseArchiveDataFileName(name, &gen)) {
          uint64_t bytes = 0;
          if (auto size = env->FileSize(path); size.ok()) bytes = *size;
          auto& entry = stale_generations[gen];
          ++entry.first;
          entry.second += bytes;
          continue;
        }
        report.defects.push_back("orphaned archive file: " + path);
        if (options.quarantine) {
          auto moved = QuarantineFile(env, root, path);
          if (moved.ok()) {
            report.repairs.push_back("quarantined " + path);
          }
        }
      }
      for (const auto& [gen, counts] : stale_generations) {
        std::ostringstream note;
        if (gen < archive_generation) {
          note << "pending-GC generation " << gen << ": " << counts.first
               << " file(s), " << counts.second
               << " byte(s) awaiting sweep (dlv gc)";
        } else {
          note << "interrupted rebuild generation " << gen << ": "
               << counts.first << " file(s), " << counts.second
               << " byte(s); the next compaction supersedes it";
        }
        report.notes.push_back(note.str());
      }
    }
  }
  MH_COUNTER("dlv.fsck.count")->Increment();
  MH_COUNTER("dlv.fsck.defects")->Add(report.defects.size());
  MH_COUNTER("dlv.fsck.repairs")->Add(report.repairs.size());
  return report;
}

}  // namespace modelhub
