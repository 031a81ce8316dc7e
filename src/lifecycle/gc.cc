#include "lifecycle/gc.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/metrics.h"
#include "common/trace.h"
#include "dlv/layout.h"
#include "pas/archive.h"
#include "pas/generation_pins.h"

namespace modelhub {

std::string GcReport::ToString() const {
  std::ostringstream out;
  out << "gc epoch " << epoch << (dry_run ? " (dry run)" : "")
      << ": archive generation " << current_generation << "\n";
  out << "  stale: " << stale_files << " file(s), " << stale_bytes
      << " byte(s)\n";
  out << "  " << (dry_run ? "reclaimable" : "reclaimed") << ": "
      << reclaimed_files << " file(s), " << reclaimed_bytes << " byte(s)\n";
  out << "  pinned: " << pinned_files << " file(s), " << pinned_bytes
      << " byte(s)";
  if (!pending_generations.empty()) {
    out << " — pending generation(s):";
    for (uint64_t gen : pending_generations) out << " " << gen;
  }
  out << "\n";
  if (shared_files > 0) {
    out << "  shared: " << shared_files << " file(s), " << shared_bytes
        << " byte(s) still referenced through dedup\n";
  }
  if (quarantine_files > 0) {
    out << "  quarantine: " << quarantine_files << " file(s), "
        << quarantine_bytes << " byte(s) "
        << (dry_run ? "reclaimable" : "reclaimed") << "\n";
  }
  return out.str();
}

Result<GcReport> RunArchiveGc(Env* env, const std::string& repo_root,
                              const GcOptions& options) {
  TraceSpan span("lifecycle.gc");
  GcReport report;
  report.dry_run = options.dry_run;
  GenerationPinRegistry* pins = GenerationPinRegistry::Global();
  report.epoch = pins->BeginSweepEpoch();
  MH_COUNTER("lifecycle.gc.runs")->Increment();
  MH_GAUGE("lifecycle.gc.epoch")
      ->Set(static_cast<int64_t>(report.epoch));

  const std::string pas_dir = repo_layout::PasDir(repo_root);
  if (env->FileExists(JoinPath(pas_dir, "manifest.bin"))) {
    MH_ASSIGN_OR_RETURN(report.current_generation,
                        ReadArchiveGeneration(env, pas_dir));
    MH_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                        env->ListDir(pas_dir));
    // Files the committed manifest references — its own generation's data
    // files plus any prior-generation files it borrows chunks from via
    // dedup. Referenced files are live regardless of generation number.
    std::set<std::string> referenced;
    MH_ASSIGN_OR_RETURN(const std::vector<std::string> manifest_files,
                        ReadArchiveManifestFiles(env, pas_dir));
    referenced.insert(manifest_files.begin(), manifest_files.end());
    std::set<uint64_t> pending;
    for (const std::string& name : names) {
      uint64_t gen = 0;
      if (!ParseArchiveDataFileName(name, &gen)) continue;
      // Strictly-older only: generations beyond the manifest are an
      // in-flight rebuild's freshly written files.
      if (gen >= report.current_generation) continue;
      const std::string path = JoinPath(pas_dir, name);
      uint64_t bytes = 0;
      if (auto size = env->FileSize(path); size.ok()) bytes = *size;
      if (referenced.count(name)) {
        ++report.shared_files;
        report.shared_bytes += bytes;
        continue;
      }
      ++report.stale_files;
      report.stale_bytes += bytes;
      if (pins->IsPinned(env, pas_dir, gen)) {
        ++report.pinned_files;
        report.pinned_bytes += bytes;
        pending.insert(gen);
        continue;
      }
      if (!options.dry_run) {
        if (!env->DeleteFile(path).ok()) continue;
      }
      ++report.reclaimed_files;
      report.reclaimed_bytes += bytes;
    }
    report.pending_generations.assign(pending.begin(), pending.end());
  }

  if (options.include_quarantine) {
    const std::string qdir = repo_layout::QuarantineDir(repo_root);
    if (env->DirExists(qdir)) {
      if (auto names = env->ListDir(qdir); names.ok()) {
        for (const std::string& name : *names) {
          const std::string path = JoinPath(qdir, name);
          if (env->DirExists(path)) continue;
          uint64_t bytes = 0;
          if (auto size = env->FileSize(path); size.ok()) bytes = *size;
          if (!options.dry_run) {
            if (!env->DeleteFile(path).ok()) continue;
          }
          ++report.quarantine_files;
          report.quarantine_bytes += bytes;
        }
      }
    }
  }

  if (!options.dry_run) {
    MH_COUNTER("lifecycle.gc.reclaimed.bytes")
        ->Add(report.reclaimed_bytes + report.quarantine_bytes);
    MH_COUNTER("lifecycle.gc.reclaimed.files")
        ->Add(report.reclaimed_files + report.quarantine_files);
  }
  MH_GAUGE("lifecycle.gc.pinned.files")
      ->Set(static_cast<int64_t>(report.pinned_files));
  MH_GAUGE("lifecycle.gc.shared.files")
      ->Set(static_cast<int64_t>(report.shared_files));
  span.Annotate("reclaimed_bytes", report.reclaimed_bytes);
  span.Annotate("pinned_files", report.pinned_files);
  return report;
}

}  // namespace modelhub
