#ifndef MODELHUB_LIFECYCLE_GC_H_
#define MODELHUB_LIFECYCLE_GC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"

namespace modelhub {

struct GcOptions {
  /// Report what would be reclaimed without deleting anything.
  bool dry_run = false;
  /// Also sweep files parked in quarantine/ by recovery or fsck (off by
  /// default — quarantined artifacts are forensic evidence).
  bool include_quarantine = false;
};

/// What one GC sweep observed and did. "Stale" files belong to archive
/// generations older than the committed manifest; the pinned subset is
/// protected by in-flight retrievals and left for a later sweep.
struct GcReport {
  uint64_t epoch = 0;               ///< Sweep epoch of this run.
  uint64_t current_generation = 0;  ///< Generation the manifest commits.
  bool dry_run = false;

  uint64_t stale_files = 0;
  uint64_t stale_bytes = 0;
  uint64_t reclaimed_files = 0;
  uint64_t reclaimed_bytes = 0;
  uint64_t pinned_files = 0;
  uint64_t pinned_bytes = 0;
  /// Superseded-generation files the committed manifest still references
  /// through cross-generation dedup (shared chunks). Never reclaimed —
  /// they are live data, reclaimable only once a later rebuild stops
  /// referencing them.
  uint64_t shared_files = 0;
  uint64_t shared_bytes = 0;
  /// Distinct superseded generations still pinned (pending GC).
  std::vector<uint64_t> pending_generations;

  uint64_t quarantine_files = 0;
  uint64_t quarantine_bytes = 0;

  std::string ToString() const;
};

/// Garbage-collects unreferenced archive chunk files under
/// `<repo_root>/pas`: begins a new sweep epoch, then deletes every
/// generation-numbered data file whose generation is strictly older than
/// the one the committed manifest names, that the manifest does not
/// reference through cross-generation dedup, AND that no live retrieval
/// pins. Files of generations newer than the manifest (an in-flight
/// rebuild's output) are never touched; neither is the manifest itself.
/// Readers only ever pin the committed generation (pin-then-reverify in
/// ArchiveReader::Open), so a generation observed unpinned here can never
/// regain a pin mid-sweep — deleting it is race-free.
///
/// A repo with no archive yields an empty report, not an error.
Result<GcReport> RunArchiveGc(Env* env, const std::string& repo_root,
                              const GcOptions& options = {});

}  // namespace modelhub

#endif  // MODELHUB_LIFECYCLE_GC_H_
