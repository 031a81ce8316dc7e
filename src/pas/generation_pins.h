#ifndef MODELHUB_PAS_GENERATION_PINS_H_
#define MODELHUB_PAS_GENERATION_PINS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

namespace modelhub {

class GenerationPinRegistry;

/// RAII hold on one archive generation's data files. While any pin on
/// (env, dir, generation) is alive, neither ArchiveBuilder::Build's
/// superseded-generation cleanup nor the lifecycle GC sweep will delete
/// that generation's chunk files — an in-flight retrieval can never have
/// its bytes freed underneath it.
class GenerationPin {
 public:
  ~GenerationPin();

  GenerationPin(const GenerationPin&) = delete;
  GenerationPin& operator=(const GenerationPin&) = delete;

  uint64_t generation() const { return generation_; }

 private:
  friend class GenerationPinRegistry;
  GenerationPin(GenerationPinRegistry* registry, const void* env,
                std::string dir, uint64_t generation)
      : registry_(registry),
        env_(env),
        dir_(std::move(dir)),
        generation_(generation) {}

  GenerationPinRegistry* registry_;
  const void* env_;
  std::string dir_;
  uint64_t generation_;
};

/// Process-wide refcounts of in-use archive generations, keyed by
/// (Env*, archive dir, generation). This is the "mark" side of the
/// lifecycle GC's mark-epoch scheme (DESIGN.md §14):
///
///   * ArchiveReader::Open pins every generation its manifest references
///     (its own, plus prior generations whose chunks the manifest shares
///     through dedup) and re-verifies the manifest afterwards, so the
///     pins either cover files that are still live or the open retries
///     against the newer generation — there is no window where a reader
///     holds unpinned files.
///   * Sweepers (Build cleanup, `dlv gc`, the maintenance daemon) delete
///     only files that are older than the committed manifest, not
///     referenced by it, AND unpinned. The GC sweep (`dlv gc`, the
///     daemon) first bumps the sweep epoch; Build cleanup does not.
///     Readers only ever pin generations the committed manifest
///     references, so a file observed unreferenced and unpinned can never
///     gain a new pin mid-sweep: observing it once is conclusive.
class GenerationPinRegistry {
 public:
  /// Leaked process singleton (safe during static destruction).
  static GenerationPinRegistry* Global();

  /// Takes a shared hold on (env, dir, generation).
  std::shared_ptr<GenerationPin> Pin(const void* env, const std::string& dir,
                                     uint64_t generation);

  bool IsPinned(const void* env, const std::string& dir,
                uint64_t generation) const;

  /// Starts a new sweep epoch and returns its number (monotonic).
  uint64_t BeginSweepEpoch();

 private:
  friend class GenerationPin;
  using Key = std::tuple<const void*, std::string, uint64_t>;

  void Release(const void* env, const std::string& dir, uint64_t generation);

  mutable std::mutex mu_;
  std::map<Key, uint64_t> refs_;  ///< Guarded by mu_.
  uint64_t epoch_ = 0;           ///< Guarded by mu_.
};

}  // namespace modelhub

#endif  // MODELHUB_PAS_GENERATION_PINS_H_
