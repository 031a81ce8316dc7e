#include "pas/generation_pins.h"

#include "common/metrics.h"

namespace modelhub {

GenerationPin::~GenerationPin() {
  registry_->Release(env_, dir_, generation_);
}

GenerationPinRegistry* GenerationPinRegistry::Global() {
  static auto* registry = new GenerationPinRegistry();
  return registry;
}

std::shared_ptr<GenerationPin> GenerationPinRegistry::Pin(
    const void* env, const std::string& dir, uint64_t generation) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++refs_[Key(env, dir, generation)];
  }
  MH_COUNTER("lifecycle.pins.taken")->Add(1);
  return std::shared_ptr<GenerationPin>(
      new GenerationPin(this, env, dir, generation));
}

bool GenerationPinRegistry::IsPinned(const void* env, const std::string& dir,
                                     uint64_t generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(Key(env, dir, generation));
  return it != refs_.end() && it->second > 0;
}

uint64_t GenerationPinRegistry::BeginSweepEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++epoch_;
}

void GenerationPinRegistry::Release(const void* env, const std::string& dir,
                                    uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(Key(env, dir, generation));
  if (it == refs_.end()) return;
  if (--it->second == 0) refs_.erase(it);
}

}  // namespace modelhub
