// Per-thread arena of reusable tensors and raw scratch buffers.
//
// TensorArena generalizes the nn-layer Workspace idea (src/nn/workspace.hpp,
// now a thin adapter over this class) to whole Tensors, so producers
// *upstream* of the net — the streaming representation builder, feature
// extraction, anything that materializes per-request tensors — can run
// allocation-free at steady state: a buffer is keyed by (owner pointer,
// slot), grows to the largest size ever requested under its key, and is
// reused across requests.
//
// A TensorArena is NOT thread-safe: use one per thread. thread_arena()
// returns a lazily created per-thread instance with process lifetime — the
// serve tier's client threads share it across requests, which is exactly
// what makes the cache-miss representation build allocation-free after the
// first request of each shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.hpp"

namespace dnnspmv {

class TensorArena {
 public:
  /// Persistent tensor for (owner, slot). The tensor keeps whatever shape
  /// and contents its last user left; callers ensure2()/ensure() it to
  /// their geometry (a no-op re-shape once warm) and must overwrite what
  /// they read back.
  Tensor& tensor(const void* owner, int slot);

  /// Raw float scratch of at least `size` elements for (owner, slot).
  /// Contents are unspecified.
  float* floats(const void* owner, int slot, std::int64_t size);

  /// Raw byte scratch of at least `size` bytes for (owner, slot).
  std::uint8_t* bytes(const void* owner, int slot, std::int64_t size);

  /// Total bytes currently held across all buffers (steady-state tests
  /// assert this stops growing once shapes have been seen).
  std::size_t bytes_held() const;

  void clear();

 private:
  struct Key {
    const void* owner;
    int slot;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.owner) ^
             (std::hash<int>()(k.slot) * 0x9e3779b97f4a7c15ULL);
    }
  };
  std::unordered_map<Key, Tensor, KeyHash> tensors_;
  std::unordered_map<Key, std::vector<float>, KeyHash> floats_;
  std::unordered_map<Key, std::vector<std::uint8_t>, KeyHash> bytes_;
};

/// The calling thread's arena (created on first use, process lifetime).
TensorArena& thread_arena();

}  // namespace dnnspmv
