// Caller-owned scratch memory for layer forward/backward passes.
//
// Layers request buffers keyed by (owner pointer, slot); a buffer grows to
// the largest size ever requested under its key and is reused across calls,
// so steady-state inference — the serve tier's cache-miss path — performs
// zero heap allocation once shapes have been seen. Everything a pass
// writes lives here, not in the layers: inference forwards are const and
// re-entrant, so one model object serves any number of threads, each
// forwarding through its own Workspace. A training forward leaves what its
// backward needs (activations, dropout masks) in the same Workspace, so the
// two calls must share one.
//
// A Workspace is NOT thread-safe: use one per thread (the serve batcher
// keeps one per worker, the trainer one per training loop, and
// thread_workspace() covers callers that don't thread one through).
//
// Workspace is a thin float view over the general TensorArena
// (src/tensor/arena.hpp) — the same arena abstraction the representation
// builder uses upstream of the net — kept as its own type so layer code
// keeps its narrow float-scratch API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/arena.hpp"

namespace dnnspmv {

class Workspace {
 public:
  /// Scratch buffer of at least `size` floats for (owner, slot). Contents
  /// are unspecified — callers must fully overwrite what they read back.
  float* get(const void* owner, int slot, std::int64_t size) {
    return arena_.floats(owner, slot, size);
  }

  /// Persistent tensor for (owner, slot): activations a forward writes and
  /// the matching backward reads back.
  Tensor& tensor(const void* owner, int slot) {
    return arena_.tensor(owner, slot);
  }

  /// Raw byte scratch for (owner, slot); contents unspecified.
  std::uint8_t* bytes(const void* owner, int slot, std::int64_t size) {
    return arena_.bytes(owner, slot, size);
  }

  /// The packed network inputs of the current batch (assemble_batch's
  /// output, core/trainer.hpp).
  std::vector<Tensor>& batch_inputs() { return batch_inputs_; }

  void clear() {
    arena_.clear();
    batch_inputs_.clear();
  }

 private:
  TensorArena arena_;
  std::vector<Tensor> batch_inputs_;
};

/// The calling thread's workspace (created on first use, thread lifetime):
/// the fallback of every entry point that takes no Workspace.
inline Workspace& thread_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace dnnspmv
