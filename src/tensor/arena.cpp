#include "tensor/arena.hpp"

#include "common/error.hpp"

namespace dnnspmv {

Tensor& TensorArena::tensor(const void* owner, int slot) {
  return tensors_[Key{owner, slot}];
}

float* TensorArena::floats(const void* owner, int slot, std::int64_t size) {
  DNNSPMV_CHECK(size >= 0);
  std::vector<float>& buf = floats_[Key{owner, slot}];
  if (buf.size() < static_cast<std::size_t>(size))
    buf.resize(static_cast<std::size_t>(size));
  return buf.data();
}

std::uint8_t* TensorArena::bytes(const void* owner, int slot,
                                 std::int64_t size) {
  DNNSPMV_CHECK(size >= 0);
  std::vector<std::uint8_t>& buf = bytes_[Key{owner, slot}];
  if (buf.size() < static_cast<std::size_t>(size))
    buf.resize(static_cast<std::size_t>(size));
  return buf.data();
}

std::size_t TensorArena::bytes_held() const {
  std::size_t total = 0;
  for (const auto& [key, t] : tensors_)
    total += static_cast<std::size_t>(t.size()) * sizeof(float);
  for (const auto& [key, buf] : floats_) total += buf.size() * sizeof(float);
  for (const auto& [key, buf] : bytes_) total += buf.size();
  return total;
}

void TensorArena::clear() {
  tensors_.clear();
  floats_.clear();
  bytes_.clear();
}

TensorArena& thread_arena() {
  static thread_local TensorArena arena;
  return arena;
}

}  // namespace dnnspmv
