// Bounded reads for binary files whose size fields are untrusted.
#pragma once

#include <algorithm>
#include <cstddef>
#include <istream>
#include <vector>

namespace dnnspmv {

/// Reads `n` trivially copyable values into `*v`, growing it one chunk at
/// a time as the bytes arrive: a size field that lies ends in a short read
/// (false), never in an allocation sized by the lie.
template <typename T>
bool read_array(std::istream& is, std::size_t n, std::vector<T>* v) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  v->clear();
  while (v->size() < n) {
    const std::size_t done = v->size();
    const std::size_t take = std::min(kChunk, n - done);
    v->resize(done + take);
    is.read(reinterpret_cast<char*>(v->data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is) return false;
  }
  return true;
}

}  // namespace dnnspmv
