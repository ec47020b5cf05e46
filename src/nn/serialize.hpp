// Binary weight (de)serialization.
//
// Weights are written in parameter-walk order with shapes, so a file can be
// loaded back into any network with an identical architecture — including a
// freshly constructed one on another "machine", which is what the transfer-
// learning migration drivers do.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dnnspmv {

void save_params(std::ostream& os, const std::vector<Param*>& params);
void load_params(std::istream& is, const std::vector<Param*>& params);

/// Weight-set header prefixed to serialized models, so a weight file keeps
/// its ModelRegistry provenance across save/load. `format_version` versions
/// the selector file layout (kWeightSetFormat is the only one written or
/// read); `model_version` is the registry version the weights were
/// published as (0 = never published).
constexpr std::uint32_t kWeightSetFormat = 3;

struct WeightSetHeader {
  std::uint32_t format_version = kWeightSetFormat;
  std::uint64_t model_version = 0;
};

void save_weight_set_header(std::ostream& os, const WeightSetHeader& h);

/// Consumes the header at the start of `is`. Throws
/// DnnspmvError(errc::data_error) unless the stream starts with a header of
/// format kWeightSetFormat.
WeightSetHeader read_weight_set_header(std::istream& is);

void save_params_file(const std::string& path,
                      const std::vector<Param*>& params);
void load_params_file(const std::string& path,
                      const std::vector<Param*>& params);

/// Copies values (not gradients) from src into dst; shapes must match
/// pairwise. Used to warm-start "continuous evolvement".
void copy_params(const std::vector<Param*>& src,
                 const std::vector<Param*>& dst);

}  // namespace dnnspmv
