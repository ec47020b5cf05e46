#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace dnnspmv {
namespace {

constexpr char kMagic[8] = {'D', 'N', 'N', 'S', 'P', 'M', 'V', '1'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DNNSPMV_CHECK_MSG(is.good(), "truncated model file");
}

constexpr std::uint32_t kWeightSetMagic = 0x57534D56;  // "VMSW"

}  // namespace

void save_weight_set_header(std::ostream& os, const WeightSetHeader& h) {
  write_pod(os, kWeightSetMagic);
  write_pod(os, h.format_version);
  write_pod(os, h.model_version);
  DNNSPMV_CHECK_MSG(os.good(), "weight-set header write failed");
}

WeightSetHeader read_weight_set_header(std::istream& is) {
  WeightSetHeader h;
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  DNNSPMV_CHECK_MSG(is.good() && magic == kWeightSetMagic,
                    "not a weight-set file (no header)");
  read_pod(is, h.format_version);
  DNNSPMV_CHECK_MSG(h.format_version == kWeightSetFormat,
                    "unsupported weight-set format version "
                        << h.format_version << " (expected "
                        << kWeightSetFormat << ")");
  read_pod(is, h.model_version);
  return h;
}

void save_params(std::ostream& os, const std::vector<Param*>& params) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const Param* p : params) {
    write_pod(os, static_cast<std::uint32_t>(p->value.rank()));
    for (auto d : p->value.shape()) write_pod(os, static_cast<std::int64_t>(d));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  DNNSPMV_CHECK_MSG(os.good(), "model write failed");
}

void load_params(std::istream& is, const std::vector<Param*>& params) {
  char magic[8];
  is.read(magic, sizeof(magic));
  DNNSPMV_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 8) == 0,
                    "bad model file magic");
  std::uint64_t n = 0;
  read_pod(is, n);
  DNNSPMV_CHECK_MSG(n == params.size(), "model has " << n << " params, net has "
                                                     << params.size());
  for (Param* p : params) {
    std::uint32_t rank = 0;
    read_pod(is, rank);
    // Checked before it sizes the shape read below.
    DNNSPMV_CHECK_MSG(rank == p->value.rank(),
                      "rank mismatch loading param " << p->name);
    std::vector<std::int64_t> shape(rank);
    for (auto& d : shape) read_pod(is, d);
    DNNSPMV_CHECK_MSG(shape == p->value.shape(),
                      "shape mismatch loading param " << p->name);
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    DNNSPMV_CHECK_MSG(is.good(), "truncated model file");
  }
}

void save_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  std::ofstream os(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(os.is_open(), "cannot open " << path << " for write");
  save_params(os, params);
}

void load_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  std::ifstream is(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(is.is_open(), "cannot open " << path);
  load_params(is, params);
}

void copy_params(const std::vector<Param*>& src,
                 const std::vector<Param*>& dst) {
  DNNSPMV_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    DNNSPMV_CHECK_MSG(src[i]->value.shape() == dst[i]->value.shape(),
                      "copy_params shape mismatch at " << i);
    dst[i]->value = src[i]->value;
  }
}

}  // namespace dnnspmv
