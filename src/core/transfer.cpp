#include "core/transfer.hpp"

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace dnnspmv {

std::string migration_method_name(MigrationMethod m) {
  switch (m) {
    case MigrationMethod::kFromScratch: return "from-scratch";
    case MigrationMethod::kContinuous: return "continuous-evolvement";
    case MigrationMethod::kTopEvolve: return "top-evolvement";
  }
  DNNSPMV_CHECK_MSG(false, "invalid MigrationMethod");
}

MergeNet migrate_model(const CnnSpec& spec, MergeNet& source_model,
                       MigrationMethod method, const Dataset& target_train,
                       const TrainConfig& cfg) {
  // Heads past 0 were fitted on the source's tower codes; only top
  // evolvement keeps those codes (and those heads) as they are.
  DNNSPMV_CHECK_ERRC(
      method == MigrationMethod::kTopEvolve || source_model.num_heads() == 1,
      errc::invalid_argument,
      migration_method_name(method) << " would move the codes a head reads");
  MergeNet model = build_cnn(spec);
  for (std::size_t h = 1; h < source_model.num_heads(); ++h)
    add_cnn_head(model, spec);
  if (method != MigrationMethod::kFromScratch)
    copy_params(source_model.params(), model.params());
  if (method == MigrationMethod::kTopEvolve)
    model.freeze_towers();
  else
    model.unfreeze_all();
  if (!target_train.samples.empty())
    train_cnn(model, target_train, num_net_inputs(spec), cfg);
  return model;
}

}  // namespace dnnspmv
