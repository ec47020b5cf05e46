// Cross-architecture model migration via transfer learning (paper §6).
//
// Three ways to obtain a model for a *target* platform given a model
// trained on a *source* platform:
//
//  * from scratch          — ignore the source model; random init.
//  * continuous evolvement — warm-start all parameters from the source
//                            model, fine-tune everything.
//  * top evolvement        — warm-start, freeze the convolutional towers
//                            ("CNN codes" stay fixed), retrain the head.
#pragma once

#include <string>

#include "core/trainer.hpp"

namespace dnnspmv {

enum class MigrationMethod : std::int32_t {
  kFromScratch = 0,
  kContinuous = 1,
  kTopEvolve = 2,
};

std::string migration_method_name(MigrationMethod m);

/// Builds a model for the target platform with `method`, training on
/// `target_train` (labels collected on the target machine).
/// `source_model` supplies the warm-start weights for the evolvement
/// methods and is ignored for from-scratch. Only head 0 trains; a source
/// with further heads (fitted on its tower codes) migrates by top
/// evolvement only, which carries those heads bitwise — other methods
/// throw errc::invalid_argument.
MergeNet migrate_model(const CnnSpec& spec, MergeNet& source_model,
                       MigrationMethod method, const Dataset& target_train,
                       const TrainConfig& cfg);

}  // namespace dnnspmv
