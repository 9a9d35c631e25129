// Fully connected layer (paper eq. 6: y = Wx + b).
#pragma once

#include "nn/module.h"

namespace rptcn {
class Rng;
}

namespace rptcn::nn {

class Linear : public Module {
 public:
  /// Weight [out, in] Xavier-initialised; bias zero unless disabled.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool bias = true);

  /// x: [N, in] -> [N, out].
  Variable forward(const Variable& x) const;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  // Read-only parameter access, for inspection.
  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }  ///< undefined unless bias

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Variable weight_;
  Variable bias_;
};

}  // namespace rptcn::nn
