// Module base class: parameter registry, train/eval mode, checkpointing.
//
// Modules own their submodules as ordinary members and register them (and
// their parameters) by name in the constructor. parameters() walks the tree.
// Layers have no virtual forward — each exposes a typed forward for its
// activation shape. Whole forecasting nets share one: ForecastNet below.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace rptcn::nn {

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<Variable> parameters() const;
  /// Parameters with hierarchical dotted names ("block0.conv1.v", ...).
  std::vector<std::pair<std::string, Variable>> named_parameters() const;

  /// Total scalar parameter count.
  std::size_t parameter_count() const;

  /// Clear gradients of every parameter.
  void zero_grad();

  /// Switch between training (dropout active) and evaluation mode.
  void set_training(bool training);
  bool training() const { return training_; }

  /// Save/load all parameters by name to a checkpoint file.
  void save(const std::string& path) const;
  void load(const std::string& path);

 protected:
  /// Create and register a trainable parameter.
  Variable register_parameter(std::string name, Tensor value);
  /// Register a child module (must outlive this module — it is a member).
  void register_module(std::string name, Module& child);

 private:
  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

/// The contract every forecasting net meets (RptcnNet, LstmNet, BiLstmNet,
/// CnnLstm), so training, checkpoints and serving handle any of them
/// through one type.
class ForecastNet : public Module {
 public:
  /// x: [N, F, T] -> forecast [N, horizon].
  virtual Variable forward(const Variable& x) = 0;
  /// A freshly initialised net built from this net's own options: the same
  /// architecture and parameter order, with initial (not current) weights.
  virtual std::unique_ptr<ForecastNet> rebuild() const = 0;
  /// F, the indicator channels each window carries.
  virtual std::size_t input_features() const = 0;
  /// Forecast steps per window.
  virtual std::size_t horizon() const = 0;
};

}  // namespace rptcn::nn
