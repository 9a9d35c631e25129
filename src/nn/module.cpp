#include "nn/module.h"

#include "common/check.h"
#include "tensor/tensor_io.h"

namespace rptcn::nn {

std::vector<Variable> Module::parameters() const {
  std::vector<Variable> out;
  for (const auto& [name, p] : named_parameters()) out.push_back(p);
  return out;
}

std::vector<std::pair<std::string, Variable>> Module::named_parameters() const {
  std::vector<std::pair<std::string, Variable>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [name, child] : children_)
    for (const auto& [cname, p] : child->named_parameters())
      out.emplace_back(name + "." + cname, p);
  return out;
}

std::size_t Module::parameter_count() const {
  std::size_t n = 0;
  for (const auto& p : parameters()) n += p.size();
  return n;
}

void Module::zero_grad() {
  for (auto& p : parameters()) p.zero_grad();
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

void Module::save(const std::string& path) const {
  std::vector<std::pair<std::string, Tensor>> items;
  for (const auto& [name, p] : named_parameters())
    items.emplace_back(name, p.value());
  write_tensors_file(path, items);
}

void Module::load(const std::string& path) {
  const auto items = read_tensors_file(path);
  auto params = named_parameters();
  RPTCN_CHECK(items.size() == params.size(),
              "checkpoint has " << items.size() << " tensors, model has "
                                << params.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    RPTCN_CHECK(items[i].first == params[i].first,
                "checkpoint order mismatch at " << items[i].first << " vs "
                                                << params[i].first);
    RPTCN_CHECK(items[i].second.same_shape(params[i].second.value()),
                "checkpoint shape mismatch for " << items[i].first);
    params[i].second.mutable_value() = items[i].second;
  }
}

Variable Module::register_parameter(std::string name, Tensor value) {
  Variable p(std::move(value), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), p);
  return p;
}

void Module::register_module(std::string name, Module& child) {
  children_.emplace_back(std::move(name), &child);
}

}  // namespace rptcn::nn
