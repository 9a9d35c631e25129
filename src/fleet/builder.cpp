#include "fleet/builder.h"

#include <sstream>
#include <utility>

#include "common/check.h"

namespace rptcn::fleet {

FleetBuilder& FleetBuilder::options(FleetOptions options) {
  options_ = std::move(options);
  return *this;
}

FleetBuilder& FleetBuilder::add_entity(EntitySpec spec) {
  if (spec.cohort.empty()) spec.cohort = spec.id;
  entities_.push_back(std::move(spec));
  return *this;
}

FleetBuilder& FleetBuilder::add_cohort(const std::string& cohort,
                                       models::ForecasterSpec model,
                                       std::size_t count,
                                       const std::string& id_prefix) {
  RPTCN_CHECK(count >= 1, "add_cohort count must be >= 1");
  for (std::size_t i = 0; i < count; ++i) {
    std::ostringstream id;
    id << id_prefix << i;
    EntitySpec spec;
    spec.id = id.str();
    spec.cohort = cohort;
    spec.model = model;
    entities_.push_back(std::move(spec));
  }
  return *this;
}

std::unique_ptr<FleetManager> FleetBuilder::build() const {
  options_.validate();
  for (const EntitySpec& spec : entities_) spec.validate();
  auto manager = std::make_unique<FleetManager>(options_);
  for (const EntitySpec& spec : entities_) manager->add_entity(spec);
  return manager;
}

}  // namespace rptcn::fleet
