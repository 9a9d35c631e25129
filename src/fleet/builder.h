// FleetBuilder: the fluent construction front of the fleet API.
//
// Single-entity serving is the N=1 case of the same builder — there is one
// way to stand up serving, not a special-cased pipeline next to a fleet:
//
//   FleetOptions opt;
//   opt.shards = 2;
//   opt.retrain = retrain_opts;
//   auto fleet = FleetBuilder()
//                    .options(opt)
//                    .add_cohort("web", {"RPTCN"}, /*count=*/500, "web-")
//                    .add_entity(db_primary)   // private cohort of one
//                    .build();
//   fleet->bootstrap_cohort("web", history_frame);
//
// build() validates the assembled FleetOptions plus every EntitySpec with
// named errors before any thread or engine exists, and returns the running
// manager (workers up, engines up, zero entities bootstrapped).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fleet/manager.h"
#include "fleet/options.h"

namespace rptcn::fleet {

class FleetBuilder {
 public:
  FleetBuilder() = default;

  /// Set the whole options aggregate.
  FleetBuilder& options(FleetOptions options);

  /// Register one entity (cohort defaults to the id — no sharing).
  FleetBuilder& add_entity(EntitySpec spec);
  /// Register `count` entities "<id_prefix>0" .. "<id_prefix><count-1>" in
  /// one cohort sharing `model` — the bulk form a thousand-entity bench or
  /// deployment actually writes.
  FleetBuilder& add_cohort(const std::string& cohort,
                           models::ForecasterSpec model, std::size_t count,
                           const std::string& id_prefix);

  /// Validate everything (named CheckError on the first offending field),
  /// start the manager, register every entity. The builder can be reused
  /// afterwards; build() copies.
  std::unique_ptr<FleetManager> build() const;

 private:
  FleetOptions options_;
  std::vector<EntitySpec> entities_;
};

}  // namespace rptcn::fleet
