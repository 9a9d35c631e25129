#include "fleet/options.h"

#include "common/check.h"

namespace rptcn::fleet {

void EntitySpec::validate() const {
  RPTCN_CHECK(!id.empty(), "EntitySpec.id must be non-empty");
  RPTCN_CHECK(id.find_first_of("{}=/") == std::string::npos,
              "EntitySpec.id must not contain '{', '}', '=' or '/': \""
                  << id << "\"");
  RPTCN_CHECK(cohort.find_first_of("{}=/") == std::string::npos,
              "EntitySpec.cohort must not contain '{', '}', '=' or '/': \""
                  << cohort << "\"");
  model.validate();
}

void FleetOptions::validate() const {
  RPTCN_CHECK(shards >= 1, "FleetOptions.shards must be >= 1");
  RPTCN_CHECK(workers >= 1, "FleetOptions.workers must be >= 1");
  RPTCN_CHECK(max_queued_ticks >= 1,
              "FleetOptions.max_queued_ticks must be >= 1");
  RPTCN_CHECK(max_entity_backlog >= 1,
              "FleetOptions.max_entity_backlog must be >= 1");
  RPTCN_CHECK(retrain_workers >= 1,
              "FleetOptions.retrain_workers must be >= 1");
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "FleetOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
  channel.validate();
  drift.validate();
  retrain.validate();
  engine.validate();
  RPTCN_CHECK(channel.capacity >= retrain.window.window,
              "FleetOptions.channel.capacity ("
                  << channel.capacity
                  << ") must retain at least one forecast window ("
                  << retrain.window.window << " ticks)");
}

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kQueueFull: return "queue_full";
    case Admission::kBacklogFull: return "backlog_full";
    case Admission::kUnknownEntity: return "unknown_entity";
    case Admission::kStopped: return "stopped";
  }
  return "unknown";
}

}  // namespace rptcn::fleet
