// Fleet construction vocabulary: the typed aggregates a FleetManager (or a
// FleetBuilder) is configured from, plus the admission-control result enum.
//
// Everything is an Options struct with a validate() that throws
// common::CheckError naming the offending field — the same construction API
// the serve/stream layers expose (EngineOptions, ChannelOptions,
// DriftOptions, RetrainOptions).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "models/registry.h"
#include "serve/engine.h"
#include "stream/channel.h"
#include "stream/drift.h"
#include "stream/retrain.h"

namespace rptcn::fleet {

/// One entity (machine / container / service instance) the fleet serves.
struct EntitySpec {
  /// Unique entity key; also the deterministic shard hash input and the
  /// stem of the entity's checkpoint file names (so no '/').
  std::string id;
  /// Snapshot-sharing group. Entities in one cohort are bootstrapped from a
  /// single fit and share one immutable InferenceSession (shared_ptr) until
  /// drift splinters them onto private generations. Empty = the entity id:
  /// a private cohort of one, no sharing. Names the bootstrap checkpoint.
  std::string cohort;
  /// Cold-start recipe for the cohort's model. The first spec registered
  /// for a cohort wins; later members inherit it.
  models::ForecasterSpec model;

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

struct FleetOptions {
  /// Kept feature columns, target first; empty = the eight Table-I
  /// indicators in canonical order.
  std::vector<std::string> features;

  /// BatchingEngine shards; entities map to shards by FNV-1a hash of the
  /// id, so placement is deterministic across runs and processes.
  std::size_t shards = 4;
  /// Per-shard engine template. The tenant field is overwritten per shard
  /// ("<tenant>/shard<k>") so N shards never collide on serve/* metrics.
  /// max_batch also bounds an ingest worker's claim: the mailboxes whose
  /// forecasts it hands over together before waiting on any of them.
  /// max_delay_us governs nothing here: every fleet forecast reaches its
  /// engine in a wave (BatchingEngine::submit_wave), and waves are never
  /// held for peers.
  serve::EngineOptions engine;

  /// Ingest worker pool multiplexing the per-entity mailboxes.
  std::size_t workers = 4;
  /// Global admission bound: ticks queued across all entities. ingest()
  /// answers kQueueFull beyond it — backpressure, not buffering.
  std::size_t max_queued_ticks = 4096;
  /// Per-entity admission bound: one slow or hot entity answers
  /// kBacklogFull instead of starving the rest of the fleet.
  std::size_t max_entity_backlog = 8;

  /// Per-entity streaming state: ring depth + normalizer policy.
  stream::ChannelOptions channel;
  /// Pin every member's scaler when its cohort bootstraps — the honest
  /// frozen-deployment baseline, since a real batch deployment ships scaler
  /// and weights frozen together. A frozen scaler makes a later regime
  /// shift visible to the input detectors as a sustained out-of-range
  /// excursion instead of being absorbed into the running min/max; the
  /// adapting default re-scales drifted inputs back into the model's
  /// training range, which silently domain-adapts even a never-retrained
  /// model's inputs.
  bool freeze_normalizer_at_bootstrap = false;
  /// Per-entity drift template. The tenant field is overwritten per shard
  /// so detector gauges aggregate per shard and roll up per fleet.
  stream::DriftOptions drift;
  /// Retrain recipe template: window/horizon/history/gate/cooldown/
  /// checkpoint_dir. model_name/model are overridden by each entity's
  /// ForecasterSpec.
  stream::RetrainOptions retrain;

  /// False freezes every bootstrap snapshot (measure drift, never act) —
  /// the fleet-scale static-model baseline.
  bool retrain_on_drift = true;
  /// Global concurrent-retrain budget: the elastic scheduler runs at most
  /// this many fits at once no matter how many entities drift together.
  /// Pending requests queue up to SchedulerOptions::max_queue (256).
  std::size_t retrain_workers = 2;

  /// Metrics namespace for the whole fleet: fleet/* series label as
  /// {tenant=<tenant>}, shard-scoped series as {tenant=<tenant>/shard<k>}.
  std::string tenant = "fleet";

  /// Throws common::CheckError naming the offending field (recurses into
  /// the sub-option validators).
  void validate() const;
};

/// ingest() verdict. Everything except kAccepted means the tick was NOT
/// taken and the caller owns the shed/retry decision.
enum class Admission {
  kAccepted,      ///< queued to the entity's mailbox
  kQueueFull,     ///< global max_queued_ticks reached
  kBacklogFull,   ///< this entity's max_entity_backlog reached
  kUnknownEntity, ///< no such entity id registered
  kStopped,       ///< the fleet is shutting down
};

/// Stable lowercase name for an Admission verdict (logs, bench JSON).
const char* admission_name(Admission a);

}  // namespace rptcn::fleet
