// Online, checkpointable per-indicator normalisation for the streaming
// ingest path.
//
// A running per-indicator min/max. After observing a replayed prefix this
// is *exactly* the batch path: the retained bounds are bit-identical to
// data::MinMaxScaler::fit on the same prefix and normalize() applies eq. 1
// with the same double arithmetic ((v - min) / (max - min), constant
// columns -> 0), so the online and batch features agree bit-for-bit
// (tests/test_stream.cpp proves it).
//
// The full state round-trips through a text checkpoint (save/restore with
// models::CheckpointStatus results), so a restarted streamer resumes with
// the identical normalisation it left off with.
#pragma once

#include <string>
#include <vector>

#include "data/timeseries.h"
#include "models/forecaster.h"

namespace rptcn::stream {

class OnlineNormalizer {
 public:
  OnlineNormalizer() = default;
  explicit OnlineNormalizer(std::vector<std::string> names);

  /// Fold one complete tick (one finite value per bound indicator) into the
  /// state. A no-op while frozen.
  void observe(const std::vector<double>& row);

  /// Stop folding observations: the scaler state is pinned to what has been
  /// seen so far. This is the deployment mode of a batch-fitted scaler — a
  /// frozen model ships with frozen normalisation, so later out-of-range
  /// inputs map outside [0,1] exactly as they would in production instead
  /// of being silently re-scaled into the model's training range.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Normalise one value of indicator `i` under the *current* state.
  double normalize(std::size_t i, double v) const;

  /// Normalise a whole frame (columns must match the bound names in order)
  /// under the current state — the streaming twin of MinMaxScaler::transform.
  data::TimeSeriesFrame transform(const data::TimeSeriesFrame& frame) const;

  /// Map a normalised target value back to raw units (inverse of eq. 1).
  double denormalize(std::size_t i, double v) const;

  const std::vector<std::string>& names() const { return names_; }
  std::size_t indicators() const { return names_.size(); }
  /// Complete ticks observed.
  std::size_t count() const { return count_; }

  // Per-indicator state accessors (parity tests compare these bit-for-bit
  // against a batch-fitted MinMaxScaler).
  double min_of(std::size_t i) const;
  double max_of(std::size_t i) const;

  /// Write the full state as a text checkpoint.
  models::CheckpointStatus save(const std::string& path) const;
  /// Load a checkpoint. If this normalizer is already bound to names, the
  /// checkpoint must list the same names in the same order
  /// (kShapeMismatch otherwise); a malformed or missing file is kIoError.
  /// On any failure the current state is left untouched.
  models::CheckpointStatus restore(const std::string& path);

 private:
  struct ColumnState {
    double min = 0.0;
    double max = 0.0;
  };

  std::vector<std::string> names_;
  std::vector<ColumnState> cols_;
  std::size_t count_ = 0;
  bool frozen_ = false;  ///< deployment-mode flag; not part of checkpoints
};

}  // namespace rptcn::stream
