// IngestChannel: one stream's ingest state — per-indicator ring buffers
// plus the online normalizer, fed by pushed rows.
//
// The fleet layer owns one per entity (a single stream is a one-entity
// fleet), so the drop-incomplete semantics, normalisation and window
// extraction are one implementation with one parity proof. ingest() is
// O(features), allocation-free in steady state and lock-free — callers that
// share a channel across threads serialize access themselves (the fleet's
// per-entity state mutex does).
#pragma once

#include <string>
#include <vector>

#include "data/timeseries.h"
#include "stream/normalizer.h"
#include "stream/ring_buffer.h"
#include "tensor/tensor.h"

namespace rptcn::stream {

struct ChannelOptions {
  std::size_t capacity = 4096;  ///< ring depth (bounds history())

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

class IngestChannel {
 public:
  /// `names` are the kept feature columns, target first; every pushed row
  /// must carry exactly one value per name, in order.
  explicit IngestChannel(std::vector<std::string> names,
                         ChannelOptions options = {});

  /// Fold one tick into the channel. A row holding any non-finite value
  /// (NaN, as data::clean_drop_incomplete drops, or ±inf) is dropped whole
  /// and false is returned: one such value would poison the running
  /// min/max for good. A complete row updates the normalizer then the
  /// rings.
  bool ingest(const std::vector<double>& row);

  /// ingest() every row of `frame`, which must carry each of names().
  void replay(const data::TimeSeriesFrame& frame);

  /// Complete ticks accepted into the rings.
  std::size_t ticks() const { return ticks_; }
  /// Non-finite ticks dropped.
  std::size_t dropped() const { return dropped_; }
  /// True once `window` ticks are retained.
  bool ready(std::size_t window) const;

  std::size_t features() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  /// Newest raw / normalised value of feature `f` (target is f = 0).
  double latest_raw(std::size_t f) const;
  double latest_norm(std::size_t f) const;

  /// Trailing `window` ticks, normalised under the *current* normalizer
  /// state, as a [F, window] float tensor ready for InferenceSession::run.
  Tensor latest_window(std::size_t window) const;

  /// Copy of the trailing `count` raw ticks as a frame (feature order, the
  /// retrainer's input). Requires count <= retained ticks.
  data::TimeSeriesFrame history(std::size_t count) const;

  const OnlineNormalizer& normalizer() const { return normalizer_; }
  /// Pin the scaler state (see OnlineNormalizer::freeze). Raw ingestion into
  /// the rings continues; only normalisation bounds stop following the data.
  void freeze_normalizer() { normalizer_.freeze(); }

 private:
  std::vector<std::string> names_;
  OnlineNormalizer normalizer_;
  std::vector<RingBuffer<double>> rings_;  ///< raw values, one per feature
  std::size_t ticks_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace rptcn::stream
