// Concept-drift detection over the live stream.
//
// Two complementary detectors, both O(1) per observation:
//  * PageHinkley — the classic sequential change-point test: accumulate
//    m_t = sum(v_i - mean_i - delta) and fire when m_t rises more than
//    `lambda` above its running minimum. Run over one-step-ahead absolute
//    residuals it detects "the model got worse"; run over a normalised
//    input it detects "the distribution moved" even before the model decays.
//  * WindowedErrorMonitor — ratio of the trailing short-window mean error
//    to a longer reference window; robust to slow residual creep that
//    Page-Hinkley's mean tracks away.
//
// DriftMonitor bundles one residual Page-Hinkley + one windowed monitor for
// the model error and one Page-Hinkley per input indicator, and exports
// stream/drift_* metrics through obs:: so a metrics snapshot shows what
// fired and how close the statistics sit to their thresholds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stream/ring_buffer.h"

namespace rptcn::stream {

struct PageHinkleyOptions {
  double delta = 0.005;          ///< slack absorbing normal fluctuation
  double lambda = 0.1;           ///< fire when m - min(m) exceeds this
  std::size_t min_samples = 30;  ///< warmup before the test may fire
};

class PageHinkley {
 public:
  explicit PageHinkley(PageHinkleyOptions options = {});

  /// Fold one observation; true when drift fires (the detector then resets
  /// itself so the next regime is judged fresh).
  bool update(double v);

  /// Current test statistic m - min(m) (compare against lambda).
  double statistic() const { return mt_ - min_mt_; }
  /// Statistic as computed by the most recent update(), surviving the
  /// fire-reset — on the tick the detector fires this is the value that
  /// crossed lambda, while statistic() already reads 0.
  double last_statistic() const { return last_statistic_; }
  std::size_t samples() const { return n_; }
  void reset();

 private:
  PageHinkleyOptions options_;
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double mt_ = 0.0;
  double min_mt_ = 0.0;
  double last_statistic_ = 0.0;
};

struct WindowedErrorOptions {
  /// Trailing window under test (<= WindowedErrorMonitor::kLongWindow).
  std::size_t short_window = 32;
  double ratio_threshold = 2.0;    ///< fire when short/long exceeds this
  /// Absolute trigger: fire when the short-window mean error exceeds this,
  /// regardless of the ratio (0 disables). The ratio test is blind to a
  /// model that is *consistently* bad — e.g. a freshly swapped generation
  /// that is wrong from its first prediction leaves the reference window
  /// just as bad as the trailing one — and Page-Hinkley tracks its own
  /// mean, so a constant-high residual looks stationary to both. The level
  /// test needs only short_window samples, so it fires soon after a bad
  /// swap instead of waiting out the long-window warmup.
  double level_threshold = 0.0;
  std::size_t min_samples = 64;    ///< warmup before the ratio may fire
};

class WindowedErrorMonitor {
 public:
  /// Reference window: the trailing errors the short window is compared to.
  static constexpr std::size_t kLongWindow = 128;

  explicit WindowedErrorMonitor(WindowedErrorOptions options = {});

  /// Fold one absolute error; true when the ratio or level test fires (the
  /// monitor then resets so the next model is judged fresh).
  bool update(double abs_error);

  /// Trailing short-window mean over long-window mean (0 while warming up).
  double ratio() const;
  /// Ratio as computed by the most recent update(), surviving the
  /// fire-reset — on a fire this is the value that crossed the threshold,
  /// while ratio() already reads 0 from the emptied window.
  double last_ratio() const { return last_ratio_; }
  /// Mean of the trailing short window (0 until short_window samples seen).
  double short_mean() const;
  /// The most recent fire came from the level test, not the ratio test.
  bool level_fired() const { return level_fired_; }
  void reset();

 private:
  WindowedErrorOptions options_;
  RingBuffer<double> errors_;
  bool level_fired_ = false;
  double last_ratio_ = 0.0;
};

struct DriftOptions {
  PageHinkleyOptions residual_ph;   ///< over one-step absolute residuals
  WindowedErrorOptions windowed;    ///< over the same residuals
  PageHinkleyOptions input_ph;      ///< per input indicator, over values
  /// Metrics tenant label for the stream/drift_* series; without it N
  /// monitors (one per fleet entity) would sum their event counters and
  /// clobber each other's statistic gauges. Empty keeps the historical
  /// unlabeled names.
  std::string tenant;

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

/// Per-indicator drift aggregation + obs:: export:
///   counters  stream/drift_events, stream/drift_input_events
///   gauges    stream/drift_residual_stat, stream/drift_error_ratio
class DriftMonitor {
 public:
  DriftMonitor(std::vector<std::string> features, DriftOptions options = {});

  /// Feed one normalised input row (one value per feature). True when any
  /// per-indicator Page-Hinkley fires.
  bool observe_inputs(const std::vector<double>& row);

  /// Feed one one-step absolute residual. True when the residual
  /// Page-Hinkley or the windowed ratio fires.
  bool observe_residual(double abs_residual);

  /// Forget all detector state (call after a hot-swap so the fresh model is
  /// judged against its own residual regime, not its predecessor's).
  void reset();

  std::uint64_t events() const { return events_; }
  /// "residual-ph", "error-ratio" or "input:<name>"; empty before any fire.
  const std::string& last_reason() const { return last_reason_; }

  const PageHinkley& residual_detector() const { return residual_ph_; }
  const WindowedErrorMonitor& windowed_monitor() const { return windowed_; }

 private:
  void fired(std::string reason);

  std::vector<std::string> features_;
  DriftOptions options_;
  PageHinkley residual_ph_;
  WindowedErrorMonitor windowed_;
  std::vector<PageHinkley> input_ph_;
  std::uint64_t events_ = 0;
  std::string last_reason_;

  // Registry handles are process-lifetime stable; resolved once here.
  obs::Counter& drift_events_;
  obs::Counter& input_events_;
  obs::Gauge& residual_stat_;
  obs::Gauge& error_ratio_;
};

}  // namespace rptcn::stream
