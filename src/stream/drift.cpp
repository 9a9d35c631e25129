#include "stream/drift.h"

#include <algorithm>

#include "common/check.h"

namespace rptcn::stream {

// ---------------------------------------------------------------------------
// PageHinkley
// ---------------------------------------------------------------------------

PageHinkley::PageHinkley(PageHinkleyOptions options) : options_(options) {
  RPTCN_CHECK(options_.lambda > 0.0, "PageHinkley lambda must be positive");
}

bool PageHinkley::update(double v) {
  ++n_;
  mean_ += (v - mean_) / static_cast<double>(n_);
  mt_ += v - mean_ - options_.delta;
  min_mt_ = std::min(min_mt_, mt_);
  // Captured before the fire-reset so last_statistic() exposes the value
  // that crossed lambda (assigned after reset(), which zeroes it).
  const double stat = statistic();
  const bool fire = n_ >= options_.min_samples && stat > options_.lambda;
  if (fire) reset();
  last_statistic_ = stat;
  return fire;
}

void PageHinkley::reset() {
  n_ = 0;
  mean_ = 0.0;
  mt_ = 0.0;
  min_mt_ = 0.0;
  last_statistic_ = 0.0;
}

// ---------------------------------------------------------------------------
// WindowedErrorMonitor
// ---------------------------------------------------------------------------

WindowedErrorMonitor::WindowedErrorMonitor(WindowedErrorOptions options)
    : options_(options), errors_(kLongWindow) {
  RPTCN_CHECK(options_.short_window > 0 &&
                  options_.short_window <= kLongWindow,
              "WindowedErrorMonitor needs 0 < short_window <= " << kLongWindow);
  RPTCN_CHECK(options_.ratio_threshold > 1.0,
              "ratio_threshold must exceed 1");
}

bool WindowedErrorMonitor::update(double abs_error) {
  errors_.push(abs_error);
  // Captured before any fire-reset empties the window, so last_ratio()
  // exposes the value that crossed the threshold.
  const double current_ratio = ratio();
  bool fire = false;
  bool level = false;
  if (options_.level_threshold > 0.0 &&
      short_mean() > options_.level_threshold) {
    fire = true;
    level = true;
  } else if (errors_.total() >= options_.min_samples &&
             errors_.size() >= kLongWindow &&
             current_ratio > options_.ratio_threshold) {
    fire = true;
  }
  if (fire) {
    reset();
    level_fired_ = level;
  }
  last_ratio_ = current_ratio;
  return fire;
}

double WindowedErrorMonitor::short_mean() const {
  if (errors_.size() < options_.short_window) return 0.0;
  double sum = 0.0;
  for (std::size_t i = errors_.size() - options_.short_window;
       i < errors_.size(); ++i)
    sum += errors_[i];
  return sum / static_cast<double>(options_.short_window);
}

double WindowedErrorMonitor::ratio() const {
  if (errors_.size() < kLongWindow) return 0.0;
  double long_sum = 0.0;
  for (std::size_t i = 0; i < errors_.size(); ++i) long_sum += errors_[i];
  double short_sum = 0.0;
  for (std::size_t i = errors_.size() - options_.short_window;
       i < errors_.size(); ++i)
    short_sum += errors_[i];
  const double long_mean = long_sum / static_cast<double>(errors_.size());
  const double short_mean =
      short_sum / static_cast<double>(options_.short_window);
  if (long_mean <= 0.0) return 0.0;
  return short_mean / long_mean;
}

void WindowedErrorMonitor::reset() {
  errors_ = RingBuffer<double>(errors_.capacity());
  level_fired_ = false;
  last_ratio_ = 0.0;
}

// ---------------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------------

void DriftOptions::validate() const {
  RPTCN_CHECK(residual_ph.lambda > 0.0,
              "DriftOptions.residual_ph.lambda must be positive");
  RPTCN_CHECK(input_ph.lambda > 0.0,
              "DriftOptions.input_ph.lambda must be positive");
  RPTCN_CHECK(windowed.short_window > 0 &&
                  windowed.short_window <= WindowedErrorMonitor::kLongWindow,
              "DriftOptions.windowed.short_window must be in [1, "
                  << WindowedErrorMonitor::kLongWindow << "]");
  RPTCN_CHECK(windowed.ratio_threshold > 1.0,
              "DriftOptions.windowed.ratio_threshold must exceed 1");
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "DriftOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
}

DriftMonitor::DriftMonitor(std::vector<std::string> features,
                           DriftOptions options)
    : features_(std::move(features)),
      options_(options),
      residual_ph_(options.residual_ph),
      windowed_(options.windowed),
      drift_events_(
          obs::metrics().counter("stream/drift_events", options.tenant)),
      input_events_(
          obs::metrics().counter("stream/drift_input_events", options.tenant)),
      residual_stat_(
          obs::metrics().gauge("stream/drift_residual_stat", options.tenant)),
      error_ratio_(
          obs::metrics().gauge("stream/drift_error_ratio", options.tenant)) {
  options_.validate();
  RPTCN_CHECK(!features_.empty(), "DriftMonitor needs at least one feature");
  input_ph_.reserve(features_.size());
  for (std::size_t i = 0; i < features_.size(); ++i)
    input_ph_.emplace_back(options.input_ph);
}

bool DriftMonitor::observe_inputs(const std::vector<double>& row) {
  RPTCN_CHECK(row.size() == features_.size(),
              "DriftMonitor::observe_inputs got " << row.size()
                                                  << " values for "
                                                  << features_.size()
                                                  << " features");
  bool drift = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (input_ph_[i].update(row[i]) && !drift) {
      drift = true;
      input_events_.add(1);
      fired("input:" + features_[i]);
    }
  }
  return drift;
}

bool DriftMonitor::observe_residual(double abs_residual) {
  const bool ph = residual_ph_.update(abs_residual);
  const bool ratio = windowed_.update(abs_residual);
  // Post-update, pre-reset values: on the tick a detector fires the gauges
  // show the statistic that crossed its threshold, not the reset zero.
  residual_stat_.set(residual_ph_.last_statistic());
  error_ratio_.set(windowed_.last_ratio());
  if (ph) fired("residual-ph");
  else if (ratio)
    fired(windowed_.level_fired() ? "error-level" : "error-ratio");
  return ph || ratio;
}

void DriftMonitor::reset() {
  residual_ph_.reset();
  windowed_.reset();
  for (PageHinkley& ph : input_ph_) ph.reset();
}

void DriftMonitor::fired(std::string reason) {
  ++events_;
  drift_events_.add(1);
  last_reason_ = std::move(reason);
}

}  // namespace rptcn::stream
