#include "sched/forecast.h"

#include <algorithm>

#include "common/check.h"

namespace rptcn::sched {

namespace {

const std::vector<double>& column_checked(const data::TimeSeriesFrame& history,
                                          const char* name) {
  RPTCN_CHECK(history.has(name) && history.length() > 0,
              "forecast history needs a non-empty \"" << name << "\" column");
  return history.column(name);
}

double last_mem(const data::TimeSeriesFrame& history) {
  return column_checked(history, "mem_util_percent").back();
}

}  // namespace

ResourceForecast LastValueSource::forecast(
    const data::TimeSeriesFrame& history) {
  ResourceForecast f;
  f.cpu = column_checked(history, "cpu_util_percent").back();
  f.mem = last_mem(history);
  return f;
}

MaxWindowSource::MaxWindowSource(std::size_t window)
    : name_("naive-max" + std::to_string(window)), window_(window) {
  RPTCN_CHECK(window_ > 0, "MaxWindowSource window must be >= 1");
}

ResourceForecast MaxWindowSource::forecast(
    const data::TimeSeriesFrame& history) {
  const std::vector<double>& cpu = column_checked(history, "cpu_util_percent");
  const std::size_t span = std::min(window_, cpu.size());
  ResourceForecast f;
  f.cpu = *std::max_element(cpu.end() - static_cast<std::ptrdiff_t>(span),
                            cpu.end());
  f.mem = last_mem(history);
  return f;
}

// ---------------------------------------------------------------------------
// SessionSource
// ---------------------------------------------------------------------------

SessionSource::SessionSource(std::string name,
                             const data::TimeSeriesFrame& bootstrap,
                             SessionSourceOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  RPTCN_CHECK(!options_.features.empty(),
              "SessionSource needs >= 1 feature (target first)");
  fit(bootstrap, "bootstrap:" + name_);
  RPTCN_CHECK(session_ != nullptr,
              "SessionSource \"" << name_ << "\" bootstrap fit failed: "
                                 << (last_outcome_.error.empty()
                                         ? "quality gate rejected every attempt"
                                         : last_outcome_.error));
}

void SessionSource::fit(const data::TimeSeriesFrame& history,
                        const std::string& reason) {
  const data::TimeSeriesFrame selected = history.select(options_.features);
  const std::size_t span =
      std::min(options_.retrain.history, selected.length());
  RPTCN_CHECK(span > options_.retrain.window.window,
              "SessionSource \"" << name_ << "\": " << span
                                 << " history rows cannot fill a window of "
                                 << options_.retrain.window.window);
  const data::TimeSeriesFrame tail =
      selected.slice(selected.length() - span, span);

  // Same normalisation discipline as the streaming stack: min-max fitted
  // over exactly the rows the model trains on, then frozen for serving.
  stream::OnlineNormalizer normalizer(options_.features);
  std::vector<double> row(options_.features.size());
  for (std::size_t t = 0; t < tail.length(); ++t) {
    for (std::size_t f = 0; f < row.size(); ++f) row[f] = tail.column(f)[t];
    normalizer.observe(row);
  }
  normalizer.freeze();

  stream::FittedGeneration g = stream::fit_generation_gated(
      tail, normalizer, options_.retrain, generation_ + 1, reason, name_);
  last_outcome_ = g.outcome;
  if (g.session == nullptr) return;  // incumbent keeps serving
  session_ = std::move(g.session);
  normalizer_ = std::move(normalizer);
  ++generation_;
}

void SessionSource::refit(const data::TimeSeriesFrame& history) {
  fit(history, "refit:" + name_);
}

ResourceForecast SessionSource::forecast(
    const data::TimeSeriesFrame& history) {
  const std::size_t window = options_.retrain.window.window;
  const data::TimeSeriesFrame selected = history.select(options_.features);
  const std::size_t n = selected.length();
  RPTCN_CHECK(n >= window, "SessionSource \"" << name_ << "\" needs "
                                              << window << " rows, got " << n);

  // The trailing window, normalised with the float cast of
  // IngestChannel::latest_window — the model sees bit-identical inputs to
  // the streaming serving path.
  const std::size_t features = options_.features.size();
  Tensor x({1, features, window});
  for (std::size_t f = 0; f < features; ++f) {
    const std::vector<double>& col = selected.column(f);
    float* dst = x.raw() + f * window;
    for (std::size_t t = 0; t < window; ++t)
      dst[t] =
          static_cast<float>(normalizer_.normalize(f, col[n - window + t]));
  }
  const Tensor out = session_->run(x);
  ResourceForecast f;
  f.cpu = normalizer_.denormalize(0, static_cast<double>(out.raw()[0]));
  f.mem = last_mem(history);
  return f;
}

}  // namespace rptcn::sched
