#include "stream/channel.h"

#include <cmath>

#include "common/check.h"

namespace rptcn::stream {

void ChannelOptions::validate() const {
  RPTCN_CHECK(capacity > 0, "ChannelOptions.capacity must be >= 1");
}

IngestChannel::IngestChannel(std::vector<std::string> names,
                             ChannelOptions options)
    : names_(std::move(names)) {
  options.validate();
  RPTCN_CHECK(!names_.empty(), "IngestChannel needs at least one feature");
  normalizer_ = OnlineNormalizer(names_);
  rings_.reserve(names_.size());
  for (std::size_t f = 0; f < names_.size(); ++f)
    rings_.emplace_back(options.capacity);
}

bool IngestChannel::ingest(const std::vector<double>& row) {
  RPTCN_CHECK(row.size() == names_.size(),
              "IngestChannel::ingest got " << row.size() << " values for "
                                           << names_.size() << " features");
  for (const double v : row) {
    if (!std::isfinite(v)) {
      ++dropped_;
      return false;
    }
  }
  normalizer_.observe(row);
  for (std::size_t f = 0; f < names_.size(); ++f) rings_[f].push(row[f]);
  ++ticks_;
  return true;
}

void IngestChannel::replay(const data::TimeSeriesFrame& frame) {
  std::vector<const std::vector<double>*> cols;
  cols.reserve(names_.size());
  for (const std::string& name : names_) {
    RPTCN_CHECK(frame.has(name), "IngestChannel::replay frame is missing "
                                 "feature: " << name);
    cols.push_back(&frame.column(name));
  }
  std::vector<double> row(names_.size());
  for (std::size_t t = 0; t < frame.length(); ++t) {
    for (std::size_t f = 0; f < cols.size(); ++f) row[f] = (*cols[f])[t];
    ingest(row);
  }
}

bool IngestChannel::ready(std::size_t window) const {
  return !rings_.empty() && rings_.front().size() >= window;
}

double IngestChannel::latest_raw(std::size_t f) const {
  RPTCN_CHECK(f < rings_.size(), "latest_raw: feature index out of range");
  return rings_[f].back();
}

double IngestChannel::latest_norm(std::size_t f) const {
  return normalizer_.normalize(f, latest_raw(f));
}

Tensor IngestChannel::latest_window(std::size_t window) const {
  RPTCN_CHECK(ready(window), "latest_window(" << window << ") but only "
                                              << rings_.front().size()
                                              << " ticks retained");
  Tensor out({names_.size(), window});
  for (std::size_t f = 0; f < names_.size(); ++f) {
    const RingBuffer<double>& ring = rings_[f];
    const std::size_t first = ring.size() - window;
    float* dst = out.raw() + f * window;
    for (std::size_t t = 0; t < window; ++t)
      dst[t] = static_cast<float>(normalizer_.normalize(f, ring[first + t]));
  }
  return out;
}

data::TimeSeriesFrame IngestChannel::history(std::size_t count) const {
  RPTCN_CHECK(!rings_.empty() && count <= rings_.front().size(),
              "history(" << count << ") but only "
                         << (rings_.empty() ? 0 : rings_.front().size())
                         << " ticks retained");
  data::TimeSeriesFrame out;
  for (std::size_t f = 0; f < names_.size(); ++f)
    out.add(names_[f], rings_[f].tail(count));
  return out;
}

}  // namespace rptcn::stream
