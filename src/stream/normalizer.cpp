#include "stream/normalizer.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.h"

namespace rptcn::stream {

namespace {
constexpr const char* kMagic = "rptcn.stream.normalizer.v2";
}

OnlineNormalizer::OnlineNormalizer(std::vector<std::string> names)
    : names_(std::move(names)), cols_(names_.size()) {
  RPTCN_CHECK(!names_.empty(), "OnlineNormalizer needs at least one indicator");
}

void OnlineNormalizer::observe(const std::vector<double>& row) {
  if (frozen_) return;
  RPTCN_CHECK(row.size() == names_.size(),
              "OnlineNormalizer::observe got " << row.size() << " values for "
                                               << names_.size()
                                               << " indicators");
  for (std::size_t i = 0; i < row.size(); ++i) {
    RPTCN_CHECK(std::isfinite(row[i]),
                "OnlineNormalizer::observe on a non-finite value — drop such "
                "ticks upstream (IngestChannel does)");
    ColumnState& c = cols_[i];
    if (count_ == 0) {
      c.min = c.max = row[i];
    } else {
      // Running min/max: exactly MinMaxScaler::fit_range folded one tick at
      // a time (std::min/std::max over the prefix, same arithmetic).
      c.min = std::min(c.min, row[i]);
      c.max = std::max(c.max, row[i]);
    }
  }
  ++count_;
}

double OnlineNormalizer::normalize(std::size_t i, double v) const {
  RPTCN_CHECK(i < cols_.size(), "normalize: indicator index out of range");
  RPTCN_CHECK(count_ > 0, "OnlineNormalizer used before any tick");
  const ColumnState& c = cols_[i];
  // Bit-for-bit the arithmetic of MinMaxScaler::transform (eq. 1).
  const double range = c.max - c.min;
  if (range == 0.0) return 0.0;
  return (v - c.min) / range;
}

data::TimeSeriesFrame OnlineNormalizer::transform(
    const data::TimeSeriesFrame& frame) const {
  RPTCN_CHECK(frame.indicators() == names_.size(),
              "transform: frame has " << frame.indicators()
                                      << " columns, normalizer is bound to "
                                      << names_.size());
  data::TimeSeriesFrame out;
  for (std::size_t c = 0; c < frame.indicators(); ++c) {
    RPTCN_CHECK(frame.name(c) == names_[c],
                "transform: column " << c << " is \"" << frame.name(c)
                                     << "\", normalizer expects \""
                                     << names_[c] << "\"");
    std::vector<double> vals = frame.column(c);
    for (double& v : vals) v = normalize(c, v);
    out.add(frame.name(c), std::move(vals));
  }
  return out;
}

double OnlineNormalizer::denormalize(std::size_t i, double v) const {
  RPTCN_CHECK(i < cols_.size(), "denormalize: indicator index out of range");
  RPTCN_CHECK(count_ > 0, "OnlineNormalizer used before any tick");
  const ColumnState& c = cols_[i];
  return c.min + v * (c.max - c.min);
}

double OnlineNormalizer::min_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "min_of: index out of range");
  return cols_[i].min;
}
double OnlineNormalizer::max_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "max_of: index out of range");
  return cols_[i].max;
}

models::CheckpointStatus OnlineNormalizer::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return models::CheckpointStatus::kIoError;
  out << kMagic << "\n"
      << std::setprecision(17) << "count " << count_ << "\n"
      << "cols " << names_.size() << "\n";
  for (std::size_t i = 0; i < names_.size(); ++i)
    out << names_[i] << " " << cols_[i].min << " " << cols_[i].max << "\n";
  return out.good() ? models::CheckpointStatus::kOk
                    : models::CheckpointStatus::kIoError;
}

models::CheckpointStatus OnlineNormalizer::restore(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return models::CheckpointStatus::kIoError;

  std::string magic;
  if (!std::getline(in, magic) || magic != kMagic)
    return models::CheckpointStatus::kIoError;

  std::string key;
  std::size_t count = 0, ncols = 0;
  if (!(in >> key >> count) || key != "count")
    return models::CheckpointStatus::kIoError;
  if (!(in >> key >> ncols) || key != "cols" || ncols == 0)
    return models::CheckpointStatus::kIoError;

  std::vector<std::string> names(ncols);
  std::vector<ColumnState> cols(ncols);
  for (std::size_t i = 0; i < ncols; ++i) {
    if (!(in >> names[i] >> cols[i].min >> cols[i].max))
      return models::CheckpointStatus::kIoError;
  }
  if (!names_.empty() && names != names_)
    return models::CheckpointStatus::kShapeMismatch;

  names_ = std::move(names);
  cols_ = std::move(cols);
  count_ = count;
  return models::CheckpointStatus::kOk;
}

}  // namespace rptcn::stream
