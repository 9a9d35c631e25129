#include "stream/normalizer.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.h"

namespace rptcn::stream {

namespace {
constexpr const char* kMagic = "rptcn.stream.normalizer.v1";
}

const char* normalizer_kind_name(NormalizerKind kind) {
  switch (kind) {
    case NormalizerKind::kMinMax:
      return "minmax";
    case NormalizerKind::kEwma:
      return "ewma";
  }
  return "minmax";  // unreachable
}

OnlineNormalizer::OnlineNormalizer(std::vector<std::string> names,
                                   NormalizerOptions options)
    : names_(std::move(names)), options_(options), cols_(names_.size()) {
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
      c.min = c.max = c.mean = row[i];
      c.var = 0.0;
    } else {
      // Running min/max: exactly MinMaxScaler::fit_range folded one tick at
      // a time (std::min/std::max over the prefix, same arithmetic).
      c.min = std::min(c.min, row[i]);
      c.max = std::max(c.max, row[i]);
      const double alpha = options_.ewma_alpha;
      const double delta = row[i] - c.mean;
      c.mean += alpha * delta;
      c.var = (1.0 - alpha) * (c.var + alpha * delta * delta);
    }
  }
  ++count_;
}

double OnlineNormalizer::normalize(std::size_t i, double v) const {
  RPTCN_CHECK(i < cols_.size(), "normalize: indicator index out of range");
  RPTCN_CHECK(count_ > 0, "OnlineNormalizer used before any tick");
  const ColumnState& c = cols_[i];
  if (options_.kind == NormalizerKind::kMinMax) {
    // Bit-for-bit the arithmetic of MinMaxScaler::transform (eq. 1).
    const double range = c.max - c.min;
    if (range == 0.0) return 0.0;
    return (v - c.min) / range;
  }
  return (v - c.mean) / std::sqrt(c.var + options_.epsilon);
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
  if (options_.kind == NormalizerKind::kMinMax)
    return c.min + v * (c.max - c.min);
  return c.mean + v * std::sqrt(c.var + options_.epsilon);
}

double OnlineNormalizer::min_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "min_of: index out of range");
  return cols_[i].min;
}
double OnlineNormalizer::max_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "max_of: index out of range");
  return cols_[i].max;
}
double OnlineNormalizer::mean_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "mean_of: index out of range");
  return cols_[i].mean;
}
double OnlineNormalizer::var_of(std::size_t i) const {
  RPTCN_CHECK(i < cols_.size(), "var_of: index out of range");
  return cols_[i].var;
}

models::CheckpointStatus OnlineNormalizer::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return models::CheckpointStatus::kIoError;
  out << kMagic << "\n"
      << "kind " << normalizer_kind_name(options_.kind) << "\n"
      << std::setprecision(17) << "ewma_alpha " << options_.ewma_alpha << "\n"
      << "epsilon " << options_.epsilon << "\n"
      << "count " << count_ << "\n"
      << "cols " << names_.size() << "\n";
  for (std::size_t i = 0; i < names_.size(); ++i)
    out << names_[i] << " " << cols_[i].min << " " << cols_[i].max << " "
        << cols_[i].mean << " " << cols_[i].var << "\n";
  return out.good() ? models::CheckpointStatus::kOk
                    : models::CheckpointStatus::kIoError;
}

models::CheckpointStatus OnlineNormalizer::restore(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return models::CheckpointStatus::kIoError;

  std::string magic;
  if (!std::getline(in, magic) || magic != kMagic)
    return models::CheckpointStatus::kIoError;

  std::string key, kind_name;
  NormalizerOptions opts;
  std::size_t count = 0, ncols = 0;
  if (!(in >> key >> kind_name) || key != "kind")
    return models::CheckpointStatus::kIoError;
  if (kind_name == normalizer_kind_name(NormalizerKind::kMinMax))
    opts.kind = NormalizerKind::kMinMax;
  else if (kind_name == normalizer_kind_name(NormalizerKind::kEwma))
    opts.kind = NormalizerKind::kEwma;
  else
    return models::CheckpointStatus::kIoError;
  if (!(in >> key >> opts.ewma_alpha) || key != "ewma_alpha")
    return models::CheckpointStatus::kIoError;
  if (!(in >> key >> opts.epsilon) || key != "epsilon")
    return models::CheckpointStatus::kIoError;
  if (!(in >> key >> count) || key != "count")
    return models::CheckpointStatus::kIoError;
  if (!(in >> key >> ncols) || key != "cols" || ncols == 0)
    return models::CheckpointStatus::kIoError;

  std::vector<std::string> names(ncols);
  std::vector<ColumnState> cols(ncols);
  for (std::size_t i = 0; i < ncols; ++i) {
    if (!(in >> names[i] >> cols[i].min >> cols[i].max >> cols[i].mean >>
          cols[i].var))
      return models::CheckpointStatus::kIoError;
  }
  if (!names_.empty() && names != names_)
    return models::CheckpointStatus::kShapeMismatch;

  names_ = std::move(names);
  options_ = opts;
  cols_ = std::move(cols);
  count_ = count;
  return models::CheckpointStatus::kOk;
}

}  // namespace rptcn::stream
