#include "src/obs/timeseries.h"

#include "src/common/json.h"

namespace emu::obs {

void TimeSeriesRecorder::Record(Picoseconds ts,
                                const std::vector<std::pair<std::string, u64>>& values) {
  const u64 index = offered_++;
  if (stride_ > 1 && index % stride_ != 0) {
    ++dropped_;
    return;
  }
  Row row;
  row.ts = ts;
  row.values = values;
  rows_.push_back(std::move(row));
  if (rows_.size() >= capacity_) {
    Compact();
  }
}

void TimeSeriesRecorder::Compact() {
  // Keep even positions: retained rows were offered at indices 0, s, 2s, ...
  // so the survivors sit at 0, 2s, 4s, ... — exactly the grid the doubled
  // stride accepts from here on.
  usize write = 0;
  for (usize read = 0; read < rows_.size(); read += 2) {
    if (write != read) {
      rows_[write] = std::move(rows_[read]);
    }
    ++write;
  }
  dropped_ += rows_.size() - write;
  rows_.resize(write);
  stride_ *= 2;
}

std::string TimeSeriesRecorder::SeriesJson() const {
  // Pivot rows into per-metric series, preserving first-seen metric order.
  std::vector<std::string> names;
  std::vector<std::vector<std::pair<Picoseconds, u64>>> series;
  for (const Row& row : rows_) {
    for (const auto& [name, value] : row.values) {
      usize slot = names.size();
      for (usize i = 0; i < names.size(); ++i) {
        if (names[i] == name) {
          slot = i;
          break;
        }
      }
      if (slot == names.size()) {
        names.push_back(name);
        series.emplace_back();
      }
      series[slot].emplace_back(row.ts, value);
    }
  }
  std::string out;
  out += "{\"stride\":";
  out += std::to_string(stride_);
  out += ",\"offered\":";
  out += std::to_string(offered_);
  out += ",\"dropped\":";
  out += std::to_string(dropped_);
  out += ",\"series\":[";
  for (usize i = 0; i < names.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "{\"name\":";
    json::AppendString(out, names[i]);
    out += ",\"points\":[";
    for (usize p = 0; p < series[i].size(); ++p) {
      if (p > 0) {
        out += ',';
      }
      out += '[';
      out += std::to_string(series[i][p].first);
      out += ',';
      out += std::to_string(series[i][p].second);
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace emu::obs
