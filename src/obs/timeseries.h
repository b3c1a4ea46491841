// TimeSeriesRecorder (emu-pulse): a bounded store of MetricsSampler
// snapshot rows with uniform downsampling.
//
// A soak run can sample for millions of emulated microseconds; an unbounded
// row vector would grow without limit and the dashboard does not need more
// than a few thousand points per series anyway. The recorder keeps at most
// `capacity` rows: when full it compacts by dropping every other retained
// row and doubling its acceptance stride, so the retained rows always form
// a uniform 1-in-stride grid over the offered samples — the classic
// "halve and double" bounded-timeseries scheme. Totals are not lost: each
// retained row is a full registry snapshot (counters are cumulative), so
// rates computed between retained rows stay exact.
//
// Timestamps are emulated picoseconds (deterministic). The recorder itself
// holds no wall-clock data; it is "pulse" because its artifacts (series
// JSON, dashboard HTML) are separate from the deterministic trace stream.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace emu::obs {

class TimeSeriesRecorder {
 public:
  struct Row {
    Picoseconds ts = 0;
    std::vector<std::pair<std::string, u64>> values;
  };

  explicit TimeSeriesRecorder(usize capacity = 4096)
      : capacity_(capacity < 8 ? 8 : capacity) {}

  // Offers one snapshot row; accepted when it falls on the current stride.
  void Record(Picoseconds ts, const std::vector<std::pair<std::string, u64>>& values);

  const std::vector<Row>& rows() const { return rows_; }
  usize capacity() const { return capacity_; }
  usize stride() const { return stride_; }  // 1 until the first compaction
  u64 offered() const { return offered_; }
  u64 dropped() const { return dropped_; }

  // {"stride":s,"offered":n,"dropped":d,"series":[{"name":...,
  //  "points":[[ts_ps,value],...]},...]} — per-metric series pivoted from
  //  the retained rows, in first-seen order.
  std::string SeriesJson() const;

 private:
  void Compact();

  usize capacity_;
  usize stride_ = 1;
  u64 offered_ = 0;
  u64 dropped_ = 0;
  std::vector<Row> rows_;
};

}  // namespace emu::obs

#endif  // SRC_OBS_TIMESERIES_H_
