// Outside-in tracing for the benchmark's traced pass.
//
// Spans are recorded by the benchmark around its own calls into the
// program's layers (nothing under src/ is instrumented). Each thread owns
// one Lane; a Span is an RAII guard that records name, start, end, parent
// span and request id. Per-name totals and self times (duration minus the
// child spans it covers) are aggregated as spans close, so the per-layer
// numbers stay exact even when the stored span list hits its cap. The
// stored spans are written at the end as Chrome trace-event JSON
// ("ph":"X"), which opens in Perfetto or chrome://tracing.
//
// With tracing off every Span is constructed with a null lane and does
// nothing, so the timed pass pays one branch per call site.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;  // since the tracer's epoch
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    // index into the lane's spans, -1 for a root
  std::uint64_t request = 0;
};

struct NameStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> durations_ns;  // capped sample for percentiles
};

/// One thread's span stack and records. Not thread-safe: one owner thread.
class Lane {
 public:
  Lane(std::size_t id, Clock::time_point epoch) : id_(id), epoch_(epoch) {}

  void begin(const char* name, std::uint64_t request);
  void end();

  std::size_t id() const { return id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::map<std::string_view, NameStats>& stats() const { return stats_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Total duration of this lane's root spans.
  std::uint64_t root_ns() const { return root_ns_; }

 private:
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t index;  // stored span index, -1 when dropped
    std::uint64_t request;
  };

  static constexpr std::size_t kMaxSpans = 20'000;
  static constexpr std::size_t kMaxSamples = 400'000;

  std::size_t id_;
  Clock::time_point epoch_;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> spans_;
  std::map<std::string_view, NameStats> stats_;
  std::uint64_t dropped_ = 0;
  std::uint64_t root_ns_ = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// A new lane for the calling thread; nullptr when tracing is off.
  Lane* new_lane();

  /// Stats for one span name merged over every lane.
  NameStats merged(std::string_view name) const;
  /// Sum of self time over span names starting with `prefix`.
  double self_ms(std::string_view prefix) const;
  /// Median duration of one span name, in microseconds.
  double p50_us(std::string_view name) const;
  /// Spans recorded in the stats but not stored, past the per-lane cap.
  std::uint64_t dropped() const;

  /// Self time per span name and per layer (the name's first dotted
  /// component), as shares of the traced time: the sum of root spans.
  std::string self_time_table() const;

  /// Write every stored span as Chrome trace-event JSON. Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards lanes_ (creation happens off the hot path)
  std::vector<std::unique_ptr<Lane>> lanes_;
};

class Span {
 public:
  Span(Lane* lane, const char* name, std::uint64_t request = 0) : lane_(lane) {
    if (lane_) lane_->begin(name, request);
  }
  ~Span() {
    if (lane_) lane_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane* lane_;
};

}  // namespace perfbench
