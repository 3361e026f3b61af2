#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

void Lane::begin(const char* name, std::uint64_t request) {
  const std::uint64_t now = ns_between(epoch_, Clock::now());
  std::int64_t index = -1;
  if (spans_.size() < kMaxSpans) {
    index = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
    spans_.push_back({name, now, now, parent, request});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, now, 0, index, request});
}

void Lane::end() {
  const std::uint64_t now = ns_between(epoch_, Clock::now());
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = now - frame.start_ns;
  if (frame.index >= 0) spans_[static_cast<std::size_t>(frame.index)].end_ns = now;
  // Children run sequentially inside their parent on this lane, so the
  // part of the parent they cover is the sum of their durations.
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  } else {
    root_ns_ += duration;
  }
  NameStats& stats = stats_[frame.name];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - std::min(duration, frame.child_ns);
  if (stats.durations_ns.size() < kMaxSamples) stats.durations_ns.push_back(duration);
}

Lane* Tracer::new_lane() {
  if (!enabled_) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>(lanes_.size(), epoch_));
  return lanes_.back().get();
}

NameStats Tracer::merged(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  NameStats out;
  for (const auto& lane : lanes_) {
    const auto it = lane->stats().find(name);
    if (it == lane->stats().end()) continue;
    out.count += it->second.count;
    out.total_ns += it->second.total_ns;
    out.self_ns += it->second.self_ns;
    out.durations_ns.insert(out.durations_ns.end(), it->second.durations_ns.begin(),
                            it->second.durations_ns.end());
  }
  return out;
}

double Tracer::self_ms(std::string_view prefix) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t ns = 0;
  for (const auto& lane : lanes_) {
    for (const auto& [name, stats] : lane->stats()) {
      if (name.substr(0, prefix.size()) == prefix) ns += stats.self_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

double Tracer::p50_us(std::string_view name) const {
  NameStats stats = merged(name);
  if (stats.durations_ns.empty()) return 0.0;
  std::sort(stats.durations_ns.begin(), stats.durations_ns.end());
  return static_cast<double>(percentile_sorted(stats.durations_ns, 0.5)) / 1e3;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->dropped();
  return total;
}

std::string Tracer::self_time_table() const {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_name;  // self, count
  std::map<std::string, std::uint64_t> by_layer;
  double reference_ms = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& lane : lanes_) {
      reference_ms += static_cast<double>(lane->root_ns()) / 1e6;
      for (const auto& [name, stats] : lane->stats()) {
        auto& entry = by_name[std::string(name)];
        entry.first += stats.self_ns;
        entry.second += stats.count;
        by_layer[std::string(name.substr(0, name.find('.')))] += stats.self_ns;
      }
    }
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(1);
  const auto share = [&](std::uint64_t ns) {
    return reference_ms > 0 ? 100.0 * static_cast<double>(ns) / 1e6 / reference_ms : 0.0;
  };
  out << "self time by span (shares of " << reference_ms << " ms traced, all lanes)\n";
  for (const auto& [name, entry] : by_name) {
    out << "  " << std::left << std::setw(40) << name << std::right << std::setw(12)
        << static_cast<double>(entry.first) / 1e6 << " ms" << std::setw(8)
        << share(entry.first) << " %  n=" << entry.second << "\n";
  }
  out << "self time by layer\n";
  for (const auto& [layer, ns] : by_layer) {
    out << "  " << std::left << std::setw(40) << layer << std::right << std::setw(12)
        << static_cast<double>(ns) / 1e6 << " ms" << std::setw(8) << share(ns) << " %\n";
  }
  return out.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    for (const SpanRecord& span : lane->spans()) {
      char buffer[320];
      std::snprintf(buffer, sizeof buffer,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%zu,\"args\":{\"request\":%llu,"
                    "\"parent\":%lld}}",
                    first ? "" : ",", span.name,
                    static_cast<int>(std::string_view(span.name).find('.')), span.name,
                    static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3, lane->id(),
                    static_cast<unsigned long long>(span.request),
                    static_cast<long long>(span.parent));
      file << buffer;
      first = false;
    }
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

}  // namespace perfbench
