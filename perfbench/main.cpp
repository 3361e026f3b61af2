// The repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir DIR]
//
// Workloads: rip-legacy, campaign-chaos.
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, from a separate traced pass (layers a workload does not
// exercise read 0 there).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks the output
// against it).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},        {"rip_s", "s"},
    {"cells_per_s", "cells/s"}, {"license_rps", "req/s"},     {"license_p50_us", "us"},
    {"license_p99_us", "us"},   {"license_max_rps", "req/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"ott.ecosystem_ctor_ms", "ms"},
    {"ott.install_app_ms", "ms"},
    {"android.make_device_ms", "ms"},
    {"net.tls.make_server_identity_ms", "ms"},
    {"crypto.rsa_generate_512_ms", "ms"},
    {"core.ripper.instrument_ms", "ms"},
    {"core.ripper.recover_keys_ms", "ms"},
    {"core.ripper.reconstruct_ms", "ms"},
    {"core.ripper.verify_ms", "ms"},
    {"hooking.keybox_scan_us", "us"},
    {"crypto.rsa_generate_1024_ms", "ms"},
    {"crypto.rsa_private_1024_us", "us"},
    {"crypto.aes_ctr_mb_per_s", "MB/s"},
    {"core.ripper.apps_ripped", "count"},
    {"media.bytes_ripped", "bytes"},
    {"core.campaign.stage.setup_ms", "ms"},
    {"core.campaign.stage.attach_ms", "ms"},
    {"core.campaign.stage.play_ms", "ms"},
    {"core.campaign.stage.audit_ms", "ms"},
    {"core.campaign.stage.keybox_ms", "ms"},
    {"core.campaign.stage.rip_ms", "ms"},
    {"core.campaign.stage.flush_ms", "ms"},
    {"core.pipeline.tasks", "count"},
    {"core.pipeline.helped_tasks", "count"},
    {"core.pipeline.stolen_tasks", "count"},
    {"core.pipeline.fence_stalls", "count"},
    {"core.pipeline.waits_parked", "count"},
    {"core.pipeline.timer_wakeups", "count"},
    {"core.pipeline.busy_frac", "ratio"},
    {"core.campaign.floor_gap", "ratio"},
    {"net.attempts", "count"},
    {"net.retries", "count"},
    {"net.giveups", "count"},
    {"net.faults_injected", "count"},
    {"net.useful_ratio", "ratio"},
    {"core.campaign.cells_full", "count"},
    {"core.campaign.cells_degraded", "count"},
    {"core.campaign.cells_partial", "count"},
    {"widevine.service.handle_license_us", "us"},
    {"widevine.license_server.handle_us", "us"},
    {"widevine.service.sessions_opened", "count"},
    {"widevine.service.sessions_evicted", "count"},
    {"widevine.service.admission_rejected", "count"},
    {"widevine.service.rate_limited", "count"},
    {"crypto.hmac_sha256_us", "us"},
    {"crypto.rsa_public_1024_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.late_max_us", "us"},
};

int usage() {
  std::cerr << "usage: perfbench --workload rip-legacy|campaign-chaos --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

std::string json_number(double value) {
  // JSON has no infinity; a latency of failed requests reads as the
  // largest double instead (the run is already counted as failed).
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool seeded = false, timed = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        seeded = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        timed = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        options.trace = value == "1";
        traced = true;
      } else if (arg == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!seeded || !timed || !traced) return usage();
  options.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);

  Tracer tracer(options.trace);
  RunResult result;
  try {
    if (options.workload == "rip-legacy") {
      run_rip_legacy(options, tracer, result);
    } else if (options.workload == "campaign-chaos") {
      run_campaign_chaos(options, tracer, result);
    } else {
      return usage();
    }
    if (options.trace) run_probes(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (!options.trace) result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::map<std::string, Metric> by_name;
  for (const Metric& metric : result.metrics) by_name[metric.name] = metric;
  std::string metrics;
  for (const MetricSpec& spec : options.trace ? kPerLayer : kEndToEnd) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      if (!options.trace) {
        std::cerr << "perfbench: end-to-end metric " << spec.name << " was not measured\n";
        return 1;
      }
      it = by_name.emplace(spec.name, Metric{spec.name, 0.0, spec.unit}).first;
    }
    if (it->second.unit != spec.unit) {
      std::cerr << "perfbench: metric " << spec.name << " measured in " << it->second.unit
                << ", declared in " << spec.unit << "\n";
      return 1;
    }
    std::cout << "  " << spec.name << " = " << it->second.value << " " << spec.unit << "\n";
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + json_number(it->second.value) + ", \"unit\": \"" +
               spec.unit + "\"}";
  }
  for (std::size_t i = 0; i < result.check_failures.size() && i < 20; ++i) {
    std::cout << "CHECK FAILED: " << result.check_failures[i] << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
