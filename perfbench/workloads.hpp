// The two workloads and the legs they are built from.
//
// Every workload reports every end-to-end metric. Its focus leg measures
// the metric it was chosen for (see README.md); the license legs and small
// companion legs of fixed size measure the others. The legs run in
// interleaved rounds over the whole run and every metric is the median of
// its samples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "android/device.hpp"
#include "common.hpp"
#include "loadgen.hpp"
#include "ott/catalog.hpp"
#include "ott/ecosystem.hpp"
#include "trace.hpp"

namespace perfbench {

void run_rip_legacy(const Options& options, Tracer& tracer, RunResult& result);
void run_campaign_chaos(const Options& options, Tracer& tracer, RunResult& result);

/// Single-operation probes of the crypto and TLS layers (traced pass
/// only): fixed inputs, so they measure code speed, not key luck.
void run_probes(RunResult& result);

struct World {
  std::unique_ptr<wideleak::ott::StreamingEcosystem> ecosystem;
  std::unique_ptr<wideleak::android::Device> device;
  double setup_s = 0.0;
};

struct RipRep {
  double setup_s = 0.0;
  double rip_s = 0.0;
  std::uint32_t media_crc = 0;
  std::size_t apps_ripped = 0;
  std::size_t media_bytes = 0;
};

/// Ecosystem + `apps` + legacy Nexus 5, timed as set-up.
World build_world(const std::vector<wideleak::ott::OttAppProfile>& apps, std::uint64_t seed,
                  Lane* lane);
/// Rip every app of `apps` from `world`, checking each app's outcome.
RipRep rip_world(World& world, const std::vector<wideleak::ott::OttAppProfile>& apps,
                 std::uint64_t seed, Lane* lane, RunResult& result);

/// Companion legs. Each sample() call adds one sample to `samples`.
///
/// setup_s and rip_s: a fresh one-app world (Starz) with the legacy
/// Nexus 5, and its rip.
class CompanionRip {
 public:
  explicit CompanionRip(const Options& options) : options_(options) {}
  void sample(Samples& samples, RunResult& result);

 private:
  const Options& options_;
  std::size_t reps_ = 0;
  std::uint32_t first_crc_ = 0;
};

/// cells_per_s: Netflix on the three study profiles, unpaced, 3 workers.
class CompanionCampaign {
 public:
  explicit CompanionCampaign(const Options& options) : options_(options) {}
  void sample(Samples& samples, RunResult& result);

 private:
  const Options& options_;
  std::size_t reps_ = 0;
  std::uint32_t first_crc_ = 0;
};

/// license_*: legacy-CDM keybox clients (4 tenants x 256, pre-signed)
/// sent to one DrmService. Each call runs one leg on its own seeded
/// schedule and adds its samples; report() adds the four license metrics.
class LicenseLegs {
 public:
  LicenseLegs(const Options& options, Samples& samples, RunResult& result);
  void closed();  // one closed-loop sample of license_rps
  void fixed();   // one fixed-rate leg: window p50s and p99s
  void ladder();  // one pass of the doubling ladder: a license_max_rps sample
  void report() const;
  /// Traced pass: the service's and the license server's per-call times,
  /// service counters and generator lateness, as per-layer metrics.
  void trace(Tracer& tracer);

 private:
  LegConfig config(double seconds);
  void count(std::uint64_t sent, std::uint64_t failed);

  Fleet fleet_;
  const Options& options_;
  Samples& samples_;
  RunResult& result_;
  std::uint64_t legs_ = 0;
  double late_p99_us_ = 0.0;
  double late_max_us_ = 0.0;
};

/// Traced pass epilogue: print the self-time table and the tracing
/// overhead on `label` (traced minus untraced), then write the Chrome
/// trace under options.trace_dir.
void report_trace(const Options& options, const Tracer& tracer, const std::string& label,
                  double untraced, double traced);

}  // namespace perfbench
