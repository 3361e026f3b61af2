// The license legs: a pre-signed fleet of legacy-CDM keybox clients sent
// to one DrmService from at most nproc threads of this process. Keybox
// requests are HMAC/CMAC/AES and striped session locks with no bignum, so a
// crypto.rsa change should leave these metrics unchanged.
//
//   license_rps      closed-loop saturation throughput;
//   license_p50_us   open-loop latency at one fixed offered rate, timed from
//   license_p99_us   each request's due time;
//   license_max_rps  highest rung of a fixed doubling ladder whose p99 stays
//                    within the limit while the generator keeps up.
//
// Offered rates are fixed absolute numbers, never a fraction of a
// measured saturation, so a faster service does not move its own yardstick.
#include <algorithm>
#include <iostream>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTenants = 4;
constexpr std::size_t kClientsPerTenant = 256;
constexpr double kFixedRate = 20'000;  // req/s for the p50/p99 legs
const std::vector<double> kLadder = {25'000, 50'000, 100'000, 200'000, 400'000};
constexpr double kLimitUs = 1'000;     // p99 limit on every rung
constexpr double kClosedS = 0.5;       // one closed-loop sample
constexpr double kFixedS = 1.0;        // one fixed-rate leg: ten 0.1 s windows
constexpr double kRungS = 0.3;         // one rung: three 0.1 s windows
constexpr double kTracedLegS = 2.0;    // each leg of the traced pass

}  // namespace

LicenseLegs::LicenseLegs(const Options& options, Samples& samples, RunResult& result)
    : fleet_(build_keybox_fleet(options.seed, kTenants, kClientsPerTenant)),
      options_(options), samples_(samples), result_(result) {}

void LicenseLegs::closed() {
  const LegResult leg = run_closed_loop(fleet_, config(kClosedS));
  count(leg.sent, leg.failed);
  samples_.add("license_rps", leg.achieved_rps);
}

void LicenseLegs::fixed() {
  const LegResult leg = run_open_loop(fleet_, config(kFixedS), kFixedRate);
  count(leg.sent, leg.failed);
  samples_.add("license_p50_us", leg.window_p50_us);
  samples_.add("license_p99_us", leg.window_p99_us);
  late_p99_us_ = std::max(late_p99_us_, leg.late_p99_us);
  late_max_us_ = std::max(late_max_us_, leg.late_max_us);
}

void LicenseLegs::ladder() {
  const LadderResult ladder = run_ladder(fleet_, config(kRungS), kLadder, kLimitUs);
  count(ladder.sent, ladder.failed);
  samples_.add("license_max_rps", ladder.max_rps);
}

void LicenseLegs::report() const {
  std::cout << "generator lateness at " << kFixedRate << " req/s: worst leg p99 "
            << late_p99_us_ << " us, max " << late_max_us_ << " us\n";
  samples_.report(result_, "license_rps", "req/s");
  samples_.report(result_, "license_p50_us", "us");
  samples_.report(result_, "license_p99_us", "us");
  samples_.report(result_, "license_max_rps", "req/s");
}

void LicenseLegs::trace(Tracer& tracer) {
  // An untraced closed loop and fixed-rate leg, then the same closed loop
  // traced through the service and straight to the license server (the
  // difference is the service's own overhead).
  LegConfig config = this->config(kTracedLegS);
  const LegResult untraced = run_closed_loop(fleet_, config);
  const LegResult fixed = run_open_loop(fleet_, config, kFixedRate);
  config.tracer = &tracer;
  const LegResult traced = run_closed_loop(fleet_, config);
  config.target = Target::LicenseServer;
  const LegResult direct = run_closed_loop(fleet_, config);
  for (const LegResult* leg : {&untraced, &fixed, &traced, &direct}) count(leg->sent, leg->failed);
  result_.metric("widevine.service.handle_license_us",
                 tracer.p50_us("widevine.service.handle_license"), "us");
  result_.metric("widevine.license_server.handle_us",
                 tracer.p50_us("widevine.license_server.handle"), "us");
  const wideleak::widevine::DrmServiceStats stats = fleet_.service->stats();
  const auto counter = [&](const char* name, std::uint64_t value) {
    result_.metric(name, static_cast<double>(value), "count");
  };
  counter("widevine.service.sessions_opened", stats.sessions_opened);
  counter("widevine.service.sessions_evicted", stats.sessions_evicted);
  counter("widevine.service.admission_rejected", stats.admission_rejected);
  counter("widevine.service.rate_limited", stats.rate_limited);
  result_.metric("loadgen.late_p99_us", fixed.late_p99_us, "us");
  result_.metric("loadgen.late_max_us", fixed.late_max_us, "us");
  std::cout << "tracing overhead on license_rps: traced " << traced.achieved_rps
            << " - untraced " << untraced.achieved_rps << " = "
            << traced.achieved_rps - untraced.achieved_rps << "\n";
}

LegConfig LicenseLegs::config(double seconds) {
  LegConfig config;
  config.threads = options_.threads;
  config.seconds = seconds;
  config.seed = mix_seed(options_.seed, 41 + legs_++);
  return config;
}

void LicenseLegs::count(std::uint64_t sent, std::uint64_t failed) {
  result_.attempted += sent;
  result_.failed += failed;
  if (failed != 0) result_.check(false, std::to_string(failed) + " license requests failed");
}

}  // namespace perfbench
