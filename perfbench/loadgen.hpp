// License-service load generation: a pre-signed client fleet, a closed-loop
// saturation leg and an open-loop leg on a fixed, seeded arrival
// schedule that times every request from when it was due.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "support/secret.hpp"
#include "trace.hpp"
#include "widevine/drm_service.hpp"

namespace perfbench {

/// One client of the fleet: its pre-signed request, its tenant, and what
/// it needs to verify a response MAC with its own session keys.
struct FleetClient {
  wideleak::widevine::LicenseRequest request;
  wideleak::widevine::AppId tenant = 0;
  std::size_t expected_keys = 0;
  /// The request body is fixed, so the session keys derived from it are
  /// too; the client derives its server MAC key once at set-up.
  wideleak::SecretBytes mac_key_server;
};

struct Fleet {
  std::shared_ptr<wideleak::widevine::DeviceRootDatabase> roots;
  std::shared_ptr<wideleak::widevine::LicenseServer> license;
  std::shared_ptr<wideleak::widevine::ProvisioningServer> provisioning;
  std::unique_ptr<wideleak::widevine::DrmService> service;
  wideleak::widevine::RevocationPolicy policy;
  std::vector<FleetClient> clients;
};

/// Legacy-CDM (3.1) clients authenticating with keybox-derived keys:
/// `tenants` x `clients_per_tenant` devices, two content keys per tenant.
Fleet build_keybox_fleet(std::uint64_t seed, std::size_t tenants,
                         std::size_t clients_per_tenant);

/// True when the response grants every requested key and its MAC verifies
/// under the client's session keys.
bool verify_response(const FleetClient& client,
                     const wideleak::widevine::LicenseResponse& response);

/// Which entry point a load leg drives.
enum class Target { Service, LicenseServer };

struct LegResult {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;     // refused, not granted, or MAC mismatch
  double elapsed_s = 0.0;
  double achieved_rps = 0.0;
  // Open-loop legs only (failures count as +inf latency). The leg's
  // latencies are split into fixed windows of the schedule; p50 and p99
  // are the medians over windows of each window's own p50 and p99.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;
  double late_max_us = 0.0;
  bool backlog_grew = false;
};

struct LegConfig {
  Target target = Target::Service;
  std::size_t threads = 1;
  double seconds = 1.0;
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  // spans around each call when tracing
};

/// Closed loop: `threads` callers send back to back for `seconds`.
LegResult run_closed_loop(Fleet& fleet, const LegConfig& config);

/// Open loop at `rate` requests/s: one seeded Poisson arrival schedule,
/// served by a pool of `threads` senders.
LegResult run_open_loop(Fleet& fleet, const LegConfig& config, double rate);

struct LadderResult {
  double max_rps = 0.0;         // achieved rate of the highest passing rung
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
};

/// Fixed doubling ladder: run each rung for `rung_seconds` while p99 stays
/// within `limit_us` and the generator's lateness does not grow; stop at
/// the first rung that misses.
LadderResult run_ladder(Fleet& fleet, const LegConfig& config,
                        const std::vector<double>& rates, double limit_us);

}  // namespace perfbench
