// Output checks. Each expect() is one check made; failed checks are kept
// by name and feed the result's `failed` count and failed_frac.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ntserv/ntserv.hpp"

namespace perfbench {

class Checks {
 public:
  void expect(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t made() const { return made_; }
  [[nodiscard]] std::uint64_t failed() const { return failures_.size(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t made_ = 0;
  std::vector<std::string> failures_;
};

/// Fleet and per-tenant conservation
/// (offered == completed_all + shed + timed_out + in_flight) and no
/// truncation at the safety stop.
void check_conservation(Checks& checks, const ntserv::dc::FleetResult& r);

/// The FleetResult fields a repeat, a telemetry-on run or a run with
/// another worker count must reproduce bit for bit.
void check_same_fleet(Checks& checks, const ntserv::dc::FleetResult& a,
                      const ntserv::dc::FleetResult& b, const std::string& what);

/// Every sweep point's SMARTS sampling ended properly (converged, or took
/// `max_samples` samples) with a finite error and finite positive UIPS
/// and UIPS/W. Whether it converged is a model output, not a check: at
/// the benchmark's sample budget some points stop at the cap.
void check_sweep(Checks& checks, const std::vector<ntserv::sim::OperatingPointResult>& points,
                 int max_samples);

/// Two sweeps of one config agree bit for bit.
void check_same_sweep(Checks& checks, const std::vector<ntserv::sim::OperatingPointResult>& a,
                      const std::vector<ntserv::sim::OperatingPointResult>& b,
                      const std::string& what);

/// The replay's counters equal those of a sim::Cluster run with the same
/// seeds for the same cycles.
void check_same_cluster(Checks& checks, const ntserv::sim::ClusterMetrics& replay,
                        const ntserv::sim::ClusterMetrics& reference, const std::string& what);

}  // namespace perfbench
