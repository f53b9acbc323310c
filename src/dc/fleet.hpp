// Request-level serving on a fleet of simulated multi-cluster chips.
//
// The analytic QoS path (src/qos) scales a measured baseline p99 by the
// UIPS ratio; nothing ever queues. This module instead *runs* requests:
// open-loop arrivals (dc/arrival.hpp) are dispatched by a load-balancing
// policy onto the cores of N ChipServer instances (dc/chip.hpp) — each a
// multi-cluster chip behind one power envelope — and each request's
// service is the time its core takes to commit its budget of user
// instructions (paper Sec. V-A: constant by default; src/ctrl budget
// distributions for heterogeneous populations). Tail latency is then a
// *measurement* over completed requests, so queueing, burstiness and
// load-balancing effects show up in the p99 exactly as they would on
// hardware, and the result can be cross-checked against the analytic path
// on a contention-free scenario.
//
// On top of the open-loop dispatch, the runtime-control layer (src/ctrl)
// closes the loop *inside* the run — now per chip: every chip carries its
// own ctrl::FleetGovernor instance, observes its own epoch utilization
// and tail, and retunes its own frequency (paying the shared transition
// stall that pauses all of its clusters), so chips drift apart under
// asymmetric load. The governor-aware balance policy exploits exactly
// that: it peeks at each chip's pending epoch decision and steers
// latency-critical requests away from chips about to descend.
//
// Consolidation: a fleet can serve several tenants (co-located scenarios)
// at once — each tenant brings its own arrival process, budget
// distribution, QoS bound and steering class, and FleetResult reports
// per-tenant percentiles, shed rates and an energy attribution.
//
// A run is three parts (dc/fleet.cpp), each reporting its next event:
// the request ledger (every request from arrival to disposal: pending
// copies, the retry/timeout/hedge queues, faults, the recovery point),
// the data plane (pool workers claim chips one at a time and advance
// each to the next fleet event; each chip's completions are staged with
// their quantum, then drained into the ledger serially in (quantum,
// chip) order, the order of a one-quantum-at-a-time loop), and the
// control plane (the epoch barrier — governors, cap, router, autoscaler,
// brownout, breakers, metrics — and the placement policy that reads the
// state it leaves). Only the chip advance runs in parallel, so results
// and telemetry are bit-identical for ANY worker count; sweep-level
// fan-out (dse::sweep_*, dc::run_scenarios) parallelizes whole operating
// points one level up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/brownout.hpp"
#include "ctrl/budget.hpp"
#include "ctrl/governor.hpp"
#include "dc/arrival.hpp"
#include "dc/chip.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "orch/orch.hpp"
#include "pm/power_manager.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {

enum class BalancePolicy {
  kRoundRobin,     ///< chips in cyclic order
  kLeastLoaded,    ///< fewest outstanding requests (queued + in service)
  kPowerAware,     ///< pack onto low-index chips so the tail can sleep
  kGovernorAware,  ///< least-loaded, steering latency-critical requests
                   ///< away from chips mid-transition or about to descend
};

[[nodiscard]] const char* to_string(BalancePolicy p);

/// One co-located traffic class: its own arrivals, budgets, QoS bound and
/// steering class. A single-tenant fleet is the degenerate case: a tenant
/// table of one entry.
struct TenantSpec {
  std::string name = "default";
  ArrivalConfig arrival;
  /// Per-request instruction budget; budget.mean == 0 inherits
  /// user_instructions_per_request.
  ctrl::BudgetConfig budget;
  /// Constant user-instruction cost of one request (paper Sec. V-A); the
  /// mean when `budget` selects a distribution.
  std::uint64_t user_instructions_per_request = 8'000;
  /// Steering class for BalancePolicy::kGovernorAware: latency-critical
  /// tenants avoid descending chips, batch tenants soak them.
  bool latency_critical = true;
  /// Per-tenant p99 bound in simulated time (0 = unbounded / batch).
  /// Reported against the measured per-tenant p99; also the bound the
  /// consolidation sweeps (dse::sweep_consolidation) size fleets against.
  Second qos_p99_limit{0.0};
  /// Measured completions (after warmup_requests unmeasured ones) when
  /// nothing is shed; with admission control, offered requests beyond the
  /// warmup ids that get shed reduce the measured count.
  std::uint64_t requests = 400;
  std::uint64_t warmup_requests = 40;

  void validate() const;
  [[nodiscard]] ctrl::BudgetConfig resolved_budget() const;
};

/// Request-level resilience knobs (tail-at-scale style). All off by
/// default: the healthy, fully-patient fleet of the earlier PRs.
struct ResilienceConfig {
  /// Health-aware failover: dispatch avoids crashed chips, and a crash
  /// drains the victim's queue and re-dispatches its in-flight losses
  /// onto healthy chips. Off = the dispatcher is health-blind — new work
  /// keeps landing on the dead chip's queue and waits out the outage,
  /// and in-flight requests restart on the same chip at recovery.
  /// Nothing is lost either way; without failover the tail pays for the
  /// whole outage.
  bool failover = false;
  /// Per-attempt client timeout (0 = none): an attempt not completed
  /// within `timeout` of the instant it was offered to a chip is
  /// abandoned. The client retries through the admission back-off
  /// schedule (timeouts and admission rejections share the same
  /// max_retries budget); once the budget is spent the request counts as
  /// timed_out. A late completion of an abandoned attempt is discarded
  /// (wasted work), never double-counted.
  Second timeout{0.0};
  /// Hedged requests: if a request has no completion hedge_delay after
  /// its first admission, dispatch one duplicate to a *different*
  /// healthy chip; first completion wins and the loser is cancelled
  /// (dequeued, or discarded at completion if already in service). At
  /// most one hedge per request.
  bool hedging = false;
  /// hedge_delay = hedge_multiplier x the running measured p95 once the
  /// fleet has seen `hedge_warmup` measured completions; before that,
  /// hedge_min_delay stands in.
  double hedge_multiplier = 3.0;
  Second hedge_min_delay{100e-6};
  std::uint64_t hedge_warmup = 32;

  void validate() const;
};

/// Per-tenant slice of a fleet run.
struct TenantResult {
  std::string name;
  std::uint64_t completed = 0;  ///< measured completions
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  double shed_rate = 0.0;
  std::uint64_t completed_all = 0;  ///< completions including warmup
  std::uint64_t timed_out = 0;      ///< abandoned after the retry budget
  std::uint64_t hedged = 0;         ///< requests that dispatched a hedge copy
  std::uint64_t redispatched = 0;   ///< copies moved off a crashed chip
  std::uint64_t in_flight = 0;      ///< undisposed at truncation (0 otherwise)
  /// Measured SLA violations among requests whose lifetime overlapped an
  /// active fault window (subset of sla_violations).
  std::uint64_t degraded_sla_violations = 0;
  /// Requests the brownout ladder shed by priority (subset of `shed`):
  /// the graceful-degradation tax this tenant paid during overload.
  std::uint64_t brownout_shed = 0;
  /// Epochs during which the standing ladder stage restricted this
  /// tenant's traffic (batch tenants from kShedBatch up; latency-critical
  /// tenants are never restricted, so always 0 for them).
  std::uint64_t brownout_epochs = 0;
  Second mean_latency{0.0};
  Second p50{0.0};
  Second p95{0.0};
  Second p99{0.0};
  Second mean_wait{0.0};
  /// Measured completions whose latency exceeded the tenant's
  /// qos_p99_limit (0 when the tenant is unbounded).
  std::uint64_t sla_violations = 0;
  /// Core time this tenant occupied, and its share of all occupied time.
  double busy_core_seconds = 0.0;
  double busy_share = 0.0;
  /// Energy attribution: the governed fleet energy split by busy-core
  /// time (idle/sleep overhead is attributed proportionally with it).
  /// Zero for open-loop runs — attribute dc::fleet_energy by busy_share.
  Joule energy{0.0};

  bool operator==(const TenantResult&) const = default;
};

struct FleetConfig {
  sim::ClusterConfig cluster;
  workload::WorkloadProfile profile;
  Hertz frequency{2e9};
  /// Fleet shape: `servers` chips, each aggregating `clusters_per_chip`
  /// sim::Cluster instances behind one envelope (paper Sec. II-B's
  /// scale-out chip; 1 reproduces the old one-cluster-per-server fleet).
  int servers = 2;
  int clusters_per_chip = 1;
  /// Saturation control: queue-depth admission with client back-off.
  ctrl::AdmissionConfig admission;
  /// Closed-loop DVFS control; kind == kNone runs open loop at
  /// `frequency` with no epoch machinery. Governed fleets instantiate
  /// one governor per chip (per-chip DVFS).
  ctrl::GovernorConfig governor;
  BalancePolicy policy = BalancePolicy::kLeastLoaded;
  /// The traffic: one entry per co-located tenant (arrivals, budgets,
  /// request counts, QoS bound, steering class), in config order. The
  /// only traffic description, so it must not be empty; a single-tenant
  /// fleet is a table of one, which dc::FleetConfigBuilder's
  /// single-tenant setters (dc/runner.hpp) fill at build().
  std::vector<TenantSpec> tenants;
  std::uint64_t seed = 1;
  /// Simulation step between dispatch/completion checks, in cycles of the
  /// base `frequency` (the master clock; per-chip DVFS scales the cycles
  /// a chip advances per quantum). Completions are interpolated within
  /// the quantum, so the measured latency error is O(quantum /
  /// service_cycles).
  Cycle quantum = 64;
  /// Per-cluster architectural cache warming before any request is timed
  /// (cluster-aggregate committed instructions, same convention as the
  /// SMARTS warm phase — keeping the two paths' warmth comparable is what
  /// makes the measured-vs-analytic cross-check meaningful).
  std::uint64_t warm_instructions = 600'000;
  Cycle warm_max_cycles = 6'000'000;
  /// Safety stop for saturated scenarios (arrival rate > service rate),
  /// in cycles of the configured base `frequency`.
  Cycle max_cycles = 400'000'000;
  /// Power-aware packing bound: a chip accepts new work while its
  /// outstanding count is below depth_per_core * cores.
  double pack_depth_per_core = 2.0;
  /// Fault schedule (crashes, recoveries, degradations, correlated
  /// domain outages). Empty = the perfectly-healthy fleet of the earlier
  /// PRs, bit-identical to them.
  fault::FaultConfig faults;
  /// Request-level resilience: failover, timeouts, hedging.
  ResilienceConfig resilience;
  /// Overload brownout: the priority ladder walked at the epoch barrier
  /// when offered load outruns surviving capacity (requires a governed
  /// fleet — the ladder acts at the barrier).
  ctrl::BrownoutConfig brownout;
  /// Per-chip circuit breakers: a chip whose recent timeout/error rate
  /// trips the threshold stops receiving dispatches until its half-open
  /// probe succeeds (requires a governed fleet — trips happen at the
  /// barrier).
  ctrl::BreakerConfig breaker;
  /// Fleet orchestration above the per-chip governors: autoscaling,
  /// fleet-level power capping, multi-fleet tech routing (src/orch).
  /// Anything enabled here requires a governed fleet (the controllers
  /// act at the epoch barrier). With routing enabled, the chips are
  /// built from orchestration.router.groups (their servers must sum to
  /// `servers`) with per-group tech points and governors.
  orch::OrchestratorConfig orchestration;

  void validate() const;
};

/// Aggregate outcome of one fleet run.
struct FleetResult {
  std::string workload;
  Hertz frequency;                    ///< configured base frequency
  std::uint64_t completed = 0;        ///< measured completions
  std::uint64_t offered = 0;          ///< unique requests offered (excl. retries)
  std::uint64_t admitted = 0;         ///< dispatch attempts accepted into a queue
  std::uint64_t retries = 0;          ///< rejected attempts that backed off
  std::uint64_t shed = 0;             ///< requests dropped after the retry budget
  double shed_rate = 0.0;             ///< shed / offered
  /// Dispatches the governor-aware policy redirected away from the plain
  /// least-loaded choice (0 under the other policies).
  std::uint64_t steered = 0;
  bool truncated = false;             ///< hit max_cycles before completing

  // ---- Availability / resilience (zero when faults & resilience off) ----
  std::uint64_t completed_all = 0;    ///< completions including warmup
  std::uint64_t timed_out = 0;        ///< requests abandoned after the retry budget
  std::uint64_t hedged = 0;           ///< requests that dispatched a hedge copy
  std::uint64_t hedge_wins = 0;       ///< requests whose hedge copy finished first
  std::uint64_t redispatched = 0;     ///< copies moved off a crashed chip
  std::uint64_t wasted_completions = 0; ///< late/loser copies whose work was discarded
  std::uint64_t in_flight = 0;        ///< undisposed requests at truncation
  /// Measured completions per second that met their tenant's p99 bound
  /// (unbounded tenants count every measured completion).
  double goodput = 0.0;
  std::uint64_t sla_violations = 0;   ///< sum of the tenants' measured violations
  /// Violations among requests whose lifetime overlapped an active fault
  /// window (crashed or degraded chip anywhere in the fleet).
  std::uint64_t degraded_sla_violations = 0;
  std::uint64_t faults_injected = 0;  ///< fault events delivered during the run
  Second first_fault{0.0};            ///< time of the first delivered event
  /// The fleet recovered: all fault windows closed and every request
  /// damaged by one was disposed before the run ended.
  bool recovered = false;
  /// first_fault -> recovery point (0 unless recovered).
  Second time_to_recover{0.0};
  /// Chip-epochs that ran with a nonzero guardband margin.
  int guardband_epochs = 0;

  // ---- Brownout / circuit breaker (zero when both are off) ----
  std::uint64_t brownout_shed = 0;  ///< requests the ladder shed (subset of shed)
  int brownout_epochs = 0;          ///< epochs spent above kNormal
  /// Epochs spent at each ladder rung (size ctrl::kBrownoutStages,
  /// kNormal first) — the time-in-stage attribution; sums to the run's
  /// epoch count when the ladder is enabled.
  std::vector<int> brownout_stage_epochs;
  int breaker_trips = 0;       ///< breaker open transitions across chips
  int breaker_open_epochs = 0; ///< chip-epochs spent with dispatch blocked
  Second mean_latency{0.0};
  Second p50{0.0};
  Second p95{0.0};
  Second p99{0.0};
  Second mean_wait{0.0};
  double offered_rate = 0.0;          ///< arrivals/s over the run
  double throughput = 0.0;            ///< completions/s over the span (warmup included)
  double utilization = 0.0;           ///< busy-core fraction over the span
  /// Per-chip fraction of the span with at least one busy core (the
  /// power-model duty cycle: idle chips sit in RBB sleep).
  std::vector<double> server_active_fraction;
  Cycle span_cycles = 0;              ///< span in base-frequency cycle equivalents
  Second span_seconds{0.0};
  /// Per-tenant slices (one entry per configured tenant, in config order).
  std::vector<TenantResult> tenants;

  // ---- Closed-loop outcome (zero/empty when governor.kind == kNone) ----
  Joule energy{0.0};                  ///< governor-accounted fleet energy
  double avg_frequency_ghz = 0.0;     ///< time-weighted over chips and epochs
  int transitions = 0;                ///< per-chip frequency changes charged
  Second transition_time_total{0.0};  ///< summed per-chip DVFS/bias stalls
  int transition_epochs = 0;          ///< chip-epochs beginning with a change
  int qos_violation_epochs = 0;       ///< chip-epochs with p99 over limit, non-transition
  /// Per-chip epoch trajectory, boundary-major then chip-minor (record
  /// `.chip` identifies the chip; each chip's durations tile the span).
  std::vector<ctrl::EpochRecord> epochs;

  // ---- Orchestration outcome (zero/empty when orchestration is off) ----
  std::uint64_t autoscale_parks = 0;    ///< chips powered down to the sleep floor
  std::uint64_t autoscale_unparks = 0;  ///< parked chips woken (paid wake latency)
  std::uint64_t autoscale_drains = 0;   ///< drain orders issued (incl. cancelled)
  /// Unparks issued by the domain-outage emergency response (subset of
  /// autoscale_unparks); warm wakes among them paid the reduced latency.
  std::uint64_t emergency_wakes = 0;
  Second parked_seconds{0.0};           ///< chip-seconds at the sleep floor
  /// Energy of the wake stalls (a reporting slice of `energy`, charged
  /// through the overlapped epochs like any transition).
  Joule wake_energy{0.0};
  int cap_clamp_epochs = 0;      ///< chip-epochs run below the governor's request
  int cap_violation_epochs = 0;  ///< epochs whose realized fleet power exceeded the cap
  Watt fleet_cap{0.0};           ///< the enforced cap (0 = uncapped)
  Watt peak_epoch_power{0.0};    ///< max realized fleet power over the epoch grid
  /// Per-epoch routing trajectory (empty unless routing is enabled).
  std::vector<orch::RouterEpoch> router_epochs;
  std::vector<std::string> group_names;          ///< per router group
  std::vector<std::uint64_t> group_dispatches;   ///< admitted copies per group
  std::vector<Joule> group_energy;               ///< epoch energy per group

  // ---- Optional columns ----
  // Several vectors above are filled only when their subsystem ran; these
  // accessors name which, so drivers need not know the sizing rules.
  /// The per-chip `epochs` trajectory is populated (governed run that
  /// closed at least one epoch).
  [[nodiscard]] bool has_epoch_trajectory() const { return !epochs.empty(); }
  /// `brownout_stage_epochs` carries the time-in-stage attribution
  /// (sized ctrl::kBrownoutStages only when the ladder ran).
  [[nodiscard]] bool has_brownout_ladder() const { return !brownout_stage_epochs.empty(); }
  /// Multi-fleet routing ran: `group_names`, `group_dispatches`,
  /// `group_energy` and `router_epochs` are parallel per-group arrays.
  [[nodiscard]] bool has_routing() const { return !group_names.empty(); }

  /// Structural equality over every field: the determinism contract is
  /// bit-identity, so doubles compare exactly.
  bool operator==(const FleetResult&) const = default;
};

/// N ChipServer instances behind one dispatcher.
///
/// This is the execution engine; prefer driving it through
/// dc::FleetRunner (dc/runner.hpp), which validates the config and
/// passes threads and telemetry through one options argument.
class ClusterFleet {
 public:
  /// Builds (and cache-warms) every chip. `build_threads` bounds the
  /// construction fan-out: chips are independent, seed-derived units, so
  /// large fleets warm in parallel with bit-identical state (0 = auto =
  /// sim::ThreadPool::default_threads(); callers already running inside
  /// a sweep worker should pass 1).
  explicit ClusterFleet(FleetConfig config, int build_threads = 0);

  ClusterFleet(const ClusterFleet&) = delete;
  ClusterFleet& operator=(const ClusterFleet&) = delete;

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] int servers() const { return static_cast<int>(chips_.size()); }
  [[nodiscard]] int cores_per_server() const {
    return config_.clusters_per_chip * config_.cluster.hierarchy.cores;
  }

  /// Drive arrivals until every offered request is completed or shed (or
  /// max_cycles elapse). Deterministic — all randomness derives from the
  /// config seed — and bit-identical, result AND telemetry, for any
  /// `threads` (workers advancing chips; <= 0 picks
  /// sim::ThreadPool::default_threads()). Single-shot: the run consumes
  /// the chips' state, so a second call throws ModelError;
  /// dc::FleetRunner builds a fresh engine per run.
  ///
  /// `telemetry` (may be null) is wired at the start of the run; only its
  /// *enabled* components are attached, so a disabled TraceSink costs
  /// exactly one null-pointer test per emission site. The trace is merged
  /// in canonical (time, chip, kind) order at each epoch barrier.
  [[nodiscard]] FleetResult run(int threads = 1, obs::Telemetry* telemetry = nullptr);

 private:
  FleetConfig config_;
  /// Present only when governed (kind != kNone); every chip's governor
  /// holds a reference into its group's manager, so declaration order
  /// matters. One entry per router group (one total without routing).
  std::vector<std::unique_ptr<pm::PowerManager>> managers_;
  std::vector<std::unique_ptr<ChipServer>> chips_;
  bool ran_ = false;  ///< run() consumes the chips' state
};

/// Server energy over a fleet run's span: each chip runs at the
/// pm::PowerManager's active power for its active fraction and sits in
/// RBB sleep for the remainder (the paper's energy-proportionality story
/// applied to measured duty cycles). For governed runs prefer
/// FleetResult::energy, which charges each chip-epoch at its own
/// frequency.
[[nodiscard]] Joule fleet_energy(const FleetResult& result, const pm::PowerManager& manager,
                                 Hertz frequency);

}  // namespace ntserv::dc
