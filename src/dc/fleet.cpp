#include "dc/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::dc {

const char* to_string(BalancePolicy p) {
  switch (p) {
    case BalancePolicy::kRoundRobin: return "round-robin";
    case BalancePolicy::kLeastLoaded: return "least-loaded";
    case BalancePolicy::kPowerAware: return "power-aware";
    case BalancePolicy::kGovernorAware: return "governor-aware";
  }
  return "unknown";
}

void TenantSpec::validate() const {
  NTSERV_EXPECTS(!name.empty(), "tenant needs a name");
  arrival.validate();
  NTSERV_EXPECTS(user_instructions_per_request > 0,
                 "requests must cost at least one instruction");
  NTSERV_EXPECTS(requests > 0, "tenant needs at least one measured request");
  resolved_budget().validate();
}

ctrl::BudgetConfig TenantSpec::resolved_budget() const {
  ctrl::BudgetConfig b = budget;
  if (b.mean == 0) b.mean = user_instructions_per_request;
  return b;
}

void ResilienceConfig::validate() const {
  NTSERV_EXPECTS(timeout.value() >= 0.0, "timeout must be non-negative");
  if (hedging) {
    NTSERV_EXPECTS(hedge_multiplier > 0.0, "hedge multiplier must be positive");
    NTSERV_EXPECTS(hedge_min_delay.value() > 0.0,
                   "hedging needs a positive minimum delay (the cold-start rule)");
  }
}

void FleetConfig::validate() const {
  profile.validate();
  NTSERV_EXPECTS(servers > 0, "fleet needs at least one chip");
  NTSERV_EXPECTS(clusters_per_chip > 0, "a chip needs at least one cluster");
  NTSERV_EXPECTS(frequency.value() > 0.0, "core frequency must be positive");
  NTSERV_EXPECTS(quantum > 0, "quantum must be positive");
  NTSERV_EXPECTS(pack_depth_per_core > 0.0, "pack depth must be positive");
  NTSERV_EXPECTS(!tenants.empty(),
                 "FleetConfig::tenants is empty: a fleet needs at least one tenant "
                 "(FleetConfigBuilder's single-tenant setters fill one)");
  std::set<std::string> names;
  for (const auto& t : tenants) {
    t.validate();
    NTSERV_EXPECTS(names.insert(t.name).second, "tenant names must be unique");
  }
  admission.validate();
  governor.validate();
  faults.validate();
  resilience.validate();
  brownout.validate();
  breaker.validate();
  for (const auto& e : faults.events) {
    if (e.kind == fault::FaultKind::kDomainOutage ||
        e.kind == fault::FaultKind::kThermalEmergency) {
      continue;  // domain range is validated by faults.validate()
    }
    NTSERV_EXPECTS(e.chip < servers, "scripted fault event targets a chip outside the fleet");
  }
  for (const auto& d : faults.domains) {
    for (const int chip : d.members) {
      NTSERV_EXPECTS(chip < servers, "failure domain names a chip outside the fleet");
    }
  }
  orchestration.validate();
  if (orchestration.any()) {
    NTSERV_EXPECTS(governor.kind != ctrl::GovernorKind::kNone,
                   "orchestration requires a governed fleet (it acts at the epoch barrier)");
  }
  if (brownout.enabled || breaker.enabled) {
    NTSERV_EXPECTS(governor.kind != ctrl::GovernorKind::kNone,
                   "brownout and circuit breakers require a governed fleet "
                   "(they act at the epoch barrier)");
  }
  if (orchestration.router.enabled) {
    int group_servers = 0;
    for (const auto& g : orchestration.router.groups) {
      group_servers += g.servers;
      NTSERV_EXPECTS(g.governor.epoch_quanta == governor.epoch_quanta,
                     "router groups must share the fleet's epoch grid");
    }
    NTSERV_EXPECTS(group_servers == servers,
                   "router group servers must sum to the fleet size");
  }
  if (orchestration.autoscaler.enabled) {
    NTSERV_EXPECTS(orchestration.autoscaler.min_active <= servers,
                   "autoscaler min_active exceeds the fleet size");
  }
}

ClusterFleet::ClusterFleet(FleetConfig config, int build_threads)
    : config_(std::move(config)), admission_(config_.admission) {
  config_.validate();
  governed_ = config_.governor.kind != ctrl::GovernorKind::kNone;
  const bool routed = config_.orchestration.router.enabled;
  if (governed_) {
    if (config_.governor.curve.empty()) config_.governor.curve = ctrl::default_uips_curve();
    if (routed) {
      // One platform (manager) per router group: each group has its own
      // tech point, curve and governor shape.
      for (auto& g : config_.orchestration.router.groups) {
        if (g.governor.curve.empty()) g.governor.curve = config_.governor.curve;
        managers_.push_back(
            std::make_unique<pm::PowerManager>(ctrl::make_power_manager(g.governor)));
      }
    } else {
      managers_.push_back(
          std::make_unique<pm::PowerManager>(ctrl::make_power_manager(config_.governor)));
    }
  }
  const auto& specs = config_.tenants;
  tenants_.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    TenantState state;
    state.spec = specs[t];
    state.result.name = specs[t].name;
    // Per-tenant streams keyed by tenant index: appending a tenant leaves
    // every earlier tenant's arrivals and budgets unchanged.
    state.arrivals = std::make_unique<ArrivalProcess>(
        specs[t].arrival, derive_seed(config_.seed, 0xA441ull + t));
    state.budgets = std::make_unique<ctrl::BudgetSampler>(
        specs[t].resolved_budget(), derive_seed(config_.seed, 0xB0D6ull + t));
    state.total = specs[t].requests + specs[t].warmup_requests;
    tenants_.push_back(std::move(state));
  }
  // Chip -> router group (all group 0 without routing; with it, groups
  // occupy contiguous index ranges in config order).
  std::vector<int> chip_group(static_cast<std::size_t>(config_.servers), 0);
  if (routed) {
    int next = 0;
    for (std::size_t g = 0; g < config_.orchestration.router.groups.size(); ++g) {
      for (int k = 0; k < config_.orchestration.router.groups[g].servers; ++k) {
        chip_group[static_cast<std::size_t>(next++)] = static_cast<int>(g);
      }
    }
  }
  // Chip construction includes the per-cluster architectural cache warm
  // (warm_instructions of committed work), which dominates startup at
  // rack scale. Chips are independent, seed-derived units — every stream
  // is keyed by the global cluster index — so large fleets build in
  // parallel into pre-sized slots with state bit-identical to the serial
  // build. Small fleets stay serial: the pool costs more than it saves.
  chips_.resize(static_cast<std::size_t>(config_.servers));
  if (build_threads <= 0) build_threads = sim::ThreadPool::default_threads();
  const int build_fanout = config_.servers >= 8 ? build_threads : 1;
  sim::parallel_for_index(build_fanout, chips_.size(), [&](std::size_t i) {
    const int s = static_cast<int>(i);
    ChipParams params;
    params.cluster = config_.cluster;
    params.clusters = config_.clusters_per_chip;
    params.profile = config_.profile;
    params.frequency = config_.frequency;
    params.warm_instructions = config_.warm_instructions;
    params.warm_max_cycles = config_.warm_max_cycles;
    params.fleet_seed = config_.seed;
    params.first_cluster_index = s * config_.clusters_per_chip;
    params.chip_id = s;
    params.tenants = static_cast<int>(tenants_.size());
    chips_[i] = std::make_unique<ChipServer>(params);
  });
  if (governed_) {
    for (int s = 0; s < config_.servers; ++s) {
      // One governor instance per chip: identical initial state, but each
      // evolves on its own chip's observations (per-chip DVFS).
      const auto g = static_cast<std::size_t>(chip_group[static_cast<std::size_t>(s)]);
      const ctrl::GovernorConfig& gc =
          routed ? config_.orchestration.router.groups[g].governor : config_.governor;
      auto& chip = chips_[static_cast<std::size_t>(s)];
      chip->set_group(static_cast<int>(g));
      chip->attach_governor(ctrl::make_governor(gc, *managers_[g]), managers_[g].get(),
                            gc.qos_p99_limit);
    }
  }
  // Chip -> failure domain (cross-domain hedge placement, emergency wake).
  chip_domain_.assign(static_cast<std::size_t>(config_.servers), -1);
  for (std::size_t d = 0; d < config_.faults.domains.size(); ++d) {
    for (const int chip : config_.faults.domains[d].members) {
      chip_domain_[static_cast<std::size_t>(chip)] = static_cast<int>(d);
    }
  }
  if (config_.brownout.enabled) brownout_.emplace(config_.brownout);
  if (config_.breaker.enabled) {
    breakers_.assign(static_cast<std::size_t>(config_.servers),
                     ctrl::CircuitBreaker{config_.breaker});
  }
  const orch::OrchestratorConfig& oc = config_.orchestration;
  if (oc.autoscaler.enabled) autoscaler_.emplace(oc.autoscaler);
  if (oc.router.enabled) router_.emplace(oc.router);
  if (oc.cap.enabled) {
    capper_.emplace(oc.cap);
    // Clamp the initial operating point too, so epoch 0 already respects
    // the cap: an equal split (no queue signal yet), applied without a
    // transition stall — the fleet starts at the capped point rather
    // than dropping to it.
    std::vector<orch::ChipStatus> status(chips_.size());
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      status[s].chip = static_cast<int>(s);
      status[s].group = chips_[s]->group();
    }
    const std::vector<Watt> budgets = capper_->split(status, Watt{0.0});
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      chips_[s]->set_power_budget(budgets[s]);
      chips_[s]->apply_power_budget();
    }
  }
}

int ClusterFleet::outstanding(int s) const {
  return chips_.at(static_cast<std::size_t>(s))->outstanding();
}

int ClusterFleet::least_loaded(bool healthy_only, int exclude, int avoid_domain) const {
  // Tiered choice: same-failure-domain chips (hedge placement), draining
  // chips and breaker-open chips are progressively worse fallbacks —
  // used only when nothing better serves, so work is never stranded.
  // Parked chips never take work. Within a tier: fewest outstanding,
  // lowest index on ties.
  int best = -1, best_tier = 0;
  for (int s = 0; s < servers(); ++s) {
    if (s == exclude) continue;
    const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
    if (chip.parked()) continue;
    if (healthy_only && chip.down()) continue;
    int tier = 0;
    if (avoid_domain >= 0 && chip_domain_[static_cast<std::size_t>(s)] == avoid_domain) {
      tier += 1;
    }
    if (chip.draining()) tier += 2;
    if (!breakers_.empty() && !breakers_[static_cast<std::size_t>(s)].allow_dispatch()) {
      tier += 4;
    }
    if (best < 0 || tier < best_tier ||
        (tier == best_tier && outstanding(s) < outstanding(best))) {
      best = s;
      best_tier = tier;
    }
  }
  return best;
}

int ClusterFleet::pick_server(const Request& req, double now_s) {
  // With failover the dispatcher is health-aware: every policy confines
  // itself to chips that are up, and -1 reports a fully-dark fleet.
  // Without it the dispatcher is deliberately health-blind — the
  // baseline every failover comparison is made against.
  const bool avoid_down = config_.resilience.failover;
  const auto serving = [&](int s) {
    const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
    if (chip.parked() || chip.draining()) return false;
    if (!breakers_.empty() && !breakers_[static_cast<std::size_t>(s)].allow_dispatch()) {
      return false;  // breaker open: least_loaded may still fall back here
    }
    return !avoid_down || !chip.down();
  };
  if (router_) {
    // Tech routing supersedes the balance policy: the router's standing
    // preference (updated at the barrier) picks the group, least-loaded
    // picks within it; a group with no serving chip falls back fleet-wide
    // and the miss is recorded.
    const bool critical =
        tenants_[static_cast<std::size_t>(req.tenant)].spec.latency_critical;
    const int pg = router_->preferred_group(critical);
    int best = -1;
    for (int s = 0; s < servers(); ++s) {
      if (!serving(s)) continue;
      if (chips_[static_cast<std::size_t>(s)]->group() != pg) continue;
      if (best < 0 || outstanding(s) < outstanding(best)) best = s;
    }
    if (best >= 0) {
      router_->note_dispatch(pg, /*fallback=*/false);
      return best;
    }
    const int fb = least_loaded(avoid_down);
    if (fb >= 0) {
      router_->note_dispatch(chips_[static_cast<std::size_t>(fb)]->group(),
                             /*fallback=*/true);
    }
    return fb;
  }
  switch (config_.policy) {
    case BalancePolicy::kRoundRobin: {
      for (int tried = 0; tried < servers(); ++tried) {
        const int s = round_robin_next_;
        round_robin_next_ = (round_robin_next_ + 1) % servers();
        if (serving(s)) return s;
      }
      // Every chip parked/draining/down: the least-loaded fallback still
      // finds a draining chip, so work is never stranded.
      return least_loaded(avoid_down);
    }
    case BalancePolicy::kLeastLoaded:
      return least_loaded(avoid_down);
    case BalancePolicy::kPowerAware: {
      // Pack in index order while a chip has headroom; beyond that fall
      // back to least-loaded so saturation degrades gracefully.
      const double cap = config_.pack_depth_per_core *
                         static_cast<double>(cores_per_server());
      for (int s = 0; s < servers(); ++s) {
        if (serving(s) && static_cast<double>(outstanding(s)) < cap) return s;
      }
      return least_loaded(avoid_down);
    }
    case BalancePolicy::kGovernorAware: {
      const int base = least_loaded(avoid_down);
      if (base < 0) return -1;      // fully-dark fleet
      if (!governed_) return base;  // nothing to anticipate open-loop
      const bool critical =
          tenants_[static_cast<std::size_t>(req.tenant)].spec.latency_critical;
      if (!critical) return base;  // batch work soaks any chip, descending or not
      // Steer latency-critical work onto chips that are neither
      // mid-transition nor about to descend at the next epoch boundary
      // (the governor's pending decision, previewed via peek).
      int best = -1;
      for (int s = 0; s < servers(); ++s) {
        const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
        if (!serving(s)) continue;
        if (chip.in_transition(now_s) ||
            chip.pending_descent(now_s, epoch_start_s_, peek_window_s_)) {
          continue;
        }
        if (best < 0 || outstanding(s) < outstanding(best)) best = s;
      }
      if (best < 0) return base;  // every chip descending: nowhere to steer
      if (best != base) ++steered_;
      return best;
    }
  }
  return 0;
}

bool ClusterFleet::any_core_busy() const {
  for (const auto& chip : chips_) {
    if (chip->busy_cores() > 0) return true;
  }
  return false;
}

FleetResult ClusterFleet::run(int threads, obs::Telemetry* telemetry) {
  NTSERV_EXPECTS(!ran_,
                 "ClusterFleet::run is single-shot: the first run consumed the arrival "
                 "streams and tenant ledgers; use dc::FleetRunner (a fresh engine per "
                 "run) to repeat a run");
  ran_ = true;
  if (threads <= 0) threads = sim::ThreadPool::default_threads();
  const double base_f = config_.frequency.value();
  const double max_s = static_cast<double>(config_.max_cycles) / base_f;
  const Cycle q = config_.quantum;
  const double dt = static_cast<double>(q) / base_f;  // master wall quantum
  const int total_cores = servers() * cores_per_server();

  std::uint64_t total = 0;
  for (auto& tenant : tenants_) {
    total += tenant.total;
    tenant.next_arrival_s = tenant.arrivals->next().value();
  }

  // The run's only ledger: reported counters are written straight into
  // `r` and the tenants' result slices; fleet totals that a tenant slice
  // also carries are summed from the slices at the end.
  FleetResult r;
  const auto tenant_sum = [&](std::uint64_t TenantResult::*field) {
    std::uint64_t sum = 0;
    for (const auto& tenant : tenants_) sum += tenant.result.*field;
    return sum;
  };
  LatencyLedger latency;
  double now_s = 0.0;
  std::uint64_t next_id = 0;  ///< global admission-order sequence
  std::uint64_t disposed = 0;  ///< completed + shed + timed-out requests
  double last_arrival_s = 0.0;
  steered_ = 0;

  // ---- Fault & resilience state (all idle on a healthy, patient run) ----
  const ResilienceConfig& res = config_.resilience;
  const double timeout_s = res.timeout.value();
  std::unique_ptr<fault::FaultInjector> injector;
  if (config_.faults.any()) {
    injector =
        std::make_unique<fault::FaultInjector>(config_.faults, config_.seed, servers());
  }

  // ---- Telemetry (all idle when detached) ----
  // Only enabled components are wired: every emission site tests one
  // plain pointer, so detached/disabled telemetry stays off the hot path.
  trace_ = telemetry != nullptr && telemetry->trace.enabled() ? &telemetry->trace : nullptr;
  metrics_ =
      telemetry != nullptr && telemetry->metrics.enabled() ? &telemetry->metrics : nullptr;
  timers_ =
      telemetry != nullptr && telemetry->timers.enabled() ? &telemetry->timers : nullptr;
  for (std::size_t s = 0; s < chips_.size(); ++s) {
    chips_[s]->set_trace(trace_);
    if (!breakers_.empty()) breakers_[s].attach_trace(trace_, static_cast<int>(s));
  }
  if (brownout_) brownout_->attach_trace(trace_);
  if (capper_) capper_->attach_trace(trace_);
  obs::PhaseTimers::Scope run_scope(timers_, "fleet-run");
  if (trace_ != nullptr) {
    trace_->begin_run(servers());
    if (injector != nullptr) injector->attach_trace(trace_);
  }

  /// One admitted, unresolved dispatch copy of a request.
  struct LiveCopy {
    std::uint64_t copy;
    int server;
  };
  /// Everything the fleet knows about an undisposed request: the
  /// canonical fields (for retries and hedges), its live copies, and its
  /// fault exposure.
  struct PendingRequest {
    Request proto;
    std::vector<LiveCopy> live;
    bool hedged = false;
    bool damaged = false;  ///< lifetime overlapped an active fault window
  };
  std::unordered_map<std::uint64_t, PendingRequest> pending;  // id -> state
  /// In-service copies that lost their race (timeout abandonment or a
  /// sibling's win): they run to completion, and the completion is
  /// discarded as wasted work.
  std::unordered_set<std::uint64_t> dead_copies;
  std::uint64_t copy_seq = 0;

  struct CopyDeadline {
    double due_s;
    std::uint64_t copy;
    std::uint64_t id;
    [[nodiscard]] bool operator>(const CopyDeadline& o) const {
      return due_s != o.due_s ? due_s > o.due_s : copy > o.copy;
    }
  };
  std::priority_queue<CopyDeadline, std::vector<CopyDeadline>, std::greater<>> timeouts;
  struct HedgeDue {
    double due_s;
    std::uint64_t id;
    [[nodiscard]] bool operator>(const HedgeDue& o) const {
      return due_s != o.due_s ? due_s > o.due_s : id > o.id;
    }
  };
  std::priority_queue<HedgeDue, std::vector<HedgeDue>, std::greater<>> hedges;

  int chips_down = 0, chips_degraded = 0;
  std::vector<char> chip_degraded(static_cast<std::size_t>(servers()), 0);
  std::uint64_t damaged_live = 0;  ///< pending requests touched by a fault
  double first_fault_s = -1.0, recovered_at = -1.0;

  auto fault_active = [&] { return chips_down > 0 || chips_degraded > 0; };
  auto mark_damaged = [&](PendingRequest& pr) {
    if (pr.damaged) return;
    pr.damaged = true;
    ++damaged_live;
  };
  // The recovery point: every fault window closed *and* every request a
  // window touched disposed — the backlog a crash leaves behind is part
  // of the outage, not of normal operation. A later fault reopens it.
  auto note_recovery = [&](double t) {
    if (first_fault_s < 0.0 || recovered_at >= 0.0) return;
    if (!fault_active() && damaged_live == 0) recovered_at = t;
  };

  // Epoch (closed-loop) state. The epoch is a *wall-time* control
  // interval sized at the base frequency: a governor that slowed a
  // chip's clock must not also slow its own reaction time. All chips
  // share the boundary grid; each makes its own decision at it.
  const double epoch_len_s =
      static_cast<double>(config_.governor.epoch_quanta) * dt;
  epoch_start_s_ = 0.0;
  peek_window_s_ = 0.25 * epoch_len_s;
  std::uint64_t epoch_index = 0;
  // Run context for invariant-violation messages: where in the run the
  // fleet was when the invariant broke — the difference between a
  // diagnosable failure and a needle in a 1000-chip sweep.
  const auto run_context = [&] {
    std::ostringstream os;
    os << "[t=" << now_s << "s, epoch " << epoch_index << ", disposed " << disposed << "/"
       << total << "]";
    return os.str();
  };

  // Per-group ledgers (routing) and the time-in-stage attribution (ladder)
  // exist only when their subsystem runs.
  if (router_) {
    for (const auto& g : config_.orchestration.router.groups) r.group_names.push_back(g.name);
    r.group_energy.assign(r.group_names.size(), Joule{0.0});
    r.group_dispatches.assign(r.group_names.size(), 0);
  }
  if (brownout_) {
    r.brownout_stage_epochs.assign(static_cast<std::size_t>(ctrl::kBrownoutStages), 0);
  }

  // ---- Brownout state (idle when the ladder is off) ----
  ctrl::BrownoutStage stage = ctrl::BrownoutStage::kNormal;
  /// A correlated (domain-tagged) crash was delivered since the last
  /// barrier: the autoscaler's next decide() runs in emergency mode.
  bool domain_outage_pending = false;

  // The ladder's restrictions, queried at dispatch time. Latency-critical
  // traffic is never restricted; batch traffic loses progressively more.
  auto shed_by_brownout = [&](bool critical, bool fresh_arrival) {
    if (critical || stage < ctrl::BrownoutStage::kShedBatch) return false;
    if (stage >= ctrl::BrownoutStage::kCriticalOnly) return true;  // retries too
    return fresh_arrival;  // kShedBatch / kRelaxBatchQos: fresh arrivals only
  };
  auto hedge_suppressed = [&](bool critical) {
    if (stage >= ctrl::BrownoutStage::kCriticalOnly) return true;
    return !critical && stage >= ctrl::BrownoutStage::kRelaxBatchQos;
  };
  auto timeout_for = [&](bool critical) {
    if (!critical && stage >= ctrl::BrownoutStage::kRelaxBatchQos) {
      return timeout_s * config_.brownout.batch_timeout_relax;
    }
    return timeout_s;
  };

  // ---- Per-epoch metric columns (registered once, before any snapshot) ----
  struct ChipMetricIds {
    obs::MetricsRegistry::Id queue, freq, power, util, breaker, parked, down;
  };
  struct FleetMetricIds {
    obs::MetricsRegistry::Id offered, completed, shed, timed_out, retries;
    obs::MetricsRegistry::Id p50, p95, p99, brownout, power, parked, in_flight;
    obs::MetricsRegistry::Id latency_hist;
  };
  std::vector<ChipMetricIds> chip_metric_ids;
  FleetMetricIds fm{};
  if (metrics_ != nullptr) {
    chip_metric_ids.reserve(chips_.size());
    for (int s = 0; s < servers(); ++s) {
      const std::string p = "chip" + std::to_string(s) + ".";
      ChipMetricIds ids;
      ids.queue = metrics_->gauge(p + "queue");
      ids.freq = metrics_->gauge(p + "freq_ghz");
      ids.power = metrics_->gauge(p + "power_w");
      ids.util = metrics_->gauge(p + "util");
      ids.breaker = metrics_->gauge(p + "breaker");
      ids.parked = metrics_->gauge(p + "parked");
      ids.down = metrics_->gauge(p + "down");
      chip_metric_ids.push_back(ids);
    }
    fm.offered = metrics_->counter("fleet.offered");
    fm.completed = metrics_->counter("fleet.completed");
    fm.shed = metrics_->counter("fleet.shed");
    fm.timed_out = metrics_->counter("fleet.timed_out");
    fm.retries = metrics_->counter("fleet.retries");
    fm.p50 = metrics_->gauge("fleet.p50_us");
    fm.p95 = metrics_->gauge("fleet.p95_us");
    fm.p99 = metrics_->gauge("fleet.p99_us");
    fm.brownout = metrics_->gauge("fleet.brownout_stage");
    fm.power = metrics_->gauge("fleet.power_w");
    fm.parked = metrics_->gauge("fleet.parked_chips");
    fm.in_flight = metrics_->gauge("fleet.in_flight");
    fm.latency_hist = metrics_->histogram("fleet.latency_us");
  }

  // Snapshot the fleet for the orchestration controllers (live queue
  // depths, last closed epoch's utilization).
  auto chip_status = [&] {
    std::vector<orch::ChipStatus> status(chips_.size());
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      const ChipServer& chip = *chips_[s];
      status[s].chip = static_cast<int>(s);
      status[s].group = chip.group();
      status[s].down = chip.down();
      status[s].parked = chip.parked();
      status[s].draining = chip.draining();
      status[s].outstanding = chip.outstanding();
      status[s].utilization = chip.last_epoch_utilization();
      status[s].floor_power = chip.floor_power();
    }
    return status;
  };

  // Split the fleet cap over the chips, reserving sleep power for the
  // parked ones. With `apply`, each chip clamps its current operating
  // point at once (no transition stall) instead of at its next decision.
  auto split_cap = [&](bool apply) {
    const auto status = chip_status();
    Watt reserved{0.0};
    for (const auto& st : status) {
      if (st.parked && !st.down) {
        reserved += managers_[static_cast<std::size_t>(st.group)]->sleep_power();
      }
    }
    const std::vector<Watt> budgets = capper_->split(status, reserved);
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      chips_[s]->set_power_budget(budgets[s]);
      if (apply) chips_[s]->apply_power_budget();
    }
  };

  // Close the epoch on every chip: record, charge energy, and (unless
  // final) take each chip's next decision, beginning its transition
  // stall on a change. Orchestration lives at this barrier too: cap
  // budgets are refreshed *before* the chips close (so each governor's
  // decide() is clamped by the budget its queue earned), routing and
  // scaling react *after* (to the freshly measured epoch).
  auto close_epochs = [&](bool final_partial) {
    obs::PhaseTimers::Scope barrier_scope(timers_, "epoch-barrier");
    // Merge watermark: only events at or before the *closing* epoch's
    // start are final — a timeout processed just after this barrier may
    // carry a due time just before it (late by at most one delivery lag),
    // and admitting it into the merged stream later would break the
    // append-only determinism contract.
    const double trace_watermark = epoch_start_s_;
    const double duration = now_s - epoch_start_s_;
    if (capper_) split_cap(false);
    double epoch_energy_j = 0.0;
    std::vector<double> chip_power_w;
    if (metrics_ != nullptr) chip_power_w.assign(chips_.size(), 0.0);
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      auto& chip = chips_[s];
      auto outcome = chip->close_epoch(now_s, duration, epoch_index, final_partial);
      if (!outcome.emitted) continue;
      r.energy += Joule{outcome.energy_j};
      epoch_energy_j += outcome.energy_j;
      if (metrics_ != nullptr && duration > 0.0) {
        chip_power_w[s] = outcome.energy_j / duration;
      }
      if (!r.group_energy.empty()) {
        r.group_energy[static_cast<std::size_t>(chip->group())] += Joule{outcome.energy_j};
      }
      if (outcome.transition_s > 0.0) ++r.transitions;
      // Recorded per-epoch overlaps sum to the realized stall time, so
      // the records and the total stay consistent by construction.
      r.transition_time_total += outcome.record.transition_time;
      if (outcome.record.transition) ++r.transition_epochs;
      if (outcome.record.violation) ++r.qos_violation_epochs;
      if (outcome.record.margin > 0.0) ++r.guardband_epochs;
      if (outcome.record.capped) ++r.cap_clamp_epochs;
      r.epochs.push_back(outcome.record);
    }
    if (duration > 0.0) {
      const double realized_power = epoch_energy_j / duration;
      r.peak_epoch_power = std::max(r.peak_epoch_power, Watt{realized_power});
      if (capper_ &&
          realized_power > capper_->config().fleet_cap.value() * (1.0 + 1e-9)) {
        ++r.cap_violation_epochs;
      }
    }
    if (!final_partial && brownout_) {
      // Overload pressure: outstanding work per serving core. A fleet
      // with nothing serving but work outstanding is infinitely
      // pressured — the ladder pins at its maximum stage until capacity
      // returns.
      std::uint64_t outstanding_total = 0;
      int serving_cores = 0;
      for (const auto& chip : chips_) {
        outstanding_total += static_cast<std::uint64_t>(chip->outstanding());
        if (!chip->down() && !chip->parked() && !chip->draining()) {
          serving_cores += cores_per_server();
        }
      }
      const double pressure =
          serving_cores > 0
              ? static_cast<double>(outstanding_total) / static_cast<double>(serving_cores)
              : (outstanding_total > 0 ? 1e9 : 0.0);
      stage = brownout_->observe(pressure);
      // The stage set here governs the *upcoming* epoch's dispatches.
      ++r.brownout_stage_epochs[static_cast<std::size_t>(stage)];
      if (stage != ctrl::BrownoutStage::kNormal) {
        ++r.brownout_epochs;
        for (auto& tenant : tenants_) {
          if (!tenant.spec.latency_critical) ++tenant.result.brownout_epochs;
        }
      }
    }
    if (!final_partial && !breakers_.empty()) {
      for (auto& b : breakers_) {
        b.close_epoch();
        if (b.state() == ctrl::BreakerState::kOpen) ++r.breaker_open_epochs;
      }
    }
    if (!final_partial && router_) router_->observe_epoch(epoch_index, chip_status());
    if (!final_partial && autoscaler_) {
      const bool emergency = domain_outage_pending;
      domain_outage_pending = false;
      bool acted = false;
      for (const orch::ScaleDecision& d : autoscaler_->decide(chip_status(), emergency)) {
        acted = true;
        ChipServer& chip = *chips_[static_cast<std::size_t>(d.chip)];
        switch (d.action) {
          case orch::ScaleAction::kUnpark: {
            // Warm/cold ladder: a recently-parked chip wakes at a
            // fraction of the full latency.
            const Second wake =
                autoscaler_->config().wake_latency_for(now_s - chip.parked_since());
            // Reporting slice only: the wake stall is charged through the
            // overlapped epochs like any transition.
            r.wake_energy +=
                managers_[static_cast<std::size_t>(chip.group())]->wake_energy(
                    chip.frequency(), wake);
            chip.unpark(now_s, wake);
            ++r.autoscale_unparks;
            if (emergency) ++r.emergency_wakes;
            if (trace_ != nullptr) {
              trace_->emit_now(obs::EventKind::kUnpark, d.chip, /*tenant=*/-1,
                               /*id=*/emergency ? 1 : 0, /*value=*/wake.value());
            }
            break;
          }
          case orch::ScaleAction::kCancelDrain:
            chip.cancel_drain();
            if (trace_ != nullptr) trace_->emit_now(obs::EventKind::kCancelDrain, d.chip);
            break;
          case orch::ScaleAction::kDrain:
            chip.begin_drain();
            ++r.autoscale_drains;
            if (trace_ != nullptr) trace_->emit_now(obs::EventKind::kDrain, d.chip);
            break;
          case orch::ScaleAction::kPark:
            // Re-check live state: the decision was made on a snapshot.
            if (!chip.down() && !chip.parked() && chip.outstanding() == 0) {
              chip.park(now_s);
              ++r.autoscale_parks;
              if (trace_ != nullptr) trace_->emit_now(obs::EventKind::kPark, d.chip);
            }
            break;
        }
      }
      if (acted && capper_) {
        // The budgets split at the top of this barrier assumed the
        // pre-action fleet; re-split over the post-action survivors so a
        // newly-woken chip does not serve an entire epoch on a zero
        // budget. Applied without a transition stall (same barrier).
        split_cap(true);
      }
    }
    if (metrics_ != nullptr) {
      int parked_chips = 0;
      for (std::size_t s = 0; s < chips_.size(); ++s) {
        const ChipServer& chip = *chips_[s];
        const ChipMetricIds& ids = chip_metric_ids[s];
        metrics_->set(ids.queue, static_cast<double>(chip.outstanding()));
        metrics_->set(ids.freq, chip.frequency().value() / 1e9);
        metrics_->set(ids.power, chip_power_w[s]);
        metrics_->set(ids.util, chip.last_epoch_utilization());
        metrics_->set(ids.breaker,
                      breakers_.empty()
                          ? 0.0
                          : static_cast<double>(static_cast<int>(breakers_[s].state())));
        metrics_->set(ids.parked, chip.parked() ? 1.0 : 0.0);
        metrics_->set(ids.down, chip.down() ? 1.0 : 0.0);
        if (chip.parked()) ++parked_chips;
      }
      const StreamingPercentiles& tail = latency.percentiles;
      metrics_->set(fm.offered, static_cast<double>(tenant_sum(&TenantResult::offered)));
      metrics_->set(fm.completed,
                    static_cast<double>(tenant_sum(&TenantResult::completed_all)));
      metrics_->set(fm.shed, static_cast<double>(tenant_sum(&TenantResult::shed)));
      metrics_->set(fm.timed_out, static_cast<double>(tenant_sum(&TenantResult::timed_out)));
      metrics_->set(fm.retries, static_cast<double>(r.retries));
      metrics_->set(fm.p50, tail.count() > 0 ? tail.p50() * 1e6 : 0.0);
      metrics_->set(fm.p95, tail.count() > 0 ? tail.p95() * 1e6 : 0.0);
      metrics_->set(fm.p99, tail.count() > 0 ? tail.p99() * 1e6 : 0.0);
      metrics_->set(fm.brownout, static_cast<double>(static_cast<int>(stage)));
      metrics_->set(fm.power, duration > 0.0 ? epoch_energy_j / duration : 0.0);
      metrics_->set(fm.parked, static_cast<double>(parked_chips));
      metrics_->set(fm.in_flight, static_cast<double>(pending.size()));
      metrics_->snapshot(epoch_index, now_s);
    }
    if (trace_ != nullptr) trace_->merge(trace_watermark);
    ++epoch_index;
    epoch_start_s_ = now_s;
  };

  // Every disposal — completion, shed, timeout — retires the request's
  // tracking entry through here, so `disposed`, the damage drain and the
  // recovery point stay consistent by construction.
  auto erase_pending = [&](std::unordered_map<std::uint64_t, PendingRequest>::iterator it) {
    if (it->second.damaged) --damaged_live;
    pending.erase(it);
    ++disposed;
    note_recovery(now_s);
  };

  auto measure_completion = [&](const Request& req, bool damaged) {
    TenantState& tenant = tenants_[static_cast<std::size_t>(req.tenant)];
    ++tenant.result.completed_all;
    if (req.tenant_seq >= tenant.spec.warmup_requests) {
      if (metrics_ != nullptr) metrics_->observe(fm.latency_hist, req.latency_s() * 1e6);
      latency.add(req);
      ++tenant.result.completed;
      tenant.latency.add(req);
      const double limit = tenant.spec.qos_p99_limit.value();
      if (limit > 0.0 && req.latency_s() > limit) {
        ++tenant.result.sla_violations;
        if (damaged) ++tenant.result.degraded_sla_violations;
      }
    }
  };

  // Remove a cancelled copy from the fleet: dequeue it if it is still
  // waiting, otherwise it is in service and its eventual completion is
  // discarded as wasted work.
  auto cancel_copy = [&](const LiveCopy& lc) {
    auto& qd = chips_[static_cast<std::size_t>(lc.server)]->queue();
    for (auto qit = qd.begin(); qit != qd.end(); ++qit) {
      if (qit->copy == lc.copy) {
        qd.erase(qit);
        return;
      }
    }
    dead_copies.insert(lc.copy);
  };

  // Chip completion sink: resolve the race between a request's copies.
  // The first live copy to complete wins; every sibling is cancelled and
  // the request is disposed. Late completions of abandoned copies are
  // counted as wasted work, never measured twice.
  auto completion_sink = [&](const Request& req) {
    // Any completion — even of an abandoned copy — proves the chip can
    // serve, so the breaker credit lands before the dead-copy discard.
    if (!breakers_.empty()) {
      breakers_[static_cast<std::size_t>(req.server)].record_success();
    }
    if (dead_copies.erase(req.copy) > 0) {
      ++r.wasted_completions;
      return;
    }
    auto it = pending.find(req.id);
    NTSERV_ENSURES(it != pending.end(), "completion for an unknown request " + run_context());
    PendingRequest& pr = it->second;
    auto lit = std::find_if(pr.live.begin(), pr.live.end(),
                            [&](const LiveCopy& c) { return c.copy == req.copy; });
    NTSERV_ENSURES(lit != pr.live.end(),
                   "completion for a copy that is neither live nor dead " + run_context());
    pr.live.erase(lit);
    for (const auto& other : pr.live) cancel_copy(other);
    pr.live.clear();
    if (req.hedge) ++r.hedge_wins;
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kComplete, req.server, req.completion_s, req.tenant,
                   static_cast<std::int64_t>(req.id), /*value=*/req.latency_s(),
                   /*aux_s=*/req.start_s, req.core);
    }
    measure_completion(req, pr.damaged || fault_active());
    erase_pending(it);
  };

  // Hedge delay: the tail-at-scale rule — a multiple of the measured
  // running p95, with a configured floor until enough completions exist
  // for the estimate to be a tail.
  auto hedge_delay = [&]() {
    if (latency.percentiles.count() >= res.hedge_warmup && latency.percentiles.p95() > 0.0) {
      return res.hedge_multiplier * latency.percentiles.p95();
    }
    return res.hedge_min_delay.value();
  };

  // Admit one copy of a pending request (a primary, or a hedge when
  // req.hedge) into chip `server`'s queue. Every admission flows through
  // here, so the admitted count, the per-group dispatch ledger (routed
  // fleets) and the breaker's dispatch window agree by construction.
  auto admit_copy = [&](PendingRequest& pr, Request req, int server, double event_s,
                        bool critical) {
    auto& chip = *chips_[static_cast<std::size_t>(server)];
    req.server = server;
    req.copy = ++copy_seq;
    chip.queue().push_back(req);
    ++r.admitted;
    if (!breakers_.empty()) {
      breakers_[static_cast<std::size_t>(server)].record_dispatch();
    }
    if (!r.group_dispatches.empty()) {
      ++r.group_dispatches[static_cast<std::size_t>(chip.group())];
    }
    if (trace_ != nullptr) {
      trace_->emit(req.hedge ? obs::EventKind::kHedge : obs::EventKind::kDispatch, server,
                   event_s, req.tenant, static_cast<std::int64_t>(req.id));
    }
    pr.live.push_back({req.copy, server});
    if (chip.down() || chip.degraded()) mark_damaged(pr);
    if (timeout_s > 0.0) timeouts.push({event_s + timeout_for(critical), req.copy, req.id});
  };

  // Hand a request back to its client as a parked retry at the base
  // back-off, without charging its retry budget: the fleet has no chip
  // to place it on until a recovery.
  auto park_until_recovery = [&](const Request& req, double event_s) {
    const double due = event_s + admission_.retry_delay(0).value();
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kRetry, /*chip=*/-1, event_s, req.tenant,
                   static_cast<std::int64_t>(req.id), /*value=*/0.0, /*aux_s=*/due);
    }
    retries_.push(RetryEntry{due, req});
  };

  // One dispatch attempt at event time `event_s` (arrival, back-off
  // expiry, or timeout retry): admit a fresh copy into the picked chip's
  // queue, or back the client off, or shed once the retry budget is
  // spent. With failover and a fully-dark fleet, park until a recovery
  // without charging the retry budget.
  auto dispatch = [&](Request req, double event_s, bool fresh) {
    auto pit = pending.find(req.id);
    NTSERV_ENSURES(pit != pending.end(), "dispatch of an untracked request " + run_context());
    PendingRequest& pr = pit->second;
    const bool critical =
        tenants_[static_cast<std::size_t>(req.tenant)].spec.latency_critical;
    if (shed_by_brownout(critical, fresh)) {
      // Brownout shed: deliberate load shedding under the ladder, booked
      // in the same shed column (the tiling invariant holds) plus the
      // brownout attribution so a post-mortem can split deliberate from
      // overload shed.
      TenantResult& tenant = tenants_[static_cast<std::size_t>(req.tenant)].result;
      ++tenant.shed;
      ++tenant.brownout_shed;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kBrownoutShed, /*chip=*/-1, event_s, req.tenant,
                     static_cast<std::int64_t>(req.id));
      }
      erase_pending(pit);
      return;
    }
    const int server = pick_server(req, now_s);
    if (server < 0) {
      park_until_recovery(req, event_s);
      return;
    }
    if (admission_.admit(outstanding(server), cores_per_server())) {
      req.hedge = false;
      admit_copy(pr, req, server, event_s, critical);
      pr.proto.attempts = req.attempts;
      if (res.hedging && !pr.hedged && pr.live.size() == 1 && servers() > 1 &&
          !hedge_suppressed(critical)) {
        hedges.push({event_s + hedge_delay(), req.id});
      }
      return;
    }
    if (admission_.may_retry(req.attempts)) {
      ++r.retries;
      const double due = event_s + admission_.retry_delay(req.attempts).value();
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kRetry, /*chip=*/-1, event_s, req.tenant,
                     static_cast<std::int64_t>(req.id), /*value=*/0.0, /*aux_s=*/due);
      }
      ++req.attempts;
      pr.proto.attempts = req.attempts;
      retries_.push(RetryEntry{due, req});
      return;
    }
    ++tenants_[static_cast<std::size_t>(req.tenant)].result.shed;
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kShed, /*chip=*/-1, event_s, req.tenant,
                   static_cast<std::int64_t>(req.id));
    }
    erase_pending(pit);
  };

  // Dispatch the hedged duplicate: a different healthy chip, admitted
  // through the same controller; a rejected hedge is simply dropped (it
  // is opportunistic — the primary still runs).
  auto dispatch_hedge = [&](std::uint64_t id, double event_s) {
    auto pit = pending.find(id);
    if (pit == pending.end()) return;  // already resolved
    PendingRequest& pr = pit->second;
    if (pr.hedged || pr.live.empty()) return;  // one hedge max; back-off limbo
    const bool critical =
        tenants_[static_cast<std::size_t>(pr.proto.tenant)].spec.latency_critical;
    // Re-check at fire time: the ladder may have escalated since the
    // hedge was scheduled, and a hedge is pure extra load.
    if (hedge_suppressed(critical)) return;
    const int primary = pr.live.front().server;
    // Cross-domain placement: prefer a healthy chip in a *different*
    // failure domain (a hedge against the primary's rack dying), falling
    // back to any healthy chip via the tier scheme.
    const int server =
        least_loaded(/*healthy_only=*/true, /*exclude=*/primary,
                     /*avoid_domain=*/chip_domain_[static_cast<std::size_t>(primary)]);
    if (server < 0) return;
    if (!admission_.admit(outstanding(server), cores_per_server())) return;
    Request req = pr.proto;
    req.hedge = true;
    admit_copy(pr, req, server, event_s, critical);
    pr.hedged = true;
    ++tenants_[static_cast<std::size_t>(req.tenant)].result.hedged;
  };

  // Expire per-attempt timeouts due by `now_s`: abandon the late copy;
  // once no copy is left racing, retry through the admission back-off
  // schedule or dispose the request as timed out.
  auto process_timeouts = [&]() {
    while (!timeouts.empty() && timeouts.top().due_s <= now_s) {
      const CopyDeadline d = timeouts.top();
      timeouts.pop();
      auto pit = pending.find(d.id);
      if (pit == pending.end()) continue;  // request already resolved
      PendingRequest& pr = pit->second;
      auto lit = std::find_if(pr.live.begin(), pr.live.end(),
                              [&](const LiveCopy& c) { return c.copy == d.copy; });
      if (lit == pr.live.end()) continue;  // copy already resolved
      if (!breakers_.empty()) {
        breakers_[static_cast<std::size_t>(lit->server)].record_failure();
      }
      cancel_copy(*lit);
      pr.live.erase(lit);
      if (!pr.live.empty()) continue;  // a sibling copy is still racing
      Request req = pr.proto;
      if (admission_.may_retry(req.attempts)) {
        ++r.retries;
        const double due = d.due_s + admission_.retry_delay(req.attempts).value();
        ++req.attempts;
        pr.proto.attempts = req.attempts;
        retries_.push(RetryEntry{due, req});
        continue;
      }
      ++tenants_[static_cast<std::size_t>(pr.proto.tenant)].result.timed_out;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kTimeout, /*chip=*/-1, d.due_s, pr.proto.tenant,
                     static_cast<std::int64_t>(d.id));
      }
      erase_pending(pit);
    }
  };

  auto process_hedges = [&]() {
    while (!hedges.empty() && hedges.top().due_s <= now_s) {
      const HedgeDue h = hedges.top();
      hedges.pop();
      dispatch_hedge(h.id, h.due_s);
    }
  };

  // Deliver one fault event to its chip (and, for crashes under
  // failover, to the dispatcher).
  auto apply_fault = [&](const fault::FaultEvent& e) {
    auto& chip = *chips_[static_cast<std::size_t>(e.chip)];
    ++r.faults_injected;
    if (first_fault_s < 0.0) first_fault_s = e.at_s;
    recovered_at = -1.0;  // a new fault reopens the recovery window
    const auto damage_residents = [&] {
      for (auto& [id, pr] : pending) {
        for (const auto& lc : pr.live) {
          if (lc.server == e.chip) {
            mark_damaged(pr);
            break;
          }
        }
      }
    };
    switch (e.kind) {
      case fault::FaultKind::kCrash: {
        // A domain-tagged crash is one chip of a correlated outage: arm
        // the autoscaler's emergency wake for the next barrier.
        if (e.domain >= 0) domain_outage_pending = true;
        if (chip.down()) return;  // scripted double-crash: idempotent
        ++chips_down;
        std::vector<Request> victims = chip.crash(now_s);
        damage_residents();
        if (res.failover) {
          // Health-aware failover: in-flight losses first (they are the
          // oldest work), then the drained queue, each re-placed on the
          // least-loaded healthy chip. Re-placement bypasses admission —
          // the balancer must land displaced work somewhere.
          auto& qd = chip.queue();
          victims.insert(victims.end(), qd.begin(), qd.end());
          qd.clear();
          for (Request& victim : victims) {
            auto pit = pending.find(victim.id);
            NTSERV_ENSURES(pit != pending.end(), "crash victim is untracked " + run_context());
            auto& live = pit->second.live;
            live.erase(std::find_if(live.begin(), live.end(), [&](const LiveCopy& c) {
              return c.copy == victim.copy;
            }));
            const int target = least_loaded(/*healthy_only=*/true);
            if (target >= 0) {
              victim.server = target;
              chips_[static_cast<std::size_t>(target)]->queue().push_back(victim);
              live.push_back({victim.copy, target});
              ++tenants_[static_cast<std::size_t>(victim.tenant)].result.redispatched;
              if (trace_ != nullptr) {
                trace_->emit_now(obs::EventKind::kRedispatch, target, victim.tenant,
                                 static_cast<std::int64_t>(victim.id));
              }
            } else {
              park_until_recovery(pit->second.proto, now_s);  // fully-dark fleet
            }
          }
        } else {
          // Health-blind dispatch: the in-flight losses restart on this
          // same chip at recovery, ahead of the queued backlog (they are
          // older), and the queue waits out the outage.
          for (auto rit = victims.rbegin(); rit != victims.rend(); ++rit) {
            chip.queue().push_front(*rit);
          }
        }
        break;
      }
      case fault::FaultKind::kRecover:
        if (!chip.down()) return;
        --chips_down;
        chip.recover(now_s);
        break;
      case fault::FaultKind::kDegrade:
        // A degrade is a serving failure from the breaker's viewpoint:
        // errors on this chip count toward its trip rate.
        if (!breakers_.empty()) {
          breakers_[static_cast<std::size_t>(e.chip)].record_failure();
        }
        if (chip_degraded[static_cast<std::size_t>(e.chip)] == 0) {
          chip_degraded[static_cast<std::size_t>(e.chip)] = 1;
          ++chips_degraded;
        }
        chip.degrade(e.freq_cap, e.core_cap);
        chip.notify_error();  // governor guardband engages
        damage_residents();
        break;
      case fault::FaultKind::kRestore:
        if (chip_degraded[static_cast<std::size_t>(e.chip)] == 1) {
          chip_degraded[static_cast<std::size_t>(e.chip)] = 0;
          --chips_degraded;
        }
        chip.restore();
        break;
      case fault::FaultKind::kDomainOutage:
      case fault::FaultKind::kThermalEmergency:
        // Domain-level kinds expand to per-chip primitives when the
        // schedule is resolved; the injector never delivers them.
        NTSERV_EXPECTS(false, "unexpanded domain-level fault reached delivery " + run_context());
        break;
    }
    note_recovery(now_s);
  };

  // Earliest pending arrival across tenants; tenants_.size() when none.
  auto next_arrival_tenant = [&]() -> std::size_t {
    std::size_t best = tenants_.size();
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].result.offered >= tenants_[t].total) continue;
      if (best == tenants_.size() ||
          tenants_[t].next_arrival_s < tenants_[best].next_arrival_s) {
        best = t;
      }
    }
    return best;
  };

  // ---- Chip-granular data plane ----
  // Between barriers, the pool's workers claim chips one at a time and
  // advance them. ChipServer::advance is chip-local by construction
  // (clusters, slots, queue, accounting — it never touches fleet or
  // trace state), so the only cross-chip effect of the serial loop was
  // the completion sink. Completions are therefore staged into per-chip
  // buffers — advance() hands them over in deterministic cluster-major
  // order per chip — and drained serially in ascending chip index after
  // the quantum's barrier, which is exactly the order the serial loop
  // invoked the sink. Which worker advanced which chip is unobservable,
  // so every thread count (including 1, which runs the same staging
  // path) produces bit-identical results and telemetry.
  std::vector<std::vector<Request>> staged(chips_.size());
  // One persistent pool per run (not per quantum): this thread and the
  // pool's helpers form the team, and the helpers spin briefly, then park,
  // between quanta, so the per-quantum cost is one generation bump plus
  // one pending-count barrier.
  const int pool_threads = std::min(threads, servers());
  std::unique_ptr<sim::ThreadPool> pool;
  if (pool_threads > 1) pool = std::make_unique<sim::ThreadPool>(pool_threads);
  auto advance_chip = [&](std::size_t s) {
    auto& chip = *chips_[s];
    if (chip.in_transition(now_s)) return;  // voltage domain mid-swing
    chip.advance(now_s, dt, q, staged[s]);
  };
  auto advance_chips = [&] {
    {
      obs::PhaseTimers::Scope advance_scope(timers_, "fleet-advance");
      if (pool == nullptr) {
        for (std::size_t s = 0; s < chips_.size(); ++s) advance_chip(s);
      } else {
        pool->run_indexed(chips_.size(), advance_chip);
      }
    }
    obs::PhaseTimers::Scope drain_scope(timers_, "fleet-drain");
    for (auto& buf : staged) {
      for (const Request& req : buf) completion_sink(req);
      buf.clear();
    }
  };

  while (disposed < total) {
    if (now_s >= max_s) {
      r.truncated = true;
      break;
    }
    if (trace_ != nullptr) trace_->set_now(now_s);
    if (injector != nullptr) {
      while (injector->due(now_s)) apply_fault(injector->pop());
    }
    if (governed_ && now_s >= epoch_start_s_ + epoch_len_s) close_epochs(false);
    process_timeouts();

    // Admit everything due by `now_s`: merge the tenants' arrival streams
    // and the back-off heap in event-time order (ties go to the fresh
    // arrival, then to the lower tenant index, so ids stay in admission
    // order).
    for (;;) {
      const std::size_t t = next_arrival_tenant();
      const bool arrival_due =
          t < tenants_.size() && tenants_[t].next_arrival_s <= now_s;
      const bool retry_due = !retries_.empty() && retries_.top().due_s <= now_s;
      if (!arrival_due && !retry_due) break;
      if (arrival_due &&
          (!retry_due || tenants_[t].next_arrival_s <= retries_.top().due_s)) {
        TenantState& tenant = tenants_[t];
        Request req;
        req.id = next_id++;
        req.tenant = static_cast<int>(t);
        req.tenant_seq = tenant.result.offered;
        req.arrival_s = tenant.next_arrival_s;
        req.budget = tenant.budgets->sample(req.tenant_seq);
        last_arrival_s = std::max(last_arrival_s, tenant.next_arrival_s);
        ++tenant.result.offered;
        if (tenant.result.offered < tenant.total) {
          tenant.next_arrival_s = tenant.arrivals->next().value();
        }
        pending.emplace(req.id, PendingRequest{req, {}, false, false});
        if (trace_ != nullptr) {
          trace_->emit(obs::EventKind::kAdmit, /*chip=*/-1, req.arrival_s, req.tenant,
                       static_cast<std::int64_t>(req.id));
        }
        dispatch(req, req.arrival_s, /*fresh=*/true);
      } else {
        const RetryEntry entry = retries_.top();
        retries_.pop();
        dispatch(entry.request, entry.due_s, /*fresh=*/false);
      }
    }
    process_hedges();

    for (auto& chip : chips_) chip->start_services(now_s);

    if (!any_core_busy()) {
      // Whole fleet idle: every chip would sleep, so jump straight to the
      // next event — arrival, back-off expiry, or a stalled chip's
      // transition end when it has queued work — on the base-frequency
      // cycle grid (the fleet-level analogue of event skipping; the
      // skipped span is credited to sleep in the energy accounting).
      // Governed runs additionally stop at the epoch boundary so every
      // chip's governor observes every epoch, idle or not.
      double next_event = std::numeric_limits<double>::infinity();
      const std::size_t t = next_arrival_tenant();
      if (t < tenants_.size()) next_event = tenants_[t].next_arrival_s;
      if (!retries_.empty()) next_event = std::min(next_event, retries_.top().due_s);
      if (!timeouts.empty()) next_event = std::min(next_event, timeouts.top().due_s);
      if (!hedges.empty()) next_event = std::min(next_event, hedges.top().due_s);
      if (injector != nullptr) next_event = std::min(next_event, injector->next_time());
      for (const auto& chip : chips_) {
        if (chip->in_transition(now_s) && !chip->queue().empty()) {
          next_event = std::min(next_event, chip->stall_until());
        }
      }
      if (!std::isfinite(next_event)) {
        // The last request can be disposed *inside* this iteration (a
        // timeout expiry with the fleet already idle): nothing is left
        // to wait for, so take the loop exit the top-of-loop check would
        // have taken.
        if (disposed >= total) break;
        // A crashed chip that never recovers can strand its queue (and,
        // health-blind, its in-flight work) with no future event: run
        // out the clock so the stranded requests surface as in_flight on
        // a truncated result instead of tripping the invariant below.
        if (chips_down > 0) {
          now_s = max_s;
          continue;
        }
        NTSERV_EXPECTS(false, "idle fleet with requests unaccounted for " + run_context());
      }
      double target = std::max(now_s + 1.0 / base_f,
                               std::ceil(next_event * base_f) / base_f);
      if (governed_) target = std::min(target, epoch_start_s_ + epoch_len_s);
      now_s = std::min(target, max_s);
      continue;
    }

    advance_chips();
    now_s += dt;
  }

  if (trace_ != nullptr) trace_->set_now(now_s);
  if (governed_) close_epochs(true);
  if (trace_ != nullptr) trace_->finish();

  // In-flight remainders at truncation, attributed to their tenants so
  // the per-tenant ledgers tile too.
  for (const auto& [id, pr] : pending) {
    ++tenants_[static_cast<std::size_t>(pr.proto.tenant)].result.in_flight;
  }
  r.offered = tenant_sum(&TenantResult::offered);
  r.completed = tenant_sum(&TenantResult::completed);
  r.completed_all = tenant_sum(&TenantResult::completed_all);
  r.shed = tenant_sum(&TenantResult::shed);
  r.timed_out = tenant_sum(&TenantResult::timed_out);
  r.hedged = tenant_sum(&TenantResult::hedged);
  r.redispatched = tenant_sum(&TenantResult::redispatched);
  r.brownout_shed = tenant_sum(&TenantResult::brownout_shed);
  r.sla_violations = tenant_sum(&TenantResult::sla_violations);
  r.degraded_sla_violations = tenant_sum(&TenantResult::degraded_sla_violations);
  r.in_flight = pending.size();
  // The availability ledger must tile: every offered request is exactly
  // one of completed, shed, timed out, or still in flight (truncation).
  NTSERV_ENSURES(r.offered == r.completed_all + r.shed + r.timed_out + r.in_flight,
                 "request accounting does not tile " + run_context());

  r.workload = config_.profile.name;
  r.frequency = config_.frequency;
  r.shed_rate =
      r.offered > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.offered) : 0.0;
  r.steered = steered_;
  if (first_fault_s >= 0.0) {
    r.first_fault = Second{first_fault_s};
    if (recovered_at >= 0.0 && !r.truncated) {
      r.recovered = true;
      r.time_to_recover = Second{recovered_at - first_fault_s};
    }
  }
  r.governed = governed_;
  r.brownout_enabled = brownout_.has_value();
  r.breakers_enabled = !breakers_.empty();
  r.autoscaled = autoscaler_.has_value();
  for (const auto& b : breakers_) r.breaker_trips += b.trips();
  r.span_seconds = Second{now_s};
  r.span_cycles = static_cast<Cycle>(std::llround(now_s * base_f));
  latency.fill(r);
  if (last_arrival_s > 0.0) {
    r.offered_rate = static_cast<double>(r.offered) / last_arrival_s;
  }
  if (now_s > 0.0) {
    r.throughput = static_cast<double>(r.completed_all) / now_s;
    // Measured completions within their tenant's bound (violations are a
    // subset of the measured completions).
    r.goodput = static_cast<double>(r.completed - r.sla_violations) / now_s;
  }
  double busy_core_seconds = 0.0, parked_s = 0.0;
  double freq_seconds = 0.0, governed_seconds = 0.0;
  r.server_active_fraction.reserve(chips_.size());
  for (const auto& chip : chips_) {
    busy_core_seconds += chip->busy_core_seconds();
    freq_seconds += chip->freq_seconds();
    governed_seconds += chip->governed_seconds();
    parked_s += chip->parked_seconds(now_s);
    r.server_active_fraction.push_back(now_s > 0.0 ? chip->active_seconds() / now_s : 0.0);
  }
  if (now_s > 0.0) {
    r.utilization = busy_core_seconds / (now_s * static_cast<double>(total_cores));
  }
  r.avg_frequency_ghz = governed_seconds > 0.0 ? freq_seconds / governed_seconds / 1e9 : 0.0;
  r.parked_seconds = Second{parked_s};
  if (capper_) r.fleet_cap = capper_->config().fleet_cap;
  if (router_) r.router_epochs = router_->epochs();

  r.tenants.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    TenantResult& tr = tenants_[t].result;
    NTSERV_ENSURES(tr.offered == tr.completed_all + tr.shed + tr.timed_out + tr.in_flight,
                   "tenant '" + tr.name + "' accounting does not tile " + run_context());
    tr.shed_rate =
        tr.offered > 0 ? static_cast<double>(tr.shed) / static_cast<double>(tr.offered) : 0.0;
    tenants_[t].latency.fill(tr);
    for (const auto& chip : chips_) {
      tr.busy_core_seconds += chip->tenant_busy_seconds(static_cast<int>(t));
    }
    tr.busy_share =
        busy_core_seconds > 0.0 ? tr.busy_core_seconds / busy_core_seconds : 0.0;
    // Energy attribution by occupied core time: the tenant that kept the
    // cores busy carries the matching share of the envelope energy
    // (idle/sleep overhead rides along proportionally).
    tr.energy = Joule{r.energy.value() * tr.busy_share};
    r.tenants.push_back(std::move(tr));
  }
  return r;
}

Joule fleet_energy(const FleetResult& result, const pm::PowerManager& manager,
                   Hertz frequency) {
  NTSERV_EXPECTS(frequency.value() > 0.0, "frequency must be positive");
  const Second span = result.span_seconds.value() > 0.0
                          ? result.span_seconds
                          : Second{static_cast<double>(result.span_cycles) /
                                   frequency.value()};
  Joule total{0.0};
  for (double duty : result.server_active_fraction) {
    total += manager.energy_for_duty(frequency, duty, span);
  }
  return total;
}

}  // namespace ntserv::dc
