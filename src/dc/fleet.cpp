#include "dc/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dc/latency_stats.hpp"
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

ClusterFleet::ClusterFleet(FleetConfig config, int build_threads) : config_(std::move(config)) {
  config_.validate();
  // Governed chips come in groups, each with one platform (manager) and
  // governor shape: one group per router group — its own tech point, curve
  // and governor, over a contiguous chip range in config order — or the
  // whole fleet without routing.
  std::vector<std::pair<ctrl::GovernorConfig*, int>> groups;
  if (config_.orchestration.router.enabled) {
    for (auto& g : config_.orchestration.router.groups) groups.emplace_back(&g.governor, g.servers);
  } else if (config_.governor.kind != ctrl::GovernorKind::kNone) {
    groups.emplace_back(&config_.governor, config_.servers);
  }
  if (!groups.empty() && config_.governor.curve.empty()) {
    config_.governor.curve = ctrl::default_uips_curve();
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
    params.tenants = static_cast<int>(config_.tenants.size());
    chips_[i] = std::make_unique<ChipServer>(params);
  });
  // One governor instance per chip: identical initial state, but each
  // evolves on its own chip's observations (per-chip DVFS).
  std::size_t chip = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ctrl::GovernorConfig& gc = *groups[g].first;
    if (gc.curve.empty()) gc.curve = config_.governor.curve;
    pm::PowerManager& manager = *managers_.emplace_back(
        std::make_unique<pm::PowerManager>(ctrl::make_power_manager(gc)));
    for (int k = 0; k < groups[g].second; ++k, ++chip) {
      chips_[chip]->set_group(static_cast<int>(g));
      chips_[chip]->attach_governor(ctrl::make_governor(gc, manager), &manager, gc.qos_p99_limit);
    }
  }
  if (config_.orchestration.cap.enabled) {
    // Clamp the initial operating point too, so epoch 0 already respects
    // the cap: an equal split (no queue signal yet), applied without a
    // transition stall — the fleet starts at the capped point rather
    // than dropping to it.
    std::vector<orch::ChipStatus> status(chips_.size());
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      status[s].chip = static_cast<int>(s);
      status[s].group = chips_[s]->group();
    }
    const std::vector<Watt> budgets =
        orch::PowerCapper{config_.orchestration.cap}.split(status, Watt{0.0});
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      chips_[s]->set_power_budget(budgets[s]);
      chips_[s]->apply_power_budget();
    }
  }
}

namespace {

using Chips = std::vector<std::unique_ptr<ChipServer>>;

constexpr double kNever = std::numeric_limits<double>::infinity();

int cores_per_chip(const FleetConfig& config) {
  return config.clusters_per_chip * config.cluster.hierarchy.cores;
}

std::uint64_t tenant_sum(const FleetResult& r, std::uint64_t TenantResult::*field) {
  std::uint64_t sum = 0;
  for (const auto& tenant : r.tenants) sum += tenant.*field;
  return sum;
}

/// Latency measurement over measured completions, kept by the fleet and
/// by each tenant.
struct LatencyLedger {
  StreamingPercentiles percentiles;
  RunningStats latency;
  RunningStats wait;

  void add(const Request& req) {
    percentiles.add(req.latency_s());
    latency.add(req.latency_s());
    wait.add(req.wait_s());
  }
  /// Fill a FleetResult's or TenantResult's mean/p50/p95/p99/mean_wait
  /// (left zero when nothing was measured).
  template <class Result>
  void fill(Result& result) const {
    if (percentiles.count() == 0) return;
    result.mean_latency = Second{latency.mean()};
    result.p50 = Second{percentiles.p50()};
    result.p95 = Second{percentiles.p95()};
    result.p99 = Second{percentiles.p99()};
    result.mean_wait = Second{wait.mean()};
  }
};

/// Deferred events of one kind, in a min-heap on (due time, key): the
/// key breaks ties deterministically.
template <class T>
class DueQueue {
 public:
  struct Entry {
    double due_s;
    std::uint64_t key;
    T item;
    [[nodiscard]] bool operator>(const Entry& o) const {
      return due_s != o.due_s ? due_s > o.due_s : key > o.key;
    }
  };

  void push(double due_s, std::uint64_t key, T item) { heap_.push({due_s, key, item}); }
  [[nodiscard]] double next_s() const { return heap_.empty() ? kNever : heap_.top().due_s; }
  [[nodiscard]] bool due(double now_s) const { return next_s() <= now_s; }
  Entry pop() {
    const Entry e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

/// The epoch barrier and everything that acts at it — the per-chip
/// governors (through ChipServer::close_epoch), the power capper, router,
/// autoscaler, brownout ladder, circuit breakers and the per-epoch metrics
/// snapshot — plus the placement and ladder policy that dispatch consults
/// between barriers, which reads the state the barrier left behind.
class ControlPlane {
 public:
  ControlPlane(const FleetConfig& config, Chips& chips,
               const std::vector<std::unique_ptr<pm::PowerManager>>& managers, FleetResult& r,
               obs::TraceSink* trace, obs::MetricsRegistry* metrics, obs::PhaseTimers* timers,
               double dt)
      : config_(config),
        chips_(chips),
        managers_(managers),
        r_(r),
        trace_(trace),
        metrics_(metrics),
        timers_(timers),
        governed_(config.governor.kind != ctrl::GovernorKind::kNone),
        chip_domain_(chips.size(), -1),
        epoch_len_s_(static_cast<double>(config.governor.epoch_quanta) * dt),
        peek_window_s_(0.25 * epoch_len_s_) {
    for (std::size_t d = 0; d < config_.faults.domains.size(); ++d) {
      for (const int chip : config_.faults.domains[d].members) {
        chip_domain_[static_cast<std::size_t>(chip)] = static_cast<int>(d);
      }
    }
    if (config_.brownout.enabled) {
      brownout_.emplace(config_.brownout);
      brownout_->attach_trace(trace_);
      // The time-in-stage attribution exists only when the ladder runs.
      r_.brownout_stage_epochs.assign(static_cast<std::size_t>(ctrl::kBrownoutStages), 0);
    }
    if (config_.breaker.enabled) {
      breakers_.assign(chips_.size(), ctrl::CircuitBreaker{config_.breaker});
      for (std::size_t s = 0; s < breakers_.size(); ++s) {
        breakers_[s].attach_trace(trace_, static_cast<int>(s));
      }
    }
    const orch::OrchestratorConfig& oc = config_.orchestration;
    if (oc.autoscaler.enabled) autoscaler_.emplace(oc.autoscaler);
    if (oc.cap.enabled) {
      capper_.emplace(oc.cap);
      capper_->attach_trace(trace_);
    }
    if (oc.router.enabled) {
      router_.emplace(oc.router);
      // The per-group ledgers exist only when routing runs.
      for (const auto& g : oc.router.groups) r_.group_names.push_back(g.name);
      r_.group_energy.assign(r_.group_names.size(), Joule{0.0});
      r_.group_dispatches.assign(r_.group_names.size(), 0);
    }
    // Per-epoch metric columns, registered once before any snapshot.
    if (metrics_ == nullptr) return;
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      auto& ids = chip_ids_.emplace_back();
      for (std::size_t k = 0; k < kChipGauges.size(); ++k) {
        ids[k] = metrics_->gauge("chip" + std::to_string(s) + "." + kChipGauges[k]);
      }
    }
    for (std::size_t k = 0; k < kFleetColumns.size(); ++k) {
      const std::string name = std::string{"fleet."} + kFleetColumns[k];
      fleet_ids_[k] = k < kFleetCounters ? metrics_->counter(name) : metrics_->gauge(name);
    }
    latency_hist_ = metrics_->histogram("fleet.latency_us");
  }

  /// The next epoch boundary; never for an open-loop fleet.
  [[nodiscard]] double next_event_s() const {
    return governed_ ? epoch_start_s_ + epoch_len_s_ : kNever;
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_index_; }

  /// Close the epoch on every chip: record, charge energy, and (unless
  /// final) take each chip's next decision, beginning its transition
  /// stall on a change. Cap budgets are refreshed *before* the chips
  /// close (so each governor's decide() is clamped by the budget its
  /// queue earned); the ladder, breakers, routing and scaling react
  /// *after* (to the freshly measured epoch).
  void close_epochs(double now_s, bool final_partial) {
    obs::PhaseTimers::Scope barrier_scope(timers_, "epoch-barrier");
    // Merge watermark: only events at or before the *closing* epoch's
    // start are final — a timeout processed just after this barrier may
    // carry a due time just before it (late by at most one delivery
    // lag), and admitting it into the merged stream later would break
    // the append-only determinism contract.
    const double trace_watermark = epoch_start_s_;
    const double duration = now_s - epoch_start_s_;
    if (capper_) split_cap(false);
    double epoch_energy_j = 0.0;
    std::vector<double> chip_power_w;
    if (metrics_ != nullptr) chip_power_w.assign(chips_.size(), 0.0);
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      auto& chip = chips_[s];
      auto outcome = chip->close_epoch(now_s, duration, epoch_index_, final_partial);
      if (!outcome.emitted) continue;
      r_.energy += Joule{outcome.energy_j};
      epoch_energy_j += outcome.energy_j;
      if (metrics_ != nullptr && duration > 0.0) chip_power_w[s] = outcome.energy_j / duration;
      if (!r_.group_energy.empty()) {
        r_.group_energy[static_cast<std::size_t>(chip->group())] += Joule{outcome.energy_j};
      }
      if (outcome.transition_s > 0.0) ++r_.transitions;
      // Recorded per-epoch overlaps sum to the realized stall time, so
      // the records and the total stay consistent by construction.
      r_.transition_time_total += outcome.record.transition_time;
      if (outcome.record.transition) ++r_.transition_epochs;
      if (outcome.record.violation) ++r_.qos_violation_epochs;
      if (outcome.record.margin > 0.0) ++r_.guardband_epochs;
      if (outcome.record.capped) ++r_.cap_clamp_epochs;
      r_.epochs.push_back(outcome.record);
    }
    if (duration > 0.0) {
      const double realized_power = epoch_energy_j / duration;
      r_.peak_epoch_power = std::max(r_.peak_epoch_power, Watt{realized_power});
      if (capper_ && realized_power > capper_->config().fleet_cap.value() * (1.0 + 1e-9)) {
        ++r_.cap_violation_epochs;
      }
    }
    if (!final_partial) {
      if (brownout_) observe_brownout();
      for (auto& b : breakers_) {
        b.close_epoch();
        if (b.state() == ctrl::BreakerState::kOpen) ++r_.breaker_open_epochs;
      }
      if (router_) router_->observe_epoch(epoch_index_, chip_status());
      if (autoscaler_) autoscale(now_s);
    }
    if (metrics_ != nullptr) {
      snapshot_metrics(now_s, duration > 0.0 ? epoch_energy_j / duration : 0.0, chip_power_w);
    }
    if (trace_ != nullptr) trace_->merge(trace_watermark);
    ++epoch_index_;
    epoch_start_s_ = now_s;
  }

  /// Close the final partial epoch and report the controllers' tallies
  /// and the fleet's latency columns.
  void finish(double now_s) {
    if (governed_) close_epochs(now_s, /*final_partial=*/true);
    latency_.fill(r_);
    for (const auto& b : breakers_) r_.breaker_trips += b.trips();
    if (capper_) r_.fleet_cap = capper_->config().fleet_cap;
    if (router_) r_.router_epochs = router_->epochs();
  }

  /// Least-outstanding chip; with `healthy_only`, crashed chips are
  /// excluded and -1 means none are up. `exclude` skips one chip index
  /// and `avoid_domain` deprioritizes chips in that failure domain.
  [[nodiscard]] int least_loaded(bool healthy_only = false, int exclude = -1,
                                 int avoid_domain = -1) const {
    // Tiered choice: same-failure-domain chips (hedge placement),
    // draining chips and breaker-open chips are progressively worse
    // fallbacks — used only when nothing better serves, so work is never
    // stranded. Parked chips never take work. Within a tier: fewest
    // outstanding, lowest index on ties.
    int best = -1, best_tier = 0;
    for (int s = 0; s < servers(); ++s) {
      if (s == exclude) continue;
      const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
      if (chip.parked()) continue;
      if (healthy_only && chip.down()) continue;
      int tier = 0;
      if (avoid_domain >= 0 && chip_domain_[static_cast<std::size_t>(s)] == avoid_domain) tier += 1;
      if (chip.draining()) tier += 2;
      if (breaker_open(s)) tier += 4;
      if (best < 0 || tier < best_tier ||
          (tier == best_tier && outstanding(s) < outstanding(best))) {
        best = s;
        best_tier = tier;
      }
    }
    return best;
  }

  /// Hedge placement: a healthy chip other than `primary`, preferring a
  /// different failure domain (a hedge against the primary's rack dying).
  [[nodiscard]] int hedge_target(int primary) const {
    return least_loaded(/*healthy_only=*/true, /*exclude=*/primary,
                        /*avoid_domain=*/chip_domain_[static_cast<std::size_t>(primary)]);
  }

  /// Chip for the next dispatch attempt; -1 when failover is on and no
  /// healthy chip exists (the caller parks the request until a recovery).
  [[nodiscard]] int pick_server(const Request& req, double now_s) {
    // With failover the dispatcher is health-aware: every policy confines
    // itself to chips that are up, and -1 reports a fully-dark fleet.
    // Without it the dispatcher is deliberately health-blind — the
    // baseline every failover comparison is made against.
    const bool avoid_down = config_.resilience.failover;
    const auto serving = [&](int s) {
      const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
      if (chip.parked() || chip.draining()) return false;
      if (breaker_open(s)) return false;  // least_loaded may still fall back here
      return !avoid_down || !chip.down();
    };
    // Least outstanding among the serving chips `keep` admits; -1 if none.
    const auto least_serving = [&](const auto& keep) {
      int best = -1;
      for (int s = 0; s < servers(); ++s) {
        if (!serving(s) || !keep(s)) continue;
        if (best < 0 || outstanding(s) < outstanding(best)) best = s;
      }
      return best;
    };
    const bool critical = config_.tenants[static_cast<std::size_t>(req.tenant)].latency_critical;
    if (router_) {
      // Tech routing supersedes the balance policy: the router's standing
      // preference (updated at the barrier) picks the group, least-loaded
      // picks within it; a group with no serving chip falls back
      // fleet-wide and the miss is recorded.
      const int pg = router_->preferred_group(critical);
      const int best =
          least_serving([&](int s) { return chips_[static_cast<std::size_t>(s)]->group() == pg; });
      if (best >= 0) {
        router_->note_dispatch(pg, /*fallback=*/false);
        return best;
      }
      const int fb = least_loaded(avoid_down);
      if (fb >= 0) {
        router_->note_dispatch(chips_[static_cast<std::size_t>(fb)]->group(), /*fallback=*/true);
      }
      return fb;
    }
    switch (config_.policy) {
      case BalancePolicy::kRoundRobin:
        for (int tried = 0; tried < servers(); ++tried) {
          const int s = round_robin_next_;
          round_robin_next_ = (round_robin_next_ + 1) % servers();
          if (serving(s)) return s;
        }
        // Every chip parked/draining/down: the least-loaded fallback still
        // finds a draining chip, so work is never stranded.
        return least_loaded(avoid_down);
      case BalancePolicy::kLeastLoaded:
        return least_loaded(avoid_down);
      case BalancePolicy::kPowerAware: {
        // Pack in index order while a chip has headroom; beyond that fall
        // back to least-loaded so saturation degrades gracefully.
        const double cap = config_.pack_depth_per_core * cores_per_chip(config_);
        for (int s = 0; s < servers(); ++s) {
          if (serving(s) && static_cast<double>(outstanding(s)) < cap) return s;
        }
        return least_loaded(avoid_down);
      }
      case BalancePolicy::kGovernorAware: {
        const int base = least_loaded(avoid_down);
        if (base < 0) return -1;      // fully-dark fleet
        if (!governed_) return base;  // nothing to anticipate open-loop
        if (!critical) return base;   // batch work soaks any chip
        // Steer latency-critical work onto chips that are neither
        // mid-transition nor about to descend at the next epoch boundary
        // (the governor's pending decision, previewed via peek).
        const int best = least_serving([&](int s) {
          const ChipServer& chip = *chips_[static_cast<std::size_t>(s)];
          return !chip.in_transition(now_s) &&
                 !chip.pending_descent(now_s, epoch_start_s_, peek_window_s_);
        });
        if (best < 0) return base;  // every chip descending: nowhere to steer
        if (best != base) ++r_.steered;
        return best;
      }
    }
    return 0;
  }

  // The ladder's restrictions, queried at dispatch time. Latency-critical
  // traffic is never restricted; batch traffic loses progressively more.
  [[nodiscard]] bool shed_by_brownout(bool critical, bool fresh_arrival) const {
    if (critical || stage_ < ctrl::BrownoutStage::kShedBatch) return false;
    if (stage_ >= ctrl::BrownoutStage::kCriticalOnly) return true;  // retries too
    return fresh_arrival;  // kShedBatch / kRelaxBatchQos: fresh arrivals only
  }
  [[nodiscard]] bool hedge_suppressed(bool critical) const {
    if (stage_ >= ctrl::BrownoutStage::kCriticalOnly) return true;
    return !critical && stage_ >= ctrl::BrownoutStage::kRelaxBatchQos;
  }
  [[nodiscard]] double timeout_for(bool critical) const {
    const double timeout_s = config_.resilience.timeout.value();
    if (!critical && stage_ >= ctrl::BrownoutStage::kRelaxBatchQos) {
      return timeout_s * config_.brownout.batch_timeout_relax;
    }
    return timeout_s;
  }

  /// Chip `chip`'s circuit breaker, which the ledger feeds completions
  /// and failures; null when breakers are off.
  [[nodiscard]] ctrl::CircuitBreaker* breaker(int chip) {
    return breakers_.empty() ? nullptr : &breakers_[static_cast<std::size_t>(chip)];
  }
  /// An admitted copy: the breaker's dispatch window and the per-group
  /// dispatch ledger count it.
  void note_dispatch(int chip) {
    if (auto* b = breaker(chip)) b->record_dispatch();
    const int group = chips_[static_cast<std::size_t>(chip)]->group();
    if (!r_.group_dispatches.empty()) ++r_.group_dispatches[static_cast<std::size_t>(group)];
  }
  /// A correlated (domain-tagged) crash was delivered: the autoscaler's
  /// next decide() runs in emergency mode.
  void note_domain_outage() { domain_outage_pending_ = true; }
  /// A measured completion: the fleet tail the hedge delay and the
  /// metrics snapshot read.
  void measure(const Request& req) {
    if (metrics_ != nullptr) metrics_->observe(latency_hist_, req.latency_s() * 1e6);
    latency_.add(req);
  }
  /// Hedge delay: the tail-at-scale rule — a multiple of the measured
  /// running p95, with a configured floor until enough completions exist
  /// for the estimate to be a tail.
  [[nodiscard]] double hedge_delay() const {
    const ResilienceConfig& res = config_.resilience;
    if (latency_.percentiles.count() >= res.hedge_warmup && latency_.percentiles.p95() > 0.0) {
      return res.hedge_multiplier * latency_.percentiles.p95();
    }
    return res.hedge_min_delay.value();
  }

 private:
  static constexpr std::array<const char*, 7> kChipGauges = {
      "queue", "freq_ghz", "power_w", "util", "breaker", "parked", "down"};
  /// The first kFleetCounters fleet columns are counters, the rest gauges.
  static constexpr std::size_t kFleetCounters = 5;
  static constexpr std::array<const char*, 12> kFleetColumns = {
      "offered", "completed", "shed",           "timed_out", "retries",      "p50_us",
      "p95_us",  "p99_us",    "brownout_stage", "power_w",   "parked_chips", "in_flight"};

  [[nodiscard]] int servers() const { return static_cast<int>(chips_.size()); }
  [[nodiscard]] int outstanding(int s) const {
    return chips_[static_cast<std::size_t>(s)]->outstanding();
  }
  [[nodiscard]] bool breaker_open(int s) const {
    return !breakers_.empty() && !breakers_[static_cast<std::size_t>(s)].allow_dispatch();
  }

  /// Snapshot the fleet for the orchestration controllers (live queue
  /// depths, last closed epoch's utilization).
  [[nodiscard]] std::vector<orch::ChipStatus> chip_status() const {
    std::vector<orch::ChipStatus> status;
    status.reserve(chips_.size());
    for (const auto& chip : chips_) {
      status.push_back({static_cast<int>(status.size()), chip->group(), chip->down(),
                        chip->parked(), chip->draining(), chip->outstanding(),
                        chip->last_epoch_utilization(), chip->floor_power()});
    }
    return status;
  }

  /// Split the fleet cap over the chips, reserving sleep power for the
  /// parked ones. With `apply`, each chip clamps its current operating
  /// point at once (no transition stall) instead of at its next decision.
  void split_cap(bool apply) {
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
  }

  void observe_brownout() {
    // Overload pressure: outstanding work per serving core. A fleet with
    // nothing serving but work outstanding is infinitely pressured — the
    // ladder pins at its maximum stage until capacity returns.
    std::uint64_t outstanding_total = 0;
    int serving_cores = 0;
    for (const auto& chip : chips_) {
      outstanding_total += static_cast<std::uint64_t>(chip->outstanding());
      if (!chip->down() && !chip->parked() && !chip->draining()) {
        serving_cores += cores_per_chip(config_);
      }
    }
    const double pressure =
        serving_cores > 0
            ? static_cast<double>(outstanding_total) / static_cast<double>(serving_cores)
            : (outstanding_total > 0 ? 1e9 : 0.0);
    stage_ = brownout_->observe(pressure);
    // The stage set here governs the *upcoming* epoch's dispatches.
    ++r_.brownout_stage_epochs[static_cast<std::size_t>(stage_)];
    if (stage_ == ctrl::BrownoutStage::kNormal) return;
    ++r_.brownout_epochs;
    for (std::size_t t = 0; t < r_.tenants.size(); ++t) {
      if (!config_.tenants[t].latency_critical) ++r_.tenants[t].brownout_epochs;
    }
  }

  void autoscale(double now_s) {
    const bool emergency = domain_outage_pending_;
    domain_outage_pending_ = false;
    bool acted = false;
    for (const orch::ScaleDecision& d : autoscaler_->decide(chip_status(), emergency)) {
      acted = true;
      ChipServer& chip = *chips_[static_cast<std::size_t>(d.chip)];
      switch (d.action) {
        case orch::ScaleAction::kUnpark: {
          // Warm/cold ladder: a recently-parked chip wakes at a fraction
          // of the full latency.
          const Second wake =
              autoscaler_->config().wake_latency_for(now_s - chip.parked_since());
          // Reporting slice only: the wake stall is charged through the
          // overlapped epochs like any transition.
          r_.wake_energy += managers_[static_cast<std::size_t>(chip.group())]->wake_energy(
              chip.frequency(), wake);
          chip.unpark(now_s, wake);
          ++r_.autoscale_unparks;
          if (emergency) ++r_.emergency_wakes;
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
          ++r_.autoscale_drains;
          if (trace_ != nullptr) trace_->emit_now(obs::EventKind::kDrain, d.chip);
          break;
        case orch::ScaleAction::kPark:
          // Re-check live state: the decision was made on a snapshot.
          if (!chip.down() && !chip.parked() && chip.outstanding() == 0) {
            chip.park(now_s);
            ++r_.autoscale_parks;
            if (trace_ != nullptr) trace_->emit_now(obs::EventKind::kPark, d.chip);
          }
          break;
      }
    }
    // The budgets split at the top of this barrier assumed the pre-action
    // fleet; re-split over the post-action survivors so a newly-woken
    // chip does not serve an entire epoch on a zero budget. Applied
    // without a transition stall (same barrier).
    if (acted && capper_) split_cap(true);
  }

  void snapshot_metrics(double now_s, double fleet_power_w,
                        const std::vector<double>& chip_power_w) {
    int parked_chips = 0;
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      const ChipServer& chip = *chips_[s];
      const double breaker =
          breakers_.empty() ? 0.0 : static_cast<double>(static_cast<int>(breakers_[s].state()));
      const std::array<double, kChipGauges.size()> values = {
          static_cast<double>(chip.outstanding()), chip.frequency().value() / 1e9,
          chip_power_w[s], chip.last_epoch_utilization(), breaker, chip.parked() ? 1.0 : 0.0,
          chip.down() ? 1.0 : 0.0};
      for (std::size_t k = 0; k < values.size(); ++k) metrics_->set(chip_ids_[s][k], values[k]);
      if (chip.parked()) ++parked_chips;
    }
    const StreamingPercentiles& tail = latency_.percentiles;
    const auto us = [&](double (StreamingPercentiles::*quantile)() const) {
      return tail.count() > 0 ? (tail.*quantile)() * 1e6 : 0.0;
    };
    const std::uint64_t offered = tenant_sum(r_, &TenantResult::offered);
    const std::uint64_t completed = tenant_sum(r_, &TenantResult::completed_all);
    const std::uint64_t shed = tenant_sum(r_, &TenantResult::shed);
    const std::uint64_t timed_out = tenant_sum(r_, &TenantResult::timed_out);
    // Every offered request not yet completed, shed or timed out is in
    // flight: the ledger's conservation law.
    const std::uint64_t in_flight = offered - completed - shed - timed_out;
    const std::array<double, kFleetColumns.size()> values = {
        static_cast<double>(offered), static_cast<double>(completed),
        static_cast<double>(shed), static_cast<double>(timed_out),
        static_cast<double>(r_.retries), us(&StreamingPercentiles::p50),
        us(&StreamingPercentiles::p95), us(&StreamingPercentiles::p99),
        static_cast<double>(static_cast<int>(stage_)), fleet_power_w,
        static_cast<double>(parked_chips), static_cast<double>(in_flight)};
    for (std::size_t k = 0; k < values.size(); ++k) metrics_->set(fleet_ids_[k], values[k]);
    metrics_->snapshot(epoch_index_, now_s);
  }

  const FleetConfig& config_;
  Chips& chips_;
  const std::vector<std::unique_ptr<pm::PowerManager>>& managers_;
  FleetResult& r_;
  obs::TraceSink* trace_;
  obs::MetricsRegistry* metrics_;
  obs::PhaseTimers* timers_;
  const bool governed_;
  // Orchestration controllers, brownout ladder and per-chip breakers
  // (engaged only when their config is enabled).
  std::optional<orch::Autoscaler> autoscaler_;
  std::optional<orch::PowerCapper> capper_;
  std::optional<orch::MultiFleetRouter> router_;
  std::optional<ctrl::BrownoutController> brownout_;
  std::vector<ctrl::CircuitBreaker> breakers_;
  /// Chip -> failure domain (-1 outside any domain): cross-domain hedge
  /// placement and the emergency-wake trigger both consult it.
  std::vector<int> chip_domain_;
  int round_robin_next_ = 0;
  ctrl::BrownoutStage stage_ = ctrl::BrownoutStage::kNormal;
  bool domain_outage_pending_ = false;
  // The epoch is a *wall-time* control interval sized at the base
  // frequency: a governor that slowed a chip's clock must not also slow
  // its own reaction time. All chips share the boundary grid; each makes
  // its own decision at it. The governor-aware peeks read the window.
  const double epoch_len_s_;
  const double peek_window_s_;
  double epoch_start_s_ = 0.0;
  std::uint64_t epoch_index_ = 0;
  std::vector<std::array<obs::MetricsRegistry::Id, kChipGauges.size()>> chip_ids_;
  std::array<obs::MetricsRegistry::Id, kFleetColumns.size()> fleet_ids_{};
  obs::MetricsRegistry::Id latency_hist_{};
  LatencyLedger latency_;  ///< the fleet tail over measured completions
};

/// One admitted, unresolved dispatch copy of a request.
struct LiveCopy {
  std::uint64_t copy;
  int server;
};

/// Everything the fleet knows about an undisposed request: the canonical
/// fields (for retries and hedges), its live copies, and its fault
/// exposure.
struct PendingRequest {
  Request proto;
  std::vector<LiveCopy> live;
  bool hedged = false;
  bool damaged = false;  ///< lifetime overlapped an active fault window
};

/// One tenant's generators and its latency measurement; its counters
/// live in the run's FleetResult::tenants slice.
struct TenantState {
  // Per-tenant streams keyed by tenant index: appending a tenant leaves
  // every earlier tenant's arrivals and budgets unchanged.
  TenantState(const TenantSpec& tenant, std::uint64_t fleet_seed, std::uint64_t t)
      : spec(tenant),
        arrivals(tenant.arrival, derive_seed(fleet_seed, 0xA441ull + t)),
        budgets(tenant.resolved_budget(), derive_seed(fleet_seed, 0xB0D6ull + t)),
        total(tenant.requests + tenant.warmup_requests),
        next_arrival_s(arrivals.next().value()) {}

  const TenantSpec& spec;
  ArrivalProcess arrivals;
  ctrl::BudgetSampler budgets;
  std::uint64_t total;  ///< requests + warmup_requests
  double next_arrival_s;
  LatencyLedger latency;
};

/// Every request from arrival to disposal: the arrival streams, pending
/// requests with their live and dead copies, the retry, timeout and hedge
/// queues, the fault schedule, and the recovery point.
class RequestLedger {
 public:
  RequestLedger(const FleetConfig& config, Chips& chips, ControlPlane& control, FleetResult& r,
                obs::TraceSink* trace)
      : config_(config),
        chips_(chips),
        control_(control),
        r_(r),
        trace_(trace),
        admission_(config.admission) {
    if (config_.faults.any()) {
      injector_.emplace(config_.faults, config_.seed, static_cast<int>(chips_.size()));
      injector_->attach_trace(trace_);
    }
    tenants_.reserve(config_.tenants.size());
    r_.tenants.resize(config_.tenants.size());
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      r_.tenants[t].name = config_.tenants[t].name;
      total_ += tenants_.emplace_back(config_.tenants[t], config_.seed, t).total;
    }
  }

  /// Every offered request is disposed.
  [[nodiscard]] bool settled() const { return disposed_ >= total_; }
  /// Some chip is crashed (and may strand its queue until it recovers).
  [[nodiscard]] bool chips_down() const { return chips_down_ > 0; }
  [[nodiscard]] double last_arrival_s() const { return last_arrival_s_; }
  /// Until the next event, each chip's completions stay on that chip: no
  /// request races two live copies (the winner would cancel its sibling
  /// on another chip), and an arrival is still to come (so no completion
  /// can be the run's last disposal).
  [[nodiscard]] bool chips_independent() const {
    return raced_ == 0 && next_arrival_tenant() < tenants_.size();
  }

  /// The next arrival, back-off expiry, timeout, hedge or fault.
  [[nodiscard]] double next_event_s() const {
    const std::size_t t = next_arrival_tenant();
    const double arrival = t < tenants_.size() ? tenants_[t].next_arrival_s : kNever;
    const double fault = injector_ ? injector_->next_time() : kNever;
    return std::min({arrival, retries_.next_s(), timeouts_.next_s(), hedges_.next_s(), fault});
  }

  /// Where in the run the fleet was, for invariant-violation messages.
  [[nodiscard]] std::string context(double now_s) const {
    std::ostringstream os;
    os << "[t=" << now_s << "s, epoch " << control_.epoch() << ", disposed " << disposed_ << "/"
       << total_ << "]";
    return os.str();
  }

  /// Deliver every fault event due by `now_s`.
  void deliver_faults(double now_s) {
    while (injector_ && injector_->due(now_s)) apply_fault(injector_->pop(), now_s);
  }

  /// Expire per-attempt timeouts due by `now_s`: abandon the late copy;
  /// once no copy is left racing, retry through the admission back-off
  /// schedule or dispose the request as timed out.
  void expire_timeouts(double now_s) {
    while (timeouts_.due(now_s)) {
      const auto d = timeouts_.pop();
      const auto [pit, server] = detach(/*id=*/d.item, /*copy=*/d.key);
      if (pit == pending_.end()) continue;  // request or copy already resolved
      if (auto* b = control_.breaker(server)) b->record_failure();
      cancel_copy({d.key, server});
      PendingRequest& pr = pit->second;
      if (!pr.live.empty()) continue;  // a sibling copy is still racing
      if (admission_.may_retry(pr.proto.attempts)) {
        back_off(pr, pr.proto, d.due_s + admission_.retry_delay(pr.proto.attempts).value());
        continue;
      }
      ++r_.tenants[static_cast<std::size_t>(pr.proto.tenant)].timed_out;
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kTimeout, /*chip=*/-1, d.due_s, pr.proto.tenant,
                     static_cast<std::int64_t>(d.item));
      }
      erase_pending(pit, now_s);
    }
  }

  /// Admit everything due by `now_s`: merge the tenants' arrival streams
  /// and the back-off queue in event-time order (ties go to the fresh
  /// arrival, then to the lower tenant index, so ids stay in admission
  /// order).
  void admit_due(double now_s) {
    for (;;) {
      const std::size_t t = next_arrival_tenant();
      const bool arrival_due = t < tenants_.size() && tenants_[t].next_arrival_s <= now_s;
      const bool retry_due = retries_.due(now_s);
      if (!arrival_due && !retry_due) break;
      if (!arrival_due || (retry_due && retries_.next_s() < tenants_[t].next_arrival_s)) {
        const auto entry = retries_.pop();
        dispatch(entry.item, entry.due_s, /*fresh=*/false, now_s);
        continue;
      }
      TenantState& tenant = tenants_[t];
      TenantResult& result = r_.tenants[t];
      const Request req{.id = next_id_++,
                        .tenant = static_cast<int>(t),
                        .tenant_seq = result.offered,
                        .arrival_s = tenant.next_arrival_s,
                        .budget = tenant.budgets.sample(result.offered)};
      last_arrival_s_ = std::max(last_arrival_s_, tenant.next_arrival_s);
      ++result.offered;
      if (result.offered < tenant.total) tenant.next_arrival_s = tenant.arrivals.next().value();
      pending_.emplace(req.id, PendingRequest{req, {}, false, false});
      if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::kAdmit, /*chip=*/-1, req.arrival_s, req.tenant,
                     static_cast<std::int64_t>(req.id));
      }
      dispatch(req, req.arrival_s, /*fresh=*/true, now_s);
    }
  }

  /// Dispatch the hedged duplicates due by `now_s`: each on a different
  /// healthy chip, admitted through the same controller; a rejected hedge
  /// is simply dropped (it is opportunistic — the primary still runs).
  void fire_hedges(double now_s) {
    while (hedges_.due(now_s)) {
      const auto h = hedges_.pop();
      auto pit = pending_.find(h.item);
      if (pit == pending_.end()) continue;  // already resolved
      PendingRequest& pr = pit->second;
      if (pr.hedged || pr.live.empty()) continue;  // one hedge max; back-off limbo
      // Re-check at fire time: the ladder may have escalated since the
      // hedge was scheduled, and a hedge is pure extra load.
      const bool critical = critical_tenant(pr.proto.tenant);
      if (control_.hedge_suppressed(critical)) continue;
      const int server = control_.hedge_target(pr.live.front().server);
      if (server < 0 || !admits(server)) continue;
      Request req = pr.proto;
      req.hedge = true;
      admit_copy(pr, req, server, h.due_s, critical);
      pr.hedged = true;
      ++r_.tenants[static_cast<std::size_t>(req.tenant)].hedged;
    }
  }

  /// Chip completion sink: the first live copy to complete wins; every
  /// sibling is cancelled and the request is disposed. Late completions
  /// of abandoned copies are counted as wasted work, never measured twice.
  void complete(const Request& req, double now_s) {
    // Any completion — even of an abandoned copy — proves the chip can
    // serve, so the breaker credit lands before the dead-copy discard.
    if (auto* b = control_.breaker(req.server)) b->record_success();
    if (dead_copies_.erase(req.copy) > 0) {
      ++r_.wasted_completions;
      return;
    }
    const auto it = detach(req.id, req.copy).first;
    NTSERV_ENSURES(it != pending_.end(),
                   "completion for a copy that is neither live nor dead " + context(now_s));
    PendingRequest& pr = it->second;
    for (const auto& other : pr.live) cancel_copy(other);
    if (pr.live.size() > 1) --raced_;
    pr.live.clear();
    if (req.hedge) ++r_.hedge_wins;
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kComplete, req.server, req.completion_s, req.tenant,
                   static_cast<std::int64_t>(req.id), /*value=*/req.latency_s(),
                   /*aux_s=*/req.start_s, req.core);
    }
    TenantState& tenant = tenants_[static_cast<std::size_t>(req.tenant)];
    TenantResult& result = r_.tenants[static_cast<std::size_t>(req.tenant)];
    ++result.completed_all;
    if (req.tenant_seq >= tenant.spec.warmup_requests) {
      control_.measure(req);
      ++result.completed;
      tenant.latency.add(req);
      const double limit = tenant.spec.qos_p99_limit.value();
      if (limit > 0.0 && req.latency_s() > limit) {
        ++result.sla_violations;
        if (pr.damaged || fault_active()) ++result.degraded_sla_violations;
      }
    }
    erase_pending(it, now_s);
  }

  /// Attribute the in-flight remainders to their tenants and fill the
  /// fault-history and tenant latency columns.
  void finish() {
    for (const auto& [id, pr] : pending_) {
      ++r_.tenants[static_cast<std::size_t>(pr.proto.tenant)].in_flight;
    }
    r_.in_flight = pending_.size();
    if (first_fault_s_ >= 0.0) {
      r_.first_fault = Second{first_fault_s_};
      if (recovered_at_ >= 0.0 && !r_.truncated) {
        r_.recovered = true;
        r_.time_to_recover = Second{recovered_at_ - first_fault_s_};
      }
    }
    for (std::size_t t = 0; t < tenants_.size(); ++t) tenants_[t].latency.fill(r_.tenants[t]);
  }

 private:
  using PendingMap = std::unordered_map<std::uint64_t, PendingRequest>;

  [[nodiscard]] bool critical_tenant(int t) const {
    return tenants_[static_cast<std::size_t>(t)].spec.latency_critical;
  }
  [[nodiscard]] bool admits(int server) const {
    return admission_.admit(chips_[static_cast<std::size_t>(server)]->outstanding(),
                            cores_per_chip(config_));
  }
  [[nodiscard]] bool fault_active() const { return chips_down_ > 0 || !degraded_chips_.empty(); }

  /// Earliest pending arrival across tenants; tenants_.size() when none.
  [[nodiscard]] std::size_t next_arrival_tenant() const {
    std::size_t best = tenants_.size();
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (r_.tenants[t].offered >= tenants_[t].total) continue;
      if (best == tenants_.size() || tenants_[t].next_arrival_s < tenants_[best].next_arrival_s) {
        best = t;
      }
    }
    return best;
  }

  void mark_damaged(PendingRequest& pr) {
    if (pr.damaged) return;
    pr.damaged = true;
    ++damaged_live_;
  }

  /// The recovery point: every fault window closed *and* every request a
  /// window touched disposed — the backlog a crash leaves behind is part
  /// of the outage, not of normal operation. A later fault reopens it.
  void note_recovery(double t) {
    if (first_fault_s_ < 0.0 || recovered_at_ >= 0.0) return;
    if (!fault_active() && damaged_live_ == 0) recovered_at_ = t;
  }

  /// Every disposal — completion, shed, timeout — retires its request
  /// here, so the disposed count, damage drain and recovery point agree.
  void erase_pending(PendingMap::iterator it, double now_s) {
    if (it->second.damaged) --damaged_live_;
    if (it->second.live.size() > 1) --raced_;
    pending_.erase(it);
    ++disposed_;
    note_recovery(now_s);
  }

  /// Detach live copy `copy` from request `id`: the request's entry and
  /// the chip the copy was on, or {end, -1} when the request is disposed
  /// or the copy is no longer live.
  std::pair<PendingMap::iterator, int> detach(std::uint64_t id, std::uint64_t copy) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return {it, -1};
    auto& live = it->second.live;
    auto lit = std::find_if(live.begin(), live.end(),
                            [&](const LiveCopy& c) { return c.copy == copy; });
    if (lit == live.end()) return {pending_.end(), -1};
    const int server = lit->server;
    if (live.size() == 2) --raced_;
    live.erase(lit);
    return {it, server};
  }

  /// Attach a live copy; a request's second copy makes it raced.
  void add_live(PendingRequest& pr, LiveCopy copy) {
    pr.live.push_back(copy);
    if (pr.live.size() == 2) ++raced_;
  }

  /// Remove a cancelled copy from the fleet: dequeue it if it is still
  /// waiting; otherwise it is in service, and its eventual completion is
  /// discarded as wasted work.
  void cancel_copy(const LiveCopy& lc) {
    auto& qd = chips_[static_cast<std::size_t>(lc.server)]->queue();
    const auto qit = std::find_if(qd.begin(), qd.end(),
                                  [&](const Request& q) { return q.copy == lc.copy; });
    if (qit != qd.end()) {
      qd.erase(qit);
    } else {
      dead_copies_.insert(lc.copy);
    }
  }

  /// Admit one copy of a pending request (a primary, or a hedge when
  /// req.hedge) into chip `server`'s queue. Every admission flows through
  /// here, so the admitted count, the per-group dispatch ledger and the
  /// breaker's dispatch window agree by construction.
  void admit_copy(PendingRequest& pr, Request req, int server, double event_s, bool critical) {
    auto& chip = *chips_[static_cast<std::size_t>(server)];
    req.server = server;
    req.copy = ++copy_seq_;
    chip.queue().push_back(req);
    ++r_.admitted;
    control_.note_dispatch(server);
    if (trace_ != nullptr) {
      trace_->emit(req.hedge ? obs::EventKind::kHedge : obs::EventKind::kDispatch, server,
                   event_s, req.tenant, static_cast<std::int64_t>(req.id));
    }
    add_live(pr, {req.copy, server});
    if (chip.down() || chip.degraded()) mark_damaged(pr);
    if (config_.resilience.timeout.value() > 0.0) {
      timeouts_.push(event_s + control_.timeout_for(critical), req.copy, req.id);
    }
  }

  /// Hand a request back to its client as a parked retry at the base
  /// back-off, without charging its retry budget: the fleet has no chip
  /// to place it on until a recovery.
  void park_until_recovery(const Request& req, double event_s) {
    const double due = event_s + admission_.retry_delay(0).value();
    trace_retry(req, event_s, due);
    retries_.push(due, req.id, req);
  }

  /// Charge one attempt of the retry budget and queue the client's next
  /// attempt at `due_s`.
  void back_off(PendingRequest& pr, Request req, double due_s) {
    ++r_.retries;
    ++req.attempts;
    pr.proto.attempts = req.attempts;
    retries_.push(due_s, req.id, req);
  }

  void trace_retry(const Request& req, double event_s, double due_s) {
    if (trace_ != nullptr) {
      trace_->emit(obs::EventKind::kRetry, /*chip=*/-1, event_s, req.tenant,
                   static_cast<std::int64_t>(req.id), /*value=*/0.0, /*aux_s=*/due_s);
    }
  }

  /// Dispose a request as shed (`kind` kShed, or kBrownoutShed for the
  /// ladder's deliberate shedding, which is also attributed as such).
  void shed(PendingMap::iterator it, obs::EventKind kind, double event_s, double now_s) {
    const Request& req = it->second.proto;
    TenantResult& tenant = r_.tenants[static_cast<std::size_t>(req.tenant)];
    ++tenant.shed;
    if (kind == obs::EventKind::kBrownoutShed) ++tenant.brownout_shed;
    if (trace_ != nullptr) {
      trace_->emit(kind, /*chip=*/-1, event_s, req.tenant, static_cast<std::int64_t>(req.id));
    }
    erase_pending(it, now_s);
  }

  /// One dispatch attempt at event time `event_s` (arrival or back-off
  /// expiry): admit a fresh copy into the picked chip's queue, or back
  /// the client off, or shed once the retry budget is spent. With
  /// failover and a fully-dark fleet, park until a recovery without
  /// charging the retry budget.
  void dispatch(Request req, double event_s, bool fresh, double now_s) {
    auto pit = pending_.find(req.id);
    NTSERV_ENSURES(pit != pending_.end(), "dispatch of an untracked request " + context(now_s));
    PendingRequest& pr = pit->second;
    const bool critical = critical_tenant(req.tenant);
    if (control_.shed_by_brownout(critical, fresh)) {
      shed(pit, obs::EventKind::kBrownoutShed, event_s, now_s);
      return;
    }
    const int server = control_.pick_server(req, now_s);
    if (server < 0) {
      park_until_recovery(req, event_s);
    } else if (admits(server)) {
      req.hedge = false;
      admit_copy(pr, req, server, event_s, critical);
      pr.proto.attempts = req.attempts;
      if (config_.resilience.hedging && !pr.hedged && pr.live.size() == 1 &&
          chips_.size() > 1 && !control_.hedge_suppressed(critical)) {
        hedges_.push(event_s + control_.hedge_delay(), req.id, req.id);
      }
    } else if (admission_.may_retry(req.attempts)) {
      const double due = event_s + admission_.retry_delay(req.attempts).value();
      trace_retry(req, event_s, due);
      back_off(pr, req, due);
    } else {
      shed(pit, obs::EventKind::kShed, event_s, now_s);
    }
  }

  /// Deliver one fault event to its chip (and, for crashes under
  /// failover, to the dispatcher).
  void apply_fault(const fault::FaultEvent& e, double now_s) {
    auto& chip = *chips_[static_cast<std::size_t>(e.chip)];
    ++r_.faults_injected;
    if (first_fault_s_ < 0.0) first_fault_s_ = e.at_s;
    recovered_at_ = -1.0;  // a new fault reopens the recovery window
    const auto damage_residents = [&] {
      for (auto& [id, pr] : pending_) {
        if (std::any_of(pr.live.begin(), pr.live.end(),
                        [&](const LiveCopy& lc) { return lc.server == e.chip; })) {
          mark_damaged(pr);
        }
      }
    };
    switch (e.kind) {
      case fault::FaultKind::kCrash: {
        // A domain-tagged crash is one chip of a correlated outage: arm
        // the autoscaler's emergency wake for the next barrier.
        if (e.domain >= 0) control_.note_domain_outage();
        if (chip.down()) return;  // scripted double-crash: idempotent
        ++chips_down_;
        std::vector<Request> victims = chip.crash(now_s);
        damage_residents();
        if (config_.resilience.failover) {
          auto& qd = chip.queue();
          victims.insert(victims.end(), qd.begin(), qd.end());
          qd.clear();
          fail_over(victims, now_s);
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
        --chips_down_;
        chip.recover(now_s);
        break;
      case fault::FaultKind::kDegrade:
        // A degrade is a serving failure from the breaker's viewpoint:
        // errors on this chip count toward its trip rate.
        if (auto* b = control_.breaker(e.chip)) b->record_failure();
        degraded_chips_.insert(e.chip);
        chip.degrade(e.freq_cap, e.core_cap);
        chip.notify_error();  // governor guardband engages
        damage_residents();
        break;
      case fault::FaultKind::kRestore:
        degraded_chips_.erase(e.chip);
        chip.restore();
        break;
      case fault::FaultKind::kDomainOutage:
      case fault::FaultKind::kThermalEmergency:
        // Domain-level kinds expand to per-chip primitives when the
        // schedule is resolved; the injector never delivers them.
        NTSERV_EXPECTS(false, "unexpanded domain-level fault reached delivery " + context(now_s));
        break;
    }
    note_recovery(now_s);
  }

  /// Health-aware failover: in-flight losses first (they are the oldest
  /// work), then the drained queue, each re-placed on the least-loaded
  /// healthy chip. Re-placement bypasses admission — the balancer must
  /// land displaced work somewhere.
  void fail_over(std::vector<Request>& victims, double now_s) {
    for (Request& victim : victims) {
      // An abandoned copy (timed out, or a hedge race's loser) ran only
      // to be discarded; nobody waits for it, so it is dropped.
      if (dead_copies_.erase(victim.copy) > 0) continue;
      const auto pit = detach(victim.id, victim.copy).first;
      NTSERV_ENSURES(pit != pending_.end(), "crash victim is untracked " + context(now_s));
      const int target = control_.least_loaded(/*healthy_only=*/true);
      if (target < 0) {
        park_until_recovery(pit->second.proto, now_s);  // fully-dark fleet
        continue;
      }
      victim.server = target;
      chips_[static_cast<std::size_t>(target)]->queue().push_back(victim);
      add_live(pit->second, {victim.copy, target});
      ++r_.tenants[static_cast<std::size_t>(victim.tenant)].redispatched;
      if (trace_ != nullptr) {
        trace_->emit_now(obs::EventKind::kRedispatch, target, victim.tenant,
                         static_cast<std::int64_t>(victim.id));
      }
    }
  }

  const FleetConfig& config_;
  Chips& chips_;
  ControlPlane& control_;
  FleetResult& r_;
  obs::TraceSink* trace_;
  ctrl::AdmissionController admission_;
  std::optional<fault::FaultInjector> injector_;
  std::vector<TenantState> tenants_;
  PendingMap pending_;
  /// In-service copies that lost their race (timeout abandonment or a
  /// sibling's win): they run to completion, and the completion is
  /// discarded as wasted work.
  std::unordered_set<std::uint64_t> dead_copies_;
  DueQueue<Request> retries_;         ///< key: request id
  DueQueue<std::uint64_t> timeouts_;  ///< key: copy; item: request id
  DueQueue<std::uint64_t> hedges_;    ///< key and item: request id
  std::uint64_t total_ = 0;
  std::uint64_t next_id_ = 0;   ///< global admission-order sequence
  std::uint64_t disposed_ = 0;  ///< completed + shed + timed-out requests
  std::uint64_t copy_seq_ = 0;
  double last_arrival_s_ = 0.0;
  int chips_down_ = 0;
  std::set<int> degraded_chips_;
  std::uint64_t damaged_live_ = 0;  ///< pending requests touched by a fault
  std::uint64_t raced_ = 0;         ///< pending requests with two or more live copies
  double first_fault_s_ = -1.0;
  double recovered_at_ = -1.0;
};

/// The chips' advance, one horizon at a time. A horizon runs from the
/// fleet clock to the next fleet event; until then no arrival, retry,
/// timeout, hedge, fault or barrier can touch a chip, so each chip serves
/// its whole horizon alone (ChipServer::advance_until) while the pool's
/// workers claim chips one at a time. Each chip stages its completions
/// tagged with their quantum, and the drain hands them to the ledger in
/// (quantum, chip) order, stamped with the quantum's time: the order and
/// times of a loop that advanced every chip one quantum at a time. Which
/// worker advanced which chip is unobservable, so every thread count
/// (including 1, which runs the same staging path) produces bit-identical
/// results and telemetry.
class DataPlane {
 public:
  DataPlane(Chips& chips, int threads, double dt, Cycle quantum, obs::TraceSink* trace,
            obs::PhaseTimers* timers)
      : chips_(chips),
        staged_(chips.size()),
        busy_quanta_(chips.size(), 0),
        dt_(dt),
        quantum_(quantum),
        trace_(trace),
        timers_(timers) {
    for (auto& chip : chips_) chip->set_trace(trace);
    // One persistent pool per run (not per horizon): this thread and the
    // pool's helpers form the team, and the helpers spin briefly, then
    // park, between horizons, so each fan-out costs one generation bump
    // plus one pending-count barrier.
    const int pool_threads = std::min(threads, static_cast<int>(chips_.size()));
    if (pool_threads > 1) pool_ = std::make_unique<sim::ThreadPool>(pool_threads);
  }

  void start_services(double now_s) {
    for (auto& chip : chips_) chip->start_services(now_s);
  }
  /// No core is busy anywhere: every chip would sleep through a quantum.
  [[nodiscard]] bool idle() const {
    return std::none_of(chips_.begin(), chips_.end(),
                        [](const auto& chip) { return chip->busy_cores() > 0; });
  }
  /// The earliest transition end of a stalled chip with queued work.
  [[nodiscard]] double next_event_s(double now_s) const {
    double next = kNever;
    for (const auto& chip : chips_) {
      if (chip->in_transition(now_s) && !chip->queue().empty()) {
        next = std::min(next, chip->stall_until());
      }
    }
    return next;
  }

  /// Advance every chip through the quanta from `now_s` up to `horizon_s`
  /// (at least one) in one fan-out, drain the staged completions into the
  /// ledger, and return the new fleet clock: the start of the first
  /// quantum in which no chip was busy, or of the quantum after the
  /// horizon.
  double advance_until(double now_s, double horizon_s, RequestLedger& ledger) {
    {
      obs::PhaseTimers::Scope advance_scope(timers_, "fleet-advance");
      const auto advance_chip = [&](std::size_t s) {
        busy_quanta_[s] = chips_[s]->advance_until(now_s, horizon_s, dt_, quantum_, staged_[s]);
      };
      if (pool_ == nullptr) {
        for (std::size_t s = 0; s < chips_.size(); ++s) advance_chip(s);
      } else {
        pool_->run_indexed(chips_.size(), advance_chip);
      }
    }
    obs::PhaseTimers::Scope drain_scope(timers_, "fleet-drain");
    const int quanta = *std::max_element(busy_quanta_.begin(), busy_quanta_.end());
    std::vector<std::size_t> next(chips_.size(), 0);
    double t = now_s;
    for (int q = 0; q < quanta; ++q, t += dt_) {
      if (trace_ != nullptr) trace_->set_now(t);
      for (std::size_t s = 0; s < chips_.size(); ++s) {
        const auto& buf = staged_[s];
        for (; next[s] < buf.size() && buf[next[s]].quantum == q; ++next[s]) {
          ledger.complete(buf[next[s]].request, t);
        }
      }
    }
    for (auto& buf : staged_) buf.clear();
    return t;
  }

 private:
  Chips& chips_;
  std::vector<std::vector<StagedCompletion>> staged_;
  std::vector<int> busy_quanta_;  ///< per chip, for the horizon in flight
  std::unique_ptr<sim::ThreadPool> pool_;
  const double dt_;
  const Cycle quantum_;
  obs::TraceSink* trace_;
  obs::PhaseTimers* timers_;
};

}  // namespace

FleetResult ClusterFleet::run(int threads, obs::Telemetry* telemetry) {
  NTSERV_EXPECTS(!ran_,
                 "ClusterFleet::run is single-shot: the first run consumed the chips' "
                 "state; use dc::FleetRunner (a fresh engine per run) to repeat a run");
  ran_ = true;
  if (threads <= 0) threads = sim::ThreadPool::default_threads();
  const double base_f = config_.frequency.value();
  const double max_s = static_cast<double>(config_.max_cycles) / base_f;
  const double dt = static_cast<double>(config_.quantum) / base_f;  // master wall quantum

  // Only enabled telemetry components are wired: every emission site
  // tests one plain pointer, so detached/disabled telemetry stays off the
  // hot path.
  obs::TraceSink* trace =
      telemetry != nullptr && telemetry->trace.enabled() ? &telemetry->trace : nullptr;
  obs::MetricsRegistry* metrics =
      telemetry != nullptr && telemetry->metrics.enabled() ? &telemetry->metrics : nullptr;
  obs::PhaseTimers* timers =
      telemetry != nullptr && telemetry->timers.enabled() ? &telemetry->timers : nullptr;
  obs::PhaseTimers::Scope run_scope(timers, "fleet-run");
  if (trace != nullptr) trace->begin_run(servers());

  // The run's only ledger: every part writes its counters straight into
  // `r` and its tenant slices.
  FleetResult r;
  DataPlane data{chips_, threads, dt, config_.quantum, trace, timers};
  ControlPlane control{config_, chips_, managers_, r, trace, metrics, timers, dt};
  RequestLedger ledger{config_, chips_, control, r, trace};

  double now_s = 0.0;
  while (!ledger.settled()) {
    if (now_s >= max_s) {
      r.truncated = true;
      break;
    }
    if (trace != nullptr) trace->set_now(now_s);
    ledger.deliver_faults(now_s);
    if (now_s >= control.next_event_s()) control.close_epochs(now_s, /*final_partial=*/false);
    ledger.expire_timeouts(now_s);
    ledger.admit_due(now_s);
    ledger.fire_hedges(now_s);
    data.start_services(now_s);
    if (!data.idle()) {
      // Serve up to the next fleet event in one step. While some request
      // races two live copies, or the last arrival is in, one completion
      // can reach another chip or end the run, so the step is one quantum.
      const double horizon =
          ledger.chips_independent()
              ? std::min({ledger.next_event_s(), data.next_event_s(now_s),
                          control.next_event_s(), max_s})
              : now_s;
      now_s = data.advance_until(now_s, horizon, ledger);
      continue;
    }
    // Whole fleet idle: every chip would sleep, so jump straight to the
    // next event on the base-frequency cycle grid (the fleet-level
    // analogue of event skipping; the skipped span is credited to sleep
    // in the energy accounting). The epoch boundary is a hard stop, not
    // an event: every chip's governor observes every epoch, idle or not.
    const double next_event = std::min(ledger.next_event_s(), data.next_event_s(now_s));
    if (!std::isfinite(next_event)) {
      // The last request can be disposed *inside* this iteration (a
      // timeout expiry with the fleet already idle): nothing is left to
      // wait for, so take the loop exit the top-of-loop check would have
      // taken.
      if (ledger.settled()) break;
      // A crashed chip that never recovers can strand its queue (and,
      // health-blind, its in-flight work) with no future event: run out
      // the clock so the stranded requests surface as in_flight on a
      // truncated result instead of tripping the invariant below.
      if (ledger.chips_down()) {
        now_s = max_s;
        continue;
      }
      NTSERV_EXPECTS(false, "idle fleet with requests unaccounted for " + ledger.context(now_s));
    }
    const double on_grid = std::max(now_s + 1.0 / base_f, std::ceil(next_event * base_f) / base_f);
    now_s = std::min({on_grid, control.next_event_s(), max_s});
  }

  if (trace != nullptr) trace->set_now(now_s);
  control.finish(now_s);
  if (trace != nullptr) trace->finish();
  ledger.finish();

  r.offered = tenant_sum(r, &TenantResult::offered);
  r.completed = tenant_sum(r, &TenantResult::completed);
  r.completed_all = tenant_sum(r, &TenantResult::completed_all);
  r.shed = tenant_sum(r, &TenantResult::shed);
  r.timed_out = tenant_sum(r, &TenantResult::timed_out);
  r.hedged = tenant_sum(r, &TenantResult::hedged);
  r.redispatched = tenant_sum(r, &TenantResult::redispatched);
  r.brownout_shed = tenant_sum(r, &TenantResult::brownout_shed);
  r.sla_violations = tenant_sum(r, &TenantResult::sla_violations);
  r.degraded_sla_violations = tenant_sum(r, &TenantResult::degraded_sla_violations);
  // The availability ledger must tile: every offered request is exactly
  // one of completed, shed, timed out, or still in flight (truncation).
  NTSERV_ENSURES(r.offered == r.completed_all + r.shed + r.timed_out + r.in_flight,
                 "request accounting does not tile " + ledger.context(now_s));

  r.workload = config_.profile.name;
  r.frequency = config_.frequency;
  r.shed_rate =
      r.offered > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.offered) : 0.0;
  r.span_seconds = Second{now_s};
  r.span_cycles = static_cast<Cycle>(std::llround(now_s * base_f));
  if (ledger.last_arrival_s() > 0.0) {
    r.offered_rate = static_cast<double>(r.offered) / ledger.last_arrival_s();
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
    r.utilization =
        busy_core_seconds / (now_s * static_cast<double>(servers() * cores_per_server()));
  }
  r.avg_frequency_ghz = governed_seconds > 0.0 ? freq_seconds / governed_seconds / 1e9 : 0.0;
  r.parked_seconds = Second{parked_s};

  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    TenantResult& tr = r.tenants[t];
    NTSERV_ENSURES(tr.offered == tr.completed_all + tr.shed + tr.timed_out + tr.in_flight,
                   "tenant '" + tr.name + "' accounting does not tile " + ledger.context(now_s));
    tr.shed_rate =
        tr.offered > 0 ? static_cast<double>(tr.shed) / static_cast<double>(tr.offered) : 0.0;
    for (const auto& chip : chips_) {
      tr.busy_core_seconds += chip->tenant_busy_seconds(static_cast<int>(t));
    }
    tr.busy_share = busy_core_seconds > 0.0 ? tr.busy_core_seconds / busy_core_seconds : 0.0;
    // Energy attribution by occupied core time: the tenant that kept the
    // cores busy carries the matching share of the envelope energy
    // (idle/sleep overhead rides along proportionally).
    tr.energy = Joule{r.energy.value() * tr.busy_share};
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
