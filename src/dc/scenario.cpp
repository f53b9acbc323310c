#include "dc/scenario.hpp"

#include "common/error.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::dc {

namespace {
/// Nominal per-core user-instruction throughput at the 2 GHz baseline,
/// used only to size scenario arrival rates (the scale-out suite measures
/// ~0.3-0.5 UIPC there; FleetResult reports the realized utilization).
constexpr double kNominalCoreUipc = 0.35;
constexpr double kBaselineHz = 2e9;
}  // namespace

double rate_for_load(double load, int servers, int cores_per_server,
                     std::uint64_t user_instructions_per_request) {
  NTSERV_EXPECTS(load > 0.0, "load must be positive");
  NTSERV_EXPECTS(servers > 0 && cores_per_server > 0, "fleet shape must be positive");
  const double per_core_rate = kNominalCoreUipc * kBaselineHz /
                               static_cast<double>(user_instructions_per_request);
  return load * static_cast<double>(servers) * static_cast<double>(cores_per_server) *
         per_core_rate;
}

FleetConfig Scenario::fleet_config(Hertz f) const {
  // Built through FleetConfigBuilder: a single-tenant scenario's traffic
  // fields become tenant 0 of the expansion's tenant table.
  FleetConfigBuilder b;
  b.profile(workload::WorkloadProfile::for_name(workload))
      .frequency(f)
      .shape(servers, clusters_per_chip)
      .admission(admission)
      .governor(governor)
      .policy(policy)
      .faults(faults)
      .resilience(resilience)
      .orchestration(orchestration)
      .brownout(brownout)
      .breaker(breaker)
      .max_cycles(max_cycles)
      .warm(warm_instructions)
      .seed(seed);
  if (tenants.empty()) {
    b.arrival(arrival)
        .budget(budget)
        .request_cost(user_instructions_per_request)
        .requests(requests, warmup_requests);
  } else {
    for (const auto& t : tenants) b.tenant(t);
  }
  return b.build();
}

Scenario Scenario::dedicated(std::size_t t) const {
  NTSERV_EXPECTS(t < tenants.size(), "dedicated() needs a consolidated scenario");
  Scenario s = *this;
  const TenantSpec& spec = tenants[t];
  s.name = name + "/" + spec.name;
  s.description = "dedicated split of " + name + ": " + spec.name + " alone";
  s.arrival = spec.arrival;
  s.budget = spec.budget;
  s.user_instructions_per_request = spec.user_instructions_per_request;
  s.requests = spec.requests;
  s.warmup_requests = spec.warmup_requests;
  // Keep the tenant's identity (name, QoS bound, steering class) so the
  // dedicated run reports the same per-tenant slice as the consolidated
  // one — only the co-tenant is gone.
  s.tenants = {spec};
  return s;
}

std::vector<Scenario> Scenario::registry() {
  std::vector<Scenario> all;
  const int cores = sim::ClusterConfig{}.hierarchy.cores;

  {
    // The contention-free anchor: utilization low enough that queueing is
    // negligible, so measured p99 tracks the analytic UIPS-scaling rule.
    // This is the scenario the measured-vs-analytic cross-check runs on.
    Scenario s;
    s.name = "websearch-poisson-light";
    s.description = "Web Search, Poisson arrivals at ~2.5% load, least-loaded";
    s.workload = "Web Search";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.025, 2, cores, 8'000);
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.seed = 11;
    all.push_back(s);
  }
  {
    // Heavy Poisson load: at 2 GHz the fleet keeps up; as frequency drops
    // the service rate falls under the arrival rate and the measured tail
    // blows up — the regime the analytic scaling rule cannot express.
    Scenario s;
    s.name = "websearch-poisson-heavy";
    s.description = "Web Search, Poisson arrivals at ~55% load, least-loaded";
    s.workload = "Web Search";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.55, 2, cores, 8'000);
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.seed = 12;
    all.push_back(s);
  }
  {
    Scenario s;
    s.name = "dataserving-deterministic";
    s.description = "Data Serving, fixed-spacing arrivals, round-robin";
    s.workload = "Data Serving";
    s.arrival.kind = ArrivalKind::kDeterministic;
    s.arrival.rate = rate_for_load(0.30, 2, cores, 8'000);
    s.policy = BalancePolicy::kRoundRobin;
    s.servers = 2;
    s.seed = 13;
    all.push_back(s);
  }
  {
    Scenario s;
    s.name = "dataserving-mmpp-bursty";
    s.description = "Data Serving, MMPP request storms (4x bursts), least-loaded";
    s.workload = "Data Serving";
    s.arrival.kind = ArrivalKind::kMmpp;
    s.arrival.rate = rate_for_load(0.30, 2, cores, 8'000);
    s.arrival.burst_rate_multiplier = 4.0;
    s.arrival.burst_fraction = 0.1;
    s.arrival.burst_dwell = Second{2e-4};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.seed = 14;
    all.push_back(s);
  }
  {
    Scenario s;
    s.name = "webserving-diurnal";
    s.description = "Web Serving, sinusoidal day/night load, least-loaded";
    s.workload = "Web Serving";
    s.arrival.kind = ArrivalKind::kDiurnal;
    s.arrival.rate = rate_for_load(0.45, 2, cores, 8'000);
    s.arrival.diurnal_trough = 0.2;
    s.arrival.diurnal_period = Second{2e-3};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.seed = 15;
    all.push_back(s);
  }
  {
    // Power-aware packing: light load concentrated on low-index servers so
    // the tail of the fleet can sit in RBB sleep (fleet_energy accounts
    // the idle span at sleep power).
    Scenario s;
    s.name = "mediastreaming-powercap";
    s.description = "Media Streaming, ~15% load packed power-aware on 4 servers";
    s.workload = "Media Streaming";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.15, 4, cores, 8'000);
    s.policy = BalancePolicy::kPowerAware;
    s.servers = 4;
    s.seed = 16;
    all.push_back(s);
  }
  {
    // Bitbrains-backed VM population: the offered rate aggregates the
    // sampled per-VM CPU demand (Shen et al., CCGrid'15), served by the
    // low-memory banking-VM workload class.
    Scenario s;
    s.name = "vm-bitbrains-lowmem";
    s.description = "VMs low-mem, Bitbrains population demand, power-aware";
    s.workload = "VMs low-mem";
    s.arrival.kind = ArrivalKind::kVmPopulation;
    s.arrival.vm_population = 64;
    s.arrival.vm_peak_rate =
        rate_for_load(0.80, 2, cores, 8'000) / 64.0;  // ~14% mean at 0.18 util
    s.policy = BalancePolicy::kPowerAware;
    s.servers = 2;
    s.seed = 17;
    all.push_back(s);
  }
  {
    Scenario s;
    s.name = "websearch-roundrobin";
    s.description = "Web Search, Poisson ~30% load, round-robin baseline";
    s.workload = "Web Search";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.30, 2, cores, 8'000);
    s.policy = BalancePolicy::kRoundRobin;
    s.servers = 2;
    s.seed = 18;
    all.push_back(s);
  }

  // ---- Closed-loop runtime control (src/ctrl) combinations ----
  {
    // The paper's thesis as a feedback loop: pin the efficiency optimum,
    // FBB-boost when the measured diurnal peak pushes the epoch p99
    // toward the SLO. The limit is sized ~6x the uncontended 2 GHz
    // service time so off-peak epochs at f_opt sit well inside it.
    Scenario s;
    s.name = "webserving-diurnal-ntcboost";
    s.description = "Web Serving diurnal, NTC-boost governor + admission back-off";
    s.workload = "Web Serving";
    s.arrival.kind = ArrivalKind::kDiurnal;
    // Crest briefly at ~90% of nominal capacity: the pin carries the day,
    // the FBB boost covers the crest, and the trough sleeps.
    s.arrival.rate = rate_for_load(0.9, 2, cores, 8'000);
    s.arrival.diurnal_trough = 0.10;
    s.arrival.diurnal_period = Second{2e-3};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.governor.kind = ctrl::GovernorKind::kNtcBoost;
    s.governor.epoch_quanta = 2048;  // ~70 us epochs: ~25 completions each
    s.governor.qos_p99_limit = microseconds(60.0);
    s.admission.enabled = true;
    s.admission.max_outstanding_per_core = 6.0;
    s.requests = 600;
    s.seed = 19;
    all.push_back(s);
  }
  {
    // Reactive ondemand under request storms: the governor chases the
    // MMPP bursts with DVFS, paying the voltage-ramp stall on each step.
    Scenario s;
    s.name = "dataserving-mmpp-ondemand";
    s.description = "Data Serving MMPP bursts, ondemand DVFS governor";
    s.workload = "Data Serving";
    s.arrival.kind = ArrivalKind::kMmpp;
    s.arrival.rate = rate_for_load(0.30, 2, cores, 8'000);
    s.arrival.burst_rate_multiplier = 4.0;
    s.arrival.burst_fraction = 0.1;
    s.arrival.burst_dwell = Second{2e-4};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    s.seed = 20;
    all.push_back(s);
  }
  {
    // Offered load ~2.5x service capacity: without admission control this
    // run truncates at the cycle cap; with it, clients back off and the
    // shed rate becomes the scenario's headline metric.
    Scenario s;
    s.name = "websearch-saturation-admission";
    s.description = "Web Search at ~2.5x capacity, queue-depth admission + back-off";
    s.workload = "Web Search";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(2.5, 2, cores, 8'000);
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.admission.enabled = true;
    s.admission.max_outstanding_per_core = 3.0;
    s.admission.max_retries = 2;
    // Short relative to the overload's duration: clients must be able to
    // exhaust their retry budget while the fleet is still saturated,
    // otherwise nothing is ever shed and queues do the clipping.
    s.admission.backoff = microseconds(20.0);
    s.requests = 300;
    s.seed = 23;
    all.push_back(s);
  }
  // ---- Cross-scenario consolidation on multi-cluster chips ----
  {
    // The statistical-multiplexing anchor: two latency-critical diurnal
    // tenants peaking in *antiphase* share one 2-cluster chip. Each alone
    // would keep a dedicated chip half-idle off-peak; together the crests
    // interleave and one chip carries both at the same per-tenant p99
    // bound — the consolidation claim bench/fig5_consolidation asserts.
    // Per-chip NTC-boost governs the chip (1.7 us bias swings), and the
    // governor-aware balancer steers around its boost releases.
    Scenario s;
    s.name = "consolidated-antiphase-search";
    s.description = "2x Web Search diurnal in antiphase on one 2-cluster chip, NTC-boost";
    s.workload = "Web Search";
    s.policy = BalancePolicy::kGovernorAware;
    s.servers = 1;
    s.clusters_per_chip = 2;
    s.governor.kind = ctrl::GovernorKind::kNtcBoost;
    s.governor.epoch_quanta = 2048;  // ~65 us epochs at 2 GHz base
    s.governor.qos_p99_limit = microseconds(90.0);
    TenantSpec day;
    day.name = "day-peak";
    day.arrival.kind = ArrivalKind::kDiurnal;
    day.arrival.rate = rate_for_load(0.5, 1, 2 * cores, 8'000);
    day.arrival.diurnal_trough = 0.1;
    day.arrival.diurnal_period = Second{2e-3};
    day.qos_p99_limit = microseconds(90.0);
    day.requests = 500;
    TenantSpec night = day;
    night.name = "night-peak";
    night.arrival.diurnal_phase = 0.5;
    s.tenants = {day, night};
    s.seed = 25;
    all.push_back(s);
  }
  {
    // Latency-critical interactive traffic consolidated with a batch
    // tenant (lognormal budgets, no latency bound) on two 2-cluster
    // chips under per-chip ondemand DVFS: the governor descends on the
    // diurnal trough, and the governor-aware balancer steers interactive
    // requests away from descending chips while batch work soaks them.
    Scenario s;
    s.name = "consolidated-web-batch";
    s.description = "Web Serving diurnal + batch tenant on two 2-cluster chips, ondemand";
    s.workload = "Web Serving";
    s.policy = BalancePolicy::kGovernorAware;
    s.servers = 2;
    s.clusters_per_chip = 2;
    s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    s.governor.epoch_quanta = 2048;
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.arrival.kind = ArrivalKind::kDiurnal;
    interactive.arrival.rate = rate_for_load(0.45, 2, 2 * cores, 8'000);
    interactive.arrival.diurnal_trough = 0.15;
    interactive.arrival.diurnal_period = Second{2e-3};
    interactive.qos_p99_limit = microseconds(150.0);
    interactive.requests = 500;
    TenantSpec batch;
    batch.name = "batch";
    batch.arrival.kind = ArrivalKind::kPoisson;
    batch.arrival.rate = rate_for_load(0.25, 2, 2 * cores, 8'000);
    batch.budget.kind = ctrl::BudgetKind::kLognormal;
    batch.budget.sigma = 0.7;
    batch.latency_critical = false;
    batch.requests = 300;
    s.tenants = {interactive, batch};
    s.seed = 26;
    all.push_back(s);
  }
  // ---- Fault tolerance (src/fault) ----
  {
    // A fail-stop crash in the middle of the diurnal day: chip 1 dies for
    // ~0.4 ms (a third of the fleet) and recovers cold. Health-blind
    // dispatch strands its queue and in-flight work for the whole outage
    // — every stranded request blows through the 100 us bound — while
    // failover + hedging re-place the losses and race the stragglers.
    // bench/fig6_fault_tolerance runs both arms of exactly this scenario.
    Scenario s;
    s.name = "diurnal-chipfail";
    s.description = "Web Serving diurnal, 3 chips, one fail-stop crash; failover + hedging";
    s.workload = "Web Serving";
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 3;
    TenantSpec web;
    web.name = "web";
    web.arrival.kind = ArrivalKind::kDiurnal;
    web.arrival.rate = rate_for_load(0.5, 3, cores, 8'000);
    web.arrival.diurnal_trough = 0.3;
    web.arrival.diurnal_period = Second{2e-3};
    web.qos_p99_limit = microseconds(100.0);
    web.requests = 600;
    s.tenants = {web};
    s.faults.events = {
        {0.6e-3, 1, fault::FaultKind::kCrash},
        {1.0e-3, 1, fault::FaultKind::kRecover},
    };
    s.resilience.failover = true;
    s.resilience.hedging = true;
    s.resilience.hedge_multiplier = 3.0;
    s.resilience.hedge_min_delay = microseconds(60.0);
    s.seed = 27;
    all.push_back(s);
  }
  {
    // A detected error on every chip of an NTC-boost fleet: no caps, but
    // each governor retreats into its guardband — FBB overdrive off, the
    // supply margined up for a bounded number of epochs — and the energy
    // overhead of that retreat is measured against the healthy run
    // (bench/fig6_fault_tolerance arm b).
    Scenario s;
    s.name = "ntc-guardband-web";
    s.description = "Web Serving diurnal, NTC-boost; detected errors engage the guardband";
    s.workload = "Web Serving";
    s.arrival.kind = ArrivalKind::kDiurnal;
    s.arrival.rate = rate_for_load(0.6, 2, cores, 8'000);
    s.arrival.diurnal_trough = 0.2;
    s.arrival.diurnal_period = Second{2e-3};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.governor.kind = ctrl::GovernorKind::kNtcBoost;
    s.governor.epoch_quanta = 2048;  // ~65 us epochs at 2 GHz base
    s.governor.qos_p99_limit = microseconds(60.0);
    s.admission.enabled = true;
    s.admission.max_outstanding_per_core = 6.0;
    s.faults.events = {
        {0.5e-3, 0, fault::FaultKind::kDegrade, 1.0, 0},
        {0.5e-3, 1, fault::FaultKind::kDegrade, 1.0, 0},
        {0.55e-3, 0, fault::FaultKind::kRestore},
        {0.55e-3, 1, fault::FaultKind::kRestore},
    };
    s.requests = 600;
    s.seed = 28;
    all.push_back(s);
  }
  // ---- Fleet orchestration (src/orch) ----
  {
    // The autoscaling anchor: a deep diurnal trough on a 4-chip fleet
    // whose fixed-max governors never sleep (idle chips burn full active
    // power — the provisioning foil). The autoscaler drains and parks
    // trough chips at the platform's deep-idle floor and wakes them for
    // the crest, so the energy saved at equal p99 is exactly the
    // paper-style over-provisioning cost bench/fig7_orchestration
    // measures against the same scenario with the autoscaler off.
    Scenario s;
    s.name = "autoscale-diurnal-web";
    s.description = "Web Serving diurnal on 4 chips, fixed-max; autoscaler parks the trough";
    s.workload = "Web Serving";
    s.arrival.kind = ArrivalKind::kDiurnal;
    s.arrival.rate = rate_for_load(0.5, 4, cores, 8'000);
    s.arrival.diurnal_trough = 0.1;
    s.arrival.diurnal_period = Second{2e-3};
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 4;
    s.governor.kind = ctrl::GovernorKind::kFixedMax;
    s.governor.epoch_quanta = 2048;  // ~65 us epochs at 2 GHz base
    s.orchestration.autoscaler.enabled = true;
    s.orchestration.autoscaler.min_active = 1;
    s.orchestration.autoscaler.scale_up_utilization = 0.75;
    s.orchestration.autoscaler.scale_down_utilization = 0.30;
    s.orchestration.autoscaler.hysteresis_epochs = 2;
    s.orchestration.autoscaler.wake_latency = microseconds(50.0);
    // Long enough to cover two full diurnal periods (two troughs to
    // park through, two crests to wake for).
    s.requests = 1600;
    s.seed = 29;
    all.push_back(s);
  }
  {
    // A binding rack cap over per-chip ondemand governors: the cap is
    // sized below what three chips chasing a ~45% Poisson load would
    // draw, so the barrier split visibly clamps decided frequencies (the
    // p99 cost of the cap is the fig7 headline) while the realized fleet
    // power stays under the cap on the epoch grid.
    Scenario s;
    s.name = "powercap-web";
    s.description = "Web Search Poisson on 3 chips, ondemand under a binding fleet cap";
    s.workload = "Web Search";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.45, 3, cores, 8'000);
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 3;
    s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    s.governor.epoch_quanta = 2048;
    {
      // Size the cap from the platform itself: ~2.2 chips' worth of
      // full-speed active power shared by 3 chips.
      ctrl::GovernorConfig gc = s.governor;
      gc.curve = ctrl::default_uips_curve();
      const pm::PowerManager manager = ctrl::make_power_manager(gc);
      s.orchestration.cap.enabled = true;
      s.orchestration.cap.fleet_cap =
          Watt{2.2 * manager.active_power(Hertz{2e9}).value()};
    }
    s.requests = 600;
    s.seed = 30;
    all.push_back(s);
  }
  {
    // The paper's NTC-vs-conventional comparison made dynamic: one
    // arrival stream over an FD-SOI NTC group and a bulk-28nm
    // conventional group. At peak, the latency-critical tenant steers to
    // the conventional group and batch work soaks the NTC group;
    // off-peak everything consolidates onto the NTC group.
    Scenario s;
    s.name = "multifleet-ntc-conv";
    s.description = "Diurnal web + batch routed across an NTC group and a bulk28 group";
    s.workload = "Web Serving";
    s.policy = BalancePolicy::kLeastLoaded;  // superseded by the router
    s.servers = 4;
    s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    s.governor.epoch_quanta = 2048;
    orch::FleetGroup ntc;
    ntc.name = "ntc";
    ntc.servers = 2;
    ntc.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    ntc.governor.epoch_quanta = 2048;
    orch::FleetGroup conv;
    conv.name = "conv";
    conv.servers = 2;
    conv.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    conv.governor.epoch_quanta = 2048;
    conv.governor.tech = tech::TechnologyParams::bulk28();
    conv.prefers_latency_critical = true;
    s.orchestration.router.enabled = true;
    s.orchestration.router.groups = {ntc, conv};
    s.orchestration.router.ntc_group = 0;
    s.orchestration.router.offpeak_utilization = 0.35;
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.arrival.kind = ArrivalKind::kDiurnal;
    interactive.arrival.rate = rate_for_load(0.5, 4, cores, 8'000);
    interactive.arrival.diurnal_trough = 0.1;
    interactive.arrival.diurnal_period = Second{2e-3};
    interactive.qos_p99_limit = microseconds(150.0);
    interactive.requests = 500;
    TenantSpec batch;
    batch.name = "batch";
    batch.arrival.kind = ArrivalKind::kPoisson;
    batch.arrival.rate = rate_for_load(0.15, 4, cores, 8'000);
    batch.latency_critical = false;
    batch.requests = 300;
    s.tenants = {interactive, batch};
    s.seed = 31;
    all.push_back(s);
  }
  // ---- Correlated failure domains + brownout (src/fault, ctrl/brownout) ----
  {
    // Rack-scale loss at the diurnal peak: 6 chips in 2 three-chip failure
    // domains. The autoscaler parks highest-index first, so the low-index
    // chips of rack0 are exactly the ones that never sleep — and exactly
    // the ones lost when rack0 drops at the crest. The survivors are one
    // or two serving chips plus the recently-parked spares of rack1. The
    // resilient arm survives on the ladder: the brownout controller sheds
    // batch work at the barrier, the emergency wake bypasses the
    // hysteresis gate and revives every parked spare at once at the warm
    // fraction of the wake latency, and hedges place across domains. The
    // blind arm (bench/fig8_brownout strips brownout, breaker and the
    // emergency wake) wakes one chip per barrier and keeps soaking batch
    // work on the survivors, blowing the web tenant's p99. Either way the
    // accounting ledger must tile.
    Scenario s;
    s.name = "rack-loss-web";
    s.description = "Web diurnal + batch on 6 chips in 2 racks; rack0 dies at the peak";
    s.workload = "Web Serving";
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 6;
    s.governor.kind = ctrl::GovernorKind::kFixedMax;
    s.governor.epoch_quanta = 2048;  // ~65 us epochs at 2 GHz base
    s.orchestration.autoscaler.enabled = true;
    s.orchestration.autoscaler.min_active = 2;
    // Wake late and park aggressively: the crest rides four serving chips
    // at ~80% utilization with two parked spares — the capacity the
    // emergency wake reclaims all at once when rack0 drops, where the
    // blind arm's scale-up path wakes one chip per barrier.
    s.orchestration.autoscaler.scale_up_utilization = 0.85;
    s.orchestration.autoscaler.scale_down_utilization = 0.45;
    s.orchestration.autoscaler.hysteresis_epochs = 2;
    s.orchestration.autoscaler.wake_latency = microseconds(50.0);
    // Chips parked within the last millisecond are still warm: an
    // emergency wake at the crest pays a quarter of the latency.
    s.orchestration.autoscaler.warm_sleep_window = Second{1e-3};
    s.orchestration.autoscaler.warm_wake_fraction = 0.25;
    TenantSpec web;
    web.name = "web";
    web.arrival.kind = ArrivalKind::kDiurnal;
    web.arrival.rate = rate_for_load(0.32, 6, cores, 8'000);
    web.arrival.diurnal_trough = 0.1;
    web.arrival.diurnal_period = Second{2e-3};
    // A tight interactive SLA: the healthy fleet runs at ~22 us p99 and
    // the full ladder holds ~29 us through the outage; the blind arm's
    // one-chip-per-barrier recovery blows through ~70 us.
    web.qos_p99_limit = microseconds(50.0);
    web.requests = 900;
    TenantSpec batch;
    batch.name = "batch";
    batch.arrival.kind = ArrivalKind::kPoisson;
    batch.arrival.rate = rate_for_load(0.15, 6, cores, 8'000);
    batch.latency_critical = false;
    batch.requests = 500;
    s.tenants = {web, batch};
    s.faults.domains = {{"rack0", {0, 1, 2}}, {"rack1", {3, 4, 5}}};
    {
      fault::FaultEvent outage;
      outage.at_s = 1.0e-3;  // the diurnal crest (trough-started sinusoid)
      outage.kind = fault::FaultKind::kDomainOutage;
      outage.domain = 0;
      outage.duration_s = 0.4e-3;
      s.faults.events = {outage};
    }
    s.resilience.failover = true;
    s.resilience.hedging = true;
    s.resilience.hedge_multiplier = 3.0;
    s.resilience.hedge_min_delay = microseconds(60.0);
    s.resilience.timeout = microseconds(300.0);
    s.admission.enabled = true;
    // Loose enough that the one-barrier gap between the outage and the
    // emergency wake queues on the survivor instead of shedding web work;
    // the brownout ladder, not saturation admission, is the shedder here.
    s.admission.max_outstanding_per_core = 16.0;
    s.admission.max_retries = 3;
    s.admission.backoff = microseconds(20.0);
    s.brownout.enabled = true;
    s.breaker.enabled = true;
    s.seed = 32;
    all.push_back(s);
  }
  {
    // A cooling failure on the NTC rack of a routed two-tech fleet under
    // a binding cap: the thermal emergency caps rack0's clocks for half a
    // millisecond while the capper's group weights keep the budget on the
    // conventional (latency-critical) group and the brownout ladder sheds
    // batch work that the capped NTC group can no longer soak.
    Scenario s;
    s.name = "thermal-emergency-mixed";
    s.description = "Routed NTC+conv fleet under a cap; thermal emergency caps the NTC rack";
    s.workload = "Web Serving";
    s.policy = BalancePolicy::kLeastLoaded;  // superseded by the router
    s.servers = 4;
    s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    s.governor.epoch_quanta = 2048;
    orch::FleetGroup ntc;
    ntc.name = "ntc";
    ntc.servers = 2;
    ntc.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    ntc.governor.epoch_quanta = 2048;
    // No guardband in this scenario (fig6 owns that story): a mid-epoch
    // margin engage on the thermal degrade would charge more Watts than
    // the barrier's budget split assumed and read as a cap violation.
    ntc.governor.guardband_margin = 0.0;
    orch::FleetGroup conv;
    conv.name = "conv";
    conv.servers = 2;
    conv.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
    conv.governor.epoch_quanta = 2048;
    conv.governor.tech = tech::TechnologyParams::bulk28();
    conv.governor.guardband_margin = 0.0;
    conv.prefers_latency_critical = true;
    s.orchestration.router.enabled = true;
    s.orchestration.router.groups = {ntc, conv};
    s.orchestration.router.ntc_group = 0;
    s.orchestration.router.offpeak_utilization = 0.35;
    {
      // A cap at ~3 chips' worth of full-speed power over 4 chips, with
      // the conventional group weighted 3:1 so the latency-critical home
      // keeps its budget when the emergency squeezes the split.
      ctrl::GovernorConfig gc = s.governor;
      gc.curve = ctrl::default_uips_curve();
      const pm::PowerManager manager = ctrl::make_power_manager(gc);
      s.orchestration.cap.enabled = true;
      s.orchestration.cap.fleet_cap =
          Watt{3.0 * manager.active_power(Hertz{2e9}).value()};
      s.orchestration.cap.group_weights = {1.0, 3.0};
    }
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.arrival.kind = ArrivalKind::kDiurnal;
    interactive.arrival.rate = rate_for_load(0.5, 4, cores, 8'000);
    interactive.arrival.diurnal_trough = 0.1;
    interactive.arrival.diurnal_period = Second{2e-3};
    interactive.qos_p99_limit = microseconds(150.0);
    interactive.requests = 500;
    TenantSpec batch;
    batch.name = "batch";
    batch.arrival.kind = ArrivalKind::kPoisson;
    batch.arrival.rate = rate_for_load(0.15, 4, cores, 8'000);
    batch.latency_critical = false;
    batch.requests = 300;
    s.tenants = {interactive, batch};
    s.faults.domains = {{"ntc-rack", {0, 1}}, {"conv-rack", {2, 3}}};
    {
      fault::FaultEvent thermal;
      thermal.at_s = 0.8e-3;
      thermal.kind = fault::FaultKind::kThermalEmergency;
      thermal.domain = 0;
      thermal.freq_cap = 0.6;
      thermal.duration_s = 0.5e-3;
      s.faults.events = {thermal};
    }
    s.resilience.failover = true;
    s.resilience.hedging = true;
    s.resilience.hedge_multiplier = 3.0;
    s.resilience.hedge_min_delay = microseconds(60.0);
    s.resilience.timeout = microseconds(400.0);
    s.admission.enabled = true;
    s.admission.max_outstanding_per_core = 6.0;
    s.brownout.enabled = true;
    s.breaker.enabled = true;
    s.seed = 33;
    all.push_back(s);
  }
  {
    // Heterogeneous request costs: lognormal budgets (cv ~ 0.8) break the
    // constant-instructions invariant, so the measured tail departs from
    // the analytic scaling rule even without queueing.
    Scenario s;
    s.name = "dataserving-lognormal-budget";
    s.description = "Data Serving, lognormal instruction budgets (sigma 0.7)";
    s.workload = "Data Serving";
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = rate_for_load(0.30, 2, cores, 8'000);
    s.policy = BalancePolicy::kLeastLoaded;
    s.servers = 2;
    s.budget.kind = ctrl::BudgetKind::kLognormal;
    s.budget.sigma = 0.7;
    s.seed = 24;
    all.push_back(s);
  }
  return all;
}

Scenario Scenario::by_name(const std::string& name) {
  for (auto& s : registry()) {
    if (s.name == name) return s;
  }
  throw ModelError("no scenario named: " + name);
}

FleetResult run_scenario(const Scenario& scenario, Hertz f, const RunOptions& options) {
  return FleetRunner{scenario.fleet_config(f)}.run(options);
}

obs::TraceMeta trace_meta(const Scenario& scenario) {
  // Expand at the default frequency purely for the resolved shape: chip
  // count, cores per chip and the tenant table are frequency-independent.
  const FleetConfig fc = scenario.fleet_config(Hertz{2e9});
  obs::TraceMeta meta;
  meta.name = scenario.name;
  meta.chips = fc.servers;
  meta.cores_per_chip = fc.clusters_per_chip * fc.cluster.hierarchy.cores;
  for (const auto& t : fc.tenants) meta.tenants.push_back(t.name);
  return meta;
}

std::vector<FleetResult> run_scenarios(const std::vector<Scenario>& scenarios, Hertz f,
                                       int threads) {
  std::vector<FleetResult> results(scenarios.size());
  sim::parallel_for_index(threads, scenarios.size(), [&](std::size_t i) {
    results[i] = run_scenario(scenarios[i], f);
  });
  return results;
}

}  // namespace ntserv::dc
