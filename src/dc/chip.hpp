// One multi-cluster chip serving requests behind a single power envelope.
//
// The paper's scale-out argument (Sec. II-B) is that many small
// near-threshold clusters share one server chip: clusters are
// architecturally independent (private LLC slice, no coherence across
// pods), but they share the chip's voltage/frequency domain and its
// power/thermal envelope. ChipServer models exactly that unit: N
// sim::Cluster instances advanced on one wall clock, one dispatch queue,
// one frequency (per-chip DVFS — a change retunes every cluster and
// stalls the whole chip for the shared transition), and one
// ctrl::FleetGovernor instance making the chip's epoch decisions.
//
// ClusterFleet (dc/fleet.hpp) owns a vector of chips and runs the
// dispatch loop; the chip owns everything inside its envelope: core
// slots, cycle accounting against the fleet's base clock (a chip whose
// governor descended advances fewer cycles per master quantum), epoch
// accumulators, and the governor itself.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "ctrl/governor.hpp"
#include "obs/obs.hpp"
#include "pm/power_manager.hpp"
#include "sim/cluster.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {

/// Per-request lifecycle record, in wall seconds (fractional: completions
/// are interpolated inside the advance quantum).
struct Request {
  std::uint64_t id = 0;         ///< global admission-order sequence (retry ties)
  int tenant = 0;               ///< index into the fleet's tenant table
  std::uint64_t tenant_seq = 0; ///< per-tenant sequence (budgets, warmup)
  double arrival_s = 0.0;       ///< first offered (back-off does not reset it)
  double start_s = 0.0;         ///< service began on a core
  double completion_s = 0.0;
  std::uint64_t budget = 0;     ///< user-instruction cost (ctrl::BudgetSampler)
  int attempts = 0;             ///< admission rejections + timeouts suffered so far
  int server = -1;
  int core = -1;
  /// Fleet-wide dispatch-copy sequence (resilience tracking): every
  /// admitted attempt — primary, retry, or hedge — gets a fresh copy id,
  /// so late completions of abandoned attempts are recognisable.
  std::uint64_t copy = 0;
  bool hedge = false;           ///< this copy is a hedged duplicate

  [[nodiscard]] double latency_s() const { return completion_s - arrival_s; }
  [[nodiscard]] double wait_s() const { return start_s - arrival_s; }
};

/// A completion staged by ChipServer::advance_until, tagged with the index
/// of the quantum (within that call) it fell in.
struct StagedCompletion {
  int quantum = 0;
  Request request;
};

/// Construction parameters for one chip (the fleet stamps these out).
struct ChipParams {
  sim::ClusterConfig cluster;   ///< per-cluster shape (core_clock overwritten)
  int clusters = 1;
  workload::WorkloadProfile profile;
  Hertz frequency{2e9};         ///< fleet base frequency (the master clock)
  std::uint64_t warm_instructions = 600'000;
  Cycle warm_max_cycles = 6'000'000;
  std::uint64_t fleet_seed = 1;
  /// Global index of this chip's first cluster: per-cluster workload
  /// streams are a pure function of (fleet seed, global cluster index),
  /// so a 2-chip x 1-cluster fleet and the old flat 2-server fleet see
  /// identical instruction streams.
  int first_cluster_index = 0;
  int chip_id = 0;
  int tenants = 1;              ///< size of the per-tenant busy-time table
};

/// N sim::Cluster instances behind one queue, one frequency and one
/// governor decision.
class ChipServer {
 public:
  explicit ChipServer(const ChipParams& params);

  ChipServer(const ChipServer&) = delete;
  ChipServer& operator=(const ChipServer&) = delete;

  [[nodiscard]] int clusters() const { return static_cast<int>(clusters_.size()); }
  [[nodiscard]] int cores() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] Hertz frequency() const { return frequency_; }

  // ---- Dispatch interface ----
  [[nodiscard]] std::deque<Request>& queue() { return queue_; }
  /// Queued + in-service requests.
  [[nodiscard]] int outstanding() const {
    return static_cast<int>(queue_.size()) + busy_cores_;
  }
  [[nodiscard]] int busy_cores() const { return busy_cores_; }
  /// Move queued requests onto idle core slots (no-op mid-transition,
  /// while crashed, and beyond a degradation's core cap).
  void start_services(double now_s);

  // ---- Fault state (fault::FaultInjector events, fleet-delivered) ----
  [[nodiscard]] bool down() const { return down_; }
  /// Fail-stop: stop serving and abandon all in-service work. The
  /// abandoned requests are returned (in deterministic cluster-major
  /// slot order) for the fleet to re-dispatch (failover) or park back on
  /// this chip's queue (health-blind dispatch); their service restarts
  /// from scratch — fail-stop loses architectural state. Any pending
  /// transition stall is cancelled (the domain is powering off anyway).
  /// The queue is left untouched; the fleet decides whether to drain it.
  [[nodiscard]] std::vector<Request> crash(double now_s);
  /// A crashed chip returns to service (cold: whatever sits in the queue
  /// starts being served again at the next start_services).
  void recover(double now_s);
  /// Limping chip (Vmin guardband escalation): cap the clock at
  /// `freq_cap` x the nominal chip clock and the usable core slots at
  /// `core_cap` (<= 0 = no core cap). freq_cap = 1.0 models a pure
  /// detected-error event (caps nothing; the governor's guardband is the
  /// whole reaction).
  void degrade(double freq_cap, int core_cap);
  /// Lift the degradation caps (the governor guardband relaxes on its
  /// own schedule).
  void restore();
  [[nodiscard]] bool degraded() const { return freq_cap_ < 1.0 || core_cap_ > 0; }
  /// Core slots start_services may fill under the current core cap.
  [[nodiscard]] int usable_cores() const;
  /// Total crashed wall time, including an open outage up to `now_s`.
  [[nodiscard]] double down_seconds(double now_s) const {
    return down_seconds_ + (down_ ? now_s - down_since_s_ : 0.0);
  }

  // ---- Orchestration state (orch::Autoscaler / PowerCapper, fleet-delivered) ----
  [[nodiscard]] bool parked() const { return parked_; }
  [[nodiscard]] bool draining() const { return draining_; }
  [[nodiscard]] int group() const { return group_; }
  void set_group(int group) { group_ = group; }
  /// Power the chip down to the platform's deep-idle floor. Requires an
  /// idle, healthy chip (the autoscaler drains first); any open
  /// transition stall is truncated — the domain is powering off.
  void park(double now_s);
  /// Wake a parked chip: it pays `wake_latency` as a service stall
  /// (charged at full active power through the usual epoch overlap
  /// accounting) before serving again.
  void unpark(double now_s, Second wake_latency);
  /// Exclude the chip from dispatch while it finishes its outstanding
  /// work; the autoscaler parks it at a later barrier once drained.
  void begin_drain() { draining_ = true; }
  void cancel_drain() { draining_ = false; }
  /// Total parked wall time, including an open parked span up to
  /// `now_s`. Down time inside a parked span accrues as down time, not
  /// parked time, so the two overlaps never double-charge an epoch.
  [[nodiscard]] double parked_seconds(double now_s) const {
    return parked_seconds_ + (parked_accruing_ ? now_s - parked_since_s_ : 0.0);
  }
  /// Wall time this parked span began (meaningful only while parked()):
  /// the warm/cold sleep ladder prices the wake from it.
  [[nodiscard]] double parked_since() const { return parked_since_s_; }
  /// Per-epoch Watt budget from the fleet power cap (<= 0 = uncapped):
  /// the governor's decided frequency is clamped to the largest curve
  /// point whose full-duty power fits the budget.
  void set_power_budget(Watt budget) { power_budget_ = budget; }
  /// Clamp the *current* operating point to the standing budget without
  /// paying a transition stall — the pre-run application of an initial
  /// cap split, before anything is being served.
  void apply_power_budget();

  // ---- Per-chip DVFS (one shared voltage domain) ----
  /// Retune every cluster's clock; takes effect at the next quantum served.
  /// A degradation frequency cap clamps the applied clock; the requested
  /// value is remembered and re-applied when the cap lifts.
  void set_frequency(Hertz f);
  /// Freeze service for `duration` starting at `now_s` (the shared DVFS /
  /// body-bias transition stall: every cluster pauses together). The
  /// pause is quantized up to the next master quantum boundary. A stall
  /// may span several epochs (a voltage ramp is longer than one control
  /// interval); each overlapped epoch records its share as
  /// EpochRecord::transition_time, and the chip holds further decisions
  /// until the swing settles.
  void begin_stall(double now_s, Second duration) {
    stall_begin_s_ = now_s;
    stall_until_s_ = now_s + duration.value();
  }
  [[nodiscard]] bool in_transition(double now_s) const {
    return now_s < stall_until_s_;
  }
  [[nodiscard]] double stall_until() const { return stall_until_s_; }

  // ---- Time ----
  /// Serve through consecutive master quanta of `dt` wall seconds (=
  /// `quantum` cycles of the fleet's base clock), starting at `now_s`:
  /// quantum i starts at t_i, where t_0 = now_s and t_{i+1} = t_i + dt
  /// (accumulated, as the fleet clock is). Quantum 0 always runs; later
  /// quanta run while t_i < horizon_s, the next fleet event, before which
  /// nothing outside the chip can change its state. Each quantum is the
  /// fleet loop's per-chip step: start_services(t_i), then one quantum of
  /// service unless the voltage domain is mid-transition. The call stops
  /// early at the first quantum that finds no core busy: with no event
  /// before the horizon, the chip would sleep through the rest.
  ///
  /// The chip's clusters advance quantum * f_chip / f_base cycles per
  /// quantum (fractional cycles carried across quanta), so a descended
  /// chip serves proportionally fewer instructions. Completions are
  /// appended to `completed` tagged with their quantum index, in
  /// quantum-major, cluster-major, slot-minor order. Returns the number of
  /// quanta that found a core busy.
  int advance_until(double now_s, double horizon_s, double dt, Cycle quantum,
                    std::vector<StagedCompletion>& completed);
  /// Fractional base-clock cycles owed to the next quantum (nonzero only
  /// on a chip clocked off the fleet base frequency).
  [[nodiscard]] double cycle_carry() const { return cycle_carry_; }

  // ---- Governor / epochs ----
  /// Attach this chip's governor instance (fleet-built; `manager` must
  /// outlive the chip). Sets the chip to the governor's initial frequency.
  void attach_governor(std::unique_ptr<ctrl::FleetGovernor> governor,
                       const pm::PowerManager* manager, Second qos_p99_limit);
  [[nodiscard]] bool governed() const { return governor_ != nullptr; }
  [[nodiscard]] const ctrl::FleetGovernor& governor() const { return *governor_; }
  /// Forward a detected-error event to the chip's governor, which enters
  /// its guardband mode. No-op on an ungoverned chip.
  void notify_error() {
    if (governor_ == nullptr) return;
    governor_->on_error();
    if (trace_ != nullptr) {
      trace_->emit_now(obs::EventKind::kGuardbandEngage, chip_id_, /*tenant=*/-1,
                       /*id=*/-1, governor_->margin());
    }
  }

  /// Attach a trace sink (fleet-wired; may be null): governor decisions
  /// emit kFrequency / kBoost* / kGuardband* events at the epoch barrier.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Outcome of one chip epoch: the record, its energy, and any
  /// transition begun at the boundary. record.transition_time carries the
  /// stall span that fell *inside* the recorded epoch (charged at full
  /// active power as part of energy_j); transition_s is the full stall
  /// begun at this boundary (counted as one transition).
  struct EpochOutcome {
    ctrl::EpochRecord record;
    double energy_j = 0.0;   ///< epoch energy (serving duty + stall burn)
    double transition_s = 0.0;  ///< stall begun at this boundary
    bool emitted = false;       ///< false for a degenerate empty epoch
  };

  /// Close the epoch ending at `now_s` with length `duration`: record it,
  /// charge its energy, and (unless `final_partial`) ask the governor for
  /// the next frequency, beginning the shared transition stall on a
  /// change.
  [[nodiscard]] EpochOutcome close_epoch(double now_s, double duration,
                                         std::uint64_t epoch_index, bool final_partial);

  /// Governor-aware balancing signal: would this chip's governor descend
  /// in frequency if the epoch closed now? Judged from the running
  /// partial-epoch utilization once at least `min_window_s` of the epoch
  /// has elapsed (before that the estimate is noise and the last closed
  /// epoch's utilization stands in), with the last epoch's p99 as the
  /// lagging tail signal.
  [[nodiscard]] bool pending_descent(double now_s, double epoch_start_s,
                                     double min_window_s) const;

  /// Full-duty power at the bottom of this chip's DVFS grid — the least
  /// a serving chip can draw, judged through the governor's own energy
  /// accounting (so a guardband margin is priced in). The power capper
  /// reserves these floors before splitting the cap's headroom. Zero
  /// when ungoverned (no grid to price).
  [[nodiscard]] Watt floor_power() const;

  // ---- Accounting (since construction) ----
  [[nodiscard]] double active_seconds() const { return active_seconds_; }
  [[nodiscard]] double busy_core_seconds() const { return busy_core_seconds_; }
  [[nodiscard]] double tenant_busy_seconds(int tenant) const {
    return tenant_busy_seconds_.at(static_cast<std::size_t>(tenant));
  }
  [[nodiscard]] double freq_seconds() const { return freq_seconds_; }
  [[nodiscard]] double governed_seconds() const { return governed_seconds_; }
  [[nodiscard]] double last_epoch_utilization() const { return last_epoch_utilization_; }

 private:
  struct CoreSlot {
    bool busy = false;
    std::uint64_t target_user_committed = 0;
    std::uint64_t committed_at_quantum_start = 0;
    Request request;
  };

  [[nodiscard]] sim::Cluster& cluster_of_slot(std::size_t slot) {
    return *clusters_[slot / static_cast<std::size_t>(cores_per_cluster_)];
  }
  [[nodiscard]] int core_of_slot(std::size_t slot) const {
    return static_cast<int>(slot) % cores_per_cluster_;
  }

  /// One master quantum of service starting at `now_s` (advance_until's
  /// step); completions are tagged with `index`.
  void advance(double now_s, double dt, Cycle quantum, int index,
               std::vector<StagedCompletion>& completed);

  std::vector<std::unique_ptr<sim::Cluster>> clusters_;
  std::vector<CoreSlot> slots_;       ///< cluster-major, core-minor
  std::vector<int> busy_per_cluster_;
  std::deque<Request> queue_;
  int cores_per_cluster_ = 0;
  int busy_cores_ = 0;
  int chip_id_ = 0;

  Hertz base_frequency_;   ///< the fleet's master clock
  Hertz frequency_;        ///< current applied chip clock (per-chip DVFS)
  Hertz requested_frequency_;  ///< governor/config target before any fault cap
  double cycle_carry_ = 0.0;
  double stall_begin_s_ = 0.0;
  double stall_until_s_ = 0.0;

  // Fault state.
  bool down_ = false;
  double down_since_s_ = 0.0;
  double down_seconds_ = 0.0;      ///< closed outages only
  double epoch_down_anchor_ = 0.0; ///< down_seconds(now) at the last epoch close
  double freq_cap_ = 1.0;          ///< degradation clock cap (fraction of nominal)
  int core_cap_ = 0;               ///< degradation core cap (0 = uncapped)

  // Orchestration state (same each-second-charged-once bookkeeping as
  // the fault state above: closed spans + an open-span anchor).
  bool parked_ = false;
  bool draining_ = false;
  bool parked_accruing_ = false;     ///< parked and not down (integral runs)
  double parked_since_s_ = 0.0;
  double parked_seconds_ = 0.0;      ///< closed parked spans only
  double epoch_parked_anchor_ = 0.0; ///< parked_seconds(now) at the last close
  int group_ = 0;                    ///< router group (0 when routing is off)
  Watt power_budget_{0.0};           ///< per-epoch cap budget (<= 0 = uncapped)
  bool cap_active_ = false;          ///< running below the governor's request

  /// Largest frequency at or below `f` (on the curve grid below it)
  /// whose full-duty epoch power fits the standing budget; `f` itself
  /// when uncapped or already affordable.
  [[nodiscard]] Hertz cap_frequency(Hertz f) const;

  // Lifetime accounting.
  double active_seconds_ = 0.0;
  double busy_core_seconds_ = 0.0;
  std::vector<double> tenant_busy_seconds_;
  double freq_seconds_ = 0.0;      ///< integral of f over governed time
  double governed_seconds_ = 0.0;

  // Epoch accumulators (governed runs).
  obs::TraceSink* trace_ = nullptr;
  std::unique_ptr<ctrl::FleetGovernor> governor_;
  const pm::PowerManager* manager_ = nullptr;
  Second qos_p99_limit_{0.0};
  std::vector<double> epoch_latencies_;
  double epoch_busy_core_seconds_ = 0.0;
  double epoch_active_seconds_ = 0.0;
  double last_epoch_utilization_ = 0.0;
  Second last_epoch_p99_{0.0};
};

}  // namespace ntserv::dc
