#ifndef MGJOIN_NET_LINK_STATE_H_
#define MGJOIN_NET_LINK_STATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "topo/link.h"
#include "topo/topology.h"

namespace mgjoin::net {

/// How concurrent queries competing for the same link direction are
/// ordered (multi-tenant service, DESIGN.md Sec 15). All policies are
/// work-conserving on the wire itself: a reservation always occupies the
/// link back-to-back once admitted; arbitration only decides how early a
/// query's next leg may start.
enum class ArbitrationKind {
  /// First-come-first-served in simulated-event order (the single-query
  /// behaviour; byte-identical to the pre-arbitration engine).
  kFifo,
  /// Fair share by active query: each registered query accrues virtual
  /// time at `active_queries` times its service time per leg, so N
  /// backlogged queries each see ~1/N of a contended direction.
  kFairShare,
  /// Strict (non-preemptive) priority: a leg of class p never starts
  /// before every already-reserved leg of a higher class on that
  /// direction has ended. In-flight lower-class legs are not revoked.
  kPriority,
};

/// "fifo" | "fair" | "priority".
std::string ArbitrationKindName(ArbitrationKind kind);

/// Parses ArbitrationKindName's vocabulary; false on unknown input.
bool ParseArbitration(const std::string& text, ArbitrationKind* out);

/// \brief Tracks the occupancy of every physical link direction and the
/// congestion view that routing policies may read.
///
/// Two views exist per link: the *true* queuing delay (known only to the
/// link's owner) and the *published* delay — what remote GPUs believe
/// after the owner's last broadcast (Sec 4.2.2: queueing-delay changes
/// are broadcast to every other GPU). Publishing is debounced and takes a
/// propagation delay, so the adaptive policy works with slightly stale
/// data, exactly as on the real machine.
class LinkStateTable {
 public:
  /// Outcome of reserving a channel for one packet transfer.
  struct Reservation {
    sim::SimTime start;    ///< when the wire starts moving this packet
    sim::SimTime end;      ///< when the source-side engine is released
    sim::SimTime deliver;  ///< when the payload lands at the receiver
  };

  /// `hooks` is optional: an attached trace recorder receives one
  /// occupancy span per physical link direction per reservation leg; an
  /// attached metrics registry accumulates per-link busy timelines
  /// ("link.<name>.fwd|rev").
  LinkStateTable(sim::Simulator* sim, const topo::Topology* topo,
                 obs::ObsHooks hooks = {});

  /// Sentinel for reservations with no query attribution: arbitration
  /// treats them as FIFO traffic regardless of the active policy.
  static constexpr std::uint64_t kNoQuery = ~0ull;

  /// Number of strict-priority classes; Flow::priority is clamped to
  /// [0, kPriorityClasses).
  static constexpr int kPriorityClasses = 8;

  /// Under kPriority, each live higher-class tenant on the direction
  /// multiplies a lower-class tenant's per-packet charge by this
  /// factor — lower classes trickle at ~1/(1+W*higher) of the wire
  /// while any higher class is sending.
  static constexpr int kPriorityWeight = 16;

  /// \brief Reserves every physical link of `ch` for one transfer of
  /// `bytes`, no earlier than the simulator's current time.
  ///
  /// All links of the channel are held for the same interval — staged
  /// transfers are tiled and pipelined by the driver (Sec 2.2), so the
  /// channel behaves as one pipe at the bottleneck link's effective
  /// bandwidth. Delivery adds the channel's static latency.
  ///
  /// `query_id` selects the arbitration bucket under non-FIFO policies;
  /// unregistered ids (and kNoQuery) fall back to FIFO ordering.
  Reservation ReserveChannel(const topo::Channel& ch, std::uint64_t bytes,
                             std::uint64_t query_id);
  Reservation ReserveChannel(const topo::Channel& ch, std::uint64_t bytes) {
    return ReserveChannel(ch, bytes, kNoQuery);
  }

  /// \brief Earliest simulated time `query_id` may inject another
  /// packet onto direction `ld` under the active arbitration policy
  /// (0 = unconstrained).
  ///
  /// The transfer engine consults this before forming a batch whose
  /// first hop enters `ld`; the wire itself is never delayed (occupancy
  /// stays FIFO), only the tenant's injection is. FIFO arbitration,
  /// unregistered tenants and tenants without live competition (none
  /// under fair-share, none of strictly higher class under priority)
  /// are never paced, and the returned time never exceeds one tick
  /// past the wire horizon — an idle direction always re-opens, so
  /// pacing cannot strand capacity.
  sim::SimTime QueryReleaseTime(std::uint64_t query_id,
                                topo::LinkDir ld) const;

  /// Selects the arbitration policy. Call before traffic flows; kFifo
  /// (the default) touches no arbitration state at all.
  void set_arbitration(ArbitrationKind kind) { arbitration_ = kind; }
  ArbitrationKind arbitration() const { return arbitration_; }

  /// \brief Marks `query_id` as an active tenant for arbitration
  /// accounting (idempotent; re-registering updates the priority).
  ///
  /// Fair-share slots are recycled LIFO so a long-running service keeps
  /// its per-query state bounded by the in-flight limit, not by the
  /// total query count. Re-register before the tenant's first flow to
  /// change its priority: per-class competitor counts are keyed by the
  /// class at first touch, so a later change misattributes them.
  void RegisterQuery(std::uint64_t query_id, int priority = 0);

  /// Ends `query_id`'s tenancy (no-op when unknown). Completed queries
  /// must deregister under kFairShare: a stale active count would keep
  /// inflating the virtual-time penalty of the surviving tenants.
  void UnregisterQuery(std::uint64_t query_id);

  /// Currently registered tenants.
  int active_queries() const { return static_cast<int>(query_arb_.size()); }

  /// True (owner-side) queuing delay of a link direction right now.
  sim::SimTime TrueQueueDelay(topo::LinkDir ld) const;

  /// Queuing delay as last broadcast to remote GPUs.
  sim::SimTime PublishedQueueDelay(topo::LinkDir ld) const;

  /// Dense index of a link direction (link_id * 2 + dir), the element
  /// type of the spans taken by SumQueueDelay and DirsUp.
  static std::uint32_t DirIndex(topo::LinkDir ld) {
    return static_cast<std::uint32_t>(ld.link_id) * 2 +
           static_cast<std::uint32_t>(ld.dir);
  }

  /// Sum over `dirs` of PublishedQueueDelay (`published`) or of
  /// TrueQueueDelay: the live part of a route's ARM (Eq 4).
  sim::SimTime SumQueueDelay(std::span<const std::uint32_t> dirs,
                             bool published) const {
    sim::SimTime sum = 0;
    if (published) {
      for (std::uint32_t d : dirs) sum += published_delay_[d];
      return sum;
    }
    const sim::SimTime now = sim_->Now();
    for (std::uint32_t d : dirs) {
      sum += next_free_[d] > now ? next_free_[d] - now : 0;
    }
    return sum;
  }

  /// True if the link of every direction in `dirs` is up.
  bool DirsUp(std::span<const std::uint32_t> dirs) const {
    for (std::uint32_t d : dirs) {
      if (!avail_.Up(static_cast<int>(d / 2))) return false;
    }
    return true;
  }

  /// Cumulative busy time of a link direction (for utilization stats).
  sim::SimTime BusyTime(topo::LinkDir ld) const;

  /// Cumulative payload bytes moved over a link direction.
  std::uint64_t BytesMoved(topo::LinkDir ld) const;

  /// Number of queue-delay broadcasts issued so far.
  std::uint64_t broadcasts() const { return broadcasts_; }

  /// \brief Schedules every event of `plan` on the simulator (fault
  /// model, DESIGN.md Sec 10).
  ///
  /// When an event fires the availability view transitions, a
  /// `net.faults` trace instant and a `link.<name>.state` gauge sample
  /// are emitted, and the fault callback (if any) runs — the transfer
  /// engine uses it to repair routes and re-kick blocked senders.
  /// In-flight reservations are never revoked: a leg already on the wire
  /// completes, only new admissions see the changed state.
  void ApplyFaultPlan(const FaultPlan& plan);

  /// Registers `cb` to run after each fault event is applied.
  void set_fault_callback(std::function<void(const FaultEvent&)> cb) {
    fault_cb_ = std::move(cb);
  }

  /// Current per-link health overlay.
  const topo::LinkAvailabilityView& availability() const { return avail_; }

  bool LinkUp(int link_id) const { return avail_.Up(link_id); }

  /// True if every physical link of `ch` is up.
  bool ChannelAvailable(const topo::Channel& ch) const;

  /// True if every channel along `r` is available.
  bool RouteAvailable(const topo::Route& r) const;

  /// Fault events scheduled but not yet applied. While this is positive
  /// a blocked sender may legitimately be waiting for a restore, so the
  /// engine keeps polling (and ticking the deadlock watchdog).
  int pending_fault_events() const { return pending_fault_events_; }

  /// Fault events applied so far.
  std::uint64_t fault_events_applied() const {
    return fault_events_applied_;
  }

  /// One line per non-healthy link ("  QPI(18<->19): down"); empty when
  /// the whole fabric is up.
  std::string HealthReport() const;

  /// Per-link utilization table ("link, dir, bytes, busy_ms, util%"),
  /// with utilization relative to `window` (e.g. a run's makespan).
  std::string UtilizationReport(sim::SimTime window) const;

  const topo::Topology& topo() const { return *topo_; }
  sim::SimTime Now() const;

 private:
  std::size_t Index(topo::LinkDir ld) const { return DirIndex(ld); }
  void MaybePublish(topo::LinkDir ld);
  void ApplyFaultEvent(const FaultEvent& ev);
  double links_eff_bw_(topo::LinkDir ld, std::uint64_t bytes) const;
  /// Human-readable name of a link direction ("PCIe3(8<->10).fwd").
  std::string DirName(topo::LinkDir ld) const;
  /// `queued` is the queueing delay the leg spent waiting for the wire
  /// (leg start minus reservation time), recorded as a span arg and a
  /// metrics histogram for the congestion report.
  void RecordLeg(topo::LinkDir ld, sim::SimTime start, sim::SimTime end,
                 std::uint64_t bytes, sim::SimTime queued);

  sim::Simulator* sim_;
  const topo::Topology* topo_;
  obs::ObsHooks hooks_;
  std::vector<int> dir_tracks_;  // lazily assigned trace track ids
  // Lazily resolved per-direction registry references (RecordLeg runs
  // once per transmitted leg; by-name lookups there dominate the cost
  // of the record itself). Timeline pointers stay valid: the registry
  // stores families in node-stable maps.
  std::vector<obs::Timeline*> dir_timelines_;
  obs::HistogramHandle link_queue_hist_;
  // Per-direction state in SoA layout, indexed by Index(ld). The
  // adaptive policy scans queue delays across every candidate link of
  // every candidate route per decision, so the hot fields (next_free_,
  // published_delay_) pack eight entries per cache line instead of
  // dragging the accounting fields along; busy_/bytes_ are cold — read
  // only by reports.
  std::vector<sim::SimTime> next_free_;
  std::vector<sim::SimTime> published_delay_;
  std::vector<char> publish_pending_;
  std::vector<sim::SimTime> busy_;
  std::vector<std::uint64_t> bytes_;
  // Multi-tenant arbitration state (cold unless a non-FIFO policy is
  // selected; the FIFO fast path never reads it). Both tenant policies
  // pace the *source* through a per-(tenant, first-hop direction)
  // virtual clock living in dense slots ([slot][dir]) recycled LIFO:
  // the wire itself stays FIFO (work-conserving), and the clock defers
  // batch *formation* through QueryReleaseTime instead. Competitor
  // counts are registration-scoped: a tenant is counted on a direction
  // from its first reservation there until it unregisters, so debt and
  // contention survive the 1-tick wire gaps an interleaved all-to-all
  // leaves between batches. Work conservation comes from the gate, not
  // from voiding debt — QueryReleaseTime caps the pace at one tick
  // past the wire horizon, so an idle direction always re-opens.
  ArbitrationKind arbitration_ = ArbitrationKind::kFifo;
  struct QueryArb {
    int slot = -1;
    int priority = 0;
  };
  std::map<std::uint64_t, QueryArb> query_arb_;
  std::vector<int> free_arb_slots_;
  std::vector<std::vector<sim::SimTime>> fair_next_;  // [slot][dir index]
  // [slot][dir]: 1 once the tenant has reserved on the direction; the
  // competitor counts below include exactly the live tenants with this
  // flag set, and UnregisterQuery deducts by scanning it.
  std::vector<std::vector<std::uint64_t>> fair_touched_;
  std::vector<int> fair_active_;  // [dir]: live tenants that touched it
  // [dir * kPriorityClasses + c]: live tenants of class c that touched
  // the direction.
  std::vector<int> prio_active_;
  std::uint64_t broadcasts_ = 0;
  topo::LinkAvailabilityView avail_;
  std::function<void(const FaultEvent&)> fault_cb_;
  int pending_fault_events_ = 0;
  std::uint64_t fault_events_applied_ = 0;
  int fault_track_ = -1;  // lazily assigned "net.faults" trace track

  // Broadcasts propagate after this delay and are debounced to changes
  // larger than 25% (and 2 us) of the previous published value.
  static constexpr sim::SimTime kPropagationDelay = 3 * sim::kMicrosecond;
  static constexpr sim::SimTime kPublishFloor = 1 * sim::kMicrosecond;
};

}  // namespace mgjoin::net

#endif  // MGJOIN_NET_LINK_STATE_H_
