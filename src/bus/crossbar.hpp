// The SRI-like multi-master crossbar.
//
// Address decoding, per-slave arbitration (fixed priority or round-robin),
// per-cycle contention observation, and cumulative statistics. The Back
// Bone Bus of the EEC reuses the same class with a different region map.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bus/port.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::bus {

enum class ArbitrationPolicy : u8 { kFixedPriority, kRoundRobin };

/// Restricts a region to instruction-fetch or data transactions. The
/// program flash maps the same addresses twice: fetches to its code port,
/// data reads to its data port.
enum class PortFilter : u8 { kAny, kFetchOnly, kDataOnly };

/// An address window routed to one slave. Windows may only overlap when
/// their port filters are disjoint (fetch vs data).
struct Region {
  Addr base = 0;
  u32 size = 0;
  unsigned slave = 0;  // index into the crossbar's slave table
  PortFilter filter = PortFilter::kAny;

  bool matches(Addr addr, bool fetch) const {
    if (filter == PortFilter::kFetchOnly && !fetch) return false;
    if (filter == PortFilter::kDataOnly && fetch) return false;
    return addr >= base && addr - base < size;
  }
};

/// A bus transaction that completed this cycle, with its full life cycle
/// (issue → grant → completion) — the host-telemetry timeline span
/// source. Purely observational: the fabric records these as a
/// by-product of completion, masters never read them.
struct CompletedTransaction {
  MasterId master = MasterId::kCount;
  u8 slave = 0;
  Addr addr = 0;
  bool write = false;
  bool fetch = false;
  Cycle issued_at = 0;   // request posted to the fabric
  Cycle granted_at = 0;  // arbiter grant (wait time = granted - issued)
};

/// What the fabric did this cycle — the MCDS bus observation input.
struct FabricObservation {
  bool any_grant = false;
  MasterId granted_master = MasterId::kCount;
  unsigned granted_slave = 0;
  Addr granted_addr = 0;
  bool granted_write = false;
  /// >1 master wanted the same slave this cycle, or a request sat waiting
  /// behind a busy slave — the §3 "bus contention" event source.
  bool contention = false;
  unsigned waiting_masters = 0;

  /// A transaction completed with an (injected) error response this
  /// cycle — the SafetyMonitor's bus-error alarm source.
  bool error_response = false;
  MasterId error_master = MasterId::kCount;

  /// Transactions that completed this cycle (at most one per master).
  std::array<CompletedTransaction, kNumMasters> completed{};
  unsigned completed_count = 0;

  void clear() { *this = FabricObservation{}; }
};

struct SlaveStats {
  u64 grants = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 wait_cycles = 0;     // master-cycles spent waiting for grant
  u64 busy_cycles = 0;     // cycles the slave was serving a transaction
  u64 contention_cycles = 0;
  u64 error_responses = 0; // injected error completions (fault campaigns)
};

class Crossbar {
 public:
  explicit Crossbar(ArbitrationPolicy policy = ArbitrationPolicy::kFixedPriority)
      : policy_(policy) {
    blocked_by_.fill(MasterId::kCount);
  }

  /// Register a slave; returns its index for region mapping.
  unsigned add_slave(BusSlave* slave);

  /// Map [base, base+size) to a registered slave.
  Status map_region(Addr base, u32 size, unsigned slave,
                    PortFilter filter = PortFilter::kAny);

  /// Set the arbitration priority order (first = highest). Only used with
  /// kFixedPriority. Defaults to MasterId enumeration order.
  void set_priority_order(std::vector<MasterId> order);

  ArbitrationPolicy policy() const { return policy_; }

  /// Issue a request on a master's port. The port must be idle.
  /// Returns false (and leaves the port idle) if no region matches.
  bool issue(MasterPort& port, const BusRequest& req, Cycle now);

  /// Advance one cycle: progress active transactions, complete finished
  /// ones, then arbitrate and grant new ones.
  void step(Cycle now);

  /// True when nothing is in flight anywhere on the fabric: no master
  /// waiting or granted, no slave serving a transaction. A step() in this
  /// state only clears the (already empty) observation.
  bool idle() const;

  /// Service cycles left on `port`'s transaction, its completion cycle
  /// included, when `port` is granted and no other port is pending on the
  /// fabric; 0 otherwise. For a result n >= 2, the next n - 1 step()s only
  /// count that transaction down and publish an empty observation.
  unsigned sole_service_left(const MasterPort& port) const;

  /// Bulk-advance `n` service-only cycles, as `n` step()s with no waiting
  /// port and no completion would: every granted transaction serves `n`
  /// cycles (`busy_cycles`, `remaining`) and the observation and
  /// blocked-by records are cleared. The caller guarantees that no
  /// transaction completes within the `n` cycles.
  void skip_service(u64 n);

  const FabricObservation& observation() const { return observation_; }
  const SlaveStats& slave_stats(unsigned slave) const {
    return stats_.at(slave);
  }
  unsigned slave_count() const { return static_cast<unsigned>(slaves_.size()); }
  std::string_view slave_name(unsigned slave) const {
    return slaves_.at(slave)->name();
  }

  /// Decode an address; returns slave index or error.
  Result<unsigned> decode(Addr addr, bool fetch = false) const;

  /// Fault injection: the next `count` completions on `slave` return an
  /// error response — the transfer is suppressed (reads return 0, writes
  /// are dropped) and the master port's error flag is set.
  void inject_slave_errors(unsigned slave, u64 count);
  /// Error responses still armed on `slave`.
  u64 pending_slave_errors(unsigned slave) const {
    return slave_state_.at(slave).error_arm;
  }

  /// Register per-slave statistics under `component` (e.g. "sri"), one
  /// metric per slave counter ("<slave>.grants", ...). Call only after
  /// all slaves are added: the registry keeps pointers into the stats
  /// table, which must not grow afterwards.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

  // ---- interference matrix (stall attribution, DESIGN.md) -----------
  //
  // Cycles master `waiter` spent blocked on `slave` while `holder`
  // occupied it. A master-cycle counts as blocked when its request is
  // still kWaiting after arbitration — the grant cycle itself is not
  // blocked (the port turns kActive). The holder is the slave's active
  // master, or this cycle's grant winner when the slave was free but
  // arbitration was lost.

  /// Accumulated blocked cycles for one (waiter, holder, slave) triple.
  u64 interference(MasterId waiter, MasterId holder, unsigned slave) const {
    return interference_[interference_index(static_cast<unsigned>(waiter),
                                            static_cast<unsigned>(holder),
                                            slave)];
  }

  /// Who blocked `master` in the step() that just ran (kCount = master
  /// was not blocked this cycle). Input to the SoC attribution walk.
  MasterId blocked_by(MasterId master) const {
    return blocked_by_[static_cast<unsigned>(master)];
  }

 private:
  usize interference_index(unsigned waiter, unsigned holder,
                           unsigned slave) const {
    return (static_cast<usize>(slave) * kNumMasters + waiter) * kNumMasters +
           holder;
  }

  struct SlaveState {
    bool busy = false;
    MasterPort* active_port = nullptr;
    unsigned rr_next = 0;  // round-robin pointer over master ids
    u64 error_arm = 0;     // completions left to fail (fault injection)
  };

  ArbitrationPolicy policy_;
  std::vector<BusSlave*> slaves_;
  std::vector<SlaveState> slave_state_;
  std::vector<SlaveStats> stats_;
  std::vector<Region> regions_;
  std::array<MasterId, kNumMasters> priority_order_{};
  bool priority_set_ = false;

  // Ports currently waiting or active, one slot per master (a master has
  // at most one outstanding request on this fabric).
  std::array<MasterPort*, kNumMasters> pending_{};

  // Interference matrix, [slave][waiter][holder] flattened; grows by one
  // kNumMasters x kNumMasters block per add_slave().
  std::vector<u64> interference_;
  // Per-cycle blocking info, rewritten by every step().
  std::array<MasterId, kNumMasters> blocked_by_{};

  FabricObservation observation_;
};

}  // namespace audo::bus
