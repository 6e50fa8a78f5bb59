#include "bus/crossbar.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace audo::bus {

const char* to_string(MasterId id) {
  switch (id) {
    case MasterId::kDma: return "DMA";
    case MasterId::kTcData: return "TC.D";
    case MasterId::kTcFetch: return "TC.I";
    case MasterId::kPcpData: return "PCP.D";
    case MasterId::kCerberus: return "Cerberus";
    case MasterId::kCount: break;
  }
  return "?";
}

unsigned Crossbar::add_slave(BusSlave* slave) {
  assert(slave != nullptr);
  slaves_.push_back(slave);
  slave_state_.emplace_back();
  stats_.emplace_back();
  interference_.resize(slaves_.size() * kNumMasters * kNumMasters, 0);
  return static_cast<unsigned>(slaves_.size() - 1);
}

Status Crossbar::map_region(Addr base, u32 size, unsigned slave,
                            PortFilter filter) {
  if (slave >= slaves_.size()) {
    return error(StatusCode::kInvalidArgument, "region maps unknown slave");
  }
  if (size == 0) {
    return error(StatusCode::kInvalidArgument, "region size must be > 0");
  }
  for (const Region& r : regions_) {
    const u64 new_end = static_cast<u64>(base) + size;
    const u64 old_end = static_cast<u64>(r.base) + r.size;
    const bool addr_overlap = base < old_end && r.base < new_end;
    const bool filter_overlap =
        filter == PortFilter::kAny || r.filter == PortFilter::kAny ||
        filter == r.filter;
    if (addr_overlap && filter_overlap) {
      return error(StatusCode::kAlreadyExists, "overlapping bus region");
    }
  }
  regions_.push_back(Region{base, size, slave, filter});
  return Status::ok();
}

void Crossbar::set_priority_order(std::vector<MasterId> order) {
  assert(order.size() == kNumMasters);
  std::copy(order.begin(), order.end(), priority_order_.begin());
  priority_set_ = true;
}

void Crossbar::inject_slave_errors(unsigned slave, u64 count) {
  slave_state_.at(slave).error_arm += count;
}

Result<unsigned> Crossbar::decode(Addr addr, bool fetch) const {
  for (const Region& r : regions_) {
    if (r.matches(addr, fetch)) return r.slave;
  }
  return error(StatusCode::kNotFound, "bus error: no slave at address");
}

bool Crossbar::issue(MasterPort& port, const BusRequest& req, Cycle now) {
  assert(port.idle() && "master already has an outstanding request");
  const auto slave = decode(req.addr, req.fetch);
  if (!slave.is_ok()) return false;
  port.request_ = req;
  port.slave_index = slave.value();
  port.state_ = MasterPort::State::kWaiting;
  port.error_ = false;
  port.issued_at = now;
  const auto master_index = static_cast<unsigned>(req.master);
  assert(pending_[master_index] == nullptr &&
         "master has another port pending on this fabric");
  pending_[master_index] = &port;
  return true;
}

bool Crossbar::idle() const {
  for (const MasterPort* port : pending_) {
    if (port != nullptr) return false;
  }
  for (const SlaveState& state : slave_state_) {
    if (state.busy) return false;
  }
  return true;
}

unsigned Crossbar::sole_service_left(const MasterPort& port) const {
  if (port.state_ != MasterPort::State::kActive) return 0;
  for (const MasterPort* other : pending_) {
    if (other != nullptr && other != &port) return 0;
  }
  return port.remaining;
}

void Crossbar::skip_service(u64 n) {
  for (unsigned s = 0; s < slaves_.size(); ++s) {
    SlaveState& state = slave_state_[s];
    if (!state.busy) continue;
    assert(state.active_port->remaining > n && "skipped a completion");
    stats_[s].busy_cycles += n;
    state.active_port->remaining -= static_cast<unsigned>(n);
  }
  observation_.clear();
  blocked_by_.fill(MasterId::kCount);
}

void Crossbar::step(Cycle now) {
  observation_.clear();
  blocked_by_.fill(MasterId::kCount);

  // A master-cycle spent blocked: the request stays kWaiting past this
  // cycle's arbitration while `holder` occupies (or wins) the slave.
  auto record_blocked = [&](const MasterPort* waiter, MasterId holder,
                            unsigned s) {
    const auto w = static_cast<unsigned>(waiter->request_.master);
    blocked_by_[w] = holder;
    interference_[interference_index(w, static_cast<unsigned>(holder), s)]++;
  };

  // One service cycle for slave `s`: decrement the active transaction and
  // complete it when the latency has elapsed. The grant cycle itself is a
  // service cycle (address + first data beat), so a latency-L access
  // completes L steps after issue when uncontended.
  auto progress = [&](unsigned s) {
    SlaveState& state = slave_state_[s];
    stats_[s].busy_cycles++;
    MasterPort* port = state.active_port;
    assert(port != nullptr && port->state_ == MasterPort::State::kActive);
    if (--port->remaining == 0) {
      if (state.error_arm > 0) {
        // Injected error response: the transfer is suppressed — the
        // slave never sees the completion, reads return 0.
        --state.error_arm;
        stats_[s].error_responses++;
        port->rdata_ = 0;
        port->error_ = true;
        observation_.error_response = true;
        observation_.error_master = port->request_.master;
      } else {
        port->rdata_ = slaves_[s]->complete_access(port->request_);
      }
      port->state_ = MasterPort::State::kDone;
      pending_[static_cast<unsigned>(port->request_.master)] = nullptr;
      state.busy = false;
      state.active_port = nullptr;
      // Publish the transaction's life cycle for the host timeline.
      if (observation_.completed_count < kNumMasters) {
        observation_.completed[observation_.completed_count++] =
            CompletedTransaction{port->request_.master,
                                 static_cast<u8>(s),
                                 port->request_.addr,
                                 port->request_.kind == AccessKind::kWrite,
                                 port->request_.fetch,
                                 port->issued_at,
                                 port->granted_at};
      }
    }
  };

  // Phase 1: progress transactions that were already active.
  for (unsigned s = 0; s < slaves_.size(); ++s) {
    if (slave_state_[s].busy) progress(s);
  }

  // Phase 2: account waiting masters (for contention stats) and grant.
  // Build per-slave waiting sets.
  for (unsigned s = 0; s < slaves_.size(); ++s) {
    SlaveState& state = slave_state_[s];

    unsigned waiting = 0;
    std::array<MasterPort*, kNumMasters> waiters{};
    for (MasterPort* port : pending_) {
      if (port != nullptr && port->state_ == MasterPort::State::kWaiting &&
          port->slave_index == s) {
        waiters[waiting++] = port;
        stats_[s].wait_cycles++;
      }
    }
    if (waiting == 0) continue;
    observation_.waiting_masters += waiting;
    const bool contended = waiting > 1 || state.busy;
    if (contended) {
      observation_.contention = true;
      stats_[s].contention_cycles++;
    }
    if (state.busy) {  // slave occupied; nobody can be granted
      const MasterId holder = state.active_port->request_.master;
      for (unsigned i = 0; i < waiting; ++i) {
        record_blocked(waiters[i], holder, s);
      }
      continue;
    }

    // Pick a winner.
    MasterPort* winner = nullptr;
    if (policy_ == ArbitrationPolicy::kFixedPriority) {
      for (unsigned p = 0; p < kNumMasters; ++p) {
        const unsigned m = priority_set_
                               ? static_cast<unsigned>(priority_order_[p])
                               : p;
        MasterPort* port = pending_[m];
        if (port != nullptr && port->state_ == MasterPort::State::kWaiting &&
            port->slave_index == s) {
          winner = port;
          break;
        }
      }
    } else {  // round robin
      for (unsigned i = 0; i < kNumMasters; ++i) {
        const unsigned m = (state.rr_next + i) % kNumMasters;
        MasterPort* port = pending_[m];
        if (port != nullptr && port->state_ == MasterPort::State::kWaiting &&
            port->slave_index == s) {
          winner = port;
          state.rr_next = (m + 1) % kNumMasters;
          break;
        }
      }
    }
    assert(winner != nullptr);
    // Losers of this cycle's arbitration are blocked by the winner.
    for (unsigned i = 0; i < waiting; ++i) {
      if (waiters[i] != winner) {
        record_blocked(waiters[i], winner->request_.master, s);
      }
    }

    const unsigned latency = std::max(1u, slaves_[s]->start_access(winner->request_));
    winner->state_ = MasterPort::State::kActive;
    winner->remaining = latency;
    winner->granted_at = now;
    state.busy = true;
    state.active_port = winner;

    stats_[s].grants++;
    if (winner->request_.kind == AccessKind::kWrite) {
      stats_[s].writes++;
    } else {
      stats_[s].reads++;
    }
    progress(s);  // the grant cycle serves the first latency cycle
    // Record the (single) grant of this cycle for observation. With
    // several slaves granting in one cycle the frame keeps the first;
    // the contention flag and counters remain exact.
    if (!observation_.any_grant) {
      observation_.any_grant = true;
      observation_.granted_master = winner->request_.master;
      observation_.granted_slave = s;
      observation_.granted_addr = winner->request_.addr;
      observation_.granted_write = winner->request_.kind == AccessKind::kWrite;
    }
  }
}

void Crossbar::register_metrics(telemetry::MetricsRegistry& registry,
                                std::string_view component) const {
  for (unsigned s = 0; s < slaves_.size(); ++s) {
    const std::string slave(slave_name(s));
    const SlaveStats& stats = stats_[s];
    registry.counter(std::string(component), slave + ".grants", &stats.grants);
    registry.counter(std::string(component), slave + ".reads", &stats.reads);
    registry.counter(std::string(component), slave + ".writes", &stats.writes);
    registry.counter(std::string(component), slave + ".wait_cycles",
                     &stats.wait_cycles);
    registry.counter(std::string(component), slave + ".busy_cycles",
                     &stats.busy_cycles);
    registry.counter(std::string(component), slave + ".contention_cycles",
                     &stats.contention_cycles);
    registry.counter(std::string(component), slave + ".error_responses",
                     &stats.error_responses);
  }
}

}  // namespace audo::bus
