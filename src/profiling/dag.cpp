#include "profiling/dag.hpp"

#include <algorithm>
#include <cstdio>

#include "common/bits.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/timeline.hpp"

namespace audo::profiling {

const char* to_string(DagNodeKind kind) {
  switch (kind) {
    case DagNodeKind::kTask: return "task";
    case DagNodeKind::kIsr: return "isr";
    case DagNodeKind::kIdle: return "idle";
  }
  return "?";
}

const char* to_string(DagEdgeKind kind) {
  switch (kind) {
    case DagEdgeKind::kPreempt: return "preempt";
    case DagEdgeKind::kResume: return "resume";
    case DagEdgeKind::kDispatch: return "dispatch";
    case DagEdgeKind::kContention: return "contention";
  }
  return "?";
}

const char* to_string(BottleneckLabel label) {
  switch (label) {
    case BottleneckLabel::kCpuBound: return "cpu_bound";
    case BottleneckLabel::kFlashBound: return "flash_bound";
    case BottleneckLabel::kBusContention: return "bus_contention";
    case BottleneckLabel::kPreemptionDelayed: return "preemption_delayed";
    case BottleneckLabel::kIrqLatency: return "irq_latency";
    case BottleneckLabel::kIdle: return "idle";
  }
  return "?";
}

namespace {

// The name an activation goes by: the function it retired in, or, for one
// that never retired in a named function, its kind's fallback.
std::string resolved_task(const DagNode& node) {
  if (!node.task.empty()) return node.task;
  switch (node.kind) {
    case DagNodeKind::kIsr: return "irq@" + std::to_string(node.prio);
    case DagNodeKind::kIdle: return "idle";
    case DagNodeKind::kTask:
      return node.core == kDagCorePcp ? "pcp.task" : "tc.task";
  }
  return "";
}

}  // namespace

const DagTaskSummary* DagAnalysis::find_task(std::string_view name) const {
  for (const DagTaskSummary& t : tasks) {
    if (t.task == name) return &t;
  }
  return nullptr;
}

ExecutionDag::ExecutionDag(isa::SymbolMap symbols)
    : symbols_(std::move(symbols)) {
  synthetic_.fill(kDagNoNode);
}

u32 ExecutionDag::open_node(u8 core, DagNodeKind kind, std::string task,
                            u8 prio, Cycle start) {
  const u32 id = static_cast<u32>(nodes_.size());
  DagNode node;
  node.id = id;
  node.core = core;
  node.kind = kind;
  node.task = std::move(task);
  node.prio = prio;
  node.start = start;
  node.end = start;
  nodes_.push_back(std::move(node));
  if (core < 2) state_[core].nodes.push_back(id);
  return id;
}

void ExecutionDag::add_edge(u32 from, u32 to, DagEdgeKind kind, u64 weight) {
  const auto key = std::make_tuple(from, to, static_cast<u8>(kind));
  const auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    edges_[it->second].weight += weight;
    return;
  }
  edge_index_.emplace(key, edges_.size());
  edges_.push_back(DagEdge{from, to, kind, weight});
}

void ExecutionDag::transition(u8 core, const mcds::CoreObservation& obs,
                              Cycle first) {
  CoreState& s = state_[core];
  if (obs.irq_entry || obs.trap_entry) {
    // Handler entry: the open idle window or running activation ends at
    // first-1 (it was charged up to there); a running activation is
    // suspended and resumes as a fresh node after the RFE.
    u32 interrupted = kDagNoNode;
    if (s.idle_node != kDagNoNode) {
      s.idle_node = kDagNoNode;
    } else if (!s.stack.empty() && s.stack.back().node != kDagNoNode) {
      Context& top = s.stack.back();
      interrupted = top.node;
      top.node = kDagNoNode;
      top.preempted = true;
      top.suspended_at = first;
    }
    Context ctx;
    ctx.is_isr = true;
    ctx.prio = obs.irq_entry ? obs.irq_prio : 0;
    if (obs.trap_entry && !obs.irq_entry) {
      ctx.task = "trap@" + std::to_string(obs.trap_class);
    }
    ctx.node =
        open_node(core, DagNodeKind::kIsr, ctx.task, ctx.prio, first);
    if (obs.irq_entry) {
      const auto raise = s.pending_raise.find(obs.irq_prio);
      if (raise != s.pending_raise.end()) {
        const u64 latency = first - raise->second;
        nodes_[ctx.node].dispatch_latency = latency;
        if (interrupted != kDagNoNode && latency > 0) {
          add_edge(interrupted, ctx.node, DagEdgeKind::kDispatch, latency);
        }
        s.pending_raise.erase(raise);
      }
    }
    if (interrupted != kDagNoNode) {
      add_edge(interrupted, ctx.node, DagEdgeKind::kPreempt, 0);
    }
    s.stack.push_back(std::move(ctx));
    return;
  }
  const bool parked = obs.retired == 0 &&
                      (obs.stall == mcds::StallCause::kWfi ||
                       obs.stall == mcds::StallCause::kHalted);
  if (parked) {
    if (s.idle_node == kDagNoNode) {
      // WFI/halt park: a voluntary suspension, not a preemption — the
      // resumed node carries no preempted_cycles.
      if (!s.stack.empty() && s.stack.back().node != kDagNoNode) {
        Context& top = s.stack.back();
        top.node = kDagNoNode;
        top.preempted = false;
        top.suspended_at = first;
      }
      s.idle_node =
          open_node(core, DagNodeKind::kIdle, "idle", 0, first);
    }
  } else if (s.idle_node != kDagNoNode) {
    // Woke without a handler entry (robustness; WFI wakes go through
    // irq_entry). The context node reopens lazily on the next charge.
    s.idle_node = kDagNoNode;
  }
}

u32 ExecutionDag::current_node(u8 core, Cycle first) {
  CoreState& s = state_[core];
  if (s.idle_node != kDagNoNode) return s.idle_node;
  if (s.stack.empty()) {
    Context base;
    base.node = open_node(core, DagNodeKind::kTask, "", 0, first);
    s.stack.push_back(std::move(base));
    return s.stack.back().node;
  }
  Context& top = s.stack.back();
  if (top.node == kDagNoNode) {
    top.node = open_node(core, top.is_isr ? DagNodeKind::kIsr
                                          : DagNodeKind::kTask,
                         top.task, top.prio, first);
    DagNode& node = nodes_[top.node];
    if (top.preempted) node.preempted_cycles = first - top.suspended_at;
    if (top.resume_from != kDagNoNode) {
      add_edge(top.resume_from, top.node, DagEdgeKind::kResume,
               node.preempted_cycles);
      top.resume_from = kDagNoNode;
    }
    top.preempted = false;
  }
  return top.node;
}

void ExecutionDag::charge(u8 core, const mcds::CoreObservation& obs,
                          Cycle first, u64 n) {
  const u32 id = current_node(core, first);
  DagNode& node = nodes_[id];
  node.end = first + n - 1;
  node.cycles += n;
  node.instructions += static_cast<u64>(obs.retired) * n;
  if (obs.attr.root == mcds::StallRootCause::kNone) {
    node.issue_cycles += n;
  } else {
    node.stall[static_cast<unsigned>(obs.attr.root)] += n;
  }
  state_[core].charged += n;
  // Lazy naming: the vector stubs are unlabeled, so an activation is
  // named by its first retire inside a named function and the name is
  // pinned on the owning context for later resumes.
  if (obs.retired > 0 && node.task.empty()) {
    const std::string& fn = symbols_.function_at(obs.retire_pc);
    if (fn != "?") {
      node.task = fn;
      CoreState& s = state_[core];
      if (!s.stack.empty() && s.stack.back().node == id) {
        s.stack.back().task = fn;
      }
    }
  }
}

void ExecutionDag::retire_isr(u8 core, const mcds::CoreObservation& obs) {
  if (!obs.irq_exit) return;
  CoreState& s = state_[core];
  if (s.stack.empty() || !s.stack.back().is_isr) return;
  const u32 isr_node = s.stack.back().node;
  s.stack.pop_back();
  // The earliest pending handler wins the resume edge: when handlers
  // chain back-to-back before the preempted activation runs again, the
  // chain start is the causal resumer.
  if (!s.stack.empty() && isr_node != kDagNoNode &&
      s.stack.back().resume_from == kDagNoNode) {
    s.stack.back().resume_from = isr_node;
  }
}

u32 ExecutionDag::synthetic_node(bus::MasterId master, Cycle at) {
  u32& id = synthetic_[static_cast<unsigned>(master)];
  if (id == kDagNoNode) {
    id = open_node(kDagCoreSynthetic, DagNodeKind::kTask,
                   bus::to_string(master), 0, at);
  }
  if (nodes_[id].end < at) nodes_[id].end = at;
  return id;
}

void ExecutionDag::contention_edge(u8 core, const mcds::CoreObservation& obs,
                                   u64 n) {
  if (obs.attr.root != mcds::StallRootCause::kBusArbitration) return;
  const bus::MasterId holder_master = obs.attr.blocking_master;
  if (holder_master == bus::MasterId::kCount) return;
  const auto open_current = [this](u8 c) -> u32 {
    const CoreState& s = state_[c];
    if (s.idle_node != kDagNoNode) return s.idle_node;
    return s.stack.empty() ? kDagNoNode : s.stack.back().node;
  };
  u32 holder = kDagNoNode;
  switch (holder_master) {
    case bus::MasterId::kTcData:
    case bus::MasterId::kTcFetch:
      holder = open_current(kDagCoreTc);
      break;
    case bus::MasterId::kPcpData:
      holder = open_current(kDagCorePcp);
      break;
    default:
      holder = synthetic_node(holder_master, last_cycle_);
      break;
  }
  const u32 waiter = open_current(core);
  if (holder == kDagNoNode || waiter == kDagNoNode || holder == waiter) return;
  add_edge(holder, waiter, DagEdgeKind::kContention, n);
}

void ExecutionDag::observe(const mcds::ObservationFrame& frame) {
  last_cycle_ = frame.cycle;
  // Raises first: an entry in this same frame matches a raise published
  // in this same frame (dispatch latency 0).
  for (unsigned i = 0; i < frame.irq.count; ++i) {
    const mcds::IrqObservation::Raise& r = frame.irq.raised[i];
    if (r.target > kDagCorePcp) continue;  // DMA triggers have no core node
    state_[r.target].pending_raise.try_emplace(r.priority, frame.cycle);
  }
  if (frame.tc.present) {
    transition(kDagCoreTc, frame.tc, frame.cycle);
    charge(kDagCoreTc, frame.tc, frame.cycle, 1);
  }
  if (frame.pcp.present) {
    transition(kDagCorePcp, frame.pcp, frame.cycle);
    charge(kDagCorePcp, frame.pcp, frame.cycle, 1);
  }
  // Contention after both charges so each endpoint's node is open.
  if (frame.tc.present) contention_edge(kDagCoreTc, frame.tc, 1);
  if (frame.pcp.present) contention_edge(kDagCorePcp, frame.pcp, 1);
  if (frame.tc.present) retire_isr(kDagCoreTc, frame.tc);
  if (frame.pcp.present) retire_isr(kDagCorePcp, frame.pcp);
}

void ExecutionDag::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  // The idle frame's cycle is the last stepped cycle; the skipped window
  // is [cycle+1, cycle+n] — exactly what stepping would have charged.
  const Cycle first = idle.cycle + 1;
  if (idle.tc.present) {
    transition(kDagCoreTc, idle.tc, first);
    charge(kDagCoreTc, idle.tc, first, n);
  }
  if (idle.pcp.present) {
    transition(kDagCorePcp, idle.pcp, first);
    charge(kDagCorePcp, idle.pcp, first, n);
  }
  last_cycle_ = idle.cycle + n;
}

u32 ExecutionDag::node_at(u8 core, Cycle cycle) const {
  const std::vector<u32>& ids = state_[core].nodes;
  const auto it = std::upper_bound(
      ids.begin(), ids.end(), cycle,
      [this](Cycle c, u32 id) { return c < nodes_[id].start; });
  // Windows are contiguous per core, so the found node covers `cycle`
  // (or is the last one, for cycles at/after the end of observation).
  return it == ids.begin() ? kDagNoNode : *(it - 1);
}

std::string ExecutionDag::task_at(u8 core, Cycle cycle) const {
  if (core >= 2) return "";
  const u32 id = node_at(core, cycle);
  return id == kDagNoNode ? "" : resolved_task(nodes_[id]);
}

bool ExecutionDag::task_settled(u8 core, Cycle cycle) const {
  if (core >= 2) return true;
  if (last_cycle_ < cycle) return false;
  // Later nodes open after last_cycle_, so the covering node is final.
  const u32 id = node_at(core, cycle);
  if (id == kDagNoNode || !nodes_[id].task.empty()) return true;
  const CoreState& s = state_[core];
  return id != s.idle_node && (s.stack.empty() || id != s.stack.back().node);
}

const DagAnalysis& ExecutionDag::analysis() const {
  const u64 stamp = state_[0].charged + state_[1].charged;
  if (cache_stamp_ != stamp) {
    cache_ = DagAnalysis{};
    compute(cache_);
    cache_stamp_ = stamp;
  }
  return cache_;
}

void ExecutionDag::compute(DagAnalysis& a) const {
  a.nodes = nodes_;
  a.edges = edges_;
  a.total_cycles = last_cycle_;

  // Resolve the names activations that never retired in a named function
  // would otherwise lack.
  for (DagNode& node : a.nodes) {
    if (node.task.empty()) node.task = resolved_task(node);
  }

  // ---- critical path ------------------------------------------------
  //
  // Work nodes only (idle windows and zero-cycle synthetic masters are
  // not work). Nodes are ordered by (end, id); an edge is eligible iff
  // its endpoints are strictly ordered under that key, which makes the
  // eligible subgraph acyclic by construction. The forward weight of a
  // node is capped at its end cycle: a causal chain finishing at cycle E
  // cannot have consumed more than E cycles, which yields
  // critical_path_cycles <= total_cycles even when contention edges join
  // time-overlapping nodes.
  const auto eligible = [](const DagNode& n) {
    return n.kind != DagNodeKind::kIdle && n.core < 2 && n.cycles > 0;
  };
  const auto before = [&](u32 x, u32 y) {
    const DagNode& nx = a.nodes[x];
    const DagNode& ny = a.nodes[y];
    return nx.end != ny.end ? nx.end < ny.end : nx.id < ny.id;
  };
  std::vector<u32> order;
  for (const DagNode& n : a.nodes) {
    if (eligible(n)) order.push_back(n.id);
  }
  std::sort(order.begin(), order.end(), before);

  std::vector<std::vector<u32>> in(a.nodes.size());
  std::vector<std::vector<u32>> out(a.nodes.size());
  for (const DagEdge& e : a.edges) {
    if (!eligible(a.nodes[e.from]) || !eligible(a.nodes[e.to])) continue;
    if (!before(e.from, e.to)) continue;
    in[e.to].push_back(e.from);
    out[e.from].push_back(e.to);
  }

  std::vector<u64> forward(a.nodes.size(), 0);
  std::vector<u32> pred(a.nodes.size(), kDagNoNode);
  u32 sink = kDagNoNode;
  for (const u32 id : order) {
    const DagNode& node = a.nodes[id];
    u64 best = 0;
    u32 best_pred = kDagNoNode;
    for (const u32 from : in[id]) {
      if (forward[from] > best) {
        best = forward[from];
        best_pred = from;
      }
    }
    forward[id] = std::min<u64>(node.end, node.cycles + best);
    pred[id] = best_pred;
    if (sink == kDagNoNode || forward[id] > forward[sink]) sink = id;
  }
  if (sink != kDagNoNode) {
    a.critical_path_cycles = forward[sink];
    for (u32 v = sink; v != kDagNoNode; v = pred[v]) {
      a.critical_path.push_back(v);
    }
    std::reverse(a.critical_path.begin(), a.critical_path.end());
  }

  // Backward pass for slack, capped symmetrically (a chain starting at
  // cycle S cannot consume more than total-S+1 cycles).
  std::vector<u64> backward(a.nodes.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const u32 id = *it;
    const DagNode& node = a.nodes[id];
    u64 best = 0;
    for (const u32 to : out[id]) best = std::max(best, backward[to]);
    backward[id] = std::min<u64>(a.total_cycles - node.start + 1,
                                 node.cycles + best);
  }
  a.node_slack.assign(a.nodes.size(), a.critical_path_cycles);
  for (const u32 id : order) {
    const u64 through = forward[id] + backward[id] - a.nodes[id].cycles;
    a.node_slack[id] =
        a.critical_path_cycles - std::min(through, a.critical_path_cycles);
  }

  // ---- per-task aggregation + bottleneck rule table -----------------
  std::map<std::string, DagTaskSummary> tasks;
  for (const DagNode& node : a.nodes) {
    if (node.core >= 2) continue;  // synthetic masters are not tasks
    DagTaskSummary& t = tasks[node.task];
    if (t.task.empty()) {
      t.task = node.task;
      t.kind = node.kind;
      t.slack = a.critical_path_cycles;
    }
    t.activations++;
    t.cycles += node.cycles;
    t.instructions += node.instructions;
    t.issue_cycles += node.issue_cycles;
    for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
      t.stall[r] += node.stall[r];
    }
    t.preempted_cycles += node.preempted_cycles;
    t.dispatch_latency += node.dispatch_latency;
    if (eligible(node)) t.slack = std::min(t.slack, a.node_slack[node.id]);
  }
  const auto bucket = [](const DagTaskSummary& t, mcds::StallRootCause r) {
    return t.stall[static_cast<unsigned>(r)];
  };
  for (auto& [name, t] : tasks) {
    using mcds::StallRootCause;
    // Fixed rule table, first match wins (thresholds in DESIGN.md).
    if (t.kind == DagNodeKind::kIdle) {
      t.label = BottleneckLabel::kIdle;
    } else if (t.preempted_cycles * 4 >= t.cycles) {
      t.label = BottleneckLabel::kPreemptionDelayed;
    } else if (t.dispatch_latency * 10 >= t.cycles) {
      t.label = BottleneckLabel::kIrqLatency;
    } else if ((bucket(t, StallRootCause::kBusArbitration) +
                bucket(t, StallRootCause::kBusSlaveBusy)) *
                   5 >=
               t.cycles) {
      t.label = BottleneckLabel::kBusContention;
    } else if ((bucket(t, StallRootCause::kFlashBuffer) +
                bucket(t, StallRootCause::kFlashRead) +
                bucket(t, StallRootCause::kFlashPortConflict)) *
                   10 >=
               t.cycles * 3) {
      t.label = BottleneckLabel::kFlashBound;
    } else {
      t.label = BottleneckLabel::kCpuBound;
    }
    a.tasks.push_back(t);
  }
  std::sort(a.tasks.begin(), a.tasks.end(),
            [](const DagTaskSummary& x, const DagTaskSummary& y) {
              return x.cycles != y.cycles ? x.cycles > y.cycles
                                          : x.task < y.task;
            });

  // ---- fingerprint --------------------------------------------------
  u64 h = kFnvOffset;
  h = fnv1a(h, a.total_cycles);
  for (const DagNode& node : a.nodes) {
    h = fnv1a(h, node.core);
    h = fnv1a(h, static_cast<u64>(node.kind));
    h = fnv1a(h, node.task);
    h = fnv1a(h, node.prio);
    h = fnv1a(h, node.start);
    h = fnv1a(h, node.end);
    h = fnv1a(h, node.cycles);
    h = fnv1a(h, node.instructions);
    h = fnv1a(h, node.issue_cycles);
    for (const u64 s : node.stall) h = fnv1a(h, s);
    h = fnv1a(h, node.dispatch_latency);
    h = fnv1a(h, node.preempted_cycles);
  }
  for (const DagEdge& e : a.edges) {
    h = fnv1a(h, e.from);
    h = fnv1a(h, e.to);
    h = fnv1a(h, static_cast<u64>(e.kind));
    h = fnv1a(h, e.weight);
  }
  h = fnv1a(h, a.critical_path_cycles);
  a.hash = h;
}

std::string ExecutionDag::format(usize top_n) const {
  const DagAnalysis& a = analysis();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%-16s %-20s %6s %10s %6s %10s %9s %8s\n", "task", "label",
                "acts", "cycles", "cyc%", "slack", "preempted", "dispatch");
  out += line;
  const double total =
      a.total_cycles == 0 ? 1.0 : static_cast<double>(a.total_cycles);
  usize n = 0;
  for (const DagTaskSummary& t : a.tasks) {
    if (n++ >= top_n) break;
    std::snprintf(line, sizeof line,
                  "%-16s %-20s %6llu %10llu %5.1f%% %10llu %9llu %8llu\n",
                  t.task.c_str(), to_string(t.label),
                  static_cast<unsigned long long>(t.activations),
                  static_cast<unsigned long long>(t.cycles),
                  100.0 * static_cast<double>(t.cycles) / total,
                  static_cast<unsigned long long>(t.slack),
                  static_cast<unsigned long long>(t.preempted_cycles),
                  static_cast<unsigned long long>(t.dispatch_latency));
    out += line;
  }
  std::snprintf(line, sizeof line,
                "critical path: %llu / %llu cycles over %zu of %zu "
                "activations (%zu edges, hash 0x%llx)\n",
                static_cast<unsigned long long>(a.critical_path_cycles),
                static_cast<unsigned long long>(a.total_cycles),
                a.critical_path.size(), a.nodes.size(), a.edges.size(),
                static_cast<unsigned long long>(a.hash));
  out += line;
  return out;
}

std::string ExecutionDag::to_csv() const {
  const DagAnalysis& a = analysis();
  std::string out =
      "node,core,kind,task,prio,start,end,cycles,instructions,issue";
  for (unsigned r = 1; r < mcds::kNumStallRootCauses; ++r) {
    out += ',';
    out += mcds::to_string(static_cast<mcds::StallRootCause>(r));
  }
  out += ",dispatch_latency,preempted_cycles,slack,critical\n";
  std::vector<bool> critical(a.nodes.size(), false);
  for (const u32 id : a.critical_path) critical[id] = true;
  for (const DagNode& node : a.nodes) {
    out += std::to_string(node.id);
    out += ',' + std::to_string(node.core);
    out += ',';
    out += to_string(node.kind);
    out += ',' + node.task;
    out += ',' + std::to_string(node.prio);
    out += ',' + std::to_string(node.start);
    out += ',' + std::to_string(node.end);
    out += ',' + std::to_string(node.cycles);
    out += ',' + std::to_string(node.instructions);
    out += ',' + std::to_string(node.issue_cycles);
    for (unsigned r = 1; r < mcds::kNumStallRootCauses; ++r) {
      out += ',' + std::to_string(node.stall[r]);
    }
    out += ',' + std::to_string(node.dispatch_latency);
    out += ',' + std::to_string(node.preempted_cycles);
    out += ',' + std::to_string(a.node_slack[node.id]);
    out += ',';
    out += critical[node.id] ? '1' : '0';
    out += '\n';
  }
  return out;
}

std::string ExecutionDag::to_dot(usize max_nodes) const {
  const DagAnalysis& a = analysis();
  std::vector<bool> critical(a.nodes.size(), false);
  for (const u32 id : a.critical_path) critical[id] = true;
  // Emit the first max_nodes activations plus everything on the critical
  // path, so a capped render never truncates the headline chain.
  std::vector<bool> emit(a.nodes.size(), false);
  usize emitted = 0;
  for (const DagNode& node : a.nodes) {
    if (max_nodes != 0 && emitted >= max_nodes) break;
    emit[node.id] = true;
    emitted++;
  }
  for (const u32 id : a.critical_path) emit[id] = true;

  std::string out = "digraph execution_dag {\n  rankdir=LR;\n"
                    "  node [shape=box, fontsize=9];\n";
  char line[256];
  for (const DagNode& node : a.nodes) {
    if (!emit[node.id]) continue;
    const char* color = critical[node.id] ? "red" : node.kind ==
                            DagNodeKind::kIdle ? "gray" : "black";
    std::snprintf(line, sizeof line,
                  "  n%u [label=\"%s#%u\\n[%llu,%llu] %llu cyc\", "
                  "color=%s%s];\n",
                  node.id, node.task.c_str(), node.id,
                  static_cast<unsigned long long>(node.start),
                  static_cast<unsigned long long>(node.end),
                  static_cast<unsigned long long>(node.cycles), color,
                  critical[node.id] ? ", penwidth=2" : "");
    out += line;
  }
  for (const DagEdge& e : a.edges) {
    if (!emit[e.from] || !emit[e.to]) continue;
    const bool on_path = critical[e.from] && critical[e.to];
    std::snprintf(line, sizeof line,
                  "  n%u -> n%u [label=\"%s%s%llu\", style=%s%s];\n", e.from,
                  e.to, to_string(e.kind), e.weight != 0 ? " " : "",
                  static_cast<unsigned long long>(e.weight),
                  e.kind == DagEdgeKind::kContention ? "dashed" : "solid",
                  on_path ? ", color=red, penwidth=2" : "");
    out += line;
  }
  out += "}\n";
  return out;
}

void ExecutionDag::emit_timeline(telemetry::Timeline& timeline) const {
  const DagAnalysis& a = analysis();
  // One track per (core, task), ordered core-major then by task name so
  // reruns and rebuilds render identically.
  std::vector<std::pair<u8, std::string>> keys;
  for (const DagNode& node : a.nodes) {
    if (node.core >= 2) continue;
    keys.emplace_back(node.core, node.task);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::map<std::pair<u8, std::string>, telemetry::Timeline::TrackId> track;
  for (const auto& key : keys) {
    const char* core = key.first == kDagCorePcp ? "pcp" : "tc";
    track[key] = timeline.add_track("dag " + std::string(core) + "/" +
                                    key.second);
  }
  std::vector<bool> critical(a.nodes.size(), false);
  for (const u32 id : a.critical_path) critical[id] = true;
  for (const DagNode& node : a.nodes) {
    if (node.core >= 2) continue;
    const auto t = track.find({node.core, node.task});
    if (t == track.end()) continue;
    timeline.complete(t->second,
                      critical[node.id] ? node.task + " *crit*" : node.task,
                      node.start, node.end);
  }
  // Flow arrows along the activation-causal edges (contention edges are
  // too dense to render usefully).
  for (const DagEdge& e : a.edges) {
    if (e.kind == DagEdgeKind::kContention) continue;
    const DagNode& from = a.nodes[e.from];
    const DagNode& to = a.nodes[e.to];
    if (from.core >= 2 || to.core >= 2) continue;
    const auto ft = track.find({from.core, from.task});
    const auto tt = track.find({to.core, to.task});
    if (ft == track.end() || tt == track.end()) continue;
    timeline.flow(ft->second, from.end, tt->second, to.start,
                  to_string(e.kind));
  }
}

void ExecutionDag::register_metrics(
    telemetry::MetricsRegistry& registry) const {
  registry.gauge("dag", "nodes",
                 [this] { return static_cast<u64>(analysis().nodes.size()); });
  registry.gauge("dag", "edges",
                 [this] { return static_cast<u64>(analysis().edges.size()); });
  registry.gauge("dag", "critical_path_cycles",
                 [this] { return analysis().critical_path_cycles; });
  for (const DagTaskSummary& t : analysis().tasks) {
    registry.gauge("dag", "slack." + t.task, [this, name = t.task] {
      const DagTaskSummary* task = analysis().find_task(name);
      return task != nullptr ? task->slack : 0;
    });
  }
}

void ExecutionDag::fill_report(telemetry::RunReport& report,
                               usize path_cap) const {
  const DagAnalysis& a = analysis();
  telemetry::RunReport::DagBlock& block = report.dag;
  block = telemetry::RunReport::DagBlock{};
  block.present = true;
  block.nodes = a.nodes.size();
  block.edges = a.edges.size();
  block.total_cycles = a.total_cycles;
  block.critical_path_cycles = a.critical_path_cycles;
  block.critical_path_nodes = a.critical_path.size();
  block.hash = a.hash;
  for (const DagTaskSummary& t : a.tasks) {
    telemetry::RunReport::DagTaskEntry entry;
    entry.task = t.task;
    entry.kind = to_string(t.kind);
    entry.label = to_string(t.label);
    entry.activations = t.activations;
    entry.cycles = t.cycles;
    entry.instructions = t.instructions;
    entry.slack = t.slack;
    entry.preempted_cycles = t.preempted_cycles;
    entry.dispatch_latency = t.dispatch_latency;
    block.tasks.push_back(std::move(entry));
  }
  for (const u32 id : a.critical_path) {
    if (block.critical_path.size() >= path_cap) break;
    const DagNode& node = a.nodes[id];
    block.critical_path.push_back(telemetry::RunReport::DagPathEntry{
        node.task, node.start, node.end, node.cycles});
  }
}

}  // namespace audo::profiling
