// Trace-derived execution DAG: task/ISR activations and the causal
// edges between them, built live from the per-cycle observation frame.
//
// PR 5's stall attribution says *why* each cycle stalled; this builder
// adds the structure above the cycle level: which task or ISR activation
// the cycle belongs to, which activation delayed which (preemption,
// IRQ dispatch, cross-master contention), and where the end-to-end
// critical path runs. On top of the DAG it computes per-activation
// slack and one deterministic bottleneck label per task — the output
// contract the guarded auto-optimizer (ROADMAP item 2) consumes.
//
// Like the CpiStackBuilder, the DAG rides the Soc frame-observer hook:
// segmentation state advances only on published frames, fast-forwarded
// idle windows arrive through skip_idle() and charge the open idle node
// in bulk, so the result is bit-identical with fast-forward on or off. A
// frame that enters or leaves no handler or park, loses no arbitration
// and finds each core's node open charges those nodes directly.
// Conservation holds by construction: every present-core cycle is
// charged to exactly one node, so per core Σ(node cycles) equals
// cpu::Cpu::cycles() over the observed window.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mcds/observation.hpp"
#include "soc/soc.hpp"

namespace audo::telemetry {
class Timeline;
class MetricsRegistry;
struct RunReport;
}

namespace audo::profiling {

enum class DagNodeKind : u8 {
  kTask,  // task-body activation (base context or post-ISR resume)
  kIsr,   // ISR or trap-handler activation (irq/trap entry .. RFE)
  kIdle,  // WFI/halt window
};
const char* to_string(DagNodeKind kind);

enum class DagEdgeKind : u8 {
  kPreempt,     // interrupted activation -> the handler that preempted it
  kResume,      // handler -> the activation resumed after its RFE
  kDispatch,    // activation running at SRC raise -> handler (weight =
                // dispatch latency in cycles)
  kContention,  // holder's activation -> waiter's activation (weight =
                // cycles the waiter lost arbitration to the holder)
};
const char* to_string(DagEdgeKind kind);

/// One deterministic label per task from the fixed rule table over its
/// aggregated CPI-stack composition (see DESIGN.md, "Execution DAG &
/// critical path" — first matching rule wins).
enum class BottleneckLabel : u8 {
  kCpuBound,
  kFlashBound,
  kBusContention,
  kPreemptionDelayed,
  kIrqLatency,
  kIdle,
};
const char* to_string(BottleneckLabel label);

/// Core index of a DAG node. Synthetic nodes stand for non-core bus
/// masters (DMA, tool access) so contention edges always have both
/// endpoints; they carry zero cycles and stay off the critical path.
inline constexpr u8 kDagCoreTc = 0;
inline constexpr u8 kDagCorePcp = 1;
inline constexpr u8 kDagCoreSynthetic = 2;

inline constexpr u32 kDagNoNode = ~u32{0};

/// One activation: a maximal window of cycles a core spent in one task
/// body, ISR body or idle park. `cycles` always equals end-start+1 for
/// core nodes (the window is charged contiguously).
struct DagNode {
  u32 id = 0;
  u8 core = kDagCoreTc;
  DagNodeKind kind = DagNodeKind::kTask;
  std::string task;  // resolved task/ISR name ("main", "isr_tooth", ...)
  u8 prio = 0;       // delivered priority (ISR nodes; 0 otherwise)
  Cycle start = 0;
  Cycle end = 0;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 issue_cycles = 0;  // cycles with retired > 0 (kNone bucket)
  /// Stall cycles per mcds::StallRootCause (index kNone stays 0).
  std::array<u64, mcds::kNumStallRootCauses> stall{};
  /// SRC raise -> handler entry, cycles (ISR nodes with a matched raise).
  u64 dispatch_latency = 0;
  /// How long this activation sat suspended under a preempting handler
  /// before its window opened (resume nodes).
  u64 preempted_cycles = 0;
};

struct DagEdge {
  u32 from = 0;
  u32 to = 0;
  DagEdgeKind kind = DagEdgeKind::kPreempt;
  u64 weight = 0;  // cycles (latency / blocked time); 0 for pure ordering
};

/// Per-task aggregate over all of the task's activations.
struct DagTaskSummary {
  std::string task;
  DagNodeKind kind = DagNodeKind::kTask;
  u64 activations = 0;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 issue_cycles = 0;
  std::array<u64, mcds::kNumStallRootCauses> stall{};
  u64 preempted_cycles = 0;
  u64 dispatch_latency = 0;
  /// min over the task's activations of (critical_path - longest path
  /// through the activation): how many cycles the task could grow before
  /// entering the critical path. 0 for tasks on the critical path.
  u64 slack = 0;
  BottleneckLabel label = BottleneckLabel::kCpuBound;
};

/// The finished analysis (computed lazily; cached until more cycles are
/// observed). Nodes/edges are in creation order — deterministic for a
/// given workload regardless of fast-forward mode or host parallelism.
struct DagAnalysis {
  std::vector<DagNode> nodes;
  std::vector<DagEdge> edges;
  Cycle total_cycles = 0;  // last observed cycle
  /// Cycle weight of the heaviest causal chain of non-idle activations;
  /// <= total_cycles by construction (each link's forward weight is
  /// capped at its end cycle), equal only when the DAG is a chain.
  u64 critical_path_cycles = 0;
  std::vector<u32> critical_path;  // node ids, source -> sink
  /// Per-node slack, indexed by node id (critical-path nodes have 0;
  /// idle/synthetic nodes get the full critical path as slack).
  std::vector<u64> node_slack;
  std::vector<DagTaskSummary> tasks;  // sorted by cycles desc, name asc
  /// FNV-1a over every node and edge field — the bit-identity fingerprint
  /// (fast-forward on/off, any --jobs N must agree).
  u64 hash = 0;

  const DagTaskSummary* find_task(std::string_view name) const;
};

class ExecutionDag : public soc::FrameObserver {
 public:
  explicit ExecutionDag(isa::SymbolMap symbols);

  void observe(const mcds::ObservationFrame& frame) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  /// Total cycles charged to `core`'s nodes so far; equals the core's
  /// cpu::Cpu::cycles() when the observer was attached before reset.
  u64 charged_cycles(u8 core) const { return state_[core].charged; }

  /// Lazily computed analysis over everything observed so far.
  const DagAnalysis& analysis() const;

  /// Resolved task/ISR name active on `core` at `cycle` ("" when the
  /// cycle is outside every node) — fault-campaign attribution.
  std::string task_at(u8 core, Cycle cycle) const;

  /// Whether task_at(core, cycle) can no longer change: `cycle` has been
  /// observed, and the activation covering it has its name or is no
  /// longer the core's open node. Only the open node is ever charged or
  /// named, so observing further frames cannot move the answer.
  bool task_settled(u8 core, Cycle cycle) const;

  /// Human-readable summary: per-task table plus the critical path head.
  std::string format(usize top_n = 16) const;
  /// Node table, one row per activation (stable across reruns).
  std::string to_csv() const;
  /// Graphviz dot: nodes grouped per task rank, critical path in bold.
  std::string to_dot(usize max_nodes = 400) const;

  /// Per-task timeline tracks ("dag tc/<task>") with one slice per
  /// activation and flow arrows along preempt/resume/dispatch edges.
  void emit_timeline(telemetry::Timeline& timeline) const;

  /// Gauges under `dag`: nodes, edges, critical_path_cycles, and
  /// slack.<task> per task. Gauge values are read lazily at collect()
  /// time, but the slack gauge *set* is the task list known when this
  /// is called — register after the run.
  void register_metrics(telemetry::MetricsRegistry& registry) const;

  /// Fill RunReport::dag: summary counts, per-task entries, and the
  /// first `path_cap` critical-path activations (full length recorded in
  /// critical_path_nodes).
  void fill_report(telemetry::RunReport& report, usize path_cap = 64) const;

 private:
  /// One activation level on a core's context stack. `node` is the open
  /// window (kDagNoNode while suspended under a handler or an idle park);
  /// reopening lazily starts the resume node.
  struct Context {
    u32 node = kDagNoNode;
    std::string task;  // pinned on the first named retire
    u8 prio = 0;
    bool is_isr = false;
    bool preempted = false;      // suspended by irq/trap (not a WFI park)
    Cycle suspended_at = 0;
    u32 resume_from = kDagNoNode;  // handler node that will resume us
  };

  struct CoreState {
    std::vector<Context> stack;  // bottom = base task
    u32 idle_node = kDagNoNode;
    /// Earliest un-dispatched SRC raise per priority (dispatch latency).
    std::map<u8, Cycle> pending_raise;
    u64 charged = 0;
    std::vector<u32> nodes;  // this core's node ids, by start cycle
  };

  u32 open_node(u8 core, DagNodeKind kind, std::string task, u8 prio,
                Cycle start);
  void add_edge(u32 from, u32 to, DagEdgeKind kind, u64 weight);
  /// Pre-charge transitions: handler entry (preempt/dispatch edges),
  /// idle enter/exit.
  void transition(u8 core, const mcds::CoreObservation& obs, Cycle first);
  /// The node the next cycle charges to, opening lazy resume/base nodes.
  u32 current_node(u8 core, Cycle first);
  /// The open node `obs` charges when it changes nothing the DAG tracks:
  /// no handler entry or exit, no park entered or left, no lost
  /// arbitration, and no node to open. kDagNoNode otherwise: the frame
  /// takes the transition path.
  u32 uneventful_node(u8 core, const mcds::CoreObservation& obs) const;
  /// Charge `n` cycles of `obs` to node `id` on `core`.
  void charge(u8 core, u32 id, const mcds::CoreObservation& obs, Cycle first,
              u64 n);
  /// Post-charge transition: RFE closes the handler, pops the context.
  void retire_isr(u8 core, const mcds::CoreObservation& obs);
  u32 synthetic_node(bus::MasterId master, Cycle at);
  /// The node covering `cycle` on `core`: the last one opened at or
  /// before it (kDagNoNode before the first).
  u32 node_at(u8 core, Cycle cycle) const;
  void contention_edge(u8 core, const mcds::CoreObservation& obs, u64 n);
  void compute(DagAnalysis& a) const;

  isa::SymbolMap symbols_;
  std::vector<DagNode> nodes_;
  std::vector<DagEdge> edges_;
  std::map<std::tuple<u32, u32, u8>, usize> edge_index_;
  std::array<CoreState, 2> state_;
  std::array<u32, bus::kNumMasters> synthetic_{};  // per-master node id
  Cycle last_cycle_ = 0;

  mutable DagAnalysis cache_;
  mutable u64 cache_stamp_ = ~u64{0};
};

}  // namespace audo::profiling
