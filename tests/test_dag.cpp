// Execution DAG (DESIGN.md, "Execution DAG & critical path"):
// conservation invariants on real workloads, critical-path bounds,
// preemption/resume edges under nested interrupts, deterministic
// bottleneck labels, bit-identity across fast-forward modes and host job
// counts, and when a cycle's task is settled mid-run.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/prng.hpp"
#include "helpers.hpp"
#include "host/sim_pool.hpp"
#include "profiling/dag.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

using profiling::DagAnalysis;
using profiling::DagEdge;
using profiling::DagEdgeKind;
using profiling::DagNode;
using profiling::DagNodeKind;
using profiling::ExecutionDag;

workload::EngineOptions engine_options() {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.halt_after_bg = 30;
  return opt;
}

/// The invariants every DAG must satisfy, independent of workload:
///  * per core, Σ(node cycles) == the core's cpu cycle count — every
///    observed cycle lands in exactly one activation;
///  * core-node windows are contiguous (cycles == end - start + 1) and
///    decompose exactly into issue + stall buckets;
///  * critical_path_cycles <= total_cycles, and the reported chain's
///    nodes are strictly ordered in time;
///  * node_slack is 0 exactly on critical-path nodes;
///  * task_at() names the activation covering a cycle as the analysis
///    does, fallback names included.
void check_invariants(const soc::Soc& soc, const ExecutionDag& dag) {
  const DagAnalysis& a = dag.analysis();
  u64 per_core[2] = {0, 0};
  for (const DagNode& n : a.nodes) {
    if (n.core >= 2) continue;  // synthetic bus-master nodes carry 0
    per_core[n.core] += n.cycles;
    EXPECT_EQ(n.cycles, n.end - n.start + 1) << "node " << n.id;
    EXPECT_EQ(dag.task_at(n.core, n.start), n.task) << "node " << n.id;
    u64 stall_sum = 0;
    for (const u64 s : n.stall) stall_sum += s;
    EXPECT_EQ(n.cycles, n.issue_cycles + stall_sum) << "node " << n.id;
  }
  EXPECT_EQ(per_core[0], soc.tc().cycles());
  EXPECT_EQ(per_core[0], dag.charged_cycles(0));
  if (soc.pcp() != nullptr) {
    EXPECT_EQ(per_core[1], soc.pcp()->cycles());
    EXPECT_EQ(per_core[1], dag.charged_cycles(1));
  }

  EXPECT_GT(a.critical_path_cycles, 0u);
  EXPECT_LE(a.critical_path_cycles, a.total_cycles);
  ASSERT_EQ(a.node_slack.size(), a.nodes.size());
  Cycle prev_end = 0;
  for (const u32 id : a.critical_path) {
    const DagNode& n = a.nodes[id];
    EXPECT_NE(n.kind, DagNodeKind::kIdle);
    EXPECT_GE(n.end, prev_end);
    prev_end = n.end;
    EXPECT_EQ(a.node_slack[id], 0u) << "critical node " << id;
  }
}

TEST(ExecutionDag, EngineConservationAndCriticalPath) {
  auto built = workload::build_engine_workload(engine_options());
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  soc::Soc soc(test::small_config());
  ExecutionDag dag{isa::SymbolMap(built.value().program)};
  soc.set_frame_observer(&dag);
  ASSERT_TRUE(workload::install_engine(soc, built.value()).is_ok());
  soc.run(5'000'000);
  ASSERT_TRUE(soc.tc().halted());

  check_invariants(soc, dag);
  const DagAnalysis& a = dag.analysis();
  // The engine workload interleaves a main loop with crank/ADC ISRs:
  // both node kinds must appear and the attribution query must resolve.
  bool saw_task = false;
  bool saw_isr = false;
  for (const DagNode& n : a.nodes) {
    saw_task |= n.kind == DagNodeKind::kTask;
    saw_isr |= n.kind == DagNodeKind::kIsr;
  }
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_isr);
  EXPECT_FALSE(dag.task_at(profiling::kDagCoreTc, a.total_cycles / 2).empty());
}

TEST(ExecutionDag, TransmissionConservation) {
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 6;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  soc::Soc soc(test::small_config());
  ExecutionDag dag{isa::SymbolMap(built.value().program)};
  soc.set_frame_observer(&dag);
  ASSERT_TRUE(workload::install_transmission(soc, built.value()).is_ok());
  soc.run(5'000'000);
  ASSERT_TRUE(soc.tc().halted());

  check_invariants(soc, dag);
}

// ---- preemption edges under nested interrupts -----------------------

// A low-priority handler spins until a flag only the high-priority
// handler sets (same shape as CpuIrq.PriorityPreemption): the DAG must
// show main -> isr_low -> isr_high preempt edges, and isr_high's RFE
// must open an isr_low resume node carrying the suspension time.
constexpr std::string_view kNestedIrq = R"(
    .text 0x80000140       ; priority 10: low
    j isr_low
    .text 0x80000280       ; priority 20: high
    j isr_high
    .text 0x80001000
main:
    di
    movha a15, 0xC000
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 400
    st.w  d0, [a14+8]      ; CMP0 period 400 -> prio 10
    movd  d0, 900
    st.w  d0, [a14+12]     ; CMP1 period 900 -> prio 20
    movd  d0, 3
    st.w  d0, [a14+16]     ; enable both
    ei
wait:
    ld.w  d1, [a15+0]
    jz    d1, wait
    halt
isr_low:
    st.w  d8, [a15+8]
spin:
    ld.w  d8, [a15+4]      ; wait for high-prio flag
    jz    d8, spin
    movd  d8, 1
    st.w  d8, [a15+0]      ; signal main
    ld.w  d8, [a15+8]
    rfe
isr_high:
    st.w  d8, [a15+12]
    movd  d8, 1
    st.w  d8, [a15+4]
    ld.w  d8, [a15+12]
    rfe
)";

TEST(ExecutionDag, NestedIrqPreemptionAndResumeEdges) {
  auto program = isa::assemble(kNestedIrq);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ExecutionDag dag{isa::SymbolMap(program.value())};
  soc.set_frame_observer(&dag);
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
  soc.irq_router().configure(soc.srcs().stm1, 20, periph::IrqTarget::kTc);
  soc.reset(program.value().entry());
  soc.run(200'000);
  ASSERT_TRUE(soc.tc().halted());

  check_invariants(soc, dag);
  const DagAnalysis& a = dag.analysis();
  const auto task_of = [&](u32 id) { return a.nodes[id].task; };
  bool main_to_low = false;
  bool low_to_high = false;
  bool high_resumes_low = false;
  for (const DagEdge& e : a.edges) {
    if (e.kind == DagEdgeKind::kPreempt) {
      if (task_of(e.from) == "main" && task_of(e.to) == "isr_low") {
        main_to_low = true;
      }
      if (task_of(e.from) == "isr_low" && task_of(e.to) == "isr_high") {
        low_to_high = true;
      }
    }
    if (e.kind == DagEdgeKind::kResume && task_of(e.from) == "isr_high" &&
        task_of(e.to) == "isr_low") {
      high_resumes_low = true;
      // Resume weight = how long the low handler sat suspended.
      EXPECT_GT(e.weight, 0u);
      EXPECT_EQ(a.nodes[e.to].preempted_cycles, e.weight);
    }
  }
  EXPECT_TRUE(main_to_low);
  EXPECT_TRUE(low_to_high);
  EXPECT_TRUE(high_resumes_low);
  // Nesting shows up in the per-task rollup too: isr_low was preempted.
  const profiling::DagTaskSummary* low = a.find_task("isr_low");
  ASSERT_NE(low, nullptr);
  EXPECT_GT(low->preempted_cycles, 0u);
}

// ---- settled attribution ---------------------------------------------

// The TC's only handler is its vector stub: every activation of it ends
// with an RFE that never retired in a named function, so its node closes
// unnamed ("irq@10"). Such a node is settled by closing, not by a name.
constexpr std::string_view kStubIsr = R"(
    .text 0x80000140       ; priority 10: the whole handler
    rfe
    .text 0x80001000
main:
    di
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 300
    st.w  d0, [a14+8]      ; CMP0 period 300 -> prio 10
    movd  d0, 1
    st.w  d0, [a14+16]
    ei
    movd  d1, 0
    movd  d2, 6000
count:
    addi  d1, d1, 1
    jlt   d1, d2, count
    halt
)";

/// Runs `soc` to `budget` in seeded chunks of 1..32 cycles. After each
/// chunk it asks task_settled for every passed TC cycle not yet settled
/// and reads task_at for those that are. Every such answer must equal
/// the end-of-run task_at, and every cycle more than `bound` cycles
/// before the end must have settled within `bound` cycles of itself.
void expect_settled_answers_final(soc::Soc& soc, const ExecutionDag& dag,
                                  u64 budget, u64 bound) {
  struct Answer {
    Cycle cycle;
    Cycle settled_at;
    std::string task;
  };
  std::vector<Answer> answers;
  std::vector<Cycle> pending;
  Cycle next = soc.cycle() + 1;
  Prng rng(budget);
  while (soc.cycle() < budget && !soc.tc().halted()) {
    const u64 chunk = std::min<u64>(1 + rng.next_below(32),
                                    budget - soc.cycle());
    const u64 ran = soc.run(chunk);
    for (; next <= soc.cycle(); ++next) pending.push_back(next);
    std::erase_if(pending, [&](Cycle c) {
      if (!dag.task_settled(profiling::kDagCoreTc, c)) return false;
      answers.push_back({c, soc.cycle(), dag.task_at(profiling::kDagCoreTc, c)});
      return true;
    });
    if (ran < chunk) break;  // halted or idle deadlock
  }
  const Cycle end = soc.cycle();
  ASSERT_GT(end, 2 * bound);

  u64 changed = 0;
  u64 late = 0;
  for (const Answer& a : answers) {
    const std::string final_task = dag.task_at(profiling::kDagCoreTc, a.cycle);
    if (a.task != final_task && changed++ == 0) {
      ADD_FAILURE() << "cycle " << a.cycle << " settled at " << a.settled_at
                    << " as '" << a.task << "', ends as '" << final_task
                    << "'";
    }
    if (a.cycle + bound < end && a.settled_at > a.cycle + bound) ++late;
  }
  for (const Cycle c : pending) {
    if (c + bound < end) ++late;
  }
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(late, 0u) << "of " << end << " cycles";
  EXPECT_GE(answers.size() + bound, end);
}

TEST(ExecutionDag, TaskSettledOnlyOnceTheAnswerIsFinal) {
  constexpr u64 kBound = 4'000;
  {
    SCOPED_TRACE("busy engine");
    auto built = workload::build_engine_workload(engine_options());
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    soc::Soc soc(test::small_config());
    ExecutionDag dag{isa::SymbolMap(built.value().program)};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(workload::install_engine(soc, built.value()).is_ok());
    expect_settled_answers_final(soc, dag, 300'000, kBound);
  }
  {
    SCOPED_TRACE("WFI engine");
    workload::EngineOptions opt;
    opt.idle_background = true;
    opt.halt_after_revs = 2;
    auto built = workload::build_engine_workload(opt);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    soc::Soc soc(test::small_config());
    ExecutionDag dag{isa::SymbolMap(built.value().program)};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(workload::install_engine(soc, built.value()).is_ok());
    expect_settled_answers_final(soc, dag, 300'000, kBound);
  }
  {
    SCOPED_TRACE("transmission");
    workload::TransmissionOptions opt;
    opt.halt_after_tasks = 6;
    auto built = workload::build_transmission_workload(opt);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    soc::Soc soc(test::small_config());
    ExecutionDag dag{isa::SymbolMap(built.value().program)};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(workload::install_transmission(soc, built.value()).is_ok());
    expect_settled_answers_final(soc, dag, 300'000, kBound);
  }
  for (const std::string_view source : {kNestedIrq, kStubIsr}) {
    SCOPED_TRACE(source == kNestedIrq ? "nested irq" : "stub isr");
    auto program = isa::assemble(source);
    ASSERT_TRUE(program.is_ok()) << program.status().to_string();
    soc::Soc soc(test::small_config());
    ExecutionDag dag{isa::SymbolMap(program.value())};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(soc.load(program.value()).is_ok());
    soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
    soc.irq_router().configure(soc.srcs().stm1, 20, periph::IrqTarget::kTc);
    soc.reset(program.value().entry());
    expect_settled_answers_final(soc, dag, 200'000, 200);
    EXPECT_TRUE(soc.tc().halted());
  }
}

// ---- deterministic bottleneck labels --------------------------------

TEST(ExecutionDag, LabelsAndHashAreDeterministic) {
  auto built = workload::build_engine_workload(engine_options());
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  u64 reference_hash = 0;
  std::vector<std::pair<std::string, std::string>> reference_labels;
  for (int rep = 0; rep < 2; ++rep) {
    soc::Soc soc(test::small_config());
    ExecutionDag dag{isa::SymbolMap(built.value().program)};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(workload::install_engine(soc, built.value()).is_ok());
    soc.run(5'000'000);
    ASSERT_TRUE(soc.tc().halted());

    const DagAnalysis& a = dag.analysis();
    std::vector<std::pair<std::string, std::string>> labels;
    for (const profiling::DagTaskSummary& t : a.tasks) {
      labels.emplace_back(t.task, to_string(t.label));
      EXPECT_STRNE(to_string(t.label), "?") << t.task;
      // Idle windows label idle; running code never does.
      EXPECT_EQ(t.kind == DagNodeKind::kIdle,
                t.label == profiling::BottleneckLabel::kIdle)
          << t.task;
    }
    if (rep == 0) {
      reference_hash = a.hash;
      reference_labels = labels;
      EXPECT_NE(a.hash, 0u);
    } else {
      EXPECT_EQ(a.hash, reference_hash);
      EXPECT_EQ(labels, reference_labels);
    }
  }
}

// ---- bit-identity: fast-forward modes and host job counts -----------

u64 engine_dag_hash(bool fast_forward) {
  auto built = workload::build_engine_workload(engine_options());
  EXPECT_TRUE(built.is_ok());
  soc::SocConfig config = test::small_config();
  config.fast_forward = fast_forward;
  soc::Soc soc(config);
  ExecutionDag dag{isa::SymbolMap(built.value().program)};
  soc.set_frame_observer(&dag);
  EXPECT_TRUE(workload::install_engine(soc, built.value()).is_ok());
  soc.run(5'000'000);
  EXPECT_TRUE(soc.tc().halted());
  return dag.analysis().hash;
}

TEST(ExecutionDag, HashIdenticalAcrossFastForwardAndJobs) {
  const u64 reference = engine_dag_hash(false);
  ASSERT_NE(reference, 0u);
  EXPECT_EQ(engine_dag_hash(true), reference);

  // Each pool job owns its Soc + DAG; any worker count must reproduce
  // the serial hash exactly (same contract as the §6 sweeps).
  for (const unsigned jobs : {1u, 2u, 8u}) {
    host::SimPool pool(jobs);
    const std::vector<u64> hashes =
        pool.map<u64>(4, [&](usize) { return engine_dag_hash(true); });
    for (const u64 h : hashes) EXPECT_EQ(h, reference) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace audo
