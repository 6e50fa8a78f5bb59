#include "ed/emulation_device.hpp"

#include "soc/tracer.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"

namespace audo::ed {

EmulationDevice::EmulationDevice(const soc::SocConfig& soc_config,
                                 mcds::McdsConfig mcds_config,
                                 EdConfig ed_config)
    : soc_(soc_config),
      mcds_(std::move(mcds_config)),
      config_(ed_config),
      emem_(ed_config.emem),
      mli_(&mcds_, &emem_) {
  mcds_.set_sink(&emem_);
  // The MLI bridge gives product-chip software (a monitor routine) access
  // to the EEC through the normal SFR space.
  soc_.bridge().add_device(MliBridge::kWindowOffset, MliBridge::kWindowSize,
                           &mli_);
}

void EmulationDevice::reset(Addr tc_entry, Addr pcp_entry) {
  soc_.reset(tc_entry, pcp_entry);
  mcds_.reset();
  emem_.clear();
  drain_budget_ = 0.0;
  dap_drained_ = 0;
}

double EmulationDevice::dap_bytes_per_cycle() const {
  return static_cast<double>(config_.dap_bits_per_second) / 8.0 /
         static_cast<double>(soc_.config().clock_hz);
}

void EmulationDevice::step() {
  soc_.step();
  on_frame(soc_.frame());
}

u64 EmulationDevice::run(u64 max_cycles) {
  if (max_cycles == 0 || mcds_.break_requested()) return 0;
  return soc_.run(max_cycles, this);
}

bool EmulationDevice::on_frame(const mcds::ObservationFrame& frame) {
  telemetry::PhaseProbe* probe = soc_.phase_probe();
  if (probe != nullptr) probe->begin(telemetry::StepPhase::kMcds);
  mcds_.observe(frame);
  if (config_.stream_drain) {
    drain_budget_ += dap_bytes_per_cycle();
    if (drain_budget_ >= 1.0) {
      const u64 whole = static_cast<u64>(drain_budget_);
      dap_drained_ += emem_.drain(whole);
      drain_budget_ -= static_cast<double>(whole);
    }
  }
  if (probe != nullptr) probe->end(telemetry::StepPhase::kMcds);
  if (soc::SocTracer* tracer = soc_.tracer(); tracer != nullptr) {
    tracer->observe_eec(frame.cycle, emem_.occupancy_bytes(),
                        emem_.total_pushed_messages(),
                        mcds_.dropped_messages());
  }
  return !mcds_.break_requested();
}

u64 EmulationDevice::idle_skip_limit(const mcds::ObservationFrame& idle) {
  return config_.stream_drain ? 0 : mcds_.idle_skip_limit(idle);
}

void EmulationDevice::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  mcds_.skip_idle(idle, n);
}

void EmulationDevice::register_metrics(
    telemetry::MetricsRegistry& registry) const {
  soc_.register_metrics(registry);
  mcds_.register_metrics(registry, "mcds");
  emem_.register_metrics(registry, "emem");
  registry.counter("dap", "bytes_drained", &dap_drained_);
}

u32 EmulationDevice::tool_access(bus::AccessKind kind, Addr addr, u32 wdata) {
  bus::BusRequest req;
  req.master = bus::MasterId::kCerberus;
  req.addr = addr;
  req.kind = kind;
  req.bytes = 4;
  req.wdata = wdata;
  if (!soc_.sri().issue(cerberus_port_, req, soc_.cycle())) return 0;
  while (!cerberus_port_.done()) step();
  return cerberus_port_.take_rdata();
}

u32 EmulationDevice::tool_read32(Addr addr) {
  return tool_access(bus::AccessKind::kRead, addr, 0);
}

void EmulationDevice::tool_write32(Addr addr, u32 value) {
  tool_access(bus::AccessKind::kWrite, addr, value);
}

Result<std::vector<mcds::TraceMessage>> EmulationDevice::download_trace() {
  mcds_.flush(soc_.cycle());  // final sync: outstanding instruction counts
  emem_.download_all();
  return mcds::TraceDecoder::decode(emem_.host_units());
}

}  // namespace audo::ed
