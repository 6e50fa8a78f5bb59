// Synthetic transmission-control (TCU) application — a second "customer"
// with the same silicon but a very different software structure (§1/§4:
// "from a microcontroller manufacturer perspective there are many
// customers and many applications").
//
// Where the engine application is dominated by the per-tooth ignition
// ISR, the TCU's hot spot is its periodic task:
//  * turbine-speed pulse ISR (crank wheel reused as the turbine sensor):
//    ultra-light pulse counter;
//  * CAN RX ISR: wheel-speed frames into a moving-average window;
//  * 10 ms STM task (the heavy one): gear decision from a shift map
//    (flash lookup with hysteresis), slip computation with divisions,
//    line-pressure PI control, solenoid output;
//  * background: adaptation-value journalling to the data flash,
//    shift-map CRC, watchdog service.
#pragma once

#include <string>

#include "common/fields.hpp"
#include "common/status.hpp"
#include "isa/program.hpp"
#include "soc/soc.hpp"

namespace audo::workload {

struct TransmissionOptions {
  u32 map_dim = 16;           // shift/pressure maps are dim x dim words
  u32 rpm = 2500;             // engine/turbine speed
  u32 time_scale = 80;
  u32 stm_period = 15'000;    // the periodic control task
  u32 can_rx_period = 7'001;  // wheel-speed frames (co-prime period)
  u32 adc_period = 3'001;     // line-pressure sensor
  u32 wdt_period = 0;
  u32 halt_after_tasks = 0;   // halt after N periodic tasks (0 = run on)

  u8 prio_stm = 25;
  u8 prio_can_rx = 15;
  u8 prio_adc = 18;
  u8 prio_pulse = 35;  // turbine pulse
  u8 prio_sync = 38;
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<TransmissionOptions> Self, typename V>
void visit_fields(Self& o, V& v) {
  v("map_dim", o.map_dim);
  v("rpm", o.rpm);
  v("time_scale", o.time_scale);
  v("stm_period", o.stm_period);
  v("can_rx_period", o.can_rx_period);
  v("adc_period", o.adc_period);
  v("wdt_period", o.wdt_period);
  v("halt_after_tasks", o.halt_after_tasks);
  v("prio_stm", o.prio_stm);
  v("prio_can_rx", o.prio_can_rx);
  v("prio_adc", o.prio_adc);
  v("prio_pulse", o.prio_pulse);
  v("prio_sync", o.prio_sync);
}

struct TransmissionWorkload {
  isa::Program program;
  Addr tc_entry = 0;
  TransmissionOptions options;
  std::string source;
};

Result<TransmissionWorkload> build_transmission_workload(
    const TransmissionOptions& options);

void configure_transmission(soc::Soc& soc, const TransmissionOptions& options);

Status install_transmission(soc::Soc& soc, const TransmissionWorkload& workload);

}  // namespace audo::workload
