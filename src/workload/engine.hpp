// Synthetic engine-control application — the stand-in for the customer
// software the paper profiles (see DESIGN.md, substitutions table).
//
// Structure (all of it real TRC code running on the simulated SoC):
//  * crank-tooth ISR (highest rate): reads crank/ADC state, interpolates
//    ignition & fuel from 2-D lookup tables (flash const data — or DSPR
//    when the §5 scratchpad optimization is applied);
//  * crank-sync ISR: revolution counter;
//  * ADC ISR: IIR low-pass of the sampled sensor (optionally offloaded
//    to the PCP, or replaced by a DMA channel — the HW/SW split options
//    §1/§4 describe);
//  * CAN RX ISR: message ring buffer (optionally on the PCP);
//  * 10ms STM task: PI controller + CAN TX;
//  * background: flash diagnostics checksum, watchdog service, EEPROM-
//    emulation journal writes to the data flash.
#pragma once

#include <string>

#include "common/fields.hpp"
#include "common/status.hpp"
#include "isa/program.hpp"
#include "soc/soc.hpp"

namespace audo::workload {

struct EngineOptions {
  // ---- HW/SW partitioning ----
  bool pcp_offload = false;     // ADC + CAN RX serviced by the PCP
  bool use_dma_for_adc = false; // DMA channel copies ADC results (no ISR)

  // ---- software structure ----
  u32 table_dim = 32;            // ignition/fuel maps are dim x dim words
  bool tables_in_dspr = false;   // §5 scratchpad-mapping optimization
  /// 2x2 neighbourhood interpolation in the tooth ISR (8 map reads per
  /// tooth, as real ignition-map lookups do) instead of 2 point reads.
  bool interpolate = true;
  /// The tooth ISR measures its own entry latency (cycles from the tooth
  /// edge to the first ISR instruction, via the crank TOOTH_TIME SFR and
  /// CCNT) into the DSPR variables lat_max / lat_sum — the hard-real-time
  /// figure of merit for partitioning studies.
  bool measure_latency = true;
  u32 diag_words = 64;           // background checksum block length
  /// Diagnostics read flash through the non-cached alias (flash
  /// integrity checks must see the array, not the cache).
  bool diag_uncached = false;
  u32 diag_stride_bytes = 4;     // >32 defeats line buffers (worst case)
  u32 journal_every = 16;        // EEPROM write every N background loops
  /// Place the CAN message ring in the LMU (bus SRAM) instead of the
  /// DSPR — gives the LMU a real role for SRAM-latency studies.
  bool can_ring_in_lmu = false;
  u32 halt_after_revs = 0;       // 0 = run until the cycle budget
  /// Halt after N background iterations — a *compute-bound* completion
  /// criterion (cycles-to-N-revolutions is crank-bound and insensitive
  /// to CPU speed; use this for architecture comparisons).
  u32 halt_after_bg = 0;
  /// Replace the background loop (diagnostics + watchdog service +
  /// journal) with a WFI park: all work happens in the ISRs and the TC
  /// idles between interrupts. This is the idle-heavy shape real
  /// event-driven ECU firmware has between crank teeth, and the shape
  /// the SoC fast-forward path (soc/soc.hpp) accelerates. Requires
  /// wdt_period == 0 (nothing services the watchdog) and ignores
  /// halt_after_bg (there are no background iterations).
  bool idle_background = false;

  // ---- environment ----
  u32 rpm = 3000;
  u32 crank_time_scale = 50;  // compress engine time into short sims
  u32 stm_period = 20'000;    // "10 ms task" in scaled cycles
  u32 adc_period = 2'500;
  u32 can_rx_period = 9'000;
  u32 wdt_period = 0;         // 0 = watchdog disabled

  // ---- interrupt priorities ----
  u8 prio_stm = 10;
  u8 prio_dma_done = 15;
  u8 prio_can_rx = 20;
  u8 prio_adc = 30;
  u8 prio_tooth = 40;
  u8 prio_sync = 45;
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<EngineOptions> Self, typename V>
void visit_fields(Self& o, V& v) {
  v("pcp_offload", o.pcp_offload);
  v("use_dma_for_adc", o.use_dma_for_adc);
  v("table_dim", o.table_dim);
  v("tables_in_dspr", o.tables_in_dspr);
  v("interpolate", o.interpolate);
  v("measure_latency", o.measure_latency);
  v("diag_words", o.diag_words);
  v("diag_uncached", o.diag_uncached);
  v("diag_stride_bytes", o.diag_stride_bytes);
  v("journal_every", o.journal_every);
  v("can_ring_in_lmu", o.can_ring_in_lmu);
  v("halt_after_revs", o.halt_after_revs);
  v("halt_after_bg", o.halt_after_bg);
  v("idle_background", o.idle_background);
  v("rpm", o.rpm);
  v("crank_time_scale", o.crank_time_scale);
  v("stm_period", o.stm_period);
  v("adc_period", o.adc_period);
  v("can_rx_period", o.can_rx_period);
  v("wdt_period", o.wdt_period);
  v("prio_stm", o.prio_stm);
  v("prio_dma_done", o.prio_dma_done);
  v("prio_can_rx", o.prio_can_rx);
  v("prio_adc", o.prio_adc);
  v("prio_tooth", o.prio_tooth);
  v("prio_sync", o.prio_sync);
}

struct EngineWorkload {
  isa::Program program;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  EngineOptions options;
  std::string source;  // the generated assembly (for docs and debugging)
};

/// Generate and assemble the application.
Result<EngineWorkload> build_engine_workload(const EngineOptions& options);

/// Configure the SoC side: crank wheel speed/time scale, interrupt
/// routing (including the PCP / DMA partitioning), DMA channel setup.
/// Call after Soc construction, before reset/run.
void configure_engine(soc::Soc& soc, const EngineOptions& options);

/// Convenience: load + configure + reset an SoC (or the SoC inside an
/// EmulationDevice — pass ed.soc()).
Status install_engine(soc::Soc& soc, const EngineWorkload& workload);

}  // namespace audo::workload
