// The MLI bridge: EEC access *from the product chip* (§3).
//
// "It is however also possible to access the EEC from the TriCore on the
// product chip part over the MLI (Micro Link Interface) bridge. This
// means that in a later development phase a tool can communicate over a
// user interface like CAN or FlexRay with a monitor routine, running on
// TriCore, which then accesses the EEC."
//
// Modelled as an SFR window the Emulation Device registers on the
// peripheral bridge: monitor software can read MCDS/EMEM status and
// stream trace bytes out through an application interface (e.g. forward
// them over the CAN model) without any debug-pin connection.
//
// SFRs (offsets within the window):
//   0x00 STATUS       ro  bit0: trace frozen, bit1: break requested,
//                         bit2: trace enabled
//   0x04 EMEM_FILL    ro  trace-buffer occupancy in bytes
//   0x08 MSG_COUNT    ro  total messages recorded
//   0x0C DROPPED      ro  messages dropped (overflow)
//   0x10 TRIG_PULSES  ro  trigger-out pulse count
//   0x14 POP_BYTE     ro  next trace byte (reading consumes it;
//                         0xFFFFFFFF when the stream is empty)
//   0x18 CLEAR_BREAK  wo  any write clears a pending MCDS break
//   0x1C OVERLAY_IDX  rw  word index into the calibration overlay
//   0x20 OVERLAY_DATA rw  read/write overlay word at OVERLAY_IDX
#pragma once

#include "emem/emem.hpp"
#include "mcds/mcds.hpp"
#include "periph/sfr_bridge.hpp"

namespace audo::ed {

class MliBridge final : public periph::SfrDevice {
 public:
  MliBridge(mcds::Mcds* mcds, emem::Emem* emem) : mcds_(mcds), emem_(emem) {}

  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// SFR window offset within the peripheral space.
  static constexpr u32 kWindowOffset = 0x5000;
  static constexpr u32 kWindowSize = 0x100;

  u64 bytes_popped() const { return bytes_popped_; }

 private:
  mcds::Mcds* mcds_;
  emem::Emem* emem_;
  u32 overlay_index_ = 0;

  // POP_BYTE streaming state: drained units are consumed byte-wise.
  usize unit_index_ = 0;
  usize byte_index_ = 0;
  u64 bytes_popped_ = 0;
};

}  // namespace audo::ed
