// MCDS trace messages: compressed, bit-packed, timestamped.
//
// The bandwidth argument of §5 ("instead of sampling by the external tool
// at least two long counters ... only a single trace message with the
// counted events is stored") only holds if message sizes are real, so
// messages are encoded to the bit and the byte counts reported to the
// EMEM/DAP models are exact.
//
// Compression scheme: values are 4-bit-group varints; addresses and
// timestamps are zigzag deltas against the most recent *sync anchor*
// (not chained message-to-message), so dropping messages — ring-mode
// overwrite, stream overflow — never corrupts later ones. Sync messages
// re-anchor a core and are emitted periodically and after overflows.
#pragma once

#include <vector>

#include "common/bitstream.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::mcds {

enum class MsgKind : u8 {
  kSync = 0,    // absolute cycle + pc + data-address anchor
  kFlow,        // program-flow discontinuity: instr count + target
  kTick,        // cycle-accurate mode: per-cycle retired count
  kData,        // data access: addr, value, write, size
  kRate,        // counter-group sample
  kWatchpoint,  // trigger-generated marker
  kIrq,         // interrupt entry/exit
  kOverflow,    // sink dropped messages before this point
};

/// Source of a message. Core-generated kinds use kTcCore/kPcpCore; rates,
/// watchpoints and overflow markers are chip-level.
enum class MsgSource : u8 { kTcCore = 0, kPcpCore = 1, kChip = 2 };

/// Decoded message (also the encoder's input).
struct TraceMessage {
  MsgKind kind = MsgKind::kSync;
  MsgSource source = MsgSource::kChip;
  Cycle cycle = 0;

  // kSync / kFlow: program counter info.
  Addr pc = 0;           // sync: anchor pc; flow: discontinuity target
  u32 instr_count = 0;   // instructions retired since the previous
                         // flow/sync/tick message of this core
  // kData.
  Addr addr = 0;
  u32 value = 0;
  bool write = false;
  u8 bytes = 4;
  // kRate.
  u8 group = 0;
  u32 basis = 0;
  std::vector<u32> counts;
  // kWatchpoint / kIrq.
  u8 id = 0;
  bool irq_entry = true;

  bool operator==(const TraceMessage&) const = default;
};

/// One encoded message: a self-framed byte unit (bit-packed internally,
/// padded to a byte boundary — the framing overhead real streams pay).
struct EncodedMessage {
  std::vector<u8> bytes;

  usize size() const { return bytes.size(); }
};

class TraceEncoder {
 public:
  /// Encode one message, updating the anchor state. The caller must
  /// encode messages in cycle order.
  EncodedMessage encode(const TraceMessage& msg);

  /// Make a sync message for `source` that re-anchors the stream
  /// (encoder inserts these; exposed for the MCDS scheduling logic).
  TraceMessage make_sync(MsgSource source, Cycle cycle, Addr pc,
                         Addr data_anchor) const;

  /// Forget all anchors (after overflow); the next messages encode
  /// absolute values until a sync re-anchors.
  void reset_anchors();

  u64 bytes_encoded() const { return bytes_; }
  u64 bits_encoded() const { return bits_; }

 private:
  struct Anchor {
    bool valid = false;
    Cycle cycle = 0;
    Addr pc = 0;
    Addr data_addr = 0;
  };

  Anchor anchors_[3];  // per MsgSource; kChip uses the cycle anchor only
  u64 bytes_ = 0;
  u64 bits_ = 0;
};

class TraceDecoder {
 public:
  /// Decode a sequence of encoded units. Units before the first kSync
  /// for a core are decoded with best-effort absolute values (exact if
  /// the encoder had no anchor either, i.e. after reset_anchors()).
  static Result<std::vector<TraceMessage>> decode(
      const std::vector<EncodedMessage>& units);
};

}  // namespace audo::mcds
