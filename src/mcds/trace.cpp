#include "mcds/trace.hpp"

#include <cassert>

namespace audo::mcds {
namespace {

constexpr unsigned kKindBits = 3;
constexpr unsigned kSourceBits = 2;
// Room for all but the longest units (syncs with large absolute values,
// rates with many counts), so encode() builds most units in one buffer.
constexpr usize kUnitReserveBytes = 24;

constexpr u32 zigzag(i32 v) {
  return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
}
constexpr i32 unzigzag(u32 v) {
  return static_cast<i32>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

TraceMessage TraceEncoder::make_sync(MsgSource source, Cycle cycle, Addr pc,
                                     Addr data_anchor) const {
  TraceMessage msg;
  msg.kind = MsgKind::kSync;
  msg.source = source;
  msg.cycle = cycle;
  msg.pc = pc;
  msg.addr = data_anchor;
  return msg;
}

void TraceEncoder::reset_anchors() {
  for (Anchor& a : anchors_) a = Anchor{};
}

EncodedMessage TraceEncoder::encode(const TraceMessage& msg) {
  BitWriter w;
  w.reserve(kUnitReserveBytes);
  w.write(static_cast<u64>(msg.kind), kKindBits);
  w.write(static_cast<u64>(msg.source), kSourceBits);

  Anchor& core_anchor = anchors_[static_cast<unsigned>(msg.source)];
  Anchor& time_anchor = anchors_[static_cast<unsigned>(MsgSource::kChip)];

  auto write_timestamp = [&] {
    if (time_anchor.valid && msg.cycle >= time_anchor.cycle) {
      w.write(0, 1);  // delta form
      w.write_varint(msg.cycle - time_anchor.cycle);
    } else {
      w.write(1, 1);  // absolute form
      w.write_varint(msg.cycle);
    }
  };

  switch (msg.kind) {
    case MsgKind::kSync:
      w.write_varint(msg.cycle);
      w.write_varint(msg.pc);
      w.write_varint(msg.addr);
      w.write_varint(msg.instr_count);
      core_anchor = Anchor{true, msg.cycle, msg.pc, msg.addr};
      time_anchor.valid = true;
      time_anchor.cycle = msg.cycle;
      break;
    case MsgKind::kFlow:
      write_timestamp();
      w.write_varint(msg.instr_count);
      if (core_anchor.valid) {
        w.write(0, 1);
        const i32 delta_words =
            static_cast<i32>(msg.pc - core_anchor.pc) / 4;
        w.write_varint(zigzag(delta_words));
      } else {
        w.write(1, 1);
        w.write_varint(msg.pc);
      }
      break;
    case MsgKind::kTick:
      write_timestamp();
      w.write(msg.instr_count & 0x3, 2);
      break;
    case MsgKind::kData: {
      write_timestamp();
      w.write(msg.write ? 1 : 0, 1);
      const unsigned size_code = msg.bytes == 4 ? 2 : msg.bytes == 2 ? 1 : 0;
      w.write(size_code, 2);
      if (core_anchor.valid) {
        w.write(0, 1);
        w.write_varint(
            zigzag(static_cast<i32>(msg.addr - core_anchor.data_addr)));
      } else {
        w.write(1, 1);
        w.write_varint(msg.addr);
      }
      w.write_varint(msg.value);
      break;
    }
    case MsgKind::kRate:
      write_timestamp();
      w.write(msg.group & 0x7, 3);
      w.write(msg.counts.size() & 0xF, 4);
      w.write_varint(msg.basis);
      for (u32 c : msg.counts) w.write_varint(c);
      break;
    case MsgKind::kWatchpoint:
      write_timestamp();
      w.write(msg.id, 8);
      break;
    case MsgKind::kIrq:
      write_timestamp();
      w.write(msg.irq_entry ? 1 : 0, 1);
      w.write(msg.id, 8);
      break;
    case MsgKind::kOverflow:
      write_timestamp();
      break;
  }

  bits_ += w.bit_count();
  bytes_ += w.byte_count();
  return EncodedMessage{w.take()};
}

Result<std::vector<TraceMessage>> TraceDecoder::decode(
    const std::vector<EncodedMessage>& units) {
  struct Anchor {
    bool valid = false;
    Cycle cycle = 0;
    Addr pc = 0;
    Addr data_addr = 0;
  };
  Anchor anchors[3];
  Anchor& time_anchor = anchors[static_cast<unsigned>(MsgSource::kChip)];

  std::vector<TraceMessage> out;
  out.reserve(units.size());

  for (const EncodedMessage& unit : units) {
    BitReader r(unit.bytes);
    if (r.remaining_less_than(kKindBits + kSourceBits)) {
      return error(StatusCode::kDecodeError, "truncated trace unit");
    }
    TraceMessage msg;
    const u64 kind_raw = r.read(kKindBits);
    if (kind_raw > static_cast<u64>(MsgKind::kOverflow)) {
      return error(StatusCode::kDecodeError, "bad message kind");
    }
    msg.kind = static_cast<MsgKind>(kind_raw);
    const u64 source_raw = r.read(kSourceBits);
    if (source_raw > static_cast<u64>(MsgSource::kChip)) {
      return error(StatusCode::kDecodeError, "bad message source");
    }
    msg.source = static_cast<MsgSource>(source_raw);
    Anchor& core_anchor = anchors[static_cast<unsigned>(msg.source)];

    auto read_timestamp = [&]() -> Cycle {
      const bool absolute = r.read(1) != 0;
      const u64 v = r.read_varint();
      return absolute ? v : time_anchor.cycle + v;
    };

    switch (msg.kind) {
      case MsgKind::kSync:
        msg.cycle = r.read_varint();
        msg.pc = static_cast<Addr>(r.read_varint());
        msg.addr = static_cast<Addr>(r.read_varint());
        msg.instr_count = static_cast<u32>(r.read_varint());
        core_anchor = Anchor{true, msg.cycle, msg.pc, msg.addr};
        time_anchor.valid = true;
        time_anchor.cycle = msg.cycle;
        break;
      case MsgKind::kFlow: {
        msg.cycle = read_timestamp();
        msg.instr_count = static_cast<u32>(r.read_varint());
        const bool absolute = r.read(1) != 0;
        const u32 raw = static_cast<u32>(r.read_varint());
        msg.pc = absolute
                     ? raw
                     : core_anchor.pc + static_cast<Addr>(unzigzag(raw) * 4);
        break;
      }
      case MsgKind::kTick:
        msg.cycle = read_timestamp();
        msg.instr_count = static_cast<u32>(r.read(2));
        break;
      case MsgKind::kData: {
        msg.cycle = read_timestamp();
        msg.write = r.read(1) != 0;
        const unsigned size_code = static_cast<unsigned>(r.read(2));
        msg.bytes = size_code == 2 ? 4 : size_code == 1 ? 2 : 1;
        const bool absolute = r.read(1) != 0;
        const u32 raw = static_cast<u32>(r.read_varint());
        msg.addr = absolute
                       ? raw
                       : core_anchor.data_addr + static_cast<Addr>(unzigzag(raw));
        msg.value = static_cast<u32>(r.read_varint());
        break;
      }
      case MsgKind::kRate: {
        msg.cycle = read_timestamp();
        msg.group = static_cast<u8>(r.read(3));
        const unsigned n = static_cast<unsigned>(r.read(4));
        msg.basis = static_cast<u32>(r.read_varint());
        msg.counts.resize(n);
        for (unsigned i = 0; i < n; ++i) {
          msg.counts[i] = static_cast<u32>(r.read_varint());
        }
        break;
      }
      case MsgKind::kWatchpoint:
        msg.cycle = read_timestamp();
        msg.id = static_cast<u8>(r.read(8));
        break;
      case MsgKind::kIrq:
        msg.cycle = read_timestamp();
        msg.irq_entry = r.read(1) != 0;
        msg.id = static_cast<u8>(r.read(8));
        break;
      case MsgKind::kOverflow:
        msg.cycle = read_timestamp();
        break;
    }
    // A unit shorter than its own encoding (corrupted EMEM dump, partial
    // DAP download) zero-fills the missing fields, and a varint too long
    // for 64 bits reads as 0; both latch the reader's error flag —
    // surface it rather than emit garbage.
    if (r.failed()) {
      return error(StatusCode::kDecodeError,
                   "truncated or malformed trace unit");
    }
    out.push_back(std::move(msg));
  }
  return out;
}

}  // namespace audo::mcds
