// Trace codec tests: bit-exact round trips for every message kind,
// anchor/delta compression, context resets, a randomized property-style
// stream round trip, and seeded mutants of a session's EMEM stream.
#include <gtest/gtest.h>

#include <string_view>

#include "common/bits.hpp"
#include "common/prng.hpp"
#include "mcds/trace.hpp"
#include "profiling/session.hpp"
#include "workload/transmission.hpp"

namespace audo::mcds {
namespace {

TraceMessage sync_msg(MsgSource src, Cycle cycle, Addr pc, Addr daddr) {
  TraceMessage m;
  m.kind = MsgKind::kSync;
  m.source = src;
  m.cycle = cycle;
  m.pc = pc;
  m.addr = daddr;
  return m;
}

TEST(TraceCodec, SyncRoundTrip) {
  TraceEncoder enc;
  const TraceMessage sync =
      sync_msg(MsgSource::kTcCore, 1000, 0x80001234, 0xC0000040);
  auto decoded = TraceDecoder::decode({enc.encode(sync)});
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].kind, MsgKind::kSync);
  EXPECT_EQ(decoded.value()[0].cycle, 1000u);
  EXPECT_EQ(decoded.value()[0].pc, 0x80001234u);
  EXPECT_EQ(decoded.value()[0].addr, 0xC0000040u);
}

TEST(TraceCodec, FlowDeltaCompression) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 100, 0x80001000, 0)));

  TraceMessage flow;
  flow.kind = MsgKind::kFlow;
  flow.source = MsgSource::kTcCore;
  flow.cycle = 108;
  flow.pc = 0x80001010;  // 4 words past the anchor: tiny delta
  flow.instr_count = 6;
  const EncodedMessage encoded = enc.encode(flow);
  // kind+src (5) + ts flag+varint(8)->9 + count varint (4) + abs flag (1)
  // + zigzag-delta varint(8)->8 = 27 bits -> 4 bytes.
  EXPECT_LE(encoded.size(), 4u);
  units.push_back(encoded);

  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  const TraceMessage& out = decoded.value()[1];
  EXPECT_EQ(out.kind, MsgKind::kFlow);
  EXPECT_EQ(out.cycle, 108u);
  EXPECT_EQ(out.pc, 0x80001010u);
  EXPECT_EQ(out.instr_count, 6u);
}

TEST(TraceCodec, FlowBackwardTarget) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 100, 0x80001000, 0)));
  TraceMessage flow;
  flow.kind = MsgKind::kFlow;
  flow.source = MsgSource::kTcCore;
  flow.cycle = 101;
  flow.pc = 0x80000F00;  // backward (loop)
  flow.instr_count = 2;
  units.push_back(enc.encode(flow));
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value()[1].pc, 0x80000F00u);
}

TEST(TraceCodec, AbsoluteEncodingWithoutAnchor) {
  TraceEncoder enc;  // never saw a sync
  TraceMessage flow;
  flow.kind = MsgKind::kFlow;
  flow.source = MsgSource::kTcCore;
  flow.cycle = 12345;
  flow.pc = 0xDEADBEE0;
  flow.instr_count = 1;
  auto decoded = TraceDecoder::decode({enc.encode(flow)});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value()[0].pc, 0xDEADBEE0u);
  EXPECT_EQ(decoded.value()[0].cycle, 12345u);
}

TEST(TraceCodec, DataMessageAllFields) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(
      enc.encode(sync_msg(MsgSource::kTcCore, 50, 0x80000000, 0xC0000100)));
  for (const u8 bytes : {1, 2, 4}) {
    for (const bool write : {false, true}) {
      TraceMessage data;
      data.kind = MsgKind::kData;
      data.source = MsgSource::kTcCore;
      data.cycle = 55;
      data.addr = 0xC0000104;
      data.value = 0xAB;
      data.write = write;
      data.bytes = bytes;
      units.push_back(enc.encode(data));
    }
  }
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  usize i = 1;
  for (const u8 bytes : {1, 2, 4}) {
    for (const bool write : {false, true}) {
      const TraceMessage& m = decoded.value()[i++];
      EXPECT_EQ(m.addr, 0xC0000104u);
      EXPECT_EQ(m.value, 0xABu);
      EXPECT_EQ(m.write, write);
      EXPECT_EQ(m.bytes, bytes);
    }
  }
}

TEST(TraceCodec, RateTickIrqWatchpointOverflow) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  std::vector<TraceMessage> inputs;

  TraceMessage rate;
  rate.kind = MsgKind::kRate;
  rate.source = MsgSource::kChip;
  rate.cycle = 1000;
  rate.group = 3;
  rate.basis = 100;
  rate.counts = {5, 0, 99, 1234};
  inputs.push_back(rate);

  TraceMessage tick;
  tick.kind = MsgKind::kTick;
  tick.source = MsgSource::kTcCore;
  tick.cycle = 1001;
  tick.instr_count = 3;
  inputs.push_back(tick);

  TraceMessage irq;
  irq.kind = MsgKind::kIrq;
  irq.source = MsgSource::kTcCore;
  irq.cycle = 1002;
  irq.irq_entry = true;
  irq.id = 40;
  inputs.push_back(irq);

  TraceMessage wp;
  wp.kind = MsgKind::kWatchpoint;
  wp.source = MsgSource::kChip;
  wp.cycle = 1003;
  wp.id = 9;
  inputs.push_back(wp);

  TraceMessage ovf;
  ovf.kind = MsgKind::kOverflow;
  ovf.source = MsgSource::kChip;
  ovf.cycle = 1004;
  inputs.push_back(ovf);

  for (const TraceMessage& m : inputs) units.push_back(enc.encode(m));
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), inputs.size());
  EXPECT_EQ(decoded.value()[0].counts, (std::vector<u32>{5, 0, 99, 1234}));
  EXPECT_EQ(decoded.value()[0].basis, 100u);
  EXPECT_EQ(decoded.value()[1].instr_count, 3u);
  EXPECT_EQ(decoded.value()[2].id, 40);
  EXPECT_TRUE(decoded.value()[2].irq_entry);
  EXPECT_EQ(decoded.value()[3].id, 9);
  EXPECT_EQ(decoded.value()[4].kind, MsgKind::kOverflow);
  for (usize i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].cycle, inputs[i].cycle);
  }
}

TEST(TraceCodec, DroppedMessagesDoNotCorruptLaterOnes) {
  // Deltas are anchored at syncs, so removing intermediate messages (ring
  // overwrite) must leave later messages decodable.
  TraceEncoder enc;
  std::vector<EncodedMessage> all;
  all.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 10, 0x80000000, 0)));
  for (int i = 1; i <= 5; ++i) {
    TraceMessage flow;
    flow.kind = MsgKind::kFlow;
    flow.source = MsgSource::kTcCore;
    flow.cycle = 10 + i;
    flow.pc = 0x80000000 + i * 16;
    flow.instr_count = 4;
    all.push_back(enc.encode(flow));
  }
  // Drop messages 1..3 (keep sync + last two flows).
  std::vector<EncodedMessage> kept = {all[0], all[4], all[5]};
  auto decoded = TraceDecoder::decode(kept);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value()[1].pc, 0x80000040u);
  EXPECT_EQ(decoded.value()[2].pc, 0x80000050u);
  EXPECT_EQ(decoded.value()[1].cycle, 14u);
}

TEST(TraceCodec, PerCoreAnchorsAreIndependent) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 10, 0x80000000, 0)));
  units.push_back(enc.encode(sync_msg(MsgSource::kPcpCore, 11, 0xD0000000, 0)));
  TraceMessage tc_flow;
  tc_flow.kind = MsgKind::kFlow;
  tc_flow.source = MsgSource::kTcCore;
  tc_flow.cycle = 12;
  tc_flow.pc = 0x80000020;
  units.push_back(enc.encode(tc_flow));
  TraceMessage pcp_flow;
  pcp_flow.kind = MsgKind::kFlow;
  pcp_flow.source = MsgSource::kPcpCore;
  pcp_flow.cycle = 13;
  pcp_flow.pc = 0xD0000040;
  units.push_back(enc.encode(pcp_flow));
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value()[2].pc, 0x80000020u);
  EXPECT_EQ(decoded.value()[3].pc, 0xD0000040u);
}

TEST(TraceCodec, ResetAnchorsForcesAbsoluteButStaysDecodable) {
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 10, 0x80000000, 0)));
  enc.reset_anchors();  // overflow happened
  TraceMessage flow;
  flow.kind = MsgKind::kFlow;
  flow.source = MsgSource::kTcCore;
  flow.cycle = 20;
  flow.pc = 0x80000100;
  units.push_back(enc.encode(flow));
  // Decoder still has its anchor (it saw the sync) but the message is
  // encoded absolutely, so it must decode correctly either way.
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value()[1].pc, 0x80000100u);
  EXPECT_EQ(decoded.value()[1].cycle, 20u);
}

TEST(TraceCodec, RandomStreamRoundTripProperty) {
  Prng prng(2024);
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  std::vector<TraceMessage> inputs;
  Cycle cycle = 100;
  Addr pc = 0x80000000;

  for (int i = 0; i < 2000; ++i) {
    cycle += prng.next_below(50);
    TraceMessage m;
    m.cycle = cycle;
    m.source = prng.chance(0.2) ? MsgSource::kPcpCore : MsgSource::kTcCore;
    const u64 pick = prng.next_below(10);
    if (pick < 2 || i == 0) {
      m.kind = MsgKind::kSync;
      m.pc = 0x80000000 + static_cast<Addr>(prng.next_below(1 << 20)) * 4;
      m.addr = 0xC0000000 + static_cast<Addr>(prng.next_below(1 << 16));
      pc = m.pc;
    } else if (pick < 6) {
      m.kind = MsgKind::kFlow;
      pc = pc + static_cast<Addr>(prng.next_range(-2000, 2000)) * 4;
      m.pc = pc;
      m.instr_count = static_cast<u32>(prng.next_below(200));
    } else if (pick < 8) {
      m.kind = MsgKind::kData;
      m.addr = 0xC0000000 + static_cast<Addr>(prng.next_below(1 << 16));
      m.value = prng.next_u32();
      m.write = prng.chance(0.5);
      m.bytes = static_cast<u8>(1u << prng.next_below(3));
    } else {
      m.kind = MsgKind::kRate;
      m.source = MsgSource::kChip;
      m.group = static_cast<u8>(prng.next_below(8));
      m.basis = static_cast<u32>(1 + prng.next_below(10000));
      const unsigned n = 1 + static_cast<unsigned>(prng.next_below(8));
      for (unsigned k = 0; k < n; ++k) {
        m.counts.push_back(static_cast<u32>(prng.next_below(100000)));
      }
    }
    inputs.push_back(m);
    units.push_back(enc.encode(m));
  }
  auto decoded = TraceDecoder::decode(units);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), inputs.size());
  for (usize i = 0; i < inputs.size(); ++i) {
    const TraceMessage& in = inputs[i];
    const TraceMessage& out = decoded.value()[i];
    EXPECT_EQ(out.kind, in.kind) << i;
    EXPECT_EQ(out.cycle, in.cycle) << i;
    switch (in.kind) {
      case MsgKind::kSync:
      case MsgKind::kFlow:
        EXPECT_EQ(out.pc, in.pc) << i;
        break;
      case MsgKind::kData:
        EXPECT_EQ(out.addr, in.addr) << i;
        EXPECT_EQ(out.value, in.value) << i;
        EXPECT_EQ(out.write, in.write) << i;
        EXPECT_EQ(out.bytes, in.bytes) << i;
        break;
      case MsgKind::kRate:
        EXPECT_EQ(out.counts, in.counts) << i;
        EXPECT_EQ(out.basis, in.basis) << i;
        break;
      default:
        break;
    }
  }
  // Compression sanity: the stream must be far smaller than naive
  // 16-byte-per-message encodings.
  EXPECT_LT(enc.bytes_encoded(), inputs.size() * 12);
  // The wire format itself, pinned: a layout change made the same way in
  // encoder and decoder would still round-trip, but it moves these
  // figures (and with them the trace-bandwidth numbers built on them).
  u64 hash = kFnvOffset;
  for (const EncodedMessage& unit : units) {
    hash = fnv1a(hash, unit.size());
    hash = fnv1a(hash, std::string_view(
                           reinterpret_cast<const char*>(unit.bytes.data()),
                           unit.bytes.size()));
  }
  EXPECT_EQ(hash, 9677671187131270052ull);
  EXPECT_EQ(enc.bits_encoded(), 176673u);
  EXPECT_EQ(enc.bytes_encoded(), 23085u);
}

TEST(TraceCodec, DecodeRejectsGarbage) {
  EncodedMessage junk;
  junk.bytes = {0xFF, 0xFF};  // kind 7 = overflow, then trailing bits: fine
  // A truly empty unit is an error.
  EncodedMessage empty;
  auto decoded = TraceDecoder::decode({empty});
  EXPECT_FALSE(decoded.is_ok());
}

// ---- error paths (corrupted EMEM dumps, partial DAP downloads) -------

TEST(TraceCodec, TruncatedUnitIsDecodeErrorNotGarbage) {
  // Chop a valid sync unit at every possible byte boundary: each prefix
  // must come back as kDecodeError (the BitReader latches its error flag
  // and the decoder refuses to emit the zero-filled message), never decode
  // into a bogus message and never touch out-of-range memory.
  TraceEncoder enc;
  const EncodedMessage full =
      enc.encode(sync_msg(MsgSource::kTcCore, 123456, 0x80001234, 0xC0000040));
  ASSERT_GT(full.bytes.size(), 1u);
  for (usize keep = 0; keep + 1 < full.bytes.size(); ++keep) {
    EncodedMessage cut;
    cut.bytes.assign(full.bytes.begin(), full.bytes.begin() + keep);
    auto decoded = TraceDecoder::decode({cut});
    ASSERT_FALSE(decoded.is_ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeError);
  }
  // The untruncated unit still decodes.
  auto ok = TraceDecoder::decode({full});
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value()[0].pc, 0x80001234u);
}

TEST(TraceCodec, TruncatedMidStreamUnitFailsWholeDecode) {
  // A damaged unit in the middle of an otherwise good stream: the decode
  // reports the error instead of silently resynchronizing past it (the
  // host cannot know how many messages the hole swallowed).
  TraceEncoder enc;
  std::vector<EncodedMessage> units;
  units.push_back(enc.encode(sync_msg(MsgSource::kTcCore, 10, 0x80000000, 0)));
  TraceMessage data;
  data.kind = MsgKind::kData;
  data.source = MsgSource::kTcCore;
  data.cycle = 12;
  data.addr = 0xC0000104;
  data.value = 0xDEADBEEF;
  data.write = true;
  data.bytes = 4;
  EncodedMessage damaged = enc.encode(data);
  ASSERT_GT(damaged.bytes.size(), 1u);
  damaged.bytes.pop_back();
  units.push_back(damaged);
  auto decoded = TraceDecoder::decode(units);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeError);
}

TEST(TraceCodec, BadSourceFieldIsDecodeError) {
  // kSourceBits = 2 but only sources 0..2 exist; raw source 3 must be
  // rejected (it would otherwise index past the decoder's anchor array).
  EncodedMessage unit;
  // Bits LSB-first: kind = 0 (kSync, 3 bits), source = 3 (2 bits), then
  // plausible varint payload so only the source field is at fault.
  unit.bytes = {0b0001'1000, 0x00, 0x00, 0x00};
  auto decoded = TraceDecoder::decode({unit});
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeError);
}

TEST(TraceCodec, OverlongVarintIsDecodeError) {
  // A sync unit whose cycle varint runs on for 29 continuation nibbles:
  // 90 payload bits cannot be a 64-bit value. EMEM dumps are external
  // bytes, so this is a decode error, not a shift past the value's width.
  BitWriter w;
  w.write(static_cast<u64>(MsgKind::kSync), 3);
  w.write(static_cast<u64>(MsgSource::kTcCore), 2);
  for (int i = 0; i < 29; ++i) w.write(0xF, 4);  // payload 7, continue
  w.write(0x7, 4);                               // terminator
  for (int i = 0; i < 3; ++i) w.write(0, 4);     // pc, addr, instr_count
  EncodedMessage unit;
  unit.bytes = w.bytes();
  auto decoded = TraceDecoder::decode({unit});
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeError);

  // The longest legal varint, 22 nibbles for a full 64-bit value, still
  // decodes.
  TraceEncoder enc;
  const EncodedMessage max_cycle = enc.encode(
      sync_msg(MsgSource::kTcCore, ~Cycle{0}, 0x80000000, 0xC0000000));
  auto ok = TraceDecoder::decode({max_cycle});
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value()[0].cycle, ~Cycle{0});
}

TEST(TraceCodec, DecodeAfterLostAnchorResyncs) {
  // Ring overflow drops the sync that anchored a core's deltas. The
  // encoder signals this (kOverflow + reset_anchors) and re-anchors with
  // a fresh sync; decoding the post-overflow tail alone — the realistic
  // EMEM download shape — must reproduce the re-anchored stream exactly.
  TraceEncoder enc;
  std::vector<EncodedMessage> tail;
  // Pre-overflow traffic whose units never reach the host.
  enc.encode(sync_msg(MsgSource::kTcCore, 10, 0x80000000, 0xC0000000));
  TraceMessage lost_flow;
  lost_flow.kind = MsgKind::kFlow;
  lost_flow.source = MsgSource::kTcCore;
  lost_flow.cycle = 14;
  lost_flow.pc = 0x80000020;
  enc.encode(lost_flow);

  TraceMessage ovf;
  ovf.kind = MsgKind::kOverflow;
  ovf.source = MsgSource::kChip;
  ovf.cycle = 500;
  enc.reset_anchors();
  tail.push_back(enc.encode(ovf));
  tail.push_back(
      enc.encode(sync_msg(MsgSource::kTcCore, 510, 0x80002000, 0xC0000200)));
  TraceMessage flow;
  flow.kind = MsgKind::kFlow;
  flow.source = MsgSource::kTcCore;
  flow.cycle = 515;
  flow.pc = 0x80002040;  // small delta against the *new* anchor
  flow.instr_count = 9;
  tail.push_back(enc.encode(flow));

  auto decoded = TraceDecoder::decode(tail);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value()[0].kind, MsgKind::kOverflow);
  EXPECT_EQ(decoded.value()[1].pc, 0x80002000u);
  EXPECT_EQ(decoded.value()[2].pc, 0x80002040u);
  EXPECT_EQ(decoded.value()[2].cycle, 515u);
  EXPECT_EQ(decoded.value()[2].instr_count, 9u);
}

// ---- seeded mutants of a session's EMEM stream -------------------------
//
// A transmission session's downloaded units (flow, IRQ, sync and rate
// messages) are mutated the ways a corrupted EMEM dump or DAP download
// can be: bit flips, byte overwrites, truncated or extended units, and
// dropped or duplicated units. Every mutant decodes or fails with a
// kDecodeError status; none may crash or fail another way (the test runs
// under the sanitizers too).
TEST(TraceCodec, SeededMutantsOfASessionStreamDecodeOrFailWithAStatus) {
  auto built = workload::build_transmission_workload({});
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const workload::TransmissionWorkload w = std::move(built).value();
  profiling::SessionOptions options;
  options.program_trace = true;
  options.irq_trace = true;
  profiling::ProfilingSession session(soc::SocConfig{}, options);
  ASSERT_TRUE(session.load(w.program).is_ok());
  workload::configure_transmission(session.device().soc(), w.options);
  session.reset(w.tc_entry);
  ASSERT_TRUE(session.device().download_trace().is_ok());  // nothing yet
  session.device().run(60'000);
  ASSERT_TRUE(session.device().download_trace().is_ok());
  const std::vector<EncodedMessage> stream =
      session.device().emem().host_units();
  ASSERT_GT(stream.size(), 1000u);

  constexpr unsigned kMutants = 360;
  Prng rng(0x7EAC'E0DE);
  unsigned decoded = 0;
  unsigned refused = 0;
  for (unsigned m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::vector<EncodedMessage> units = stream;
    const u64 edits = 1 + rng.next_below(3);
    for (u64 e = 0; e < edits && !units.empty(); ++e) {
      const usize u = rng.next_below(units.size());
      std::vector<u8>& bytes = units[u].bytes;
      switch (m % 6) {
        case 0:  // bit flip
          if (!bytes.empty()) {
            bytes[rng.next_below(bytes.size())] ^=
                static_cast<u8>(1u << rng.next_below(8));
          }
          break;
        case 1:  // byte overwrite
          if (!bytes.empty()) {
            bytes[rng.next_below(bytes.size())] =
                static_cast<u8>(rng.next_below(256));
          }
          break;
        case 2:  // truncated unit
          bytes.resize(rng.next_below(bytes.size() + 1));
          break;
        case 3:  // extended unit
          for (u64 k = 1 + rng.next_below(4); k > 0; --k) {
            bytes.push_back(static_cast<u8>(rng.next_below(256)));
          }
          break;
        case 4:  // dropped unit
          units.erase(units.begin() + static_cast<std::ptrdiff_t>(u));
          break;
        case 5:  // duplicated unit
          units.insert(units.begin() + static_cast<std::ptrdiff_t>(u),
                       units[u]);
          break;
      }
    }
    const auto result = TraceDecoder::decode(units);
    if (result.is_ok()) {
      ++decoded;
    } else {
      ++refused;
      EXPECT_EQ(result.status().code(), StatusCode::kDecodeError)
          << result.status().to_string();
    }
  }
  // Both outcomes occur: the mutants reach the decoder's error paths.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace audo::mcds
