// The versioned, checksummed container for a full Soc state image.
//
// A Snapshot frames the raw byte payload produced by Soc::save_snapshot
// with enough metadata to reject anything that is not a faithful image
// for this exact architecture:
//
//   magic      "ADSN"      — file-type check
//   version    u32         — format revision; mismatches are rejected,
//                            never reinterpreted
//   shape      u64         — SocConfig::shape_fingerprint() of the saved
//                            machine; a snapshot only restores onto a
//                            structurally identical configuration
//   cycle      u64         — soc cycle at capture (quiescence point)
//   length     u64         — payload byte count
//   checksum   u64         — FNV-1a over the payload
//   payload    bytes
//
// deserialize()/from_file() validate all of the above before a single
// byte reaches a component, so a corrupt, truncated or wrong-version
// image yields a clear Status and an untouched machine — never UB or a
// partial restore (ISSUE 8 loader hardening).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::soc {

struct Snapshot {
  static constexpr u32 kMagic = 0x4E534441;  // "ADSN" little-endian
  static constexpr u32 kVersion = 2;

  u64 shape_fingerprint = 0;
  Cycle cycle = 0;
  std::vector<u8> payload;

  /// FNV-1a over the payload (the stored checksum of a valid image).
  u64 checksum() const;

  /// Frame the snapshot into its on-disk byte layout.
  std::vector<u8> serialize() const;

  /// Parse and fully validate an image. Errors name the failing layer
  /// (magic / version / truncation / length / checksum).
  static Result<Snapshot> deserialize(const std::vector<u8>& bytes);

  Status to_file(const std::string& path) const;
  static Result<Snapshot> from_file(const std::string& path);
};

}  // namespace audo::soc
