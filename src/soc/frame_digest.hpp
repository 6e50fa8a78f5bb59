// Shared FNV-1a digests over the per-cycle observation stream — the one
// definition of "what the frame hash covers", used by the execution-tier
// identity tests AND the record/replay regression lab (src/replay), so
// golden hashes and test hashes can never skew apart.
//
// Two digest shapes:
//  * FrameStreamHasher — the *exact* stream digest: includes the cycle
//    stamp and folds a fast-forwarded idle skip as (n, idle-frame). It
//    matches bit-for-bit across execution tiers within one fast-forward
//    setting (what the tier tests pin), but by design hashes differently
//    when the skip chunking changes.
//  * WindowedFrameDigest — the *canonical* digest the replay goldens
//    store: per-frame fingerprints with the cycle stamp excluded,
//    run-length-encoded and split into fixed cycle windows. Identical
//    runs yield identical window digests under either exec tier, with
//    fast-forward on or off, and regardless of how idle skips are
//    chunked — the invariance the replay oracle's re-run relies on.
#pragma once

#include <array>
#include <vector>

#include "common/bits.hpp"
#include "common/fields.hpp"
#include "mcds/observation.hpp"
#include "soc/soc.hpp"

namespace audo::soc {

/// One enumerated frame field: which component and field it belongs to
/// plus its value widened to u64. The enumeration order is the digest
/// definition — every digest below hashes exactly this sequence.
struct FrameField {
  const char* component;  // "tc", "pcp", "sri", "flash", "dma", "safety", "irq"
  const char* field;
  u64 value = 0;
};

/// Enumerate every architectural field of `f` except the cycle stamp,
/// in a fixed order. Fields are enumerated explicitly (never memcmp'd)
/// so struct padding can never fake a match or a mismatch. The digests
/// below hash the same walk without building this list; the replay
/// divergence reporter reads it to name the first differing
/// component/field.
std::vector<FrameField> enumerate_frame_fields(const mcds::ObservationFrame& f);

/// FNV-1a fingerprint of one frame, cycle stamp excluded — the
/// position-independent per-cycle value the canonical digests build on.
u64 frame_fingerprint(const mcds::ObservationFrame& f);

/// Exact stream digest (includes frame.cycle). The historical test hash:
/// attach as an observer and compare `hash`/`frames` between runs made
/// under the same fast-forward setting.
class FrameStreamHasher final : public FrameObserver {
 public:
  u64 hash = kFnvOffset;
  u64 frames = 0;

  void observe(const mcds::ObservationFrame& frame) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;
};

/// Canonical windowed digest stream for replay goldens.
///
/// Frames are fingerprinted with the cycle stamp excluded and collected
/// as (fingerprint, run-length) pairs; runs are closed at fixed window
/// boundaries (cycle / 2^window_bits). A window's digest hashes its RLE
/// pair sequence, so n stepped idle cycles and one skip_idle(idle, n)
/// produce the same digest — and so does any re-chunking of the skip.
class WindowedFrameDigest final : public FrameObserver {
 public:
  /// 32768-cycle windows: fine enough to localize a divergence, coarse
  /// enough that golden files stay small.
  static constexpr u32 kDefaultWindowBits = 15;
  /// Windows are cycle >> window_bits of a u64 cycle count, and a shift
  /// of 64 or more is undefined.
  static constexpr u32 kMaxWindowBits = 63;

  struct Window {
    u64 index = 0;        // cycle range [index << bits, (index+1) << bits)
    u64 frames = 0;       // cycles covered (stepped + skipped)
    u64 digest = 0;       // FNV over the window's RLE pair stream
    /// Per-component sub-digests over the same RLE stream, so a window
    /// mismatch can name the diverging component even when no reference
    /// run is available. Indexed like component_names().
    std::array<u64, 7> components{};
  };

  explicit WindowedFrameDigest(u32 window_bits = kDefaultWindowBits);

  void observe(const mcds::ObservationFrame& frame) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  /// Close the open run/window and return the completed window list.
  /// The observer may keep observing afterwards (a new window opens).
  const std::vector<Window>& finish();

  /// Windows flushed so far (the currently open window is not included
  /// until the stream crosses its boundary or finish() is called).
  const std::vector<Window>& windows() const { return windows_; }

  /// Digest over all window digests (order-sensitive) — the one-value
  /// summary stored as the golden stream digest.
  u64 stream_digest() const;

  u64 total_frames() const { return total_frames_; }
  u32 window_bits() const { return window_bits_; }

  static constexpr unsigned kNumComponents = 7;
  static const char* component_name(unsigned i);

 private:
  void add_run(const mcds::ObservationFrame& frame, u64 fp, u64 n);
  void flush_run();
  void flush_window();

  u32 window_bits_;
  u64 total_frames_ = 0;

  // Open window state.
  bool window_open_ = false;
  u64 window_index_ = 0;
  u64 window_frames_ = 0;
  u64 window_hash_ = kFnvOffset;
  std::array<u64, kNumComponents> component_hash_{};

  // Open RLE run state.
  u64 run_fp_ = 0;
  u64 run_len_ = 0;
  std::array<u64, kNumComponents> run_component_fp_{};

  // Next cycle the stream expects (frames arrive densely).
  u64 next_cycle_ = 1;

  std::vector<Window> windows_;
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<WindowedFrameDigest::Window> Self, typename V>
void visit_fields(Self& w, V& v) {
  v("index", w.index);
  v("frames", w.frames);
  v("digest", w.digest);
  v("components", w.components);
}

}  // namespace audo::soc
