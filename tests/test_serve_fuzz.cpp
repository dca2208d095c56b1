// Seeded mutation fuzzing of the SCSNAP01 snapshot reader: restore_service
// (envelope) -> SrcService::load_state -> RationalSrc::load_state.  The
// seed corpus is two real snapshots of a multi-session service taken
// mid-stream (queued ring contents, a reclaimed slot on the free stack,
// closed-ratio aggregates, converters with integer pre/post stages).
// Mutants are truncations, bit flips and splices, in two classes: raw
// images against the envelope, and payload mutants with the size and
// checksum re-sealed so they reach the payload decoder.
//
// The contract: restore returns false with a non-empty diagnostic, or it
// succeeds and the restored service keeps the conservation laws, admits
// a new session into its free-slot stack, re-snapshots into an image that
// restores again, and converts and hands back every sample pushed to it
// afterwards.  No restore may size a heap request from an
// unchecked count: the largest single allocation is measured through a
// replaced global operator new.  The ASan+UBSan lane runs this suite like
// the rest of ctest; it starts no thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/state_io.hpp"
#include "dsp/stimulus.hpp"
#include "mutants.hpp"
#include "obs/ledger.hpp"
#include "serve/resilience.hpp"
#include "serve/src_service.hpp"

namespace {
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC pairs the free() below with the call sites' new-expressions after
// inlining; the pairing is right, since the new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace scflow::serve {
namespace {

using dsp::StereoSample;
using fuzz::flip_bits;
using fuzz::splice;

// Four times the largest ring a snapshot may carry (kMaxSnapshotRing
// samples of 4 bytes): any request above it was sized from image bytes
// nobody checked.
constexpr std::size_t kAllocBound = 4 * kMaxSnapshotRing * sizeof(StereoSample);

constexpr std::size_t kEnvelopeBytes = 8 + 4 + 8 + 8;  // magic, version, size, checksum

std::string_view payload_of(const std::string& image) {
  return std::string_view(image).substr(kEnvelopeBytes);
}

std::string reseal(std::string_view payload) {
  core::StateWriter w;
  w.bytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  w.u32(kSnapshotVersion);
  w.u64(payload.size());
  obs::Fnv1a h;
  h.update_bytes(payload.data(), payload.size());
  w.u64(h.digest());
  w.bytes(payload.data(), payload.size());
  return w.data();
}

std::uint64_t get_u64(std::string_view payload, std::size_t at) {
  core::StateReader r(payload.substr(at));
  return r.u64();
}

void put_u64(std::string& payload, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) payload[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u32(std::string& payload, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) payload[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// Byte offsets inside a payload, in SrcService::save_state's field order.
struct PayloadLayout {
  static constexpr std::size_t kMaxSessions = 0;  // first semantic option
  static constexpr std::size_t kInputRing = 8;
  static constexpr std::size_t kAggCount = 8 * 8 + (5 * 8 + 4 + 8) + 18 * 8;
  static constexpr std::size_t kAggBytes = 7 * 8;
  // Open slot: generation, state, rates, time base, 12 u64 and 2 u32 of
  // session stats and lease state, then the input ring's tail.
  static constexpr std::size_t kSlotToInRingCount = 4 + 1 + 4 + 4 + 1 + 12 * 8 + 2 * 4 + 8;

  std::size_t free_count = 0;
  std::size_t slot_count = 0;

  explicit PayloadLayout(std::string_view payload) {
    free_count = kAggCount + 8 + get_u64(payload, kAggCount) * kAggBytes;
    slot_count = free_count + 8 + get_u64(payload, free_count) * 4;
  }
  [[nodiscard]] std::size_t free_index(std::size_t i) const { return free_count + 8 + 4 * i; }
  [[nodiscard]] std::size_t first_slot() const { return slot_count + 8; }
};

ServiceOptions fuzz_options(std::size_t max_sessions) {
  ServiceOptions opt;
  opt.max_sessions = max_sessions;
  opt.input_ring = 64;
  opt.output_ring = 128;
  opt.work_quantum = 16;
  return opt;
}

struct Corpus {
  std::vector<std::string> images;
  std::vector<SessionId> ids;  // sessions still live in the images
};

// Six sessions over ratios with and without integer stages; slot 1 is
// closed and reclaimed, so the free stack is non-empty and its closed
// ratio sits in the aggregates.  Snapshots at two points mid-stream.
const Corpus& corpus() {
  static const Corpus c = [] {
    constexpr std::uint32_t kRates[][2] = {{44'100, 48'000}, {48'000, 44'100},
                                           {8'000, 48'000},  {192'000, 44'100},
                                           {48'000, 48'000}, {32'000, 96'000}};
    SrcService svc(fuzz_options(8));
    std::vector<SessionId> ids;
    for (const auto& r : kRates) ids.push_back(svc.open({r[0], r[1]}));
    std::vector<StereoSample> buf(512);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto stim = dsp::make_noise_stimulus(48, 7 + i);
      (void)svc.push(ids[i], stim.data(), stim.size());
    }
    svc.step();
    (void)svc.pull(ids[0], buf.data(), 5);
    (void)svc.close(ids[1]);
    svc.step();
    Corpus out;
    out.images.push_back(snapshot_service(svc));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto stim = dsp::make_noise_stimulus(24, 70 + i);
      (void)svc.push(ids[i], stim.data(), stim.size());
    }
    svc.step();
    (void)svc.pull(ids[2], buf.data(), buf.size());
    out.images.push_back(snapshot_service(svc));
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (i != 1) out.ids.push_back(ids[i]);
    return out;
  }();
  return c;
}

// Restores @p image into a fresh service and checks the contract above.
// Returns whether the restore succeeded.
bool restore_verdict(const std::string& image) {
  SrcService svc(ServiceOptions{});
  std::string err;
  g_largest_alloc.store(0);
  const bool ok = restore_service(image, svc, &err);
  EXPECT_LE(g_largest_alloc.load(), kAllocBound) << (ok ? "restored" : err);
  if (!ok) {
    EXPECT_FALSE(err.empty());
    return false;
  }
  const std::size_t in_cap = std::bit_ceil(std::max<std::size_t>(2, svc.options().input_ring));
  for (const SessionId id : corpus().ids) {
    const SessionStats* st = svc.stats(id);
    if (st == nullptr) continue;  // a mutant may renumber a generation
    EXPECT_EQ(st->produced, st->pulled + svc.out_available(id));
    if (svc.phase(id) == SessionPhase::kOpen) {
      EXPECT_EQ(st->accepted, st->converted_in + (in_cap - svc.in_free(id)));
    }
  }
  const SessionId fresh = svc.open({48'000, 44'100});
  if (fresh.valid()) {
    const SessionStats* st = svc.stats(fresh);
    EXPECT_TRUE(st != nullptr && st->accepted == 0 && st->produced == 0);
  }
  SrcService again(ServiceOptions{});
  EXPECT_TRUE(restore_service(snapshot_service(svc), again, &err)) << err;

  // The restored service keeps running: new input on every session
  // drains, and everything accepted is converted and pulled.
  std::vector<SessionId> live = corpus().ids;
  live.push_back(fresh);
  const auto stim = dsp::make_noise_stimulus(32, 5);
  for (const SessionId id : live) (void)svc.push(id, stim.data(), stim.size());
  std::vector<StereoSample> out(1024);
  for (int step = 0; step < 512; ++step) {
    const std::size_t dispatched = svc.step();
    for (const SessionId id : live)
      while (svc.pull(id, out.data(), out.size()) > 0) {
      }
    if (dispatched == 0) break;
  }
  for (const SessionId id : live) {
    const SessionStats* st = svc.stats(id);
    if (st == nullptr) continue;
    EXPECT_EQ(st->accepted, st->converted_in);
    EXPECT_EQ(st->produced, st->pulled);
  }
  return true;
}

TEST(SnapshotFuzz, CorpusRestoresAndKeepsConservation) {
  for (const std::string& image : corpus().images) EXPECT_TRUE(restore_verdict(image));
}

TEST(SnapshotFuzz, EveryTruncationIsRejected) {
  std::mt19937_64 rng(0x5a0f001);
  for (const std::string& image : corpus().images) {
    const std::string_view payload = payload_of(image);
    for (int i = 0; i < 150; ++i) {
      EXPECT_FALSE(restore_verdict(image.substr(0, rng() % image.size())));
      EXPECT_FALSE(restore_verdict(reseal(payload.substr(0, rng() % payload.size()))));
    }
  }
}

TEST(SnapshotFuzz, RawMutantsAreStoppedByTheEnvelope) {
  std::mt19937_64 rng(0x5a0f002);
  const std::vector<std::string>& images = corpus().images;
  // The checksum covers every payload byte and the header fields are
  // checked exactly, so only a mutant equal to a corpus image (flips that
  // cancel, a splice at matching offsets) may restore.
  const auto expect_envelope_verdict = [&](const std::string& m) {
    const bool original = std::find(images.begin(), images.end(), m) != images.end();
    EXPECT_EQ(restore_verdict(m), original);
  };
  for (const std::string& image : images)
    for (int i = 0; i < 150; ++i) expect_envelope_verdict(flip_bits(image, rng));
  for (int i = 0; i < 300; ++i)
    expect_envelope_verdict(splice(images[rng() % 2], images[rng() % 2], rng));
}

TEST(SnapshotFuzz, ResealedPayloadMutantsGetAVerdict) {
  std::mt19937_64 rng(0x5a0f003);
  const std::vector<std::string>& images = corpus().images;
  std::size_t restored = 0, total = 0;
  for (const std::string& image : images)
    for (int i = 0; i < 400; ++i, ++total)
      restored += restore_verdict(reseal(flip_bits(std::string(payload_of(image)), rng)));
  for (int i = 0; i < 400; ++i, ++total)
    restored += restore_verdict(
        reseal(splice(payload_of(images[rng() % 2]), payload_of(images[rng() % 2]), rng)));
  // Both verdicts occur: a flip in a sample or filter history restores,
  // a flip in a count, state or conservation counter does not.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, total);
}

// --- targeted corruptions ------------------------------------------------

TEST(SnapshotRestore, FreeSlotStackMustNameDistinctFreeSlots) {
  SrcService src(fuzz_options(16));
  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(src.open({48'000, 48'000}));
  (void)src.close(ids[1]);
  (void)src.close(ids[2]);
  src.step();  // reclaims slots 1 and 2 onto the free stack
  const std::string image = snapshot_service(src);
  const std::string payload(payload_of(image));
  const PayloadLayout at(payload);
  ASSERT_EQ(get_u64(payload, at.free_count), 2u);
  ASSERT_EQ(get_u64(payload, at.slot_count), 3u);

  {
    SrcService ok(ServiceOptions{});
    ASSERT_TRUE(restore_service(image, ok));
    EXPECT_TRUE(ok.open({48'000, 48'000}).valid());
  }
  const auto rejected = [&](std::uint32_t first, std::uint32_t second, const char* what) {
    std::string bad = payload;
    put_u32(bad, at.free_index(0), first);
    put_u32(bad, at.free_index(1), second);
    SrcService victim(ServiceOptions{});
    std::string err;
    EXPECT_FALSE(restore_service(reseal(bad), victim, &err)) << what;
    EXPECT_NE(err.find("free-slot"), std::string::npos) << what << ": " << err;
  };
  // Below max_sessions but past the restored table: open() would write
  // past the end of the slot vector.
  rejected(9, 2, "index past the slot table");
  rejected(0, 2, "index of an open slot");
  rejected(2, 2, "duplicate index");
}

TEST(SnapshotRestore, ConverterCursorsMustMatchTheirTimeline) {
  // Slot 0's converter state follows its two ring images; its third u64
  // is the core input cursor.  An output cursor far behind it would make
  // the next push drain the whole gap, so the restore must refuse it.
  const std::string payload(payload_of(corpus().images[0]));
  const PayloadLayout at(payload);
  const std::size_t in_count = at.first_slot() + PayloadLayout::kSlotToInRingCount;
  const std::size_t out_count = in_count + 8 + 4 * get_u64(payload, in_count) + 8;
  const std::size_t core_inputs = out_count + 8 + 4 * get_u64(payload, out_count) + 2 * 8;
  ASSERT_GT(get_u64(payload, core_inputs), 0u);
  std::string bad = payload;
  put_u64(bad, core_inputs, get_u64(payload, core_inputs) + (std::uint64_t{1} << 40));
  SrcService victim(ServiceOptions{});
  std::string err;
  EXPECT_FALSE(restore_service(reseal(bad), victim, &err));
  EXPECT_NE(err.find("converter"), std::string::npos) << err;
}

TEST(SnapshotRestore, CountsAreCheckedBeforeAllocation) {
  const std::string image = corpus().images[0];
  const std::string payload(payload_of(image));
  const PayloadLayout at(payload);
  ASSERT_EQ(static_cast<std::uint8_t>(payload[at.first_slot() + 4]), 1u);  // slot 0 open
  const std::size_t in_count = at.first_slot() + PayloadLayout::kSlotToInRingCount;
  ASSERT_LT(get_u64(payload, in_count), 64u);  // a plausible queue depth

  const auto rejected = [&](std::string bad, const char* what) {
    SrcService victim(ServiceOptions{});
    std::string err;
    g_largest_alloc.store(0);
    EXPECT_FALSE(restore_service(reseal(bad), victim, &err)) << what;
    EXPECT_FALSE(err.empty()) << what;
    EXPECT_LE(g_largest_alloc.load(), kAllocBound) << what;
  };
  std::string ring = payload;
  put_u64(ring, PayloadLayout::kInputRing, std::uint64_t{1} << 24);
  rejected(ring, "input ring above the snapshot cap");

  std::string free_stack = payload;
  put_u64(free_stack, PayloadLayout::kMaxSessions, std::uint64_t{1} << 20);
  put_u64(free_stack, at.free_count, std::uint64_t{1} << 20);
  rejected(free_stack, "free-slot count beyond the image");

  std::string slots = payload;
  put_u64(slots, PayloadLayout::kMaxSessions, std::uint64_t{1} << 20);
  put_u64(slots, at.slot_count, std::uint64_t{1} << 20);
  rejected(slots, "slot count beyond the image");

  std::string queued = payload;
  put_u64(queued, in_count, std::uint64_t{1} << 22);
  rejected(queued, "ring contents beyond the image");

  std::string aggs = payload;
  put_u64(aggs, PayloadLayout::kAggCount, std::uint64_t{1} << 20);
  rejected(aggs, "ratio aggregates beyond the image");
}

}  // namespace
}  // namespace scflow::serve
