// Resilience surface of the streaming SRC service: admission verdicts,
// the fault/eviction/shedding census, and crash-consistent snapshots.
//
// Snapshot format ("SCSNAP01", version 1): a small envelope —
//
//   magic[8] | version u32 | payload_size u64 | fnv1a(payload) u64 | payload
//
// — around a StateWriter payload holding the COMPLETE deterministic
// service state: semantic options, lifetime counters, the resilience
// census, closed-ratio aggregates, the free-slot stack (future slot
// assignment must replay identically), and per-slot session state down
// to each RationalSrc's filter histories and both rings' queued
// contents.  Wall-clock data (the job_ns histogram) is deliberately
// excluded, so the snapshot of a run is byte-identical across thread
// counts — pinned by tests/test_resilience.cpp.
//
// restore_service() verifies magic, version, size, and checksum before
// touching the payload, and the payload decode runs on a sticky-failure
// bounds-checked reader — a truncated or bit-flipped image produces a
// diagnostic, never a crash and never a half-restored service.  The
// decode checks every count against the bytes left before allocating
// for it, caps ring capacities at kMaxSnapshotRing, requires the
// free-slot stack to name distinct free slots, and rejects a session
// whose counters break the conservation laws (SessionStats) or whose
// converter cursors disagree with its timeline.  Pinned by
// tests/test_serve_fuzz.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace scflow::serve {

class SrcService;

/// Why try_open() admitted or refused a session.
enum class AdmitStatus : std::uint8_t {
  kAdmitted = 0,
  kOverloaded,        ///< session table full and shedding off (or shed found no victim)
  kRateUnsupported,   ///< rate outside [dsp::kMinRateHz, dsp::kMaxRateHz]
  kAllocFailed,       ///< session-state allocation failed (or chaos said it did)
};

[[nodiscard]] const char* admit_status_name(AdmitStatus s);

// (AdmitResult — the {SessionId, AdmitStatus} pair try_open() returns —
// lives in src_service.hpp next to SessionId.)

/// Lifetime census of everything the resilience layer did: evictions,
/// load shedding, admission rejects, injected faults, snapshots.  Plain
/// counters (a copy is returned; reading races nothing).
struct ResilienceStats {
  // Leases & eviction.
  std::uint64_t evict_idle = 0;       ///< sessions evicted for idle timeout
  std::uint64_t evict_lifetime = 0;   ///< sessions evicted for max lifetime
  std::uint64_t evict_drained = 0;    ///< kEvicting -> kEvicted transitions
  std::uint64_t evict_push_rejected = 0;  ///< pushes refused while evicting/evicted
  std::uint64_t evict_unpulled = 0;   ///< outputs still queued when evicted slots reclaimed
  // Load shedding.
  std::uint64_t shed_sessions = 0;
  std::uint64_t shed_dropped_inputs = 0;   ///< accepted-but-unconverted inputs dropped by shed
  std::uint64_t shed_dropped_outputs = 0;  ///< produced-but-unpulled outputs dropped by shed
  // Admission control.
  std::uint64_t admit_overloaded = 0;
  std::uint64_t admit_rate_unsupported = 0;
  // Chaos census (service-injected + driver-reported via note_chaos()).
  std::uint64_t chaos_stalls = 0;
  std::uint64_t chaos_disconnects = 0;
  std::uint64_t chaos_oversized_pushes = 0;
  std::uint64_t chaos_ring_storms = 0;
  std::uint64_t chaos_alloc_failures = 0;
  // Snapshots.
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_restores = 0;
  std::uint64_t snapshot_bytes_last = 0;
};

inline constexpr std::string_view kSnapshotMagic = "SCSNAP01";
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Largest input_ring / output_ring a snapshot may carry.  Far above any
/// ring the tools configure (<= 1024 samples), and small enough that a
/// corrupt image cannot make a restore allocate huge per-session rings.
inline constexpr std::size_t kMaxSnapshotRing = std::size_t{1} << 16;

/// Serializes the full service state (see header comment).  Non-const:
/// bumps the service's snapshot_saves / snapshot_bytes_last census.
[[nodiscard]] std::string snapshot_service(SrcService& service);

/// Restores @p image into @p into, which must be a freshly constructed
/// service that has never opened a session (its thread count is kept;
/// every semantic option is overwritten from the image).  Returns false
/// with a diagnostic in *error on any corruption — bad magic, version,
/// size, checksum, or payload shape — leaving @p into unusable but the
/// process unharmed.
[[nodiscard]] bool restore_service(std::string_view image, SrcService& into,
                                   std::string* error = nullptr);

}  // namespace scflow::serve
