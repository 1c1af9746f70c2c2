// Copyright (c) 2026 moqo authors. MIT license.
//
// On-disk format constants shared by the snapshot file (snapshot.h), the
// RAM→disk cache tier (disk_tier.h), and the PlanSet codec
// (plan_set_codec.h).
//
// Encoding contract: the one byte codec, util/byte_codec.h — the same
// primitives the wire protocol uses. Every integer is little-endian
// fixed-width and every double is its IEEE-754 bit pattern, so a snapshot
// written on one machine reads back bit-identically on any other, and
// round-trips are bit-exact by construction (the acceptance criterion for
// cached frontiers, whose identity contract is "equal keys imply
// byte-identical frontiers").
//
// Integrity: FNV-1a 64-bit over the exact encoded bytes, seeded with
// kChecksumSeed. Not cryptographic — it detects torn writes, truncation,
// and bit rot, which is all a local cache file needs.

#ifndef MOQO_PERSIST_FORMAT_H_
#define MOQO_PERSIST_FORMAT_H_

#include <cstdint>

namespace moqo {
namespace persist {

/// "MOQOSNP1" as a little-endian u64 (first file byte = 'M').
inline constexpr uint64_t kSnapshotMagic = 0x31504E534F514F4Dull;

/// Bumped on any layout change; readers skip whole files from other
/// versions (restore_skipped{reason="version"}).
inline constexpr uint32_t kFormatVersion = 1;

/// Sentinel for "no child" in the PlanSet node table.
inline constexpr uint32_t kNoChild = 0xFFFFFFFFu;

/// Record kinds in a snapshot file.
enum class RecordKind : uint32_t {
  kPlanCacheEntry = 1,  ///< Payload: preference block + PlanSet block.
  kMemoEntry = 2,       ///< Payload: PlanSet block only.
};

/// Seed of every snapshot and segment checksum (Fnv1a in
/// util/byte_codec.h). It is the FNV-1a offset basis with its last digit
/// missing; the checksums of format v1 files are seeded with it, so it is
/// part of the format and must not be "fixed" without a version bump.
inline constexpr uint64_t kChecksumSeed = 1469598103934665603ull;

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_FORMAT_H_
