// Copyright (c) 2026 moqo authors. MIT license.

#include "persist/disk_tier.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstring>

#include "persist/format.h"
#include "rt/failpoint.h"

namespace moqo {
namespace persist {

namespace {

constexpr size_t kRecordHeaderBytes = 32;
constexpr auto kRelaxed = std::memory_order_relaxed;

size_t RecordBytes(size_t key_len, size_t payload_len) {
  return kRecordHeaderBytes + key_len + payload_len;
}

}  // namespace

DiskTier::DiskTier(const Options& options) {
  const int requested = options.shards < 1 ? 1 : options.shards;
  const size_t num_shards = std::bit_ceil(static_cast<size_t>(requested));
  shard_mask_ = num_shards - 1;
  shard_capacity_bytes_ =
      (options.capacity_bytes + num_shards - 1) / num_shards;
  if (shard_capacity_bytes_ < kRecordHeaderBytes) {
    shard_capacity_bytes_ = kRecordHeaderBytes;
  }
  shards_.reserve(num_shards);
  bool all_open = true;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string path = options.directory + "/" + options.name +
                             ".shard" + std::to_string(i) + ".seg";
    // O_TRUNC: the tier holds this process's overflow only; stale segments
    // from a previous run are unreachable (their index died with it).
    // The shard is not shared yet; the lock is for the thread-safety
    // analysis (fd is guarded, and Shard's own ctor/dtor never touch it).
    MutexLock lock(shard->mu);
    shard->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (shard->fd < 0) all_open = false;
    shards_.push_back(std::move(shard));
  }
  ok_ = all_open;
}

DiskTier::~DiskTier() {
  for (auto& shard : shards_) {
    // No concurrent Put/Take may be in flight at destruction; the lock
    // keeps the guarded fd read visible to the analysis.
    MutexLock lock(shard->mu);
    if (shard->fd >= 0) ::close(shard->fd);
  }
}

DiskTier::Shard& DiskTier::ShardFor(uint64_t key_hash) {
  // Same decorrelating mix as ShardedLru: shard choice must not echo the
  // in-RAM cache's sharding or the index bucket choice.
  uint64_t mixed = key_hash * 0x9E3779B97F4A7C15ull;
  mixed ^= mixed >> 32;
  return *shards_[mixed & shard_mask_];
}

void DiskTier::ResetShard(Shard* shard) {
  counters_->dropped.fetch_add(shard->index.size(), kRelaxed);
  counters_->entries.fetch_sub(shard->index.size(), kRelaxed);
  counters_->bytes.fetch_sub(shard->live_bytes, kRelaxed);
  shard->index.clear();
  shard->live_bytes = 0;
  shard->append_offset = 0;
  if (::ftruncate(shard->fd, 0) != 0) {
    // Keeping the old length is harmless: the index is empty and appends
    // restart at offset 0, overwriting the stale region.
  }
}

bool DiskTier::Put(uint64_t key_hash, std::string_view key,
                   double achieved_alpha, std::string_view payload) {
  if (!ok_) return false;
  MOQO_FAILPOINT_RETURN("persist.tier.write", false);
  const size_t record_bytes = RecordBytes(key.size(), payload.size());
  if (record_bytes > shard_capacity_bytes_) return false;

  Shard& shard = ShardFor(key_hash);
  MutexLock lock(shard.mu);
  if (shard.fd < 0) return false;
  // Re-demotion of an unchanged entry (demote → promote → demote churn) is
  // the common case; an index entry with identical hash, shape, and alpha
  // is that entry with overwhelming likelihood, so skip the duplicate
  // append — before the record is built and checksummed. (A same-shape
  // different key would merely keep serving the older record — the
  // full-key check on Take keeps it from aliasing.)
  auto range = shard.index.equal_range(key_hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second.key_len == key.size() &&
        it->second.payload_len == payload.size() &&
        it->second.alpha == achieved_alpha) {
      return true;
    }
  }

  std::string record;
  record.reserve(record_bytes);
  PutU32(&record, static_cast<uint32_t>(key.size()));
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU64(&record, key_hash);
  PutU64(&record, DoubleBits(achieved_alpha));
  uint64_t checksum = Fnv1a(key.data(), key.size());
  checksum = Fnv1a(payload.data(), payload.size(), checksum);
  PutU64(&record, checksum);
  record.append(key);
  record.append(payload);

  if (shard.append_offset + record_bytes > shard_capacity_bytes_) {
    ResetShard(&shard);
  }
  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::pwrite(shard.fd, record.data() + written, record.size() - written,
                 static_cast<off_t>(shard.append_offset + written));
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  IndexEntry entry;
  entry.offset = shard.append_offset;
  entry.key_len = static_cast<uint32_t>(key.size());
  entry.payload_len = static_cast<uint32_t>(payload.size());
  entry.alpha = achieved_alpha;
  shard.index.emplace(key_hash, entry);
  shard.append_offset += record_bytes;
  shard.live_bytes += record_bytes;
  counters_->demotions.fetch_add(1, kRelaxed);
  counters_->entries.fetch_add(1, kRelaxed);
  counters_->bytes.fetch_add(record_bytes, kRelaxed);
  return true;
}

bool DiskTier::Take(uint64_t key_hash, std::string_view key, double max_alpha,
                    std::string* payload_out, double* alpha_out) {
  if (!ok_) return false;
  if (MOQO_FAILPOINT_HIT("persist.tier.read")) {
    counters_->misses.fetch_add(1, kRelaxed);
    return false;
  }
  Shard& shard = ShardFor(key_hash);
  MutexLock lock(shard.mu);
  auto range = shard.index.equal_range(key_hash);
  for (auto it = range.first; it != range.second;) {
    const IndexEntry& entry = it->second;
    if (!(entry.alpha <= max_alpha)) {
      ++it;
      continue;
    }
    const size_t record_bytes = RecordBytes(entry.key_len, entry.payload_len);
    std::string record(record_bytes, '\0');
    size_t done = 0;
    bool read_ok = true;
    while (done < record_bytes) {
      const ssize_t n =
          ::pread(shard.fd, record.data() + done, record_bytes - done,
                  static_cast<off_t>(entry.offset + done));
      if (n <= 0) {
        read_ok = false;
        break;
      }
      done += static_cast<size_t>(n);
    }
    bool corrupt = !read_ok;
    const char* key_ptr = nullptr;
    const char* payload_ptr = nullptr;
    if (!corrupt) {
      ByteReader reader(record.data(), record.size());
      uint32_t key_len = 0, payload_len = 0;
      uint64_t stored_hash = 0, alpha_bits = 0, stored_checksum = 0;
      reader.GetU32(&key_len);
      reader.GetU32(&payload_len);
      reader.GetU64(&stored_hash);
      reader.GetU64(&alpha_bits);
      reader.GetU64(&stored_checksum);
      key_ptr = record.data() + kRecordHeaderBytes;
      payload_ptr = key_ptr + entry.key_len;
      uint64_t checksum = Fnv1a(key_ptr, entry.key_len);
      checksum = Fnv1a(payload_ptr, entry.payload_len, checksum);
      corrupt = key_len != entry.key_len || payload_len != entry.payload_len ||
                stored_hash != key_hash || checksum != stored_checksum ||
                DoubleFromBits(alpha_bits) != entry.alpha;
    }
    if (corrupt) {
      counters_->corrupt.fetch_add(1, kRelaxed);
      counters_->entries.fetch_sub(1, kRelaxed);
      counters_->bytes.fetch_sub(record_bytes, kRelaxed);
      shard.live_bytes -= record_bytes;
      it = shard.index.erase(it);
      continue;
    }
    // Full-key comparison: equal hashes with different keys must never
    // alias (the caches' identity contract).
    if (std::string_view(key_ptr, entry.key_len) != key) {
      ++it;
      continue;
    }
    payload_out->assign(payload_ptr, entry.payload_len);
    if (alpha_out != nullptr) *alpha_out = entry.alpha;
    shard.live_bytes -= record_bytes;
    shard.index.erase(it);
    counters_->promotions.fetch_add(1, kRelaxed);
    counters_->entries.fetch_sub(1, kRelaxed);
    counters_->bytes.fetch_sub(record_bytes, kRelaxed);
    return true;
  }
  counters_->misses.fetch_add(1, kRelaxed);
  return false;
}

DiskTier::Stats DiskTier::GetStats() const {
  Stats stats;
  stats.demotions = counters_->demotions.load(kRelaxed);
  stats.promotions = counters_->promotions.load(kRelaxed);
  stats.misses = counters_->misses.load(kRelaxed);
  stats.dropped = counters_->dropped.load(kRelaxed);
  stats.corrupt = counters_->corrupt.load(kRelaxed);
  stats.entries = counters_->entries.load(kRelaxed);
  stats.bytes = counters_->bytes.load(kRelaxed);
  return stats;
}

}  // namespace persist
}  // namespace moqo
