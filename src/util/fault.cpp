#include "util/fault.hpp"

#include "util/rng.hpp"

namespace fbf::util {

std::uint64_t FaultInjector::bits(std::string_view site, std::uint64_t a,
                                  std::uint64_t b) const noexcept {
  // Mix the site label and both indices into one key, then run it through
  // splitmix64 so neighbouring keys decorrelate.
  std::uint64_t key = fnv1a64(site);
  key ^= a + 0x9E3779B97F4A7C15ull;
  key *= 0x100000001B3ull;
  key ^= b + 0xD1B54A32D192ED03ull;
  return SplitMix64(config_.seed ^ key).next();
}

double FaultInjector::draw(std::string_view site, std::uint64_t a,
                           std::uint64_t b) const noexcept {
  return static_cast<double>(bits(site, a, b) >> 11) * 0x1.0p-53;
}

const char* net_fault_kind_name(NetFaultKind kind) noexcept {
  switch (kind) {
    case NetFaultKind::kConnectRefused: return "connect-refused";
    case NetFaultKind::kMidFrameDisconnect: return "mid-frame-disconnect";
    case NetFaultKind::kDeadlineExpiry: return "deadline-expiry";
    case NetFaultKind::kGarbledFrame: return "garbled-frame";
  }
  return "?";
}

bool FaultInjector::would_fail(std::size_t shard, int attempt) const noexcept {
  const bool permanent =
      config_.fail_shard >= 0 &&
      static_cast<std::size_t>(config_.fail_shard) == shard;
  return permanent || (config_.shard_fail_rate > 0.0 &&
                       draw("shard-fail", shard,
                            static_cast<std::uint64_t>(attempt)) <
                           config_.shard_fail_rate);
}

NetFaultKind FaultInjector::net_fault_kind(std::size_t shard,
                                           int attempt) const noexcept {
  const std::uint64_t r =
      bits("net-fault-kind", shard, static_cast<std::uint64_t>(attempt));
  return static_cast<NetFaultKind>(
      r % static_cast<std::uint64_t>(kNetFaultKindCount));
}

bool FaultInjector::shard_attempt_fails(std::size_t shard, int attempt) {
  const bool fails = would_fail(shard, attempt);
  if (fails) {
    ++counters_.shard_failures;
  }
  return fails;
}

std::optional<std::size_t> FaultInjector::corrupt_bytes(
    std::string& bytes, std::string_view site, std::uint64_t sequence) {
  if (bytes.empty() || config_.snapshot_corrupt_rate <= 0.0 ||
      draw(site, 0, sequence) >= config_.snapshot_corrupt_rate) {
    return std::nullopt;
  }
  const std::uint64_t r = bits(site, 1, sequence);
  const std::size_t offset = static_cast<std::size_t>(r % bytes.size());
  const int bit = static_cast<int>((r >> 32) % 8);
  bytes[offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[offset]) ^ (1u << bit));
  ++counters_.bytes_corrupted;
  return offset;
}

std::size_t FaultInjector::truncated_size(std::size_t size,
                                          std::string_view site,
                                          std::uint64_t sequence) {
  if (size == 0 || config_.journal_truncate_rate <= 0.0 ||
      draw(site, 2, sequence) >= config_.journal_truncate_rate) {
    return size;
  }
  const std::uint64_t r = bits(site, 3, sequence);
  ++counters_.truncations;
  return static_cast<std::size_t>(r % size);  // always < size: a real cut
}

bool FaultInjector::put_fails(std::string_view name, std::uint64_t sequence) {
  const bool fails =
      config_.put_fail_rate > 0.0 &&
      draw("storage-put-fail", fnv1a64(name), sequence) < config_.put_fail_rate;
  if (fails) {
    ++counters_.put_failures;
  }
  return fails;
}

std::size_t FaultInjector::torn_write_size(std::size_t size,
                                           std::string_view name,
                                           std::uint64_t sequence) {
  if (size == 0 || config_.torn_write_rate <= 0.0 ||
      draw("storage-torn-write", fnv1a64(name), sequence) >=
          config_.torn_write_rate) {
    return size;
  }
  const std::uint64_t r = bits("storage-torn-offset", fnv1a64(name), sequence);
  ++counters_.torn_writes;
  return static_cast<std::size_t>(r % size);  // always < size: a real tear
}

bool FaultInjector::object_lost(std::string_view name, std::uint64_t sequence) {
  const bool lost =
      config_.lost_object_rate > 0.0 &&
      draw("storage-lost-object", fnv1a64(name), sequence) <
          config_.lost_object_rate;
  if (lost) {
    ++counters_.lost_objects;
  }
  return lost;
}

bool FaultInjector::backend_slow(std::string_view name,
                                 std::uint64_t sequence) {
  const bool slow =
      config_.slow_backend_rate > 0.0 &&
      draw("storage-slow", fnv1a64(name), sequence) <
          config_.slow_backend_rate;
  if (slow) {
    ++counters_.slow_ops;
  }
  return slow;
}

}  // namespace fbf::util
