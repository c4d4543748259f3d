// In-memory broker: topics, partitions, retention, consumer-group offsets.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bus/record.h"
#include "sim/time.h"

namespace dcm::bus {

/// One append-only log. Offsets are dense and monotone; retention may trim
/// the head, in which case base_offset() moves forward.
class Partition {
 public:
  /// Appends a record carrying `value` (at most Record::kMaxValueBytes) and
  /// returns the assigned offset.
  int64_t append(sim::SimTime timestamp, std::span<const std::byte> value);

  /// Up to `max_records` records with offset >= from (clamped to the
  /// retained range). The view stays valid until the next append or expiry.
  std::span<const Record> fetch(int64_t from, size_t max_records) const;

  int64_t base_offset() const { return base_offset_; }
  /// Offset the next append will get.
  int64_t end_offset() const { return base_offset_ + static_cast<int64_t>(log_.size()); }
  size_t size() const { return log_.size(); }

  /// Drops records with timestamp < horizon.
  void expire_before(sim::SimTime horizon);

 private:
  std::vector<Record> log_;
  int64_t base_offset_ = 0;
};

struct TopicConfig {
  int partitions = 1;
  /// Records older than now - retention are dropped by enforce_retention();
  /// <= 0 means keep everything.
  sim::SimTime retention = 0;
};

class Topic {
 public:
  Topic(std::string name, TopicConfig config);

  const std::string& name() const { return name_; }
  int partition_count() const { return static_cast<int>(partitions_.size()); }
  /// Stable key → partition mapping (FNV-1a hash).
  int partition_for_key(std::string_view key) const;

  Partition& partition(int index);
  const Partition& partition(int index) const;

  const TopicConfig& config() const { return config_; }

  /// Fault injection: records produced before `until` (exclusive) are
  /// dropped instead of appended — a telemetry-loss window. Idempotent;
  /// overlapping windows extend to the later bound.
  void set_drop_until(sim::SimTime until);
  /// True when a record timestamped `at` would be dropped.
  bool drops_at(sim::SimTime at) const { return at < drop_until_; }
  sim::SimTime drop_until() const { return drop_until_; }

 private:
  std::string name_;
  TopicConfig config_;
  std::vector<Partition> partitions_;
  sim::SimTime drop_until_ = 0;
};

/// The broker owns topics and consumer-group committed offsets.
class Broker {
 public:
  /// Creates a topic; rejects duplicates.
  Topic& create_topic(const std::string& name, TopicConfig config = {});
  /// Looks up a topic; nullptr if absent.
  Topic* find_topic(const std::string& name);

  /// Applies time-based retention across all topics.
  void enforce_retention(sim::SimTime now);

  /// Consumer-group committed offset bookkeeping.
  void commit_offset(const std::string& group, const std::string& topic, int partition,
                     int64_t offset);
  std::optional<int64_t> committed_offset(const std::string& group, const std::string& topic,
                                          int partition) const;

  /// Total records currently retained (diagnostics).
  size_t total_records() const;

 private:
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  // (group, topic, partition) -> next offset to consume
  std::map<std::tuple<std::string, std::string, int>, int64_t> committed_;
};

}  // namespace dcm::bus
