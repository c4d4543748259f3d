#include "bus/broker.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace dcm::bus {

int64_t Partition::append(sim::SimTime timestamp, std::span<const std::byte> value) {
  DCM_CHECK_MSG(value.size() <= Record::kMaxValueBytes, "record payload too large");
  const int64_t offset = end_offset();
  Record& record = log_.emplace_back();
  record.offset = offset;
  record.timestamp = timestamp;
  record.size = static_cast<uint32_t>(value.size());
  if (!value.empty()) std::memcpy(record.bytes, value.data(), value.size());
  return offset;
}

std::span<const Record> Partition::fetch(int64_t from, size_t max_records) const {
  const int64_t start = std::max(from, base_offset_);
  const int64_t end = end_offset();
  if (start >= end) return {};
  const auto first = static_cast<size_t>(start - base_offset_);
  const size_t n = std::min(max_records, static_cast<size_t>(end - start));
  return std::span<const Record>(log_).subspan(first, n);
}

void Partition::expire_before(sim::SimTime horizon) {
  size_t drop = 0;
  while (drop < log_.size() && log_[drop].timestamp < horizon) ++drop;
  if (drop == 0) return;
  log_.erase(log_.begin(), log_.begin() + static_cast<long>(drop));
  base_offset_ += static_cast<int64_t>(drop);
}

Topic::Topic(std::string name, TopicConfig config) : name_(std::move(name)), config_(config) {
  DCM_CHECK_MSG(config_.partitions >= 1, "topic needs at least one partition");
  partitions_.resize(static_cast<size_t>(config_.partitions));
}

void Topic::set_drop_until(sim::SimTime until) {
  if (until > drop_until_) drop_until_ = until;
}

int Topic::partition_for_key(std::string_view key) const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % static_cast<uint64_t>(partitions_.size()));
}

Partition& Topic::partition(int index) {
  DCM_CHECK(index >= 0 && index < partition_count());
  return partitions_[static_cast<size_t>(index)];
}

const Partition& Topic::partition(int index) const {
  DCM_CHECK(index >= 0 && index < partition_count());
  return partitions_[static_cast<size_t>(index)];
}

Topic& Broker::create_topic(const std::string& name, TopicConfig config) {
  DCM_CHECK_MSG(topics_.find(name) == topics_.end(), "duplicate topic");
  auto topic = std::make_unique<Topic>(name, config);
  Topic& ref = *topic;
  topics_.emplace(name, std::move(topic));
  return ref;
}

Topic* Broker::find_topic(const std::string& name) {
  const auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : it->second.get();
}

void Broker::enforce_retention(sim::SimTime now) {
  for (auto& [name, topic] : topics_) {
    const sim::SimTime retention = topic->config().retention;
    if (retention <= 0) continue;
    for (int p = 0; p < topic->partition_count(); ++p) {
      topic->partition(p).expire_before(now - retention);
    }
  }
}

void Broker::commit_offset(const std::string& group, const std::string& topic, int partition,
                           int64_t offset) {
  committed_[{group, topic, partition}] = offset;
}

std::optional<int64_t> Broker::committed_offset(const std::string& group, const std::string& topic,
                                                int partition) const {
  const auto it = committed_.find({group, topic, partition});
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

size_t Broker::total_records() const {
  size_t total = 0;
  for (const auto& [name, topic] : topics_) {
    for (int p = 0; p < topic->partition_count(); ++p) total += topic->partition(p).size();
  }
  return total;
}

}  // namespace dcm::bus
