#include "bus/consumer.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::bus {

Consumer::Consumer(Broker& broker, std::string group, std::string topic)
    : Consumer(broker, std::move(group), std::move(topic), 0, 1) {}

Consumer::Consumer(Broker& broker, std::string group, std::string topic, int member_index,
                   int member_count)
    : broker_(&broker),
      group_(std::move(group)),
      topic_name_(std::move(topic)),
      topic_(broker_->find_topic(topic_name_)) {
  DCM_CHECK(member_count >= 1);
  DCM_CHECK(member_index >= 0 && member_index < member_count);
  DCM_CHECK_MSG(topic_ != nullptr, "consumer on unknown topic");
  for (int p = 0; p < topic_->partition_count(); ++p) {
    if (p % member_count != member_index) continue;
    const auto committed = broker_->committed_offset(group_, topic_name_, p);
    positions_.emplace_back(p, committed.value_or(topic_->partition(p).base_offset()));
  }
}

std::span<const Record> Consumer::poll(size_t max_records) {
  batch_.clear();
  for (auto& [p, pos] : positions_) {
    if (batch_.size() >= max_records) break;
    const Partition& part = topic_->partition(p);
    // Retention may have trimmed past our position.
    pos = std::max(pos, part.base_offset());
    const auto fetched = part.fetch(pos, max_records - batch_.size());
    if (!fetched.empty()) {
      pos = fetched.back().offset + 1;
      batch_.insert(batch_.end(), fetched.begin(), fetched.end());
    }
  }
  // Deliver in event-time order so the controller sees one merged stream.
  // Sorting on (timestamp, fetch index) is the stable sort by timestamp,
  // without the temporary buffer std::stable_sort allocates.
  const auto by_time = [](const Record& a, const Record& b) { return a.timestamp < b.timestamp; };
  if (!std::is_sorted(batch_.begin(), batch_.end(), by_time)) {
    unsorted_.swap(batch_);
    order_.clear();
    for (size_t i = 0; i < unsorted_.size(); ++i) {
      order_.emplace_back(unsorted_[i].timestamp, static_cast<uint32_t>(i));
    }
    std::sort(order_.begin(), order_.end());
    batch_.clear();
    for (const auto& [timestamp, index] : order_) batch_.push_back(unsorted_[index]);
  }
  return batch_;
}

void Consumer::commit() {
  for (const auto& [p, pos] : positions_) {
    broker_->commit_offset(group_, topic_name_, p, pos);
  }
}

void Consumer::seek_to_end() {
  for (auto& [p, pos] : positions_) pos = topic_->partition(p).end_offset();
}

void Consumer::seek_to_beginning() {
  for (auto& [p, pos] : positions_) pos = topic_->partition(p).base_offset();
}

int64_t Consumer::lag() const {
  int64_t total = 0;
  for (const auto& [p, pos] : positions_) {
    total += std::max<int64_t>(0, topic_->partition(p).end_offset() - pos);
  }
  return total;
}

}  // namespace dcm::bus
