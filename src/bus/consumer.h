// Consumer: polls all partitions of a topic, tracking (and optionally
// committing) per-partition offsets under a consumer group.
//
// A freshly constructed consumer resumes from its group's committed offsets
// (Kafka semantics), or from the earliest retained record when the group has
// no commit yet.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bus/broker.h"

namespace dcm::bus {

class Consumer {
 public:
  /// The broker must outlive the consumer. The topic must exist.
  Consumer(Broker& broker, std::string group, std::string topic);

  /// Static group membership (Kafka's group.instance.id pattern): member
  /// `member_index` of `member_count` owns the partitions p with
  /// p % member_count == member_index. Members of the same group with the
  /// same topology share the work without overlap.
  Consumer(Broker& broker, std::string group, std::string topic, int member_index,
           int member_count);

  /// Fetches up to `max_records` across partitions (in partition order),
  /// advancing the in-memory position, and returns them merged in timestamp
  /// order (stable: ties keep partition, then offset, order). Does not
  /// commit. The view is into a buffer the consumer reuses: it stays valid
  /// until the next poll.
  std::span<const Record> poll(size_t max_records = 256);

  /// Persists current positions to the broker for this group.
  void commit();

  /// Moves the position of every partition to the log end (skip backlog).
  void seek_to_end();
  /// Moves the position of every partition to the earliest retained record.
  void seek_to_beginning();

  /// Records available but not yet polled.
  int64_t lag() const;

 private:
  Broker* broker_;
  std::string group_;
  std::string topic_name_;
  Topic* topic_;  // owned by the broker, which never deletes topics
  std::vector<std::pair<int, int64_t>> positions_;  // (partition, next offset), ascending
  // poll() buffers, reused so a steady-state poll does not allocate.
  std::vector<Record> batch_;
  std::vector<Record> unsorted_;
  std::vector<std::pair<sim::SimTime, uint32_t>> order_;  // (timestamp, index in unsorted_)
};

}  // namespace dcm::bus
