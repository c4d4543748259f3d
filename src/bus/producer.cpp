#include "bus/producer.h"

#include "common/check.h"

namespace dcm::bus {

Producer::Producer(Broker& broker) : broker_(&broker) {}

Producer::Route Producer::route(const std::string& topic_name, std::string_view key) const {
  Topic* topic = broker_->find_topic(topic_name);
  DCM_CHECK_MSG(topic != nullptr, "produce to unknown topic");
  return {topic, topic->partition_for_key(key)};
}

int64_t Producer::send(Route route, std::span<const std::byte> value, sim::SimTime timestamp) {
  DCM_CHECK(route.topic != nullptr);
  if (route.topic->drops_at(timestamp)) {
    ++records_dropped_;
    return -1;
  }
  const int64_t offset = route.topic->partition(route.partition).append(timestamp, value);
  ++records_sent_;
  return offset;
}

}  // namespace dcm::bus
