#include "bus/broker.h"

#include <gtest/gtest.h>

namespace dcm::bus {
namespace {

TEST(PartitionTest, AppendsAssignDenseOffsets) {
  Partition p;
  EXPECT_EQ(p.append(0, text_payload("a")), 0);
  EXPECT_EQ(p.append(0, text_payload("b")), 1);
  EXPECT_EQ(p.end_offset(), 2);
  EXPECT_EQ(p.base_offset(), 0);
}

TEST(PartitionTest, FetchFromOffset) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.append(i, text_payload(std::to_string(i)));
  const auto records = p.fetch(2, 10);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].text(), "2");
  EXPECT_EQ(records[0].offset, 2);
}

TEST(PartitionTest, FetchRespectsMax) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.append(i, text_payload("v"));
  EXPECT_EQ(p.fetch(0, 2).size(), 2u);
}

TEST(PartitionTest, FetchBeyondEndIsEmpty) {
  Partition p;
  p.append(0, text_payload("v"));
  EXPECT_TRUE(p.fetch(5, 10).empty());
}

TEST(PartitionTest, ExpireMovesBaseOffset) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.append(i * 100, text_payload(std::to_string(i)));
  p.expire_before(250);
  EXPECT_EQ(p.base_offset(), 3);
  EXPECT_EQ(p.size(), 2u);
  // Offsets of surviving records unchanged.
  const auto records = p.fetch(0, 10);  // clamped to base 3
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].offset, 3);
}

TEST(TopicTest, KeyPartitioningIsStable) {
  Topic topic("t", {4, 0});
  const int p1 = topic.partition_for_key("server-1");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(topic.partition_for_key("server-1"), p1);
  EXPECT_GE(p1, 0);
  EXPECT_LT(p1, 4);
}

TEST(TopicTest, KeysSpreadAcrossPartitions) {
  Topic topic("t", {4, 0});
  std::set<int> used;
  for (int i = 0; i < 64; ++i) used.insert(topic.partition_for_key("key-" + std::to_string(i)));
  EXPECT_GE(used.size(), 3u);
}

TEST(BrokerTest, CreateAndFindTopic) {
  Broker broker;
  broker.create_topic("metrics", {2, 0});
  EXPECT_NE(broker.find_topic("metrics"), nullptr);
  EXPECT_EQ(broker.find_topic("absent"), nullptr);
  EXPECT_EQ(broker.find_topic("metrics")->partition_count(), 2);
}

TEST(BrokerTest, RetentionEnforcedPerTopicConfig) {
  Broker broker;
  TopicConfig config;
  config.partitions = 1;
  config.retention = 100;
  Topic& topic = broker.create_topic("short", config);
  topic.partition(0).append(10, text_payload("old"));
  topic.partition(0).append(500, text_payload("new"));
  broker.enforce_retention(/*now=*/550);
  EXPECT_EQ(topic.partition(0).size(), 1u);
  EXPECT_EQ(topic.partition(0).fetch(0, 10)[0].text(), "new");
}

TEST(BrokerTest, ZeroRetentionKeepsEverything) {
  Broker broker;
  Topic& topic = broker.create_topic("keep", {1, 0});
  topic.partition(0).append(1, text_payload("v"));
  broker.enforce_retention(1'000'000'000);
  EXPECT_EQ(topic.partition(0).size(), 1u);
}

TEST(BrokerTest, CommittedOffsets) {
  Broker broker;
  broker.create_topic("t", {1, 0});
  EXPECT_FALSE(broker.committed_offset("g", "t", 0).has_value());
  broker.commit_offset("g", "t", 0, 42);
  EXPECT_EQ(broker.committed_offset("g", "t", 0).value(), 42);
  broker.commit_offset("g", "t", 0, 50);
  EXPECT_EQ(broker.committed_offset("g", "t", 0).value(), 50);
  // Groups are independent.
  EXPECT_FALSE(broker.committed_offset("other", "t", 0).has_value());
}

TEST(BrokerTest, TotalRecordsAcrossTopics) {
  Broker broker;
  Topic& a = broker.create_topic("a", {2, 0});
  Topic& b = broker.create_topic("b", {1, 0});
  a.partition(0).append(0, text_payload("v"));
  a.partition(1).append(0, text_payload("v"));
  b.partition(0).append(0, text_payload("v"));
  EXPECT_EQ(broker.total_records(), 3u);
}

}  // namespace
}  // namespace dcm::bus
