#include "bus/consumer.h"

#include <gtest/gtest.h>

#include "bus/producer.h"

namespace dcm::bus {
namespace {

class ConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TopicConfig config;
    config.partitions = 4;
    broker_.create_topic("t", config);
  }
  Broker broker_;
};

TEST_F(ConsumerTest, ProducerAssignsByKey) {
  Producer producer(broker_);
  producer.send("t", "key", "v1", 1);
  producer.send("t", "key", "v2", 2);
  EXPECT_EQ(producer.records_sent(), 2u);
  Consumer consumer(broker_, "g", "t");
  const auto records = consumer.poll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].text(), "v1");
  EXPECT_EQ(records[1].text(), "v2");
}

TEST_F(ConsumerTest, PollAdvancesPosition) {
  Producer producer(broker_);
  producer.send("t", "a", "1", 1);
  Consumer consumer(broker_, "g", "t");
  EXPECT_EQ(consumer.poll().size(), 1u);
  EXPECT_TRUE(consumer.poll().empty());
  producer.send("t", "a", "2", 2);
  EXPECT_EQ(consumer.poll().size(), 1u);
}

TEST_F(ConsumerTest, MergedStreamIsTimeOrdered) {
  Producer producer(broker_);
  // Different keys → different partitions, interleaved timestamps.
  for (int i = 0; i < 20; ++i) {
    producer.send("t", "key-" + std::to_string(i % 5), "v", i);
  }
  Consumer consumer(broker_, "g", "t");
  const auto records = consumer.poll();
  ASSERT_EQ(records.size(), 20u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].timestamp, records[i].timestamp);
  }
}

TEST_F(ConsumerTest, CommitResumesNewConsumerAtPosition) {
  Producer producer(broker_);
  for (int i = 0; i < 6; ++i) producer.send("t", "k", std::to_string(i), i);
  {
    Consumer first(broker_, "g", "t");
    EXPECT_EQ(first.poll(3).size(), 3u);
    first.commit();
  }
  Consumer second(broker_, "g", "t");
  const auto rest = second.poll();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].text(), "3");
}

TEST_F(ConsumerTest, UncommittedPositionIsNotPersisted) {
  Producer producer(broker_);
  producer.send("t", "k", "v", 1);
  {
    Consumer first(broker_, "g", "t");
    EXPECT_EQ(first.poll().size(), 1u);
    // no commit
  }
  Consumer second(broker_, "g", "t");
  EXPECT_EQ(second.poll().size(), 1u);
}

TEST_F(ConsumerTest, IndependentGroups) {
  Producer producer(broker_);
  producer.send("t", "k", "v", 1);
  Consumer a(broker_, "group-a", "t");
  Consumer b(broker_, "group-b", "t");
  EXPECT_EQ(a.poll().size(), 1u);
  EXPECT_EQ(b.poll().size(), 1u);
}

TEST_F(ConsumerTest, SeekToEndSkipsBacklog) {
  Producer producer(broker_);
  for (int i = 0; i < 5; ++i) producer.send("t", "k", "old", i);
  Consumer consumer(broker_, "g", "t");
  consumer.seek_to_end();
  EXPECT_TRUE(consumer.poll().empty());
  producer.send("t", "k", "new", 10);
  const auto records = consumer.poll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].text(), "new");
}

TEST_F(ConsumerTest, SeekToBeginningReplays) {
  Producer producer(broker_);
  producer.send("t", "k", "v", 1);
  Consumer consumer(broker_, "g", "t");
  EXPECT_EQ(consumer.poll().size(), 1u);
  consumer.seek_to_beginning();
  EXPECT_EQ(consumer.poll().size(), 1u);
}

TEST_F(ConsumerTest, LagCountsUnpolledRecords) {
  Producer producer(broker_);
  Consumer consumer(broker_, "g", "t");
  EXPECT_EQ(consumer.lag(), 0);
  for (int i = 0; i < 7; ++i) producer.send("t", "k" + std::to_string(i), "v", i);
  EXPECT_EQ(consumer.lag(), 7);
  consumer.poll(3);
  EXPECT_EQ(consumer.lag(), 4);
}

TEST_F(ConsumerTest, SurvivesRetentionTrimAheadOfPosition) {
  TopicConfig config;
  config.partitions = 1;
  config.retention = 100;
  broker_.create_topic("short", config);
  Producer producer(broker_);
  producer.send("short", "k", "old", 10);
  Consumer consumer(broker_, "g", "short");
  broker_.enforce_retention(500);  // trims the record before it was polled
  producer.send("short", "k", "new", 490);
  const auto records = consumer.poll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].text(), "new");
}

TEST_F(ConsumerTest, PollHonorsMaxAcrossPartitions) {
  Producer producer(broker_);
  for (int i = 0; i < 40; ++i) producer.send("t", "key-" + std::to_string(i), "v", i);
  Consumer consumer(broker_, "g", "t");
  size_t total = 0;
  while (true) {
    const auto batch = consumer.poll(16);
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 16u);
    total += batch.size();
  }
  EXPECT_EQ(total, 40u);
}

}  // namespace
}  // namespace dcm::bus
