// Static consumer-group membership: members split partitions without
// overlap or loss.
#include <gtest/gtest.h>

#include "bus/consumer.h"
#include "bus/producer.h"

namespace dcm::bus {
namespace {

class GroupMembershipTest : public ::testing::Test {
 protected:
  GroupMembershipTest() {
    TopicConfig config;
    config.partitions = 4;
    broker_.create_topic("t", config);
  }
  Broker broker_;
};

TEST_F(GroupMembershipTest, MembersPartitionTheTopic) {
  Producer producer(broker_);
  for (int i = 0; i < 200; ++i) {
    producer.send("t", "key-" + std::to_string(i), std::to_string(i), i);
  }
  Consumer member0(broker_, "g", "t", 0, 2);
  Consumer member1(broker_, "g", "t", 1, 2);

  std::set<std::string> seen;
  size_t total = 0;
  for (Consumer* member : {&member0, &member1}) {
    for (const auto& record : member->poll(1000)) {
      EXPECT_TRUE(seen.insert(std::string(record.text())).second)
          << "duplicate delivery across members";
      ++total;
    }
  }
  EXPECT_EQ(total, 200u);  // nothing lost
}

TEST_F(GroupMembershipTest, SingleMemberFormEqualsDefault) {
  Producer producer(broker_);
  for (int i = 0; i < 20; ++i) producer.send("t", "k" + std::to_string(i), "v", i);
  Consumer explicit_solo(broker_, "g1", "t", 0, 1);
  Consumer default_solo(broker_, "g2", "t");
  EXPECT_EQ(explicit_solo.poll(100).size(), 20u);
  EXPECT_EQ(default_solo.poll(100).size(), 20u);
}

TEST_F(GroupMembershipTest, MembersCommitIndependentPartitions) {
  Producer producer(broker_);
  for (int i = 0; i < 100; ++i) producer.send("t", "key-" + std::to_string(i), "v", i);
  {
    Consumer member0(broker_, "g", "t", 0, 2);
    member0.poll(1000);
    member0.commit();
  }
  // A restarted member 0 sees nothing new; member 1 still has its backlog.
  Consumer member0_again(broker_, "g", "t", 0, 2);
  EXPECT_TRUE(member0_again.poll(1000).empty());
  Consumer member1(broker_, "g", "t", 1, 2);
  EXPECT_FALSE(member1.poll(1000).empty());
}

TEST_F(GroupMembershipTest, MoreMembersThanPartitionsLeavesIdleMembers) {
  Producer producer(broker_);
  for (int i = 0; i < 50; ++i) producer.send("t", "key-" + std::to_string(i), "v", i);
  size_t total = 0;
  for (int m = 0; m < 6; ++m) {
    Consumer member(broker_, "g6", "t", m, 6);
    total += member.poll(1000).size();
  }
  EXPECT_EQ(total, 50u);  // members 4 and 5 own no partitions but harm nothing
}

}  // namespace
}  // namespace dcm::bus
