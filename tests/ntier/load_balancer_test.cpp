#include "ntier/load_balancer.h"

#include <gtest/gtest.h>

#include <map>

#include "ntier/server.h"
#include "sim/engine.h"

namespace dcm::ntier {
namespace {

ServerConfig tiny(const std::string& name) {
  ServerConfig config;
  config.name = name;
  config.cpu.params = {0.01, 0.0, 0.0};
  config.max_threads = 100;
  return config;
}

class LoadBalancerTest : public ::testing::Test {
 protected:
  LoadBalancerTest() {
    for (int i = 0; i < 3; ++i) {
      servers_.push_back(std::make_unique<Server>(engine_, tiny("s" + std::to_string(i)), 0,
                                                  Rng(static_cast<uint64_t>(i))));
    }
  }
  sim::Engine engine_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(LoadBalancerTest, EmptyReturnsNull) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  EXPECT_EQ(lb.pick(), nullptr);
}

TEST_F(LoadBalancerTest, RoundRobinCyclesEvenly) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  for (auto& s : servers_) lb.add(s.get());
  std::map<Server*, int> hits;
  for (int i = 0; i < 30; ++i) ++hits[lb.pick()];
  for (auto& s : servers_) EXPECT_EQ(hits[s.get()], 10);
}

TEST_F(LoadBalancerTest, RemoveKeepsRotationValid) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  for (auto& s : servers_) lb.add(s.get());
  lb.pick();
  lb.remove(servers_[1].get());
  std::map<Server*, int> hits;
  for (int i = 0; i < 20; ++i) ++hits[lb.pick()];
  EXPECT_EQ(hits[servers_[1].get()], 0);
  EXPECT_EQ(hits[servers_[0].get()] + hits[servers_[2].get()], 20);
  EXPECT_EQ(hits[servers_[0].get()], 10);
}

TEST_F(LoadBalancerTest, RemoveLastThenPickIsNull) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(servers_[0].get());
  lb.remove(servers_[0].get());
  EXPECT_EQ(lb.pick(), nullptr);
}

// Picks `n` backends and returns the hit count per server.
std::map<Server*, int> rotate(LoadBalancer& lb, int n) {
  std::map<Server*, int> hits;
  for (int i = 0; i < n; ++i) ++hits[lb.pick()];
  return hits;
}

TEST_F(LoadBalancerTest, AddMidRotationJoinsWithoutSkewingOthers) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(servers_[0].get());
  lb.add(servers_[1].get());
  lb.pick();  // cursor now at servers_[1]
  lb.add(servers_[2].get());
  // Over the next two full rotations every member must be picked exactly
  // twice — the newcomer is neither skipped nor double-picked.
  const auto hits = rotate(lb, 6);
  for (auto& s : servers_) EXPECT_EQ(hits.at(s.get()), 2) << "uneven rotation after add";
}

TEST_F(LoadBalancerTest, RemoveAtCursorDoesNotSkipSuccessor) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  for (auto& s : servers_) lb.add(s.get());
  EXPECT_EQ(lb.pick(), servers_[0].get());
  EXPECT_EQ(lb.pick(), servers_[1].get());
  // Cursor points at servers_[2]; removing exactly that member must hand the
  // next pick to its successor in rotation order (wrap to servers_[0]).
  lb.remove(servers_[2].get());
  EXPECT_EQ(lb.pick(), servers_[0].get());
  EXPECT_EQ(lb.pick(), servers_[1].get());
  EXPECT_EQ(lb.pick(), servers_[0].get());
}

TEST_F(LoadBalancerTest, RemoveBeforeCursorKeepsRotationPosition) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  for (auto& s : servers_) lb.add(s.get());
  lb.pick();  // s0
  lb.pick();  // s1, cursor at s2
  lb.remove(servers_[0].get());
  // s2 is still next — removing an already-visited member must not cause
  // s1 to be picked twice in the same rotation.
  EXPECT_EQ(lb.pick(), servers_[2].get());
  EXPECT_EQ(lb.pick(), servers_[1].get());
}

TEST_F(LoadBalancerTest, RemoveLastMemberThenReAddRestartsCleanly) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  for (auto& s : servers_) lb.add(s.get());
  lb.pick();
  lb.pick();
  for (auto& s : servers_) lb.remove(s.get());
  EXPECT_EQ(lb.pick(), nullptr);
  lb.add(servers_[1].get());
  lb.add(servers_[2].get());
  const auto hits = rotate(lb, 10);
  EXPECT_EQ(hits.at(servers_[1].get()), 5);
  EXPECT_EQ(hits.at(servers_[2].get()), 5);
}

TEST_F(LoadBalancerTest, ChurnStormKeepsFullRotationFair) {
  // Alternate membership churn with full rotations; after each churn step a
  // full rotation over the current members must hit every member exactly
  // once (no skips, no double-picks), regardless of cursor position.
  LoadBalancer lb(LbPolicy::kRoundRobin);
  lb.add(servers_[0].get());
  lb.add(servers_[1].get());
  lb.add(servers_[2].get());
  for (int step = 0; step < 12; ++step) {
    lb.pick();  // desynchronize the cursor from rotation starts
    Server* churned = servers_[static_cast<size_t>(step) % servers_.size()].get();
    lb.remove(churned);
    auto hits = rotate(lb, static_cast<int>(lb.member_count()));
    for (Server* m : lb.members()) {
      EXPECT_EQ(hits[m], 1) << "member skipped or double-picked after remove";
    }
    lb.add(churned);
    hits = rotate(lb, static_cast<int>(lb.member_count()));
    for (Server* m : lb.members()) {
      EXPECT_EQ(hits[m], 1) << "member skipped or double-picked after re-add";
    }
  }
}

TEST_F(LoadBalancerTest, LeastConnectionsPrefersIdleServer) {
  LoadBalancer lb(LbPolicy::kLeastConnections);
  for (auto& s : servers_) lb.add(s.get());
  // Load server 0 and 1 with in-flight work.
  auto req = std::make_shared<RequestContext>();
  req->demand_scale = {1.0};
  req->downstream_calls = {0};
  servers_[0]->process(req, [](bool) {});
  servers_[1]->process(req, [](bool) {});
  EXPECT_EQ(lb.pick(), servers_[2].get());
}

TEST_F(LoadBalancerTest, MemberCountTracksMembership) {
  LoadBalancer lb(LbPolicy::kRoundRobin);
  EXPECT_EQ(lb.member_count(), 0u);
  lb.add(servers_[0].get());
  lb.add(servers_[1].get());
  EXPECT_EQ(lb.member_count(), 2u);
  lb.remove(servers_[0].get());
  EXPECT_EQ(lb.member_count(), 1u);
}

}  // namespace
}  // namespace dcm::ntier
