// Tier-front load balancer (the HAProxy substitute).
//
// Balances visits across the tier's ACTIVE servers. Round-robin matches
// HAProxy's default; least-connections is provided for ablation A2.
//
// Passive health checking (resilience mechanism): when a failure threshold
// is set, the balancer counts consecutive failed visits per member and stops
// routing to members at or past the threshold. A success resets the streak —
// a member marked down comes back as soon as something (e.g. an active
// health probe or a retried request) succeeds against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcm::ntier {

class Server;

enum class LbPolicy { kRoundRobin, kLeastConnections };

class LoadBalancer {
 public:
  explicit LoadBalancer(LbPolicy policy) : policy_(policy) {}

  void add(Server* server);
  void remove(Server* server);
  bool contains(const Server* server) const;

  /// Picks a backend, or nullptr when no member is registered (or every
  /// member is marked down by passive health checks).
  Server* pick();

  /// Enables passive health checks: a member with `failure_threshold`
  /// consecutive failed visits is skipped by pick() until a success resets
  /// it. 0 disables (the default — legacy behaviour, zero bookkeeping).
  void set_health_policy(int failure_threshold);
  int failure_threshold() const { return failure_threshold_; }

  /// Reports a visit outcome for passive health tracking. No-op when health
  /// checks are disabled or the server has since been removed.
  void report_result(const Server* server, bool ok);

  /// Consecutive-failure streak for a member (0 if unknown/healthy).
  int consecutive_failures(const Server* server) const;
  bool is_down(const Server* server) const;

  size_t member_count() const { return members_.size(); }
  const std::vector<Server*>& members() const { return members_; }
  LbPolicy policy() const { return policy_; }

 private:
  LbPolicy policy_;
  std::vector<Server*> members_;
  // Parallel to members_: consecutive failed visits per member.
  std::vector<int> failures_;
  size_t next_ = 0;
  int failure_threshold_ = 0;  // 0 = passive health checks off
};

}  // namespace dcm::ntier
