// Fixture: no-raw-new-in-hot-path positive — a per-attempt heap record on the
// client request path (`ClosedLoopGenerator`, an out-of-line member).
struct Attempt {
  bool settled = false;
};

class ClosedLoopGenerator {
 public:
  bool issue_attempt();
};

bool ClosedLoopGenerator::issue_attempt() {
  Attempt* attempt = new Attempt{};
  const bool settled = attempt->settled;
  delete attempt;
  return settled;
}
