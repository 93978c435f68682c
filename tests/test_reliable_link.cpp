// ReliableLink unit tests against a mock Env: the retained-entry rules that
// keep point-to-point protocol messages alive across a receiver's rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/reliable.h"

namespace dynastar::sim {
namespace {

class MockEnv final : public Env {
 public:
  explicit MockEnv(ProcessId self) : self_(self) {}
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SimTime now() const override { return now_; }
  void send_message(ProcessId to, const MessagePtr& msg) override {
    sent.emplace_back(to, msg);
  }
  void start_timer(SimTime, std::function<void()>) override {}
  void consume_cpu(SimTime) override {}
  Rng& random() override { return rng_; }

  std::vector<std::pair<ProcessId, MessagePtr>> sent;
  SimTime now_ = 0;

 private:
  ProcessId self_;
  Rng rng_{1};
};

struct Payload final : Message {
  const char* type_name() const override { return "test.Payload"; }
};

/// Hands everything `from` sent to `to`'s link, StableNotices first: the
/// network does not order a raw notice behind a ResendReq sent with it.
/// Returns the application payloads `to` surfaced.
int deliver(MockEnv& from, MockEnv& to_env, ReliableLink& to) {
  auto batch = std::move(from.sent);
  from.sent.clear();
  std::stable_partition(batch.begin(), batch.end(), [](const auto& m) {
    return dynamic_cast<const StableNotice*>(m.second.get()) != nullptr;
  });
  int payloads = 0;
  for (const auto& [dest, msg] : batch) {
    if (dest != to_env.self()) continue;
    MessagePtr inner;
    to.handle(from.self(), msg, &inner);
    if (inner != nullptr) ++payloads;
  }
  return payloads;
}

TEST(ReliableLink, NoticeAfterRollbackWaitsForTheResendAck) {
  // The receiver acks a payload, then replaces its state (a crash restore
  // or a snapshot install) and checkpoints at once. Its checkpoint does
  // not hold the payload's effect, so the sender must re-drive it rather
  // than prune it on the receiver's notice.
  MockEnv sender_env(ProcessId{1});
  MockEnv receiver_env(ProcessId{2});
  ReliableLink sender(sender_env);
  ReliableLink receiver(receiver_env);
  const std::vector<ProcessId> to_sender = {ProcessId{1}};

  sender.send(ProcessId{2}, make_message<Payload>());
  EXPECT_EQ(deliver(sender_env, receiver_env, receiver), 1);
  sender_env.now_ = receiver_env.now_ = 10;
  deliver(receiver_env, sender_env, sender);  // the ack
  ASSERT_EQ(sender.unacked(), 0u);
  ASSERT_EQ(sender.retained(), 1u);

  receiver_env.now_ = sender_env.now_ = 20;
  receiver.restore(ReliableLink::State{}, to_sender);
  receiver.note_checkpoint(20, to_sender);
  deliver(receiver_env, sender_env, sender);  // notice first, then ResendReq
  EXPECT_EQ(sender.retained(), 1u) << "the notice pruned a lost delivery";
  // The re-driven payload travels with the ResendReq's ack.
  EXPECT_EQ(deliver(sender_env, receiver_env, receiver), 1)
      << "the ResendReq did not re-drive the payload";

  // Once the ResendReq is acked, notices flow again and prune as before.
  receiver_env.now_ = sender_env.now_ = 30;
  deliver(receiver_env, sender_env, sender);  // the payload's new ack
  receiver.note_checkpoint(40, to_sender);
  deliver(receiver_env, sender_env, sender);
  EXPECT_EQ(sender.retained(), 0u);
}

}  // namespace
}  // namespace dynastar::sim
