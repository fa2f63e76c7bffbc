// Runtime backends: the same ping-pong and fan-in actors must behave
// identically on ThreadRuntime, TcpRuntime and SimRuntime; SimRuntime
// additionally produces exact virtual timings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "src/net/tcp_runtime.h"
#include "src/net/thread_runtime.h"
#include "src/sim/sim_runtime.h"

namespace now {
namespace {

constexpr int kPing = 1;
constexpr int kPong = 2;

/// Rank 0: sends N pings to each peer, stops after all pongs return.
class PingMaster final : public Actor {
 public:
  explicit PingMaster(int rounds) : rounds_(rounds) {}

  void on_start(Context& ctx) override {
    for (int w = 1; w < ctx.world_size(); ++w) {
      ctx.send(w, kPing, "ping-0");
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    ASSERT_EQ(msg.tag, kPong);
    ++pongs_;
    const int total_expected = rounds_ * (ctx.world_size() - 1);
    if (round_of(msg.payload) + 1 < rounds_) {
      ctx.send(msg.source, kPing,
               "ping-" + std::to_string(round_of(msg.payload) + 1));
    }
    if (pongs_ == total_expected) ctx.stop();
  }

  int pongs() const { return pongs_; }

 private:
  static int round_of(const std::string& payload) {
    return std::stoi(payload.substr(payload.find('-') + 1));
  }
  int rounds_;
  int pongs_ = 0;
};

class PongWorker final : public Actor {
 public:
  void on_start(Context&) override {}
  void on_message(Context& ctx, const Message& msg) override {
    ASSERT_EQ(msg.tag, kPing);
    ++pings_;
    ctx.send(0, kPong, "pong" + msg.payload.substr(4));
  }
  int pings() const { return pings_; }

 private:
  int pings_ = 0;
};

template <typename RuntimeT>
void run_ping_pong(RuntimeT& runtime, int workers, int rounds) {
  PingMaster master(rounds);
  std::vector<PongWorker> pongs(static_cast<std::size_t>(workers));
  std::vector<Actor*> actors{&master};
  for (auto& p : pongs) actors.push_back(&p);
  const RuntimeStats stats = runtime.run(actors);
  EXPECT_EQ(master.pongs(), workers * rounds);
  for (const auto& p : pongs) EXPECT_EQ(p.pings(), rounds);
  // Each ping and each pong crosses ranks.
  EXPECT_EQ(stats.messages, 2 * workers * rounds);
}

TEST(ThreadRuntime, PingPong) {
  ThreadRuntime runtime;
  run_ping_pong(runtime, 3, 5);
}

TEST(TcpRuntime, PingPong) {
  TcpRuntime runtime;
  run_ping_pong(runtime, 3, 5);
}

TEST(SimRuntime, PingPong) {
  SimConfig config;
  config.speeds = {1.0, 1.0, 1.0, 1.0};
  SimRuntime runtime(config);
  run_ping_pong(runtime, 3, 5);
}

TEST(ThreadRuntime, ManyWorkers) {
  ThreadRuntime runtime;
  run_ping_pong(runtime, 16, 3);
}

TEST(TcpRuntime, LargePayloadSurvivesFraming) {
  class BigMaster final : public Actor {
   public:
    std::string expected;
    bool matched = false;
    void on_start(Context& ctx) override {
      expected.assign(1 << 20, 'x');
      for (std::size_t i = 0; i < expected.size(); i += 37) {
        expected[i] = static_cast<char>('a' + (i % 26));
      }
      ctx.send(1, kPing, expected);
    }
    void on_message(Context& ctx, const Message& msg) override {
      matched = (msg.payload == expected);
      ctx.stop();
    }
  };
  class Echo final : public Actor {
   public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message& msg) override {
      ctx.send(0, kPong, msg.payload);
    }
  };
  BigMaster master;
  Echo echo;
  TcpRuntime runtime;
  runtime.run({&master, &echo});
  EXPECT_TRUE(master.matched);
}

// Teardown must not wait out a receive-timeout tick: with a 30 s timeout a
// round-trip run still returns at once, for rank 0's listener and for an
// extra endpoint's.
TEST(TcpRuntime, TeardownDoesNotWaitForReceiveTimeout) {
  for (const std::vector<int>& endpoints : {std::vector<int>{},
                                            std::vector<int>{2}}) {
    TcpOptions options;
    options.receive_timeout_seconds = 30.0;
    options.extra_endpoints = endpoints;
    TcpRuntime runtime(options);
    const auto start = std::chrono::steady_clock::now();
    run_ping_pong(runtime, 3, 1);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 10.0) << "endpoints: " << endpoints.size();
  }
}

// -- SimRuntime virtual-time semantics --------------------------------------

class ChargingWorker final : public Actor {
 public:
  explicit ChargingWorker(double cost) : cost_(cost) {}
  void on_start(Context&) override {}
  void on_message(Context& ctx, const Message&) override {
    ctx.charge(cost_);
    finish_time_ = ctx.now();
    ctx.send(0, kPong, "");
  }
  double finish_time() const { return finish_time_; }

 private:
  double cost_;
  double finish_time_ = 0.0;
};

class OneShotMaster final : public Actor {
 public:
  void on_start(Context& ctx) override {
    for (int w = 1; w < ctx.world_size(); ++w) ctx.send(w, kPing, "");
  }
  void on_message(Context& ctx, const Message&) override {
    if (++replies_ == ctx.world_size() - 1) ctx.stop();
  }

 private:
  int replies_ = 0;
};

TEST(SimRuntime, SpeedFactorsScaleCharges) {
  OneShotMaster master;
  ChargingWorker fast(10.0);
  ChargingWorker slow(10.0);
  SimConfig config;
  config.speeds = {1.0, 2.0, 0.5};  // worker1 2x fast, worker2 2x slow
  config.ethernet.latency_seconds = 0.0;
  config.ethernet.per_message_overhead_bytes = 0;
  SimRuntime runtime(config);
  const SimRuntimeStats stats = runtime.run_sim({&master, &fast, &slow});
  EXPECT_NEAR(fast.finish_time(), 5.0, 1e-9);
  EXPECT_NEAR(slow.finish_time(), 20.0, 1e-9);
  EXPECT_NEAR(stats.rank_busy_seconds[1], 5.0, 1e-9);
  EXPECT_NEAR(stats.rank_busy_seconds[2], 20.0, 1e-9);
  EXPECT_GE(stats.elapsed_seconds, 20.0);
}

TEST(SimRuntime, RejectsBadConfig) {
  OneShotMaster master;
  ChargingWorker w(1.0);
  {
    SimConfig config;
    config.speeds = {1.0};  // wrong count
    SimRuntime runtime(config);
    std::vector<Actor*> actors{&master, &w};
    EXPECT_THROW(runtime.run(actors), std::invalid_argument);
  }
  {
    SimConfig config;
    config.speeds = {1.0, 0.0};  // zero speed
    SimRuntime runtime(config);
    std::vector<Actor*> actors{&master, &w};
    EXPECT_THROW(runtime.run(actors), std::invalid_argument);
  }
}

TEST(SimRuntime, MessagesArriveInTimestampOrder) {
  // Worker 1 charges heavily before sending; worker 2 sends immediately.
  // The master must see worker 2's message first (lower virtual time).
  class Collector final : public Actor {
   public:
    std::vector<int> order;
    void on_start(Context& ctx) override {
      ctx.send(1, kPing, "");
      ctx.send(2, kPing, "");
    }
    void on_message(Context& ctx, const Message& msg) override {
      order.push_back(msg.source);
      if (order.size() == 2) ctx.stop();
    }
  };
  Collector master;
  ChargingWorker heavy(100.0);
  ChargingWorker light(1.0);
  SimConfig config;
  config.speeds = {1.0, 1.0, 1.0};
  SimRuntime runtime(config);
  runtime.run({&master, &heavy, &light});
  ASSERT_EQ(master.order.size(), 2u);
  EXPECT_EQ(master.order[0], 2);
  EXPECT_EQ(master.order[1], 1);
}

TEST(SimRuntime, EthernetDelaysDeliveries) {
  class TimedMaster final : public Actor {
   public:
    double receive_time = -1.0;
    void on_start(Context& ctx) override { ctx.send(1, kPing, ""); }
    void on_message(Context& ctx, const Message&) override {
      receive_time = ctx.now();
      ctx.stop();
    }
  };
  class InstantEcho final : public Actor {
   public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message&) override {
      ctx.send(0, kPong, std::string(1000, 'x'));
    }
  };
  TimedMaster master;
  InstantEcho echo;
  SimConfig config;
  config.speeds = {1.0, 1.0};
  config.ethernet.bandwidth_bytes_per_sec = 1000.0;
  config.ethernet.latency_seconds = 0.25;
  config.ethernet.per_message_overhead_bytes = 0;
  SimRuntime runtime(config);
  runtime.run({&master, &echo});
  // ping: 0 bytes -> 0.25s. pong: 1000 B / 1000 Bps + 0.25 = 1.25s later.
  EXPECT_NEAR(master.receive_time, 0.25 + 1.25, 1e-9);
}

TEST(SimRuntime, DeterministicAcrossRuns) {
  for (int i = 0; i < 2; ++i) {
    OneShotMaster master;
    ChargingWorker a(3.0), b(7.0);
    SimConfig config;
    config.speeds = {1.0, 1.0, 1.0};
    SimRuntime runtime(config);
    const SimRuntimeStats stats = runtime.run_sim({&master, &a, &b});
    static double first_elapsed = 0.0;
    if (i == 0) {
      first_elapsed = stats.elapsed_seconds;
    } else {
      EXPECT_EQ(stats.elapsed_seconds, first_elapsed);
    }
  }
}

}  // namespace
}  // namespace now
